#include "rpc/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rpc/bus/frame.hpp"
#include "rpc/manager.hpp"
#include "rpc/metrics.hpp"
#include "util/log.hpp"

namespace npss::rpc {

using util::CallError;

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

/// Frame bytes that are not argument blob: prefix, fixed fields, string
/// lengths, empty table, optional trace extension. Lets the client count
/// blob bytes (the historical client_bytes_marshaled unit) without ever
/// materializing the blob.
std::size_t call_frame_overhead(const std::string& a, const std::string& b,
                                bool traced) {
  return 4 /*prefix*/ + 1 /*kind*/ + 8 /*seq*/ + 8 /*line*/ +
         (4 + a.size()) + (4 + b.size()) + 4 /*c*/ + 8 /*n*/ +
         4 /*blob len*/ + 4 /*table*/ + (traced ? 1 + 3 * 8 : 0);
}

}  // namespace

// --- TcpConnection ----------------------------------------------------------------

TcpConnection::~TcpConnection() { close(); }

std::unique_ptr<TcpConnection> TcpConnection::connect(const std::string& host,
                                                      int port) {
  return std::make_unique<TcpConnection>(bus::tcp_connect_fd(host, port));
}

void TcpConnection::write_all(const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    ssize_t n = ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) throw CallError("tcp send failed");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // Nonblocking socket with a full send buffer: a partial write
      // already consumed a prefix of `data`; wait for writability and
      // resume where we left off.
      pollfd pfd{fd_, POLLOUT, 0};
      int rc;
      do {
        rc = ::poll(&pfd, 1, -1);
      } while (rc < 0 && errno == EINTR);
      if (rc < 0) throw CallError("poll() failed while writing");
      continue;
    }
    throw CallError("tcp send failed");
  }
}

bool TcpConnection::read_all(std::uint8_t* data, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    ssize_t n = ::recv(fd_, data + got, size - got, 0);
    if (n == 0) return false;  // orderly close
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pollfd pfd{fd_, POLLIN, 0};
        int rc;
        do {
          rc = ::poll(&pfd, 1, -1);
        } while (rc < 0 && errno == EINTR);
        if (rc < 0) throw CallError("poll() failed while reading");
        continue;
      }
      throw CallError("tcp recv failed");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

void TcpConnection::send(const Message& msg) {
  util::Bytes frame = encode_message(msg);
  if (obs::enabled()) {
    rpc_metrics().frames_sent.add();
    rpc_metrics().bytes_sent.add(frame.size());
  }
  std::uint8_t prefix[4];
  const std::uint32_t len = static_cast<std::uint32_t>(frame.size());
  for (int i = 0; i < 4; ++i) {
    prefix[i] = static_cast<std::uint8_t>(len >> (8 * (3 - i)));
  }
  write_all(prefix, 4);
  write_all(frame.data(), frame.size());
}

bool TcpConnection::receive(Message& msg) {
  std::uint8_t prefix[4];
  if (!read_all(prefix, 4)) return false;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len = (len << 8) | prefix[i];
  if (len > (64u << 20)) {
    throw util::EncodingError("tcp frame length " + std::to_string(len) +
                              " exceeds the 64 MiB sanity cap");
  }
  util::Bytes frame(len);
  if (!read_all(frame.data(), len)) return false;
  if (obs::enabled()) {
    rpc_metrics().frames_received.add();
    rpc_metrics().bytes_received.add(frame.size());
  }
  msg = decode_message(frame);
  return true;
}

bool TcpConnection::receive_within(Message& msg, int timeout_ms) {
  if (timeout_ms > 0) {
    using clock_type = std::chrono::steady_clock;
    // Absolute deadline: an EINTR-interrupted poll resumes with the
    // *remaining* budget, instead of granting the full timeout again.
    const auto deadline =
        clock_type::now() + std::chrono::milliseconds(timeout_ms);
    pollfd pfd{fd_, POLLIN, 0};
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - clock_type::now());
      if (left.count() <= 0) {
        throw util::DeadlineError("no tcp reply within " +
                                  std::to_string(timeout_ms) + "ms");
      }
      const int rc = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (rc > 0) break;
      if (rc == 0) {
        throw util::DeadlineError("no tcp reply within " +
                                  std::to_string(timeout_ms) + "ms");
      }
      if (errno != EINTR) throw CallError("poll() failed on tcp connection");
    }
  }
  return receive(msg);
}

void TcpConnection::close() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

// --- TcpProcedureHost --------------------------------------------------------------

TcpProcedureHost::TcpProcedureHost(const std::string& spec_text,
                                   std::vector<ProcedureDef> procs,
                                   const std::string& arch_key, int port,
                                   bus::BusOptions bus_options)
    : arch_(&arch::arch_catalog(arch_key)) {
  uts::SpecFile spec = uts::parse_spec(spec_text);
  for (ProcedureDef& def : procs) {
    const uts::ProcDecl& decl = spec.find(def.name);
    Entry entry{decl, std::move(def.handler), {}};
    entry.defaults.reserve(decl.signature.size());
    for (const uts::Param& p : decl.signature) {
      entry.defaults.push_back(uts::default_value(p.type));
    }
    handlers_[lower(def.name)] = std::move(entry);
  }

  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) throw CallError("socket() failed");
  int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int err = errno;
    ::close(listen_fd);
    throw CallError("bind failed: " + std::string(std::strerror(err)));
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd, 64) != 0) {
    ::close(listen_fd);
    throw CallError("listen failed");
  }

  dispatcher_ =
      std::make_unique<bus::BusDispatcher>("tcp-host", bus_options);
  const int workers = std::max(bus_options.workers, 0);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] {
      while (auto work = work_.pop()) {
        handle(work->conn, work->msg);
      }
    });
  }
  dispatcher_->listen(listen_fd, [this](int fd) {
    dispatcher_->adopt(
        fd,
        [this](const std::shared_ptr<bus::BusConnection>& conn,
               Message&& msg) { on_frame(conn, std::move(msg)); },
        bus::BusConnection::CloseFn{});
  });
}

TcpProcedureHost::~TcpProcedureHost() { stop(); }

void TcpProcedureHost::stop() {
  if (stopping_.exchange(true)) return;
  if (dispatcher_) dispatcher_->stop();
  work_.close();
  workers_.clear();  // joins the pool; pop() drains queued calls first
}

void TcpProcedureHost::on_frame(
    const std::shared_ptr<bus::BusConnection>& conn, Message&& msg) {
  // Pings answered inline on the loop thread: the RTT probe must not sit
  // behind queued calls.
  if (msg.kind == MessageKind::kPing) {
    Message pong;
    pong.kind = MessageKind::kPong;
    pong.seq = msg.seq;
    conn->send_message(pong);
    return;
  }
  if (workers_.empty()) {
    handle(conn, msg);
    return;
  }
  const LineId line = msg.line;
  work_.push(line, Work{conn, std::move(msg)});
}

std::shared_ptr<const TcpProcedureHost::Prepared>
TcpProcedureHost::prepared_for(const Message& msg) {
  const std::string key = msg.a + '\n' + msg.b;
  {
    util::MutexLock lock(prep_mu_);
    auto it = prepared_.find(key);
    if (it != prepared_.end()) return it->second;
  }
  auto hit = handlers_.find(lower(msg.a));
  if (hit == handlers_.end()) {
    throw util::LookupError("no procedure '" + msg.a + "'");
  }
  auto prep = std::make_shared<Prepared>();
  prep->entry = &hit->second;
  prep->import_decl = parse_signature_text(msg.b);
  const std::string why = uts::signature_compatibility_error(
      prep->import_decl.signature, prep->entry->decl.signature);
  if (!why.empty()) throw util::TypeMismatchError(why);
  // Map import slots onto the export signature by name (subset imports
  // keep the export's order).
  prep->slot.resize(prep->import_decl.signature.size());
  std::size_t epos = 0;
  for (std::size_t i = 0; i < prep->import_decl.signature.size(); ++i) {
    while (prep->entry->decl.signature[epos].name !=
           prep->import_decl.signature[i].name) {
      ++epos;
    }
    prep->slot[i] = epos++;
  }
  prep->request_plan =
      uts::compile_plan(prep->import_decl.signature, uts::Direction::kRequest);
  prep->reply_plan =
      uts::compile_plan(prep->import_decl.signature, uts::Direction::kReply);
  util::MutexLock lock(prep_mu_);
  prepared_[key] = prep;
  return prep;
}

void TcpProcedureHost::handle(const std::shared_ptr<bus::BusConnection>& conn,
                              Message& msg) {
  if (msg.kind != MessageKind::kCall) {
    conn->send_message(Message::error_reply(
        msg, util::ErrorCode::kProtocolError, "tcp host: unexpected message"));
    return;
  }
  // Adopt the caller's trace: both ends of the socket log spans under
  // the same trace id.
  obs::Span span("rpc.host", "tcp serve " + msg.a, msg.trace);
  try {
    std::shared_ptr<const Prepared> prep = prepared_for(msg);
    const uts::Signature& import_sig = prep->import_decl.signature;
    uts::ValueList import_values =
        prep->request_plan->unmarshal(*arch_, msg.blob);

    uts::ValueList values = prep->entry->defaults;
    for (std::size_t i = 0; i < import_sig.size(); ++i) {
      if (uts::param_travels(import_sig[i].mode, uts::Direction::kRequest)) {
        values[prep->slot[i]] = std::move(import_values[i]);
      }
    }

    // No cluster runtime behind a TCP host: compute() is a no-op and
    // nested calls are unavailable.
    ProcCall call(prep->entry->decl.signature, std::move(values), nullptr);
    prep->entry->handler(call);

    uts::ValueList reply_values;
    reply_values.reserve(import_sig.size());
    for (std::size_t i = 0; i < import_sig.size(); ++i) {
      reply_values.push_back(call.values()[prep->slot[i]]);
    }
    std::size_t reply_frame_bytes = 0;
    conn->send_frame([&](util::ByteWriter& out) {
      const std::size_t before = out.size();
      bus::append_reply_frame(out, msg.seq, *prep->reply_plan, *arch_,
                              reply_values, span.context(),
                              dispatcher_->options().max_frame_bytes);
      reply_frame_bytes = out.size() - before;
      ++calls_;  // committed: counted before the reply bytes can leave,
                 // so a client that saw its reply also sees the counter
    });
    if (obs::enabled()) {
      RpcMetrics& m = rpc_metrics();
      m.host_calls.add();
      m.host_bytes_marshaled.add(msg.blob.size() + reply_frame_bytes);
      m.host_handler_us.record(span.elapsed_us());
    }
  } catch (const util::Error& e) {
    if (obs::enabled()) rpc_metrics().host_errors.add();
    conn->send_message(Message::error_reply(msg, e.code(), e.what()));
  }
}

// --- PendingTcpCall -----------------------------------------------------------------

PendingTcpCall::~PendingTcpCall() {
  // An un-got pending call abandons its seq; the shared connection and
  // its other in-flight calls are unaffected.
  if (!done_ && channel_ && reply_.valid()) channel_->abandon(seq_);
}

CallResult& PendingTcpCall::get() {
  if (!done_) owner_->finish(*this);
  return result_;
}

// --- TcpRemoteProc ------------------------------------------------------------------

TcpRemoteProc::TcpRemoteProc(const std::string& host, int port,
                             const std::string& name,
                             const std::string& import_spec_text,
                             const std::string& arch_key)
    : channel_(bus::TcpBus::instance().channel(host, port)),
      host_(host),
      port_(port),
      name_(name),
      arch_(&arch::arch_catalog(arch_key)) {
  uts::SpecFile spec = uts::parse_spec(import_spec_text);
  decl_ = spec.find(name);
  import_text_ = uts::decl_to_string(decl_);
  request_plan_ = uts::compile_plan(decl_.signature, uts::Direction::kRequest);
  reply_plan_ = uts::compile_plan(decl_.signature, uts::Direction::kReply);
  span_label_ = "tcp call " + name_;
  calls_by_name_ = &obs::Registry::global().counter("rpc.client.calls." + name_);
}

std::shared_ptr<bus::BusChannel>& TcpRemoteProc::live_channel() {
  if (!channel_ || !channel_->alive()) {
    channel_ = bus::TcpBus::instance().channel(host_, port_);
  }
  return channel_;
}

CallResult TcpRemoteProc::call(uts::ValueList args, const CallOptions& opts) {
  using clock_type = std::chrono::steady_clock;
  CallResult result;
  const uts::Signature& sig = decl_.signature;
  if (args.size() != sig.size()) {
    result.status = util::Status(util::ErrorCode::kTypeMismatch,
                                 "tcp call: argument count mismatch");
    return result;
  }
  obs::Span span("rpc.client", span_label_);
  const auto start = clock_type::now();
  const bool deadlined = opts.deadline_us > 0;
  const auto deadline =
      deadlined ? start + std::chrono::microseconds(opts.deadline_us)
                : clock_type::time_point::max();
  const int max_attempts = std::max(opts.max_attempts, 1);

  for (int n = 1; n <= max_attempts; ++n) {
    CallAttempt attempt;
    attempt.number = n;
    attempt.address = host_ + ":" + std::to_string(port_);
    if (clock_type::now() >= deadline) {
      result.status = util::Status(
          util::ErrorCode::kDeadlineExceeded,
          "tcp call to '" + name_ + "': deadline exhausted after " +
              std::to_string(result.attempts.size()) + " attempt(s)");
      break;
    }
    if (n > 1 && opts.backoff.initial_us > 0) {
      auto wait = std::chrono::microseconds(std::min<util::SimTime>(
          static_cast<util::SimTime>(
              static_cast<double>(opts.backoff.initial_us) *
              std::pow(std::max(opts.backoff.multiplier, 1.0), n - 2)),
          opts.backoff.max_us));
      attempt.backoff_us = wait.count();
      std::this_thread::sleep_for(wait);
    }
    bool retryable = false;
    try {
      std::shared_ptr<bus::BusChannel> ch = live_channel();
      obs::Span attempt_span("rpc.client", "attempt " + std::to_string(n));
      const std::uint64_t seq = ch->next_seq();
      std::size_t request_blob_bytes = 0;
      std::future<Message> fut = ch->send(seq, [&](util::ByteWriter& out) {
        const std::size_t before = out.size();
        bus::append_call_frame(out, seq, name_, import_text_, *request_plan_,
                               *arch_, args, attempt_span.context(),
                               ch->max_frame_bytes());
        request_blob_bytes =
            out.size() - before -
            call_frame_overhead(name_, import_text_,
                                attempt_span.context().active());
      });
      if (deadlined) {
        const auto left = deadline - clock_type::now();
        if (left <= clock_type::duration::zero() ||
            fut.wait_for(left) != std::future_status::ready) {
          // Abandon only this seq — the connection stays up and keeps
          // serving every other in-flight call; the late reply is
          // discarded by seq when it lands.
          ch->abandon(seq);
          throw util::DeadlineError(
              "no tcp reply within " +
              std::to_string(opts.deadline_us / 1000) + "ms");
        }
      }
      Message reply = fut.get();
      if (reply.is_error()) {
        attempt.status = util::Status(static_cast<util::ErrorCode>(reply.n),
                                      reply.a);
        result.attempts.push_back(attempt);
        result.status = attempt.status;
        break;  // the peer executed and refused: terminal
      }
      if (obs::enabled()) {
        RpcMetrics& m = rpc_metrics();
        m.client_calls.add();
        calls_by_name_->add();
        m.client_bytes_marshaled.add(request_blob_bytes + reply.blob.size());
        m.client_latency_us.record(span.elapsed_us());
      }
      uts::ValueList results = reply_plan_->unmarshal(*arch_, reply.blob);
      for (std::size_t i = 0; i < sig.size(); ++i) {
        if (!uts::param_travels(sig[i].mode, uts::Direction::kReply)) {
          results[i] = std::move(args[i]);
        }
      }
      attempt.status = util::Status::ok();
      result.attempts.push_back(attempt);
      result.status = util::Status::ok();
      result.values = std::move(results);
      return result;
    } catch (const util::DeadlineError& e) {
      attempt.status = util::Status::from(e);
      retryable = opts.idempotent;  // the connection is kept either way
    } catch (const CallError& e) {
      attempt.status = util::Status::from(e);
      channel_.reset();  // dead connection: next attempt re-pools
      retryable = true;
    } catch (const util::Error& e) {
      attempt.status = util::Status::from(e);
    }
    result.attempts.push_back(attempt);
    result.status = attempt.status;
    if (!retryable) break;
  }
  if (result.status.is_ok()) {
    result.status = util::Status(
        util::ErrorCode::kDeadlineExceeded,
        "tcp call to '" + name_ + "': no attempt possible within deadline");
  }
  return result;
}

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
uts::ValueList TcpRemoteProc::call(uts::ValueList args) {
  CallOptions opts = CallOptions::legacy();
  opts.max_attempts = 1;  // the original stub made exactly one attempt
  CallResult result = call(std::move(args), opts);
  return std::move(result.values_or_raise());
}
#pragma GCC diagnostic pop

PendingTcpCall TcpRemoteProc::call_async(uts::ValueList args,
                                         util::SimTime deadline_us) {
  PendingTcpCall pending;
  pending.owner_ = this;
  pending.deadline_us_ = deadline_us;
  pending.issued_ = std::chrono::steady_clock::now();
  pending.args_ = std::move(args);
  if (pending.args_.size() != decl_.signature.size()) {
    pending.done_ = true;
    pending.result_.status = util::Status(
        util::ErrorCode::kTypeMismatch, "tcp call: argument count mismatch");
    return pending;
  }
  try {
    std::shared_ptr<bus::BusChannel>& ch = live_channel();
    pending.channel_ = ch;
    pending.seq_ = ch->next_seq();
    const obs::TraceContext trace = obs::current_trace();
    pending.reply_ = ch->send(pending.seq_, [&](util::ByteWriter& out) {
      bus::append_call_frame(out, pending.seq_, name_, import_text_,
                             *request_plan_, *arch_, pending.args_, trace,
                             ch->max_frame_bytes());
    });
  } catch (const util::Error& e) {
    pending.done_ = true;
    pending.result_.status = util::Status::from(e);
  }
  return pending;
}

void TcpRemoteProc::finish(PendingTcpCall& pending) {
  CallAttempt attempt;
  attempt.number = 1;
  attempt.address = host_ + ":" + std::to_string(port_);
  pending.done_ = true;
  try {
    if (pending.deadline_us_ > 0) {
      const auto deadline =
          pending.issued_ + std::chrono::microseconds(pending.deadline_us_);
      const auto left = deadline - std::chrono::steady_clock::now();
      if (left <= std::chrono::steady_clock::duration::zero() ||
          pending.reply_.wait_for(left) != std::future_status::ready) {
        pending.channel_->abandon(pending.seq_);
        throw util::DeadlineError(
            "no tcp reply within " +
            std::to_string(pending.deadline_us_ / 1000) + "ms");
      }
    }
    Message reply = pending.reply_.get();
    if (reply.is_error()) {
      attempt.status =
          util::Status(static_cast<util::ErrorCode>(reply.n), reply.a);
      pending.result_.attempts.push_back(attempt);
      pending.result_.status = attempt.status;
      return;
    }
    if (obs::enabled()) {
      RpcMetrics& m = rpc_metrics();
      m.client_calls.add();
      calls_by_name_->add();
      m.client_bytes_marshaled.add(reply.blob.size());
      m.client_latency_us.record(
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - pending.issued_)
              .count());
    }
    const uts::Signature& sig = decl_.signature;
    uts::ValueList results = reply_plan_->unmarshal(*arch_, reply.blob);
    for (std::size_t i = 0; i < sig.size(); ++i) {
      if (!uts::param_travels(sig[i].mode, uts::Direction::kReply)) {
        results[i] = std::move(pending.args_[i]);
      }
    }
    attempt.status = util::Status::ok();
    pending.result_.attempts.push_back(attempt);
    pending.result_.status = util::Status::ok();
    pending.result_.values = std::move(results);
  } catch (const util::Error& e) {
    attempt.status = util::Status::from(e);
    pending.result_.attempts.push_back(attempt);
    pending.result_.status = attempt.status;
  }
}

double TcpRemoteProc::ping_us() {
  std::shared_ptr<bus::BusChannel> ch = live_channel();
  const auto before = std::chrono::steady_clock::now();
  const std::uint64_t seq = ch->next_seq();
  Message msg;
  msg.kind = MessageKind::kPing;
  msg.seq = seq;
  std::future<Message> fut = ch->send(seq, [&](util::ByteWriter& out) {
    bus::append_frame(out, msg, ch->max_frame_bytes());
  });
  Message reply = fut.get();  // matched by seq; throws if the peer died
  if (reply.kind != MessageKind::kPong) {
    throw CallError("unexpected reply to ping");
  }
  const double rtt_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - before)
          .count();
  if (obs::enabled()) rpc_metrics().rtt_us.record(rtt_us);
  return rtt_us;
}

}  // namespace npss::rpc
