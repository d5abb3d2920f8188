// Tests of the multiplexed RPC bus: the incremental wire decoder
// (fragmented, coalesced, and oversized frames), raw-socket behavior of
// the dispatcher-based TcpProcedureHost, reply/seq matching for
// out-of-order completions, and the abandon-on-timeout contract (a
// deadline gives up on one seq, never on the shared connection).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <thread>

#include "obs/metrics.hpp"
#include "rpc/bus/channel.hpp"
#include "rpc/bus/frame.hpp"
#include "rpc/tcp_transport.hpp"
#include "uts/canonical.hpp"

namespace npss::rpc {
namespace {

using uts::Value;

Message make_msg(std::uint64_t seq, const std::string& a) {
  Message msg;
  msg.kind = MessageKind::kCall;
  msg.seq = seq;
  msg.a = a;
  return msg;
}

TEST(FrameDecoder, ReassemblesFramesFedOneByteAtATime) {
  util::ByteWriter out;
  bus::append_frame(out, make_msg(1, "first"), 64u << 20);
  bus::append_frame(out, make_msg(2, "second"), 64u << 20);
  util::Bytes bytes = std::move(out).take();

  bus::FrameDecoder decoder;
  std::vector<Message> seen;
  for (std::uint8_t byte : bytes) {
    decoder.feed(std::span(&byte, 1));
    while (auto frame = decoder.next()) seen.push_back(decode_message(*frame));
  }
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].seq, 1u);
  EXPECT_EQ(seen[0].a, "first");
  EXPECT_EQ(seen[1].seq, 2u);
  EXPECT_EQ(seen[1].a, "second");
  EXPECT_FALSE(decoder.partial());
}

TEST(FrameDecoder, YieldsCoalescedBackToBackFramesFromOneFeed) {
  util::ByteWriter out;
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    bus::append_frame(out, make_msg(seq, "m" + std::to_string(seq)),
                      64u << 20);
  }
  util::Bytes bytes = std::move(out).take();

  bus::FrameDecoder decoder;
  decoder.feed(bytes);
  std::uint64_t expect = 1;
  while (auto frame = decoder.next()) {
    EXPECT_EQ(decode_message(*frame).seq, expect++);
  }
  EXPECT_EQ(expect, 6u);
  EXPECT_FALSE(decoder.partial());
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameDecoder, TracksPartialFrameAcrossFeeds) {
  util::ByteWriter out;
  bus::append_frame(out, make_msg(9, "split"), 64u << 20);
  util::Bytes bytes = std::move(out).take();

  bus::FrameDecoder decoder;
  const std::size_t cut = bytes.size() / 2;
  decoder.feed(std::span(bytes.data(), cut));
  EXPECT_EQ(decoder.next(), std::nullopt);
  EXPECT_TRUE(decoder.partial());
  EXPECT_EQ(decoder.buffered(), cut);
  decoder.feed(std::span(bytes.data() + cut, bytes.size() - cut));
  auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(decode_message(*frame).seq, 9u);
  EXPECT_FALSE(decoder.partial());
}

TEST(FrameDecoder, RejectsOversizedLengthPrefixBeforeBuffering) {
  bus::FrameDecoder decoder(1024);
  const std::uint8_t prefix[4] = {0x00, 0x01, 0x00, 0x00};  // 65536 bytes
  decoder.feed(prefix);
  EXPECT_THROW(decoder.next(), util::EncodingError);
}

TEST(BusFrame, InPlaceCallFrameMatchesEncodeMessage) {
  // The zero-copy builder must be byte-identical to prefix+encode_message
  // over the equivalent Message, or the two transport generations would
  // disagree on the wire.
  const uts::SpecFile spec =
      uts::parse_spec("import inc prog(\"x\" val integer, \"y\" res integer)");
  const uts::ProcDecl& decl = spec.find("inc");
  const std::string import_text = uts::decl_to_string(decl);
  const uts::Signature& sig = decl.signature;
  const arch::ArchDescriptor& arch = arch::arch_catalog("sun-sparc10");
  auto plan = uts::compile_plan(sig, uts::Direction::kRequest);
  const uts::ValueList args = {Value::integer(41), Value::integer(0)};

  util::ByteWriter in_place;
  bus::append_call_frame(in_place, 7, "inc", import_text, *plan, arch, args,
                         obs::TraceContext{}, 64u << 20);

  Message msg;
  msg.kind = MessageKind::kCall;
  msg.seq = 7;
  msg.a = "inc";
  msg.b = import_text;
  msg.blob = uts::marshal(arch, sig, args, uts::Direction::kRequest);
  util::Bytes body = encode_message(msg);
  util::ByteWriter reference;
  reference.u32(static_cast<std::uint32_t>(body.size()));
  reference.raw(body);

  EXPECT_EQ(std::move(in_place).take(), std::move(reference).take());
}

// --- Raw-socket behavior of the dispatcher host ----------------------------

struct RawClient {
  explicit RawClient(int port)
      : fd(bus::tcp_connect_fd("127.0.0.1", port)) {}
  ~RawClient() { ::close(fd); }

  void send_all(const std::uint8_t* data, std::size_t size) {
    std::size_t sent = 0;
    while (sent < size) {
      ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  int fd;
};

util::Bytes framed_inc_call(std::uint64_t seq, std::int64_t x) {
  const std::string spec =
      "import inc prog(\"x\" val integer, \"y\" res integer)";
  uts::ProcDecl decl = uts::parse_spec(spec).find("inc");
  Message msg;
  msg.kind = MessageKind::kCall;
  msg.seq = seq;
  msg.a = "inc";
  msg.b = uts::decl_to_string(decl);
  msg.blob = uts::marshal(arch::arch_catalog("sun-sparc10"), decl.signature,
                          {Value::integer(x), Value::integer(0)},
                          uts::Direction::kRequest);
  util::ByteWriter out;
  bus::append_frame(out, msg, 64u << 20);
  return std::move(out).take();
}

std::unique_ptr<TcpProcedureHost> make_inc_host() {
  return std::make_unique<TcpProcedureHost>(
      "export inc prog(\"x\" val integer, \"y\" res integer)",
      std::vector<ProcedureDef>{{"inc", [](ProcCall& c) {
                                   c.set("y",
                                         Value::integer(c.integer("x") + 1));
                                 }}},
      "sun-sparc10");
}

Message read_reply(int fd) {
  auto read_all = [fd](std::uint8_t* data, std::size_t size) {
    std::size_t got = 0;
    while (got < size) {
      ssize_t n = ::recv(fd, data + got, size - got, 0);
      if (n <= 0) return false;
      got += static_cast<std::size_t>(n);
    }
    return true;
  };
  std::uint8_t prefix[4];
  EXPECT_TRUE(read_all(prefix, 4));
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len = (len << 8) | prefix[i];
  util::Bytes body(len);
  EXPECT_TRUE(read_all(body.data(), len));
  return decode_message(body);
}

/// The `y` result an inc reply carries.
std::int64_t inc_reply_y(const Message& reply) {
  uts::ValueList out =
      uts::unmarshal(arch::arch_catalog("sun-sparc10"),
                     uts::parse_spec("import inc prog(\"x\" val integer,"
                                     " \"y\" res integer)")
                         .find("inc")
                         .signature,
                     reply.blob, uts::Direction::kReply);
  return out[1].as_integer();
}

TEST(BusHost, ServesCallArrivingOneByteAtATime) {
  auto host_ptr = make_inc_host();
  TcpProcedureHost& host = *host_ptr;
  RawClient client(host.port());
  util::Bytes frame = framed_inc_call(3, 41);
  for (std::uint8_t byte : frame) {
    client.send_all(&byte, 1);
  }
  Message reply = read_reply(client.fd);
  EXPECT_EQ(reply.kind, MessageKind::kReply);
  EXPECT_EQ(reply.seq, 3u);
  EXPECT_EQ(inc_reply_y(reply), 42);
}

TEST(BusHost, ServesTwoFramesCoalescedIntoOneSend) {
  auto host_ptr = make_inc_host();
  TcpProcedureHost& host = *host_ptr;
  RawClient client(host.port());
  util::Bytes one = framed_inc_call(1, 10);
  util::Bytes two = framed_inc_call(2, 20);
  util::Bytes both = one;
  both.insert(both.end(), two.begin(), two.end());
  client.send_all(both.data(), both.size());
  // The host's worker pool may finish the two calls in either order: the
  // bus promises replies matched by seq (DESIGN.md §14), not FIFO replies.
  std::map<std::uint64_t, std::int64_t> y_by_seq;
  for (int i = 0; i < 2; ++i) {
    const Message reply = read_reply(client.fd);
    EXPECT_EQ(reply.kind, MessageKind::kReply);
    y_by_seq[reply.seq] = inc_reply_y(reply);
  }
  EXPECT_EQ(y_by_seq,
            (std::map<std::uint64_t, std::int64_t>{{1, 11}, {2, 21}}));
  EXPECT_EQ(host.calls(), 2);
}

TEST(BusHost, DropsConnectionOnOversizedFramePrefix) {
  auto host_ptr = make_inc_host();
  TcpProcedureHost& host = *host_ptr;
  RawClient client(host.port());
  // 128 MiB length prefix: over the 64 MiB cap — protocol violation.
  const std::uint8_t prefix[4] = {0x08, 0x00, 0x00, 0x00};
  client.send_all(prefix, 4);
  std::uint8_t byte;
  EXPECT_LE(::recv(client.fd, &byte, 1, 0), 0) << "connection must drop";
  EXPECT_EQ(host.calls(), 0);
}

// --- Multiplexing semantics ------------------------------------------------

TEST(BusChannel, RepliesMatchBySeqWhenCompletionsAreOutOfOrder) {
  TcpProcedureHost host(
      "export work prog(\"delay_ms\" val integer, \"x\" val integer,"
      " \"y\" res integer)",
      {{"work", [](ProcCall& c) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(c.integer("delay_ms")));
          c.set("y", Value::integer(c.integer("x") * 2));
        }}},
      "sun-sparc10");
  TcpRemoteProc work("127.0.0.1", host.port(), "work",
                     "import work prog(\"delay_ms\" val integer,"
                     " \"x\" val integer, \"y\" res integer)",
                     "sun-sparc10");
  // Slow call first, fast call second: both pipeline over one socket and
  // the fast reply overtakes the slow one on the wire.
  PendingTcpCall slow = work.call_async(
      {Value::integer(500), Value::integer(1), Value::integer(0)});
  PendingTcpCall fast = work.call_async(
      {Value::integer(0), Value::integer(2), Value::integer(0)});

  const auto t0 = std::chrono::steady_clock::now();
  CallResult& fast_result = fast.get();
  const auto fast_wait = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(fast_result.ok()) << fast_result.status.to_string();
  EXPECT_EQ(fast_result.values[2].as_integer(), 4);
  EXPECT_LT(fast_wait, std::chrono::milliseconds(300))
      << "fast reply must not queue behind the slow in-flight call";

  CallResult& slow_result = slow.get();
  ASSERT_TRUE(slow_result.ok()) << slow_result.status.to_string();
  EXPECT_EQ(slow_result.values[2].as_integer(), 2);
  EXPECT_EQ(host.calls(), 2);
}

TEST(BusChannel, TimeoutAbandonsSeqButKeepsTheConnection) {
  TcpProcedureHost host(
      "export nap prog(\"ms\" val integer, \"y\" res integer)",
      {{"nap", [](ProcCall& c) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(c.integer("ms")));
          c.set("y", Value::integer(c.integer("ms")));
        }}},
      "sun-sparc10");
  TcpRemoteProc nap("127.0.0.1", host.port(), "nap",
                    "import nap prog(\"ms\" val integer, \"y\" res integer)",
                    "sun-sparc10");
  auto channel = bus::TcpBus::instance().channel("127.0.0.1", host.port());
  const bus::BusConnection* before = channel->connection().get();
  const std::uint64_t abandoned_before =
      obs::Registry::global().counter("rpc.bus.abandoned_replies").value();

  CallOptions opts;
  opts.deadline_us = 50'000;
  opts.max_attempts = 1;
  CallResult timed_out =
      nap.call({Value::integer(400), Value::integer(0)}, opts);
  EXPECT_EQ(timed_out.status.code(), util::ErrorCode::kDeadlineExceeded);

  // The same connection keeps serving: no teardown, no reconnect.
  uts::ValueList out = nap.call({Value::integer(0), Value::integer(0)});
  EXPECT_EQ(out[1].as_integer(), 0);
  auto channel_after =
      bus::TcpBus::instance().channel("127.0.0.1", host.port());
  EXPECT_EQ(channel_after->connection().get(), before)
      << "a timeout must not tear down the pooled connection";

  // The straggler reply lands eventually and is discarded by seq.
  std::uint64_t abandoned_after = abandoned_before;
  for (int i = 0; i < 200 && abandoned_after <= abandoned_before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    abandoned_after =
        obs::Registry::global().counter("rpc.bus.abandoned_replies").value();
  }
  EXPECT_GT(abandoned_after, abandoned_before);
  EXPECT_EQ(host.calls(), 2);
}

}  // namespace
}  // namespace npss::rpc
