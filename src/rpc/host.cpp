#include "rpc/host.hpp"

#include <algorithm>
#include <cctype>
#include <thread>

#include "obs/trace.hpp"
#include "rpc/calling.hpp"
#include "rpc/manager.hpp"
#include "rpc/metrics.hpp"
#include "util/fair_queue.hpp"
#include "util/log.hpp"
#include "util/mutex.hpp"
#include "util/sha256.hpp"
#include "util/thread_annotations.hpp"

namespace npss::rpc {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

std::string table_get(const std::vector<std::string>& argv,
                      const std::string& key, const std::string& fallback) {
  for (std::size_t i = 0; i + 1 < argv.size(); i += 2) {
    if (argv[i] == key) return argv[i + 1];
  }
  return fallback;
}

}  // namespace

class HostRuntime {
 public:
  HostRuntime(sim::ProcessContext& ctx, const std::string& spec_text,
              const std::vector<ProcedureDef>& procs,
              const ProcedureImageOptions& options)
      : ctx_(ctx),
        io_(ctx.cluster(), ctx.self_ptr()),
        options_(options),
        exports_(uts::parse_spec(spec_text)),
        spec_hash_(util::sha256_hex(spec_text)) {
    manager_ = table_get(ctx.args(), "manager", "");
    line_ = std::stoll(table_get(ctx.args(), "line", "-1"));
    shared_ = table_get(ctx.args(), "shared", "0") == "1";
    path_ = table_get(ctx.args(), "path", "?");
    for (const ProcedureDef& def : procs) {
      const uts::ProcDecl& decl = exports_.find(def.name);
      if (decl.kind != uts::DeclKind::kExport) {
        throw util::ModelError("declaration for '" + def.name +
                               "' is not an export");
      }
      handlers_[lower(def.name)] = HandlerEntry{&decl, def.handler};
    }
  }

  void run() {
    register_exports();
    serve();
  }

  void compute(double microseconds) { ctx_.compute(microseconds); }

  uts::ValueList call_remote(const std::string& name,
                             const std::string& import_text,
                             uts::ValueList args) {
    if (options_.workers > 0) {
      // The dispatch loop owns io_.receive(); a nested call from a worker
      // would race it for the reply stream.
      throw util::ModelError(
          "nested call_remote is unavailable in a pooled host (workers > 0)");
    }
    auto decl_it = nested_decls_.find(import_text);
    if (decl_it == nested_decls_.end()) {
      decl_it = nested_decls_
                    .emplace(import_text, parse_signature_text(import_text))
                    .first;
    }
    const uts::ProcDecl& decl = decl_it->second;
    CallCore core;
    core.io = &io_;
    core.manager = manager_;
    core.line = line_;
    core.arch = &ctx_.self().arch();
    core.compute = [this](double us) { compute(us); };
    BindingCache& cache = nested_cache_[name];
    CallResult result = core.invoke(name, decl, import_text, std::move(args),
                                    cache, CallOptions::legacy());
    return std::move(result.values_or_raise());
  }

 private:
  struct HandlerEntry {
    const uts::ProcDecl* decl;
    ProcHandler handler;
  };

  /// Steady-state call state compiled from one caller's import text: the
  /// parsed import, its type-compat verdict against our export, the
  /// import->export slot map, and the marshal plans for both directions.
  /// Keyed per handler so repeated calls skip the whole parse/check path.
  struct ImportEntry {
    uts::ProcDecl decl;
    std::vector<std::size_t> slot_of_import;
    std::shared_ptr<const uts::MarshalPlan> request_plan;
    std::shared_ptr<const uts::MarshalPlan> reply_plan;
  };

  const ImportEntry& import_entry(const HandlerEntry& entry,
                                  const std::string& proc_name,
                                  const std::string& import_text) {
    const std::string key = lower(proc_name) + "\n" + import_text;
    // Pooled hosts reach here from several workers at once; map nodes are
    // reference-stable, so callers may keep the entry past the lock.
    util::MutexLock lock(import_mu_);
    auto it = import_cache_.find(key);
    if (it != import_cache_.end()) return it->second;

    // The wire layout follows the caller's import signature, which may
    // be a subsequence of the export (footnote 1): check compatibility,
    // then precompute the scatter map import slot -> export slot.
    ImportEntry ie;
    ie.decl = parse_signature_text(import_text);
    const uts::Signature& import_sig = ie.decl.signature;
    const uts::Signature& export_sig = entry.decl->signature;
    std::string why =
        uts::signature_compatibility_error(import_sig, export_sig);
    if (!why.empty()) {
      // Incompatible imports are not cached: they are a caller bug, not a
      // steady-state path.
      throw util::TypeMismatchError("call to '" + proc_name + "': " + why);
    }
    ie.slot_of_import.resize(import_sig.size());
    std::size_t epos = 0;
    for (std::size_t i = 0; i < import_sig.size(); ++i) {
      while (export_sig[epos].name != import_sig[i].name) ++epos;
      ie.slot_of_import[i] = epos;
      ++epos;
    }
    ie.request_plan =
        uts::compile_plan(import_sig, uts::Direction::kRequest);
    ie.reply_plan = uts::compile_plan(import_sig, uts::Direction::kReply);
    return import_cache_.emplace(key, std::move(ie)).first->second;
  }

  void register_exports() {
    const arch::ArchDescriptor& arch = ctx_.self().arch();
    Message msg;
    msg.kind = MessageKind::kExport;
    msg.line = line_;
    msg.a = path_;
    msg.b = ctx_.self().machine().name;
    // Content hash of the spec text this process was built against; lets
    // a strict-mode Manager detect a manifest that predates the spec.
    msg.c = spec_hash_;
    msg.n = shared_ ? 1 : 0;
    for (const auto& [key, entry] : handlers_) {
      // Export under the name the machine's compiler would emit: the
      // Cray's Fortran compiler upper-cases external names (§4.1).
      std::string external = entry.decl->name;
      if (options_.language == SourceLanguage::kFortran) {
        external = arch::fortran_external_name(arch, external);
      }
      msg.table.emplace_back(
          external, signature_text(uts::DeclKind::kExport, external,
                                   entry.decl->signature));
    }
    io_.call(manager_, std::move(msg));
    NPSS_LOG_DEBUG("host", io_.address(), " exported ", handlers_.size(),
                   " procedure(s) for line ", line_);
  }

  void serve() {
    // Pooled mode (§15 fairness): kCall work queues per line and the pool
    // drains lines round-robin, so one line's call storm waits behind its
    // own earlier calls instead of starving every other line. Control
    // messages stay on the dispatch thread, which also keeps sole
    // ownership of io_.receive().
    util::FairQueue<Incoming> queue;
    std::vector<std::jthread> pool;
    const int workers = std::max(options_.workers, 0);
    pool.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i) {
      pool.emplace_back([this, &queue] {
        while (auto work = queue.pop()) on_call(*work);
      });
    }
    while (auto in = io_.receive()) {
      const Message& msg = in->msg;
      switch (msg.kind) {
        case MessageKind::kCall:
          if (workers > 0) {
            queue.push(msg.line, std::move(*in));
          } else {
            on_call(*in);
          }
          break;
        case MessageKind::kStateRequest: {
          Message rep;
          rep.kind = MessageKind::kStateReply;
          rep.seq = msg.seq;
          if (options_.save_state) rep.blob = options_.save_state();
          io_.send(in->from, std::move(rep));
          break;
        }
        case MessageKind::kStateInstall: {
          Message rep;
          rep.kind = MessageKind::kStateAck;
          rep.seq = msg.seq;
          if (options_.restore_state) {
            options_.restore_state(msg.blob);
          }
          io_.send(in->from, std::move(rep));
          break;
        }
        case MessageKind::kPing:
          io_.send(in->from,
                   Message{.kind = MessageKind::kPong, .seq = msg.seq});
          break;
        case MessageKind::kShutdownProc:
          // Let the pool finish (and answer) everything already queued,
          // then error-answer whatever is still in the mailbox.
          queue.close();
          pool.clear();
          drain_and_exit(msg.a);
          return;
        default:
          io_.send(in->from,
                   Message::error_reply(msg, util::ErrorCode::kProtocolError,
                                        "procedure host: unexpected " +
                                            std::string(message_kind_name(
                                                msg.kind))));
      }
    }
    queue.close();
  }

  void on_call(const Incoming& in) {
    const Message& msg = in.msg;
    // Adopt the caller's trace so both hops share one trace id; nested
    // remote calls made by the handler become children of this span.
    obs::Span span("rpc.host", "serve " + msg.a, msg.trace);
    span.set_line(msg.line);
    try {
      auto it = handlers_.find(lower(msg.a));
      if (it == handlers_.end()) {
        throw util::LookupError("no procedure '" + msg.a +
                                "' in this process");
      }
      const HandlerEntry& entry = it->second;
      const uts::Signature& export_sig = entry.decl->signature;

      // Parse/type-check/plan-compile once per distinct import text; the
      // steady-state path below runs the compiled plans only.
      const ImportEntry& ie = import_entry(entry, msg.a, msg.b);
      const uts::Signature& import_sig = ie.decl.signature;
      const arch::ArchDescriptor& arch = ctx_.self().arch();
      compute(static_cast<double>(msg.blob.size()) * kMarshalUsPerByte);
      uts::ValueList import_values = ie.request_plan->unmarshal(arch, msg.blob);

      uts::ValueList values;
      values.reserve(export_sig.size());
      for (const uts::Param& p : export_sig) {
        values.push_back(uts::default_value(p.type));
      }
      for (std::size_t i = 0; i < import_sig.size(); ++i) {
        if (uts::param_travels(import_sig[i].mode, uts::Direction::kRequest)) {
          values[ie.slot_of_import[i]] = std::move(import_values[i]);
        }
      }

      ProcCall call(export_sig, std::move(values), this);
      if (options_.compute_us_per_call > 0) {
        compute(options_.compute_us_per_call);
      }
      entry.handler(call);

      // Gather reply values back into import order and marshal.
      uts::ValueList reply_values;
      reply_values.reserve(import_sig.size());
      for (std::size_t i = 0; i < import_sig.size(); ++i) {
        reply_values.push_back(call.values()[ie.slot_of_import[i]]);
      }
      util::Bytes blob = ie.reply_plan->marshal(arch, reply_values);
      compute(static_cast<double>(blob.size()) * kMarshalUsPerByte);
      Message rep;
      rep.kind = MessageKind::kReply;
      rep.seq = msg.seq;
      rep.blob = std::move(blob);
      rep.trace = span.context();
      if (obs::enabled()) {
        RpcMetrics& m = rpc_metrics();
        m.host_calls.add();
        m.host_bytes_marshaled.add(msg.blob.size() + rep.blob.size());
        m.host_handler_us.record(span.elapsed_us());
      }
      io_.send(in.from, std::move(rep));
    } catch (const util::Error& e) {
      if (obs::enabled()) rpc_metrics().host_errors.add();
      io_.send(in.from, Message::error_reply(msg, e.code(), e.what()));
    }
  }

  /// On shutdown, close the mailbox, then answer any queued calls with a
  /// stale-binding error so blocked callers re-bind instead of hanging.
  void drain_and_exit(const std::string& reason) {
    ctx_.self().close();
    while (auto in = io_.try_receive()) {
      if (in->msg.kind == MessageKind::kCall ||
          in->msg.kind == MessageKind::kStateRequest) {
        try {
          io_.send(in->from,
                   Message::error_reply(in->msg,
                                        util::ErrorCode::kStaleBinding,
                                        "procedure shut down: " + reason));
        } catch (const util::NoRouteError&) {
        }
      }
    }
    NPSS_LOG_DEBUG("host", io_.address(), " exiting: ", reason);
  }

  sim::ProcessContext& ctx_;
  MessageIo io_;
  ProcedureImageOptions options_;
  uts::SpecFile exports_;
  std::string manager_;
  LineId line_ = kNoLine;
  bool shared_ = false;
  std::string path_;
  std::string spec_hash_;
  std::map<std::string, HandlerEntry> handlers_;
  std::map<std::string, BindingCache> nested_cache_;
  std::map<std::string, uts::ProcDecl> nested_decls_;
  /// Guards import_cache_ in pooled mode; a leaf lock — compiling an
  /// entry (parse + plan compile) runs under it but takes only the
  /// uts.PlanCache below it (lock_hierarchy.md). The rest of
  /// HostRuntime's state is dispatch-thread-only: handlers_ and the
  /// nested caches are built at serve() start and then read-only to
  /// workers, and io_.receive() is owned by the dispatch thread alone.
  util::Mutex import_mu_{"rpc.Host.import_cache"};
  std::map<std::string, ImportEntry> import_cache_
      SCHOONER_GUARDED_BY(import_mu_);
};

const uts::Value& ProcCall::arg(std::size_t index) const {
  if (index >= values_.size()) {
    throw util::TypeMismatchError("argument index out of range");
  }
  return values_[index];
}

std::size_t ProcCall::index_of(std::string_view name) const {
  for (std::size_t i = 0; i < signature_->size(); ++i) {
    if ((*signature_)[i].name == name) return i;
  }
  throw util::TypeMismatchError("no parameter named '" + std::string(name) +
                                "'");
}

const uts::Value& ProcCall::arg(std::string_view name) const {
  return values_[index_of(name)];
}

void ProcCall::set(std::string_view name, uts::Value value) {
  values_[index_of(name)] = std::move(value);
}

void ProcCall::compute(double microseconds) {
  if (host_) host_->compute(microseconds);
}

uts::ValueList ProcCall::call_remote(const std::string& name,
                                     const std::string& import_spec_text,
                                     uts::ValueList args) {
  if (!host_) {
    throw util::ModelError(
        "nested remote calls need the Schooner cluster runtime");
  }
  return host_->call_remote(name, import_spec_text, std::move(args));
}

sim::ProgramImage make_procedure_image(std::string spec_text,
                                       std::vector<ProcedureDef> procs,
                                       ProcedureImageOptions options) {
  return [spec_text = std::move(spec_text), procs = std::move(procs),
          options = std::move(options)](sim::ProcessContext& ctx) {
    HostRuntime runtime(ctx, spec_text, procs, options);
    runtime.run();
  };
}

}  // namespace npss::rpc
