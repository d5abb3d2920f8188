// lines_churn — full line lifecycles against a 3-replica Manager.
//
// The sim fabric with SystemOptions::manager_replicas = 3. One op is one
// sequential line lifecycle: open_line -> contact_schx (spawn plus an
// export committed by quorum) -> import_proc (lookup) -> one call -> quit.
// It is the only workload that writes to the Manager and the replicated
// log; the others only read a bound call path.
//
// A run does a fixed number of lifecycles instead of running for a fixed
// time, because process memory grows with lifecycles: sim::Cluster keeps
// every finished process's thread until shutdown(). Counting lifecycles
// makes that growth repeat from run to run (peak_rss_mb,
// sim.rss_kb_per_op and sim.maps_per_op report it) instead of tracking
// speed. The seed only generates the call arguments.
#include <cstdio>
#include <memory>
#include <random>

#include "bench.hpp"
#include "rpc/schooner.hpp"
#include "sim/cluster.hpp"
#include "uts/value.hpp"

namespace perfbench {
namespace {

using npss::uts::Value;

constexpr long kLifecycles = 3000;  ///< ops per round
constexpr int kRounds = 32;
constexpr int kFleet = 4;           ///< hosts the lines spawn onto

const char* kSpec = "export inc prog(\"x\" val integer, \"y\" res integer)";
const char* kImport = "import inc prog(\"x\" val integer, \"y\" res integer)";

std::string fleet(long i) {
  std::string name = "m";
  name += std::to_string(i % kFleet);
  return name;
}

class LinesChurn final : public Workload {
 public:
  explicit LinesChurn(std::uint64_t seed) : rng_(seed) {}

  int rounds() const override { return kRounds; }
  long fixed_ops() const override { return kLifecycles; }

  void setup() override {
    cluster_ = std::make_unique<npss::sim::Cluster>();
    cluster_->add_machine("avs", "sun-sparc10", "a");
    for (int m = 0; m < kFleet; ++m) {
      cluster_->add_machine(fleet(m), "ibm-rs6000", "a");
      cluster_->install_image(
          fleet(m), "/bin/inc",
          npss::rpc::make_procedure_image(
              kSpec, {{"inc", [](npss::rpc::ProcCall& c) {
                         c.set("y", Value::integer(c.integer("x") + 1));
                       }}}));
    }
    npss::rpc::SystemOptions options;
    options.manager_replicas = 3;
    schooner_ = std::make_unique<npss::rpc::SchoonerSystem>(*cluster_, "avs",
                                                            options);
    session_ = schooner_->make_session("avs");
    if (!op(nullptr)) throw std::runtime_error("lines_churn warm-up op failed");
    base_ = schooner_->stats();
    traffic0_ = cluster_->traffic();
    rss0_kb_ = current_rss_kb();
    maps0_ = maps_count();
  }

  BlockStats run(double seconds, long max_ops, Samples& op_ms,
                 Tracer* tracer) override {
    return closed_loop(seconds, max_ops, op_ms, [&] {
      if (tracer) tracer->set_op(ops_);
      const bool ok = op(tracer);
      ++ops_;
      return ok;
    });
  }

  long finish_checks() override {
    rss1_kb_ = current_rss_kb();
    maps1_ = maps_count();
    traffic1_ = cluster_->traffic();
    session_.reset();
    schooner_->stop();  // the replica tallies are exact once quiescent
    stats_ = schooner_->stats();
    const auto lines = static_cast<long>(stats_.lines_created - base_.lines_created);
    const auto started =
        static_cast<long>(stats_.processes_started - base_.processes_started);
    if (lines == ops_ && started == ops_) return 0;
    std::fprintf(stderr,
                 "lines_churn: %ld ops but the Manager counted %ld lines "
                 "created and %ld processes started\n",
                 ops_, lines, started);
    return std::max(std::labs(lines - ops_), std::labs(started - ops_));
  }

  void layer_metrics(Metrics& m, long ops, const Tracer&) override {
    const double n = static_cast<double>(ops);
    const char* phases[] = {"open", "contact", "import", "call", "quit"};
    double phase_sum = 0.0;
    for (int i = 0; i < 5; ++i) {
      const double p50 = phase_us_[i].quantile(0.5);
      phase_sum += p50;
      m.set(std::string("manager.") + phases[i] + "_us.p50", p50, "us");
    }
    m.set("meta.log_appends_per_op",
          static_cast<double>(stats_.log_appends - base_.log_appends) / n,
          "count");
    m.set("meta.snapshot_installs",
          static_cast<double>(stats_.snapshot_installs - base_.snapshot_installs),
          "count");
    m.set("manager.lookups_per_op",
          static_cast<double>(stats_.lookups - base_.lookups) / n, "count");
    m.set("sim.rss_kb_per_op", (rss1_kb_ - rss0_kb_) / n, "kB");
    m.set("sim.maps_per_op", static_cast<double>(maps1_ - maps0_) / n, "count");
    m.set("sim.msgs_per_op",
          static_cast<double>(traffic1_.messages - traffic0_.messages) / n,
          "count");
    m.set("sim.bytes_per_op",
          static_cast<double>(traffic1_.bytes - traffic0_.bytes) / n, "B");
    m.set("rpc.host.handler_us.p50",
          registry_quantile("rpc.host.handler_us", 0.5), "us");
    m.set("rpc.client.bytes_marshaled_per_call",
          registry_counter("rpc.client.bytes_marshaled") /
              registry_counter("rpc.client.calls"),
          "B");
    const MarshalProbe probe = probe_marshal(
        kImport, "sun-sparc10", "ibm-rs6000",
        {Value::integer(41), Value::integer(0)});
    m.set("uts.marshal_us", probe.marshal_us, "us");
    m.set("uts.unmarshal_us", probe.unmarshal_us, "us");
    m.set("uts.fast_path_share", probe.fast_path_share, "1");
    // Op time = the five lifecycle phases.
    m.set("trace.accounted_frac", phase_sum / 1000.0 / traced_op_ms_.quantile(0.5),
          "1");
  }

 private:
  /// Times one phase into a manager-layer span (and its distribution).
  template <typename F>
  void phase(Tracer* tracer, int index, const char* name, F&& f) {
    if (!tracer) return f();
    tracer->begin(name, index == 3 ? "rpc" : "manager");
    f();
    phase_us_[index].add(tracer->end());
  }

  /// One lifecycle; true when the call returned x+1.
  bool op(Tracer* tracer) {
    const std::size_t depth = tracer ? tracer->depth() : 0;
    const std::int64_t x = static_cast<std::int64_t>(rng_() % (1u << 30));
    bool ok = false;
    try {
      if (tracer) tracer->begin("op", "manager");
      std::unique_ptr<npss::rpc::Line> line;
      std::unique_ptr<npss::rpc::RemoteProc> inc;
      npss::rpc::CallResult r;
      phase(tracer, 0, "open", [&] {
        line = session_->open_line(npss::rpc::LineOptions{}.with_name("churn"));
      });
      phase(tracer, 1, "contact",
            [&] { line->contact_schx(fleet(ops_), "/bin/inc"); });
      phase(tracer, 2, "import", [&] { inc = line->import_proc("inc", kImport); });
      phase(tracer, 3, "call", [&] {
        r = inc->call({Value::integer(x), Value::integer(0)},
                      npss::rpc::CallOptions::legacy());
      });
      phase(tracer, 4, "quit", [&] {
        inc.reset();
        line->quit();
      });
      if (tracer) traced_op_ms_.add(tracer->end() / 1000.0);
      ok = r.ok() && r.values[1].as_integer() == x + 1;
      if (!ok) std::fprintf(stderr, "lines_churn: call did not return x+1\n");
    } catch (const std::exception& e) {
      if (tracer) tracer->unwind(depth);
      std::fprintf(stderr, "lines_churn: op failed: %s\n", e.what());
    }
    return ok;
  }

  std::mt19937_64 rng_;
  std::unique_ptr<npss::sim::Cluster> cluster_;
  std::unique_ptr<npss::rpc::SchoonerSystem> schooner_;
  std::unique_ptr<npss::rpc::Session> session_;
  npss::rpc::ManagerStats base_;
  npss::rpc::ManagerStats stats_;
  npss::sim::Cluster::Traffic traffic0_, traffic1_;
  double rss0_kb_ = 0.0, rss1_kb_ = 0.0;
  long maps0_ = 0, maps1_ = 0;
  long ops_ = 0;
  Samples phase_us_[5];
  Samples traced_op_ms_;
};

}  // namespace

std::unique_ptr<Workload> make_lines_churn(std::uint64_t seed) {
  return std::make_unique<LinesChurn>(seed);
}

}  // namespace perfbench
