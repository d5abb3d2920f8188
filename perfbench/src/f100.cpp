// f100_table2 — the paper's Table 2 run on the sim fabric.
//
// The exact Table 2 placement (combustor on an SGI 4D/340, two ducts on
// the Cray YMP, nozzle on an SGI 4D/420, two shafts on the RS6000, TESS on
// the Sparc 10). One op is a Newton-Raphson balance plus a 1 s Improved
// Euler transient, closed loop. It is the user-facing case: ~5.5k
// sequential remote calls per op across four architectures, almost all of
// the op inside the component hooks. The seed only picks the throttle
// step of each op (within +-3% of 1.27 kg/s); every op is checked against
// a local-compute run of the same inputs.
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>

#include "bench.hpp"
#include "npss/procedures.hpp"
#include "npss/remote_backend.hpp"
#include "rpc/schooner.hpp"
#include "sim/cluster.hpp"
#include "tess/engine.hpp"

namespace perfbench {
namespace {

using npss::glue::AdaptedComponent;
using npss::tess::StationArray;

constexpr int kThrottles = 16;    ///< distinct throttle steps per run
constexpr double kAgreement = 1e-4;  ///< remote vs local, relative

/// The four figures the paper's verification compared.
struct Outputs {
  double n1, n2, t4, thrust;
};

struct Case {
  double throttle;
  Outputs steady;
  Outputs after;  ///< after the 1 s transient
};

Outputs outputs(const npss::tess::Performance& p) {
  return {p.speeds[0], p.speeds[1], p.t4, p.thrust};
}

bool agree(const Outputs& a, const Outputs& b) {
  auto rel = [](double x, double y) { return std::abs(x / y - 1.0); };
  return rel(a.n1, b.n1) <= kAgreement && rel(a.n2, b.n2) <= kAgreement &&
         rel(a.t4, b.t4) <= kAgreement && rel(a.thrust, b.thrust) <= kAgreement;
}

npss::tess::FuelSchedule schedule(double throttle) {
  return [throttle](double t) { return t < 0.1 ? 1.0 : throttle; };
}

class F100Table2 final : public Workload {
 public:
  explicit F100Table2(std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> step(-0.03, 0.03);
    for (int i = 0; i < kThrottles; ++i) {
      cases_.push_back(Case{1.27 * (1.0 + step(rng)), {}, {}});
    }
  }

  void setup() override {
    // Local-compute references: the original versions of the modules.
    for (Case& c : cases_) {
      npss::tess::F100Engine local;
      const auto steady_state = local.balance(1.0, flight_);
      const auto tr = local.transient(
          steady_state.performance.speeds, schedule(c.throttle), flight_, 1.0,
          0.02, npss::solvers::IntegratorKind::kModifiedEuler);
      c.steady = outputs(steady_state.performance);
      c.after = outputs(tr.history.back().performance);
    }

    cluster_ = std::make_unique<npss::sim::Cluster>();
    build_paper_testbed(*cluster_);
    npss::glue::install_tess_procedures_everywhere(*cluster_);
    schooner_ = std::make_unique<npss::rpc::SchoonerSystem>(*cluster_, "sparc-ua");
    backend_ = std::make_unique<npss::glue::RemoteBackend>(*schooner_, "sparc-ua");
    backend_->place(AdaptedComponent::kCombustor, 0, {"sgi340-ua", ""});
    backend_->place(AdaptedComponent::kDuct, 0, {"cray-lerc", ""});
    backend_->place(AdaptedComponent::kDuct, 1, {"cray-lerc", ""});
    backend_->place(AdaptedComponent::kNozzle, 0, {"sgi420-lerc", ""});
    backend_->place(AdaptedComponent::kShaft, 0, {"rs6000-lerc", ""});
    backend_->place(AdaptedComponent::kShaft, 1, {"rs6000-lerc", ""});
    engine_ = std::make_unique<npss::tess::F100Engine>();
    engine_->set_hooks(timed_hooks(backend_->hooks()));
    engine_->set_solver_tolerances(5e-6, 1e-4);

    if (!op(cases_[0], nullptr)) {
      throw std::runtime_error("f100_table2 warm-up op failed its check");
    }
    calls0_ = backend_->total_calls();
    traffic0_ = cluster_->traffic();
    virtual_us_ = 0.0;
  }

  BlockStats run(double seconds, long max_ops, Samples& op_ms,
                 Tracer* tracer) override {
    return closed_loop(seconds, max_ops, op_ms, [&] {
      const long i = next_++;
      if (tracer) tracer->set_op(i);
      return op(cases_[static_cast<std::size_t>(i % kThrottles)], tracer);
    });
  }

  void layer_metrics(Metrics& m, long ops, const Tracer& tracer) override {
    const double n = static_cast<double>(ops);
    const double calls = (backend_->total_calls() - calls0_) / n;
    const long traced = tracer.name_count("op");
    const double tess_self =
        traced ? tracer.layer_self_ms("tess") / static_cast<double>(traced) : 0.0;
    const auto traffic = cluster_->traffic();
    m.set("tess.self_ms", tess_self, "ms");
    m.set("tess.rhs_evals",
          registry_counter("tess.engine.rhs_evaluations") / n, "count");
    m.set("solvers.newton_iters",
          (registry_histogram_sum("tess.engine.balance_iterations") +
           registry_histogram_sum("tess.engine.step_flow_iterations")) / n,
          "count");
    m.set("npss.calls_per_op", calls, "count");
    m.set("npss.hook_us.p50", hook_us_.quantile(0.5), "us");
    m.set("npss.hook_us.p99", hook_us_.quantile(0.99), "us");
    m.set("npss.hook_share",
          tracer.layer_self_ms("npss") / tracer.name_total_ms("op"), "1");
    m.set("sim.msgs_per_op",
          static_cast<double>(traffic.messages - traffic0_.messages) / n, "count");
    m.set("sim.bytes_per_op",
          static_cast<double>(traffic.bytes - traffic0_.bytes) / n, "B");
    m.set("sim.virtual_s_per_op", virtual_us_ / 1e6 / n, "s");
    m.set("rpc.host.handler_us.p50", registry_quantile("rpc.host.handler_us", 0.5),
          "us");
    m.set("rpc.client.bytes_marshaled_per_call",
          registry_counter("rpc.client.bytes_marshaled") /
              registry_counter("rpc.client.calls"),
          "B");
    // The duct on the Cray is the non-IEEE end most calls cross.
    using npss::uts::Value;
    const MarshalProbe probe = probe_marshal(
        npss::glue::duct_import_spec(), "sun-sparc10", "cray-ymp",
        {Value::real_array({60.0, 450.0, 3.0e5, 0.0}), Value::real(0.03),
         Value::real_array({0.0, 0.0, 0.0, 0.0})});
    m.set("uts.marshal_us", probe.marshal_us, "us");
    m.set("uts.unmarshal_us", probe.unmarshal_us, "us");
    m.set("uts.fast_path_share", probe.fast_path_share, "1");
    // Op time = hook calls x hook time + TESS's own time.
    m.set("trace.accounted_frac",
          (calls * hook_us_.quantile(0.5) / 1000.0 + tess_self) /
              traced_op_ms_.quantile(0.5),
          "1");
  }

 private:
  /// Runs `f` inside an npss-layer span when tracing.
  template <typename F>
  auto timed(const char* name, F&& f) -> decltype(f()) {
    if (!tracer_) return f();
    tracer_->begin(name, "npss");
    auto r = f();
    hook_us_.add(tracer_->end());
    return r;
  }

  npss::tess::ComponentHooks timed_hooks(npss::tess::ComponentHooks h) {
    npss::tess::ComponentHooks out;
    out.duct = [this, f = h.duct](int i, const StationArray& in, double dp) {
      return timed("hook.duct", [&] { return f(i, in, dp); });
    };
    out.combustor = [this, f = h.combustor](int i, const StationArray& in,
                                            double wf, double eff, double dp) {
      return timed("hook.combustor", [&] { return f(i, in, wf, eff, dp); });
    };
    out.nozzle = [this, f = h.nozzle](int i, const StationArray& in,
                                      double area, double pamb) {
      return timed("hook.nozzle", [&] { return f(i, in, area, pamb); });
    };
    out.setshaft = [this, f = h.setshaft](int s, const StationArray& ecom,
                                          int incom, const StationArray& etur,
                                          int intur) {
      return timed("hook.setshaft",
                   [&] { return f(s, ecom, incom, etur, intur); });
    };
    out.shaft = [this, f = h.shaft](int s, const StationArray& ecom, int incom,
                                    const StationArray& etur, int intur,
                                    double ecorr, double xspool, double xmyi) {
      return timed("hook.shaft", [&] {
        return f(s, ecom, incom, etur, intur, ecorr, xspool, xmyi);
      });
    };
    return out;
  }

  /// One balance + transient; true when it matches the local reference
  /// and no hook fell back to local compute.
  bool op(const Case& c, Tracer* tracer) {
    tracer_ = tracer;
    const std::size_t depth = tracer ? tracer->depth() : 0;
    const int degraded0 = backend_->degraded_calls();
    backend_->reset_clocks();
    bool ok = false;
    try {
      if (tracer) tracer->begin("op", "tess");
      if (tracer) tracer->begin("balance", "tess");
      const auto steady_state = engine_->balance(1.0, flight_);
      if (tracer) tracer->end();
      if (tracer) tracer->begin("transient", "tess");
      const auto tr = engine_->transient(
          steady_state.performance.speeds, schedule(c.throttle), flight_, 1.0,
          0.02, npss::solvers::IntegratorKind::kModifiedEuler);
      if (tracer) tracer->end();
      if (tracer) traced_op_ms_.add(tracer->end() / 1000.0);
      ok = agree(outputs(steady_state.performance), c.steady) &&
           agree(outputs(tr.history.back().performance), c.after) &&
           backend_->degraded_calls() == degraded0;
      if (!ok) {
        std::fprintf(stderr, "f100_table2: op at throttle %.5f disagrees with "
                             "the local run (or degraded)\n", c.throttle);
      }
    } catch (const std::exception& e) {
      if (tracer) tracer->unwind(depth);
      std::fprintf(stderr, "f100_table2: op failed: %s\n", e.what());
    }
    virtual_us_ += static_cast<double>(backend_->elapsed_virtual_us());
    tracer_ = nullptr;
    return ok;
  }

  std::vector<Case> cases_;
  npss::tess::FlightCondition flight_;
  std::unique_ptr<npss::sim::Cluster> cluster_;
  std::unique_ptr<npss::rpc::SchoonerSystem> schooner_;
  std::unique_ptr<npss::glue::RemoteBackend> backend_;
  std::unique_ptr<npss::tess::F100Engine> engine_;
  Tracer* tracer_ = nullptr;
  Samples hook_us_;
  Samples traced_op_ms_;
  long next_ = 0;
  int calls0_ = 0;
  npss::sim::Cluster::Traffic traffic0_;
  double virtual_us_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_f100_table2(std::uint64_t seed) {
  return std::make_unique<F100Table2>(seed);
}

}  // namespace perfbench
