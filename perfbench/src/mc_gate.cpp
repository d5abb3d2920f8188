// mc_gate — the CI model-check gate, single-threaded mc::explore.
//
// One op runs the three explorations the CI model-check lane runs, at the
// same bounds:
//   quorum_o1: quorum protocol, 3 replicas, depth 7, ops 1, crashes 1,
//              drops 1, max 300k states — must come back clean;
//   quorum_o2: depth 7, ops 2, dups 1, crashes 1, drops 1, max 1M states —
//              must come back clean;
//   legacy:    the fire-and-forget protocol, depth 6, ops 1, no crashes or
//              drops — must find MC003 (acked write lost).
// It is the only workload for mc, the developer tool. Only world bounds,
// depth and max_states are set; every other ExploreOptions field keeps its
// default. The exploration is deterministic, so the seed changes nothing;
// it is accepted for a uniform command line.
#include <cstdio>

#include "bench.hpp"
#include "mc/explore.hpp"

namespace perfbench {
namespace {

struct Gate {
  const char* name;
  npss::mc::Options world;
  npss::mc::ExploreOptions x;
  const char* expect;  ///< violation code the gate must report, or null
};

std::vector<Gate> gates() {
  Gate o1{"quorum_o1", {}, {}, nullptr};
  o1.world.replicas = 3;
  o1.world.max_ops = 1;
  o1.world.max_crashes = 1;
  o1.world.max_drops = 1;
  o1.x.depth = 7;
  o1.x.max_states = 300'000;

  Gate o2{"quorum_o2", {}, {}, nullptr};
  o2.world.replicas = 3;
  o2.world.max_ops = 2;
  o2.world.max_duplicates = 1;
  o2.world.max_crashes = 1;
  o2.world.max_drops = 1;
  o2.x.depth = 7;
  o2.x.max_states = 1'000'000;

  Gate legacy{"legacy", {}, {}, "MC003"};
  legacy.world.replicas = 3;
  legacy.world.quorum_commit = false;
  legacy.world.max_ops = 1;
  legacy.world.max_crashes = 0;
  legacy.world.max_drops = 0;
  legacy.x.depth = 6;
  return {o1, o2, legacy};
}

class McGate final : public Workload {
 public:
  /// One gate run per round: a run is a fixed five gate runs, whatever
  /// --seconds says, since one takes ~4 s.
  long fixed_ops() const override { return 1; }

  void setup() override {
    // explore() keeps no state between calls, so there is nothing to warm
    // beyond the allocator: the untimed warm-up runs the legacy gate only.
    gates_ = gates();
    if (!check(gates_[2], npss::mc::explore(gates_[2].world, gates_[2].x))) {
      throw std::runtime_error("mc_gate warm-up gate failed");
    }
  }

  BlockStats run(double seconds, long max_ops, Samples& op_ms,
                 Tracer* tracer) override {
    return closed_loop(seconds, max_ops, op_ms, [&] {
      if (tracer) {
        tracer->set_op(traced_ops_++);
        tracer->begin("op", "mc");
      }
      bool ok = true;
      for (std::size_t g = 0; g < gates_.size(); ++g) {
        if (tracer) tracer->begin(gates_[g].name, "mc");
        const auto result = npss::mc::explore(gates_[g].world, gates_[g].x);
        if (tracer) tracer->end();
        ok = check(gates_[g], result) && ok;
        stats_[g] = result.stats;
      }
      if (tracer) tracer->end();
      return ok;
    });
  }

  void layer_metrics(Metrics& m, long, const Tracer& tracer) override {
    double states = 0.0;
    for (std::size_t g = 0; g < gates_.size(); ++g) {
      const std::string prefix = std::string("mc.") + gates_[g].name;
      m.set(prefix + ".states", static_cast<double>(stats_[g].states_explored),
            "count");
      m.set(prefix + ".visited_hits", static_cast<double>(stats_[g].visited_hits),
            "count");
      m.set(prefix + ".sleep_pruned", static_cast<double>(stats_[g].sleep_pruned),
            "count");
      m.set(prefix + ".transitions", static_cast<double>(stats_[g].transitions),
            "count");
      states += static_cast<double>(stats_[g].states_explored);
    }
    const long traced = tracer.name_count("op");
    m.set("mc.us_per_state",
          traced ? tracer.name_total_ms("op") * 1000.0 /
                       (states * static_cast<double>(traced))
                 : 0.0,
          "us");
    double in_gates = 0.0;
    for (const Gate& g : gates_) in_gates += tracer.name_total_ms(g.name);
    m.set("trace.accounted_frac",
          traced ? in_gates / tracer.name_total_ms("op") : 0.0, "1");
  }

 private:
  static bool check(const Gate& gate, const npss::mc::ExploreResult& r) {
    const bool ok = gate.expect ? r.violation && r.violation->code == gate.expect
                                : !r.violation && !r.stats.budget_exhausted;
    if (!ok) {
      std::fprintf(stderr, "mc_gate: %s gate: %s\n", gate.name,
                   r.violation ? r.violation->message.c_str()
                               : "expected violation not found or budget hit");
    }
    return ok;
  }

  std::vector<Gate> gates_;
  npss::mc::ExploreStats stats_[3];
  long traced_ops_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_mc_gate(std::uint64_t) {
  return std::make_unique<McGate>();
}

}  // namespace perfbench
