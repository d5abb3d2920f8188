// Schedule exploration: bounded DFS over World action schedules with a
// hashed visited set.
//
// The search is depth-first over every Action the World enables, up to
// `depth` steps. The visited set maps the SHA-256 of
// World::fingerprint() (raw 32 bytes) to the largest *remaining depth*
// any exploration from that state has had. A revisit is skipped when the
// cached depth is at least the current remaining depth: everything
// reachable within the current budget was already searched from the
// identical state. A shallower first visit is re-explored, and its
// entry raised, because it would mask violations needing longer
// suffixes. The fingerprint is injective (model.hpp), so only a SHA-256
// collision could merge two distinct states.
//
// There is no partial-order reduction: sleep sets are sound with a
// state cache only when cache entries carry their sleep set, and with
// that they explored more states than this plain visited set at every
// bound measured (DESIGN.md §17).
//
// A violating schedule is minimized by greedy delta-debugging (drop one
// action, replay, keep the drop if the same code still fires) and
// rendered as a human-readable transcript plus a compact schedule
// string that decode_schedule()/replay() — and the regression tests —
// re-execute exactly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mc/model.hpp"

namespace npss::mc {

struct ExploreOptions {
  int depth = 12;                    ///< schedule length bound
  std::uint64_t max_states = 250000; ///< step budget (0 = unbounded)
  bool minimize = true;              ///< delta-debug violating schedules
};

struct ExploreStats {
  std::uint64_t states_explored = 0;  ///< step() calls made
  std::uint64_t visited_hits = 0;     ///< subtrees cut by the visited set
  /// Always 0 (there is no sleep-set reduction); kept because the
  /// benchmark's mc_gate workload reports it.
  std::uint64_t sleep_pruned = 0;
  std::uint64_t transitions = 0;      ///< enabled actions summed over states
  bool budget_exhausted = false;      ///< max_states hit before completion
};

struct ExploreResult {
  std::optional<Violation> violation;
  std::vector<Action> schedule;  ///< minimized violating schedule
  std::string transcript;        ///< human-readable replay of `schedule`
  ExploreStats stats;
};

/// Exhaustively explore `world_opts` up to the bounds. Deterministic:
/// the same options always return the same result.
ExploreResult explore(const Options& world_opts, const ExploreOptions& x);

/// Re-execute one schedule, checking invariants after every step and the
/// leaf invariant at the end. Returns the violation (if any), the full
/// transcript, and stats counting just the replayed steps. Throws
/// util::ProtocolError if an action is not enabled when its turn comes.
ExploreResult replay(const Options& world_opts,
                     const std::vector<Action>& schedule);

/// Compact schedule text: comma-separated actions, e.g.
/// "p0,c0,t1,d1>2,d2>1" — p=propose, t=timer, c=crash, r=restart,
/// d=deliver, x=drop, u=duplicate; "a>b" names the link.
std::string encode_schedule(const std::vector<Action>& schedule);
/// Throws util::ParseError on malformed text.
std::vector<Action> decode_schedule(const std::string& text);

}  // namespace npss::mc
