#include "mc/explore.hpp"

#include <cctype>
#include <cstring>
#include <sstream>
#include <unordered_map>

#include "util/sha256.hpp"
#include "util/status.hpp"

namespace npss::mc {

namespace {

util::Sha256Digest state_hash(const World& world) {
  const util::Bytes image = world.fingerprint();
  return util::sha256(std::string_view(
      reinterpret_cast<const char*>(image.data()), image.size()));
}

/// The digest is already uniform: its first word is a good bucket hash.
struct DigestHash {
  std::size_t operator()(const util::Sha256Digest& d) const {
    std::size_t h;
    std::memcpy(&h, d.data(), sizeof h);
    return h;
  }
};

struct Search {
  const ExploreOptions& x;
  /// state hash -> the largest remaining depth explored from that state.
  std::unordered_map<util::Sha256Digest, int, DigestHash> visited;
  ExploreStats stats;
  std::optional<Violation> violation;
  std::vector<Action> path;
  std::vector<Action> found;
  bool stopped = false;

  bool out_of_budget() {
    if (x.max_states != 0 && stats.states_explored >= x.max_states) {
      stats.budget_exhausted = true;
      stopped = true;
    }
    return stopped;
  }

  /// Returns true when a violation was found (search stops).
  bool dfs(const World& world, int remaining) {
    if (std::optional<Violation> v = world.check()) {
      violation = std::move(v);
      found = path;
      return true;
    }
    if (remaining == 0) {
      if (std::optional<Violation> v = world.check_leaf()) {
        violation = std::move(v);
        found = path;
        return true;
      }
      return false;
    }
    const std::vector<Action> acts = world.enabled();
    stats.transitions += acts.size();
    for (const Action& action : acts) {
      if (out_of_budget()) return false;
      World next = world;
      next.step(action);
      ++stats.states_explored;
      const auto [it, inserted] =
          visited.try_emplace(state_hash(next), remaining - 1);
      if (!inserted) {
        if (it->second >= remaining - 1) {
          ++stats.visited_hits;
          continue;
        }
        it->second = remaining - 1;
      }
      path.push_back(action);
      if (dfs(next, remaining - 1)) return true;
      path.pop_back();
      if (stopped) return false;
    }
    return false;
  }
};

struct RunOutcome {
  bool valid = true;  ///< every action was enabled when its turn came
  std::optional<Violation> violation;
  std::string transcript;
  std::uint64_t steps = 0;
};

RunOutcome run_schedule(const Options& wopts,
                        const std::vector<Action>& schedule) {
  RunOutcome out;
  World world(wopts);
  std::ostringstream os;
  os << "schedule: " << encode_schedule(schedule) << "\n";
  if (out.violation = world.check(); out.violation) {
    os << "violation before any step\n";
    out.transcript = os.str();
    return out;
  }
  std::size_t n = 0;
  for (const Action& action : schedule) {
    if (!world.is_enabled(action)) {
      out.valid = false;
      out.transcript = os.str();
      return out;
    }
    os << "  " << ++n << ". " << world.describe(action) << "\n";
    world.step(action);
    ++out.steps;
    if (out.violation = world.check(); out.violation) break;
  }
  if (!out.violation) out.violation = world.check_leaf();
  if (out.violation) {
    os << "violation: error: " << out.violation->code << ": "
       << out.violation->message << "\n";
  } else {
    os << "no violation\n";
  }
  os << "final state:\n" << world.summary();
  out.transcript = os.str();
  return out;
}

/// Greedy delta-debugging: drop one action at a time for as long as the
/// same diagnostic code still fires on replay.
std::vector<Action> minimize_schedule(const Options& wopts,
                                      std::vector<Action> schedule,
                                      const std::string& code) {
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      std::vector<Action> candidate = schedule;
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
      const RunOutcome out = run_schedule(wopts, candidate);
      if (out.valid && out.violation && out.violation->code == code) {
        schedule = std::move(candidate);
        shrunk = true;
        break;
      }
    }
  }
  return schedule;
}

char action_char(ActionKind kind) {
  switch (kind) {
    case ActionKind::kPropose: return 'p';
    case ActionKind::kDeliver: return 'd';
    case ActionKind::kDrop: return 'x';
    case ActionKind::kDuplicate: return 'u';
    case ActionKind::kTimer: return 't';
    case ActionKind::kCrash: return 'c';
    case ActionKind::kRestart: return 'r';
  }
  return '?';
}

}  // namespace

ExploreResult explore(const Options& world_opts, const ExploreOptions& x) {
  Search search{x, {}, {}, {}, {}, {}, false};
  World root(world_opts);
  search.visited.emplace(state_hash(root), x.depth);
  search.dfs(root, x.depth);
  ExploreResult result;
  result.stats = search.stats;
  if (search.violation) {
    std::vector<Action> schedule = search.found;
    if (x.minimize) {
      schedule = minimize_schedule(world_opts, schedule, search.violation->code);
    }
    // Re-run the (possibly shrunk) schedule so the reported violation
    // and transcript describe exactly what the schedule reproduces.
    const RunOutcome out = run_schedule(world_opts, schedule);
    result.violation = out.violation ? out.violation : search.violation;
    result.schedule = std::move(schedule);
    result.transcript = out.transcript;
  }
  return result;
}

ExploreResult replay(const Options& world_opts,
                     const std::vector<Action>& schedule) {
  const RunOutcome out = run_schedule(world_opts, schedule);
  if (!out.valid) {
    throw util::ProtocolError(
        "schedule action " + std::to_string(out.steps + 1) +
        " is not enabled at its turn (wrong --replicas/--legacy bounds?)");
  }
  ExploreResult result;
  result.violation = out.violation;
  result.schedule = schedule;
  result.transcript = out.transcript;
  result.stats.states_explored = out.steps;
  return result;
}

std::string encode_schedule(const std::vector<Action>& schedule) {
  std::ostringstream os;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (i) os << ',';
    const Action& a = schedule[i];
    os << action_char(a.kind) << a.a;
    if (a.kind == ActionKind::kDeliver || a.kind == ActionKind::kDrop ||
        a.kind == ActionKind::kDuplicate) {
      os << '>' << a.b;
    }
  }
  return os.str();
}

std::vector<Action> decode_schedule(const std::string& text) {
  std::vector<Action> schedule;
  std::size_t pos = 0;
  const auto parse_int = [&](const char* what) {
    std::size_t start = pos;
    while (pos < text.size() && std::isdigit(static_cast<unsigned char>(
                                    text[pos]))) {
      ++pos;
    }
    if (pos == start) {
      throw util::ParseError(std::string("schedule: expected ") + what +
                             " at offset " + std::to_string(start) + " in '" +
                             text + "'");
    }
    return std::stoi(text.substr(start, pos - start));
  };
  while (pos < text.size()) {
    Action action;
    switch (text[pos]) {
      case 'p': action.kind = ActionKind::kPropose; break;
      case 'd': action.kind = ActionKind::kDeliver; break;
      case 'x': action.kind = ActionKind::kDrop; break;
      case 'u': action.kind = ActionKind::kDuplicate; break;
      case 't': action.kind = ActionKind::kTimer; break;
      case 'c': action.kind = ActionKind::kCrash; break;
      case 'r': action.kind = ActionKind::kRestart; break;
      default:
        throw util::ParseError("schedule: unknown action '" +
                               std::string(1, text[pos]) + "' in '" + text +
                               "'");
    }
    ++pos;
    action.a = parse_int("replica index");
    if (action.kind == ActionKind::kDeliver ||
        action.kind == ActionKind::kDrop ||
        action.kind == ActionKind::kDuplicate) {
      if (pos >= text.size() || text[pos] != '>') {
        throw util::ParseError("schedule: link action needs 'a>b' in '" +
                               text + "'");
      }
      ++pos;
      action.b = parse_int("destination index");
    }
    schedule.push_back(action);
    if (pos < text.size()) {
      if (text[pos] != ',') {
        throw util::ParseError("schedule: expected ',' at offset " +
                               std::to_string(pos) + " in '" + text + "'");
      }
      ++pos;
    }
  }
  return schedule;
}

}  // namespace npss::mc
