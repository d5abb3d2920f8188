// meta_check — deterministic model checker for the replicated Manager.
//
//   meta_check [--replicas N] [--depth D] [--ops K] [--crashes C]
//              [--restarts R] [--drops X] [--dups U] [--seed S]
//              [--snapshot-interval I] [--max-states M] [--legacy]
//              [--no-minimize] [--replay SCHEDULE]
//              [--json] [--list-codes]
//
// Runs N meta::ReplicaCore instances over a virtual network and
// exhaustively explores every message delivery order, drop, duplicate,
// crash/restart point, and election-timer firing up to --depth steps,
// checking the MC0xx safety invariants after every step. Exit status:
// 0 = every explored schedule satisfies every invariant, 1 = a violation
// was found (its minimized schedule and transcript are printed — feed the
// schedule back through --replay to re-execute it), 2 = usage error.
//
// --legacy selects the PR 6 fire-and-forget protocol, which MUST fail
// with an MC003 acked-then-lost transcript — the negative corpus proving
// the checker can see the bug the quorum-commit protocol fixed.
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "check/diag.hpp"
#include "mc/explore.hpp"
#include "mc/model.hpp"
#include "util/status.hpp"

namespace {

void usage(std::ostream& os) {
  os << "usage: meta_check [options]\n"
        "\n"
        "Bounded model checking of the replicated Manager control plane.\n"
        "Explores every schedule (message orders, drops, duplicates,\n"
        "crashes, restarts, timer firings) up to --depth steps and checks\n"
        "the MC0xx safety invariants after every step.\n"
        "\n"
        "  --replicas N           group size (1..7, default 3)\n"
        "  --depth D              schedule length bound (default 12)\n"
        "  --ops K                max client writes per schedule (default 2)\n"
        "  --crashes C            max replica crashes (default 1)\n"
        "  --restarts R           max learner rejoins (default 0)\n"
        "  --drops X              max messages lost (default 2)\n"
        "  --dups U               max messages duplicated (default 0)\n"
        "  --seed S               election-stagger seed (default 42)\n"
        "  --snapshot-interval I  compaction interval, 0 = never (default 0)\n"
        "  --max-states M         step budget, 0 = unbounded (default 250000)\n"
        "  --legacy               check the PR 6 protocol (MUST fail: MC003)\n"
        "  --no-minimize          keep the first violating schedule as-is\n"
        "  --replay SCHED         re-execute one schedule (e.g. "
        "\"p0,c0,t1,d1>2,d2>1\")\n"
        "  --json                 machine-readable report\n"
        "  --list-codes           print the MC0xx diagnostic table\n"
        "\n"
        "Exit 0 = all explored schedules safe, 1 = violation found,\n"
        "2 = usage error.\n";
}

void list_codes(std::ostream& os) {
  for (const npss::check::CodeInfo& info :
       npss::check::diagnostic_code_table()) {
    if (info.code.substr(0, 2) != "MC") continue;
    os << info.code << "  "
       << npss::check::severity_name(info.default_severity) << "  "
       << info.summary << "\n";
  }
}

std::string json_report(const npss::mc::ExploreResult& result,
                        const npss::mc::Options& opts) {
  using npss::check::json_escape;
  std::ostringstream os;
  os << "{\n"
     << "  \"mode\": \"" << (opts.quorum_commit ? "quorum" : "legacy")
     << "\",\n"
     << "  \"replicas\": " << opts.replicas << ",\n"
     << "  \"states_explored\": " << result.stats.states_explored << ",\n"
     << "  \"visited_hits\": " << result.stats.visited_hits << ",\n"
     << "  \"transitions\": " << result.stats.transitions << ",\n"
     << "  \"budget_exhausted\": "
     << (result.stats.budget_exhausted ? "true" : "false") << ",\n";
  if (result.violation) {
    os << "  \"violation\": {\n"
       << "    \"code\": \"" << json_escape(result.violation->code)
       << "\",\n"
       << "    \"message\": \"" << json_escape(result.violation->message)
       << "\",\n"
       << "    \"schedule\": \""
       << json_escape(npss::mc::encode_schedule(result.schedule)) << "\"\n"
       << "  }\n";
  } else {
    os << "  \"violation\": null\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  npss::mc::Options opts;
  npss::mc::ExploreOptions x;
  bool json = false;
  std::string replay_text;

  const auto need_value = [&](int& i, const std::string& arg) -> std::string {
    if (i + 1 >= argc) {
      std::cerr << "meta_check: " << arg << " needs a value\n";
      std::exit(2);
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg == "--replicas") {
        opts.replicas = std::stoi(need_value(i, arg));
      } else if (arg == "--depth") {
        x.depth = std::stoi(need_value(i, arg));
      } else if (arg == "--ops") {
        opts.max_ops = std::stoi(need_value(i, arg));
      } else if (arg == "--crashes") {
        opts.max_crashes = std::stoi(need_value(i, arg));
      } else if (arg == "--restarts") {
        opts.max_restarts = std::stoi(need_value(i, arg));
      } else if (arg == "--drops") {
        opts.max_drops = std::stoi(need_value(i, arg));
      } else if (arg == "--dups") {
        opts.max_duplicates = std::stoi(need_value(i, arg));
      } else if (arg == "--seed") {
        opts.seed = std::stoull(need_value(i, arg));
      } else if (arg == "--snapshot-interval") {
        opts.snapshot_interval = std::stoull(need_value(i, arg));
      } else if (arg == "--max-states") {
        x.max_states = std::stoull(need_value(i, arg));
      } else if (arg == "--legacy") {
        opts.quorum_commit = false;
      } else if (arg == "--no-minimize") {
        x.minimize = false;
      } else if (arg == "--replay") {
        replay_text = need_value(i, arg);
      } else if (arg == "--json") {
        json = true;
      } else if (arg == "--list-codes") {
        list_codes(std::cout);
        return 0;
      } else if (arg == "-h" || arg == "--help") {
        usage(std::cout);
        return 0;
      } else {
        std::cerr << "meta_check: unknown option '" << arg << "'\n";
        usage(std::cerr);
        return 2;
      }
    } catch (const std::exception&) {
      std::cerr << "meta_check: bad value for " << arg << "\n";
      return 2;
    }
  }
  if (opts.replicas < 1 || opts.replicas > 7) {
    std::cerr << "meta_check: --replicas must be 1..7\n";
    return 2;
  }
  if (x.depth < 0) {
    std::cerr << "meta_check: --depth must be >= 0\n";
    return 2;
  }

  npss::mc::ExploreResult result;
  try {
    if (!replay_text.empty()) {
      result = npss::mc::replay(opts, npss::mc::decode_schedule(replay_text));
    } else {
      result = npss::mc::explore(opts, x);
    }
  } catch (const npss::util::Error& e) {
    std::cerr << "meta_check: " << e.what() << "\n";
    return 2;
  }

  if (json) {
    std::cout << json_report(result, opts);
  } else {
    std::cout << "meta_check: " << (opts.quorum_commit ? "quorum" : "legacy")
              << " protocol, " << opts.replicas << " replica(s)\n"
              << "  states explored: " << result.stats.states_explored
              << "  visited hits: " << result.stats.visited_hits << "\n";
    if (result.stats.budget_exhausted) {
      std::cout << "  note: --max-states budget exhausted before the bound; "
                   "coverage is partial\n";
    }
    if (result.violation) {
      std::cout << "\nerror: " << result.violation->code << ": "
                << result.violation->message << "\n\n"
                << result.transcript
                << "\nreplay with: meta_check"
                << (opts.quorum_commit ? "" : " --legacy") << " --replicas "
                << opts.replicas << " --replay '"
                << npss::mc::encode_schedule(result.schedule) << "'\n";
    } else {
      std::cout << "  every explored schedule satisfies MC001-MC005\n";
    }
  }
  return result.violation ? 1 : 0;
}
