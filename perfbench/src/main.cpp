// perfbench — the repository benchmark binary (see ../README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// --trace 0 runs the workload in rounds: each round sets up a fresh system
// (boot, binding, one untimed warm-up op; the rounds' median is setup_s)
// and times closed-loop ops for an equal share of S seconds (or the
// workload's fixed op count). It prints a report followed, as the last
// line of stdout, by one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics with the benchmark's spans off.
// --trace 1 sets up once, alternates untraced and traced blocks, reports the per-layer
// metrics (plus the tracing overhead against the untraced blocks), prints
// the span tree with self time per layer, and writes the spans to
// DIR/trace_NAME.json as trace-event JSON.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/metrics.hpp"

namespace perfbench {
namespace {

using steady = std::chrono::steady_clock;

constexpr int kTracedPairs = 2;   ///< untraced/traced block pairs, trace 1

/// Every per-layer metric, in report order, with its unit. A workload
/// fills the ones on its path; the rest stay 0 (the layer did no work).
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"tess.self_ms", "ms"},
    {"tess.rhs_evals", "count"},
    {"solvers.newton_iters", "count"},
    {"npss.calls_per_op", "count"},
    {"npss.hook_us.p50", "us"},
    {"npss.hook_us.p99", "us"},
    {"npss.hook_share", "1"},
    {"sim.hop_us.p50", "us"},
    {"sim.msgs_per_op", "count"},
    {"sim.bytes_per_op", "B"},
    {"sim.virtual_s_per_op", "s"},
    {"rpc.host.handler_us.p50", "us"},
    {"rpc.client.bytes_marshaled_per_call", "B"},
    {"bus.call_us.w1.p50", "us"},
    {"bus.frames_coalesced_per_call", "count"},
    {"bus.bytes_sent_per_call", "B"},
    {"bus.partial_reads_per_call", "count"},
    {"uts.marshal_us", "us"},
    {"uts.unmarshal_us", "us"},
    {"uts.fast_path_share", "1"},
    {"manager.open_us.p50", "us"},
    {"manager.contact_us.p50", "us"},
    {"manager.import_us.p50", "us"},
    {"manager.call_us.p50", "us"},
    {"manager.quit_us.p50", "us"},
    {"meta.log_appends_per_op", "count"},
    {"meta.snapshot_installs", "count"},
    {"manager.lookups_per_op", "count"},
    {"sim.rss_kb_per_op", "kB"},
    {"sim.maps_per_op", "count"},
    {"mc.quorum_o1.states", "count"},
    {"mc.quorum_o1.visited_hits", "count"},
    {"mc.quorum_o1.sleep_pruned", "count"},
    {"mc.quorum_o1.transitions", "count"},
    {"mc.quorum_o2.states", "count"},
    {"mc.quorum_o2.visited_hits", "count"},
    {"mc.quorum_o2.sleep_pruned", "count"},
    {"mc.quorum_o2.transitions", "count"},
    {"mc.legacy.states", "count"},
    {"mc.legacy.visited_hits", "count"},
    {"mc.legacy.sleep_pruned", "count"},
    {"mc.legacy.transitions", "count"},
    {"mc.us_per_state", "us"},
    {"proc.cpu_ms_per_op", "ms"},
    {"proc.csw_per_op", "count"},
    {"proc.cpu_util", "1"},
    {"trace.overhead_frac", "1"},
    {"trace.accounted_frac", "1"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_out";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "f100_table2|tcp_small|tcp_array|lines_churn|mc_gate "
               "--seed N --seconds S --trace 0|1 [--out DIR]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string v = argv[++i];
    if (arg == "--workload") {
      a.workload = v;
    } else if (arg == "--seed") {
      a.seed = std::stoull(v);
    } else if (arg == "--seconds") {
      a.seconds = std::stod(v);
    } else if (arg == "--trace") {
      a.trace = v == "1";
    } else if (arg == "--out") {
      a.out = v;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (a.seconds <= 0.0) usage("--seconds must be positive");
  return a;
}

std::unique_ptr<Workload> make(const std::string& name, std::uint64_t seed) {
  if (name == "f100_table2") return make_f100_table2(seed);
  if (name == "tcp_small") return make_tcp_small(seed);
  if (name == "tcp_array") return make_tcp_array(seed);
  if (name == "lines_churn") return make_lines_churn(seed);
  if (name == "mc_gate") return make_mc_gate(seed);
  usage(("unknown workload " + name).c_str());
}

double seconds_since(steady::time_point t0) {
  return std::chrono::duration<double>(steady::now() - t0).count();
}

struct Usage {
  double cpu_ms = 0.0;
  double csw = 0.0;
  double wall_s = 0.0;
};

struct UsageMark {
  rusage ru{};
  steady::time_point t;
  UsageMark() : t(steady::now()) { getrusage(RUSAGE_SELF, &ru); }
};

double tv_ms(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e3 +
         static_cast<double>(tv.tv_usec) / 1e3;
}

void accumulate(Usage& u, const UsageMark& a, const UsageMark& b) {
  u.cpu_ms += tv_ms(b.ru.ru_utime) + tv_ms(b.ru.ru_stime) -
              tv_ms(a.ru.ru_utime) - tv_ms(a.ru.ru_stime);
  u.csw += static_cast<double>(b.ru.ru_nvcsw + b.ru.ru_nivcsw -
                               a.ru.ru_nvcsw - a.ru.ru_nivcsw);
  u.wall_s += std::chrono::duration<double>(b.t - a.t).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void print_json(bool correct, long attempted, long failed,
                const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  const auto& all = metrics.all();
  for (std::size_t i = 0; i < all.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", all[i].name.c_str(), all[i].value,
                all[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// Confines the process, and every thread it starts from now on, to one
/// CPU: the highest-numbered one it may use. Spread over several CPUs, each
/// of the system's thread handoffs costs a cross-CPU wakeup whose price
/// depends on where the scheduler happened to put the threads, and the TCP
/// bus flips between a batching and a non-batching regime from one process
/// to the next (2x apart at a 64-call window). On one CPU every figure is
/// the CPU cost of the whole call path, and repeats.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) {
      throw std::runtime_error("sched_setaffinity failed");
    }
    return;
  }
}

int run(const Args& args) {
  pin_to_one_cpu();
  BlockStats total;
  Usage untraced;
  Metrics metrics;
  std::vector<double> setup_s;

  if (!args.trace) {
    // Rounds of set-up + timed ops; each round gets a fresh system and an
    // equal share of --seconds (or the workload's fixed op count). Every
    // timing metric is the median over rounds of that round's figure, so
    // one round disturbed by the rest of the machine does not move it.
    const int rounds = make(args.workload, args.seed)->rounds();
    std::vector<double> rate, p50, p90, p99;
    for (int r = 0; r < rounds; ++r) {
      const auto t0 = steady::now();
      std::unique_ptr<Workload> w = make(args.workload, args.seed);
      w->setup();
      setup_s.push_back(seconds_since(t0));
      const long fixed = w->fixed_ops();
      Samples op_ms(std::size_t{1} << 18, args.seed + r);
      const UsageMark a;
      BlockStats s =
          w->run(fixed > 0 ? 1e9 : args.seconds / rounds, fixed, op_ms, nullptr);
      const UsageMark b;
      Usage u;
      accumulate(u, a, b);
      s.failed += w->finish_checks();
      total.attempted += s.attempted;
      total.failed += s.failed;
      untraced.wall_s += u.wall_s;
      rate.push_back((s.attempted - s.failed) / u.wall_s);
      p50.push_back(op_ms.quantile(0.50));
      p90.push_back(op_ms.quantile(0.90));
      p99.push_back(op_ms.quantile(0.99));
      std::printf("  round %2d: setup %.6f s, %ld ops in %.3f s, %.6g ops/s, "
                  "p50 %.6g ms, p99 %.6g ms\n",
                  r, setup_s.back(), s.attempted, u.wall_s, rate.back(),
                  p50.back(), p99.back());
    }
    metrics.set("setup_s", median(setup_s), "s");
    metrics.set("ops_per_s", median(rate), "1/s");
    metrics.set("op_ms.p50", median(p50), "ms");
    metrics.set("op_ms.p90", median(p90), "ms");
    metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
    std::printf("%s seed %llu: %ld ops (%ld failed) in %.3f s over %d "
                "rounds\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), total.attempted,
                total.failed, untraced.wall_s, rounds);
  } else {
    // One set-up, then untraced and traced blocks alternating, so drift
    // in the machine hits both sides of the overhead comparison alike.
    std::unique_ptr<Workload> w = make(args.workload, args.seed);
    w->setup();
    for (const auto& [name, unit] : kLayerMetrics) metrics.set(name, 0.0, unit);
    npss::obs::Registry::global().reset();
    Tracer tracer;
    Samples op_ms(std::size_t{1} << 18, args.seed);
    Usage traced;
    long untraced_ops = 0, traced_ops = 0;
    const long fixed = w->fixed_ops();
    const int blocks = 2 * kTracedPairs;
    for (int b = 0; b < blocks; ++b) {
      const bool on = b % 2 == 1;
      const UsageMark a;
      const BlockStats s =
          w->run(fixed > 0 ? 1e9 : args.seconds / blocks,
                 fixed > 0 ? std::max(1L, fixed / blocks) : 0, op_ms,
                 on ? &tracer : nullptr);
      const UsageMark e;
      accumulate(on ? traced : untraced, a, e);
      (on ? traced_ops : untraced_ops) += s.attempted - s.failed;
      total.attempted += s.attempted;
      total.failed += s.failed;
    }
    total.failed += w->finish_checks();
    w->layer_metrics(metrics, std::max(1L, total.attempted), tracer);
    metrics.set("sim.hop_us.p50", probe_sim_hop_us(), "us");
    metrics.set("bus.call_us.w1.p50", probe_bus_call_w1_us(), "us");
    const double uops = static_cast<double>(std::max(1L, untraced_ops));
    metrics.set("proc.cpu_ms_per_op", untraced.cpu_ms / uops, "ms");
    metrics.set("proc.csw_per_op", untraced.csw / uops, "count");
    metrics.set("proc.cpu_util", untraced.cpu_ms / 1e3 / untraced.wall_s, "1");
    const double untraced_rate = untraced_ops / untraced.wall_s;
    const double traced_rate = traced_ops / traced.wall_s;
    metrics.set("trace.overhead_frac", 1.0 - traced_rate / untraced_rate, "1");

    std::printf("%s seed %llu traced: %ld ops (%ld failed); untraced %.1f "
                "ops/s, traced %.1f ops/s\nspan tree (traced blocks):\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), total.attempted,
                total.failed, untraced_rate, traced_rate);
    tracer.print_tree(stdout);
    std::filesystem::create_directories(args.out);
    const std::string path = args.out + "/trace_" + args.workload + ".json";
    std::ofstream f(path);
    f << "{\"traceEvents\": [\n" << tracer.events_json(1, args.workload)
      << "\n], \"displayTimeUnit\": \"ms\"}\n";
    std::printf("wrote %s\n", path.c_str());
  }

  for (const Metric& m : metrics.all()) {
    std::printf("  %-38s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  print_json(total.failed == 0, std::max(1L, total.attempted), total.failed,
             metrics);
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
