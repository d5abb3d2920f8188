// Shared pieces of the benchmark binary: latency samples, the metric list
// a run prints, the Workload interface every workload implements, and
// small readers for process and registry state.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "trace.hpp"
#include "uts/value.hpp"

namespace npss::sim {
class Cluster;
}

namespace perfbench {

/// Latency samples. Keeps every sample up to a fixed capacity, then a
/// uniform reservoir of that size, so memory stays flat however many ops a
/// fast workload completes and the reported quantiles stay unbiased.
class Samples {
 public:
  explicit Samples(std::size_t capacity = std::size_t{1} << 19,
                   std::uint64_t seed = 1);
  void add(double v);
  /// Linear interpolation between order statistics; 0 when empty.
  double quantile(double q) const;

 private:
  std::vector<double> kept_;
  std::size_t capacity_;
  std::size_t seen_ = 0;
  std::mt19937_64 rng_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& all() const { return list_; }

 private:
  std::vector<Metric> list_;
};

/// One block of timed ops.
struct BlockStats {
  long attempted = 0;
  long failed = 0;
};

/// A workload: one set of inputs (generated from the seed) driven through
/// the system's public API by one caller thread.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Boot, placement/binding, and one untimed warm-up op.
  virtual void setup() = 0;
  /// Closed-loop ops until `seconds` of wall time have passed or
  /// `max_ops` ops ran (whichever first; max_ops <= 0 means no cap). Each
  /// op's latency goes to `op_ms`; spans go to `tracer` when non-null.
  virtual BlockStats run(double seconds, long max_ops, Samples& op_ms,
                         Tracer* tracer) = 0;
  /// Rounds in an untraced run: each round sets up a fresh system
  /// and times an equal share of the run; setup_s is the rounds' median.
  virtual int rounds() const { return 5; }
  /// Ops per round when the workload runs a fixed count instead of for
  /// --seconds (0 = timed).
  virtual long fixed_ops() const { return 0; }
  /// Run-level output checks after the timed ops; returns the number of
  /// ops they fail (0 when all hold) and says why on stderr.
  virtual long finish_checks() { return 0; }
  /// Traced run only: per-layer metrics over the `ops` timed ops, from
  /// the workload's own counters, the obs registry, and layer probes.
  /// `tracer` holds the traced blocks' spans.
  virtual void layer_metrics(Metrics& out, long ops, const Tracer& tracer) = 0;
};

/// The closed loop of a one-op-at-a-time workload: runs `op` until
/// `seconds` of wall time have passed or `max_ops` ops ran (at least one;
/// max_ops <= 0 means no cap). `op` returns whether its output checked
/// out; its latency goes to `op_ms`.
template <typename Op>
BlockStats closed_loop(double seconds, long max_ops, Samples& op_ms, Op&& op) {
  using clock = std::chrono::steady_clock;
  BlockStats s;
  const auto start = clock::now();
  do {
    const auto t0 = clock::now();
    const bool ok = op();
    op_ms.add(
        std::chrono::duration<double, std::milli>(clock::now() - t0).count());
    ++s.attempted;
    if (!ok) ++s.failed;
  } while ((max_ops <= 0 || s.attempted < max_ops) &&
           std::chrono::duration<double>(clock::now() - start).count() <
               seconds);
  return s;
}

std::unique_ptr<Workload> make_f100_table2(std::uint64_t seed);
std::unique_ptr<Workload> make_tcp_small(std::uint64_t seed);
std::unique_ptr<Workload> make_tcp_array(std::uint64_t seed);
std::unique_ptr<Workload> make_lines_churn(std::uint64_t seed);
std::unique_ptr<Workload> make_mc_gate(std::uint64_t seed);

// --- Process and registry readers -------------------------------------------

/// Resident set size now, in kB (/proc/self/statm).
double current_rss_kb();
/// Mappings in /proc/self/maps.
long maps_count();
/// Value of an obs registry counter; 0 when the name was never registered.
double registry_counter(const std::string& name);
/// Quantile of an obs registry histogram, interpolated inside the bucket
/// it falls in; 0 when absent or empty.
double registry_quantile(const std::string& name, double q);
double registry_histogram_sum(const std::string& name);

// --- Layer probes (probes.cpp) ----------------------------------------------

/// The paper's two-site testbed machines (Tables 1 and 2).
void build_paper_testbed(npss::sim::Cluster& cluster);

/// One-way hop time: median half round trip of a raw Cluster::send ->
/// Endpoint::receive ping-pong between the Table 2 client (sparc-ua) and
/// the Cray, with no RPC on top. Microseconds.
double probe_sim_hop_us();
/// Median lock-step (window 1) small `inc` call over loopback TCP.
/// Microseconds.
double probe_bus_call_w1_us();
/// Median marshal (client arch) and unmarshal (host arch) time of one
/// request of `import_text`'s signature with `args`, through the compiled
/// MarshalPlan. Microseconds.
struct MarshalProbe {
  double marshal_us = 0.0;
  double unmarshal_us = 0.0;
  double fast_path_share = 0.0;  ///< of the two ends, IEEE-native ones
};
MarshalProbe probe_marshal(const std::string& import_text,
                           const std::string& client_arch,
                           const std::string& host_arch,
                           const npss::uts::ValueList& args);

}  // namespace perfbench
