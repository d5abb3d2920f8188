// meta_check explorer throughput.
//
// Times bounded explorations of the replicated control plane at the CI
// gate's bounds and one size up, and reports the visited-set hit rate
// (fraction of expansions cut because the identical state was already
// explored with at least as much remaining depth). A last section times
// how fast the legacy negative corpus is found and minimized. Writes
// BENCH_mc.json next to the binary.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "mc/explore.hpp"
#include "mc/model.hpp"

namespace npss::bench {
namespace {

struct Row {
  std::string name;
  mc::ExploreStats stats;
  double millis = 0.0;
  bool violation = false;
};

Row run(const std::string& name, const mc::Options& opts,
        const mc::ExploreOptions& x) {
  const auto start = std::chrono::steady_clock::now();
  const mc::ExploreResult result = mc::explore(opts, x);
  const auto end = std::chrono::steady_clock::now();
  Row row;
  row.name = name;
  row.stats = result.stats;
  row.millis =
      std::chrono::duration<double, std::milli>(end - start).count();
  row.violation = result.violation.has_value();
  return row;
}

double states_per_sec(const Row& row) {
  return row.millis > 0.0
             ? static_cast<double>(row.stats.states_explored) * 1000.0 /
                   row.millis
             : 0.0;
}

double hit_rate(const Row& row) {
  const double expansions = static_cast<double>(row.stats.states_explored +
                                                row.stats.visited_hits);
  return expansions > 0.0
             ? static_cast<double>(row.stats.visited_hits) / expansions
             : 0.0;
}

int bench_main() {
  mc::Options gate;  // the CI model-check lane's bounds
  gate.max_ops = 1;
  gate.max_crashes = 1;
  gate.max_drops = 1;
  mc::ExploreOptions gate_x;
  gate_x.depth = 7;
  gate_x.max_states = 0;  // unbounded: the bench measures the full frontier

  mc::Options deep = gate;
  mc::ExploreOptions deep_x = gate_x;
  deep_x.depth = 8;

  std::printf("meta_check explorer throughput (3 replicas, quorum)\n\n");
  std::vector<Row> rows;
  rows.push_back(run("gate_depth7", gate, gate_x));
  rows.push_back(run("deep_depth8", deep, deep_x));

  for (const Row& row : rows) {
    std::printf(
        "%-12s states=%-8llu hits=%-8llu %8.1f ms "
        "%10.0f states/s  hit_rate=%.3f\n",
        row.name.c_str(),
        static_cast<unsigned long long>(row.stats.states_explored),
        static_cast<unsigned long long>(row.stats.visited_hits), row.millis,
        states_per_sec(row), hit_rate(row));
    if (row.violation) {
      std::printf("  UNEXPECTED: quorum protocol produced a violation\n");
    }
  }

  // The negative corpus: how fast the legacy acked-write-loss is found.
  mc::Options legacy = gate;
  legacy.quorum_commit = false;
  legacy.max_crashes = 0;
  legacy.max_drops = 0;
  mc::ExploreOptions legacy_x;
  legacy_x.depth = 6;
  const auto start = std::chrono::steady_clock::now();
  const mc::ExploreResult found = mc::explore(legacy, legacy_x);
  const double legacy_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  std::printf("\nlegacy MC003 found+minimized in %.1f ms, schedule '%s'\n",
              legacy_ms,
              found.violation ? mc::encode_schedule(found.schedule).c_str()
                              : "NOT FOUND (bench is broken)");

  std::FILE* f = std::fopen("BENCH_mc.json", "w");
  if (f) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"mc\",\n");
    std::fprintf(f, "  \"replicas\": 3,\n");
    std::fprintf(f, "  \"runs\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      std::fprintf(
          f,
          "    {\"name\": \"%s\", \"states_explored\": %llu, "
          "\"visited_hits\": %llu, "
          "\"transitions\": %llu, \"millis\": %.1f, "
          "\"states_per_sec\": %.0f, \"visited_hit_rate\": %.4f, "
          "\"violation\": %s}%s\n",
          row.name.c_str(),
          static_cast<unsigned long long>(row.stats.states_explored),
          static_cast<unsigned long long>(row.stats.visited_hits),
          static_cast<unsigned long long>(row.stats.transitions), row.millis,
          states_per_sec(row), hit_rate(row),
          row.violation ? "true" : "false",
          i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"legacy_negative\": {\"found\": %s, \"code\": \"%s\", "
                 "\"schedule\": \"%s\", \"millis\": %.1f}\n",
                 found.violation ? "true" : "false",
                 found.violation ? found.violation->code.c_str() : "",
                 found.violation ? mc::encode_schedule(found.schedule).c_str()
                                 : "",
                 legacy_ms);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_mc.json\n");
  }
  return found.violation && !rows[0].violation && !rows[1].violation ? 0 : 1;
}

}  // namespace
}  // namespace npss::bench

int main() { return npss::bench::bench_main(); }
