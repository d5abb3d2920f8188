// Samples, metric list, process/registry readers, and the layer probes
// that time one layer on its own (a raw sim hop, a lock-step bus call, a
// compiled marshal plan).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <string>

#include "arch/arch.hpp"
#include "bench.hpp"
#include "obs/metrics.hpp"
#include "rpc/tcp_transport.hpp"
#include "sim/cluster.hpp"
#include "uts/marshal_plan.hpp"
#include "uts/spec.hpp"

namespace perfbench {

namespace {

using steady = std::chrono::steady_clock;

volatile std::size_t g_sink = 0;

double us_since(steady::time_point t0) {
  return std::chrono::duration<double, std::micro>(steady::now() - t0).count();
}

}  // namespace

Samples::Samples(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), rng_(seed) {}

void Samples::add(double v) {
  ++seen_;
  if (kept_.size() < capacity_) {
    kept_.push_back(v);
    return;
  }
  const std::size_t j = rng_() % seen_;
  if (j < capacity_) kept_[j] = v;
}

double Samples::quantile(double q) const {
  if (kept_.empty()) return 0.0;
  std::vector<double> sorted = kept_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  if (!std::isfinite(value)) value = 0.0;
  for (Metric& m : list_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  list_.push_back(Metric{name, value, unit});
}

// --- Process and registry readers -------------------------------------------

double current_rss_kb() {
  std::ifstream statm("/proc/self/statm");
  long size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) * 4.0;
}

long maps_count() {
  std::ifstream maps("/proc/self/maps");
  long n = 0;
  std::string line;
  while (std::getline(maps, line)) ++n;
  return n;
}

double registry_counter(const std::string& name) {
  auto& reg = npss::obs::Registry::global();
  if (!reg.has(name)) return 0.0;
  return static_cast<double>(reg.find_counter(name).value());
}

double registry_quantile(const std::string& name, double q) {
  auto& reg = npss::obs::Registry::global();
  if (!reg.has(name)) return 0.0;
  const auto& h = reg.find_histogram(name);
  const std::uint64_t n = h.count();
  if (n == 0) return 0.0;
  const double rank = q * static_cast<double>(n);
  double below = 0.0;
  const auto& bounds = h.bounds();
  for (std::size_t i = 0; i <= bounds.size(); ++i) {
    const double in_bucket = static_cast<double>(
        i < bounds.size() ? h.bucket_count(i) : h.overflow());
    if (in_bucket > 0.0 && below + in_bucket >= rank) {
      const double lo = std::max(i == 0 ? 0.0 : bounds[i - 1], h.min());
      const double hi = std::min(i < bounds.size() ? bounds[i] : h.max(), h.max());
      return lo + (hi - lo) * (rank - below) / in_bucket;
    }
    below += in_bucket;
  }
  return h.max();
}

double registry_histogram_sum(const std::string& name) {
  auto& reg = npss::obs::Registry::global();
  return reg.has(name) ? reg.find_histogram(name).sum() : 0.0;
}

// --- Layer probes -------------------------------------------------------------

void build_paper_testbed(npss::sim::Cluster& cluster) {
  cluster.add_machine("sparc-ua", "sun-sparc10", "uarizona");
  cluster.add_machine("sgi340-ua", "sgi-4d340", "uarizona");
  cluster.add_machine("sparc-lerc", "sun-sparc10", "lerc");
  cluster.add_machine("sgi480-lerc", "sgi-4d480", "lerc");
  cluster.add_machine("sgi420-lerc", "sgi-4d420", "lerc");
  cluster.add_machine("cray-lerc", "cray-ymp", "lerc");
  cluster.add_machine("convex-lerc", "convex-c220", "lerc");
  cluster.add_machine("rs6000-lerc", "ibm-rs6000", "lerc");
  cluster.set_site_link("lerc", "uarizona",
                        npss::sim::link_profile("internet-wan"));
  cluster.set_intra_site_link(npss::sim::link_profile("ethernet-lan"));
}

double probe_sim_hop_us() {
  npss::sim::Cluster cluster;
  build_paper_testbed(cluster);
  auto echo = cluster.spawn("cray-lerc", "hop-echo",
                            [](npss::sim::ProcessContext& ctx) {
                              while (auto env = ctx.self().receive()) {
                                ctx.send(env->from, std::move(env->payload));
                              }
                            });
  auto self = cluster.create_endpoint("sparc-ua", "hop-probe");
  Samples rtt;
  const npss::util::Bytes payload(64, 0x5a);
  for (int i = 0; i < 3200; ++i) {
    const auto t0 = steady::now();
    cluster.send(*self, echo->address(), payload);
    self->receive();
    if (i >= 200) rtt.add(us_since(t0));
  }
  cluster.shutdown();
  return rtt.quantile(0.5) / 2.0;
}

double probe_bus_call_w1_us() {
  using npss::uts::Value;
  npss::rpc::TcpProcedureHost host(
      "export inc prog(\"x\" val integer, \"y\" res integer)",
      {{"inc",
        [](npss::rpc::ProcCall& c) {
          c.set("y", Value::integer(c.integer("x") + 1));
        }}},
      "sun-sparc10");
  npss::rpc::TcpRemoteProc inc(
      "127.0.0.1", host.port(), "inc",
      "import inc prog(\"x\" val integer, \"y\" res integer)", "sun-sparc10");
  npss::rpc::CallOptions once = npss::rpc::CallOptions::legacy();
  once.max_attempts = 1;
  Samples lat;
  for (int i = 0; i < 3200; ++i) {
    const auto t0 = steady::now();
    inc.call({Value::integer(i), Value::integer(0)}, once);
    if (i >= 200) lat.add(us_since(t0));
  }
  host.stop();
  return lat.quantile(0.5);
}

MarshalProbe probe_marshal(const std::string& import_text,
                           const std::string& client_arch,
                           const std::string& host_arch,
                           const npss::uts::ValueList& args) {
  const auto spec = npss::uts::parse_spec(import_text);
  const auto plan = npss::uts::compile_plan(spec.decls.at(0).signature,
                                            npss::uts::Direction::kRequest);
  const auto& client = npss::arch::arch_catalog(client_arch);
  const auto& host = npss::arch::arch_catalog(host_arch);
  // Batches of kReps executions per sample keep the clock reads out of
  // sub-microsecond figures.
  constexpr int kReps = 32;
  Samples marshal, unmarshal;
  npss::util::Bytes wire = plan->marshal(client, args);
  std::size_t sink = 0;
  for (int s = 0; s < 200; ++s) {
    auto t0 = steady::now();
    for (int r = 0; r < kReps; ++r) sink += plan->marshal(client, args).size();
    marshal.add(us_since(t0) / kReps);
    t0 = steady::now();
    for (int r = 0; r < kReps; ++r) sink += plan->unmarshal(host, wire).size();
    unmarshal.add(us_since(t0) / kReps);
  }
  g_sink = sink;  // keeps the timed work observable
  MarshalProbe out;
  out.marshal_us = marshal.quantile(0.5);
  out.unmarshal_us = unmarshal.quantile(0.5);
  out.fast_path_share =
      (npss::uts::MarshalPlan::same_representation(client) ? 0.5 : 0.0) +
      (npss::uts::MarshalPlan::same_representation(host) ? 0.5 : 0.0);
  return out;
}

}  // namespace perfbench
