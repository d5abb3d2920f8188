// tcp_small and tcp_array — the real loopback TCP bus.
//
// One TcpRemoteProc talks to a TcpProcedureHost in the same process over
// one pooled connection, closed loop with a fixed window of calls in
// flight (the oldest is reaped as each new one is issued). An op is one
// call; its latency runs from issue to reap.
//
//  * tcp_small: `inc` (one integer each way), IEEE at both ends, window 64.
//    Per-frame cost of the bus and the host queue, trivial UTS work.
//    Earlier runs with 256- and 16-deep windows swung 2-3x between fresh
//    processes where a 64-deep one held within ~7%.
//  * tcp_array: `sum(array[512] of double)` from a Cray YMP client to a
//    Sparc 10 host, window 4. Dominated by UTS canonical conversion on the
//    non-IEEE end, which bypasses the bulk fast path.
//
// The seed only generates the call arguments; every reply is checked.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <random>

#include "bench.hpp"
#include "obs/metrics.hpp"
#include "rpc/tcp_transport.hpp"

namespace perfbench {
namespace {

using npss::uts::Value;
using steady = std::chrono::steady_clock;

const char* kSpec =
    "export inc prog(\"x\" val integer, \"y\" res integer)\n"
    "export sum prog(\"a\" val array[512] of double, \"s\" res double)";
const char* kSmallImport =
    "import inc prog(\"x\" val integer, \"y\" res integer)";
const char* kArrayImport =
    "import sum prog(\"a\" val array[512] of double, \"s\" res double)";

constexpr std::size_t kInputs = 64;  ///< distinct argument sets per run

struct Shape {
  bool small;
  std::size_t window;
  const char* client_arch;
};

/// One generated input and the result the host must send back.
struct Input {
  npss::uts::ValueList args;
  double expect;
  double tolerance;
};

class TcpWorkload final : public Workload {
 public:
  TcpWorkload(Shape shape, std::uint64_t seed) : shape_(shape) {
    std::mt19937_64 rng(seed);
    for (std::size_t i = 0; i < kInputs; ++i) {
      if (shape_.small) {
        const auto x = static_cast<std::int64_t>(rng() % (1u << 30));
        inputs_.push_back({{Value::integer(x), Value::integer(0)},
                           static_cast<double>(x + 1), 0.0});
      } else {
        std::uniform_real_distribution<double> u(0.0, 1000.0);
        std::vector<double> a(512);
        double sum = 0.0;
        for (double& v : a) sum += (v = u(rng));
        // Cray single words carry 48 mantissa bits each way.
        inputs_.push_back(
            {{Value::real_array(a), Value::real(0)}, sum, 1e-12 * sum});
      }
    }
  }

  int rounds() const override { return 10; }

  void setup() override {
    host_ = std::make_unique<npss::rpc::TcpProcedureHost>(
        kSpec,
        std::vector<npss::rpc::ProcedureDef>{
            {"inc",
             [](npss::rpc::ProcCall& c) {
               c.set("y", Value::integer(c.integer("x") + 1));
             }},
            {"sum",
             [](npss::rpc::ProcCall& c) {
               double s = 0.0;
               for (double v : c.reals("a")) s += v;
               c.set_real("s", s);
             }}},
        "sun-sparc10");
    proc_ = std::make_unique<npss::rpc::TcpRemoteProc>(
        "127.0.0.1", host_->port(), shape_.small ? "inc" : "sum",
        shape_.small ? kSmallImport : kArrayImport, shape_.client_arch);
    // Warm-up: one window's worth of calls fills the host's prepared-call
    // cache and the client's plans.
    Samples ignored(64);
    const BlockStats warm =
        run(1e9, static_cast<long>(shape_.window), ignored, nullptr);
    if (warm.failed != 0) throw std::runtime_error("tcp warm-up call failed");
  }

  BlockStats run(double seconds, long max_ops, Samples& op_ms,
                 Tracer* tracer) override {
    struct InFlight {
      npss::rpc::PendingTcpCall call;
      steady::time_point issued;
      std::size_t input;
    };
    BlockStats s;
    std::deque<InFlight> window;
    const auto start = steady::now();
    long issued = 0;
    auto issue = [&] {
      const std::size_t in = next_++ % kInputs;
      if (tracer) {
        tracer->set_op(static_cast<long>(next_));
        tracer->begin("call_async", "rpc");
      }
      const auto t0 = steady::now();
      window.push_back({proc_->call_async(inputs_[in].args), t0, in});
      if (tracer) tracer->end();
      ++issued;
    };
    auto more = [&] {
      return (max_ops <= 0 || issued < max_ops) &&
             std::chrono::duration<double>(steady::now() - start).count() <
                 seconds;
    };
    do {
      issue();
    } while (window.size() < shape_.window && more());
    while (!window.empty()) {
      InFlight& f = window.front();
      if (tracer) tracer->begin("get", "bus");
      npss::rpc::CallResult& r = f.call.get();
      if (tracer) tracer->end();
      op_ms.add(std::chrono::duration<double, std::milli>(steady::now() -
                                                          f.issued)
                    .count());
      ++s.attempted;
      if (!check(r, inputs_[f.input])) ++s.failed;
      window.pop_front();
      if (more()) issue();
    }
    if (tracer) {
      traced_wall_s_ +=
          std::chrono::duration<double>(steady::now() - start).count();
    }
    return s;
  }

  void layer_metrics(Metrics& m, long ops, const Tracer& tracer) override {
    const double n = static_cast<double>(ops);
    m.set("rpc.host.handler_us.p50",
          registry_quantile("rpc.host.handler_us", 0.5), "us");
    m.set("rpc.client.bytes_marshaled_per_call",
          registry_counter("rpc.client.bytes_marshaled") /
              registry_counter("rpc.client.calls"),
          "B");
    m.set("bus.frames_coalesced_per_call",
          registry_counter("rpc.bus.frames_coalesced") / n, "count");
    m.set("bus.bytes_sent_per_call", registry_counter("rpc.bus.bytes_sent") / n,
          "B");
    m.set("bus.partial_reads_per_call",
          registry_counter("rpc.bus.partial_reads") / n, "count");
    const MarshalProbe probe =
        probe_marshal(shape_.small ? kSmallImport : kArrayImport,
                      shape_.client_arch, "sun-sparc10", inputs_[0].args);
    m.set("uts.marshal_us", probe.marshal_us, "us");
    m.set("uts.unmarshal_us", probe.unmarshal_us, "us");
    m.set("uts.fast_path_share", probe.fast_path_share, "1");
    // Pipelined calls overlap, so no per-op phase sum exists; report the
    // share of the caller thread's traced time the spans cover.
    m.set("trace.accounted_frac",
          (tracer.name_total_ms("call_async") + tracer.name_total_ms("get")) /
              (traced_wall_s_ * 1000.0),
          "1");
  }

 private:
  bool check(npss::rpc::CallResult& r, const Input& in) const {
    if (!r.ok()) {
      std::fprintf(stderr, "tcp: call failed: %s\n",
                   r.status.to_string().c_str());
      return false;
    }
    const double got = shape_.small
                           ? static_cast<double>(r.values[1].as_integer())
                           : r.values[1].as_real();
    if (std::abs(got - in.expect) > in.tolerance) {
      std::fprintf(stderr, "tcp: wrong result %.17g, expected %.17g\n", got,
                   in.expect);
      return false;
    }
    return true;
  }

  Shape shape_;
  std::vector<Input> inputs_;
  std::unique_ptr<npss::rpc::TcpProcedureHost> host_;
  std::unique_ptr<npss::rpc::TcpRemoteProc> proc_;
  std::size_t next_ = 0;
  double traced_wall_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_tcp_small(std::uint64_t seed) {
  return std::make_unique<TcpWorkload>(Shape{true, 64, "sun-sparc10"}, seed);
}

std::unique_ptr<Workload> make_tcp_array(std::uint64_t seed) {
  return std::make_unique<TcpWorkload>(Shape{false, 4, "cray-ymp"}, seed);
}

}  // namespace perfbench
