#include "rpc/metrics.hpp"

namespace npss::rpc {

RpcMetrics& rpc_metrics() {
  static RpcMetrics m = [] {
    obs::Registry& reg = obs::Registry::global();
    return RpcMetrics{reg.counter("rpc.transport.frames_sent"),
                      reg.counter("rpc.transport.bytes_sent"),
                      reg.counter("rpc.transport.frames_received"),
                      reg.counter("rpc.transport.bytes_received"),
                      reg.histogram("rpc.transport.rtt_us"),
                      reg.counter("rpc.host.calls"),
                      reg.counter("rpc.host.bytes_marshaled"),
                      reg.histogram("rpc.host.handler_us"),
                      reg.counter("rpc.host.errors"),
                      reg.counter("rpc.client.calls"),
                      reg.counter("rpc.client.bytes_marshaled"),
                      reg.histogram("rpc.client.latency_us"),
                      reg.histogram("rpc.client.virtual_latency_us"),
                      reg.counter("rpc.client.recovered_calls")};
  }();
  return m;
}

}  // namespace npss::rpc
