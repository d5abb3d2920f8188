// Registry handles for the rpc layer's per-frame and per-call metrics,
// resolved once for the whole process. Handles stay valid for the
// registry's lifetime (Registry::reset() zeroes without invalidating
// them), so a hot path pays an atomic add per event instead of a
// mutex-guarded map lookup and a std::string temporary per name. Both
// fabrics record through these: the sim call path (MessageIo, CallCore,
// the procedure host) and the TCP stack (bus dispatcher, TcpRemoteProc,
// TcpProcedureHost).
#pragma once

#include "obs/metrics.hpp"

namespace npss::rpc {

struct RpcMetrics {
  obs::Counter& frames_sent;     ///< rpc.transport.frames_sent
  obs::Counter& bytes_sent;      ///< rpc.transport.bytes_sent
  obs::Counter& frames_received; ///< rpc.transport.frames_received
  obs::Counter& bytes_received;  ///< rpc.transport.bytes_received
  obs::Histogram& rtt_us;        ///< rpc.transport.rtt_us
  obs::Counter& host_calls;      ///< rpc.host.calls
  obs::Counter& host_bytes_marshaled;
  obs::Histogram& host_handler_us;
  obs::Counter& host_errors;
  obs::Counter& client_calls;    ///< rpc.client.calls
  obs::Counter& client_bytes_marshaled;
  obs::Histogram& client_latency_us;
  obs::Histogram& client_virtual_latency_us;
  obs::Counter& client_recovered_calls;
};

/// The process-wide handles; the first call registers every name.
RpcMetrics& rpc_metrics();

}  // namespace npss::rpc
