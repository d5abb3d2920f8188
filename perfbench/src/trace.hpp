// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark around its own calls into each layer
// of the system (nothing inside src/ is instrumented for it). Every span is
// folded into a call tree as it closes — count, total and self time per
// tree node, where self time is the span's duration minus its children's —
// and the first `max_events` spans are also kept verbatim for export as
// trace-event JSON (chrome://tracing / Perfetto). One caller thread drives
// a Tracer; spans nest strictly.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(std::size_t max_events = 100'000);

  /// Open a span. `name` and `layer` must outlive the Tracer (literals).
  void begin(const char* name, const char* layer);
  /// Close the innermost span; returns its duration in microseconds.
  double end();
  /// Close spans until `depth` remain open (unwinding after a throw).
  void unwind(std::size_t depth);
  std::size_t depth() const { return stack_.size(); }

  /// Spans opened from now on carry `op` as their request identifier.
  void set_op(long op) { op_ = op; }

  /// Self time summed over every span of `layer`, in milliseconds.
  double layer_self_ms(const std::string& layer) const;
  /// Total time of spans named `name` (any tree position), milliseconds.
  double name_total_ms(const std::string& name) const;
  long name_count(const std::string& name) const;

  /// Indented call tree with count, total and self time per node, then
  /// self time per layer.
  void print_tree(std::FILE* out) const;
  /// Kept spans as trace-event JSON objects ("X" phase events, one per
  /// line, comma-separated), preceded by a process_name metadata event.
  std::string events_json(int pid, const std::string& process_name) const;

 private:
  using clock = std::chrono::steady_clock;
  struct Node {
    const char* name;
    const char* layer;
    int parent;
    std::vector<int> children;
    long count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  struct Frame {
    int node;
    clock::time_point start;
    double child_us;
  };
  struct Event {
    int node;
    long op;
    double start_us;
    double dur_us;
  };

  int child_of(int parent, const char* name, const char* layer);
  void print_node(std::FILE* out, int node, int indent) const;

  std::vector<Node> nodes_;  ///< nodes_[0] is the root
  std::vector<Frame> stack_;
  std::vector<Event> events_;
  std::size_t max_events_;
  long dropped_ = 0;
  long op_ = 0;
  clock::time_point epoch_;
};

}  // namespace perfbench
