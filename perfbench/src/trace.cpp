#include "trace.hpp"

#include <cstring>
#include <map>

namespace perfbench {

Tracer::Tracer(std::size_t max_events)
    : max_events_(max_events), epoch_(clock::now()) {
  nodes_.push_back(Node{"root", "", -1, {}});
}

int Tracer::child_of(int parent, const char* name, const char* layer) {
  for (int c : nodes_[static_cast<std::size_t>(parent)].children) {
    const Node& n = nodes_[static_cast<std::size_t>(c)];
    if (n.name == name || std::strcmp(n.name, name) == 0) return c;
  }
  const int id = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{name, layer, parent, {}});
  nodes_[static_cast<std::size_t>(parent)].children.push_back(id);
  return id;
}

void Tracer::begin(const char* name, const char* layer) {
  const int parent = stack_.empty() ? 0 : stack_.back().node;
  stack_.push_back(Frame{child_of(parent, name, layer), clock::now(), 0.0});
}

double Tracer::end() {
  const auto now = clock::now();
  const Frame f = stack_.back();
  stack_.pop_back();
  const double dur =
      std::chrono::duration<double, std::micro>(now - f.start).count();
  Node& n = nodes_[static_cast<std::size_t>(f.node)];
  ++n.count;
  n.total_us += dur;
  n.self_us += dur - f.child_us;
  if (!stack_.empty()) stack_.back().child_us += dur;
  if (events_.size() < max_events_) {
    events_.push_back(Event{
        f.node, op_,
        std::chrono::duration<double, std::micro>(f.start - epoch_).count(),
        dur});
  } else {
    ++dropped_;
  }
  return dur;
}

void Tracer::unwind(std::size_t depth) {
  while (stack_.size() > depth) end();
}

double Tracer::layer_self_ms(const std::string& layer) const {
  double us = 0.0;
  for (const Node& n : nodes_) {
    if (layer == n.layer) us += n.self_us;
  }
  return us / 1000.0;
}

double Tracer::name_total_ms(const std::string& name) const {
  double us = 0.0;
  for (const Node& n : nodes_) {
    if (name == n.name) us += n.total_us;
  }
  return us / 1000.0;
}

long Tracer::name_count(const std::string& name) const {
  long count = 0;
  for (const Node& n : nodes_) {
    if (name == n.name) count += n.count;
  }
  return count;
}

void Tracer::print_node(std::FILE* out, int node, int indent) const {
  const Node& n = nodes_[static_cast<std::size_t>(node)];
  std::fprintf(out, "  %*s%-*s %-8s %10ld %12.3f %12.3f\n", indent, "",
               32 - indent, n.name, n.layer, n.count, n.total_us / 1000.0,
               n.self_us / 1000.0);
  for (int c : n.children) print_node(out, c, indent + 2);
}

void Tracer::print_tree(std::FILE* out) const {
  std::fprintf(out, "  %-32s %-8s %10s %12s %12s\n", "span", "layer", "count",
               "total ms", "self ms");
  for (int c : nodes_[0].children) print_node(out, c, 0);
  std::map<std::string, double> by_layer;
  double all = 0.0;
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    by_layer[nodes_[i].layer] += nodes_[i].self_us / 1000.0;
    all += nodes_[i].self_us / 1000.0;
  }
  std::fprintf(out, "  self time by layer:\n");
  for (const auto& [layer, ms] : by_layer) {
    std::fprintf(out, "    %-10s %12.3f ms  %6.2f%%\n", layer.c_str(), ms,
                 all > 0.0 ? 100.0 * ms / all : 0.0);
  }
  std::fprintf(out, "  spans kept for export: %zu (dropped %ld)\n",
               events_.size(), dropped_);
}

std::string Tracer::events_json(int pid, const std::string& process_name) const {
  std::string out;
  out.reserve(events_.size() * 112 + 128);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": %d, "
                "\"tid\": 1, \"args\": {\"name\": \"%s\"}}",
                pid, process_name.c_str());
  out += buf;
  for (const Event& e : events_) {
    const Node& n = nodes_[static_cast<std::size_t>(e.node)];
    std::snprintf(buf, sizeof buf,
                  ",\n{\"ph\": \"X\", \"name\": \"%s\", \"cat\": \"%s\", "
                  "\"pid\": %d, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"op\": %ld}}",
                  n.name, n.layer, pid, e.start_us, e.dur_us, e.op);
    out += buf;
  }
  return out;
}

}  // namespace perfbench
