#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

#include "common.hpp"

namespace bench {

std::uint64_t SpanRecorder::next_id() {
  if (!enabled_) return 0;
  const std::uint64_t t0 = now_ns();
  std::lock_guard<std::mutex> lk(mu_);
  cost_ns_ += now_ns() - t0;
  return next_id_++;
}

std::uint64_t SpanRecorder::record(const char* name, Tid tid, std::uint64_t start_ns,
                                   std::uint64_t end_ns, std::uint64_t parent,
                                   std::uint64_t request, std::uint64_t id) {
  if (!enabled_) return 0;
  const std::uint64_t t0 = now_ns();
  std::lock_guard<std::mutex> lk(mu_);
  if (id == 0) id = next_id_++;
  spans_.push_back(
      Span{name, tid, id, parent, request, start_ns, std::max(start_ns, end_ns)});
  cost_ns_ += now_ns() - t0;
  return id;
}

double SpanRecorder::cost_ms() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<double>(cost_ns_) / 1e6;
}

bool SpanRecorder::write(const std::string& dir, const std::string& workload,
                         const std::string& layer_metrics_json) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t t0 = ~std::uint64_t{0};
  for (const Span& s : spans_) t0 = std::min(t0, s.start_ns);

  {
    std::ofstream out(dir + "/trace.json");
    if (!out) return false;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    out << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"args\": {\"name\": "
           "\"fttt_benchmark "
        << workload << "\"}}";
    const char* roles[] = {"", "main", "generator", "service"};
    for (std::uint32_t tid = kMain; tid <= kService; ++tid)
      out << ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": " << tid
          << ", \"args\": {\"name\": \"" << roles[tid] << "\"}}";
    char buf[96];
    for (const Span& s : spans_) {
      std::snprintf(buf, sizeof buf, "%.3f, \"dur\": %.3f",
                    static_cast<double>(s.start_ns - t0) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      out << ",\n{\"name\": \"" << s.name << "\", \"cat\": \"bench\", \"ph\": \"X\", "
          << "\"pid\": 1, \"tid\": " << s.tid << ", \"ts\": " << buf
          << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"request\": " << s.request << "}}";
    }
    out << "\n]}\n";
    if (!out) return false;
  }

  // Self time: a span's duration minus the durations of its children.
  std::uint64_t max_id = 0;
  for (const Span& s : spans_) max_id = std::max(max_id, s.id);
  std::vector<double> child_ns(max_id + 1, 0.0);
  for (const Span& s : spans_)
    if (s.parent != 0 && s.parent <= max_id)
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);

  struct Agg {
    double busy_ns{0.0};
    double self_ns{0.0};
    std::vector<double> dur_us;
  };
  std::map<std::string, Agg> by_name;
  for (const Span& s : spans_) {
    Agg& a = by_name[s.name];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    a.busy_ns += dur;
    a.self_ns += std::max(0.0, dur - child_ns[s.id]);
    a.dur_us.push_back(dur / 1e3);
  }
  std::vector<std::pair<double, std::string>> by_self;
  for (const auto& [name, a] : by_name) by_self.emplace_back(a.self_ns, name);
  std::sort(by_self.rbegin(), by_self.rend());

  std::ofstream out(dir + "/layers.json");
  if (!out) return false;
  out.precision(6);
  out << "{\n  \"workload\": \"" << workload << "\",\n  \"spans\": {";
  bool first = true;
  for (auto& [name, a] : by_name) {
    out << (first ? "\n" : ",\n") << "    \"" << name << "\": {\"count\": "
        << a.dur_us.size() << ", \"busy_ms\": " << a.busy_ns / 1e6
        << ", \"self_ms\": " << a.self_ns / 1e6
        << ", \"p50_us\": " << percentile(a.dur_us, 50.0)
        << ", \"p99_us\": " << percentile(a.dur_us, 99.0) << "}";
    first = false;
  }
  out << "\n  },\n  \"top_self\": [";
  for (std::size_t i = 0; i < by_self.size(); ++i)
    out << (i ? ", " : "") << "\"" << by_self[i].second << "\"";
  out << "],\n  \"metrics\": " << layer_metrics_json << "\n}\n";
  return static_cast<bool>(out);
}

Scoped::Scoped(SpanRecorder& rec, const char* name, Tid tid, std::uint64_t parent,
               std::uint64_t request)
    : rec_(rec),
      name_(name),
      tid_(tid),
      parent_(parent),
      request_(request),
      id_(rec.next_id()),
      start_(rec.enabled() ? now_ns() : 0) {}

Scoped::~Scoped() {
  if (rec_.enabled()) rec_.record(name_, tid_, start_, now_ns(), parent_, request_, id_);
}

}  // namespace bench
