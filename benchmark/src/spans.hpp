// Bench-side span recorder for the traced run.
//
// Spans are recorded by the benchmark around the public calls it makes
// into each layer (the library itself is not instrumented here). Each
// span has a name, start, end, parent span and request id; spans stay in
// memory and are written once at exit as a Chrome-trace JSON (load it in
// ui.perfetto.dev) plus layers.json, the per-name aggregate: count, busy
// time, self time (busy minus the time covered by child spans), and
// duration percentiles.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace bench {

struct Span {
  const char* name{nullptr};  ///< string literal
  std::uint32_t tid{0};        ///< benchmark thread role (see Tid)
  std::uint64_t id{0};         ///< 1-based, unique within the run
  std::uint64_t parent{0};     ///< 0 for a root span
  std::uint64_t request{0};    ///< frame / trial / event the span serves
  std::uint64_t start_ns{0};
  std::uint64_t end_ns{0};
};

/// Thread roles shown as Chrome-trace rows.
enum Tid : std::uint32_t { kMain = 1, kGenerator = 2, kService = 3 };

class SpanRecorder {
 public:
  /// Disabled recorders drop every span (the untraced run).
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Reserve an id for a span whose children are recorded before it ends.
  std::uint64_t next_id();

  /// Record a finished span; returns its id (0 when disabled). Pass `id`
  /// from next_id() to close a span that children already point at.
  std::uint64_t record(const char* name, Tid tid, std::uint64_t start_ns,
                       std::uint64_t end_ns, std::uint64_t parent = 0,
                       std::uint64_t request = 0, std::uint64_t id = 0);

  /// Write trace.json and the span section of layers.json into `dir`;
  /// `layer_metrics_json` is the already-serialized per-layer metric
  /// object. Returns false when a file cannot be written.
  bool write(const std::string& dir, const std::string& workload,
             const std::string& layer_metrics_json) const;

  /// Time spent inside next_id() and record() so far, lock waits
  /// included, summed over threads: the direct cost of tracing.
  double cost_ms() const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_id_{1};
  std::uint64_t cost_ns_{0};
};

/// RAII span around one call on the current thread.
class Scoped {
 public:
  Scoped(SpanRecorder& rec, const char* name, Tid tid, std::uint64_t parent = 0,
         std::uint64_t request = 0);
  ~Scoped();
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  SpanRecorder& rec_;
  const char* name_;
  Tid tid_;
  std::uint64_t parent_;
  std::uint64_t request_;
  std::uint64_t id_;
  std::uint64_t start_;
};

}  // namespace bench
