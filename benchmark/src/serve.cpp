// serve_steady and serve_churn_n64: TrackManagerFleet under a live load.
//
// Thread layout (4 on a 4-CPU host): one load-generator thread, one
// service thread calling tick() (it takes part in tick's parallel_for),
// and a ThreadPool of nproc - 2 workers that also runs the off-thread
// division rebuilds. Frames are generated before any clock starts: each
// track owns a ring of kRing epochs, replayed with a continuing epoch
// field, so the ring-wrap jump is the same on every commit.
//
// Phases after the correctness gates:
//   setup      fresh fleet constructions (no cache), in fresh processes
//              (report_setup)
//   closed     generator submit_wait()s into a 4096-frame queue while the
//              service thread ticks back to back: saturation throughput
//   open       frames sent on a fixed schedule at the workload's rate
//              with submit() (shed-oldest) into a queue holding 100 ms of
//              traffic; each frame is timed from its due time to the
//              tick() return that carries its (track, epoch) update
// Each of the two load phases starts with an untimed warm-up on its own
// fleet, and probes the host's speed as it runs (HostSpeed). On
// serve_churn_n64 a node fails or revives every 200 ms of both phases,
// and the staleness of each event is timed on the service thread;
// serve_steady and the sim workloads time it in a churn drill instead.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include "parallel/thread_pool.hpp"
#include "serve/fleet.hpp"
#include "sim/scenario_build.hpp"
#include "workloads.hpp"

namespace bench {

using fttt::NodeId;
using fttt::ReportFrame;
using fttt::ThreadPool;
using fttt::TrackId;
using fttt::TrackManagerFleet;
using fttt::TrackUpdate;
using fttt::Vec2;

namespace {

constexpr std::size_t kRing = 64;            ///< epochs per track ring
constexpr double kLatencyLimitMs = 100.0;    ///< Table 1 sample period (1 / 10 Hz)
constexpr double kQueueSeconds = 0.1;        ///< open-loop queue: 100 ms of traffic
constexpr std::size_t kClosedQueue = 4096;   ///< closed-loop queue bound (frames)
constexpr double kChurnPeriodS = 0.2;        ///< one fail or revive per period
constexpr std::size_t kGateEpochs = 16;      ///< correctness-gate prefix
/// Churn drill length: every node of a 10-node roster fails ~10 times, so
/// the staleness percentiles do not hang on which nodes the seed drew.
constexpr std::size_t kDrillEvents = 200;
constexpr std::size_t kDrillTracks = 256;    ///< tracks the drill's fleet serves
constexpr std::uint64_t kChurnStream = 7;    ///< node-schedule substream
constexpr std::uint64_t kFrameSpanEvery = 256;  ///< traced frames: 1 in N gets spans
/// Host-speed probes (see HostSpeed): one per 0.25 s of a load phase. The
/// open loop leaves a 4 ms gap in its schedule for each, and starts the
/// ~1 ms probe only while 3 ms of the gap remain.
constexpr std::uint64_t kProbeEveryNs = 250'000'000;
constexpr std::uint64_t kProbeGapNs = 4'000'000;
constexpr std::uint64_t kProbeRoomNs = 3'000'000;

/// Fleet-side numbers of a churn drill or of a churned serve phase.
struct ChurnStats {
  std::vector<double> call_us;   ///< fail_node/revive_node call durations
  std::vector<double> stale_ms;  ///< call return -> first tick serving the event
  std::vector<double> adopt_tick_ms;  ///< first frame-carrying tick after adoption
};

/// The workload's whole frame set: tracks x kRing pre-generated frames.
class Ring {
 public:
  Ring(const Shape& shape, std::uint64_t seed, ThreadPool& pool)
      : tracks_(shape.frames.tracks),
        frames_(tracks_ * kRing),
        truth_(tracks_ * kRing) {
    const fttt::SyntheticWorkload source(shape.roster, shape.scenario.field, shape.frames,
                                         seed);
    fttt::parallel_for(
        0, frames_.size(),
        [&](std::size_t i) {
          const TrackId track = i % tracks_;
          const std::uint64_t epoch = i / tracks_;
          frames_[i] = source.frame(track, epoch);
          truth_[i] = source.target_at(track, epoch);
        },
        pool);
    for (const ReportFrame& f : frames_)
      bytes_ += sizeof(ReportFrame) + f.group.raw().size() * sizeof(double) +
                (f.group.node_count() + 63) / 64 * sizeof(std::uint64_t);
  }

  std::size_t tracks() const { return tracks_; }
  double megabytes() const { return static_cast<double>(bytes_) / (1024.0 * 1024.0); }

  /// The k-th frame of a session: round-major, track-minor.
  ReportFrame frame(std::uint64_t k) const {
    ReportFrame f = frames_[slot(k)];
    f.epoch = k / tracks_;
    return f;
  }

  /// Session index of an update (inverse of frame()).
  std::uint64_t index_of(const TrackUpdate& u) const { return u.epoch * tracks_ + u.track; }

  /// Position error of an update against SyntheticWorkload::target_at.
  double error(const TrackUpdate& u) const {
    const Vec2 t = truth_[(u.epoch % kRing) * tracks_ + u.track];
    return std::hypot(u.estimate->position.x - t.x, u.estimate->position.y - t.y);
  }

 private:
  std::size_t slot(std::uint64_t k) const {
    return static_cast<std::size_t>((k / tracks_) % kRing) * tracks_ + k % tracks_;
  }

  std::size_t tracks_;
  std::vector<ReportFrame> frames_;
  std::vector<Vec2> truth_;
  std::size_t bytes_{0};
};

TrackManagerFleet::Config fleet_config(const Shape& shape, std::size_t shards,
                                       std::size_t queue) {
  TrackManagerFleet::Config c;
  c.shards = shards;
  c.queue_capacity = queue;
  c.track.eps = shape.scenario.eps;
  c.track.missing = shape.scenario.missing;
  c.track.hierarchical = shape.hierarchical;
  return c;
}

std::unique_ptr<TrackManagerFleet> make_fleet(const Shape& shape, std::size_t shards,
                                              std::size_t queue, ThreadPool& pool) {
  return std::make_unique<TrackManagerFleet>(shape.roster, shape.C, shape.scenario.field,
                                             shape.scenario.grid_cell,
                                             fleet_config(shape, shards, queue), pool);
}

/// Seed-derived fail/revive schedule: event 2i fails node_i, event 2i+1
/// revives it, one event per kChurnPeriodS. Driven by the service thread
/// between ticks; staleness is the time from the call's return to the
/// first tick() return whose members() reflect the event.
class Churn {
 public:
  Churn(std::size_t roster, std::uint64_t seed)
      : rng_(fttt::RngStream(seed).substream(kChurnStream)), roster_(roster) {}

  /// Restart the schedule on a fresh fleet; events are recorded only
  /// from `record_from_ns` on.
  void start(std::uint64_t now, std::uint64_t record_from_ns) {
    next_due_ = now + period_ns();
    record_from_ = record_from_ns;
    outstanding_.clear();
    failed_node_.reset();
    rebuilds_seen_ = 0;
    adopt_pending_ = false;
  }

  void before_tick(TrackManagerFleet& fleet, SpanRecorder& spans) {
    const std::uint64_t now = now_ns();
    if (now < next_due_) return;
    next_due_ += period_ns();
    const bool fail = !failed_node_;
    const NodeId node =
        fail ? static_cast<NodeId>(rng_.uniform_index(roster_)) : *failed_node_;
    const std::uint64_t t0 = now_ns();
    const bool ok = fail ? fleet.fail_node(node) : fleet.revive_node(node);
    const std::uint64_t t1 = now_ns();
    if (!ok) throw std::runtime_error("churn schedule refused by the fleet");
    failed_node_ = fail ? std::optional<NodeId>(node) : std::nullopt;
    ++events_;
    const bool record = t0 >= record_from_;
    if (record) {
      stats.call_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      spans.record(fail ? "fleet.fail_node" : "fleet.revive_node", kService, t0, t1, 0,
                   events_);
    }
    // A later event on the same node supersedes one not yet served.
    std::erase_if(outstanding_, [&](const Event& e) {
      if (e.node != node) return false;
      ++superseded;
      return true;
    });
    outstanding_.push_back(Event{node, fail, t1, record, events_});
  }

  void after_tick(const TrackManagerFleet& fleet, std::uint64_t ts, std::uint64_t te,
                  bool had_frames, SpanRecorder& spans) {
    const std::uint64_t rebuilds = fleet.stats().rebuilds;
    if (rebuilds != rebuilds_seen_) {
      rebuilds_seen_ = rebuilds;
      adopt_pending_ = true;
    }
    if (adopt_pending_ && had_frames) {
      adopt_pending_ = false;
      if (ts >= record_from_)
        stats.adopt_tick_ms.push_back(static_cast<double>(te - ts) / 1e6);
    }
    if (outstanding_.empty()) return;
    const std::vector<NodeId>& members = fleet.members();
    std::erase_if(outstanding_, [&](const Event& e) {
      const bool present = std::binary_search(members.begin(), members.end(), e.node);
      if (present == e.fail) return false;
      if (e.record) {
        stats.stale_ms.push_back(static_cast<double>(te - e.returned_ns) / 1e6);
        spans.record("fleet.stale", kService, e.returned_ns, te, 0, e.id);
      }
      return true;
    });
  }

  std::uint64_t events() const { return events_; }

  ChurnStats stats;
  std::uint64_t superseded{0};

 private:
  struct Event {
    NodeId node;
    bool fail;
    std::uint64_t returned_ns;
    bool record;
    std::uint64_t id;
  };
  static std::uint64_t period_ns() {
    return static_cast<std::uint64_t>(kChurnPeriodS * 1e9);
  }

  fttt::RngStream rng_;
  std::size_t roster_;
  std::uint64_t next_due_{0};
  std::uint64_t record_from_{0};
  std::vector<Event> outstanding_;
  std::optional<NodeId> failed_node_;
  std::uint64_t rebuilds_seen_{0};
  bool adopt_pending_{false};
  std::uint64_t events_{0};
};

/// a / b, 0 when b is 0.
double share(double a, std::uint64_t b) { return b ? a / static_cast<double>(b) : 0.0; }

/// Sleep with 1 us timer slack on the calling thread. The default 50 us
/// slack would make the generator's and the idle service loop's short
/// sleeps, not the fleet, the larger part of a ~30 us frame latency.
void precise_sleeps() {
#if defined(__linux__)
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
#endif
}

/// Back off briefly when a tick found the queue empty, so an idle
/// service loop does not hammer the queue mutex the generator needs.
void idle_pause() { std::this_thread::sleep_for(std::chrono::microseconds(20)); }

/// Tick until the queue is empty (service thread joined: the caller is
/// now the only thread driving the fleet).
void drain(TrackManagerFleet& fleet) {
  while (fleet.stats().queue_depth > 0) (void)fleet.tick();
}

struct ClosedResult {
  double fps{0.0};
  std::uint64_t frames{0};
  std::size_t chunks{0};
};

/// Closed loop: the generator blocks in submit_wait() whenever the queue
/// is full, the service thread ticks back to back. Without churn the
/// whole ticks inside the measured window are cut into kChunks
/// consecutive runs (~0.15 s of a 10 s phase); throughput is the 90th
/// percentile of their frames / wall-span rates: what the fleet sustains
/// while the shared host leaves it alone, so a slowdown of the host moves
/// some chunks, not the value.
ClosedResult closed_loop(TrackManagerFleet& fleet, const Ring& ring, double warm_s,
                         double measure_s, Churn* churn, SpanRecorder& spans,
                         HostSpeed* speed) {
  std::atomic<bool> stop_gen{false};
  std::atomic<bool> stop_service{false};
  const std::uint64_t t0 = now_ns();
  const auto measure_from = t0 + static_cast<std::uint64_t>(warm_s * 1e9);
  const auto measure_to = measure_from + static_cast<std::uint64_t>(measure_s * 1e9);
  // Churn keeps running through the closed loop (it costs throughput),
  // but staleness is recorded only under the open loop's latency limit.
  if (churn) churn->start(t0, ~std::uint64_t{0});

  struct Tick {
    std::uint64_t start, end, frames;
    std::uint64_t probe_ns;  ///< host-speed probe run just before this tick
  };
  std::vector<Tick> ticks;
  std::thread generator([&] {
    for (std::uint64_t k = 0; !stop_gen.load(std::memory_order_relaxed); ++k)
      if (!fleet.submit_wait(ring.frame(k))) break;
  });
  std::thread service([&] {
    precise_sleeps();
    std::uint64_t next_probe = measure_from;
    while (!stop_service.load(std::memory_order_relaxed)) {
      if (churn) churn->before_tick(fleet, spans);
      // The probe runs on this thread while the generator waits on a full
      // queue and the pool idles; its time is left out of the rates.
      std::uint64_t probe_ns = 0;
      if (speed && now_ns() >= next_probe && now_ns() < measure_to) {
        const std::uint64_t p0 = now_ns();
        speed->sample();
        probe_ns = now_ns() - p0;
        next_probe += kProbeEveryNs;
      }
      const std::uint64_t ts = now_ns();
      const std::vector<TrackUpdate> updates = fleet.tick();
      const std::uint64_t te = now_ns();
      if (!updates.empty()) {
        if (ts >= measure_from && te <= measure_to) {
          ticks.push_back(Tick{ts, te, updates.size(), probe_ns});
          spans.record("fleet.tick", kService, ts, te);
        }
      }
      if (churn) churn->after_tick(fleet, ts, te, !updates.empty(), spans);
      if (updates.empty()) idle_pause();
    }
  });
  sleep_until_ns(measure_to);
  stop_gen = true;
  generator.join();
  stop_service = true;
  service.join();
  drain(fleet);

  ClosedResult r;
  if (ticks.empty()) return r;
  const auto rate = [&](std::size_t lo, std::size_t hi) {
    std::uint64_t frames = 0;
    std::uint64_t probes = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      frames += ticks[i].frames;
      if (i > lo) probes += ticks[i].probe_ns;
    }
    return static_cast<double>(frames) /
           (static_cast<double>(ticks[hi - 1].end - ticks[lo].start - probes) / 1e9);
  };
  for (const Tick& t : ticks) r.frames += t.frames;
  // Under churn a tick's rate depends on whether a rebuild shared the pool
  // with it, so the 90th percentile would pick rebuild-free ticks and hide
  // the rebuild's cost: there the whole window is one chunk.
  constexpr std::size_t kChunks = 64;
  r.chunks = churn ? 1 : std::min(kChunks, ticks.size());
  std::vector<double> rates;
  for (std::size_t c = 0; c < r.chunks; ++c)
    rates.push_back(rate(c * ticks.size() / r.chunks, (c + 1) * ticks.size() / r.chunks));
  r.fps = summarize(rates).p90;
  return r;
}

struct OpenResult {
  std::vector<double> latency_ms;  ///< answered measured frames
  double p50{0.0};                 ///< first quartile over windows of the window p50
  double p95{0.0};                 ///< first quartile over windows of the window p95
  std::size_t windows{0};
  std::uint64_t offered{0};
  std::uint64_t unanswered{0};
  std::uint64_t late{0};
  std::uint64_t shed{0};
  double error_sum{0.0};
  std::uint64_t localized{0};
  std::uint64_t warm{0};
  std::uint64_t gated{0};
  std::vector<double> lag_ms;
  // Traced runs only, per measured frame except frames_per_tick:
  std::vector<double> submit_us;
  /// Due time -> start of the draining tick: everything a frame waits
  /// before the fleet works on it (generator lateness and the submit call
  /// included, as latency counts them), so wait + tick adds up to latency.
  std::vector<double> wait_ms;
  std::vector<double> tick_ms;  ///< duration of the tick that answered the frame
  std::vector<double> frames_per_tick;
  double busy_share{0.0};
};

/// Open loop at `rate` frames/s: the generator sends frame k at its due
/// time t0 + k / rate whatever the fleet does, so a stall delays every
/// later frame and shows in their latency. After every kProbeEveryNs of
/// schedule no frame falls due for kProbeGapNs; once every frame due
/// before such a gap is answered, the service thread probes the host's
/// speed in it, so the probe delays no frame.
OpenResult open_loop(TrackManagerFleet& fleet, const Ring& ring, double rate, double warm_s,
                     double measure_s, Churn* churn, SpanRecorder& spans, HostSpeed* speed) {
  const bool traced = spans.enabled();
  const auto total = static_cast<std::uint64_t>(rate * (warm_s + measure_s));
  const auto first = static_cast<std::uint64_t>(rate * warm_s);
  const double period_ns = 1e9 / rate;
  const std::uint64_t t0 = now_ns() + 5'000'000;
  const auto due = [&](std::uint64_t k) {
    const double t = static_cast<double>(k) * period_ns;
    const auto gaps = static_cast<std::uint64_t>(t / kProbeEveryNs);
    return t0 + static_cast<std::uint64_t>(t) + gaps * kProbeGapNs;
  };
  // Gap g >= 1 opens after frame frames_before(g) - 1 and lasts kProbeGapNs.
  const auto frames_before = [&](std::uint64_t g) {
    return static_cast<std::uint64_t>(
        std::ceil(static_cast<double>(g * kProbeEveryNs) / period_ns));
  };
  const auto gap_start = [&](std::uint64_t g) {
    return t0 + g * kProbeEveryNs + (g - 1) * kProbeGapNs;
  };
  if (churn) churn->start(t0, due(first));

  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  std::vector<std::uint64_t> submit0(total, 0);
  std::vector<std::uint64_t> submit1(traced ? total : 0, 0);
  std::vector<std::uint32_t> tick_of(total, kNone);
  std::vector<std::uint64_t> tick_start;
  std::vector<std::uint64_t> tick_end;
  std::vector<std::uint32_t> tick_frames;
  OpenResult r;
  const std::uint64_t shed_before = fleet.stats().shed;

  std::atomic<bool> generator_done{false};
  std::atomic<std::uint64_t> sent{0};
  std::thread generator([&] {
    precise_sleeps();
    for (std::uint64_t k = 0; k < total; ++k) {
      const std::uint64_t d = due(k);
      if (now_ns() < d) sleep_until_ns(d);
      submit0[k] = now_ns();
      fleet.submit(ring.frame(k));
      if (traced) submit1[k] = now_ns();
      sent.store(k + 1, std::memory_order_release);
    }
    generator_done = true;
  });
  std::thread service([&] {
    precise_sleeps();
    const std::uint64_t hard_stop = due(total) + 2'000'000'000ull;
    const std::uint64_t measure_end = due(total);
    // Probe in the gaps of the measured part only.
    std::uint64_t gap = static_cast<std::uint64_t>(
                            static_cast<double>(first) * period_ns / kProbeEveryNs) +
                        1;
    for (;;) {
      if (generator_done.load() && fleet.stats().queue_depth == 0) break;
      if (now_ns() > hard_stop) break;
      if (speed) {
        const std::uint64_t now = now_ns();
        while (gap_start(gap) + kProbeGapNs <= now) ++gap;  // missed while busy
        if (now >= gap_start(gap) && gap_start(gap) < measure_end &&
            now + kProbeRoomNs <= gap_start(gap) + kProbeGapNs &&
            sent.load(std::memory_order_acquire) >= frames_before(gap) &&
            fleet.stats().queue_depth == 0) {
          speed->sample();
          ++gap;
        }
      }
      if (churn) churn->before_tick(fleet, spans);
      const std::uint64_t ts = now_ns();
      const std::vector<TrackUpdate> updates = fleet.tick();
      const std::uint64_t te = now_ns();
      if (!updates.empty()) {
        const auto tick = static_cast<std::uint32_t>(tick_end.size());
        tick_start.push_back(ts);
        tick_end.push_back(te);
        tick_frames.push_back(static_cast<std::uint32_t>(updates.size()));
        for (const TrackUpdate& u : updates) {
          const std::uint64_t k = ring.index_of(u);
          if (k >= total) continue;
          tick_of[k] = tick;
          if (k < first) continue;
          if (u.estimate) {
            r.error_sum += ring.error(u);
            ++r.localized;
            if (u.warm) ++r.warm;
          } else {
            ++r.gated;
          }
        }
      }
      if (churn) churn->after_tick(fleet, ts, te, !updates.empty(), spans);
      if (updates.empty()) idle_pause();
    }
  });
  generator.join();
  service.join();
  drain(fleet);
  r.shed = fleet.stats().shed - shed_before;

  // Per-frame accounting over the measured part.
  const std::uint64_t measured = total - first;
  r.offered = measured;
  r.latency_ms.reserve(measured);
  r.lag_ms.reserve(measured);
  // Percentiles per window of at least 1 s and 200 frames (ten beyond the
  // p95), see windowed_percentile: at ~30 us a frame on serve_steady, one
  // stretch of hypervisor stalls turns a window's p95 into milliseconds.
  const double window_s = std::max(1.0, 200.0 / rate);
  const auto windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(measure_s / window_s));
  // Clock reads from different threads: clamp so a difference never wraps.
  const auto ms_between = [](std::uint64_t from, std::uint64_t to) {
    return static_cast<double>(to - std::min(from, to)) / 1e6;
  };
  std::vector<std::vector<double>> per_window(windows);
  for (std::uint64_t k = first; k < total; ++k) {
    r.lag_ms.push_back(ms_between(due(k), submit0[k]));
    if (tick_of[k] == kNone) {
      ++r.unanswered;
      continue;
    }
    const double lat = ms_between(due(k), tick_end[tick_of[k]]);
    if (lat > kLatencyLimitMs) ++r.late;
    r.latency_ms.push_back(lat);
    const auto w =
        static_cast<std::size_t>(static_cast<double>(k - first) / rate / window_s);
    per_window[std::min(w, windows - 1)].push_back(lat);
  }
  r.windows = windows;
  r.p50 = windowed_percentile(per_window, 50.0);
  r.p95 = windowed_percentile(per_window, 95.0);

  if (traced) {
    const std::uint64_t measure_from = due(first);
    const std::uint64_t measure_to = due(total);
    double busy_ns = 0.0;
    for (std::size_t t = 0; t < tick_end.size(); ++t) {
      if (tick_start[t] < measure_from || tick_start[t] >= measure_to) continue;
      busy_ns += static_cast<double>(std::min(tick_end[t], measure_to) - tick_start[t]);
      r.frames_per_tick.push_back(tick_frames[t]);
      spans.record("fleet.tick", kService, tick_start[t], tick_end[t], 0, t);
    }
    r.busy_share = busy_ns / static_cast<double>(measure_to - measure_from);
    for (std::uint64_t k = first; k < total; ++k) {
      r.submit_us.push_back(static_cast<double>(submit1[k] - submit0[k]) / 1e3);
      if (tick_of[k] == kNone) continue;
      const std::uint64_t ts = tick_start[tick_of[k]];
      const std::uint64_t te = tick_end[tick_of[k]];
      r.wait_ms.push_back(ms_between(due(k), ts));
      r.tick_ms.push_back(static_cast<double>(te - ts) / 1e6);
      if (k % kFrameSpanEvery != 0) continue;
      // One request's path: generator lag, submit, queue wait, its tick.
      const std::uint64_t frame_span = spans.next_id();
      spans.record("loadgen.lag", kGenerator, std::min(due(k), submit0[k]), submit0[k],
                   frame_span, k);
      spans.record("queue.submit", kGenerator, submit0[k], submit1[k], frame_span, k);
      spans.record("queue.wait", kService, submit1[k], std::max(submit1[k], ts), frame_span,
                   k);
      spans.record("fleet.resolve", kService, std::max(submit1[k], ts), te, frame_span, k);
      spans.record("serve.frame", kGenerator, std::min(due(k), submit0[k]), te, 0, k,
                   frame_span);
    }
  }
  return r;
}

/// Generator capacity with a null sink: the same per-frame path (clock
/// read + frame copy) without the fleet.
double null_sink_fps(const Ring& ring, double seconds) {
  const std::uint64_t t0 = now_ns();
  const auto until = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t k = 0;
  std::size_t sink = 0;
  while (now_ns() < until) {
    for (int i = 0; i < 64; ++i, ++k) sink += ring.frame(k).group.node_count();
  }
  const double s = static_cast<double>(now_ns() - t0) / 1e9;
  if (sink == 0) return 0.0;
  return static_cast<double>(k) / s;
}

bool identical(const TrackUpdate& a, const TrackUpdate& b) {
  if (a.track != b.track || a.epoch != b.epoch || a.warm != b.warm ||
      a.estimate.has_value() != b.estimate.has_value())
    return false;
  if (!a.estimate) return true;
  return a.estimate->position.x == b.estimate->position.x &&
         a.estimate->position.y == b.estimate->position.y &&
         a.estimate->face == b.estimate->face &&
         a.estimate->similarity == b.estimate->similarity;
}

/// Correctness gate: the fleet's updates over a kGateEpochs prefix
/// (one round per tick) must be bit-identical to SerialReplay. With
/// `churn`, a fail/revive lands before every other round, each rebuild
/// is flushed, and the replay adopts the division of an independent
/// spec fleet; every track must survive. The gate serves the first
/// `tracks` tracks of the ring.
void serve_gate(const Shape& shape, const Ring& ring, std::size_t tracks,
                std::size_t shards, bool churn, std::uint64_t seed, ThreadPool& pool) {
  const std::size_t stride = ring.tracks();
  const std::size_t queue = std::max(kClosedQueue, tracks);
  std::unique_ptr<TrackManagerFleet> fleet = make_fleet(shape, shards, queue, pool);
  std::unique_ptr<TrackManagerFleet> spec = make_fleet(shape, 1, queue, pool);
  fttt::SerialReplay replay(fleet_config(shape, 1, queue).track, spec->map(), spec->table(),
                            spec->members(), pool);
  fttt::RngStream rng = fttt::RngStream(seed).substream(kChurnStream + 1);
  std::optional<NodeId> down;
  std::size_t events = 0;
  for (std::uint64_t round = 0; round < kGateEpochs; ++round) {
    if (churn && round > 0 && round % 2 == 0) {
      const bool fail = !down;
      const NodeId node =
          fail ? static_cast<NodeId>(rng.uniform_index(shape.roster.size())) : *down;
      down = fail ? std::optional<NodeId>(node) : std::nullopt;
      for (TrackManagerFleet* f : {fleet.get(), spec.get()}) {
        if (!(fail ? f->fail_node(node) : f->revive_node(node)))
          gate_fail("gate: churn event refused");
        f->flush_rebuilds();
      }
      replay.adopt_division(spec->map(), spec->table(), spec->members());
      ++events;
    }
    for (std::size_t t = 0; t < tracks; ++t)
      if (!fleet->submit(ring.frame(round * stride + t))) gate_fail("gate: submit refused");
    const std::vector<TrackUpdate> got = fleet->tick();
    if (got.size() != tracks) gate_fail("gate: tick resolved the wrong frame count");
    for (std::size_t t = 0; t < tracks; ++t) {
      const TrackUpdate want = replay.process(ring.frame(round * stride + t));
      if (!identical(got[t], want))
        gate_fail("gate: fleet diverges from SerialReplay at epoch " +
                  std::to_string(round) + ", track " + std::to_string(t));
    }
  }
  const TrackManagerFleet::Stats s = fleet->stats();
  if (s.tracks != tracks) gate_fail("gate: tracks dropped");
  if (s.rebuilds != events) gate_fail("gate: rebuild count differs from churn events");
}

/// Staleness after churn, an end-to-end metric on every workload,
/// measured at `slowdown`.
void report_staleness(const ChurnStats& c, double slowdown, Report& report) {
  std::vector<double> stale = c.stale_ms;
  report.duration("stale_p50_ms", percentile(stale, 50.0), "ms", slowdown);
  report.duration("stale_p90_ms", percentile(stale, 90.0), "ms", slowdown);
  report.note("stale_samples", static_cast<double>(stale.size()), "events");
}

void report_churn_layers(const ChurnStats& c, Report& report) {
  std::vector<double> call = c.call_us, adopt = c.adopt_tick_ms;
  report.layer("fleet.churn_call_p99_us", percentile(call, 99.0), "us");
  report.layer("fleet.adopt_tick_ms", percentile(adopt, 50.0), "ms");
}

struct ServeSpec {
  Shape shape;
  std::size_t shards{4};
  double rate_fps{0.0};
  std::size_t closed_queue{kClosedQueue};
  std::size_t gate_tracks{0};  ///< tracks the correctness gate serves
  std::uint64_t frames_seed{0};  ///< SyntheticWorkload seed of the frame ring
  bool churn{false};
};

/// Per-layer numbers of an open-loop phase (traced runs).
void report_open_layers(OpenResult& o, const Ring& ring, double max_fps, Report& report) {
  report.layer("loadgen.lag_p99_ms", percentile(o.lag_ms, 99.0), "ms");
  report.layer("loadgen.max_fps", max_fps, "frames/s");
  report.layer("loadgen.input_mb", ring.megabytes(), "MiB");
  report.layer("queue.submit_p99_us", percentile(o.submit_us, 99.0), "us");
  report.layer("queue.wait_p50_ms", percentile(o.wait_ms, 50.0), "ms");
  report.layer("queue.wait_p99_ms", percentile(o.wait_ms, 99.0), "ms");
  report.layer("fleet.tick_p50_ms", percentile(o.tick_ms, 50.0), "ms");
  report.layer("fleet.tick_p99_ms", percentile(o.tick_ms, 99.0), "ms");
  report.layer("fleet.frames_per_tick_p50", percentile(o.frames_per_tick, 50.0), "frames");
  report.layer("fleet.busy_share", o.busy_share, "ratio");
  report.layer("fleet.warm_share", share(static_cast<double>(o.warm), o.localized),
               "ratio");
  report.layer("fleet.gated_share",
               share(static_cast<double>(o.gated), o.localized + o.gated), "ratio");
}

void run_serve(const ServeSpec& spec, const Options& opt, Report& report,
               SpanRecorder& spans) {
  const Shape& shape = spec.shape;
  ThreadPool pool(std::max<std::size_t>(1, cpu_count() - 2));
  const Ring ring(shape, spec.frames_seed, pool);

  serve_gate(shape, ring, spec.gate_tracks, spec.shards, spec.churn, opt.seed, pool);

  // Staleness: churn under load on serve_churn_n64; otherwise a drill on
  // a fleet of its own, its events run between the phases.
  std::unique_ptr<Churn> churn =
      spec.churn ? std::make_unique<Churn>(shape.roster.size(), opt.seed) : nullptr;
  std::unique_ptr<StaleDrill> drill =
      churn ? nullptr : std::make_unique<StaleDrill>(shape, opt.seconds, spans);
  const auto drill_catch_up = [&] {
    if (drill) drill->catch_up();
  };

  {
    const Scoped span(spans, "setup", kMain);
    report_setup(opt, report);
  }
  HostSpeed closed_speed, open_speed;  // see HostSpeed
  const double max_fps = null_sink_fps(ring, 0.2);
  drill_catch_up();

  // Measured phases of an S-second run: 0.4 S closed, 0.6 S open (10 s
  // and 15 s at S = 25), after untimed warm-ups of 0.08 S and 0.04 S.
  ClosedResult closed;
  {
    std::unique_ptr<TrackManagerFleet> fleet =
        make_fleet(shape, spec.shards, spec.closed_queue, pool);
    closed = closed_loop(*fleet, ring, 0.08 * opt.seconds, 0.4 * opt.seconds, churn.get(),
                         spans, &closed_speed);
  }
  drill_catch_up();
  const auto queue = static_cast<std::size_t>(std::ceil(spec.rate_fps * kQueueSeconds));
  std::unique_ptr<TrackManagerFleet> fleet = make_fleet(shape, spec.shards, queue, pool);
  OpenResult open = open_loop(*fleet, ring, spec.rate_fps, 0.04 * opt.seconds,
                              0.6 * opt.seconds, churn.get(), spans, &open_speed);

  // The run is invalid when the load generator, not the fleet, limited
  // the offered load.
  const double lag_p99 = percentile(open.lag_ms, 99.0);
  const bool valid = max_fps >= 2.0 * closed.fps && lag_p99 <= 1.0;
  if (!valid)
    std::fprintf(stderr,
                 "%s: invalid run: generator p99 lag %.3f ms (limit 1), null-sink rate "
                 "%.0f frames/s (needs 2 x %.0f)\n",
                 report.workload.c_str(), lag_p99, max_fps, closed.fps);

  report.attempted = open.offered;
  report.failed = open.unanswered + open.late;
  report.rate("throughput_per_s", closed.fps, "1/s", closed_speed.slowdown());
  report.duration("latency_p50_ms", open.p50, "ms", open_speed.slowdown());
  report.duration("latency_p95_ms", open.p95, "ms", open_speed.slowdown());
  if (churn) {
    report_staleness(churn->stats, open_speed.slowdown(), report);
    if (spans.enabled()) report_churn_layers(churn->stats, report);
  } else {
    drill->finish(report);
  }
  report.metric("mean_error_m", share(open.error_sum, open.localized), "m");

  report.note("host.slowdown.closed", closed_speed.slowdown());
  report.note("host.slowdown.open", open_speed.slowdown());
  report.note("host.probes", static_cast<double>(closed_speed.samples() +
                                                 open_speed.samples()));
  report.note("rate_fps", spec.rate_fps, "frames/s");
  report.note("closed_chunks", static_cast<double>(closed.chunks), "chunks");
  report.note("latency_samples", static_cast<double>(open.latency_ms.size()), "frames");
  report.note("latency_windows", static_cast<double>(open.windows), "windows");
  // p99 over all measured frames: printed, not bounded (on a shared
  // 4-vCPU host it swings by more than any usable bound between runs).
  report.note("latency_p99_ms", percentile(open.latency_ms, 99.0), "ms");
  report.note("closed_frames", static_cast<double>(closed.frames), "frames");
  report.note("shed", static_cast<double>(open.shed), "frames");
  report.note("unanswered", static_cast<double>(open.unanswered), "frames");
  report.note("late", static_cast<double>(open.late), "frames");
  report.note("gated", static_cast<double>(open.gated), "frames");
  report.note("loadgen.valid", valid ? 1.0 : 0.0);
  report.note("loadgen.lag_p99_ms", lag_p99, "ms");
  report.note("loadgen.max_fps", max_fps, "frames/s");
  report.note("loadgen.input_mb", ring.megabytes(), "MiB");
  if (churn) {
    report.note("churn_events", static_cast<double>(churn->events()), "events");
    report.note("churn_superseded", static_cast<double>(churn->superseded), "events");
  }

  if (spans.enabled()) {
    report_open_layers(open, ring, max_fps, report);
    replay_layers(shape, report, spans);
  }
}

}  // namespace

Shape make_shape(const fttt::ScenarioConfig& scenario, std::size_t tracks,
                 double drop_probability, bool hierarchical) {
  Shape s;
  s.scenario = scenario;
  s.roster =
      fttt::scenario_deployment(scenario, fttt::RngStream(scenario.seed).substream(1));
  const fttt::ResolvedChannel channel = fttt::resolve_channel(scenario);
  s.C = channel.C;
  s.frames.tracks = tracks;
  s.frames.drop_probability = drop_probability;
  s.frames.epoch_period = scenario.localization_period;
  s.frames.sampling.model = channel.model;
  s.frames.sampling.sensing_range = scenario.sensing_range;
  s.frames.sampling.sample_period = 1.0 / scenario.sample_rate;
  s.frames.sampling.samples_per_group = scenario.samples_per_group;
  s.hierarchical = hierarchical;
  return s;
}

void serve_replay(const Shape& shape, Report& report, SpanRecorder& spans) {
  ThreadPool pool(std::max<std::size_t>(1, cpu_count() - 2));
  const Ring ring(shape, shape.scenario.seed, pool);
  const double max_fps = null_sink_fps(ring, 0.1);
  // A short closed loop finds this deployment's capacity; the open loop
  // then runs at a quarter of it, as the serve workloads do.
  std::unique_ptr<TrackManagerFleet> probe = make_fleet(shape, 4, kClosedQueue, pool);
  const ClosedResult closed = closed_loop(*probe, ring, 0.2, 0.5, nullptr, spans, nullptr);
  probe.reset();
  const double rate = std::max(1000.0, 0.25 * closed.fps);
  const auto queue = static_cast<std::size_t>(std::ceil(rate * kQueueSeconds));
  std::unique_ptr<TrackManagerFleet> fleet = make_fleet(shape, 4, queue, pool);
  OpenResult open = open_loop(*fleet, ring, rate, 0.2, 1.0, nullptr, spans, nullptr);
  report_open_layers(open, ring, max_fps, report);
}

struct StaleDrill::State {
  State(const Shape& shape, double seconds, SpanRecorder& recorder)
      : pool(std::max<std::size_t>(1, cpu_count() - 2)),
        ring(shape, shape.scenario.seed, pool),
        fleet(make_fleet(shape, 4, kClosedQueue, pool)),
        rng(fttt::RngStream(shape.scenario.seed).substream(kChurnStream + 2)),
        spans(recorder),
        start_ns(now_ns()),
        period_ns(seconds * 1e9 / static_cast<double>(kDrillEvents)) {
    send_round();
    (void)fleet->tick();
  }

  void send_round() {
    for (std::size_t t = 0; t < ring.tracks(); ++t) fleet->submit(ring.frame(k++));
  }

  /// One event: fail or revive a seed-drawn node, tick back to back until
  /// members() reflects it (so staleness is the rebuild plus its adoption,
  /// not a polling interval), then serve a full round of frames: the cold
  /// burst after the adoption.
  void event() {
    const bool fail = !down;
    const NodeId node =
        fail ? static_cast<NodeId>(rng.uniform_index(fleet->roster_size())) : *down;
    const std::uint64_t t0 = now_ns();
    const bool ok = fail ? fleet->fail_node(node) : fleet->revive_node(node);
    const std::uint64_t t1 = now_ns();
    if (!ok) throw std::runtime_error("churn drill refused");
    down = fail ? std::optional<NodeId>(node) : std::nullopt;
    spans.record(fail ? "fleet.fail_node" : "fleet.revive_node", kService, t0, t1, 0,
                 events);
    stats.call_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    for (;;) {
      (void)fleet->tick();
      const std::uint64_t te = now_ns();
      const std::vector<NodeId>& m = fleet->members();
      if (std::binary_search(m.begin(), m.end(), node) != fail) {
        stats.stale_ms.push_back(static_cast<double>(te - t1) / 1e6);
        spans.record("fleet.stale", kService, t1, te, 0, events);
        break;
      }
      std::this_thread::yield();
    }
    const std::uint64_t round_start = k;
    send_round();
    const std::uint64_t ts = now_ns();
    (void)fleet->tick();
    const std::uint64_t te = now_ns();
    spans.record("fleet.tick", kService, ts, te, 0, round_start);
    stats.adopt_tick_ms.push_back(static_cast<double>(te - ts) / 1e6);
    ++events;
    speed.sample();
  }

  ThreadPool pool;
  const Ring ring;
  std::unique_ptr<TrackManagerFleet> fleet;
  fttt::RngStream rng;
  SpanRecorder& spans;
  std::uint64_t start_ns;
  double period_ns;  ///< event i is due at start_ns + i * period_ns
  std::optional<NodeId> down;
  std::uint64_t k{0};  ///< next frame of the ring
  std::size_t events{0};
  ChurnStats stats;
  HostSpeed speed;
};

StaleDrill::StaleDrill(const Shape& shape, double seconds, SpanRecorder& spans) {
  Shape drill = shape;
  drill.frames.tracks = kDrillTracks;
  state_ = std::make_unique<State>(drill, seconds, spans);
}

StaleDrill::~StaleDrill() = default;

void StaleDrill::catch_up() {
  State& s = *state_;
  while (s.events < kDrillEvents &&
         static_cast<double>(now_ns() - s.start_ns) >=
             static_cast<double>(s.events) * s.period_ns)
    s.event();
}

void StaleDrill::finish(Report& report) {
  State& s = *state_;
  while (s.events < kDrillEvents) s.event();
  report_staleness(s.stats, s.speed.slowdown(), report);
  report.note("host.slowdown.drill", s.speed.slowdown());
  if (s.spans.enabled()) report_churn_layers(s.stats, report);
}

namespace {

ServeSpec steady_spec(const Options& opt) {
  // Table 1 grid roster (n = 10, 100 x 100 m), bounded channel, 2 m grid,
  // flat matching, 2048 tracks, every node reporting, no churn.
  fttt::ScenarioConfig cfg;
  cfg.deployment = fttt::DeploymentKind::kGrid;
  cfg.channel = fttt::Channel::kBounded;
  cfg.grid_cell = 2.0;
  cfg.seed = opt.seed;
  ServeSpec spec;
  spec.shape = make_shape(cfg, 2048, 0.0, false);
  spec.rate_fps = kSteadyRateFps;
  spec.gate_tracks = 2048;
  spec.frames_seed = opt.seed;
  return spec;
}

ServeSpec churn_spec() {
  // Random roster N = 64 over 100 x 100 m, 1 m grid (~10k faces, 2016
  // pairs), hierarchical descent, 512 tracks, 20% report dropout, and a
  // fail or revive every 200 ms.
  // The roster and its frames are one fixed recorded trace: per-frame
  // cost swings ~15% between random 64-node rosters, and the mean error
  // of 512 tracks ~15% between track sets. --seed draws the fault
  // schedule (which node fails when) and the gate's churn events.
  fttt::ScenarioConfig cfg;
  cfg.deployment = fttt::DeploymentKind::kRandom;
  cfg.sensor_count = 64;
  cfg.channel = fttt::Channel::kBounded;
  cfg.grid_cell = 1.0;
  cfg.seed = kChurnRosterSeed;
  ServeSpec spec;
  spec.shape = make_shape(cfg, 512, 0.2, true);
  spec.rate_fps = kChurnRateFps;
  // A frame here costs ~3.5 ms (most climbs fall back to a descent), so
  // the closed-loop queue holds 256 frames, under a second of work, rather
  // than 4096 (~10 s); the gate serves 32 of the tracks.
  spec.closed_queue = 256;
  spec.gate_tracks = 32;
  spec.frames_seed = kChurnRosterSeed;
  spec.churn = true;
  return spec;
}

SetupSample serve_setup(const ServeSpec& spec) {
  ThreadPool pool(std::max<std::size_t>(1, cpu_count() - 2));
  return time_setup([&] { return make_fleet(spec.shape, spec.shards, kClosedQueue, pool); });
}

}  // namespace

void run_serve_steady(const Options& opt, Report& report, SpanRecorder& spans) {
  run_serve(steady_spec(opt), opt, report, spans);
}

void run_serve_churn(const Options& opt, Report& report, SpanRecorder& spans) {
  run_serve(churn_spec(), opt, report, spans);
}

SetupSample setup_serve_steady(const Options& opt) { return serve_setup(steady_spec(opt)); }

SetupSample setup_serve_churn(const Options&) { return serve_setup(churn_spec()); }

}  // namespace bench
