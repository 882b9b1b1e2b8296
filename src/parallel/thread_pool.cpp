#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/check.hpp"
#include "obs/obs.hpp"

namespace fttt {

namespace {
/// The pool whose worker_loop runs on this thread (null elsewhere).
thread_local const ThreadPool* t_worker_of = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard lock(mu_);
    if (stopping_ && workers_.empty()) return;  // already shut down
    stopping_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
  // Workers only exit once the queue is drained, so nothing enqueued
  // before the stop was dropped.
  FTTT_DCHECK(tasks_.empty(), "queued tasks survived shutdown drain");
}

bool ThreadPool::stopped() const {
  std::lock_guard lock(mu_);
  return stopping_;
}

bool ThreadPool::is_worker_thread() const { return t_worker_of == this; }

bool ThreadPool::submit(std::function<void()> task) {
  FTTT_CHECK(task != nullptr, "ThreadPool::submit: empty task");
  {
    std::lock_guard lock(mu_);
    if (stopping_) {
      FTTT_OBS_COUNT("pool.tasks.rejected", 1);
      return false;  // rejected: pool is (being) shut down
    }
    tasks_.push(Task{std::move(task), FTTT_OBS_NOW_NS()});
    FTTT_OBS_GAUGE_SET("pool.queue.depth", tasks_.size());
  }
  cv_task_.notify_one();
  FTTT_OBS_COUNT("pool.tasks.submitted", 1);
  return true;
}

std::size_t ThreadPool::submit_range(std::size_t count,
                                     std::function<void(std::size_t)> fn) {
  FTTT_CHECK(fn != nullptr, "ThreadPool::submit_range: empty task");
  if (count == 0) return 0;
  // One shared callable: the queue holds `count` thin index-binding
  // wrappers instead of `count` copies of the (possibly capture-heavy)
  // function object.
  auto shared = std::make_shared<std::function<void(std::size_t)>>(std::move(fn));
  {
    std::lock_guard lock(mu_);
    if (stopping_) {
      FTTT_OBS_COUNT("pool.tasks.rejected", count);
      return 0;  // rejected: pool is (being) shut down
    }
    const std::uint64_t enqueue_ns = FTTT_OBS_NOW_NS();
    for (std::size_t i = 0; i < count; ++i)
      tasks_.push(Task{[shared, i] { (*shared)(i); }, enqueue_ns});
    FTTT_OBS_GAUGE_SET("pool.queue.depth", tasks_.size());
  }
  FTTT_OBS_COUNT("pool.tasks.submitted", count);
  FTTT_OBS_COUNT("pool.submit_range.calls", 1);
  FTTT_OBS_HIST("pool.submit_range.width", "tasks", count);
  if (count == 1)
    cv_task_.notify_one();
  else
    cv_task_.notify_all();
  return count;
}

void ThreadPool::worker_loop() {
  t_worker_of = this;
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mu_);
      cv_task_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      FTTT_OBS_GAUGE_SET("pool.queue.depth", tasks_.size());
    }
    // Wait/run attribution only when the task was stamped at enqueue
    // (recording on) *and* recording is still on at pop — begun stays 0
    // otherwise and both histogram sites are skipped.
    const std::uint64_t begun = task.enqueue_ns != 0 ? FTTT_OBS_NOW_NS() : 0;
    if (begun != 0)
      FTTT_OBS_HIST("pool.task.wait", "us",
                    static_cast<double>(begun - task.enqueue_ns) / 1000.0);
    task.fn();
    if (begun != 0)
      FTTT_OBS_HIST("pool.task.run", "us",
                    static_cast<double>(FTTT_OBS_NOW_NS() - begun) / 1000.0);
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

namespace {

/// Shared bookkeeping for one parallel_for call. Helpers submitted to the
/// pool may outlive the call (they exit immediately once all chunks are
/// claimed), so the state is reference-counted and the user callback is
/// only touched while a successfully claimed chunk is in flight — which
/// the caller's completion wait guarantees happens before return.
struct ForState {
  std::atomic<std::size_t> next_chunk{0};
  std::atomic<std::size_t> done_chunks{0};
  std::size_t chunks{0};
  std::size_t chunk_size{0};
  std::size_t begin{0};
  std::size_t end{0};
  const std::function<void(std::size_t)>* fn{nullptr};

  void run_chunks() {
    for (;;) {
      const std::size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      const std::size_t lo = begin + c * chunk_size;
      const std::size_t hi = std::min(end, lo + chunk_size);
      for (std::size_t i = lo; i < hi; ++i) (*fn)(i);
      if (done_chunks.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks)
        done_chunks.notify_all();
    }
  }
};

}  // namespace

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn, ThreadPool& pool) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t workers = pool.thread_count();
  if (n <= 1 || workers <= 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  auto state = std::make_shared<ForState>();
  state->chunks = std::min(n, workers * 4);
  state->chunk_size = (n + state->chunks - 1) / state->chunks;
  state->begin = begin;
  state->end = end;
  state->fn = &fn;
  FTTT_DCHECK(state->chunk_size * state->chunks >= n,
              "chunk partition does not cover the range: n=", n,
              " chunks=", state->chunks, " chunk_size=", state->chunk_size);

  // A rejected submit (pool concurrently shut down) is harmless: the
  // caller participates below and claims any chunk no helper took.
  const std::size_t helpers = std::min(state->chunks - 1, workers);
  for (std::size_t h = 0; h < helpers; ++h)
    (void)pool.submit([state] { state->run_chunks(); });

  state->run_chunks();  // caller participates; prevents nested deadlock

  // Wait until every claimed chunk has finished executing.
  std::size_t done = state->done_chunks.load(std::memory_order_acquire);
  while (done < state->chunks) {
    state->done_chunks.wait(done, std::memory_order_acquire);
    done = state->done_chunks.load(std::memory_order_acquire);
  }
}

}  // namespace fttt
