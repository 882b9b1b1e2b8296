#include "core/facemap_cache.hpp"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/facemap_builder.hpp"
#include "obs/obs.hpp"

namespace fttt {

namespace {

void append_double(std::string& key, double v) {
  char bytes[sizeof(double)];
  std::memcpy(bytes, &v, sizeof(double));
  key.append(bytes, sizeof(double));
}

}  // namespace

FaceMapCache::FaceMapCache(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0)
    throw std::invalid_argument("FaceMapCache: capacity must be > 0");
}

std::string FaceMapCache::make_key(const Deployment& nodes, double C,
                                   const Aabb& field, double cell_size) {
  // Byte-exact serialization of everything FaceMap::build consumes: two
  // inputs share a key iff the builds are bit-identical. (Sensing radius
  // does not participate in the division, so it is deliberately absent.)
  std::string key;
  key.reserve((2 * nodes.size() + 7) * sizeof(double));
  append_double(key, C);
  append_double(key, field.lo.x);
  append_double(key, field.lo.y);
  append_double(key, field.hi.x);
  append_double(key, field.hi.y);
  append_double(key, cell_size);
  append_double(key, static_cast<double>(nodes.size()));
  for (const SensorNode& node : nodes) {
    append_double(key, node.position.x);
    append_double(key, node.position.y);
  }
  return key;
}

FaceMapCache::Entry FaceMapCache::get_or_build(const Deployment& nodes, double C,
                                               const Aabb& field, double cell_size,
                                               ThreadPool& pool) {
  const std::string key = make_key(nodes, C, field, cell_size);

  std::promise<Entry> promise;
  std::shared_future<Entry> existing;
  bool hit = false;
  std::size_t hit_rate_pct = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto it = entries_.find(key); it != entries_.end()) {
      ++hits_;
      existing = it->second;
      hit = true;
    } else {
      ++misses_;
      entries_.emplace(key, promise.get_future().share());
      order_.push_back(key);
      if (order_.size() > capacity_) {
        if (auto evicted = entry_bytes_.find(order_.front());
            evicted != entry_bytes_.end()) {
          bytes_ -= evicted->second;
          entry_bytes_.erase(evicted);
        }
        entries_.erase(order_.front());
        order_.pop_front();
        ++evictions_;
      }
    }
    hit_rate_pct = hits_ * 100 / (hits_ + misses_);
  }
  FTTT_OBS_GAUGE_SET("facemap.cache.hit_rate_pct", hit_rate_pct);
  if (hit) {
    FTTT_OBS_COUNT("facemap.cache.hits", 1);
    // Wait outside the lock: the first caller for this key may still be
    // building, and waiters must not serialize behind the mutex.
    return existing.get();
  }
  FTTT_OBS_COUNT("facemap.cache.misses", 1);

  // Single-flight build outside the mutex. FaceMapBuilder's parallel_for
  // degrades to caller-runs when the pool is saturated, so this cannot
  // deadlock even if every pool worker is itself waiting on the cache.
  try {
    FTTT_OBS_SPAN("facemap.cache.build");
    const Entry entry =
        FaceMapBuilder(nodes, C, field, cell_size, pool).build_division(/*hierarchical=*/true);
    promise.set_value(entry);
    const std::size_t entry_bytes = entry.map->bytes() + entry.table->bytes() +
                                    entry.hier->bytes() + entry.index->bytes();
    std::size_t resident;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++builds_;
      // Register the payload only while the key is still indexed: the
      // FIFO bound can evict a key whose build is in flight, and that
      // entry's bytes must not be charged to the cache forever.
      if (entries_.find(key) != entries_.end() &&
          entry_bytes_.emplace(key, entry_bytes).second)
        bytes_ += entry_bytes;
      resident = bytes_;
    }
    FTTT_OBS_GAUGE_SET("facemap.cache.bytes", resident);
    return entry;
  } catch (...) {
    // Un-cache the failed key so the next lookup retries; waiters get the
    // exception through the shared_future.
    {
      std::lock_guard<std::mutex> lock(mu_);
      entries_.erase(key);
      for (auto it = order_.begin(); it != order_.end(); ++it) {
        if (*it == key) {
          order_.erase(it);
          break;
        }
      }
    }
    promise.set_exception(std::current_exception());
    throw;
  }
}

FaceMapCache::Stats FaceMapCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Stats{hits_, misses_, builds_, evictions_, entries_.size(), bytes_};
}

void FaceMapCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  order_.clear();
  entry_bytes_.clear();
  bytes_ = 0;
}

FaceMapCache& FaceMapCache::global() {
  static FaceMapCache cache;
  return cache;
}

}  // namespace fttt
