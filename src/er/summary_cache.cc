#include "er/summary_cache.h"

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace hiergat {

namespace {

// Aggregated across every SummaryCache instance in the process; the
// per-instance split stays available via SummaryCache::stats().
obs::Counter& HitsCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("hiergat.cache.hits");
  return counter;
}
obs::Counter& MissesCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("hiergat.cache.misses");
  return counter;
}
obs::Counter& EvictionsCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("hiergat.cache.evictions");
  return counter;
}
obs::Gauge& SizeGauge() {
  static obs::Gauge& gauge =
      obs::MetricsRegistry::Global().GetGauge("hiergat.cache.size");
  return gauge;
}

}  // namespace

Tensor SummaryCache::GetOrCompute(const std::string& key,
                                  const std::function<Tensor()>& compute) {
  Tensor hit = Find(key);
  return hit.defined() ? hit : Insert(key, compute());
}

Tensor SummaryCache::Find(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return Tensor();
  ++stats_.hits;
  HitsCounter().Increment();
  return it->second;
}

Tensor SummaryCache::Insert(const std::string& key, const Tensor& computed) {
  // Detach so the cache holds plain values, not autograd graphs.
  Tensor value = computed.Detach();
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.misses;
  MissesCounter().Increment();
  if (entries_.size() >= max_entries_ && entries_.count(key) == 0) {
    // Segmented eviction: drop to half capacity so a slice of the
    // working set survives every capacity event (a full flush forces
    // the whole next batch to miss at once).
    EvictDownToLocked(max_entries_ / 2);
  }
  auto [it, inserted] = entries_.emplace(key, std::move(value));
  SizeGauge().Set(static_cast<double>(entries_.size()));
  return it->second;
}

void SummaryCache::EvictDownToLocked(size_t target) {
  int64_t evicted = 0;
  for (auto it = entries_.begin();
       entries_.size() > target && it != entries_.end();) {
    it = entries_.erase(it);
    ++evicted;
  }
  if (evicted > 0) {
    stats_.evictions += evicted;
    EvictionsCounter().Increment(evicted);
    SizeGauge().Set(static_cast<double>(entries_.size()));
    obs::RecordFlightEvent(obs::FlightEventKind::kCacheEviction,
                           "summary_cache", evicted,
                           static_cast<int64_t>(entries_.size()));
  }
}

void SummaryCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  SizeGauge().Set(0.0);
}

size_t SummaryCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

SummaryCache::Stats SummaryCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace hiergat
