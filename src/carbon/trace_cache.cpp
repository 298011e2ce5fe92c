#include "carbon/trace_cache.hpp"

#include <bit>

namespace greenhpc::carbon {

namespace {
/// SplitMix64 finalizer as the per-field mixer (good avalanche, cheap).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
}  // namespace

std::size_t TraceCache::KeyHash::operator()(const Key& k) const {
  std::uint64_t h = mix64(static_cast<std::uint64_t>(k.region));
  h = mix64(h ^ static_cast<std::uint64_t>(k.kind));
  h = mix64(h ^ k.seed);
  h = mix64(h ^ std::bit_cast<std::uint64_t>(k.start_s));
  h = mix64(h ^ std::bit_cast<std::uint64_t>(k.span_s));
  h = mix64(h ^ std::bit_cast<std::uint64_t>(k.step_s));
  return static_cast<std::size_t>(h);
}

std::shared_ptr<const std::vector<double>> TraceCache::shape_for(const Key& key,
                                                                 const GridModel& model) {
  const Key shape_key{key.region, IntensityKind::Average, 0, key.start_s, key.span_s,
                      key.step_s};
  {
    std::lock_guard lock(mutex_);
    const auto s = shapes_.find(shape_key);
    if (s != shapes_.end()) return s->second;
  }
  auto fresh = std::make_shared<const std::vector<double>>(model.shape(
      seconds(key.start_s), seconds(key.span_s), seconds(key.step_s)));
  std::lock_guard lock(mutex_);
  return shapes_.try_emplace(shape_key, std::move(fresh)).first->second;
}

std::shared_ptr<const util::TimeSeries> TraceCache::get(Region region,
                                                        IntensityKind kind,
                                                        std::uint64_t seed,
                                                        Duration start, Duration span,
                                                        Duration step) {
  const Key key{region, kind, seed, start.seconds(), span.seconds(), step.seconds()};
  {
    std::lock_guard lock(mutex_);
    const auto it = map_.find(key);
    if (it != map_.end()) {
      ++hits_;
      return it->second;
    }
    ++misses_;
  }
  // Generate outside the lock: concurrent misses on distinct keys don't
  // serialize behind each other's OU draws. Deterministic generation makes
  // a raced duplicate harmless — try_emplace keeps the first insertion.
  GridModel model(region, seed);
  auto trace = std::make_shared<const util::TimeSeries>(
      model.generate(*shape_for(key, model), start, step, kind));
  std::lock_guard lock(mutex_);
  return map_.try_emplace(key, std::move(trace)).first->second;
}

std::shared_ptr<const util::TimeSeries> TraceCache::get_uncached(
    Region region, IntensityKind kind, std::uint64_t seed, Duration start, Duration span,
    Duration step) {
  const Key key{region, kind, seed, start.seconds(), span.seconds(), step.seconds()};
  {
    std::lock_guard lock(mutex_);
    const auto it = map_.find(key);
    if (it != map_.end()) return it->second;
  }
  GridModel model(region, seed);
  return std::make_shared<const util::TimeSeries>(
      model.generate(*shape_for(key, model), start, step, kind));
}

std::size_t TraceCache::size() const {
  std::lock_guard lock(mutex_);
  return map_.size();
}

std::size_t TraceCache::hits() const {
  std::lock_guard lock(mutex_);
  return hits_;
}

std::size_t TraceCache::misses() const {
  std::lock_guard lock(mutex_);
  return misses_;
}

void TraceCache::clear() {
  std::lock_guard lock(mutex_);
  map_.clear();
  shapes_.clear();
  hits_ = 0;
  misses_ = 0;
}

TraceCache& TraceCache::global() {
  static TraceCache cache;
  return cache;
}

}  // namespace greenhpc::carbon
