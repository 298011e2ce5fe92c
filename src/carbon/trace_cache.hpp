#pragma once
// Memoized, thread-safe store of generated carbon-intensity traces.
//
// Parameter sweeps compare many policies and cluster shapes over the SAME
// grid conditions: every case keyed by an identical
// (region, kind, seed, start, span, step) tuple needs bit-for-bit the same
// trace. Regenerating it per case is pure waste — GridModel runs an
// Ornstein-Uhlenbeck draw per sample — and copying it per Simulator is
// more waste. TraceCache generates each distinct trace once and hands out
// shared immutable pointers, which plug straight into the zero-copy
// Simulator::Config. Generation is deterministic, so the cache is
// transparent: a hit is pointer-identical AND value-identical to a fresh
// GridModel::generate with the same key.
//
// Below the traces sits one shape per (region, start, span, step): the
// deterministic demand component at every sample, which every seed and
// kind of a region shares (GridModel::shape). A trace miss adds only
// the weather draw on top of its shape, so a sweep over a thousand seeds
// evaluates the demand formula once per region, not once per trace.
// Shapes are not traces: size(), hits() and misses() count traces only.

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "carbon/grid_model.hpp"
#include "util/time_series.hpp"
#include "util/units.hpp"

namespace greenhpc::carbon {

class TraceCache {
 public:
  /// Everything GridModel::generate depends on, as exact bit patterns
  /// (times in seconds); equal keys generate equal traces.
  struct Key {
    Region region = Region::Germany;
    IntensityKind kind = IntensityKind::Average;
    std::uint64_t seed = 0;
    double start_s = 0.0;
    double span_s = 0.0;
    double step_s = 0.0;

    [[nodiscard]] bool operator==(const Key&) const = default;
  };

  /// The trace for (region, kind, seed) over [start, start + span) at
  /// `step` resolution: generated on the first request, shared afterwards.
  /// Thread-safe; generation runs outside the lock, so concurrent misses
  /// on different keys proceed in parallel (a raced duplicate of the same
  /// key is discarded — the first insertion wins, and every caller gets
  /// that winner's pointer).
  [[nodiscard]] std::shared_ptr<const util::TimeSeries> get(
      Region region, IntensityKind kind, std::uint64_t seed, Duration start,
      Duration span, Duration step);

  /// Number of distinct traces currently held.
  [[nodiscard]] std::size_t size() const;
  /// Lookup counters since construction / the last clear().
  [[nodiscard]] std::size_t hits() const;
  [[nodiscard]] std::size_t misses() const;
  /// Drop every cached trace and shape (outstanding shared pointers stay
  /// valid) and reset the counters.
  void clear();

  /// Process-wide cache shared by ScenarioRunner and the sweep engine.
  static TraceCache& global();

 private:
  struct KeyHash {
    [[nodiscard]] std::size_t operator()(const Key& k) const;
  };

  mutable std::mutex mutex_;
  std::unordered_map<Key, std::shared_ptr<const util::TimeSeries>, KeyHash> map_;
  /// GridModel::shape per Key with kind and seed zeroed.
  std::unordered_map<Key, std::shared_ptr<const std::vector<double>>, KeyHash> shapes_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace greenhpc::carbon
