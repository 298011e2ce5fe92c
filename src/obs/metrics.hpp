#pragma once
// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// histograms with lock-free hot-path updates.
//
// Lookup (Registry::counter/gauge/histogram) takes a mutex and should be
// hoisted out of hot loops — the canonical pattern is a function-local
// static reference:
//
//   static obs::Counter& started =
//       obs::Registry::global().counter("sim.jobs_started");
//   started.add();
//
// Returned references stay valid for the registry's lifetime (entries are
// never erased; reset() zeroes values but keeps the objects). All update
// paths are single relaxed atomic RMWs (CAS loop for doubles), safe from
// any thread. A Counter is sharded per thread: add() hits a cache-line-
// padded shard picked by a thread-local index, so threads bumping the same
// counter do not bounce one cache line between cores; threads beyond the
// shard count share shards (still exact, the RMW is atomic). Every read
// (value(), snapshots, write_json, shipped `stat` lines) sums
// the shards, and reset() zeroes them all.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace greenhpc::obs {

namespace detail {
/// This thread's counter shard, assigned round-robin on its first add();
/// kNoShard until then. Constant-initialised, so reading it is a plain
/// TLS load.
inline constexpr unsigned kNoShard = ~0u;
inline thread_local unsigned counter_shard = kNoShard;
unsigned assign_counter_shard();
}  // namespace detail

/// Monotone event count, sharded per thread (see the file comment).
class Counter {
 public:
  /// Shards per counter: more than the busy threads of a sweep process.
  static constexpr unsigned kShards = 8;

  void add(std::uint64_t delta = 1) {
    unsigned s = detail::counter_shard;
    if (s == detail::kNoShard) [[unlikely]] s = detail::assign_counter_shard();
    shards_[s].v.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Sum of the shards; each shard is monotone, so successive reads are.
  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Shard& sh : shards_) total += sh.v.load(std::memory_order_relaxed);
    return total;
  }
  void reset() {
    for (Shard& sh : shards_) sh.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, kShards> shards_{};
};

/// Last-written (or accumulated) double value.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    // fetch_add on atomic<double> is C++20 but takes the locked path on
    // some targets; an explicit CAS loop keeps the semantics portable.
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bound histogram: bucket i counts samples <= bounds[i]; one
/// overflow bucket catches the rest. Bounds are set at creation and
/// immutable after.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void record(double v);
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts, bounds().size() + 1 entries (last = overflow).
  [[nodiscard]] std::vector<std::uint64_t> counts() const;
  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Estimated q-quantile (q clamped to [0,1]) by linear interpolation
  /// inside the fixed buckets: bucket i spans (bounds[i-1], bounds[i]]
  /// with an implicit lower edge of 0 for the first bucket (every series
  /// we record is a non-negative duration). Quantiles landing in the
  /// overflow bucket saturate to the last finite bound — the histogram
  /// cannot know more. Returns 0 on an empty histogram.
  [[nodiscard]] double percentile(double q) const;
  /// Kept for `MetricsHistogram.BucketsAndOverflow` and Registry::reset().
  void reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<double> sum_{0.0};
};

/// Point-in-time copy of one histogram (bounds + per-bucket counts).
struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  ///< bounds.size() + 1, last = overflow
  double sum = 0.0;

  [[nodiscard]] std::uint64_t total() const;
  /// Same fixed-bucket interpolation as Histogram::percentile.
  [[nodiscard]] double percentile(double q) const;
};

/// Structured point-in-time copy of a whole registry — the unit the
/// distributed sweep ships over the wire on `stat` lines
/// (core/sweep_protocol.hpp) and the coordinator folds into its fleet
/// rollup. Entries are name-sorted (map iteration order).
struct StatSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;

  [[nodiscard]] const std::uint64_t* find_counter(std::string_view name) const;
  [[nodiscard]] const double* find_gauge(std::string_view name) const;
  [[nodiscard]] const HistogramSnapshot* find_histogram(std::string_view name) const;
};

/// Named metric store. `global()` is the process-wide instance every
/// instrumentation site uses; independent instances exist for tests.
class Registry {
 public:
  static Registry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

  /// Structured copy of every metric (safe from any thread; concurrent
  /// updates land in either this snapshot or the next).
  [[nodiscard]] StatSnapshot snapshot() const;

  /// {"counters":{...},"gauges":{...},"histograms":{...}} snapshot.
  void write_json(std::ostream& os) const;
  /// Zero every value; registered entries (and references) survive.
  /// Kept for `MetricsRegistry.LookupReturnsStableReferences` (test hook).
  void reset();
  /// Kept for `MetricsRegistry.SizeCountsEveryKind` (test hook).
  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace greenhpc::obs
