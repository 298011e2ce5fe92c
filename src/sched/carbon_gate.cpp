#include "sched/carbon_gate.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace greenhpc::sched {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// SplitMix64 finalizer as the per-field mixer.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Whether a weak and a shared pointer share one control block.
template <typename T>
bool same_owner(const std::weak_ptr<const T>& weak, const std::shared_ptr<const T>& strong) {
  return !weak.owner_before(strong) && !strong.owner_before(weak);
}
}  // namespace

// ---------------------------------------------------------------------------
// GateEvaluator

GateEvaluator::GateEvaluator(const CarbonEasyConfig& cfg,
                             std::shared_ptr<const carbon::Forecaster> forecaster)
    : cfg_(cfg), forecaster_(std::move(forecaster)) {
  GREENHPC_REQUIRE(forecaster_ != nullptr, "carbon-aware gate needs a forecaster");
}

std::size_t GateEvaluator::window_capacity(Duration step) const {
  const auto window_ticks =
      static_cast<std::size_t>(cfg_.history_window.seconds() / step.seconds());
  return std::max<std::size_t>(window_ticks, 1);
}

void GateEvaluator::sync(const util::TimeSeries& history) {
  const std::span<const double> v = history.values();
  if (v.size() < seen_ || (seen_ > 0 && v[seen_ - 1] != seen_last_) ||
      !(history.step() == seen_step_)) {
    window_ = util::SlidingPercentile(window_capacity(history.step()));
    consumed_ = 0;
    memo_.clear();
    seen_step_ = history.step();
  }
  seen_ = v.size();
  if (seen_ > 0) seen_last_ = v[seen_ - 1];
}

bool GateEvaluator::green(const util::TimeSeries& history, double c) {
  sync(history);
  const std::span<const double> v = history.values();
  if (v.empty()) return c <= c;  // the threshold is c itself
  // Spans append runs of one value; a run is one window update.
  while (consumed_ < v.size()) {
    const double x = v[consumed_];
    std::size_t end = consumed_ + 1;
    while (end < v.size() && v[end] == x) ++end;
    window_.push(x, end - consumed_);
    consumed_ = end;
  }
  // The window now holds the last min(size, capacity) history values.
  return c <= window_.percentile(cfg_.green_quantile);
}

std::size_t GateEvaluator::green_stable_ticks(const util::TimeSeries& history, double c,
                                              bool green_now, std::size_t limit) const {
  if (history.size() < 2 || !(c >= 0.0)) return 0;
  // Rank margin. The gate compares c with the interpolated percentile
  // theta = s[lo] * (1 - f) + s[lo + 1] * f of the sorted window s. For
  // nonnegative values the rounded interpolation stays within a few ulps
  // of [s[lo], s[lo + 1]], so with a relative slack far above that:
  //   green is certain while s[lo] >= c (1 + slack), i.e.
  //     count_below(c (1 + slack)) <= lo;
  //   not green is certain while s[lo + 1] <= c (1 - slack), i.e.
  //     count_at_most(c (1 - slack)) >= lo + 2.
  // Each tick appends one value c, evicts at most one old value once the
  // window is full, and moves lo up by at most one only while it is
  // still filling (no eviction then). Each appended c counts against the
  // green margin and not against the other; so either margin, measured
  // in ranks, shrinks by at most one per tick, and a margin of r ranks
  // keeps the gate's answer for the next r ticks.
  constexpr double kSlack = 1e-12;
  long margin = 0;
  if (window_.count_below(0.0) == 0) {
    const auto lo = static_cast<long>(window_.percentile_rank(cfg_.green_quantile));
    margin = green_now
                 ? lo - static_cast<long>(window_.count_below(c * (1.0 + kSlack)))
                 : static_cast<long>(window_.count_at_most(c * (1.0 - kSlack))) - (lo + 2);
  }
  std::size_t stable = margin > 0 ? static_cast<std::size_t>(margin) : 0;

  // Order statistics. With a full window, lo and f are fixed, so theta,
  // and the answer, keep their bits while the values L = s[lo] and
  // U = s[lo + 1] keep their ranks. The values to come are known: tick
  // j + 1 appends c and evicts history[j - capacity], a past sample. The
  // counts that place L and U are updated through them one tick at a
  // time; once every past sample is evicted, the window holds only c and
  // no longer changes. Nonzero finite values only, so that every value
  // equal to L or U has its bits.
  const std::size_t cap = window_.capacity();
  if (window_.size() == cap && cap >= 2 && std::isfinite(c) && stable < limit) {
    const std::size_t lo = window_.percentile_rank(cfg_.green_quantile);
    const double L = window_.value_at(lo);
    const double U = window_.value_at(lo + 1);
    if (std::isfinite(L) && std::isfinite(U) && L != 0.0 && U != 0.0) {
      auto below_l = static_cast<long>(window_.count_below(L));
      auto at_most_l = static_cast<long>(window_.count_at_most(L));
      auto below_u = static_cast<long>(window_.count_below(U));
      auto at_most_u = static_cast<long>(window_.count_at_most(U));
      const auto rank = static_cast<long>(lo);
      const std::span<const double> v = history.values();
      const std::size_t first = v.size() - cap;  // oldest window sample
      std::size_t r = 0;
      for (; r < limit; ++r) {
        if (r >= cap) {
          r = limit;
          break;
        }
        const double e = v[first + r];
        if (!std::isfinite(e)) break;
        below_l += static_cast<long>(c < L) - static_cast<long>(e < L);
        at_most_l += static_cast<long>(c <= L) - static_cast<long>(e <= L);
        below_u += static_cast<long>(c < U) - static_cast<long>(e < U);
        at_most_u += static_cast<long>(c <= U) - static_cast<long>(e <= U);
        if (!(below_l <= rank && rank < at_most_l && below_u <= rank + 1 &&
              rank + 1 < at_most_u)) {
          break;
        }
      }
      stable = std::max(stable, r);
    }
  }
  return std::min(stable, limit);
}

std::optional<bool> GateEvaluator::greener_period_ahead(const util::TimeSeries& history,
                                                        double c, Duration& stable,
                                                        bool promised_only) {
  sync(history);
  const Duration now = history.end();
  if (history.size() < 2) {  // nothing to forecast from yet
    stable = std::min(stable, now);  // ... until the history grows
    return false;
  }
  const double target = c * cfg_.improvement_factor;
  std::size_t hour = 0;
  for (Duration h = hours(1.0); h <= cfg_.lookahead; h += hours(1.0), ++hour) {
    if (hour == memo_.size()) memo_.push_back({0.0, now});
    ForecastMemo& memo = memo_[hour];
    // The history only grows and agrees with the memo's before the
    // memo's history end (a fresh simulation clears the memo), so the
    // stable_until contract keeps the value until memo.stable.
    if (!(now < memo.stable)) {
      const Duration until = forecaster_->stable_until(history, now, h);
      if (promised_only && !(now < until)) return std::nullopt;
      memo.value = forecaster_->forecast(history, now, h);
      memo.stable = until;
    }
    stable = std::min(stable, memo.stable);
    if (memo.value <= target) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// GateSignal

GateSignal::GateSignal(const util::TimeSeries& trace, Duration tick,
                       const CarbonEasyConfig& cfg,
                       std::shared_ptr<const carbon::Forecaster> forecaster) {
  GREENHPC_REQUIRE(!trace.empty(), "gate signal needs a non-empty trace");
  GREENHPC_REQUIRE(tick.seconds() > 0.0, "gate signal needs a positive tick");
  GateEvaluator gate(cfg, std::move(forecaster));
  const std::size_t capacity = gate.window_capacity(tick);
  util::TimeSeries history(seconds(0.0), tick);
  // The build settles at most `capacity` ticks past the trace end; one
  // allocation of that size keeps the transient peak at one copy.
  const double trace_ticks = std::ceil(trace.end().seconds() / tick.seconds());
  if (trace_ticks < 1e8) history.reserve(static_cast<std::size_t>(trace_ticks) + capacity + 2);
  // First tick k whose history end (history.end() at tick k) reaches `t`.
  const auto first_end_at = [&](Duration t, std::size_t k) -> std::size_t {
    const double guess = std::ceil(t.seconds() / tick.seconds());
    if (!(guess < 1e15)) return kForever;
    std::size_t j = std::max(k + 1, static_cast<std::size_t>(std::max(guess, 0.0)));
    const auto end_at = [&](std::size_t i) { return history.start() + tick * static_cast<double>(i); };
    while (j > k + 1 && !(end_at(j - 1) < t)) --j;
    while (end_at(j) < t) ++j;
    return j;
  };

  Duration now = seconds(0.0);  // the simulator's clock at tick k
  std::size_t k = 0;
  Duration segment_end = seconds(-1.0);
  std::size_t segment_begin = 0;  // first tick of the current trace segment
  for (;;) {
    const double c = trace.sample_at_clamped(now);
    const Duration seg_end = trace.segment_end(now);
    if (!(seg_end == segment_end)) {
      segment_end = seg_end;
      segment_begin = k;
    }
    // Ticks [k, stop) sample c. Past the trace end that holds forever, and
    // from `stop` on the window holds only copies of c: its state, and so
    // the green answer, is the same at every later tick.
    // Where rounding puts segment_end(now) at or before now, the
    // simulator reloads the sample at the next tick, so only tick k is
    // claimed.
    const bool last = std::isinf(seg_end.seconds());
    std::size_t stop = segment_begin + capacity;
    if (!last) {
      stop = k;
      for (Duration t = now; t < seg_end; t += tick) ++stop;
      stop = std::max(stop, k + 1);
    }
    ++evaluations_;
    const bool green = gate.green(history, c);
    Hold hold = Hold::No;
    std::size_t next = stop;
    if (!green) {
      Duration stable = seconds(kInf);
      const std::optional<bool> ahead = gate.greener_period_ahead(history, c, stable, true);
      if (!ahead || (last && k >= stop)) {
        hold = Hold::Unknown;
      } else {
        hold = *ahead ? Hold::Yes : Hold::No;
        next = std::min(next, first_end_at(stable, k));
      }
    }
    if (runs_.empty() || runs_.back().hold != hold) {
      GREENHPC_REQUIRE(k <= std::numeric_limits<std::uint32_t>::max(),
                       "gate signal tick index overflows");
      runs_.push_back({static_cast<std::uint32_t>(k), hold});
    }
    if (last && k >= stop) break;  // settled
    if (next > k + 1) {
      next = std::min(next, k + 1 + gate.green_stable_ticks(history, c, green, next - k - 1));
    }
    // Every tick before `next` keeps the answer.
    while (k < next) {
      history.push_back(c);
      now += tick;
      ++k;
    }
  }
  runs_.shrink_to_fit();  // signals live as long as their trace
}

std::size_t GateSignal::find(std::size_t k, std::size_t hint) const {
  if (hint >= runs_.size() || runs_[hint].begin > k) hint = 0;
  const auto it = std::upper_bound(runs_.begin() + static_cast<std::ptrdiff_t>(hint),
                                   runs_.end(), k,
                                   [](std::size_t t, const Run& r) { return t < r.begin; });
  return static_cast<std::size_t>(it - runs_.begin()) - 1;
}

// ---------------------------------------------------------------------------
// GateSignalCache

std::size_t GateSignalCache::KeyHash::operator()(const Key& k) const {
  std::uint64_t h = mix64(reinterpret_cast<std::uintptr_t>(k.trace));
  h = mix64(h ^ reinterpret_cast<std::uintptr_t>(k.forecaster));
  h = mix64(h ^ k.tick);
  h = mix64(h ^ k.green_quantile);
  h = mix64(h ^ k.history_window);
  h = mix64(h ^ k.lookahead);
  h = mix64(h ^ k.improvement_factor);
  return static_cast<std::size_t>(h);
}

std::shared_ptr<const GateSignal> GateSignalCache::get(
    const std::shared_ptr<const util::TimeSeries>& trace, Duration tick,
    const CarbonEasyConfig& cfg,
    const std::shared_ptr<const carbon::Forecaster>& forecaster) {
  GREENHPC_REQUIRE(trace != nullptr && forecaster != nullptr,
                   "gate signal needs a trace and a forecaster");
  const Key key{trace.get(),
                forecaster.get(),
                std::bit_cast<std::uint64_t>(tick.seconds()),
                std::bit_cast<std::uint64_t>(cfg.green_quantile),
                std::bit_cast<std::uint64_t>(cfg.history_window.seconds()),
                std::bit_cast<std::uint64_t>(cfg.lookahead.seconds()),
                std::bit_cast<std::uint64_t>(cfg.improvement_factor)};
  const auto live = [&](const Entry& e) {
    return same_owner(e.trace, trace) && same_owner(e.forecaster, forecaster);
  };
  {
    const std::lock_guard lock(mutex_);
    const auto it = map_.find(key);
    if (it != map_.end() && live(it->second)) return it->second.signal;
  }

  std::shared_ptr<const GateSignal> signal;
  const auto t0 = std::chrono::steady_clock::now();
  {
    GREENHPC_TRACE_SPAN("sched.carbon.gate_build");
    signal = std::make_shared<const GateSignal>(*trace, tick, cfg, forecaster);
  }
  static obs::Gauge& build_s = obs::Registry::global().gauge("sched.carbon.gate_build_s");
  build_s.add(std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());

  const std::lock_guard lock(mutex_);
  const auto it = map_.find(key);
  if (it != map_.end() && live(it->second)) return it->second.signal;  // a raced build won
  std::erase_if(map_, [](const auto& kv) {
    return kv.second.trace.expired() || kv.second.forecaster.expired();
  });
  map_.insert_or_assign(key, Entry{trace, forecaster, signal});
  static obs::Counter& built = obs::Registry::global().counter("sched.carbon.gate_signals_built");
  built.add();
  return signal;
}

std::size_t GateSignalCache::size() const {
  const std::lock_guard lock(mutex_);
  return map_.size();
}

GateSignalCache& GateSignalCache::global() {
  static GateSignalCache cache;
  return cache;
}

}  // namespace greenhpc::sched
