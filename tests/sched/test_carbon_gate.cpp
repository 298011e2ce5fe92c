// Carbon-EASY's gate signal against a from-scratch gate.
//
// GateSignal (sched/carbon_gate.hpp) evaluates the green gate only at
// change-point candidates and claims the answer at every other tick. The
// oracle here recomputes the gate at every tick of a simulation's clock
// from the history prefix alone: a sort-based percentile of the trailing
// window and a direct forecast() call per lookahead hour, with no window,
// memo or margin.

#include "sched/carbon_gate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "carbon/forecast.hpp"
#include "carbon/grid_model.hpp"
#include "obs/metrics.hpp"
#include "util/time_series.hpp"

namespace greenhpc::sched {
namespace {

using Forecasters = std::vector<std::shared_ptr<const carbon::Forecaster>>;

/// Persistence (the one forecaster that promises stability), the moving
/// average, the harmonic fit and an ensemble.
Forecasters forecasters() {
  auto harmonic = std::make_shared<carbon::HarmonicForecaster>(hours(6.0));
  auto moving = std::make_shared<carbon::MovingAverageForecaster>(hours(6.0));
  return {std::make_shared<carbon::PersistenceForecaster>(), moving, harmonic,
          std::make_shared<carbon::EnsembleForecaster>(
              std::vector<carbon::EnsembleForecaster::Member>{{harmonic, 1.0}, {moving, 1.0}})};
}

CarbonEasyConfig oracle_config() {
  CarbonEasyConfig cfg;
  cfg.history_window = days(1.0);
  cfg.lookahead = hours(6.0);
  return cfg;
}

/// The gate at one tick from scratch, over `history` (the prefix) and `c`.
struct ScratchGate {
  bool green = false;
  bool hold = false;
};

ScratchGate scratch_gate(const util::TimeSeries& history, double c,
                         const CarbonEasyConfig& cfg, std::size_t capacity,
                         const carbon::Forecaster& forecaster) {
  ScratchGate g;
  const std::span<const double> v = history.values();
  double theta = c;
  if (!v.empty()) {
    const std::size_t n = std::min(v.size(), capacity);
    std::vector<double> s(v.end() - static_cast<std::ptrdiff_t>(n), v.end());
    std::sort(s.begin(), s.end());
    const double pos = cfg.green_quantile * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    theta = n == 1 ? s[0] : lo + 1 >= n ? s.back() : s[lo] * (1.0 - frac) + s[lo + 1] * frac;
  }
  g.green = c <= theta;
  if (g.green || v.size() < 2) return g;
  for (Duration h = hours(1.0); h <= cfg.lookahead; h += hours(1.0)) {
    if (forecaster.forecast(history, history.end(), h) <= c * cfg.improvement_factor) {
      g.hold = true;
      break;
    }
  }
  return g;
}

struct TraceCase {
  carbon::Region region;
  carbon::IntensityKind kind;
  std::uint64_t seed;
};

std::vector<TraceCase> trace_cases() {
  std::vector<TraceCase> cases;
  std::uint64_t seed = 41;
  for (const carbon::Region r :
       {carbon::Region::Germany, carbon::Region::France, carbon::Region::Poland}) {
    for (const carbon::IntensityKind k :
         {carbon::IntensityKind::Average, carbon::IntensityKind::Marginal}) {
      cases.push_back({r, k, seed++});
    }
  }
  return cases;
}

/// A 2.5-day trace at 15-minute steps; the 4-minute tick does not divide
/// the step, so segment ends fall between ticks.
util::TimeSeries make_trace(const TraceCase& tc) {
  return carbon::GridModel(tc.region, tc.seed)
      .generate(seconds(0.0), days(2.5), minutes(15.0), tc.kind);
}

constexpr Duration kTick = minutes(4.0);

/// How often each answer occurred over the ticks checked.
struct AnswerCounts {
  std::size_t unknown = 0;
  std::size_t hold = 0;
  std::size_t green = 0;
};

/// Checks the signal of `trace` against the scratch gate at every tick of
/// a simulation's clock: the whole trace, the fill of the window past its
/// end, and 100 ticks beyond. The signal's runs carry the hold decision
/// alone; a green tick must read Hold::No, and a Hold::Unknown tick must
/// not be green and is resolved through GateEvaluator, as the policy does.
void expect_signal_matches_scratch(const util::TimeSeries& trace, Duration tick,
                                   const CarbonEasyConfig& cfg,
                                   const std::shared_ptr<const carbon::Forecaster>& forecaster,
                                   const std::string& label, AnswerCounts& counts) {
  const GateSignal signal(trace, tick, cfg, forecaster);
  ASSERT_FALSE(signal.runs().empty()) << label;
  ASSERT_EQ(signal.runs().front().begin, 0u) << label;
  GateEvaluator resolver(cfg, forecaster);  // the reader's path for Hold::Unknown
  const std::size_t capacity = resolver.window_capacity(tick);
  const auto ticks =
      static_cast<std::size_t>(trace.end().seconds() / tick.seconds()) + capacity + 100;
  ASSERT_LT(signal.evaluations(), ticks) << label;
  util::TimeSeries history(seconds(0.0), tick);
  Duration now = seconds(0.0);
  std::size_t run = 0;
  for (std::size_t k = 0; k < ticks; ++k) {
    const double c = trace.sample_at_clamped(now);
    const ScratchGate want = scratch_gate(history, c, cfg, capacity, *forecaster);
    run = signal.find(k, run);
    const GateSignal::Hold got = signal.runs()[run].hold;
    if (got == GateSignal::Hold::Unknown) {
      ASSERT_FALSE(want.green) << label << ", tick " << k;
      Duration stable = seconds(1e300);
      ASSERT_EQ(*resolver.greener_period_ahead(history, c, stable, false), want.hold)
          << label << ", tick " << k;
      ++counts.unknown;
    } else {
      ASSERT_EQ(got == GateSignal::Hold::Yes, want.hold) << label << ", tick " << k;
    }
    counts.hold += want.hold ? 1 : 0;
    counts.green += want.green ? 1 : 0;
    history.push_back(c);
    now += tick;
  }
}

TEST(GateSignal, EveryTickMatchesAFromScratchGate) {
  // Two layouts per trace case: the aligned one of make_trace, and one
  // that starts 6 minutes in at 16.5-minute steps (not exact in binary).
  // In the second, at the clock 4320 s, segment_end() rounds onto the
  // clock itself (the product that places the segment end and the
  // division that finds the segment round apart), and the builder must
  // still step past that tick.
  const Duration offset_start = minutes(6.0);
  const Duration offset_step = minutes(15.0) * 1.1;
  const util::TimeSeries probe(offset_start, offset_step, std::vector<double>(8, 1.0));
  ASSERT_EQ(probe.segment_end(seconds(4320.0)), seconds(4320.0));
  const CarbonEasyConfig cfg = oracle_config();
  AnswerCounts counts;
  for (const TraceCase& tc : trace_cases()) {
    const util::TimeSeries traces[] = {
        make_trace(tc), carbon::GridModel(tc.region, tc.seed)
                            .generate(offset_start, days(2.5), offset_step, tc.kind)};
    for (const util::TimeSeries& trace : traces) {
      for (const auto& forecaster : forecasters()) {
        const std::string label = std::string(carbon::traits(tc.region).code) + " seed " +
                                  std::to_string(tc.seed) + " start " +
                                  std::to_string(trace.start().seconds()) + " " +
                                  forecaster->name();
        ASSERT_NO_FATAL_FAILURE(
            expect_signal_matches_scratch(trace, kTick, cfg, forecaster, label, counts));
      }
    }
  }
  // Not vacuous: all three answers occur.
  EXPECT_GT(counts.unknown, 0u);
  EXPECT_GT(counts.hold, 0u);
  EXPECT_GT(counts.green, 0u);
}

TEST(GateSignal, PersistenceNeedsNoReaderForecastAndFewEvaluations) {
  const CarbonEasyConfig cfg = oracle_config();
  for (const TraceCase& tc : trace_cases()) {
    const util::TimeSeries trace = make_trace(tc);
    const GateSignal signal(trace, kTick, cfg, std::make_shared<carbon::PersistenceForecaster>());
    // Unknown may only be the settled tail past the trace end.
    for (std::size_t i = 0; i + 1 < signal.runs().size(); ++i) {
      EXPECT_NE(signal.runs()[i].hold, GateSignal::Hold::Unknown);
    }
    // About one evaluation per trace segment, far fewer than the ticks.
    const auto ticks = static_cast<std::size_t>(trace.end().seconds() / kTick.seconds());
    EXPECT_LT(signal.evaluations(), ticks / 2);
  }
}

TEST(GateSignal, DoubledTraceGivesTheSameSignal) {
  // Doubling is exact in binary floating point, and the gate compares
  // the intensity only with percentiles and forecasts of the same signal.
  const CarbonEasyConfig cfg = oracle_config();
  for (const TraceCase& tc : trace_cases()) {
    const util::TimeSeries trace = make_trace(tc);
    const util::TimeSeries doubled = trace.map([](double x) { return 2.0 * x; });
    for (const auto& forecaster : forecasters()) {
      const GateSignal a(trace, kTick, cfg, forecaster);
      const GateSignal b(doubled, kTick, cfg, forecaster);
      ASSERT_EQ(a.runs().size(), b.runs().size()) << forecaster->name();
      for (std::size_t i = 0; i < a.runs().size(); ++i) {
        EXPECT_EQ(a.runs()[i].begin, b.runs()[i].begin) << forecaster->name() << " run " << i;
        EXPECT_EQ(a.runs()[i].hold, b.runs()[i].hold) << forecaster->name() << " run " << i;
      }
    }
  }
}

bool same_runs(const GateSignal& a, const GateSignal& b) {
  if (a.runs().size() != b.runs().size()) return false;
  for (std::size_t i = 0; i < a.runs().size(); ++i) {
    const GateSignal::Run& x = a.runs()[i];
    const GateSignal::Run& y = b.runs()[i];
    if (x.begin != y.begin || x.hold != y.hold) return false;
  }
  return true;
}

TEST(GateSignalCache, SharesOneSignalPerKeyAndNeverAliasesAFreedTrace) {
  GateSignalCache cache;
  const CarbonEasyConfig cfg = oracle_config();
  const std::shared_ptr<const carbon::Forecaster> persistence =
      std::make_shared<carbon::PersistenceForecaster>();
  obs::Counter& built = obs::Registry::global().counter("sched.carbon.gate_signals_built");
  const std::uint64_t built_before = built.value();

  auto a = std::make_shared<const util::TimeSeries>(make_trace(trace_cases()[0]));
  const auto first = cache.get(a, kTick, cfg, persistence);
  EXPECT_EQ(cache.get(a, kTick, cfg, persistence), first);  // shared, not rebuilt
  EXPECT_EQ(built.value(), built_before + 1);
  EXPECT_TRUE(same_runs(*first, GateSignal(*a, kTick, cfg, persistence)));

  // Every key field separates signals.
  CarbonEasyConfig other = cfg;
  other.green_quantile = 0.5;
  EXPECT_NE(cache.get(a, kTick, other, persistence), first);
  EXPECT_NE(cache.get(a, minutes(5.0), cfg, persistence), first);
  EXPECT_NE(cache.get(a, kTick, cfg, std::make_shared<carbon::PersistenceForecaster>()), first);
  EXPECT_EQ(cache.size(), 4u);

  // A freed trace's entry is never read for a new trace, even at the
  // same address (the allocator often hands the block straight back).
  for (std::size_t i = 1; i < trace_cases().size(); ++i) {
    a.reset();
    a = std::make_shared<const util::TimeSeries>(make_trace(trace_cases()[i]));
    const auto signal = cache.get(a, kTick, cfg, persistence);
    EXPECT_TRUE(same_runs(*signal, GateSignal(*a, kTick, cfg, persistence))) << i;
  }
  // Entries of freed traces are dropped as new ones arrive.
  EXPECT_LE(cache.size(), 5u);
}

TEST(GateEvaluator, ReusedEvaluatorDetectsAFreshHistoryThatStartsLate) {
  // A history that is longer than the one last seen but disagrees with it
  // is a fresh simulation: the reused evaluator must give a fresh one's
  // answers, not fold the new history into the old window.
  const CarbonEasyConfig cfg = oracle_config();
  const auto forecaster = std::make_shared<carbon::PersistenceForecaster>();
  GateEvaluator reused(cfg, forecaster);
  util::TimeSeries dirty(seconds(0.0), kTick);
  dirty.append_fill(300, 1000.0);
  (void)reused.green(dirty, 1000.0);
  util::TimeSeries wave(seconds(0.0), kTick);
  for (int k = 0; k < 400; ++k) wave.push_back(k < 180 ? 500.0 : 100.0);
  GateEvaluator fresh(cfg, forecaster);
  for (const double c : {100.0, 300.0, 500.0}) {
    EXPECT_EQ(reused.green(wave, c), fresh.green(wave, c)) << c;
  }
  Duration s1 = seconds(1e300);
  Duration s2 = seconds(1e300);
  EXPECT_EQ(reused.greener_period_ahead(wave, 500.0, s1, false),
            fresh.greener_period_ahead(wave, 500.0, s2, false));
}

}  // namespace
}  // namespace greenhpc::sched
