// Property-based sweeps over the grid model and forecasters: invariants
// that must hold for every (region, seed) pair.

#include <gtest/gtest.h>

#include <tuple>

#include "carbon/forecast.hpp"
#include "carbon/green_periods.hpp"
#include "carbon/grid_model.hpp"

namespace greenhpc::carbon {
namespace {

using GridCase = std::tuple<Region, std::uint64_t>;

class GridProperties : public ::testing::TestWithParam<GridCase> {
 protected:
  util::TimeSeries trace(IntensityKind kind = IntensityKind::Average) const {
    GridModel model(std::get<0>(GetParam()), std::get<1>(GetParam()));
    return model.generate(seconds(0.0), days(21.0), hours(1.0), kind);
  }
};

TEST_P(GridProperties, BoundsRespected) {
  const RegionTraits& t = traits(std::get<0>(GetParam()));
  const util::TimeSeries series = trace();
  for (double v : series.values()) {
    EXPECT_GE(v, t.floor_gkwh);
    EXPECT_LE(v, t.cap_gkwh);
  }
}

TEST_P(GridProperties, MarginalAtLeastAverageInMean) {
  const double avg = trace(IntensityKind::Average).summary().mean;
  const double marg = trace(IntensityKind::Marginal).summary().mean;
  EXPECT_GE(marg, avg * 0.999);
}

TEST_P(GridProperties, MeanWithinRegionBand) {
  const RegionTraits& t = traits(std::get<0>(GetParam()));
  const double mean = trace().summary().mean;
  EXPECT_GT(mean, t.mean_gkwh * 0.75);
  EXPECT_LT(mean, t.mean_gkwh * 1.25);
}

TEST_P(GridProperties, GreenThresholdSplitsTraceConsistently) {
  const auto ts = trace();
  for (double q : {0.1, 0.25, 0.5, 0.75}) {
    const double threshold = green_threshold(ts, q);
    const double fraction = green_fraction(ts, threshold);
    EXPECT_NEAR(fraction, q, 0.05) << "quantile " << q;
  }
}

TEST_P(GridProperties, GreenWindowsPartitionGreenTime) {
  const auto ts = trace();
  const double threshold = green_threshold(ts, 0.3);
  const auto windows = find_green_windows(ts, threshold);
  double window_time = 0.0;
  for (const auto& w : windows) window_time += w.length().seconds();
  const double green_time = green_fraction(ts, threshold) *
                            (ts.end() - ts.start()).seconds();
  EXPECT_NEAR(window_time, green_time, 1.0);
  // Windows are disjoint and ordered.
  for (std::size_t i = 1; i < windows.size(); ++i) {
    EXPECT_GE(windows[i].start, windows[i - 1].end);
  }
}

TEST_P(GridProperties, TemporalStructurePresent) {
  // Hour-resolution traces must show positive short-lag correlation (OU
  // weather regimes persist across hours).
  const auto ts = trace();
  EXPECT_GT(ts.autocorrelation(1), 0.5);
  EXPECT_GT(ts.autocorrelation(6), 0.2);
}

TEST_P(GridProperties, OracleIsTheBestForecaster) {
  const auto ts = trace();
  const OracleForecaster oracle(ts);
  const PersistenceForecaster persistence;
  const HarmonicForecaster harmonic(days(3.0));
  for (double h : {2.0, 12.0}) {
    const double e_o = evaluate_mape(oracle, ts, days(4.0), hours(h));
    const double e_p = evaluate_mape(persistence, ts, days(4.0), hours(h));
    const double e_h = evaluate_mape(harmonic, ts, days(4.0), hours(h));
    EXPECT_LE(e_o, e_p) << "horizon " << h;
    EXPECT_LE(e_o, e_h) << "horizon " << h;
  }
}

TEST_P(GridProperties, HarmonicBeatsPersistenceShortHorizon) {
  // The anchored harmonic fit should win at short horizons on every
  // region (it tracks both level and shape).
  const auto ts = trace();
  const PersistenceForecaster persistence;
  const HarmonicForecaster harmonic(days(3.0));
  const double e_p = evaluate_mape(persistence, ts, days(4.0), hours(1.0));
  const double e_h = evaluate_mape(harmonic, ts, days(4.0), hours(1.0));
  EXPECT_LT(e_h, e_p);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GridProperties,
    ::testing::Combine(::testing::Values(Region::France, Region::Finland,
                                         Region::Germany, Region::Poland,
                                         Region::UnitedKingdom, Region::Norway),
                       ::testing::Values(11ull, 77ull)),
    [](const ::testing::TestParamInfo<GridCase>& pinfo) {
      return std::string(traits(std::get<0>(pinfo.param)).code) + "_s" +
             std::to_string(std::get<1>(pinfo.param));
    });

}  // namespace
}  // namespace greenhpc::carbon
