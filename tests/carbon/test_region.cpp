#include "carbon/region.hpp"

#include <gtest/gtest.h>

#include <set>

namespace greenhpc::carbon {
namespace {

TEST(Region, AllRegionsAreDistinct) {
  std::set<std::string_view> names;
  for (Region r : all_regions()) names.insert(traits(r).name);
  EXPECT_EQ(names.size(), all_regions().size());
}

TEST(Region, TraitsAreInternallyConsistent) {
  for (Region r : all_regions()) {
    const RegionTraits& t = traits(r);
    EXPECT_GT(t.mean_gkwh, 0.0) << t.name;
    EXPECT_GT(t.cap_gkwh, t.floor_gkwh) << t.name;
    EXPECT_GE(t.mean_gkwh, t.floor_gkwh) << t.name;
    EXPECT_LE(t.mean_gkwh, t.cap_gkwh) << t.name;
    EXPECT_GT(t.ou_tau_hours, 0.0) << t.name;
    EXPECT_GE(t.ou_sigma, 0.0) << t.name;
    EXPECT_GE(t.marginal_uplift, 1.0) << t.name;
    EXPECT_GT(t.weekend_factor, 0.0) << t.name;
    EXPECT_LE(t.weekend_factor, 1.0) << t.name;
  }
}

TEST(Region, PaperCalibrationAnchors) {
  // Finland averages ~2.1x France (paper, section 3).
  const double ratio = traits(Region::Finland).mean_gkwh / traits(Region::France).mean_gkwh;
  EXPECT_NEAR(ratio, 2.1, 0.05);
  // Coal-dominated Poland approaches the paper's 1025 g/kWh coal figure at
  // its cap.
  EXPECT_NEAR(traits(Region::Poland).cap_gkwh, 1025.0, 1.0);
}

TEST(Region, OrderingMatchesEuropeanGrids) {
  // Hydro/nuclear regions clean, coal regions dirty.
  EXPECT_LT(traits(Region::Norway).mean_gkwh, traits(Region::Sweden).mean_gkwh);
  EXPECT_LT(traits(Region::Sweden).mean_gkwh, traits(Region::France).mean_gkwh);
  EXPECT_LT(traits(Region::France).mean_gkwh, traits(Region::Finland).mean_gkwh);
  EXPECT_LT(traits(Region::Finland).mean_gkwh, traits(Region::Germany).mean_gkwh);
  EXPECT_LT(traits(Region::Germany).mean_gkwh, traits(Region::Poland).mean_gkwh);
}

TEST(Region, NamesAndCodes) {
  EXPECT_EQ(traits(Region::France).name, "France");
  EXPECT_EQ(traits(Region::UnitedKingdom).code, "UK");
  EXPECT_EQ(traits(Region::Finland).code, "FI");
}

}  // namespace
}  // namespace greenhpc::carbon
