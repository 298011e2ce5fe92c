// Property-based sweeps over the facility stack: PUE, weather and
// heat-reuse invariants across regions and cooling technologies.

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "carbon/grid_model.hpp"
#include "facility/facility_model.hpp"
#include "testing/cooling.hpp"

namespace greenhpc::facility {
namespace {

using greenhpc::testing::mean_pue;
using FacilityCase = std::tuple<carbon::Region, CoolingTechnology>;

class FacilityProperties : public ::testing::TestWithParam<FacilityCase> {
 protected:
  carbon::Region region() const { return std::get<0>(GetParam()); }
  CoolingTechnology tech() const { return std::get<1>(GetParam()); }

  FacilityResult evaluate_year() const {
    WeatherModel weather(region(), 7);
    const auto temp = weather.generate(seconds(0.0), days(365.0), hours(3.0));
    carbon::GridModel grid(region(), 7);
    const auto ci = grid.generate(seconds(0.0), days(365.0), hours(3.0));
    return evaluate_facility_constant(megawatts(2.0), seconds(0.0), days(365.0), temp,
                                      ci, CoolingModel(tech()), HeatReuseConfig{});
  }
};

TEST_P(FacilityProperties, PueWithinPhysicalBand) {
  const auto r = evaluate_year();
  EXPECT_GE(r.mean_pue, 1.0);
  EXPECT_LE(r.mean_pue, 2.0);
  EXPECT_GE(r.facility_energy.joules(), r.it_energy.joules());
}

TEST_P(FacilityProperties, EnergyAndCarbonConsistent) {
  const auto r = evaluate_year();
  // Facility energy = IT x mean PUE only approximately (PUE varies with
  // time), but must stay within the min/max PUE envelope.
  const double ratio = r.facility_energy.joules() / r.it_energy.joules();
  EXPECT_NEAR(ratio, r.mean_pue, 0.05);
  EXPECT_GT(r.gross_carbon.grams(), 0.0);
  EXPECT_GE(r.gross_carbon.grams(), r.net_carbon().grams());
}

TEST_P(FacilityProperties, ColdRegionsCoolCheaper) {
  // Any technology runs at most as expensive in Finland as in Spain.
  WeatherModel fi(carbon::Region::Finland, 3);
  WeatherModel es(carbon::Region::Spain, 3);
  const auto temp_fi = fi.generate(seconds(0.0), days(365.0), hours(3.0));
  const auto temp_es = es.generate(seconds(0.0), days(365.0), hours(3.0));
  const CoolingModel model(tech());
  EXPECT_LE(mean_pue(model, temp_fi), mean_pue(model, temp_es) + 1e-9);
}

TEST_P(FacilityProperties, ReuseCreditBoundedByDisplaceableHeat) {
  const auto r = evaluate_year();
  // Credit can never exceed all IT heat displacing gas heating.
  const Carbon ceiling = r.it_energy * grams_per_kwh(220.0);
  EXPECT_LE(r.reuse_credit.grams(), ceiling.grams() + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FacilityProperties,
    ::testing::Combine(::testing::Values(carbon::Region::Finland, carbon::Region::Germany,
                                         carbon::Region::Spain, carbon::Region::Norway),
                       ::testing::Values(CoolingTechnology::AirCooled,
                                         CoolingTechnology::ChilledWater,
                                         CoolingTechnology::WarmWater)),
    [](const ::testing::TestParamInfo<FacilityCase>& pinfo) {
      std::string name = std::string(carbon::traits(std::get<0>(pinfo.param)).code) + "_" +
                         cooling_name(std::get<1>(pinfo.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace greenhpc::facility
