#include "facility/cooling.hpp"

#include <gtest/gtest.h>

#include "facility/weather.hpp"
#include "testing/cooling.hpp"

namespace greenhpc::facility {
namespace {

using greenhpc::testing::mean_pue;

TEST(Cooling, PueAlwaysAtLeastOne) {
  for (auto tech : {CoolingTechnology::AirCooled, CoolingTechnology::ChilledWater,
                    CoolingTechnology::WarmWater}) {
    CoolingModel model(tech);
    for (double t : {-20.0, 0.0, 15.0, 25.0, 40.0}) {
      EXPECT_GE(model.pue_at(t), 1.0) << cooling_name(tech) << " @ " << t;
    }
  }
}

TEST(Cooling, FreeCoolingRegimeIsFlat) {
  CoolingModel air(CoolingTechnology::AirCooled);
  EXPECT_DOUBLE_EQ(air.pue_at(-10.0), air.pue_at(10.0));
  EXPECT_GT(air.pue_at(25.0), air.pue_at(10.0));
}

TEST(Cooling, WarmWaterDominatesEverywhere) {
  CoolingModel air(CoolingTechnology::AirCooled);
  CoolingModel chilled(CoolingTechnology::ChilledWater);
  CoolingModel warm(CoolingTechnology::WarmWater);
  for (double t = -15.0; t <= 40.0; t += 5.0) {
    EXPECT_LT(warm.pue_at(t), chilled.pue_at(t)) << t;
    EXPECT_LT(chilled.pue_at(t), air.pue_at(t)) << t;
  }
}

TEST(Cooling, LrzClassPueNearPublishedValues) {
  // LRZ reports warm-water PUEs near 1.08 year-round; air-cooled German
  // sites are in the 1.35-1.5 band.
  WeatherModel weather(carbon::Region::Germany, 7);
  const auto year = weather.generate(seconds(0.0), days(365.0), hours(3.0));
  EXPECT_NEAR(mean_pue(CoolingModel(CoolingTechnology::WarmWater), year), 1.08, 0.02);
  const double air = mean_pue(CoolingModel(CoolingTechnology::AirCooled), year);
  EXPECT_GT(air, 1.30);
  EXPECT_LT(air, 1.55);
}

TEST(Cooling, SummerWorseThanWinterForAirCooling) {
  WeatherModel weather(carbon::Region::Germany, 7);
  const auto winter = weather.generate(seconds(0.0), days(30.0), hours(3.0));
  const auto summer = weather.generate(days(180.0), days(30.0), hours(3.0));
  CoolingModel air(CoolingTechnology::AirCooled);
  EXPECT_GT(mean_pue(air, summer), mean_pue(air, winter));
}

}  // namespace
}  // namespace greenhpc::facility
