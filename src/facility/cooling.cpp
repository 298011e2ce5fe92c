#include "facility/cooling.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace greenhpc::facility {

namespace {
//                               base   free-limit  slope/°C
constexpr CoolingTraits kTraits[] = {
    /* AirCooled    */ {0.35, 15.0, 0.016},
    /* ChilledWater */ {0.22, 18.0, 0.010},
    /* WarmWater    */ {0.07, 35.0, 0.004},
};
constexpr const char* kNames[] = {"air-cooled", "chilled-water", "warm-water"};
}  // namespace

const char* cooling_name(CoolingTechnology tech) {
  return kNames[static_cast<std::size_t>(tech)];
}

const CoolingTraits& cooling_traits(CoolingTechnology tech) {
  return kTraits[static_cast<std::size_t>(tech)];
}

CoolingModel::CoolingModel(CoolingTechnology tech)
    : CoolingModel(cooling_traits(tech), cooling_name(tech)) {}

CoolingModel::CoolingModel(CoolingTraits traits, const char* label)
    : traits_(traits), label_(label) {
  GREENHPC_REQUIRE(traits_.base_overhead >= 0.0, "base overhead must be >= 0");
  GREENHPC_REQUIRE(traits_.chiller_slope_per_c >= 0.0, "chiller slope must be >= 0");
}

double CoolingModel::pue_at(double outdoor_temp_c) const {
  const double chiller =
      traits_.chiller_slope_per_c *
      std::max(0.0, outdoor_temp_c - traits_.free_cooling_limit_c);
  return 1.0 + traits_.base_overhead + chiller;
}

}  // namespace greenhpc::facility
