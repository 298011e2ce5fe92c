#include "core/site_model.hpp"

#include <algorithm>

#include "embodied/metrics.hpp"
#include "util/error.hpp"

namespace greenhpc::core {

CarbonIntensity RenewableMix::effective() const {
  GREENHPC_REQUIRE(renewable_fraction >= 0.0 && renewable_fraction <= 1.0,
                   "renewable fraction must be in [0,1]");
  return grams_per_kwh(renewable_fraction * renewable_ci.grams_per_kwh() +
                       (1.0 - renewable_fraction) * residual_ci.grams_per_kwh());
}

SiteModel::SiteModel(const embodied::ActModel& model, embodied::SystemInventory inventory,
                     CarbonIntensity grid)
    : inventory_(std::move(inventory)), grid_(grid) {
  GREENHPC_REQUIRE(grid.grams_per_kwh() >= 0.0, "grid intensity must be >= 0");
  embodied_ = embodied_breakdown(model, inventory_).total();
}

Carbon SiteModel::operational_lifetime() const {
  const Duration life = days(365.0 * inventory_.lifetime_years);
  return embodied::operational_carbon(inventory_.avg_power, life, grid_);
}

double SiteModel::embodied_share() const {
  const Carbon total = embodied_ + operational_lifetime();
  return total.grams() > 0.0 ? embodied_ / total : 0.0;
}

double cloud_embodied_share(const CloudServer& server, const RenewableMix& mix) {
  const Duration life = days(365.0 * server.lifetime_years);
  const Power wall_power = server.it_power * server.pue;
  const Carbon operational =
      embodied::operational_carbon(wall_power, life, mix.effective());
  const Carbon total = server.embodied + operational;
  return total.grams() > 0.0 ? server.embodied / total : 0.0;
}

double renewable_fraction_for_parity(const CloudServer& server,
                                     CarbonIntensity renewable_ci,
                                     CarbonIntensity residual_ci) {
  GREENHPC_REQUIRE(residual_ci > renewable_ci, "residual grid must be dirtier");
  // embodied == operational  <=>  ci_eff == embodied / energy.
  const Duration life = days(365.0 * server.lifetime_years);
  const double kwh = (server.it_power * server.pue * life).kilowatt_hours();
  const double ci_parity = server.embodied.grams() / kwh;
  const double f = (residual_ci.grams_per_kwh() - ci_parity) /
                   (residual_ci.grams_per_kwh() - renewable_ci.grams_per_kwh());
  return std::clamp(f, 0.0, 1.0);
}

}  // namespace greenhpc::core
