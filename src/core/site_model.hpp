#pragma once
// Whole-site carbon composition: embodied (section 2) + operational
// (section 3) over a system's lifetime, including the renewable-mix rule
// of thumb the paper quotes ("for data centers operating with 70-75%
// renewable energy, the embodied carbon accounts for 50% of the total
// carbon emissions").

#include "carbon/region.hpp"
#include "embodied/act_model.hpp"
#include "embodied/systems.hpp"
#include "util/units.hpp"

namespace greenhpc::core {

/// Electricity mix: a renewable share at a (near-zero) renewable intensity
/// blended with grid power at the residual-grid intensity.
struct RenewableMix {
  double renewable_fraction = 0.0;
  /// Lifecycle intensity of the renewable supply (hydro/wind ~ 15-25).
  CarbonIntensity renewable_ci = grams_per_kwh(15.0);
  /// Intensity of the non-renewable residual grid.
  CarbonIntensity residual_ci = grams_per_kwh(460.0);

  [[nodiscard]] CarbonIntensity effective() const;
};

/// One HPC system operating at a site.
class SiteModel {
 public:
  SiteModel(const embodied::ActModel& model, embodied::SystemInventory inventory,
            CarbonIntensity grid);

  [[nodiscard]] const embodied::SystemInventory& inventory() const { return inventory_; }
  [[nodiscard]] CarbonIntensity grid() const { return grid_; }

  /// Total embodied carbon of the system (Fig. 1 methodology).
  [[nodiscard]] Carbon embodied_total() const { return embodied_; }
  /// Operational carbon over the planned lifetime at the site intensity.
  [[nodiscard]] Carbon operational_lifetime() const;
  /// Embodied share of the lifetime total — the quantity behind both the
  /// "LRZ: embodied dominates" observation and the 70-75% rule of thumb.
  [[nodiscard]] double embodied_share() const;

 private:
  embodied::SystemInventory inventory_;
  CarbonIntensity grid_;
  Carbon embodied_;
};

/// Reference cloud server for the rule-of-thumb experiment (the claim is
/// about cloud datacenters, which are storage-heavy and power-light
/// relative to HPC nodes): Dell-class dual-socket LCA figures.
struct CloudServer {
  Carbon embodied = kilograms_co2(3300.0);
  Power it_power = watts(400.0);
  double pue = 1.4;
  int lifetime_years = 5;
};

/// Embodied share of a cloud server's lifetime footprint under a mix.
[[nodiscard]] double cloud_embodied_share(const CloudServer& server,
                                          const RenewableMix& mix);

/// Renewable fraction at which embodied == operational (the 50% point).
/// Solved analytically from the mix model.
[[nodiscard]] double renewable_fraction_for_parity(const CloudServer& server,
                                                   CarbonIntensity renewable_ci,
                                                   CarbonIntensity residual_ci);

}  // namespace greenhpc::core
