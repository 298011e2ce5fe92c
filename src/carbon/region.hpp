#pragma once
// European grid regions and their carbon-intensity generator parameters.
//
// Substitution note (see DESIGN.md): the paper's Fig. 2 uses a commercial
// grid-emissions data feed for January 2023 which we cannot access offline.
// These presets parameterize a stochastic generator whose output is
// calibrated to the paper's two quantitative anchors — Finland averaging
// ~2.1x France's intensity, with a daily standard deviation of ~47 gCO2/kWh
// in Finland — and to the publicly known ordering of European grids in that
// month (hydro/nuclear Nordics + France low; coal-heavy Poland highest).

#include <array>
#include <string_view>

namespace greenhpc::carbon {

/// Geographic regions used throughout the experiments.
enum class Region {
  France,
  Finland,
  Sweden,
  Norway,
  Germany,
  Poland,
  Netherlands,
  Italy,
  Spain,
  UnitedKingdom,
};

/// All regions, in Fig. 2 display order.
[[nodiscard]] constexpr std::array<Region, 10> all_regions() {
  return {Region::Norway,  Region::Sweden,      Region::France, Region::Finland,
          Region::Spain,   Region::UnitedKingdom, Region::Italy, Region::Netherlands,
          Region::Germany, Region::Poland};
}

/// Generator parameters for a region's carbon-intensity process. The
/// process is
///
///   ci(t) = clamp( mean * weekend(t)
///                  + diurnal_amplitude * cos(2*pi*(h - peak_hour)/24)
///                  - solar_depth * midday_bump(h)
///                  + OU(t),  floor, cap )
///
/// where OU is an Ornstein-Uhlenbeck weather process with stationary
/// standard deviation ou_sigma and correlation time ou_tau_hours. The
/// multi-day OU correlation is what produces realistic day-to-day variance
/// (wind/weather regimes), distinct from the deterministic diurnal shape.
struct RegionTraits {
  std::string_view name;         ///< human-readable region name
  std::string_view code;         ///< two-letter display code
  double mean_gkwh;              ///< long-run average intensity, gCO2/kWh
  double diurnal_amplitude;      ///< amplitude of the daily demand cycle
  double peak_hour;              ///< local hour of peak intensity
  double solar_depth;            ///< midday dip from solar displacing fossil
  double weekend_factor;         ///< multiplier on the mean during weekends
  double ou_sigma;               ///< stationary sigma of the weather process
  double ou_tau_hours;           ///< weather-process correlation time
  double floor_gkwh;             ///< physical floor (always-on low-carbon mix)
  double cap_gkwh;               ///< cap (all-fossil marginal mix)
  double marginal_uplift;        ///< marginal-vs-average intensity multiplier
};

/// Parameter preset for a region (see the table in region.cpp).
[[nodiscard]] const RegionTraits& traits(Region r);

}  // namespace greenhpc::carbon
