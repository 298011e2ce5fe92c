#pragma once
// Cooling technology and PUE.
//
// The facility draw is IT power times PUE, and PUE depends on the cooling
// technology and the outdoor temperature: every technology has a
// free-cooling regime below a threshold temperature and a rising overhead
// above it. Warm-water direct liquid cooling (the LRZ design the paper's
// host site pioneered) has both the lowest base overhead and the highest
// free-cooling ceiling, because 40-45°C return water can be cooled
// against almost any outdoor air.

namespace greenhpc::facility {

enum class CoolingTechnology {
  AirCooled,     ///< CRAC units, chillers above ~15 C
  ChilledWater,  ///< central chilled-water plant, free cooling below ~18 C
  WarmWater,     ///< direct warm-water liquid cooling (LRZ class)
};

[[nodiscard]] const char* cooling_name(CoolingTechnology tech);

/// Overhead parameters of one technology: PUE(T) = 1 + base +
/// slope * max(0, T - free_cooling_limit_c).
struct CoolingTraits {
  double base_overhead;        ///< pumps/fans/UPS share of IT power
  double free_cooling_limit_c; ///< outdoor temp up to which no chiller runs
  double chiller_slope_per_c;  ///< added overhead per °C beyond the limit
};

[[nodiscard]] const CoolingTraits& cooling_traits(CoolingTechnology tech);

class CoolingModel {
 public:
  explicit CoolingModel(CoolingTechnology tech);
  CoolingModel(CoolingTraits traits, const char* label);

  /// PUE at a given outdoor temperature (always >= 1).
  [[nodiscard]] double pue_at(double outdoor_temp_c) const;

  [[nodiscard]] const char* label() const { return label_; }

 private:
  CoolingTraits traits_;
  const char* label_;
};

}  // namespace greenhpc::facility
