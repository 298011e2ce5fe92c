#include "carbon/region.hpp"

#include "util/error.hpp"

namespace greenhpc::carbon {

namespace {
// Calibration anchors (January 2023):
//  * Finland mean / France mean ~ 2.1 (paper, Fig. 2 discussion)
//  * Finland daily-mean sigma  ~ 47.21 gCO2/kWh (paper)
//  * Ordering: NO < SE < FR < FI < ES < UK < IT < NL < DE < PL.
// Absolute levels for the other regions follow published Jan-2023 monthly
// averages to within the generator's stochastic spread.
constexpr RegionTraits kTraits[] = {
    // name,            code, mean,  amp, peak, solar, wknd, ou_s, tau_h, floor,  cap, marg
    {"France", "FR", 85.0, 14.0, 19.0, 6.0, 0.90, 18.0, 30.0, 30.0, 380.0, 1.45},
    {"Finland", "FI", 178.0, 24.0, 18.0, 2.0, 0.88, 48.0, 42.0, 60.0, 620.0, 1.28},
    {"Sweden", "SE", 46.0, 8.0, 18.0, 1.5, 0.92, 10.0, 36.0, 15.0, 240.0, 1.50},
    {"Norway", "NO", 29.0, 4.0, 18.0, 0.5, 0.95, 5.0, 48.0, 12.0, 150.0, 1.55},
    {"Germany", "DE", 472.0, 60.0, 18.5, 38.0, 0.85, 85.0, 36.0, 140.0, 900.0, 1.30},
    {"Poland", "PL", 708.0, 45.0, 18.5, 14.0, 0.90, 60.0, 30.0, 420.0, 1025.0, 1.12},
    {"Netherlands", "NL", 438.0, 52.0, 18.0, 30.0, 0.87, 55.0, 28.0, 170.0, 820.0, 1.25},
    {"Italy", "IT", 392.0, 48.0, 19.5, 34.0, 0.86, 48.0, 26.0, 160.0, 760.0, 1.28},
    {"Spain", "ES", 218.0, 36.0, 20.0, 42.0, 0.88, 55.0, 30.0, 60.0, 560.0, 1.35},
    {"United Kingdom", "UK", 268.0, 44.0, 18.0, 16.0, 0.87, 68.0, 32.0, 80.0, 640.0, 1.30},
};

[[nodiscard]] constexpr std::size_t index_of(Region r) {
  switch (r) {
    case Region::France: return 0;
    case Region::Finland: return 1;
    case Region::Sweden: return 2;
    case Region::Norway: return 3;
    case Region::Germany: return 4;
    case Region::Poland: return 5;
    case Region::Netherlands: return 6;
    case Region::Italy: return 7;
    case Region::Spain: return 8;
    case Region::UnitedKingdom: return 9;
  }
  return 0;
}
}  // namespace

const RegionTraits& traits(Region r) { return kTraits[index_of(r)]; }

}  // namespace greenhpc::carbon
