#include "core/site_model.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace greenhpc::core {
namespace {

TEST(RenewableMix, EffectiveIntensityBlends) {
  RenewableMix mix;
  mix.renewable_fraction = 0.5;
  mix.renewable_ci = grams_per_kwh(20.0);
  mix.residual_ci = grams_per_kwh(400.0);
  EXPECT_DOUBLE_EQ(mix.effective().grams_per_kwh(), 210.0);
  mix.renewable_fraction = 1.0;
  EXPECT_DOUBLE_EQ(mix.effective().grams_per_kwh(), 20.0);
  mix.renewable_fraction = 0.0;
  EXPECT_DOUBLE_EQ(mix.effective().grams_per_kwh(), 400.0);
}

TEST(RenewableMix, InvalidFractionThrows) {
  RenewableMix mix;
  mix.renewable_fraction = 1.5;
  EXPECT_THROW((void)mix.effective(), greenhpc::InvalidArgument);
}

TEST(SiteModel, LrzEmbodiedDominates) {
  // The paper: "for LRZ [20 gCO2/kWh] embodied carbon emissions dominate
  // the overall carbon footprint."
  embodied::ActModel model;
  SiteModel lrz(model, embodied::supermuc_ng(), grams_per_kwh(20.0));
  EXPECT_GT(lrz.embodied_share(), 0.5);
}

TEST(SiteModel, CoalGridOperationalDominates) {
  embodied::ActModel model;
  SiteModel coal(model, embodied::supermuc_ng(), grams_per_kwh(1025.0));
  EXPECT_LT(coal.embodied_share(), 0.05);
}

TEST(SiteModel, OperationalScalesWithLifetimeAndPower) {
  embodied::ActModel model;
  SiteModel site(model, embodied::supermuc_ng(), grams_per_kwh(100.0));
  // 3 MW x 5 y x 100 g/kWh = 13,140 t.
  EXPECT_NEAR(site.operational_lifetime().tonnes(), 3.0e3 * 8760.0 * 5 * 100.0 / 1e6,
              10.0);
}

TEST(CloudServer, RuleOfThumb70to75PercentRenewable) {
  // The paper (citing Lyu et al.): "for data centers operating with
  // 70-75% renewable energy, the embodied carbon accounts for 50% of the
  // total carbon emissions." Our reference server must reproduce this.
  const CloudServer server;
  RenewableMix mix;
  mix.renewable_ci = grams_per_kwh(15.0);
  mix.residual_ci = grams_per_kwh(460.0);
  mix.renewable_fraction = 0.70;
  const double share70 = cloud_embodied_share(server, mix);
  mix.renewable_fraction = 0.75;
  const double share75 = cloud_embodied_share(server, mix);
  // 50% parity falls inside (or very near) the 70-75% bracket.
  EXPECT_GT(share75, 0.46);
  EXPECT_LT(share70, 0.58);
  EXPECT_GT(share75, share70);
}

TEST(CloudServer, ParityFractionInPaperBracket) {
  const CloudServer server;
  const double parity = renewable_fraction_for_parity(server, grams_per_kwh(15.0),
                                                      grams_per_kwh(460.0));
  EXPECT_GT(parity, 0.62);
  EXPECT_LT(parity, 0.83);
}

TEST(CloudServer, ShareMonotonicInRenewables) {
  const CloudServer server;
  RenewableMix mix;
  double prev = -1.0;
  for (double f = 0.0; f <= 1.0; f += 0.1) {
    mix.renewable_fraction = f;
    const double share = cloud_embodied_share(server, mix);
    EXPECT_GT(share, prev);
    prev = share;
  }
}

TEST(CloudServer, ParityPreconditions) {
  const CloudServer server;
  EXPECT_THROW((void)renewable_fraction_for_parity(server, grams_per_kwh(400.0),
                                                   grams_per_kwh(300.0)),
               greenhpc::InvalidArgument);
}

}  // namespace
}  // namespace greenhpc::core
