#include "core/chaos.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/sweep.hpp"
#include "sched/fcfs.hpp"
#include "util/fault_injector.hpp"

namespace greenhpc::core {
namespace {

/// Micro-grid for in-process poison runs: 1 cell x 2 replicas = 2 cases.
SweepGrid tiny_grid() {
  SweepGrid grid;
  grid.base.cluster.nodes = 16;
  grid.base.cluster.tick = minutes(5.0);
  grid.base.region = carbon::Region::Germany;
  grid.base.trace_span = days(1.0);
  grid.base.trace_step = minutes(30.0);
  grid.base.workload.job_count = 8;
  grid.base.workload.span = hours(6.0);
  grid.base.workload.max_job_nodes = 8;
  grid.base.seed = 41;
  grid.seed_replicas = 2;
  grid.policies.push_back(
      {"fcfs", [] { return std::make_unique<sched::FcfsScheduler>(); }});
  return grid;
}

std::string encode_plan(const ChaosSchedule& plan) {
  std::string text = util::FaultInjector::encode(plan.coordinator_faults);
  for (const auto& w : plan.worker_faults) {
    text += "|" + util::FaultInjector::encode(w);
  }
  return text;
}

TEST(ChaosSchedule, DeriveIsDeterministicSpecForSpec) {
  const auto& sites = chaos_site_catalogue();
  for (int s = 0; s < 24; ++s) {
    const ChaosSchedule a = ChaosSchedule::derive(99, s, sites, 3, 12, 6, 4000);
    const ChaosSchedule b = ChaosSchedule::derive(99, s, sites, 3, 12, 6, 4000);
    EXPECT_EQ(a.has_poison, b.has_poison) << s;
    EXPECT_EQ(a.poison_flat, b.poison_flat) << s;
    EXPECT_EQ(a.has_restart, b.has_restart) << s;
    EXPECT_EQ(encode_plan(a), encode_plan(b)) << s;
    if (a.has_poison) {
      EXPECT_LT(a.poison_flat, 12u) << s;
    }
    ASSERT_EQ(a.worker_faults.size(), 3u);
  }
}

TEST(ChaosSchedule, DifferentSeedsOrIndicesGiveDifferentPlans) {
  const auto& sites = chaos_site_catalogue();
  // Across enough schedules at least one pair must differ; all-identical
  // plans would mean the stream key is being ignored.
  std::set<std::string> plans;
  for (int s = 0; s < 12; ++s) {
    plans.insert(encode_plan(ChaosSchedule::derive(7, s, sites, 3, 12, 6, 4000)));
  }
  EXPECT_GT(plans.size(), 1u);
  const ChaosSchedule seed_a = ChaosSchedule::derive(1, 0, sites, 3, 12, 6, 4000);
  const ChaosSchedule seed_b = ChaosSchedule::derive(2, 0, sites, 3, 12, 6, 4000);
  EXPECT_NE(encode_plan(seed_a), encode_plan(seed_b));
}

TEST(ChaosSchedule, RespawnIncarnationsGetOnlyThePoisonSpec) {
  const auto& sites = chaos_site_catalogue();
  bool saw_poison = false;
  bool saw_clean = false;
  for (int s = 0; s < 40 && !(saw_poison && saw_clean); ++s) {
    const ChaosSchedule plan = ChaosSchedule::derive(5, s, sites, 3, 12, 6, 4000);
    for (int w = 0; w < 3; ++w) {
      const auto respawn = plan.worker_specs(w, /*incarnation=*/1);
      if (plan.has_poison) {
        saw_poison = true;
        ASSERT_EQ(respawn.size(), 1u);
        EXPECT_EQ(respawn[0].site, "case.poison");
        EXPECT_EQ(respawn[0].at, plan.poison_flat);
      } else {
        saw_clean = true;
        EXPECT_TRUE(respawn.empty());
      }
      // Incarnation 0 always carries the full plan.
      EXPECT_EQ(util::FaultInjector::encode(plan.worker_specs(w, 0)),
                util::FaultInjector::encode(plan.worker_faults[w]));
    }
  }
  EXPECT_TRUE(saw_poison) << "no poisoned schedule in 40 draws";
  EXPECT_TRUE(saw_clean) << "no clean schedule in 40 draws";
}

TEST(ChaosSchedule, ResumeCoordinatorFaultsDropTheFoldFault) {
  const auto& sites = chaos_site_catalogue();
  bool saw_restart = false;
  for (int s = 0; s < 60 && !saw_restart; ++s) {
    const ChaosSchedule plan = ChaosSchedule::derive(11, s, sites, 3, 12, 6, 4000);
    if (!plan.has_restart) continue;
    saw_restart = true;
    const auto resume = plan.resume_coordinator_faults();
    for (const auto& spec : resume) {
      EXPECT_NE(spec.site, "coord.fold");
    }
    // Everything else (the poison spec) survives the restart.
    EXPECT_EQ(resume.size(), plan.coordinator_faults.size() - 1);
  }
  EXPECT_TRUE(saw_restart) << "no restart schedule in 60 draws";
}

TEST(ChaosSchedule, SiteFilterRestrictsEverySpecToTheSubset) {
  const std::vector<std::string> only = {"worker.heartbeat"};
  for (int s = 0; s < 24; ++s) {
    const ChaosSchedule plan = ChaosSchedule::derive(3, s, only, 3, 12, 6, 4000);
    EXPECT_FALSE(plan.has_poison) << s;
    EXPECT_FALSE(plan.has_restart) << s;
    EXPECT_TRUE(plan.coordinator_faults.empty()) << s;
    for (const auto& w : plan.worker_faults) {
      for (const auto& spec : w) {
        EXPECT_EQ(spec.site, "worker.heartbeat") << s;
      }
    }
  }
}

TEST(ChaosSchedule, GeneratorOnlyEmitsCataloguedSites) {
  const auto& sites = chaos_site_catalogue();
  const std::set<std::string> known(sites.begin(), sites.end());
  for (int s = 0; s < 40; ++s) {
    const ChaosSchedule plan = ChaosSchedule::derive(13, s, sites, 4, 12, 6, 4000);
    for (const auto& spec : plan.coordinator_faults) {
      EXPECT_TRUE(known.count(spec.site)) << spec.site;
    }
    for (const auto& w : plan.worker_faults) {
      for (const auto& spec : w) {
        EXPECT_TRUE(known.count(spec.site)) << spec.site;
      }
    }
  }
}

TEST(Chaos, InProcessPoisonIsQuarantinedNotFatal) {
  const SweepGrid grid = tiny_grid();
  SweepEngine::Options eopts;
  eopts.block = 1;
  eopts.case_opts.case_retries = 0;
  const SweepEngine engine(eopts);

  const SweepResult clean = engine.run(grid);
  ASSERT_EQ(clean.cases, 2u);
  ASSERT_TRUE(clean.failed_cases.empty());

  // Poison flat case 1, non-lethal (this is the coordinator-side
  // degradation path: the injected kill degrades to a quarantinable
  // throw because lethal() is unset in-process).
  util::FaultInjector::global().arm(
      {{"case.poison", 1, 1, util::FaultAction::Kill, 0}});
  const SweepResult poisoned = engine.run(grid);
  util::FaultInjector::global().disarm();

  EXPECT_EQ(poisoned.cases, 2u);
  ASSERT_EQ(poisoned.failed_cases.size(), 1u);
  EXPECT_EQ(poisoned.failed_cases[0].flat, 1u);
  EXPECT_NE(poisoned.failed_cases[0].error.find("injected poison"),
            std::string::npos);
  // The digest folds surviving cases only, so it must differ from clean.
  EXPECT_NE(poisoned.digest, clean.digest);

  // Disarmed, the engine is back to the clean bit-identical run.
  const SweepResult again = engine.run(grid);
  EXPECT_EQ(again.digest, clean.digest);
  EXPECT_TRUE(again.failed_cases.empty());
}

TEST(Chaos, SiteCatalogueNamesTheWholeFaultSurface) {
  const auto& sites = chaos_site_catalogue();
  for (const char* site :
       {"worker.start", "worker.heartbeat", "worker.block", "worker.report",
        "journal.append", "case.poison", "coord.fold"}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), site), sites.end()) << site;
  }
  EXPECT_EQ(sites.size(), 7u);
}

}  // namespace
}  // namespace greenhpc::core
