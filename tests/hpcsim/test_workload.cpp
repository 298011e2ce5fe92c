#include "hpcsim/workload.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace greenhpc::hpcsim {
namespace {

WorkloadConfig base_config() {
  WorkloadConfig cfg;
  cfg.job_count = 500;
  cfg.span = days(3.0);
  cfg.max_job_nodes = 64;
  return cfg;
}

TEST(Workload, DeterministicForSeed) {
  const auto a = WorkloadGenerator(base_config(), 7).generate();
  const auto b = WorkloadGenerator(base_config(), 7).generate();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].submit, b[i].submit);
    EXPECT_EQ(a[i].nodes_used, b[i].nodes_used);
    EXPECT_EQ(a[i].runtime, b[i].runtime);
  }
}

TEST(Workload, AllJobsValidAndSorted) {
  const auto jobs = WorkloadGenerator(base_config(), 11).generate();
  ASSERT_EQ(jobs.size(), 500u);
  Duration prev = seconds(-1.0);
  for (const auto& j : jobs) {
    EXPECT_NO_THROW(j.validate());
    EXPECT_GE(j.submit, prev);
    prev = j.submit;
    EXPECT_GE(j.submit.seconds(), 0.0);
    EXPECT_LE(j.submit, days(3.0));
    EXPECT_LE(j.nodes_used, 64);
  }
}

TEST(Workload, RuntimeDistributionMatchesMean) {
  WorkloadConfig cfg = base_config();
  cfg.job_count = 4000;
  cfg.runtime_mean = hours(3.0);
  const auto jobs = WorkloadGenerator(cfg, 13).generate();
  util::RunningStats s;
  for (const auto& j : jobs) s.add(j.runtime.hours());
  // Clamping to [10min, 24h] biases slightly; stay within 20%.
  EXPECT_NEAR(s.mean(), 3.0, 0.6);
}

TEST(Workload, NoOverAllocationByDefault) {
  const auto jobs = WorkloadGenerator(base_config(), 17).generate();
  for (const auto& j : jobs) EXPECT_EQ(j.nodes_requested, j.nodes_used);
}

TEST(Workload, OverAllocationKnob) {
  WorkloadConfig cfg = base_config();
  cfg.job_count = 3000;
  cfg.over_allocation_mean = 1.5;
  const auto jobs = WorkloadGenerator(cfg, 19).generate();
  double ratio_sum = 0.0;
  int over = 0;
  for (const auto& j : jobs) {
    EXPECT_GE(j.nodes_requested, j.nodes_used);
    ratio_sum += static_cast<double>(j.nodes_requested) / j.nodes_used;
    over += j.nodes_requested > j.nodes_used ? 1 : 0;
  }
  EXPECT_GT(over, static_cast<int>(jobs.size()) / 2);
  // Ceiling + clamping inflate the mean ratio above the raw 1.5 knob.
  EXPECT_GT(ratio_sum / static_cast<double>(jobs.size()), 1.3);
}

TEST(Workload, MalleableFraction) {
  WorkloadConfig cfg = base_config();
  cfg.job_count = 2000;
  cfg.malleable_fraction = 0.4;
  const auto jobs = WorkloadGenerator(cfg, 23).generate();
  int malleable = 0;
  for (const auto& j : jobs) {
    if (j.kind == JobKind::Malleable) {
      ++malleable;
      EXPECT_LE(j.min_nodes, j.nodes_used);
      EXPECT_GE(j.max_nodes, j.nodes_used);
    }
  }
  EXPECT_NEAR(malleable / 2000.0, 0.4, 0.05);
}

TEST(Workload, CheckpointableFraction) {
  WorkloadConfig cfg = base_config();
  cfg.job_count = 2000;
  cfg.checkpointable_fraction = 0.7;
  const auto jobs = WorkloadGenerator(cfg, 29).generate();
  int ckpt = 0;
  for (const auto& j : jobs) ckpt += j.checkpointable ? 1 : 0;
  EXPECT_NEAR(ckpt / 2000.0, 0.7, 0.05);
}

TEST(Workload, NodePowerClamped) {
  WorkloadConfig cfg = base_config();
  cfg.job_count = 1000;
  const auto jobs = WorkloadGenerator(cfg, 31).generate();
  for (const auto& j : jobs) {
    EXPECT_GE(j.node_power.watts(), 200.0);  // 0.5 * mean
    EXPECT_LE(j.node_power.watts(), 500.0);  // limit
  }
}

TEST(Workload, DiurnalSubmissionPeak) {
  WorkloadConfig cfg = base_config();
  cfg.job_count = 8000;
  cfg.span = days(7.0);
  cfg.diurnal_amplitude = 0.8;
  const auto jobs = WorkloadGenerator(cfg, 37).generate();
  int afternoon = 0, night = 0;
  for (const auto& j : jobs) {
    const double hour = std::fmod(j.submit.hours(), 24.0);
    if (hour >= 12.0 && hour < 16.0) ++afternoon;
    if (hour >= 0.0 && hour < 4.0) ++night;
  }
  EXPECT_GT(afternoon, night);
}

TEST(Workload, UserPoolRespected) {
  WorkloadConfig cfg = base_config();
  cfg.user_count = 5;
  const auto jobs = WorkloadGenerator(cfg, 41).generate();
  for (const auto& j : jobs) {
    EXPECT_TRUE(j.user == "user0" || j.user == "user1" || j.user == "user2" ||
                j.user == "user3" || j.user == "user4");
  }
}

TEST(Workload, ConfigValidation) {
  WorkloadConfig cfg = base_config();
  cfg.job_count = 0;
  EXPECT_THROW(WorkloadGenerator(cfg, 1), greenhpc::InvalidArgument);
  cfg = base_config();
  cfg.over_allocation_mean = 0.5;
  EXPECT_THROW(WorkloadGenerator(cfg, 1), greenhpc::InvalidArgument);
  cfg = base_config();
  cfg.malleable_fraction = 1.5;
  EXPECT_THROW(WorkloadGenerator(cfg, 1), greenhpc::InvalidArgument);
}

TEST(WorkloadCache, CountsHitsAndMissesAcrossOneFieldChanges) {
  // Every WorkloadConfig field, and the seed, is part of the key: a
  // config that differs in exactly one of them is a miss, and asking
  // again is a hit on its own entry.
  const std::vector<std::function<void(WorkloadConfig&)>> one_field = {
      [](WorkloadConfig& c) { c.job_count += 1; },
      [](WorkloadConfig& c) { c.span = c.span + seconds(1.0); },
      [](WorkloadConfig& c) { c.diurnal_amplitude += 0.1; },
      [](WorkloadConfig& c) { c.arrival_quantum = hours(1.0); },
      [](WorkloadConfig& c) { c.max_job_nodes += 1; },
      [](WorkloadConfig& c) { c.runtime_weibull_shape += 0.1; },
      [](WorkloadConfig& c) { c.runtime_mean = c.runtime_mean + minutes(1.0); },
      [](WorkloadConfig& c) { c.runtime_min = c.runtime_min + minutes(1.0); },
      [](WorkloadConfig& c) { c.runtime_max = c.runtime_max + minutes(1.0); },
      [](WorkloadConfig& c) { c.walltime_factor_sigma += 0.1; },
      [](WorkloadConfig& c) { c.over_allocation_mean += 0.1; },
      [](WorkloadConfig& c) { c.malleable_fraction += 0.1; },
      [](WorkloadConfig& c) { c.moldable_fraction += 0.1; },
      [](WorkloadConfig& c) { c.checkpointable_fraction += 0.1; },
      [](WorkloadConfig& c) { c.node_power_mean = c.node_power_mean + watts(1.0); },
      [](WorkloadConfig& c) { c.node_power_sigma = c.node_power_sigma + watts(1.0); },
      [](WorkloadConfig& c) { c.node_power_limit = c.node_power_limit + watts(1.0); },
      [](WorkloadConfig& c) { c.alpha_min += 0.01; },
      [](WorkloadConfig& c) { c.alpha_max += 0.01; },
      [](WorkloadConfig& c) { c.gamma_min += 0.01; },
      [](WorkloadConfig& c) { c.gamma_max += 0.01; },
      [](WorkloadConfig& c) { c.mpi_wait_mean += 0.01; },
      [](WorkloadConfig& c) { c.powersave_adoption += 0.1; },
      [](WorkloadConfig& c) { c.user_count += 1; },
  };
  WorkloadConfig base = base_config();
  base.job_count = 20;
  WorkloadCache cache;
  const auto first = cache.get(base, 7);
  EXPECT_NE(cache.get(base, 8).get(), first.get());  // the seed
  std::vector<const std::vector<JobSpec>*> variants;
  for (const auto& change : one_field) {
    WorkloadConfig cfg = base;
    change(cfg);
    variants.push_back(cache.get(cfg, 7).get());
    EXPECT_NE(variants.back(), first.get());
  }
  const std::size_t distinct = 2 + one_field.size();
  EXPECT_EQ(cache.size(), distinct);
  EXPECT_EQ(cache.misses(), distinct);
  EXPECT_EQ(cache.hits(), 0u);

  for (std::size_t i = 0; i < one_field.size(); ++i) {
    WorkloadConfig cfg = base;
    one_field[i](cfg);
    EXPECT_EQ(cache.get(cfg, 7).get(), variants[i]) << "field " << i;
  }
  EXPECT_EQ(cache.get(base, 7).get(), first.get());
  // -0.0 == 0.0, so the key compares them equal and must hash them equal.
  WorkloadConfig negative_zero = base;
  negative_zero.malleable_fraction = -0.0;
  EXPECT_EQ(cache.get(negative_zero, 7).get(), first.get());
  EXPECT_EQ(cache.size(), distinct);
  EXPECT_EQ(cache.misses(), distinct);
  EXPECT_EQ(cache.hits(), one_field.size() + 2);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits() + cache.misses(), 0u);
}

TEST(WorkloadCache, ConcurrentLookupsConvergeOnOnePointer) {
  WorkloadConfig cfg = base_config();
  cfg.job_count = 20;
  WorkloadCache cache;
  constexpr int kThreads = 4;
  constexpr int kSeeds = 6;
  std::vector<std::vector<const std::vector<JobSpec>*>> seen(
      kThreads, std::vector<const std::vector<JobSpec>*>(kSeeds, nullptr));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < kSeeds; ++k) {
        seen[static_cast<std::size_t>(t)][static_cast<std::size_t>(k)] =
            cache.get(cfg, static_cast<std::uint64_t>(k)).get();
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]) << "thread " << t;
  }
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kSeeds));
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::size_t>(kThreads) * kSeeds);
}

}  // namespace
}  // namespace greenhpc::hpcsim
