// Golden-determinism fixture (perf guardrail).
//
// The hashes below were recorded from the reference scenario BEFORE the
// simulator hot-path optimizations (dense slot handles, ordered position-
// bookkept erases, pow caching, cursor sampling, idle fast-forward) went
// in. The optimized engine must reproduce every run bit-for-bit: total
// energy, total carbon, makespan and each job's start/finish/energy/
// carbon feed an FNV-1a stream whose digest must match exactly. A failure
// here means an "optimization" changed simulation results. The per-tick
// accounting the digests pin (power_cap, commit_tick) is shared by the
// tick-exact reference path and the span kernel, whose zero-job form
// also covers idle gaps, so these runs guard both.
//
// Covers a fault-free FCFS run, a fault-free carbon-aware EASY run (the
// two extremes of policy complexity), a fault-injected EASY run (the
// victim-draw and requeue machinery) and a completion-dense EASY run
// (the in-span completion kernel).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "carbon/forecast.hpp"
#include "core/scenario.hpp"
#include "hpcsim/simulator.hpp"
#include "sched/carbon_aware.hpp"
#include "sched/easy_backfill.hpp"
#include "sched/fcfs.hpp"

namespace greenhpc {
namespace {

/// FNV-1a over the raw bit patterns of the values fed in; byte-exact, so
/// any last-bit drift in a double changes the digest.
class ResultHasher {
 public:
  void add(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    add_bits(bits);
  }
  void add(std::int64_t v) { add_bits(static_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t digest() const { return h_; }

 private:
  void add_bits(std::uint64_t bits) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (bits >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t hash_result(const hpcsim::SimulationResult& r) {
  ResultHasher h;
  h.add(r.total_energy.joules());
  h.add(r.total_carbon.grams());
  h.add(r.idle_energy.joules());
  h.add(r.idle_carbon.grams());
  h.add(r.makespan.seconds());
  h.add(static_cast<std::int64_t>(r.completed_jobs));
  h.add(static_cast<std::int64_t>(r.walltime_kills));
  h.add(static_cast<std::int64_t>(r.budget_violations));
  h.add(static_cast<std::int64_t>(r.node_failures));
  h.add(static_cast<std::int64_t>(r.job_failures));
  h.add(static_cast<std::int64_t>(r.jobs_failed));
  h.add(r.wasted_energy.joules());
  h.add(r.wasted_carbon.grams());
  h.add(r.lost_node_seconds);
  for (const auto& j : r.jobs) {
    h.add(static_cast<std::int64_t>(j.spec.id));
    h.add(j.start.seconds());
    h.add(j.finish.seconds());
    h.add(j.energy.joules());
    h.add(j.carbon.grams());
    h.add(static_cast<std::int64_t>(j.completed ? 1 : 0));
    h.add(static_cast<std::int64_t>(j.suspend_count));
    h.add(static_cast<std::int64_t>(j.failure_count));
  }
  // The per-tick series pin tick alignment (idle and busy spans must not
  // drop or duplicate samples).
  h.add(static_cast<std::int64_t>(r.system_power.size()));
  const util::TimeSeries power = r.system_power.expand();
  const util::TimeSeries busy = r.busy_nodes.expand();
  for (double v : power.values()) h.add(v);
  for (double v : busy.values()) h.add(v);
  return h.digest();
}

/// The bench reference scenario (bench_common.hpp), duplicated here so the
/// fixture does not depend on bench headers.
core::ScenarioConfig golden_scenario() {
  core::ScenarioConfig cfg;
  cfg.cluster.nodes = 256;
  cfg.cluster.node_tdp = watts(500.0);
  cfg.cluster.node_idle = watts(110.0);
  cfg.cluster.tick = minutes(2.0);
  cfg.region = carbon::Region::Germany;
  cfg.trace_span = days(12.0);
  cfg.trace_step = minutes(15.0);
  cfg.workload.job_count = 900;
  cfg.workload.span = days(7.0);
  cfg.workload.max_job_nodes = 128;
  cfg.workload.runtime_mean = hours(3.0);
  cfg.workload.node_power_mean = watts(420.0);
  cfg.workload.node_power_limit = watts(500.0);
  cfg.workload.checkpointable_fraction = 0.5;
  cfg.seed = 2023;
  return cfg;
}

/// The bench dense scale (bench_perf.cpp dense_config), duplicated for the
/// same reason: 512 nodes, 2000 single-node jobs arriving in hourly waves
/// at a 15 s tick — the completion-bound regime the in-span completion
/// kernel resolves analytically.
core::ScenarioConfig dense_scenario() {
  core::ScenarioConfig cfg;
  cfg.cluster.nodes = 512;
  cfg.cluster.node_tdp = watts(500.0);
  cfg.cluster.node_idle = watts(110.0);
  cfg.cluster.tick = seconds(15.0);
  cfg.region = carbon::Region::Germany;
  cfg.trace_span = days(4.0);
  cfg.trace_step = minutes(15.0);
  cfg.workload.job_count = 2000;
  cfg.workload.span = days(1.5);
  cfg.workload.arrival_quantum = minutes(60.0);
  cfg.workload.max_job_nodes = 1;
  cfg.workload.runtime_mean = minutes(300.0);
  cfg.workload.runtime_max = hours(12.0);
  cfg.workload.node_power_mean = watts(420.0);
  cfg.workload.node_power_limit = watts(500.0);
  cfg.seed = 2023;
  return cfg;
}

hpcsim::SimulationResult run_dense(hpcsim::SchedulingPolicy& sched) {
  const core::ScenarioRunner runner(dense_scenario());
  hpcsim::Simulator::Config cfg;
  cfg.cluster = runner.config().cluster;
  cfg.carbon_intensity = runner.trace();
  hpcsim::Simulator sim(cfg, runner.jobs());
  return sim.run(sched);
}

hpcsim::SimulationResult run_golden(hpcsim::SchedulingPolicy& sched,
                                    bool with_faults) {
  const core::ScenarioRunner runner(golden_scenario());
  hpcsim::Simulator::Config cfg;
  cfg.cluster = runner.config().cluster;
  cfg.carbon_intensity = runner.trace();
  if (with_faults) {
    // Deterministic failure schedule across the workload span: every ~7 h
    // a small burst of nodes goes down for two hours.
    for (int k = 0; k < 24; ++k) {
      cfg.faults.events.push_back(
          {hours(3.0 + 7.0 * k), 1 + (k % 3), hours(2.0)});
    }
    cfg.faults.max_retries = 6;
    cfg.faults.backoff_base = minutes(5.0);
    cfg.faults.victim_seed = 99;
  }
  hpcsim::Simulator sim(cfg, runner.jobs());
  return sim.run(sched);
}

// Pre-optimization digests (seed engine, reference scenario, seed 2023).
constexpr std::uint64_t kGoldenFcfs = 0x75c804ab89d0e737ull;
constexpr std::uint64_t kGoldenCarbonEasy = 0x06d083d01b4c2209ull;
constexpr std::uint64_t kGoldenEasyFaults = 0x83eb17206180faa9ull;
// Dense completion-bound scale, recorded with the in-span completion
// kernel.
constexpr std::uint64_t kGoldenEasyDense = 0xf8aadb5c80df7733ull;

TEST(GoldenDeterminism, FcfsReferenceScenario) {
  sched::FcfsScheduler fcfs;
  const auto r = run_golden(fcfs, /*with_faults=*/false);
  const std::uint64_t d = hash_result(r);
  RecordProperty("digest", std::to_string(d));
  std::printf("golden fcfs digest: 0x%016llx\n",
              static_cast<unsigned long long>(d));
  EXPECT_EQ(d, kGoldenFcfs);
}

TEST(GoldenDeterminism, CarbonAwareEasyReferenceScenario) {
  sched::CarbonAwareEasyScheduler::Config cc;
  cc.max_hold = hours(24.0);
  cc.lookahead = hours(24.0);
  sched::CarbonAwareEasyScheduler ca(
      cc, std::make_shared<carbon::PersistenceForecaster>());
  const auto r = run_golden(ca, /*with_faults=*/false);
  const std::uint64_t d = hash_result(r);
  RecordProperty("digest", std::to_string(d));
  std::printf("golden carbon-easy digest: 0x%016llx\n",
              static_cast<unsigned long long>(d));
  EXPECT_EQ(d, kGoldenCarbonEasy);
}

TEST(GoldenDeterminism, EasyWithInjectedFaults) {
  sched::EasyBackfillScheduler easy;
  const auto r = run_golden(easy, /*with_faults=*/true);
  const std::uint64_t d = hash_result(r);
  RecordProperty("digest", std::to_string(d));
  std::printf("golden easy+faults digest: 0x%016llx\n",
              static_cast<unsigned long long>(d));
  EXPECT_GT(r.node_failures, 0);
  EXPECT_EQ(d, kGoldenEasyFaults);
}

// The completion-dense regime: thousands of single-node finishes resolve
// inside batch spans; the digest pins the in-span completion kernel.
TEST(GoldenDeterminism, EasyDenseCompletionScenario) {
  sched::EasyBackfillScheduler easy;
  const auto r = run_dense(easy);
  const std::uint64_t d = hash_result(r);
  RecordProperty("digest", std::to_string(d));
  std::printf("golden easy dense digest: 0x%016llx\n",
              static_cast<unsigned long long>(d));
  EXPECT_EQ(r.walltime_kills + r.completed_jobs, r.jobs.size());
  EXPECT_EQ(d, kGoldenEasyDense);
}

}  // namespace
}  // namespace greenhpc
