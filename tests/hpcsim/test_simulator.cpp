#include "hpcsim/simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "testing/helpers.hpp"
#include "util/error.hpp"

namespace greenhpc::hpcsim {
namespace {

using greenhpc::testing::constant_trace;
using greenhpc::testing::GreedyScheduler;
using greenhpc::testing::malleable_job;
using greenhpc::testing::rigid_job;
using greenhpc::testing::small_cluster;
using greenhpc::testing::square_trace;

Simulator::Config sim_config(const ClusterConfig& cluster, util::TimeSeries trace) {
  Simulator::Config cfg;
  cfg.cluster = cluster;
  cfg.carbon_intensity = std::move(trace);
  return cfg;
}

TEST(Simulator, SingleJobRunsToCompletion) {
  const auto cluster = small_cluster(4);
  Simulator sim(sim_config(cluster, constant_trace(200.0, days(1.0))),
                {rigid_job(1, seconds(0.0), 2, hours(1.0))});
  GreedyScheduler sched;
  const auto result = sim.run(sched);
  ASSERT_EQ(result.jobs.size(), 1u);
  const JobRecord& j = result.jobs[0];
  EXPECT_TRUE(j.completed);
  EXPECT_EQ(j.start, seconds(0.0));
  EXPECT_NEAR(j.finish.hours(), 1.0, 0.02);
  EXPECT_EQ(result.completed_jobs, 1);
}

TEST(Simulator, JobEnergyMatchesAnalyticValue) {
  const auto cluster = small_cluster(4);
  Simulator sim(sim_config(cluster, constant_trace(500.0, days(1.0))),
                {rigid_job(1, seconds(0.0), 2, hours(2.0))});
  GreedyScheduler sched;
  const auto result = sim.run(sched);
  // 2 nodes x 400 W x 2 h = 1.6 kWh.
  EXPECT_NEAR(result.jobs[0].energy.kilowatt_hours(), 1.6, 0.01);
  // Carbon: 1.6 kWh * 500 g/kWh = 800 g.
  EXPECT_NEAR(result.jobs[0].carbon.grams(), 800.0, 10.0);
}

TEST(Simulator, IdleNodesDrawIdlePower) {
  const auto cluster = small_cluster(4);
  Simulator sim(sim_config(cluster, constant_trace(100.0, days(1.0))),
                {rigid_job(1, seconds(0.0), 2, hours(1.0))});
  GreedyScheduler sched;
  const auto result = sim.run(sched);
  // 2 idle nodes x 100 W x 1 h = 0.2 kWh idle energy.
  EXPECT_NEAR(result.idle_energy.kilowatt_hours(), 0.2, 0.01);
  // Total = job 0.8 kWh + idle 0.2 kWh.
  EXPECT_NEAR(result.total_energy.kilowatt_hours(), 1.0, 0.02);
}

TEST(Simulator, JobsQueueWhenClusterFull) {
  const auto cluster = small_cluster(4);
  std::vector<JobSpec> jobs = {rigid_job(1, seconds(0.0), 4, hours(1.0)),
                               rigid_job(2, seconds(0.0), 4, hours(1.0))};
  Simulator sim(sim_config(cluster, constant_trace(100.0, days(1.0))), jobs);
  GreedyScheduler sched;
  const auto result = sim.run(sched);
  EXPECT_TRUE(result.jobs[0].completed);
  EXPECT_TRUE(result.jobs[1].completed);
  // Second job must wait for the first to finish.
  EXPECT_GE(result.jobs[1].start.hours(), 0.99);
  EXPECT_NEAR(result.makespan.hours(), 2.0, 0.05);
}

TEST(Simulator, ArrivalTimesRespected) {
  const auto cluster = small_cluster(8);
  Simulator sim(sim_config(cluster, constant_trace(100.0, days(1.0))),
                {rigid_job(1, hours(5.0), 2, hours(1.0))});
  GreedyScheduler sched;
  const auto result = sim.run(sched);
  EXPECT_GE(result.jobs[0].start, hours(5.0));
  EXPECT_LT(result.jobs[0].start, hours(5.0) + minutes(2.0));
}

TEST(Simulator, PowerBudgetCapsSlowJobsDown) {
  const auto cluster = small_cluster(4);
  // One job using all 4 nodes at 400 W; budget forces a 50% cap on the
  // busy draw above baseline.
  class HalfBudget final : public PowerBudgetPolicy {
   public:
    Power system_budget(Duration, double, const ClusterConfig&) override {
      // Busy full draw is 1600 W; grant 800 W (cap = 0.5 exactly, since
      // baseline is zero: all nodes busy).
      return watts(0.5 * 4 * 400.0);
    }
    std::string name() const override { return "half"; }
  };
  JobSpec j = rigid_job(1, seconds(0.0), 4, hours(1.0));
  j.power_alpha = 0.5;
  Simulator sim(sim_config(cluster, constant_trace(100.0, days(2.0))), {j});
  GreedyScheduler sched;
  HalfBudget budget;
  const auto result = sim.run(sched, &budget);
  // Speed = 0.5^0.5 = 0.707 -> runtime = 1/0.707 = 1.414 h.
  EXPECT_NEAR(result.jobs[0].finish.hours(), 1.414, 0.05);
  // Energy: 4 x 400 x 0.5 W for 1.414 h = 1.13 kWh.
  EXPECT_NEAR(result.jobs[0].energy.kilowatt_hours(), 1.131, 0.05);
}

TEST(Simulator, CapFloorViolationIsCounted) {
  const auto cluster = small_cluster(4);  // min_cap_fraction = 0.5
  class TinyBudget final : public PowerBudgetPolicy {
   public:
    Power system_budget(Duration, double, const ClusterConfig&) override {
      return watts(100.0);  // impossible
    }
    std::string name() const override { return "tiny"; }
  };
  Simulator sim(sim_config(cluster, constant_trace(100.0, days(2.0))),
                {rigid_job(1, seconds(0.0), 4, hours(1.0))});
  GreedyScheduler sched;
  TinyBudget budget;
  const auto result = sim.run(sched, &budget);
  EXPECT_GT(result.budget_violations, 0);
  EXPECT_TRUE(result.jobs[0].completed);  // still progresses at floor cap
}

TEST(Simulator, OverAllocatedNodesDrawIdleAndDontSpeedUp) {
  const auto cluster = small_cluster(8);
  JobSpec lean = rigid_job(1, seconds(0.0), 2, hours(1.0));
  JobSpec fat = rigid_job(2, seconds(0.0), 4, hours(1.0));
  fat.nodes_used = 2;  // requests 4, uses 2
  Simulator sim_lean(sim_config(cluster, constant_trace(100.0, days(1.0))), {lean});
  Simulator sim_fat(sim_config(cluster, constant_trace(100.0, days(1.0))), {fat});
  GreedyScheduler s1, s2;
  const auto r_lean = sim_lean.run(s1);
  const auto r_fat = sim_fat.run(s2);
  // Same completion time (extra nodes don't help).
  EXPECT_NEAR(r_lean.jobs[0].finish.hours(), r_fat.jobs[0].finish.hours(), 0.02);
  // Fat job burns extra idle power: 2 * 100 W * 1 h = 0.2 kWh more.
  EXPECT_NEAR(r_fat.jobs[0].energy.kilowatt_hours() -
                  r_lean.jobs[0].energy.kilowatt_hours(),
              0.2, 0.02);
}

TEST(Simulator, MalleableScalingChangesSpeed) {
  const auto cluster = small_cluster(8);
  JobSpec j = malleable_job(1, seconds(0.0), 4, hours(2.0), 8);
  j.scale_gamma = 1.0;  // perfect scaling for a clean check

  // Scheduler that starts the job on 8 nodes (double the natural size).
  class StartBig final : public SchedulingPolicy {
   public:
    void on_tick(SimulationView& view) override {
      const std::vector<JobId> pending = view.pending_jobs();
      for (JobId id : pending) (void)view.start(id, 8);
    }
    std::string name() const override { return "start-big"; }
  };
  Simulator sim(sim_config(cluster, constant_trace(100.0, days(1.0))), {j});
  StartBig sched;
  const auto result = sim.run(sched);
  // Twice the nodes, gamma=1: half the runtime.
  EXPECT_NEAR(result.jobs[0].finish.hours(), 1.0, 0.05);
}

TEST(Simulator, SuspendResumeRoundTrip) {
  const auto cluster = small_cluster(4);
  JobSpec j = rigid_job(1, seconds(0.0), 2, hours(2.0));
  j.checkpointable = true;
  j.checkpoint_overhead = minutes(6.0);

  // Suspend at t=30min, resume at t=90min.
  class SuspendResume final : public SchedulingPolicy {
   public:
    void on_tick(SimulationView& view) override {
      const std::vector<JobId> pending = view.pending_jobs();
      for (JobId id : pending) (void)view.start(id, 2);
      if (view.now() >= minutes(30.0) && view.now() < minutes(31.0)) {
        const std::vector<JobId> running = view.running_jobs();
        for (JobId id : running) (void)view.suspend(id);
      }
      if (view.now() >= minutes(90.0)) {
        const std::vector<JobId> suspended = view.suspended_jobs();
        for (JobId id : suspended) (void)view.resume(id, 2);
      }
    }
    std::string name() const override { return "susres"; }
  };
  Simulator sim(sim_config(cluster, constant_trace(100.0, days(2.0))), {j});
  SuspendResume sched;
  const auto result = sim.run(sched);
  ASSERT_TRUE(result.jobs[0].completed);
  EXPECT_EQ(result.jobs[0].suspend_count, 1);
  // Did 30 min of 120; lost 6 min to checkpoint -> 96 min left after
  // resuming at t=90 -> finish ~ 186 min.
  EXPECT_NEAR(result.jobs[0].finish.minutes(), 186.0, 3.0);
}

TEST(Simulator, SuspendRequiresCheckpointable) {
  const auto cluster = small_cluster(4);
  JobSpec j = rigid_job(1, seconds(0.0), 2, hours(1.0));  // not checkpointable
  class TrySuspend final : public SchedulingPolicy {
   public:
    bool suspend_failed = false;
    void on_tick(SimulationView& view) override {
      const std::vector<JobId> pending = view.pending_jobs();
      for (JobId id : pending) (void)view.start(id, 2);
      const std::vector<JobId> running = view.running_jobs();
      for (JobId id : running) {
        if (!view.suspend(id)) suspend_failed = true;
      }
    }
    std::string name() const override { return "try"; }
  };
  Simulator sim(sim_config(cluster, constant_trace(100.0, days(1.0))), {j});
  TrySuspend sched;
  (void)sim.run(sched);
  EXPECT_TRUE(sched.suspend_failed);
}

TEST(Simulator, SuspendRejectsPendingAndDoubleSuspend) {
  const auto cluster = small_cluster(4);
  JobSpec j = rigid_job(1, seconds(0.0), 2, hours(1.0));
  j.checkpointable = true;
  j.checkpoint_overhead = minutes(2.0);

  class Probe final : public SchedulingPolicy {
   public:
    bool pending_suspend_rejected = false;
    bool first_suspend_ok = false;
    bool double_suspend_rejected = false;
    void on_tick(SimulationView& view) override {
      const std::vector<JobId> pending = view.pending_jobs();
      for (JobId id : pending) {
        // A job that never started has nothing to suspend.
        if (!view.suspend(id)) pending_suspend_rejected = true;
        (void)view.start(id, 2);
      }
      if (view.now() >= minutes(20.0) && !first_suspend_ok) {
        const std::vector<JobId> running = view.running_jobs();
        for (JobId id : running) {
          first_suspend_ok = view.suspend(id);
          if (!view.suspend(id)) double_suspend_rejected = true;
        }
      }
      if (view.now() >= minutes(40.0)) {
        const std::vector<JobId> suspended = view.suspended_jobs();
        for (JobId id : suspended) (void)view.resume(id, 2);
      }
    }
    std::string name() const override { return "probe"; }
  };
  Simulator sim(sim_config(cluster, constant_trace(100.0, days(1.0))), {j});
  Probe sched;
  const auto result = sim.run(sched);
  ASSERT_TRUE(result.jobs[0].completed);
  EXPECT_TRUE(sched.pending_suspend_rejected);
  EXPECT_TRUE(sched.first_suspend_ok);
  EXPECT_TRUE(sched.double_suspend_rejected);
  EXPECT_EQ(result.jobs[0].suspend_count, 1);
}

TEST(Simulator, StartValidationRules) {
  const auto cluster = small_cluster(4);
  JobSpec rigid = rigid_job(1, seconds(0.0), 2, hours(1.0));
  class Probing final : public SchedulingPolicy {
   public:
    bool wrong_size_rejected = false;
    bool too_big_rejected = false;
    void on_tick(SimulationView& view) override {
      const std::vector<JobId> pending = view.pending_jobs();
      for (JobId id : pending) {
        if (!view.start(id, 3)) wrong_size_rejected = true;   // rigid: != requested
        if (!view.start(id, 99)) too_big_rejected = true;     // > cluster
        (void)view.start(id, 2);
      }
    }
    std::string name() const override { return "probing"; }
  };
  Simulator sim(sim_config(cluster, constant_trace(100.0, days(1.0))), {rigid});
  Probing sched;
  const auto result = sim.run(sched);
  EXPECT_TRUE(sched.wrong_size_rejected);
  EXPECT_TRUE(sched.too_big_rejected);
  EXPECT_TRUE(result.jobs[0].completed);
}

TEST(Simulator, ReshapeOnlyForMalleable) {
  const auto cluster = small_cluster(8);
  JobSpec m = malleable_job(1, seconds(0.0), 4, hours(1.0), 8);
  JobSpec r = rigid_job(2, seconds(0.0), 2, hours(1.0));
  class Reshaper final : public SchedulingPolicy {
   public:
    bool rigid_reshape_rejected = false;
    bool malleable_reshaped = false;
    void on_tick(SimulationView& view) override {
      const JobTable& t = view.job_table();
      const std::vector<JobId> pending = view.pending_jobs();
      for (JobId id : pending) {
        const std::size_t i = view.slot_of(id);
        (void)view.start(id, t.kind[i] == JobKind::Rigid ? t.nodes_requested[i]
                                                         : t.nodes_used[i]);
      }
      for (JobId id : view.running_jobs()) {
        const std::size_t i = view.slot_of(id);
        if (t.kind[i] == JobKind::Rigid) {
          if (!view.reshape(id, 4)) rigid_reshape_rejected = true;
        } else if (t.alloc_nodes[i] == 4) {
          malleable_reshaped = view.reshape(id, 6);
        }
      }
    }
    std::string name() const override { return "reshaper"; }
  };
  Simulator sim(sim_config(cluster, constant_trace(100.0, days(1.0))), {m, r});
  Reshaper sched;
  (void)sim.run(sched);
  EXPECT_TRUE(sched.rigid_reshape_rejected);
  EXPECT_TRUE(sched.malleable_reshaped);
}

TEST(Simulator, CarbonFollowsIntensityTrace) {
  const auto cluster = small_cluster(2);
  // Square wave: 100 for first 6 h, 300 for next 6 h, etc.
  const auto trace = square_trace(100.0, 300.0, hours(6.0), days(2.0));
  // Job running entirely in the first (green) half-period...
  JobSpec early = rigid_job(1, seconds(0.0), 1, hours(5.0));
  // ...and one starting in the dirty half.
  JobSpec late = rigid_job(2, hours(6.0), 1, hours(5.0));
  Simulator sim(sim_config(cluster, trace), {early, late});
  GreedyScheduler sched;
  const auto result = sim.run(sched);
  // Same energy, 3x the carbon for the late job.
  EXPECT_NEAR(result.jobs[1].carbon.grams() / result.jobs[0].carbon.grams(), 3.0, 0.1);
}

/// Records intensity_constant_until() at every tick and starts whatever
/// is pending.
class IntensityProbe final : public SchedulingPolicy {
 public:
  void on_tick(SimulationView& view) override {
    seen.push_back({view.now(), view.intensity_constant_until()});
    const std::vector<JobId> pending = view.pending_jobs();
    for (const JobId id : pending) (void)view.start(id, 1);
  }
  [[nodiscard]] std::string name() const override { return "probe"; }
  std::vector<std::pair<Duration, Duration>> seen;
};

TEST(Simulator, IntensityConstantUntilIsTheTraceSegmentEnd) {
  // 10-minute segments and 4-minute ticks: ticks land inside segments and
  // on the boundary at 20 min. A 1 h job keeps the run going past the
  // trace's end at 30 min.
  auto cluster = small_cluster(2);
  cluster.tick = minutes(4.0);
  const util::TimeSeries trace(seconds(0.0), minutes(10.0), {100.0, 200.0, 300.0});
  Simulator sim(sim_config(cluster, trace), {rigid_job(1, seconds(0.0), 1, hours(1.0))});
  IntensityProbe probe;
  (void)sim.run(probe);
  int in_trace = 0;
  int past_end = 0;
  for (const auto& [now, until] : probe.seen) {
    if (now < trace.end()) {
      ++in_trace;
      EXPECT_EQ(until, minutes(10.0 * (std::floor(now.minutes() / 10.0) + 1.0)))
          << "at " << now.minutes() << " min";
    } else {
      ++past_end;  // the clamped last sample never changes
      EXPECT_TRUE(std::isinf(until.seconds())) << "at " << now.minutes() << " min";
    }
  }
  EXPECT_EQ(in_trace, 8);  // 0, 4, ..., 28 min; 20 min is a boundary
  EXPECT_GT(past_end, 0);
}

TEST(Simulator, IntensityConstantUntilPromisesNothingWithAFeed) {
  class PassThrough final : public IntensityFeed {
   public:
    std::optional<double> observe(Duration, double true_value) override {
      return true_value;
    }
  } feed;
  auto cfg = sim_config(small_cluster(2), constant_trace(150.0, days(1.0)));
  cfg.feed = &feed;
  Simulator sim(cfg, {rigid_job(1, seconds(0.0), 1, hours(1.0))});
  IntensityProbe probe;
  (void)sim.run(probe);
  ASSERT_FALSE(probe.seen.empty());
  for (const auto& [now, until] : probe.seen) EXPECT_EQ(until, now);
}

TEST(Simulator, TelemetrySinkReceivesSystemSensors) {
  const auto cluster = small_cluster(4);
  telemetry::SensorStore store;
  auto cfg = sim_config(cluster, constant_trace(250.0, days(1.0)));
  cfg.telemetry = &store;
  Simulator sim(cfg, {rigid_job(1, seconds(0.0), 2, hours(1.0))});
  GreedyScheduler sched;
  const auto result = sim.run(sched);
  ASSERT_NE(store.find("system.power"), nullptr);
  ASSERT_NE(store.find("system.ci"), nullptr);
  // Telemetry energy must agree with the result totals.
  const Energy e = store.energy("system.power", seconds(0.0), result.makespan);
  EXPECT_NEAR(e.kilowatt_hours(), result.total_energy.kilowatt_hours(), 0.05);
}

TEST(Simulator, RunTwiceThrows) {
  const auto cluster = small_cluster(2);
  Simulator sim(sim_config(cluster, constant_trace(100.0, days(1.0))),
                {rigid_job(1, seconds(0.0), 1, hours(1.0))});
  GreedyScheduler sched;
  (void)sim.run(sched);
  EXPECT_THROW((void)sim.run(sched), greenhpc::InvalidArgument);
}

TEST(Simulator, RejectsOversizedJobs) {
  const auto cluster = small_cluster(2);
  EXPECT_THROW(Simulator(sim_config(cluster, constant_trace(100.0, days(1.0))),
                         {rigid_job(1, seconds(0.0), 4, hours(1.0))}),
               greenhpc::InvalidArgument);
}

TEST(Simulator, RejectsDuplicateIds) {
  const auto cluster = small_cluster(4);
  EXPECT_THROW(Simulator(sim_config(cluster, constant_trace(100.0, days(1.0))),
                         {rigid_job(1, seconds(0.0), 1, hours(1.0)),
                          rigid_job(1, seconds(0.0), 1, hours(1.0))}),
               greenhpc::InvalidArgument);
}

TEST(Simulator, MaxTimeStopsLivelockedPolicies) {
  const auto cluster = small_cluster(4);
  class DoNothing final : public SchedulingPolicy {
   public:
    void on_tick(SimulationView&) override {}
    std::string name() const override { return "noop"; }
  };
  auto cfg = sim_config(cluster, constant_trace(100.0, days(1.0)));
  cfg.max_time = days(1.0);
  Simulator sim(cfg, {rigid_job(1, seconds(0.0), 2, hours(1.0))});
  DoNothing sched;
  const auto result = sim.run(sched);
  EXPECT_FALSE(result.jobs[0].completed);
  EXPECT_EQ(result.completed_jobs, 0);
}

TEST(Simulator, DeterministicAcrossRuns) {
  const auto cluster = small_cluster(8);
  std::vector<JobSpec> jobs;
  for (int i = 1; i <= 20; ++i) {
    jobs.push_back(rigid_job(i, minutes(i * 7.0), 1 + i % 4, minutes(30.0 + i)));
  }
  auto run_once = [&] {
    Simulator sim(sim_config(cluster, constant_trace(150.0, days(3.0))), jobs);
    GreedyScheduler sched;
    return sim.run(sched);
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].finish, b.jobs[i].finish);
    EXPECT_DOUBLE_EQ(a.jobs[i].carbon.grams(), b.jobs[i].carbon.grams());
  }
  EXPECT_DOUBLE_EQ(a.total_carbon.grams(), b.total_carbon.grams());
}

}  // namespace
}  // namespace greenhpc::hpcsim
