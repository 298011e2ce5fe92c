#include "sched/easy_backfill.hpp"

#include <gtest/gtest.h>

#include "hpcsim/simulator.hpp"
#include "hpcsim/workload.hpp"
#include "sched/fcfs.hpp"
#include "testing/helpers.hpp"

namespace greenhpc::sched {
namespace {

using greenhpc::testing::constant_trace;
using greenhpc::testing::rigid_job;
using greenhpc::testing::small_cluster;
using hpcsim::Simulator;

Simulator::Config cfg(int nodes) {
  Simulator::Config c;
  c.cluster = small_cluster(nodes);
  c.carbon_intensity = constant_trace(200.0, days(3.0));
  return c;
}

TEST(Reservation, ImmediateWhenFits) {
  const auto r = compute_reservation(hours(1.0), 8, 4, {});
  EXPECT_EQ(r.shadow, hours(1.0));
  EXPECT_EQ(r.spare, 4);
}

TEST(Reservation, WaitsForReleases) {
  std::vector<ReleaseEvent> releases = {{hours(2.0), 4}, {hours(3.0), 4}};
  const auto r = compute_reservation(hours(1.0), 2, 8, releases);
  EXPECT_EQ(r.shadow, hours(3.0));
  EXPECT_EQ(r.spare, 2);  // 2 + 4 + 4 - 8
}

TEST(Reservation, NeverFitsGoesFarFuture) {
  const auto r = compute_reservation(hours(1.0), 2, 100, {});
  EXPECT_GT(r.shadow, days(1000.0));
}

TEST(Easy, BackfillsAroundBlockedHead) {
  // 8 nodes. Job1 takes 6 for 2h. Job2 (head) needs 8 -> reserved at t=2h.
  // Job3 needs 2 nodes for 1h -> fits now AND ends before the shadow.
  std::vector<hpcsim::JobSpec> jobs = {
      rigid_job(1, seconds(0.0), 6, hours(2.0)),
      rigid_job(2, minutes(1.0), 8, hours(1.0)),
      rigid_job(3, minutes(2.0), 2, hours(1.0)),
  };
  // walltime = 1.5x runtime from the helper; job3 walltime = 1.5h < 2h shadow.
  Simulator sim(cfg(8), jobs);
  EasyBackfillScheduler sched;
  const auto result = sim.run(sched);
  // Job 3 backfills: starts within minutes, long before job 2.
  EXPECT_LT(result.jobs[2].start.hours(), 0.2);
  EXPECT_GE(result.jobs[1].start.hours(), 1.9);
}

TEST(Easy, BackfillMustNotDelayReservation) {
  // Job3's walltime exceeds the shadow and it would steal reserved nodes,
  // so it must NOT backfill.
  std::vector<hpcsim::JobSpec> jobs = {
      rigid_job(1, seconds(0.0), 6, hours(2.0)),
      rigid_job(2, minutes(1.0), 8, hours(1.0)),
      rigid_job(3, minutes(2.0), 2, hours(4.0)),  // walltime 6h > shadow
  };
  Simulator sim(cfg(8), jobs);
  EasyBackfillScheduler sched;
  const auto result = sim.run(sched);
  EXPECT_GE(result.jobs[2].start, result.jobs[1].start);
}

TEST(Easy, BackfillIntoSpareNodesAllowedEvenIfLong) {
  // Shadow needs 6 of 8 nodes -> 2 spare. A long 2-node job may backfill
  // into the spare set without delaying the reservation.
  std::vector<hpcsim::JobSpec> jobs = {
      rigid_job(1, seconds(0.0), 6, hours(2.0)),
      rigid_job(2, minutes(1.0), 6, hours(1.0)),  // head: reserved at t=2h, spare=2
      rigid_job(3, minutes(2.0), 2, hours(5.0)),  // long but fits in spare
  };
  Simulator sim(cfg(8), jobs);
  EasyBackfillScheduler sched;
  const auto result = sim.run(sched);
  EXPECT_LT(result.jobs[2].start.hours(), 0.2);
  // Head still starts on time.
  EXPECT_LT(result.jobs[1].start.hours(), 2.2);
}

TEST(Easy, ImprovesUtilizationOverFcfs) {
  // Mixed workload: EASY should complete the same jobs no later, with
  // equal or better mean wait.
  std::vector<hpcsim::JobSpec> jobs;
  int id = 0;
  for (int i = 0; i < 30; ++i) {
    jobs.push_back(rigid_job(++id, minutes(i * 11.0), 1 + (i * 3) % 8,
                             minutes(40.0 + (i * 17) % 120)));
  }
  Simulator sim_f(cfg(8), jobs);
  FcfsScheduler fcfs;
  const auto rf = sim_f.run(fcfs);
  Simulator sim_e(cfg(8), jobs);
  EasyBackfillScheduler easy;
  const auto re = sim_e.run(easy);
  EXPECT_EQ(rf.completed_jobs, 30);
  EXPECT_EQ(re.completed_jobs, 30);
  EXPECT_LE(re.mean_wait_hours(), rf.mean_wait_hours() + 1e-9);
}

TEST(Easy, ProjectedReleasesSortedAndWalltimeBased) {
  std::vector<hpcsim::JobSpec> jobs = {
      rigid_job(1, seconds(0.0), 2, hours(3.0)),
      rigid_job(2, seconds(0.0), 3, hours(1.0)),
  };
  Simulator sim(cfg(8), jobs);
  class Inspect final : public hpcsim::SchedulingPolicy {
   public:
    std::vector<ReleaseEvent> seen;
    void on_tick(hpcsim::SimulationView& view) override {
      const std::vector<hpcsim::JobId> pending = view.pending_jobs();
      for (hpcsim::JobId id : pending) {
        (void)view.start(id, view.job_table().nodes_requested[view.slot_of(id)]);
      }
      if (view.now() == minutes(5.0)) seen = ReleaseCache().get(view);
    }
    std::string name() const override { return "inspect"; }
  };
  Inspect sched;
  (void)sim.run(sched);
  ASSERT_EQ(sched.seen.size(), 2u);
  EXPECT_LE(sched.seen[0].time, sched.seen[1].time);
  // Walltime = 1.5x runtime in the helper: job2 releases at 1.5h.
  EXPECT_NEAR(sched.seen[0].time.hours(), 1.5, 0.01);
  EXPECT_EQ(sched.seen[0].nodes, 3);
}

/// Runs EASY and, at every tick, checks that a long-lived ReleaseCache
/// (possibly shared with earlier simulations) returns what a fresh one
/// projects.
class CompareCaches final : public hpcsim::SchedulingPolicy {
 public:
  explicit CompareCaches(ReleaseCache& cache) : cache_(cache) {}
  int overrun_ticks = 0;
  void on_tick(hpcsim::SimulationView& view) override {
    const hpcsim::JobTable& t = view.job_table();
    for (const hpcsim::JobId id : view.running_jobs()) {
      const std::size_t i = view.slot_of(id);
      if (seconds(t.start_s[i]) + seconds(t.walltime_s[i]) <= view.now()) {
        ++overrun_ticks;
        break;
      }
    }
    if (!::testing::Test::HasFailure()) {  // one divergence is enough
      const std::vector<ReleaseEvent> fresh = ReleaseCache().get(view);
      const std::vector<ReleaseEvent>& reused = cache_.get(view);
      const double now_s = view.now().seconds();
      EXPECT_EQ(reused.size(), fresh.size()) << "at " << now_s << " s";
      for (std::size_t k = 0; k < fresh.size() && k < reused.size(); ++k) {
        EXPECT_EQ(reused[k].time.seconds(), fresh[k].time.seconds()) << "at " << now_s << " s";
        EXPECT_EQ(reused[k].nodes, fresh[k].nodes) << "at " << now_s << " s";
      }
    }
    easy_.on_tick(view);
  }
  std::string name() const override { return "compare-caches"; }

 private:
  ReleaseCache& cache_;
  EasyBackfillScheduler easy_;
};

/// A faulted EASY scenario: kills, requeues and restarts change the
/// running set, and on a few ticks a running job has reached its
/// walltime-projected end (an overrun: its projected release slides with
/// the clock, so a cache must not reuse across it).
hpcsim::SimulationResult run_compared(ReleaseCache& cache, std::uint64_t seed,
                                     int* overrun_ticks = nullptr) {
  hpcsim::WorkloadConfig wl;
  wl.job_count = 120;
  wl.span = days(1.0);
  wl.max_job_nodes = 16;
  wl.runtime_mean = hours(2.0);
  wl.checkpointable_fraction = 0.5;
  Simulator::Config c = cfg(32);
  for (int k = 0; k < 10; ++k) {
    c.faults.events.push_back({hours(2.0 + 3.0 * k), 1 + (k % 2), minutes(90.0)});
  }
  c.faults.max_retries = 4;
  c.faults.backoff_base = minutes(5.0);
  Simulator sim(c, hpcsim::WorkloadGenerator(wl, seed).generate());
  CompareCaches sched(cache);
  auto result = sim.run(sched);
  if (overrun_ticks != nullptr) *overrun_ticks = sched.overrun_ticks;
  return result;
}

TEST(Easy, ReleaseCacheReuseEqualsAFreshProjection) {
  ReleaseCache cache;
  int overrun_ticks = 0;
  const auto result = run_compared(cache, 13, &overrun_ticks);
  EXPECT_GT(result.job_failures, 0);
  EXPECT_GT(overrun_ticks, 0);
}

TEST(Easy, ReleaseCacheSharedByTwoSimulationsEqualsAFreshProjection) {
  // Each new Simulator starts a new running-set history, and a cache that
  // outlives one run must not take the next run's state for the old one:
  // the first lookup of every run after the first meets a cache that holds
  // the previous run's last schedule.
  ReleaseCache cache;
  run_compared(cache, 13);
  run_compared(cache, 13);
  run_compared(cache, 14);
}

TEST(Easy, EverySimulationCountsItsRunningEpochsAboveEveryEarlierOnes) {
  // The property the shared cache relies on: a running_epoch() value of
  // one simulation is never taken by a later one, however many
  // running-set changes the earlier one made.
  const std::vector<hpcsim::JobSpec> jobs = {
      rigid_job(1, seconds(0.0), 2, hours(1.0)),
      rigid_job(2, seconds(0.0), 3, hours(2.0)),
      rigid_job(3, minutes(30.0), 4, hours(1.0)),
  };
  Simulator first(cfg(8), jobs);
  const std::uint64_t first_start = first.running_epoch();
  EasyBackfillScheduler easy;
  (void)first.run(easy);
  EXPECT_GT(first.running_epoch(), first_start);  // starts and ends counted
  const Simulator second(cfg(8), jobs);
  EXPECT_GT(second.running_epoch(), first.running_epoch());
}

}  // namespace
}  // namespace greenhpc::sched
