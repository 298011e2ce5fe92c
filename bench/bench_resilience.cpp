// EXP-RESILIENCE — fault injection and graceful degradation.
//
// Three sweeps:
//   A. node MTBF x checkpoint discipline: Young/Daly periodic
//      checkpointing must recover goodput that scratch restarts destroy
//      on unreliable hardware (and show its carbon cost: wasted vs
//      overhead emissions);
//   B. carbon-feed outage fraction: carbon-aware EASY must keep beating
//      FCFS on job carbon under a degraded feed by holding the last known
//      value and falling back to carbon-blind past its staleness horizon;
//   C. a site blackout in a DE/FR/PL federation: dispatch routes around
//      the dark site and jobs caught by it are recovered.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "telemetry/sensor_store.hpp"
#include "util/parallel.hpp"
#include "carbon/forecast.hpp"
#include "carbon/grid_model.hpp"
#include "core/federation.hpp"
#include "hpcsim/simulator.hpp"
#include "hpcsim/workload.hpp"
#include "resilience/checkpoint_policy.hpp"
#include "resilience/degraded_feed.hpp"
#include "resilience/fault_model.hpp"
#include "sched/carbon_aware.hpp"
#include "sched/easy_backfill.hpp"
#include "sched/fcfs.hpp"

namespace {

using namespace greenhpc;

hpcsim::ClusterConfig bench_cluster(int nodes) {
  hpcsim::ClusterConfig c;
  c.nodes = nodes;
  c.node_tdp = watts(500.0);
  c.node_idle = watts(110.0);
  c.tick = minutes(2.0);
  return c;
}

std::vector<hpcsim::JobSpec> bench_jobs(double checkpointable_fraction,
                                        std::uint64_t seed,
                                        Duration runtime_mean = hours(2.0)) {
  hpcsim::WorkloadConfig wl;
  wl.job_count = 180;
  wl.span = days(3.0);
  wl.max_job_nodes = 16;
  wl.runtime_mean = runtime_mean;
  wl.runtime_max = hours(10.0);
  wl.node_power_mean = watts(420.0);
  wl.checkpointable_fraction = checkpointable_fraction;
  return hpcsim::WorkloadGenerator(wl, seed).generate();
}

}  // namespace

int main() {
  using namespace greenhpc;

  // ---------------------------------------------------------------- A
  // MTBF x checkpoint discipline on a 64-node cluster, all jobs
  // checkpointable, generous retry budget so goodput (not abandonment)
  // carries the comparison.
  const double mtbf_hours[4] = {0.0, 72.0, 24.0, 8.0};  // 0 = perfect
  util::Table ta({"node MTBF", "ckpt", "goodput[%]", "lost[node-h]",
                  "wasted[kg]", "ckpt-share[%]", "failed", "makespan[d]"});
  double goodput_no_ckpt_8h = 0.0;
  double goodput_yd_8h = 0.0;
  // The 4x2 grid runs as one parallel sweep over preallocated slots
  // (every point is an independent simulation); rows are emitted serially
  // afterwards in sweep order.
  std::vector<hpcsim::SimulationResult> a_results(8);
  util::parallel_for_chunked(8, 1, [&](std::size_t i) {
    const double mtbf_h = mtbf_hours[i / 2];
    const bool with_ckpt = i % 2 == 1;
    hpcsim::Simulator::Config cfg;
    cfg.cluster = bench_cluster(64);
    cfg.carbon_intensity =
        carbon::GridModel(carbon::Region::Germany, 11)
            .generate(seconds(0.0), days(30.0), minutes(15.0));
    if (mtbf_h > 0.0) {
      resilience::FaultModelConfig fm;
      fm.nodes = 64;
      // Cover any plausible makespan: no clean tail that would let
      // scratch-restart jobs finish on perfect late-run hardware.
      fm.horizon = days(120.0);
      fm.node_mtbf = hours(mtbf_h);
      fm.mean_repair = hours(1.0);
      fm.seed = 2024;
      // Generous retry budget: the sweep compares goodput (work kept vs
      // work burnt), not abandonment rates.
      cfg.faults = resilience::FaultModel(fm).injection(/*max_retries=*/30,
                                                        minutes(5.0));
      cfg.faults.max_backoff = hours(2.0);
    }
    hpcsim::Simulator sim(cfg, bench_jobs(1.0, 7, hours(3.0)));

    sched::EasyBackfillScheduler easy;
    resilience::CheckpointPolicyConfig cp;
    cp.node_mtbf = hours(mtbf_h > 0.0 ? mtbf_h : 1e6);
    resilience::PeriodicCheckpointPolicy ydckpt(easy, cp);
    hpcsim::SchedulingPolicy& sched =
        with_ckpt ? static_cast<hpcsim::SchedulingPolicy&>(ydckpt)
                  : static_cast<hpcsim::SchedulingPolicy&>(easy);
    a_results[i] = sim.run(sched);
  });
  for (std::size_t i = 0; i < a_results.size(); ++i) {
    const double mtbf_h = mtbf_hours[i / 2];
    const bool with_ckpt = i % 2 == 1;
    const auto& r = a_results[i];
    const double goodput = 100.0 * r.goodput_fraction();
    if (mtbf_h == 8.0 && !with_ckpt) goodput_no_ckpt_8h = goodput;
    if (mtbf_h == 8.0 && with_ckpt) goodput_yd_8h = goodput;
    ta.add_row({mtbf_h > 0.0 ? util::Table::fmt(mtbf_h, 0) + " h" : "inf",
                with_ckpt ? "young-daly" : "none",
                util::Table::fmt(goodput, 1),
                util::Table::fmt(r.lost_node_hours(), 0),
                util::Table::fmt(r.wasted_carbon.kilograms(), 1),
                util::Table::fmt(100.0 * r.checkpoint_overhead_share(), 1),
                std::to_string(r.jobs_failed),
                util::Table::fmt(r.makespan.days(), 2)});
  }
  std::printf("%s\n",
              ta.str("A. Node MTBF x checkpointing (64 nodes, EASY, "
                     "100% checkpointable, 30 retries)").c_str());

  // ---------------------------------------------------------------- B
  // Carbon-feed outages: FCFS vs carbon-aware EASY (persistence
  // forecaster, 2 h staleness horizon) in the volatile UK grid.
  const auto uk_trace = carbon::GridModel(carbon::Region::UnitedKingdom, 3)
                            .generate(seconds(0.0), days(14.0), minutes(15.0));
  util::Table tb({"feed outage", "scheduler", "job carbon[t]", "wait[h]",
                  "max staleness[h]", "done"});
  double fcfs_carbon_025 = 0.0;
  double ca_carbon_025 = 0.0;
  const double outages[3] = {0.0, 0.25, 0.5};
  struct BPoint {
    hpcsim::SimulationResult result;
    double max_staleness_h = 0.0;
  };
  std::vector<BPoint> b_results(6);
  util::parallel_for_chunked(6, 1, [&](std::size_t i) {
    const double outage = outages[i / 2];
    const bool carbon_aware = i % 2 == 1;
    resilience::DegradedFeedConfig fc;
    fc.outage_fraction = outage;
    fc.mean_outage = hours(3.0);
    fc.seed = 5;
    resilience::DegradedFeed feed(fc, days(14.0));

    hpcsim::Simulator::Config cfg;
    cfg.cluster = bench_cluster(64);
    cfg.carbon_intensity = uk_trace;
    if (outage > 0.0) cfg.feed = &feed;
    telemetry::SensorStore sensors;
    cfg.telemetry = &sensors;
    hpcsim::Simulator sim(cfg, bench_jobs(0.0, 13));

    std::unique_ptr<hpcsim::SchedulingPolicy> sched;
    if (carbon_aware) {
      sched::CarbonAwareEasyScheduler::Config cc;
      cc.max_hold = hours(24.0);
      cc.lookahead = hours(24.0);
      sched = std::make_unique<sched::CarbonAwareEasyScheduler>(
          cc, std::make_shared<carbon::PersistenceForecaster>());
    } else {
      sched = std::make_unique<sched::FcfsScheduler>();
    }
    b_results[i].result = sim.run(*sched);

    if (const auto* s = sensors.find("system.ci_staleness")) {
      for (const auto& sample : s->samples()) {
        b_results[i].max_staleness_h =
            std::max(b_results[i].max_staleness_h, sample.value / 3600.0);
      }
    }
  });
  for (std::size_t i = 0; i < b_results.size(); ++i) {
    const double outage = outages[i / 2];
    const bool carbon_aware = i % 2 == 1;
    const auto& r = b_results[i].result;
    Carbon job_carbon;
    for (const auto& j : r.jobs) job_carbon += j.carbon;
    if (outage == 0.25 && !carbon_aware) fcfs_carbon_025 = job_carbon.tonnes();
    if (outage == 0.25 && carbon_aware) ca_carbon_025 = job_carbon.tonnes();
    tb.add_row({util::Table::fmt(100.0 * outage, 0) + "%",
                carbon_aware ? "carbon-easy(persist)" : "fcfs",
                util::Table::fmt(job_carbon.tonnes(), 3),
                util::Table::fmt(r.mean_wait_hours(), 2),
                util::Table::fmt(b_results[i].max_staleness_h, 1),
                std::to_string(r.completed_jobs)});
  }
  std::printf("%s\n",
              tb.str("B. Carbon-feed outages (64 nodes, UK grid; hold then "
                     "carbon-blind past 2 h staleness)").c_str());

  // ---------------------------------------------------------------- C
  // Federation blackout: France (the greenest grid) goes dark for 12 h.
  core::Federation::Config fed_cfg;
  for (auto [name, region] :
       {std::pair{"garching", carbon::Region::Germany},
        std::pair{"lyon", carbon::Region::France},
        std::pair{"krakow", carbon::Region::Poland}}) {
    core::SiteSpec site;
    site.name = name;
    site.cluster = bench_cluster(64);
    site.region = region;
    fed_cfg.sites.push_back(site);
  }
  fed_cfg.trace_span = days(14.0);
  fed_cfg.seed = 17;
  core::Federation fed_healthy(fed_cfg);
  fed_cfg.outages.push_back({1, days(1.0), hours(12.0)});
  core::Federation fed_dark(fed_cfg);

  hpcsim::WorkloadConfig fwl;
  fwl.job_count = 300;
  fwl.span = days(3.0);
  fwl.max_job_nodes = 16;
  fwl.runtime_mean = hours(2.0);
  const auto fed_jobs = hpcsim::WorkloadGenerator(fwl, 29).generate();
  const auto easy_factory = [] {
    return std::make_unique<sched::EasyBackfillScheduler>();
  };

  util::Table tc({"federation", "done", "job carbon[t]", "to lyon",
                  "job kills", "lost[node-h]"});
  core::FederationResult fr_healthy =
      fed_healthy.run(fed_jobs, core::DispatchPolicy::GreenestNow, easy_factory);
  core::FederationResult fr_dark =
      fed_dark.run(fed_jobs, core::DispatchPolicy::GreenestNow, easy_factory);
  for (const auto* fr : {&fr_healthy, &fr_dark}) {
    tc.add_row({fr == &fr_healthy ? "healthy" : "lyon dark 12 h",
                std::to_string(fr->completed),
                util::Table::fmt(fr->job_carbon.tonnes(), 2),
                std::to_string(fr->jobs_per_site[1]),
                std::to_string(fr->job_failures),
                util::Table::fmt(fr->lost_node_hours, 0)});
  }
  std::printf("%s\n",
              tc.str("C. Site blackout (greenest-now dispatch, EASY per site)")
                  .c_str());

  std::printf("Resilience claim checks:\n");
  std::printf(
      "  Young/Daly recovers >= 2x goodput of no-checkpoint at 8 h MTBF -> %s "
      "(%.1f%% vs %.1f%%)\n",
      goodput_yd_8h >= 2.0 * goodput_no_ckpt_8h ? "CONFIRMED" : "NOT REPRODUCED",
      goodput_yd_8h, goodput_no_ckpt_8h);
  std::printf(
      "  carbon-easy beats FCFS on job carbon under 25%% feed outage -> %s "
      "(%.3f t vs %.3f t, %.1f%% less)\n",
      ca_carbon_025 < fcfs_carbon_025 ? "CONFIRMED" : "NOT REPRODUCED",
      ca_carbon_025, fcfs_carbon_025,
      100.0 * (1.0 - ca_carbon_025 / fcfs_carbon_025));
  std::printf(
      "  federation recovers every job through a 12 h greenest-site blackout "
      "-> %s (%d/%d)\n",
      fr_dark.completed == static_cast<int>(fed_jobs.size()) ? "CONFIRMED"
                                                             : "NOT REPRODUCED",
      fr_dark.completed, static_cast<int>(fed_jobs.size()));
  return 0;
}
