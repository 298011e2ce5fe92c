// Fast-path / reference-path equivalence property (perf guardrail).
//
// The simulator's one fast path — the SoA span batch kernel, with its
// check-free chunks, arrival riding and segment-hoisted intensity
// sampling, run over busy spans and, as a zero-job span, over idle gaps —
// claims to be bit-identical to the tick-exact reference loop. The golden
// fixture pins four specific runs; this test proves the claim across a
// randomized family of small scenarios: for each sampled (workload,
// scheduler, faults) combination the simulation runs twice — with
// Config::reference_mode forcing the per-tick path, and with the span
// kernel enabled (in-span completion ticks included) — and the two
// SimulationResults must match field by field, every double compared by
// bit pattern, and the intensity history the policy observed (its
// intensity_history() after the run) must match sample by sample. The
// completion-dense "waves" combos
// (hourly arrival quanta, small jobs, short tick) drive thousands of
// finishes through the in-span event tick specifically. The telemetry
// combos also compare every recorded sensor sample, which pins the
// span's per-tick path (telemetry forbids the check-free chunk). A
// second test pins how the fast path's ticks split between the per-tick
// loop, busy spans and idle spans (the obs tick counters).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "carbon/forecast.hpp"
#include "core/scenario.hpp"
#include "hpcsim/simulator.hpp"
#include "obs/metrics.hpp"
#include "resilience/checkpoint_policy.hpp"
#include "resilience/degraded_feed.hpp"
#include "sched/carbon_aware.hpp"
#include "sched/decorators.hpp"
#include "sched/easy_backfill.hpp"
#include "sched/fcfs.hpp"
#include "telemetry/sensor_store.hpp"

namespace greenhpc {
namespace {

/// Bit-pattern equality: catches last-bit drift that value comparison
/// (or -0.0 == 0.0) would miss.
::testing::AssertionResult same_bits(const char* expr_a, const char* expr_b,
                                     double a, double b) {
  std::uint64_t ba = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  if (ba == bb) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << expr_a << " and " << expr_b << " differ: " << a << " vs " << b
         << " (bits 0x" << std::hex << ba << " vs 0x" << bb << ")";
}
#define EXPECT_SAME_BITS(a, b) EXPECT_PRED_FORMAT2(same_bits, (a), (b))

/// Run-wise comparison of two per-tick series. Runs merge on bit
/// equality, so the run lists are equal iff every sample is; on a
/// mismatch the failure names the first tick whose samples differ.
void expect_same_series(const util::StepSeries& ref, const util::StepSeries& fast,
                        const char* what) {
  ASSERT_EQ(ref.size(), fast.size()) << what;
  const auto a = ref.runs();
  const auto b = fast.runs();
  std::size_t tick = 0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    EXPECT_SAME_BITS(a[i].value, b[i].value) << what << " sample " << tick;
    if (::testing::Test::HasFailure()) return;  // one divergence is enough
    const std::size_t common = std::min(a[i].count, b[i].count);
    if (a[i].count != b[i].count) {
      // At the shorter run's end the longer series still holds its run
      // value; the shorter one has moved to its next run (bit-different
      // by the merge rule, and present because the sizes match).
      const double ra = common < a[i].count ? a[i].value : a[i + 1].value;
      const double fb = common < b[i].count ? b[i].value : b[i + 1].value;
      EXPECT_SAME_BITS(ra, fb) << what << " sample " << tick + common;
      return;
    }
    tick += common;
  }
}

void expect_equivalent(const hpcsim::SimulationResult& ref,
                       const hpcsim::SimulationResult& fast) {
  EXPECT_SAME_BITS(ref.makespan.seconds(), fast.makespan.seconds());
  EXPECT_SAME_BITS(ref.total_energy.joules(), fast.total_energy.joules());
  EXPECT_SAME_BITS(ref.total_carbon.grams(), fast.total_carbon.grams());
  EXPECT_SAME_BITS(ref.idle_energy.joules(), fast.idle_energy.joules());
  EXPECT_SAME_BITS(ref.idle_carbon.grams(), fast.idle_carbon.grams());
  EXPECT_EQ(ref.completed_jobs, fast.completed_jobs);
  EXPECT_EQ(ref.walltime_kills, fast.walltime_kills);
  EXPECT_EQ(ref.budget_violations, fast.budget_violations);
  EXPECT_EQ(ref.node_failures, fast.node_failures);
  EXPECT_EQ(ref.job_failures, fast.job_failures);
  EXPECT_EQ(ref.jobs_failed, fast.jobs_failed);
  EXPECT_EQ(ref.checkpoints_taken, fast.checkpoints_taken);
  EXPECT_SAME_BITS(ref.lost_node_seconds, fast.lost_node_seconds);
  EXPECT_SAME_BITS(ref.checkpoint_node_seconds, fast.checkpoint_node_seconds);
  EXPECT_SAME_BITS(ref.wasted_energy.joules(), fast.wasted_energy.joules());
  EXPECT_SAME_BITS(ref.wasted_carbon.grams(), fast.wasted_carbon.grams());
  EXPECT_EQ(ref.carbon_blind, fast.carbon_blind);

  ASSERT_EQ(ref.jobs.size(), fast.jobs.size());
  for (std::size_t i = 0; i < ref.jobs.size(); ++i) {
    const auto& rj = ref.jobs[i];
    const auto& fj = fast.jobs[i];
    ASSERT_EQ(rj.spec.id, fj.spec.id);
    EXPECT_EQ(rj.completed, fj.completed) << "job " << rj.spec.id;
    EXPECT_EQ(rj.killed, fj.killed) << "job " << rj.spec.id;
    EXPECT_EQ(rj.failed, fj.failed) << "job " << rj.spec.id;
    EXPECT_EQ(rj.suspend_count, fj.suspend_count) << "job " << rj.spec.id;
    EXPECT_EQ(rj.checkpoint_count, fj.checkpoint_count) << "job " << rj.spec.id;
    EXPECT_EQ(rj.failure_count, fj.failure_count) << "job " << rj.spec.id;
    EXPECT_SAME_BITS(rj.start.seconds(), fj.start.seconds())
        << "job " << rj.spec.id;
    EXPECT_SAME_BITS(rj.finish.seconds(), fj.finish.seconds())
        << "job " << rj.spec.id;
    EXPECT_SAME_BITS(rj.energy.joules(), fj.energy.joules())
        << "job " << rj.spec.id;
    EXPECT_SAME_BITS(rj.carbon.grams(), fj.carbon.grams())
        << "job " << rj.spec.id;
    if (::testing::Test::HasFailure()) return;
  }

  // The per-tick series pin tick alignment: the fast paths must neither
  // drop, duplicate nor perturb a single sample.
  expect_same_series(ref.system_power, fast.system_power, "system_power");
  expect_same_series(ref.power_budget, fast.power_budget, "power_budget");
  expect_same_series(ref.carbon_intensity, fast.carbon_intensity,
                     "carbon_intensity");
  expect_same_series(ref.busy_nodes, fast.busy_nodes, "busy_nodes");
  expect_same_series(ref.tick_energy, fast.tick_energy, "tick_energy");
}

/// The observed-intensity history the policy read, sample by sample.
void expect_same_history(const util::TimeSeries& ref, const util::TimeSeries& fast) {
  ASSERT_EQ(ref.size(), fast.size()) << "intensity_history";
  EXPECT_SAME_BITS(ref.start().seconds(), fast.start().seconds()) << "intensity_history";
  EXPECT_SAME_BITS(ref.step().seconds(), fast.step().seconds()) << "intensity_history";
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_SAME_BITS(ref.values()[i], fast.values()[i]) << "intensity_history sample " << i;
    if (::testing::Test::HasFailure()) return;  // one divergence is enough
  }
}

struct Combo {
  const char* scheduler;  // fcfs | easy | carbon-easy | easy+ydckpt | ckpt-dec
  std::uint64_t seed;
  int nodes;
  int jobs;
  double span_days;  // dense (short) vs sparse (long, exercises idle-ff)
  bool faults;
  // Completion-dense regime: hourly arrival waves of small short jobs at
  // a fine tick, so spans resolve many finishes via the in-span event
  // tick (releases, record emission, survivor compaction) rather than
  // integrating quietly to the horizon.
  bool waves = false;
  // Carbon-easy variations: the grid the trace comes from, the
  // forecaster, and a degraded intensity feed (outage share of the run).
  carbon::Region region = carbon::Region::Germany;
  carbon::IntensityKind kind = carbon::IntensityKind::Average;
  bool harmonic = false;
  double feed_outage = 0.0;
  // Off-grid trace: a trace step that is not a multiple of the tick, and
  // (when trace_days > 0) a simulator trace cut short of the workload so
  // the last idle gaps run past its end.
  double trace_step_min = 15.0;
  double trace_days = 0.0;
  // Record the system sensors in both runs and compare them sample by
  // sample; a sink forces the span kernel off its check-free chunk.
  bool telemetry = false;
};

// gtest prints a parameter into its ctest name; without this it would dump
// the struct's bytes, including the scheduler pointer and padding, which
// differ from build to build.
void PrintTo(const Combo& c, std::ostream* os) {
  *os << c.scheduler << " seed=" << c.seed << " nodes=" << c.nodes
      << " jobs=" << c.jobs << " span_days=" << c.span_days
      << " faults=" << c.faults << " waves=" << c.waves
      << " region=" << carbon::traits(c.region).code << " kind="
      << (c.kind == carbon::IntensityKind::Marginal ? "marginal" : "average")
      << " harmonic=" << c.harmonic << " feed_outage=" << c.feed_outage;
  if (c.trace_step_min != 15.0 || c.trace_days > 0.0) {
    *os << " trace_step_min=" << c.trace_step_min << " trace_days=" << c.trace_days;
  }
  if (c.telemetry) *os << " telemetry=1";
}

std::unique_ptr<hpcsim::SchedulingPolicy> make_scheduler(const std::string& name,
                                                         bool harmonic = false) {
  if (name == "fcfs") return std::make_unique<sched::FcfsScheduler>();
  if (name == "easy") return std::make_unique<sched::EasyBackfillScheduler>();
  if (name == "carbon-easy") {
    sched::CarbonAwareEasyScheduler::Config cc;
    cc.max_hold = hours(6.0);
    cc.lookahead = hours(6.0);
    std::shared_ptr<const carbon::Forecaster> forecaster;
    if (harmonic) {
      forecaster = std::make_shared<carbon::HarmonicForecaster>(days(1.0));
    } else {
      forecaster = std::make_shared<carbon::PersistenceForecaster>();
    }
    return std::make_unique<sched::CarbonAwareEasyScheduler>(cc, std::move(forecaster));
  }
  if (name == "ckpt-dec") {
    sched::CheckpointDecorator::Config dc;
    return std::make_unique<sched::CheckpointDecorator>(
        dc, std::make_unique<sched::EasyBackfillScheduler>());
  }
  GREENHPC_REQUIRE(false, "unknown scheduler in equivalence combo");
  return nullptr;
}

/// One run's result and the intensity history its policy observed.
struct Run {
  hpcsim::SimulationResult result;
  util::TimeSeries history;
};

Run run_once(const Combo& combo, bool reference_mode,
             telemetry::SensorStore* sensors = nullptr) {
  core::ScenarioConfig sc;
  sc.cluster.nodes = combo.nodes;
  sc.cluster.node_tdp = watts(500.0);
  sc.cluster.node_idle = watts(110.0);
  sc.cluster.tick = combo.waves ? seconds(30.0) : minutes(2.0);
  sc.region = combo.region;
  sc.intensity_kind = combo.kind;
  sc.trace_span = days(combo.span_days + 4.0);
  sc.trace_step = minutes(combo.trace_step_min);
  sc.workload.job_count = combo.jobs;
  sc.workload.span = days(combo.span_days);
  sc.workload.max_job_nodes = combo.waves ? 2 : combo.nodes / 2;
  sc.workload.runtime_mean = hours(2.0);
  sc.workload.node_power_mean = watts(420.0);
  sc.workload.node_power_limit = watts(500.0);
  sc.workload.checkpointable_fraction = 0.5;
  sc.workload.moldable_fraction = 0.2;
  if (combo.waves) sc.workload.arrival_quantum = hours(1.0);
  sc.seed = combo.seed;
  const core::ScenarioRunner runner(sc);

  hpcsim::Simulator::Config cfg;
  cfg.cluster = runner.config().cluster;
  cfg.carbon_intensity = runner.trace();
  if (combo.trace_days > 0.0) {
    const util::TimeSeries& full = runner.trace();
    const auto n = static_cast<std::size_t>(days(combo.trace_days).seconds() /
                                            full.step().seconds());
    cfg.carbon_intensity = util::TimeSeries(
        full.start(), full.step(),
        std::vector<double>(full.values().begin(), full.values().begin() + n));
  }
  cfg.reference_mode = reference_mode;
  cfg.telemetry = sensors;
  if (combo.faults) {
    for (int k = 0; k < 10; ++k) {
      cfg.faults.events.push_back(
          {hours(2.0 + 5.0 * k), 1 + (k % 2), minutes(90.0)});
    }
    cfg.faults.max_retries = 4;
    cfg.faults.backoff_base = minutes(5.0);
    cfg.faults.victim_seed = combo.seed ^ 0x5eedu;
  }

  std::unique_ptr<resilience::DegradedFeed> feed;
  if (combo.feed_outage > 0.0) {
    resilience::DegradedFeedConfig fc;
    fc.outage_fraction = combo.feed_outage;
    fc.mean_outage = hours(3.0);  // past the 2 h staleness horizon
    fc.seed = combo.seed;
    feed = std::make_unique<resilience::DegradedFeed>(fc, sc.trace_span);
    cfg.feed = feed.get();
  }

  std::unique_ptr<hpcsim::SchedulingPolicy> sched;
  std::unique_ptr<hpcsim::SchedulingPolicy> inner;
  if (std::string(combo.scheduler) == "easy+ydckpt") {
    inner = make_scheduler("easy");
    resilience::CheckpointPolicyConfig cp;
    cp.node_mtbf = hours(400.0);
    sched = std::make_unique<resilience::PeriodicCheckpointPolicy>(*inner, cp);
  } else {
    sched = make_scheduler(combo.scheduler, combo.harmonic);
  }

  hpcsim::Simulator sim(cfg, runner.jobs());
  hpcsim::SimulationResult result = sim.run(*sched);
  return {std::move(result), sim.intensity_history()};
}

class FastPathEquivalence : public ::testing::TestWithParam<Combo> {};

/// Sensor-by-sensor comparison: the same sensor names, and per sensor
/// the same sample times and values, by bit pattern.
void expect_same_sensors(const telemetry::SensorStore& ref,
                         const telemetry::SensorStore& fast) {
  ASSERT_EQ(ref.names(), fast.names());
  for (const std::string& name : ref.names()) {
    const auto& a = ref.find(name)->samples();
    const auto& b = fast.find(name)->samples();
    ASSERT_EQ(a.size(), b.size()) << name;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_SAME_BITS(a[i].time.seconds(), b[i].time.seconds()) << name << " sample " << i;
      EXPECT_SAME_BITS(a[i].value, b[i].value) << name << " sample " << i;
      if (::testing::Test::HasFailure()) return;  // one divergence is enough
    }
  }
}

TEST_P(FastPathEquivalence, ReferenceAndFastPathsMatchBitForBit) {
  const Combo& combo = GetParam();
  telemetry::SensorStore ref_sensors;
  telemetry::SensorStore fast_sensors;
  const auto ref = run_once(combo, /*reference_mode=*/true,
                            combo.telemetry ? &ref_sensors : nullptr);
  const auto fast = run_once(combo, /*reference_mode=*/false,
                             combo.telemetry ? &fast_sensors : nullptr);
  EXPECT_GT(ref.result.completed_jobs, 0);
  expect_equivalent(ref.result, fast.result);
  expect_same_history(ref.history, fast.history);
  if (combo.telemetry) {
    EXPECT_GT(ref_sensors.size(), 0u);
    expect_same_sensors(ref_sensors, fast_sensors);
  }
}

std::string combo_name(const ::testing::TestParamInfo<Combo>& info) {
  std::string s = info.param.scheduler;
  for (char& c : s) {
    if (c == '-' || c == '+') c = '_';
  }
  s += info.param.faults ? "_faults" : "_clean";
  s += info.param.waves ? "_waves"
                        : (info.param.span_days < 1.0 ? "_dense" : "_sparse");
  if (info.param.region != carbon::Region::Germany ||
      info.param.kind != carbon::IntensityKind::Average) {
    s += "_" + std::string(carbon::traits(info.param.region).code);
    s += info.param.kind == carbon::IntensityKind::Marginal ? "_marginal" : "_average";
  }
  if (info.param.harmonic) s += "_harmonic";
  if (info.param.feed_outage > 0.0) s += "_degraded_feed";
  if (info.param.trace_days > 0.0) s += "_offgrid_trace";
  if (info.param.telemetry) s += "_telemetry";
  s += "_s" + std::to_string(info.param.seed);
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    Randomized, FastPathEquivalence,
    ::testing::Values(
        // Dense arrivals: spans ride over arrivals (FCFS) or break on them.
        Combo{"fcfs", 11, 32, 90, 0.5, false},
        Combo{"fcfs", 12, 48, 140, 0.5, true},
        Combo{"easy", 21, 32, 90, 0.5, false},
        Combo{"easy", 22, 48, 140, 0.5, true},
        Combo{"carbon-easy", 31, 32, 90, 0.5, false},
        Combo{"carbon-easy", 32, 48, 120, 0.5, true},
        // Sparse arrivals: idle gaps exercise fast-forward + span restarts.
        Combo{"fcfs", 41, 16, 30, 4.0, false},
        Combo{"easy", 42, 16, 30, 4.0, true},
        Combo{"carbon-easy", 43, 16, 30, 4.0, false},
        // Checkpoint layers bound the span horizon from the policy side.
        Combo{"easy+ydckpt", 51, 32, 80, 0.5, false},
        Combo{"easy+ydckpt", 52, 16, 40, 4.0, true},
        Combo{"ckpt-dec", 61, 32, 80, 0.5, false},
        // Completion-dense waves: hourly arrival quanta of small short
        // jobs at a 30 s tick — spans resolve runs of finishes through
        // the in-span event tick (release + quiescent_over_release
        // attestation + arrival-riding re-ask on every release).
        Combo{"fcfs", 71, 64, 260, 0.5, false, true},
        Combo{"easy", 72, 64, 260, 0.5, true, true},
        Combo{"carbon-easy", 73, 48, 200, 0.5, false, true},
        Combo{"easy+ydckpt", 74, 48, 180, 0.5, false, true},
        // Carbon-easy attests a span horizon (intensity segment, green
        // threshold rank distance, forecast stability, hold budget,
        // EASY). Hold-heavy marginal grids, a 1-day run whose 3-day
        // threshold window never fills, and the two opt-outs: a
        // degraded feed and a forecaster without a stability hook.
        Combo{"carbon-easy", 81, 32, 120, 2.0, false, false, carbon::Region::Poland,
              carbon::IntensityKind::Marginal},
        Combo{"carbon-easy", 82, 32, 120, 2.0, true, false, carbon::Region::Germany,
              carbon::IntensityKind::Marginal},
        Combo{"carbon-easy", 83, 24, 60, 1.0, false},
        Combo{"carbon-easy", 84, 32, 100, 2.0, false, false, carbon::Region::Germany,
              carbon::IntensityKind::Average, false, 0.3},
        Combo{"carbon-easy", 85, 24, 60, 1.0, false, false, carbon::Region::Germany,
              carbon::IntensityKind::Average, true},
        // A degraded feed over long idle gaps: the policy-observed history
        // of the idle spans must hold the feed's values, not the trace's.
        // FCFS never reads it, so only the history comparison can tell.
        Combo{"carbon-easy", 86, 16, 30, 4.0, false, false, carbon::Region::Germany,
              carbon::IntensityKind::Average, false, 0.3},
        Combo{"fcfs", 87, 16, 30, 4.0, false, false, carbon::Region::Germany,
              carbon::IntensityKind::Average, false, 0.3},
        // Run-length idle fast-forward: a 7-minute trace step on a 2-minute
        // tick, so idle gaps cross segments mid-tick, and a 2.5-day trace
        // under a 4-day workload, so the last gaps idle past the trace end.
        Combo{"fcfs", 91, 16, 30, 4.0, false, false, carbon::Region::Germany,
              carbon::IntensityKind::Average, false, 0.0, 7.0, 2.5},
        Combo{"easy", 92, 16, 30, 4.0, true, false, carbon::Region::France,
              carbon::IntensityKind::Marginal, false, 0.0, 7.0, 2.5},
        // Telemetry on: idle gaps and busy spans take the span's per-tick
        // path, whose sensor samples must match the reference run's —
        // with faults (the nodes-down sensor), with a degraded feed over
        // an off-grid trace that ends early (the observed-intensity and
        // staleness sensors), and through completion waves (the in-span
        // event tick's samples).
        Combo{"easy", 101, 16, 30, 4.0, true, false, carbon::Region::Germany,
              carbon::IntensityKind::Average, false, 0.0, 15.0, 0.0, true},
        Combo{"carbon-easy", 102, 16, 30, 4.0, false, false, carbon::Region::Germany,
              carbon::IntensityKind::Average, false, 0.3, 7.0, 2.5, true},
        Combo{"fcfs", 103, 64, 260, 0.5, false, true, carbon::Region::Germany,
              carbon::IntensityKind::Average, false, 0.0, 15.0, 0.0, true}),
    combo_name);

// How the fast path's ticks split: every simulated tick is counted once,
// as a per-tick loop tick (sim.ticks), a busy-span tick (sim.span_ticks)
// or an idle-span tick (sim.fast_forward_ticks). The sweep ledger
// divides by the sum of the three, so each count is pinned here; under
// reference_mode only sim.ticks moves.
struct TickCounts {
  std::uint64_t ticks = 0;
  std::uint64_t span_ticks = 0;
  std::uint64_t idle_ticks = 0;
};

TickCounts read_tick_counters() {
  obs::Registry& reg = obs::Registry::global();
  return {reg.counter("sim.ticks").value(), reg.counter("sim.span_ticks").value(),
          reg.counter("sim.fast_forward_ticks").value()};
}

TickCounts tick_deltas(const Combo& combo, bool reference_mode, std::size_t* total) {
  const TickCounts before = read_tick_counters();
  const Run run = run_once(combo, reference_mode);
  const TickCounts after = read_tick_counters();
  *total = run.result.tick_energy.size();
  return {after.ticks - before.ticks, after.span_ticks - before.span_ticks,
          after.idle_ticks - before.idle_ticks};
}

void expect_tick_partition(const Combo& combo, const TickCounts& pinned) {
  std::size_t total = 0;
  const TickCounts fast = tick_deltas(combo, /*reference_mode=*/false, &total);
  EXPECT_EQ(fast.ticks + fast.span_ticks + fast.idle_ticks, total);
  EXPECT_EQ(fast.ticks, pinned.ticks);
  EXPECT_EQ(fast.span_ticks, pinned.span_ticks);
  EXPECT_EQ(fast.idle_ticks, pinned.idle_ticks);

  std::size_t ref_total = 0;
  const TickCounts ref = tick_deltas(combo, /*reference_mode=*/true, &ref_total);
  EXPECT_EQ(ref_total, total);
  EXPECT_EQ(ref.ticks, ref_total);
  EXPECT_EQ(ref.span_ticks, 0u);
  EXPECT_EQ(ref.idle_ticks, 0u);
}

TEST(FastPathTickPartition, SparseScenarioCountsIdleSpansAsFastForwardTicks) {
  expect_tick_partition(Combo{"fcfs", 41, 16, 30, 4.0, false}, {59, 1188, 1602});
}

TEST(FastPathTickPartition, DenseScenarioCountsEveryTickOnce) {
  expect_tick_partition(Combo{"easy", 22, 48, 140, 0.5, true},
                        {303, 1621, 6});
}

}  // namespace
}  // namespace greenhpc
