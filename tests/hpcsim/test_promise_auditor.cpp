// Promise auditor for the carbon-aware scheduler's quiescence horizon.
//
// The span kernel trusts SchedulingPolicy::quiescent_until: at an
// unchanged discrete state, on_tick takes no action at any tick before
// the returned horizon. It also trusts quiescent_over_release: after a
// change that is only a release (jobs left the running list and freed
// their nodes), a true answer keeps that no-action promise up to the
// original horizon. The equivalence test checks that trust through
// whole-run results on a few fixed combos; this test checks the promises
// themselves, tick by tick, on a seeded family of scenarios. A decorator
// runs carbon-easy under reference_mode (on_tick at every tick), asks for
// the horizon exactly where the engine would — at the tick after an
// on_tick that took no action, with the discrete state unchanged — and
// then asserts that every later on_tick before the horizon, at that same
// discrete state or one the policy re-confirmed after a release, again
// takes no action. A broken promise is reported as the first tick where
// on_tick acted, the tick that made the promise and the horizon. Each
// scenario also runs with the fast paths on, and the two runs must agree
// bit for bit.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "carbon/forecast.hpp"
#include "core/scenario.hpp"
#include "hpcsim/simulator.hpp"
#include "obs/metrics.hpp"
#include "sched/carbon_aware.hpp"
#include "util/rng.hpp"

namespace greenhpc {
namespace {

/// What the engine's epoch check guards: queue membership and order,
/// free and down nodes.
struct DiscreteState {
  std::vector<hpcsim::JobId> pending;
  std::vector<hpcsim::JobId> running;
  std::vector<hpcsim::JobId> suspended;
  int free_nodes = 0;
  int nodes_down = 0;
  bool operator==(const DiscreteState&) const = default;
};

DiscreteState snapshot(const hpcsim::SimulationView& view) {
  return {view.pending_jobs(), view.running_jobs(), view.suspended_jobs(),
          view.free_nodes(), view.nodes_down()};
}

/// Whether `now` differs from `was` only by releases: some running jobs
/// left (the rest keep their order) and their nodes came back free.
bool only_releases(const DiscreteState& was, const DiscreteState& now) {
  if (now.pending != was.pending || now.suspended != was.suspended ||
      now.nodes_down != was.nodes_down || now.running.size() >= was.running.size() ||
      now.free_nodes <= was.free_nodes) {
    return false;
  }
  std::size_t j = 0;
  for (const hpcsim::JobId id : was.running) {
    if (j < now.running.size() && now.running[j] == id) ++j;
  }
  return j == now.running.size();
}

/// Test-only decorator: forwards on_tick and audits the inner policy's
/// quiescent_until promises (see the file comment).
class PromiseAuditor final : public hpcsim::SchedulingPolicy {
 public:
  struct Broken {
    Duration acted_at;
    Duration promised_at;
    Duration horizon;
  };

  explicit PromiseAuditor(std::unique_ptr<hpcsim::SchedulingPolicy> inner)
      : inner_(std::move(inner)) {}

  void on_tick(hpcsim::SimulationView& view) override {
    const DiscreteState before = snapshot(view);
    // A promise covers only the discrete state it was made at, or one the
    // policy re-confirmed after a change that is only a release (asked
    // where the engine asks: with the post-release state in view, before
    // on_tick runs at it).
    if (promised_at_ && view.now() < horizon_ && before != promised_state_ &&
        only_releases(promised_state_, before) && inner_->quiescent_over_release(view)) {
      promised_state_ = before;
      ++release_rides_;
    }
    if (promised_at_ && (before != promised_state_ || view.now() >= horizon_)) {
      promised_at_.reset();
    }
    if (!promised_at_ && last_idle_ && before == last_state_) {
      const Duration h = inner_->quiescent_until(view);
      if (h > view.now()) {
        promised_at_ = view.now();
        horizon_ = h;
        promised_state_ = before;
        ++promises_;
        if (std::isfinite(h.seconds())) ++bounded_promises_;
      }
    }
    inner_->on_tick(view);
    DiscreteState after = snapshot(view);
    const bool acted = after != before;
    if (promised_at_) {
      if (acted && !broken_) broken_ = Broken{view.now(), *promised_at_, horizon_};
      if (!acted) ++covered_ticks_;
    }
    last_idle_ = !acted;
    last_state_ = std::move(after);
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] const std::optional<Broken>& broken() const { return broken_; }
  [[nodiscard]] std::uint64_t promises() const { return promises_; }
  [[nodiscard]] std::uint64_t bounded_promises() const { return bounded_promises_; }
  [[nodiscard]] std::uint64_t covered_ticks() const { return covered_ticks_; }
  [[nodiscard]] std::uint64_t release_rides() const { return release_rides_; }

 private:
  std::unique_ptr<hpcsim::SchedulingPolicy> inner_;
  bool last_idle_ = false;
  DiscreteState last_state_;
  std::optional<Duration> promised_at_;
  Duration horizon_;
  DiscreteState promised_state_;
  std::optional<Broken> broken_;
  std::uint64_t promises_ = 0;
  std::uint64_t bounded_promises_ = 0;
  std::uint64_t covered_ticks_ = 0;
  std::uint64_t release_rides_ = 0;
};

struct Scenario {
  core::ScenarioConfig config;
  Duration max_hold;
  Duration lookahead;
  /// Backlog guard: below 2 the queue is often deep enough that the gate
  /// opens (pressured ticks), and the horizon is then EASY's alone.
  double backlog_limit = 2.0;
  /// Node failures: a requeued job keeps its first start time, so once
  /// restarted it runs past its projected end and EASY's shadow slides.
  bool faults = false;
  std::string label;
};

/// Seeded scenario family: region, average/marginal signal, cluster and
/// workload size, run length (most of them shorter than the 3-day
/// threshold window, which then never fills), tick (2 min does not
/// divide the 15-min trace step), trace step (25 min does not divide the
/// forecaster's whole-hour offsets, so forecast runs end mid-segment),
/// node failures, and the hold/lookahead and backlog-pressure knobs.
Scenario make_scenario(std::uint64_t seed) {
  util::Rng rng(seed);
  static constexpr carbon::Region kRegions[] = {
      carbon::Region::Germany, carbon::Region::France, carbon::Region::Poland,
      carbon::Region::Norway,  carbon::Region::Netherlands, carbon::Region::UnitedKingdom};
  static constexpr double kDays[] = {0.5, 1.0, 2.0, 3.5, 4.0};
  static constexpr int kNodes[] = {16, 24, 32, 64};
  static constexpr double kHoldHours[] = {4.0, 12.0};

  Scenario s;
  core::ScenarioConfig& sc = s.config;
  sc.region = kRegions[rng.uniform_int(0, 5)];
  sc.intensity_kind = rng.uniform_int(0, 1) == 0 ? carbon::IntensityKind::Average
                                                 : carbon::IntensityKind::Marginal;
  sc.cluster.nodes = kNodes[rng.uniform_int(0, 3)];
  sc.cluster.tick = rng.uniform_int(0, 1) == 0 ? minutes(1.0) : minutes(2.0);
  const double span_days = kDays[rng.uniform_int(0, 4)];
  sc.workload.span = days(span_days);
  sc.workload.job_count = static_cast<int>(rng.uniform_int(20, 40)) *
                          static_cast<int>(1.0 + span_days);
  sc.workload.max_job_nodes = sc.cluster.nodes / 2;
  sc.trace_span = days(span_days + 3.0);
  sc.trace_step = rng.uniform_int(0, 1) == 0 ? minutes(15.0) : minutes(25.0);
  sc.seed = seed;
  const double hold_h = kHoldHours[rng.uniform_int(0, 1)];
  s.max_hold = hours(hold_h);
  s.lookahead = hours(hold_h);
  s.faults = rng.uniform_int(0, 2) == 0;
  static constexpr double kBacklogLimits[] = {0.25, 0.5, 1.0, 2.0};
  s.backlog_limit = kBacklogLimits[rng.uniform_int(0, 3)];

  std::ostringstream label;
  label << "seed " << seed << " (" << carbon::traits(sc.region).code << ' '
        << (sc.intensity_kind == carbon::IntensityKind::Marginal ? "marginal" : "average")
        << ", " << sc.cluster.nodes << " nodes, " << sc.workload.job_count << " jobs, "
        << span_days << " days, tick " << sc.cluster.tick.seconds() << " s, trace step "
        << sc.trace_step.seconds() << " s, hold " << hold_h << " h, backlog limit "
        << s.backlog_limit
        << (s.faults ? ", node failures" : "") << ")";
  s.label = label.str();
  return s;
}

std::unique_ptr<hpcsim::SchedulingPolicy> carbon_easy(const Scenario& s) {
  sched::CarbonAwareEasyScheduler::Config cc;
  cc.max_hold = s.max_hold;
  cc.lookahead = s.lookahead;
  cc.backlog_pressure_limit = s.backlog_limit;
  return std::make_unique<sched::CarbonAwareEasyScheduler>(
      cc, std::make_shared<carbon::PersistenceForecaster>());
}

/// The engine configuration of a scenario (reference_mode off).
hpcsim::Simulator::Config sim_config(const Scenario& s, const core::ScenarioRunner& runner) {
  hpcsim::Simulator::Config cfg;
  cfg.cluster = runner.config().cluster;
  cfg.carbon_intensity = runner.trace_ptr();
  if (s.faults) {
    for (int k = 0; k < 12; ++k) {
      cfg.faults.events.push_back({hours(1.0 + 4.0 * k), 1 + k % 3, minutes(60.0)});
    }
    cfg.faults.max_retries = 4;
    cfg.faults.backoff_base = minutes(5.0);
    cfg.faults.victim_seed = s.config.seed;
  }
  return cfg;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Run totals and every job's start time agree bit for bit.
void expect_same_results(const hpcsim::SimulationResult& a, const hpcsim::SimulationResult& b,
                         const std::string& label) {
  EXPECT_TRUE(same_bits(a.total_carbon.grams(), b.total_carbon.grams())) << label;
  EXPECT_TRUE(same_bits(a.total_energy.joules(), b.total_energy.joules())) << label;
  EXPECT_TRUE(same_bits(a.makespan.seconds(), b.makespan.seconds())) << label;
  ASSERT_EQ(a.jobs.size(), b.jobs.size()) << label;
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_TRUE(same_bits(a.jobs[i].start.seconds(), b.jobs[i].start.seconds()))
        << label << ", job " << a.jobs[i].spec.id;
  }
}

TEST(PromiseAuditor, CarbonEasyKeepsEveryQuiescencePromise) {
  constexpr std::uint64_t kScenarios = 200;
  std::uint64_t promises = 0;
  std::uint64_t bounded = 0;
  std::uint64_t covered = 0;
  std::uint64_t rides = 0;
  obs::Counter& pressured_ticks =
      obs::Registry::global().counter("sched.carbon.pressured_ticks");
  obs::Counter& release_rides = obs::Registry::global().counter("sim.release_rides");
  const std::uint64_t pressured_before = pressured_ticks.value();
  const std::uint64_t release_rides_before = release_rides.value();
  for (std::uint64_t seed = 1; seed <= kScenarios; ++seed) {
    const Scenario s = make_scenario(seed);
    const core::ScenarioRunner runner(s.config);
    hpcsim::Simulator::Config cfg = sim_config(s, runner);
    cfg.reference_mode = true;
    PromiseAuditor auditor(carbon_easy(s));
    const hpcsim::SimulationResult ref =
        hpcsim::Simulator(cfg, runner.jobs_ptr()).run(auditor);
    if (const auto& b = auditor.broken()) {
      ADD_FAILURE() << s.label << ": on_tick acted at t=" << b->acted_at.seconds()
                    << " s, inside the horizon " << b->horizon.seconds()
                    << " s that quiescent_until promised at t=" << b->promised_at.seconds()
                    << " s";
    }
    promises += auditor.promises();
    bounded += auditor.bounded_promises();
    covered += auditor.covered_ticks();
    rides += auditor.release_rides();

    // The fast engine spans on those promises: same results, bit for bit.
    cfg.reference_mode = false;
    const auto policy = carbon_easy(s);
    const hpcsim::SimulationResult fast =
        hpcsim::Simulator(cfg, runner.jobs_ptr()).run(*policy);
    expect_same_results(ref, fast, s.label);
    if (::testing::Test::HasFailure()) return;  // one failing scenario is enough
  }
  // The audit is not vacuous: the family exercises finite horizons (the
  // carbon-gated attestations, not just "nothing pending / no free node")
  // over many ticks, promises re-confirmed after releases, and ticks
  // under backlog pressure; the fast runs ride releases too.
  EXPECT_GT(promises, kScenarios);
  EXPECT_GT(bounded, kScenarios);
  EXPECT_GT(covered, 100 * kScenarios);
  EXPECT_GT(rides, kScenarios);
  const std::uint64_t pressured = pressured_ticks.value() - pressured_before;
  EXPECT_GT(pressured, 100 * kScenarios);
  EXPECT_GT(release_rides.value() - release_rides_before, kScenarios);
  RecordProperty("promises", static_cast<int>(promises));
  RecordProperty("bounded_promises", static_cast<int>(bounded));
  RecordProperty("covered_ticks", static_cast<int>(covered));
  RecordProperty("release_rides", static_cast<int>(rides));
  RecordProperty("pressured_ticks", static_cast<int>(pressured));
}

TEST(CarbonEasyReuse, SecondSimulationMatchesAFreshInstance) {
  // One instance runs simulation A, then B. Its threshold window and
  // forecast memo then hold A's history; B must still get exactly what a
  // fresh instance gives it. Pairs cross regions, ticks and run lengths;
  // the last pair runs the same scenario twice.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs = {
      {1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}, {11, 12}, {13, 14}, {15, 16}, {17, 17}};
  for (const auto& [seed_a, seed_b] : pairs) {
    const Scenario a = make_scenario(seed_a);
    const Scenario b = make_scenario(seed_b);
    const core::ScenarioRunner runner_a(a.config);
    const core::ScenarioRunner runner_b(b.config);
    const std::string label = "A = " + a.label + ", B = " + b.label;

    const auto reused = carbon_easy(a);
    (void)hpcsim::Simulator(sim_config(a, runner_a), runner_a.jobs_ptr()).run(*reused);
    const hpcsim::SimulationResult second =
        hpcsim::Simulator(sim_config(b, runner_b), runner_b.jobs_ptr()).run(*reused);
    const auto fresh = carbon_easy(a);
    const hpcsim::SimulationResult first =
        hpcsim::Simulator(sim_config(b, runner_b), runner_b.jobs_ptr()).run(*fresh);
    expect_same_results(first, second, label);
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace greenhpc
