// Promise auditor for the carbon-aware scheduler's quiescence horizon.
//
// The span kernel trusts SchedulingPolicy::quiescent_until: at an
// unchanged discrete state, on_tick takes no action at any tick before
// the returned horizon. The equivalence test checks that trust through
// whole-run results on a few fixed combos; this test checks the promise
// itself, tick by tick, on a seeded family of scenarios. A decorator runs
// carbon-easy under reference_mode (on_tick at every tick), asks for the
// horizon exactly where the engine would — at the tick after an on_tick
// that took no action, with the discrete state unchanged — and then
// asserts that every later on_tick before the horizon, at that same
// discrete state, again takes no action. A broken promise is reported as
// the first tick where on_tick acted, the tick that made the promise and
// the horizon. Each scenario also runs with the fast paths on, and the
// two runs must agree bit for bit.

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
    // A promise covers only the discrete state it was made at.
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
};

struct Scenario {
  core::ScenarioConfig config;
  Duration max_hold;
  Duration lookahead;
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
/// node failures, and the hold/lookahead knobs.
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

  std::ostringstream label;
  label << "seed " << seed << " (" << carbon::traits(sc.region).code << ' '
        << (sc.intensity_kind == carbon::IntensityKind::Marginal ? "marginal" : "average")
        << ", " << sc.cluster.nodes << " nodes, " << sc.workload.job_count << " jobs, "
        << span_days << " days, tick " << sc.cluster.tick.seconds() << " s, trace step "
        << sc.trace_step.seconds() << " s, hold " << hold_h << " h"
        << (s.faults ? ", node failures" : "") << ")";
  s.label = label.str();
  return s;
}

std::unique_ptr<hpcsim::SchedulingPolicy> carbon_easy(const Scenario& s) {
  sched::CarbonAwareEasyScheduler::Config cc;
  cc.max_hold = s.max_hold;
  cc.lookahead = s.lookahead;
  return std::make_unique<sched::CarbonAwareEasyScheduler>(
      cc, std::make_shared<carbon::PersistenceForecaster>());
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(PromiseAuditor, CarbonEasyKeepsEveryQuiescencePromise) {
  constexpr std::uint64_t kScenarios = 200;
  std::uint64_t promises = 0;
  std::uint64_t bounded = 0;
  std::uint64_t covered = 0;
  for (std::uint64_t seed = 1; seed <= kScenarios; ++seed) {
    const Scenario s = make_scenario(seed);
    const core::ScenarioRunner runner(s.config);
    hpcsim::Simulator::Config cfg;
    cfg.cluster = runner.config().cluster;
    cfg.carbon_intensity = runner.trace_ptr();
    if (s.faults) {
      for (int k = 0; k < 12; ++k) {
        cfg.faults.events.push_back({hours(1.0 + 4.0 * k), 1 + k % 3, minutes(60.0)});
      }
      cfg.faults.max_retries = 4;
      cfg.faults.backoff_base = minutes(5.0);
      cfg.faults.victim_seed = seed;
    }

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

    // The fast engine spans on those promises: same results, bit for bit.
    cfg.reference_mode = false;
    const auto policy = carbon_easy(s);
    const hpcsim::SimulationResult fast =
        hpcsim::Simulator(cfg, runner.jobs_ptr()).run(*policy);
    EXPECT_TRUE(same_bits(ref.total_carbon.grams(), fast.total_carbon.grams())) << s.label;
    EXPECT_TRUE(same_bits(ref.total_energy.joules(), fast.total_energy.joules())) << s.label;
    EXPECT_TRUE(same_bits(ref.makespan.seconds(), fast.makespan.seconds())) << s.label;
    ASSERT_EQ(ref.jobs.size(), fast.jobs.size()) << s.label;
    for (std::size_t i = 0; i < ref.jobs.size(); ++i) {
      EXPECT_TRUE(same_bits(ref.jobs[i].start.seconds(), fast.jobs[i].start.seconds()))
          << s.label << ", job " << ref.jobs[i].spec.id;
    }
    if (::testing::Test::HasFailure()) return;  // one failing scenario is enough
  }
  // The audit is not vacuous: the family exercises finite horizons (the
  // carbon-gated attestations, not just "nothing pending / no free node")
  // over many ticks.
  EXPECT_GT(promises, kScenarios);
  EXPECT_GT(bounded, kScenarios);
  EXPECT_GT(covered, 100 * kScenarios);
  RecordProperty("promises", static_cast<int>(promises));
  RecordProperty("bounded_promises", static_cast<int>(bounded));
  RecordProperty("covered_ticks", static_cast<int>(covered));
}

}  // namespace
}  // namespace greenhpc
