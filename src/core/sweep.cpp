#include "core/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "carbon/trace_cache.hpp"
#include "core/sweep_journal.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"  // obs::fnv1a
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/fault_injector.hpp"
#include "util/rng.hpp"

namespace greenhpc::core {

namespace {

/// Append a double's exact bit pattern to a config-digest buffer.
void digest_field(std::string& buf, double v) {
  char tmp[24];
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  std::snprintf(tmp, sizeof(tmp), "%016llx;", static_cast<unsigned long long>(bits));
  buf += tmp;
}

void digest_field(std::string& buf, long long v) {
  buf += std::to_string(v);
  buf += ';';
}

std::vector<carbon::Region> resolve_regions(const SweepGrid& grid) {
  return grid.regions.empty() ? std::vector<carbon::Region>{grid.base.region}
                              : grid.regions;
}
std::vector<carbon::IntensityKind> resolve_kinds(const SweepGrid& grid) {
  return grid.intensity_kinds.empty()
             ? std::vector<carbon::IntensityKind>{grid.base.intensity_kind}
             : grid.intensity_kinds;
}
std::vector<int> resolve_nodes(const SweepGrid& grid) {
  return grid.cluster_nodes.empty() ? std::vector<int>{grid.base.cluster.nodes}
                                    : grid.cluster_nodes;
}
std::vector<int> resolve_jobs(const SweepGrid& grid) {
  return grid.job_counts.empty() ? std::vector<int>{grid.base.workload.job_count}
                                 : grid.job_counts;
}

SweepCaseMetrics metrics_of(const PolicyOutcome& out) {
  SweepCaseMetrics m;
  m.total_carbon_t = out.total_carbon_t;
  m.total_energy_mwh = out.total_energy_mwh;
  m.mean_wait_h = out.mean_wait_h;
  m.mean_bounded_slowdown = out.mean_bounded_slowdown;
  m.utilization = out.utilization;
  m.green_energy_share = out.green_energy_share;
  m.completed = static_cast<double>(out.completed);
  return m;
}

}  // namespace

void sweep_digest_metrics(std::uint64_t& h, const SweepCaseMetrics& m) {
  const double fields[] = {m.total_carbon_t,  m.total_energy_mwh, m.mean_wait_h,
                           m.mean_bounded_slowdown, m.utilization, m.green_energy_share,
                           m.completed};
  for (const double v : fields) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
}

std::uint64_t sweep_block_digest(const SweepBlock& block) {
  std::uint64_t h = kSweepDigestBasis;
  for (const SweepCaseOutcome& e : block.cases) {
    if (e.ok) sweep_digest_metrics(h, e.metrics);
  }
  return h;
}

std::size_t SweepGrid::case_count() const {
  return cell_count() * static_cast<std::size_t>(std::max(1, seed_replicas));
}

std::size_t SweepGrid::cell_count() const {
  return resolve_regions(*this).size() * resolve_kinds(*this).size() *
         resolve_nodes(*this).size() * resolve_jobs(*this).size() * policies.size();
}

std::uint64_t SweepGrid::config_digest() const {
  // Serialize everything that shapes the expanded cases — resolved axes
  // (so "empty axis" and "axis = {base value}" hash alike), policy
  // labels, replicas, and every base field the simulation reads — then
  // FNV the buffer. Doubles go in as exact bit patterns: two grids hash
  // equal iff they expand to the same simulations.
  std::string buf = "sweep-grid-v1;";
  for (const carbon::Region r : resolve_regions(*this)) {
    digest_field(buf, static_cast<long long>(r));
  }
  buf += '|';
  for (const carbon::IntensityKind k : resolve_kinds(*this)) {
    digest_field(buf, static_cast<long long>(k));
  }
  buf += '|';
  for (const int n : resolve_nodes(*this)) digest_field(buf, static_cast<long long>(n));
  buf += '|';
  for (const int n : resolve_jobs(*this)) digest_field(buf, static_cast<long long>(n));
  buf += '|';
  digest_field(buf, static_cast<long long>(seed_replicas));
  for (const SweepPolicy& p : policies) {
    buf += p.label;
    buf += ';';
  }
  buf += '|';
  digest_field(buf, static_cast<long long>(base.seed));
  digest_field(buf, static_cast<long long>(base.region));
  digest_field(buf, static_cast<long long>(base.intensity_kind));
  digest_field(buf, base.trace_span.seconds());
  digest_field(buf, base.trace_step.seconds());
  const hpcsim::ClusterConfig& c = base.cluster;
  digest_field(buf, static_cast<long long>(c.nodes));
  digest_field(buf, c.node_tdp.watts());
  digest_field(buf, c.node_idle.watts());
  digest_field(buf, c.min_cap_fraction);
  digest_field(buf, c.tick.seconds());
  digest_field(buf, static_cast<long long>(c.enforce_walltime));
  const hpcsim::WorkloadConfig& w = base.workload;
  digest_field(buf, static_cast<long long>(w.job_count));
  digest_field(buf, w.span.seconds());
  digest_field(buf, w.diurnal_amplitude);
  digest_field(buf, static_cast<long long>(w.max_job_nodes));
  digest_field(buf, w.runtime_weibull_shape);
  digest_field(buf, w.runtime_mean.seconds());
  digest_field(buf, w.runtime_min.seconds());
  digest_field(buf, w.runtime_max.seconds());
  digest_field(buf, w.walltime_factor_sigma);
  digest_field(buf, w.over_allocation_mean);
  digest_field(buf, w.malleable_fraction);
  digest_field(buf, w.moldable_fraction);
  digest_field(buf, w.checkpointable_fraction);
  digest_field(buf, w.node_power_mean.watts());
  digest_field(buf, w.node_power_sigma.watts());
  digest_field(buf, w.node_power_limit.watts());
  digest_field(buf, w.alpha_min);
  digest_field(buf, w.alpha_max);
  digest_field(buf, w.gamma_min);
  digest_field(buf, w.gamma_max);
  digest_field(buf, w.mpi_wait_mean);
  digest_field(buf, w.powersave_adoption);
  digest_field(buf, static_cast<long long>(w.user_count));
  return obs::fnv1a(buf);
}

double SweepCellStats::ci95(const util::RunningStats& s) {
  if (s.count() < 2) return 0.0;
  return 1.96 * s.sample_stddev() / std::sqrt(static_cast<double>(s.count()));
}

// ---------------------------------------------------------------------------
// SweepCaseRunner

struct SweepCaseRunner::Coords {
  std::size_t region_idx, kind_idx, nodes_idx, jobs_idx, policy_idx;
  int replica;
};

/// The schedule groups of one pricing scope. A group is claimed by its
/// first case to arrive; members arriving meanwhile wait. The leader
/// then publishes the priced outcomes of its in-scope members, each
/// taken and erased by its own case; none when its run was not
/// carbon-blind, so every later arrival simulates. A leader that throws
/// erases the group, so the next arrival leads as if it had never been
/// claimed. Pending outcomes cost one (flat, metrics) pair, 64 B, each.
class SweepCaseRunner::GroupMemo {
 public:
  enum class Claim { Lead, Priced, Simulate };
  using Entry = std::pair<std::size_t, SweepCaseMetrics>;

  /// `scope`: the cases this memo may price, sorted by start; empty =
  /// the whole grid.
  explicit GroupMemo(std::vector<SweepRange> scope) : scope_(std::move(scope)) {}

  /// Whether `flat` lies in the last range starting at or before it.
  /// Ranges never overlap in practice; if they did, a member this misses
  /// would only simulate instead of being priced.
  [[nodiscard]] bool in_scope(std::size_t flat) const {
    if (scope_.empty()) return true;
    const auto after = std::upper_bound(
        scope_.begin(), scope_.end(), flat,
        [](std::size_t f, const SweepRange& r) { return f < r.start; });
    return after != scope_.begin() && flat - std::prev(after)->start < std::prev(after)->count;
  }

  /// Lead an unclaimed group, wait out a running leader, then take the
  /// case's priced outcome into `out` if there is one.
  [[nodiscard]] Claim claim(std::size_t group, std::size_t flat, SweepCaseMetrics& out) {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] {
      const auto it = groups_.find(group);
      return it == groups_.end() || !it->second.running;
    });
    const auto [it, fresh] = groups_.try_emplace(group);
    if (fresh) return Claim::Lead;
    std::vector<Entry>& priced = it->second.priced;
    for (Entry& e : priced) {
      if (e.first != flat) continue;
      out = e.second;
      e = priced.back();
      priced.pop_back();
      if (priced.empty()) priced = {};  // free the storage
      return Claim::Priced;
    }
    return Claim::Simulate;
  }

  /// The leader's run is done: `priced` holds its members' outcomes
  /// (empty when the run was not carbon-blind or no member is in scope).
  void publish(std::size_t group, std::vector<Entry> priced) {
    {
      std::lock_guard lock(mutex_);
      Group& g = groups_[group];
      g.running = false;
      g.priced = std::move(priced);
    }
    cv_.notify_all();
  }

  /// The leader threw: unclaim the group.
  void release(std::size_t group) {
    {
      std::lock_guard lock(mutex_);
      groups_.erase(group);
    }
    cv_.notify_all();
  }

 private:
  struct Group {
    bool running = true;  ///< claimed, its leader not yet done
    std::vector<Entry> priced;
  };

  const std::vector<SweepRange> scope_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::unordered_map<std::size_t, Group> groups_;
};

SweepCaseRunner::SweepCaseRunner(const SweepGrid& grid)
    : SweepCaseRunner(grid, Options()) {}

SweepCaseRunner::~SweepCaseRunner() = default;

SweepCaseRunner::SweepCaseRunner(const SweepGrid& grid, Options opts)
    : grid_(&grid), opts_(opts) {
  GREENHPC_REQUIRE(!grid.policies.empty(), "sweep grid needs at least one policy");
  GREENHPC_REQUIRE(grid.seed_replicas >= 1, "seed_replicas must be >= 1");
  for (const auto& p : grid.policies) {
    GREENHPC_REQUIRE(static_cast<bool>(p.scheduler),
                     "sweep policy needs a scheduler factory");
  }
  regions_ = resolve_regions(grid);
  kinds_ = resolve_kinds(grid);
  nodes_ = resolve_nodes(grid);
  jobs_ = resolve_jobs(grid);
  replicas_ = static_cast<std::size_t>(grid.seed_replicas);
  n_cells_ = regions_.size() * kinds_.size() * nodes_.size() * jobs_.size() *
             grid.policies.size();
  n_cases_ = n_cells_ * replicas_;
  group_size_ = regions_.size() * kinds_.size();
  group_span_ = n_cases_ / group_size_;
  if (group_size_ > 1) memo_ = std::make_unique<GroupMemo>(std::vector<SweepRange>{});
}

SweepCaseRunner::Coords SweepCaseRunner::decode(std::size_t flat) const {
  // Replica is the innermost index, so cases of one cell are consecutive;
  // then policy, jobs, nodes, kind, region outward.
  Coords c;
  c.replica = static_cast<int>(flat % replicas_);
  std::size_t rest = flat / replicas_;
  c.policy_idx = rest % grid_->policies.size();
  rest /= grid_->policies.size();
  c.jobs_idx = rest % jobs_.size();
  rest /= jobs_.size();
  c.nodes_idx = rest % nodes_.size();
  rest /= nodes_.size();
  c.kind_idx = rest % kinds_.size();
  rest /= kinds_.size();
  c.region_idx = rest;
  return c;
}

std::string SweepCaseRunner::describe(std::size_t flat) const {
  const Coords c = decode(flat);
  return "region=" + std::string(carbon::traits(regions_[c.region_idx]).code) +
         " kind=" +
         (kinds_[c.kind_idx] == carbon::IntensityKind::Average ? "avg" : "marg") +
         " nodes=" + std::to_string(nodes_[c.nodes_idx]) +
         " jobs=" + std::to_string(jobs_[c.jobs_idx]) +
         " policy=" + grid_->policies[c.policy_idx].label +
         " replica=" + std::to_string(c.replica);
}

void SweepCaseRunner::init_result(SweepResult& result) const {
  result.cases = n_cases_;
  result.replicas = static_cast<int>(replicas_);
  result.digest = kSweepDigestBasis;
  result.cells.clear();
  result.cells.reserve(n_cells_);
  for (const carbon::Region region : regions_) {
    for (const carbon::IntensityKind kind : kinds_) {
      for (const int nodes : nodes_) {
        for (const int jobs : jobs_) {
          for (const auto& policy : grid_->policies) {
            SweepCellStats cell;
            cell.region = region;
            cell.kind = kind;
            cell.nodes = nodes;
            cell.jobs = jobs;
            cell.policy = policy.label;
            result.cells.push_back(std::move(cell));
          }
        }
      }
    }
  }
}

void SweepCaseRunner::fold(SweepResult& result, std::size_t flat,
                           const SweepCaseOutcome& e) const {
  if (!e.ok) {
    result.failed_cases.push_back(
        SweepFailedCase{flat, describe(flat), e.error, e.attempts});
    return;
  }
  const SweepCaseMetrics& m = e.metrics;
  SweepCellStats& cell = result.cells[flat / replicas_];
  cell.carbon_t.add(m.total_carbon_t);
  cell.energy_mwh.add(m.total_energy_mwh);
  cell.wait_h.add(m.mean_wait_h);
  cell.slowdown.add(m.mean_bounded_slowdown);
  cell.utilization.add(m.utilization);
  cell.green_share.add(m.green_energy_share);
  cell.completed.add(m.completed);
  sweep_digest_metrics(result.digest, m);
}

ScenarioConfig SweepCaseRunner::scenario(std::size_t flat) const {
  const Coords c = decode(flat);
  ScenarioConfig cfg = grid_->base;
  cfg.region = regions_[c.region_idx];
  cfg.intensity_kind = kinds_[c.kind_idx];
  cfg.cluster.nodes = nodes_[c.nodes_idx];
  cfg.workload.job_count = jobs_[c.jobs_idx];
  // Jobs must fit the swept cluster; clamping (rather than scaling)
  // keeps the workload key shared across node counts above the bound.
  cfg.workload.max_job_nodes = std::min(cfg.workload.max_job_nodes, cfg.cluster.nodes);
  cfg.seed = SweepEngine::replica_seed(grid_->base.seed, c.replica);
  return cfg;
}

PolicyOutcome SweepCaseRunner::simulate(std::size_t flat) const {
  // Construction resolves through the shared-asset caches: the trace
  // and job list are generated once per distinct key and shared.
  const ScenarioRunner runner(scenario(flat));
  const auto& policy = grid_->policies[decode(flat).policy_idx];
  return runner.run(policy.label, policy.scheduler, policy.power);
}

SweepCaseMetrics SweepCaseRunner::price(const PolicyOutcome& run, std::size_t flat) const {
  // The member's trace is built on the cached shape and not stored. It is
  // rebuilt for every schedule group that shares the member's seed (on
  // the tiny ledger grid, 6000 builds for 3000 distinct keys); caching
  // it would trade that repeated generation for resident memory, since
  // a priced case never simulates.
  const ScenarioConfig cfg = scenario(flat);
  const auto trace = carbon::TraceCache::global().get_uncached(
      cfg.region, cfg.intensity_kind, cfg.seed, seconds(0.0), cfg.trace_span, cfg.trace_step);
  const hpcsim::CarbonPricing priced = hpcsim::price_carbon(run.result, *trace);
  // Every other metric reads only the schedule, which is the same.
  SweepCaseMetrics m = metrics_of(run);
  m.total_carbon_t = priced.total_carbon.tonnes();
  m.green_energy_share = run.result.green_energy_share(
      ScenarioRunner::green_threshold_of(*trace), priced.carbon_intensity);
  return m;
}

SweepCaseMetrics SweepCaseRunner::lead(GroupMemo& memo, std::size_t group,
                                       std::size_t flat) const {
  PolicyOutcome run;
  std::vector<GroupMemo::Entry> priced;
  try {
    run = simulate(flat);
    if (run.result.carbon_blind) {
      for (std::size_t m = 0; m < group_size_; ++m) {
        const std::size_t member = group + m * group_span_;
        if (member != flat && memo.in_scope(member)) {
          priced.emplace_back(member, price(run, member));
        }
      }
    }
  } catch (...) {
    memo.release(group);
    throw;
  }
  static obs::Counter& priced_counter =
      obs::Registry::global().counter("sweep.cases_priced");
  priced_counter.add(priced.size());
  memo.publish(group, std::move(priced));
  return metrics_of(run);
}

SweepCaseOutcome SweepCaseRunner::run_case(std::size_t flat) const {
  return run_case(flat, memo_.get());
}

SweepCaseOutcome SweepCaseRunner::run_case(std::size_t flat, GroupMemo* memo) const {
  static obs::Counter& retries_counter =
      obs::Registry::global().counter("sweep.case_retries");
  static obs::Counter& quarantined_counter =
      obs::Registry::global().counter("sweep.cases_quarantined");

  const auto run_once = [&] {
    // Chaos hook: a poisoned flat case. In a worker process (lethal) a
    // Kill action crashes the worker exactly where a real poison case
    // would — mid-simulation, before any journaling. In the coordinator
    // (never lethal) the same spec degrades to a thrown failure, which
    // the retry/quarantine loop below contains: chaos must not be able
    // to crash the in-process degradation path. Checked before the memo,
    // so a priced case is poisoned like a simulated one.
    util::FaultHit poison;
    if (util::FaultInjector::global().match_value("case.poison", flat, poison)) {
      if (poison.action == util::FaultAction::Kill &&
          util::FaultInjector::global().lethal()) {
        std::_Exit(137);
      }
      throw util::InjectedFailure("injected poison case " +
                                  std::to_string(flat));
    }
    if (memo != nullptr) {
      const std::size_t group = flat % group_span_;
      SweepCaseMetrics m;
      switch (memo->claim(group, flat, m)) {
        case GroupMemo::Claim::Lead:
          return lead(*memo, group, flat);
        case GroupMemo::Claim::Priced:
          return m;
        case GroupMemo::Claim::Simulate:
          break;
      }
    }
    return metrics_of(simulate(flat));
  };

  // Failure isolation: one case = one simulation attempt + a capped
  // exponential backoff retry budget (the same backoff shape as the
  // resilience layer's job requeue). A case that exhausts the budget is
  // quarantined, not fatal.
  SweepCaseOutcome entry;
  for (int attempt = 0;; ++attempt) {
    entry.attempts = attempt + 1;
    try {
      entry.metrics = run_once();
      entry.ok = true;
      return entry;
    } catch (const std::exception& e) {
      entry.error = e.what();
    } catch (...) {
      entry.error = "unknown exception";
    }
    if (attempt >= opts_.case_retries) {
      entry.ok = false;
      quarantined_counter.add();
      return entry;
    }
    retries_counter.add();
    const double backoff_s =
        std::min(opts_.retry_backoff_cap_s,
                 opts_.retry_backoff_base_s * static_cast<double>(1ull << attempt));
    if (backoff_s > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff_s));
    }
  }
}

void SweepCaseRunner::fold_block(SweepResult& result, const SweepBlock& block) const {
  for (std::size_t i = 0; i < block.cases.size(); ++i) {
    fold(result, block.start + i, block.cases[i]);
  }
}

void SweepCaseRunner::run_ranges(util::ThreadPool& pool,
                                 const std::vector<SweepRange>& ranges,
                                 const std::function<void(SweepBlock&)>& commit) const {
  static obs::Counter& cases_counter = obs::Registry::global().counter("sweep.cases");
  static obs::Histogram& block_seconds = obs::Registry::global().histogram(
      "sweep.block_seconds", {1e-3, 1e-2, 0.1, 1.0, 10.0});
  using Clock = std::chrono::steady_clock;

  // The loop runs over stream positions: position k is the k-th case of
  // the concatenated ranges, and ends[r] is one past range r's last one.
  std::vector<std::size_t> ends;
  std::size_t total = 0, largest = 0;
  for (const SweepRange& r : ranges) {
    GREENHPC_REQUIRE(r.count > 0 && r.start < n_cases_ && r.count <= n_cases_ - r.start,
                     "sweep range is empty or outside the grid");
    total += r.count;
    largest = std::max(largest, r.count);
    ends.push_back(total);
  }
  const auto flat_of = [&](std::size_t k) {
    const std::size_t r = static_cast<std::size_t>(
        std::upper_bound(ends.begin(), ends.end(), k) - ends.begin());
    return ranges[r].start + (k + ranges[r].count - ends[r]);
  };

  // This call's pricing scope: its ranges, sorted by start.
  std::optional<GroupMemo> memo;
  if (memo_ != nullptr) {
    std::vector<SweepRange> scope = ranges;
    std::sort(scope.begin(), scope.end(),
              [](const SweepRange& a, const SweepRange& b) { return a.start < b.start; });
    memo.emplace(std::move(scope));
  }

  // Outcomes reach the commit side through a ring of `window` slots; no
  // case is claimed `window` or more past the commit frontier, so a slot
  // is refilled only after its previous case was taken into its block.
  struct Slot {
    SweepCaseOutcome outcome;
    Clock::time_point claimed;
  };
  const std::size_t window =
      std::min(total, std::max(2 * largest, 8 * (pool.size() + 1)));
  std::vector<Slot> ring(window);
  SweepBlock block;       // the range being assembled
  std::size_t range = 0;  // its index in `ranges`
  Clock::time_point block_claimed;

  const auto simulate = [&](std::size_t k) {
    Slot& slot = ring[k % window];
    slot.claimed = Clock::now();
    slot.outcome = run_case(flat_of(k), memo ? &*memo : nullptr);
  };
  const auto take = [&](std::size_t k) {
    Slot& slot = ring[k % window];
    if (k + ranges[range].count == ends[range]) {  // the range's first case
      block.start = ranges[range].start;
      block.cases.clear();
      block_claimed = slot.claimed;
    }
    block.cases.push_back(std::move(slot.outcome));
    if (k + 1 < ends[range]) return;
    block.digest_after = sweep_block_digest(block);
    commit(block);
    cases_counter.add(ranges[range].count);
    block_seconds.record(std::chrono::duration<double>(Clock::now() - block_claimed).count());
    ++range;
  };
  pool.parallel_for_ordered(total, window, simulate, take);
}

// ---------------------------------------------------------------------------
// SweepEngine

SweepEngine::SweepEngine() : SweepEngine(Options()) {}

SweepEngine::SweepEngine(Options opts) : opts_(std::move(opts)) {
  if (opts_.block == 0) opts_.block = 256;
}

std::uint64_t SweepEngine::replica_seed(std::uint64_t base, int replica) {
  GREENHPC_REQUIRE(replica >= 0, "replica index must be >= 0");
  // splitmix64's state advances by the constant gamma per draw, so after
  // r draws it is base + r * gamma (mod 2^64); draw r + 1 mixes from there.
  std::uint64_t state = base + static_cast<std::uint64_t>(replica) * util::kSplitMix64Gamma;
  return util::splitmix64(state);
}

SweepResult SweepEngine::run(const SweepGrid& grid) const {
  const SweepCaseRunner runner(grid, opts_.case_opts);
  const std::size_t n_cases = runner.case_count();

  SweepResult result;
  runner.init_result(result);

  // Journal binding: the journal must have been opened against exactly
  // this grid, and its recorded block size wins so block boundaries line
  // up with the journaled records.
  SweepJournal* journal = opts_.journal;
  std::size_t block_size = opts_.block;
  if (journal != nullptr) {
    GREENHPC_REQUIRE(journal->config_digest() == grid.config_digest(),
                     "journal was written for a different sweep grid");
    GREENHPC_REQUIRE(journal->cases() == n_cases,
                     "journal case count does not match this grid");
    block_size = journal->block();
    result.journal_truncations = journal->truncations();
  }

  util::ThreadPool& pool = opts_.pool != nullptr ? *opts_.pool : util::ThreadPool::global();
  // Engine-side observability: per-block phase timing feeds the metrics
  // registry and (when enabled) the tracer. None of it touches simulation
  // state, so the fold order and digest stay bit-identical with tracing
  // on or off. Both phase gauges are the calling thread's wall seconds:
  // fold_s its time in commits (fold + journal append), simulate_s the
  // rest of the streamed loop outside progress calls (its own cases, or
  // waiting for the next block to finish).
  GREENHPC_TRACE_SPAN("sweep.run");
  static obs::Gauge& cases_per_s = obs::Registry::global().gauge("sweep.cases_per_s");
  static obs::Gauge& simulate_s = obs::Registry::global().gauge("sweep.simulate_s");
  static obs::Gauge& fold_s = obs::Registry::global().gauge("sweep.fold_s");

  // Resume: re-fold the blocks the journal proves complete instead of
  // re-simulating them. Each record's stored digest must match the
  // running digest after its fold — a mismatch means the journal does
  // not belong to this grid (or survived corruption the line checksums
  // cannot see), and silently folding it would fabricate results.
  std::size_t start_case = 0;
  if (journal != nullptr) {
    GREENHPC_TRACE_SPAN("sweep.replay");
    for (const SweepBlock& rec : journal->completed()) {
      runner.fold_block(result, rec);
      GREENHPC_REQUIRE(result.digest == rec.digest_after,
                       "journal replay digest mismatch — the journal does not "
                       "re-fold to its recorded digest for this grid");
      result.replayed_cases += rec.cases.size();
      if (opts_.progress) {
        opts_.progress(rec.start + rec.cases.size(), n_cases);
      }
    }
    start_case = journal->resume_point();
  }

  // Stream the remaining cases, one range per block. Commit = fold the
  // block in case order (the same sequence for any thread count), then
  // journal it and report progress, while later cases still simulate.
  std::vector<SweepRange> ranges;
  for (std::size_t s = start_case; s < n_cases; s += block_size) {
    ranges.push_back({s, std::min(block_size, n_cases - s)});
  }
  using Clock = std::chrono::steady_clock;
  const auto run_start = Clock::now();
  auto mark = run_start;  // end of the previous block's progress call
  runner.run_ranges(pool, ranges, [&](SweepBlock& block) {
    const auto fold_begin = Clock::now();
    {
      GREENHPC_TRACE_SPAN("sweep.block.fold");
      runner.fold_block(result, block);
    }
    if (journal != nullptr) {
      // WAL commit point: the record is fsynced after every case of the
      // block was folded and before the block is reported done, so a crash
      // loses at most this block and the later cases in flight. Chained
      // records carry the running digest.
      GREENHPC_TRACE_SPAN("sweep.block.journal");
      block.digest_after = result.digest;
      if (!journal_io_ok([&] { journal->append(block); })) journal = nullptr;
    }
    const auto block_end = Clock::now();
    const double block_fold_s = std::chrono::duration<double>(block_end - fold_begin).count();
    const std::size_t done = block.start + block.cases.size();
    const std::chrono::duration<double> elapsed = block_end - run_start;
    fold_s.add(block_fold_s);
    simulate_s.add(std::chrono::duration<double>(block_end - mark).count() - block_fold_s);
    if (elapsed.count() > 0.0) {
      cases_per_s.set(static_cast<double>(done - start_case) / elapsed.count());
    }
    if (opts_.progress) opts_.progress(done, n_cases);
    mark = Clock::now();
  });
  return result;
}

}  // namespace greenhpc::core
