#pragma once
// Sweep engine: scalable cartesian design-space exploration.
//
// The paper's operational claims (sections 3.1-3.4) are fleet-scale
// statements — a policy is only "better" if it wins across regions, seeds
// and cluster shapes, the way the Top500-scale carbon studies sweep their
// estimates. SweepEngine turns that into one call: a cartesian grid of
// scenario axes × policies × seed replicas is expanded into cases,
// streamed over the thread pool in flat case order, and folded in
// fixed-size blocks through Welford mean/stddev/CI aggregation per grid
// cell, so memory stays bounded by the streaming window, the block size
// and the cell table — never by the case count.
//
// Determinism contract: per-case seeds are splitmix64-derived from the
// base seed (replica r gets the r-th draw of the stream, independent of
// every grid axis), cases hand their outcomes to the fold through slots
// keyed by flat case id, and cases are folded serially in case order on
// the thread that called run(). The aggregate table — and the
// FNV-1a digest over every case's metrics — is therefore bit-identical
// for ANY thread count, including the serial fallback. Shared scenario
// assets (carbon::TraceCache, hpcsim::WorkloadCache) make the fan-out
// cheap: cases differing only in policy (or in axes a trace/workload does
// not depend on) reuse one immutable trace and one immutable job list.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace greenhpc::core {

class SweepJournal;

/// FNV-1a offset basis: the seed of every running sweep digest — the
/// engine's global digest, a shard journal's per-block digests, and the
/// worker protocol's block records all start here so their folds are
/// interchangeable.
inline constexpr std::uint64_t kSweepDigestBasis = 1469598103934665603ull;

/// One labelled policy combination under comparison.
struct SweepPolicy {
  std::string label;
  SchedulerFactory scheduler;
  PowerPolicyFactory power = nullptr;
};

/// Cartesian parameter grid. Empty axis vectors mean "the base value
/// only"; the case count is the product of the resolved axis lengths,
/// × policies × seed_replicas.
struct SweepGrid {
  /// Defaults for every field a sweep axis does not override.
  ScenarioConfig base;

  std::vector<carbon::Region> regions;                ///< empty = {base.region}
  std::vector<carbon::IntensityKind> intensity_kinds; ///< empty = {base.intensity_kind}
  std::vector<int> cluster_nodes;                     ///< empty = {base.cluster.nodes}
  std::vector<int> job_counts;                        ///< empty = {base.workload.job_count}
  /// Independent seed replicas per cell (>= 1); replica r simulates with
  /// seed splitmix64^r(base.seed), aggregated into the cell statistics.
  int seed_replicas = 1;
  /// Policies under comparison (>= 1 required).
  std::vector<SweepPolicy> policies;

  /// Total simulations the grid expands to.
  [[nodiscard]] std::size_t case_count() const;
  /// Grid cells (= case_count() / seed_replicas).
  [[nodiscard]] std::size_t cell_count() const;
  /// FNV-1a digest over everything that shapes the expanded cases:
  /// resolved axes, policy labels, replica count and the base scenario.
  /// A journal is bound to this digest, so resuming against a different
  /// grid is rejected instead of silently folding foreign metrics.
  [[nodiscard]] std::uint64_t config_digest() const;
};

/// Headline metrics of one simulated case — the Welford inputs and the
/// digest payload.
struct SweepCaseMetrics {
  double total_carbon_t = 0.0;
  double total_energy_mwh = 0.0;
  double mean_wait_h = 0.0;
  double mean_bounded_slowdown = 0.0;
  double utilization = 0.0;
  double green_energy_share = 0.0;
  double completed = 0.0;
};

/// Aggregate over the seed replicas of one grid cell.
struct SweepCellStats {
  // Cell coordinates (resolved axis values).
  carbon::Region region = carbon::Region::Germany;
  carbon::IntensityKind kind = carbon::IntensityKind::Average;
  int nodes = 0;
  int jobs = 0;
  std::string policy;

  // Welford accumulators, one observation per replica.
  util::RunningStats carbon_t;
  util::RunningStats energy_mwh;
  util::RunningStats wait_h;
  util::RunningStats slowdown;
  util::RunningStats utilization;
  util::RunningStats green_share;
  util::RunningStats completed;

  /// Normal-approximation 95% confidence half-width of a metric's mean
  /// (0 with fewer than two replicas).
  [[nodiscard]] static double ci95(const util::RunningStats& s);
};

/// A case that exhausted its retry budget and was quarantined instead of
/// killing the sweep (failure isolation: one pathological point in the
/// grid must not abort the other thousands of cases).
struct SweepFailedCase {
  std::size_t flat = 0;     ///< flat case id
  std::string where;        ///< resolved coordinates, e.g. "region=DE ... replica=2"
  std::string error;        ///< text of the last exception
  int attempts = 0;         ///< simulation attempts consumed (1 + retries)
};

/// One case's outcome in transportable form: the exact metric bit
/// patterns of a success, or the quarantine record of a failure. This is
/// the unit the journal persists, the wire protocol ships, and the fold
/// consumes — simulated, replayed and remotely-computed cases are
/// indistinguishable past this point, which is what makes resume and
/// distribution bit-identical by construction.
struct SweepCaseOutcome {
  bool ok = true;
  SweepCaseMetrics metrics;  ///< valid when ok
  int attempts = 1;
  std::string error;         ///< exception text when !ok
};

/// Flat cases [start, start + count): one block of run_ranges.
struct SweepRange {
  std::size_t start = 0;
  std::size_t count = 0;
};

/// One completed block of consecutive flat cases. `cases[i]` is flat case
/// `start + i`. `digest_after` is the BLOCK-LOCAL digest (fold of just
/// these cases from kSweepDigestBasis), as run_ranges commits it and as
/// shard journals and the worker protocol store it: a worker cannot know
/// its block's global fold position. The engine's chained journal stores
/// the running sweep digest after the block instead.
struct SweepBlock {
  std::size_t start = 0;
  std::vector<SweepCaseOutcome> cases;
  std::uint64_t digest_after = 0;
};

/// Fold one case's metric bit patterns into a running FNV-1a digest.
void sweep_digest_metrics(std::uint64_t& h, const SweepCaseMetrics& m);

/// Block-local digest of a block record: every ok case folded in order
/// starting from kSweepDigestBasis (quarantined cases contribute nothing,
/// mirroring the global digest's contract).
[[nodiscard]] std::uint64_t sweep_block_digest(const SweepBlock& block);

struct SweepResult {
  /// Cell-major order: regions × kinds × nodes × jobs × policies.
  std::vector<SweepCellStats> cells;
  std::size_t cases = 0;
  int replicas = 1;
  /// FNV-1a over every case's metric bit patterns in flat case order —
  /// equal digests mean bit-identical sweeps (any thread count).
  /// Quarantined cases contribute nothing to the digest or the cell
  /// statistics (their cells simply hold fewer observations), so the
  /// digest is deterministic whether or not a case deterministically
  /// fails.
  std::uint64_t digest = 0;
  /// Cases quarantined after exhausting their retry budget, flat order.
  std::vector<SweepFailedCase> failed_cases;
  /// Cases folded from a journal instead of simulated (resume).
  std::size_t replayed_cases = 0;
  /// Torn/corrupt journal suffixes dropped while resuming THIS run
  /// (per-run, unlike the process-cumulative obs counter — two sweeps in
  /// one process never bleed truncation counts into each other's report).
  std::uint64_t journal_truncations = 0;
};

/// The shared execution substrate of every sweep runner — the in-process
/// SweepEngine, a SweepWorker process, and the SweepCoordinator's
/// in-process path all drive the SAME case pipeline through ONE loop of
/// this class: flat case id -> resolved scenario -> simulation with
/// retry/quarantine -> SweepCaseOutcome -> committed block, plus the
/// serial fold into a SweepResult. One implementation is the
/// digest-identity argument: there is no second path that could diverge.
///
/// Carbon-blind pricing: cases that differ only in region and intensity
/// kind (the two outermost axes) share cluster size, job list, policy and
/// seed — a *schedule group*; flat case f belongs to group
/// f % (case_count() / (regions x kinds)). The first case of a group to
/// run simulates. When the simulator observed that no decision read the
/// intensity (hpcsim::SimulationResult::carbon_blind), the schedule is
/// the same under every trace, and that case prices the group's other
/// members (hpcsim::price_carbon) instead of simulating them; their
/// outcomes are bit-identical to simulated ones. Members arriving while
/// the first case still runs wait for it, so each group is simulated
/// once per scope whatever the thread timing. Counted by obs
/// `sweep.cases_priced`. See DESIGN.md, "Carbon-blind pricing".
class SweepCaseRunner {
 public:
  struct Options {
    /// Failure isolation: a throwing case is retried up to this many
    /// extra attempts (capped exponential backoff between attempts, the
    /// same shape as the resilience layer's job requeue backoff), then
    /// quarantined into SweepResult::failed_cases instead of aborting
    /// the sweep. Counted by obs `sweep.case_retries` /
    /// `sweep.cases_quarantined`.
    int case_retries = 2;
    /// Backoff before retry k (0-based): base * 2^k, capped. Wall-clock
    /// seconds — these are harness retries, not simulated time.
    double retry_backoff_base_s = 0.01;
    double retry_backoff_cap_s = 1.0;
  };

  /// Resolves the grid's axes. Throws InvalidArgument on an empty policy
  /// list, a null scheduler factory, or a non-positive replica count.
  /// `grid` must outlive the runner (held by reference).
  SweepCaseRunner(const SweepGrid& grid, Options opts);
  ~SweepCaseRunner();
  SweepCaseRunner(const SweepCaseRunner&) = delete;
  SweepCaseRunner& operator=(const SweepCaseRunner&) = delete;

  [[nodiscard]] std::size_t case_count() const { return n_cases_; }
  [[nodiscard]] std::size_t cell_count() const { return n_cells_; }
  [[nodiscard]] int replicas() const { return static_cast<int>(replicas_); }

  /// Simulate one flat case with the retry/quarantine policy. Never
  /// throws on case failure — a case that exhausts its budget returns
  /// ok == false. Thread-safe. Prices over the whole grid: a carbon-blind
  /// group's first case prices every other member, and the runner keeps
  /// those outcomes until their cases are asked for.
  [[nodiscard]] SweepCaseOutcome run_case(std::size_t flat) const;

  /// The one simulate-and-commit loop: simulates `ranges` (non-empty,
  /// inside the grid, any order) through ONE ordered pool loop, and on the
  /// calling thread, in list order, hands each finished range to `commit`
  /// as a block with its block-local digest, which the commit may modify
  /// or move from. Later cases keep simulating meanwhile, never `window`
  /// = max(2 x largest range, 8 x team) or more past the commit frontier.
  /// A throwing commit stops the loop: no later range is committed, and
  /// the exception propagates once the cases in flight have finished.
  /// Prices only group members inside `ranges`, through a memo that lives
  /// for the call. Records `sweep.cases` and, per range,
  /// `sweep.block_seconds` from the claim of its first case until its
  /// commit returns.
  void run_ranges(util::ThreadPool& pool, const std::vector<SweepRange>& ranges,
                  const std::function<void(SweepBlock&)>& commit) const;

  /// Resolved coordinates of a flat case, for quarantine reports.
  [[nodiscard]] std::string describe(std::size_t flat) const;

  /// Size result's cell table (cell-major coordinates) and case counts.
  void init_result(SweepResult& result) const;

  /// Fold one outcome into result: Welford cells + digest for a success,
  /// the failed_cases list for a quarantine. MUST be called in flat case
  /// order — the digest is order-defined.
  void fold(SweepResult& result, std::size_t flat, const SweepCaseOutcome& e) const;

  /// fold() every case of `block`; blocks MUST come in flat case order.
  void fold_block(SweepResult& result, const SweepBlock& block) const;

 private:
  struct Coords;
  class GroupMemo;
  [[nodiscard]] Coords decode(std::size_t flat) const;
  /// The resolved scenario of a flat case.
  [[nodiscard]] ScenarioConfig scenario(std::size_t flat) const;
  /// One simulation of a flat case, no retry.
  [[nodiscard]] PolicyOutcome simulate(std::size_t flat) const;
  /// run_case pricing through `memo` (null: simulate every case).
  [[nodiscard]] SweepCaseOutcome run_case(std::size_t flat, GroupMemo* memo) const;
  /// Simulate the first case of `group` and publish the priced outcomes
  /// of its other in-scope members; releases the group if it throws.
  [[nodiscard]] SweepCaseMetrics lead(GroupMemo& memo, std::size_t group,
                                      std::size_t flat) const;
  /// The outcome of member `flat` priced from its group's carbon-blind run.
  [[nodiscard]] SweepCaseMetrics price(const PolicyOutcome& run, std::size_t flat) const;

  const SweepGrid* grid_;
  Options opts_;
  std::vector<carbon::Region> regions_;
  std::vector<carbon::IntensityKind> kinds_;
  std::vector<int> nodes_;
  std::vector<int> jobs_;
  std::size_t replicas_ = 1;
  std::size_t n_cells_ = 0;
  std::size_t n_cases_ = 0;
  /// Members per schedule group (regions x kinds) and cases per
  /// region-and-kind slice: group g holds g + m * group_span_.
  std::size_t group_size_ = 1;
  std::size_t group_span_ = 0;
  /// The bare run_case's whole-grid memo; null when groups have one member.
  std::unique_ptr<GroupMemo> memo_;
};

class SweepEngine {
 public:
  struct Options {
    /// Pool to fan out over; null = the process-global pool.
    util::ThreadPool* pool = nullptr;
    /// Cases per block: the unit of the fold's bookkeeping — one journal
    /// record, one progress call and one `sweep.block_seconds` sample per
    /// block. It does not split the parallel work: every remaining case
    /// streams through one SweepCaseRunner::run_ranges loop.
    std::size_t block = 256;
    /// Optional progress callback, invoked with (cases done, cases total)
    /// once per block, in block order, after the block is folded and
    /// journaled. Serialization contract: the callback always runs on the
    /// thread that called run(), never concurrently with itself or with
    /// the fold, so it needs no internal locking. Other blocks' cases may
    /// be simulating on the pool while it runs. A callback that throws
    /// stops the sweep: no later block is folded, journaled or reported,
    /// and the exception propagates from run() once the simulations in
    /// flight have finished. Asserted by
    /// SweepEngine.ProgressCallbackIsSerializedUnderThreadPool and
    /// SweepEngine.ProgressThrowAtBlockKLeavesKRecordsAndResumes.
    std::function<void(std::size_t, std::size_t)> progress;
    /// Optional write-ahead journal (crash-safe sweeps). When set, run()
    /// first folds the blocks the journal proves complete (bit-identical
    /// replay of their recorded metrics, digest-verified), then simulates
    /// the remainder, appending one fsynced record per block once every
    /// case of the block has been folded. A crash loses the block being
    /// committed and any later cases already simulated.
    /// The journal's recorded block size overrides `block` so boundaries
    /// line up with the journaled records. The journal must have been
    /// opened against this grid's config_digest()/case_count(); a digest
    /// that does not re-fold throws InvalidArgument.
    SweepJournal* journal = nullptr;
    /// Failure isolation: the retry budget and backoff of every case.
    SweepCaseRunner::Options case_opts;
  };

  explicit SweepEngine(Options opts);

  /// Expand and simulate the grid. Throws InvalidArgument on an empty
  /// policy list or non-positive replica count.
  [[nodiscard]] SweepResult run(const SweepGrid& grid) const;

  /// Seed of replica r: the r-th draw of the splitmix64 stream seeded
  /// with `base` (replica 0 = first draw, so even it decorrelates from
  /// neighbouring base seeds). O(1) in r. Requires r >= 0.
  [[nodiscard]] static std::uint64_t replica_seed(std::uint64_t base, int replica);

 private:
  Options opts_;
};

}  // namespace greenhpc::core
