#include "core/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "carbon/forecast.hpp"
#include "core/sweep_journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/carbon_aware.hpp"
#include "sched/easy_backfill.hpp"
#include "sched/fcfs.hpp"
#include "util/error.hpp"
#include "util/fault_injector.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace greenhpc::core {
namespace {

ScenarioConfig small_base() {
  ScenarioConfig cfg;
  cfg.cluster.nodes = 16;
  cfg.cluster.tick = minutes(5.0);
  cfg.region = carbon::Region::Germany;
  cfg.trace_span = days(2.0);
  cfg.trace_step = minutes(30.0);
  cfg.workload.job_count = 12;
  cfg.workload.span = hours(12.0);
  cfg.workload.max_job_nodes = 8;
  cfg.seed = 77;
  return cfg;
}

SweepGrid small_grid() {
  SweepGrid grid;
  grid.base = small_base();
  grid.regions = {carbon::Region::Germany, carbon::Region::France};
  grid.cluster_nodes = {16, 32};
  grid.seed_replicas = 3;
  grid.policies.push_back(
      {"fcfs", [] { return std::make_unique<sched::FcfsScheduler>(); }});
  grid.policies.push_back(
      {"easy", [] { return std::make_unique<sched::EasyBackfillScheduler>(); }});
  return grid;
}

TEST(SweepGrid, CountsAreAxisProducts) {
  const SweepGrid grid = small_grid();
  // 2 regions x 1 kind x 2 node counts x 1 job count x 2 policies.
  EXPECT_EQ(grid.cell_count(), 8u);
  EXPECT_EQ(grid.case_count(), 24u);  // x 3 replicas

  SweepGrid defaults;
  defaults.base = small_base();
  defaults.policies = grid.policies;
  // Empty axes mean "the base value": one cell per policy.
  EXPECT_EQ(defaults.cell_count(), 2u);
  EXPECT_EQ(defaults.case_count(), 2u);
}

TEST(SweepEngine, RejectsDegenerateGrids) {
  const SweepEngine engine({});
  SweepGrid no_policies;
  no_policies.base = small_base();
  EXPECT_THROW((void)engine.run(no_policies), InvalidArgument);

  SweepGrid bad_replicas = small_grid();
  bad_replicas.seed_replicas = 0;
  EXPECT_THROW((void)engine.run(bad_replicas), InvalidArgument);

  SweepGrid null_factory = small_grid();
  null_factory.policies[0].scheduler = nullptr;
  EXPECT_THROW((void)engine.run(null_factory), InvalidArgument);
}

TEST(SweepEngine, ReplicaSeedsAreDistinctAndAxisIndependent) {
  std::set<std::uint64_t> seeds;
  for (int r = 0; r < 16; ++r) seeds.insert(SweepEngine::replica_seed(2023, r));
  EXPECT_EQ(seeds.size(), 16u);
  // Replica 0 is already decorrelated from the base seed itself.
  EXPECT_NE(SweepEngine::replica_seed(2023, 0), 2023u);
  // Neighbouring base seeds do not collide on early replicas.
  EXPECT_NE(SweepEngine::replica_seed(2023, 0), SweepEngine::replica_seed(2024, 0));
}

TEST(SweepEngine, ReplicaSeedIsTheIteratedSplitmixDraw) {
  // The definition: draw r of the splitmix64 stream seeded with `base`.
  for (const std::uint64_t base : {std::uint64_t{2023}, std::uint64_t{0},
                                   ~std::uint64_t{0}}) {
    std::uint64_t state = base;
    for (int r = 0; r < 2000; ++r) {
      const std::uint64_t draw = util::splitmix64(state);
      ASSERT_EQ(SweepEngine::replica_seed(base, r), draw) << "base " << base << " r " << r;
    }
    for (int r = 2000; r < 1000000; ++r) (void)util::splitmix64(state);
    EXPECT_EQ(SweepEngine::replica_seed(base, 1000000), util::splitmix64(state))
        << "base " << base;
  }
  EXPECT_THROW((void)SweepEngine::replica_seed(2023, -1), InvalidArgument);
}

TEST(SweepEngine, CellTableIsCellMajorWithCoordinates) {
  const SweepGrid grid = small_grid();
  const SweepResult result = SweepEngine({}).run(grid);
  ASSERT_EQ(result.cells.size(), 8u);
  EXPECT_EQ(result.cases, 24u);
  EXPECT_EQ(result.replicas, 3);
  // Policy is the innermost cell axis, then jobs, nodes, kinds, regions.
  EXPECT_EQ(result.cells[0].region, carbon::Region::Germany);
  EXPECT_EQ(result.cells[0].nodes, 16);
  EXPECT_EQ(result.cells[0].policy, "fcfs");
  EXPECT_EQ(result.cells[1].policy, "easy");
  EXPECT_EQ(result.cells[2].nodes, 32);
  EXPECT_EQ(result.cells[4].region, carbon::Region::France);
  for (const SweepCellStats& cell : result.cells) {
    EXPECT_EQ(cell.carbon_t.count(), 3u);  // one observation per replica
    EXPECT_GT(cell.energy_mwh.mean(), 0.0);
    EXPECT_GT(cell.completed.mean(), 0.0);
  }
}

TEST(SweepEngine, ProgressReportsMonotonicallyToTotal) {
  SweepGrid grid = small_grid();
  std::vector<std::size_t> done;
  SweepEngine::Options opts;
  opts.block = 7;
  opts.progress = [&](std::size_t d, std::size_t total) {
    EXPECT_EQ(total, 24u);
    done.push_back(d);
  };
  (void)SweepEngine(std::move(opts)).run(grid);
  ASSERT_FALSE(done.empty());
  for (std::size_t i = 1; i < done.size(); ++i) EXPECT_GT(done[i], done[i - 1]);
  EXPECT_EQ(done.back(), 24u);
}

TEST(SweepEngine, ProgressCallbackIsSerializedUnderThreadPool) {
  // The documented contract: progress always runs on the run() thread,
  // between blocks, never concurrently with itself or the block fan-out.
  // Detect any overlap with an atomic in-callback guard; detect any
  // off-thread invocation by comparing thread ids.
  SweepGrid grid = small_grid();
  util::ThreadPool pool(8);
  SweepEngine::Options opts;
  opts.pool = &pool;
  opts.block = 3;  // 24 cases -> 8 progress calls interleaved with fan-out
  std::atomic<int> in_callback{0};
  std::atomic<bool> overlapped{false};
  std::atomic<int> calls{0};
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> wrong_thread{false};
  opts.progress = [&](std::size_t, std::size_t) {
    if (in_callback.fetch_add(1, std::memory_order_acq_rel) != 0) {
      overlapped.store(true, std::memory_order_relaxed);
    }
    if (std::this_thread::get_id() != caller) {
      wrong_thread.store(true, std::memory_order_relaxed);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));  // widen races
    in_callback.fetch_sub(1, std::memory_order_acq_rel);
    calls.fetch_add(1, std::memory_order_relaxed);
  };
  (void)SweepEngine(std::move(opts)).run(grid);
  EXPECT_FALSE(overlapped.load()) << "progress callback ran concurrently";
  EXPECT_FALSE(wrong_thread.load()) << "progress callback left the run() thread";
  EXPECT_EQ(calls.load(), 8);
}

/// What a journaled run leaves behind: the result and the journal bytes.
struct JournaledRun {
  SweepResult result;
  std::string journal;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// `tag` names the run directory: ctest runs test cases in parallel
/// processes, so each test case needs its own.
JournaledRun run_journaled(const std::string& tag, const SweepGrid& grid,
                           std::size_t threads, std::size_t block) {
  const std::string dir = ::testing::TempDir() + "greenhpc_sweep_" + tag;
  std::filesystem::remove_all(dir);
  util::ThreadPool pool(threads);
  JournaledRun run;
  {
    SweepJournal journal =
        SweepJournal::create(dir, grid.config_digest(), grid.case_count(), block);
    SweepEngine::Options opts;
    opts.pool = &pool;
    opts.block = block;
    opts.journal = &journal;
    opts.case_opts.case_retries = 0;
    run.result = SweepEngine(std::move(opts)).run(grid);
    run.journal = read_file(journal.path());
  }
  std::filesystem::remove_all(dir);
  return run;
}

void expect_same_stats(const util::RunningStats& a, const util::RunningStats& b,
                       const std::string& what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.mean(), b.mean()) << what;
  EXPECT_EQ(a.sample_stddev(), b.sample_stddev()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
}

void expect_same_run(const JournaledRun& a, const JournaledRun& b, const std::string& what) {
  EXPECT_EQ(a.result.digest, b.result.digest) << what;
  ASSERT_EQ(a.result.cells.size(), b.result.cells.size()) << what;
  for (std::size_t c = 0; c < a.result.cells.size(); ++c) {
    const SweepCellStats& x = a.result.cells[c];
    const SweepCellStats& y = b.result.cells[c];
    const std::string cell = what + " cell " + std::to_string(c);
    expect_same_stats(x.carbon_t, y.carbon_t, cell);
    expect_same_stats(x.energy_mwh, y.energy_mwh, cell);
    expect_same_stats(x.wait_h, y.wait_h, cell);
    expect_same_stats(x.slowdown, y.slowdown, cell);
    expect_same_stats(x.utilization, y.utilization, cell);
    expect_same_stats(x.green_share, y.green_share, cell);
    expect_same_stats(x.completed, y.completed, cell);
  }
  ASSERT_EQ(a.result.failed_cases.size(), b.result.failed_cases.size()) << what;
  for (std::size_t i = 0; i < a.result.failed_cases.size(); ++i) {
    EXPECT_EQ(a.result.failed_cases[i].flat, b.result.failed_cases[i].flat) << what;
    EXPECT_EQ(a.result.failed_cases[i].where, b.result.failed_cases[i].where) << what;
    EXPECT_EQ(a.result.failed_cases[i].error, b.result.failed_cases[i].error) << what;
    EXPECT_EQ(a.result.failed_cases[i].attempts, b.result.failed_cases[i].attempts)
        << what;
  }
  EXPECT_EQ(a.journal, b.journal) << what << ": journal records differ";
}

TEST(SweepEngine, DigestInvariantAcrossThreadCountsAndBlockSizes) {
  // The determinism contract: bit-identical aggregates, digest and journal
  // records for any fan-out shape. Pools of 2 and 8 workers stream the
  // grid through one ordered pool task and must reproduce the 1-worker
  // serial run for every block size, from one case per block to more
  // than the 24 cases of the grid: block size sets only the fold and
  // journal unit.
  const SweepGrid grid = small_grid();
  for (const std::size_t block : {1, 2, 3, 5, 7, 24, 100}) {
    const JournaledRun serial = run_journaled("streamed", grid, 1, block);
    EXPECT_TRUE(serial.result.failed_cases.empty());
    for (const std::size_t threads : {2, 8}) {
      expect_same_run(run_journaled("streamed", grid, threads, block), serial,
                      "block " + std::to_string(block) + ", " +
                          std::to_string(threads) + " workers");
    }
  }
}

TEST(SweepEngine, StreamedQuarantineMatchesTheSerialRun) {
  util::FaultInjector& inj = util::FaultInjector::global();
  inj.arm({{"case.poison", 5, 1, util::FaultAction::Fail, 0}});
  struct Disarm {
    ~Disarm() { util::FaultInjector::global().disarm(); }
  } disarm;
  const SweepGrid grid = small_grid();
  const JournaledRun serial = run_journaled("quarantine", grid, 1, 3);
  ASSERT_EQ(serial.result.failed_cases.size(), 1u);
  EXPECT_EQ(serial.result.failed_cases[0].flat, 5u);
  for (const std::size_t threads : {2, 8}) {
    expect_same_run(run_journaled("quarantine", grid, threads, 3), serial,
                    std::to_string(threads) + " workers");
  }
}

TEST(SweepEngine, ProgressThrowAtBlockKLeavesKRecordsAndResumes) {
  // A progress callback that throws at block k stands in for a crash
  // after the k-th fsync: the journal holds exactly k records (later
  // blocks that were already simulating are lost), and resuming from it
  // reproduces the clean digest.
  const SweepGrid grid = small_grid();
  const std::size_t n_cases = grid.case_count();
  const std::uint64_t clean = SweepEngine({}).run(grid).digest;
  const std::string dir = ::testing::TempDir() + "greenhpc_sweep_progress_abort";
  struct Abort {};
  for (const std::size_t threads : {1, 2, 8}) {
    for (const std::size_t k : {1, 3, 7}) {
      std::filesystem::remove_all(dir);
      util::ThreadPool pool(threads);
      {
        SweepJournal journal = SweepJournal::create(dir, grid.config_digest(), n_cases, 3);
        SweepEngine::Options opts;
        opts.pool = &pool;
        opts.journal = &journal;
        std::size_t blocks_done = 0;
        opts.progress = [&blocks_done, k](std::size_t, std::size_t) {
          if (++blocks_done == k) throw Abort{};
        };
        EXPECT_THROW((void)SweepEngine(std::move(opts)).run(grid), Abort);
      }
      SweepJournal journal = SweepJournal::resume(dir, grid.config_digest(), n_cases);
      EXPECT_EQ(journal.completed().size(), k) << threads << " workers, k " << k;
      SweepEngine::Options opts;
      opts.pool = &pool;
      opts.journal = &journal;
      const SweepResult resumed = SweepEngine(std::move(opts)).run(grid);
      EXPECT_EQ(resumed.digest, clean) << threads << " workers, k " << k;
      EXPECT_EQ(resumed.replayed_cases, 3 * k) << threads << " workers, k " << k;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(SweepEngine, TracedRunMatchesUntracedDigest) {
  // The tracer is purely observational: with spans recording on every
  // pool thread and around the fold, a 2-worker sweep must reproduce the
  // untraced digest, cells, quarantine list and journal bit for bit.
  struct TracerOff {
    ~TracerOff() {
      obs::Tracer::set_enabled(false);
      obs::Tracer::reset();
    }
  } tracer_off;
  const SweepGrid grid = small_grid();
  const JournaledRun untraced = run_journaled("traced", grid, 2, 5);
  obs::Tracer::reset();
  obs::Tracer::set_enabled(true);
  const JournaledRun traced = run_journaled("traced", grid, 2, 5);
  obs::Tracer::set_enabled(false);
  EXPECT_FALSE(obs::Tracer::aggregate_spans().empty()) << "the tracer recorded nothing";
  expect_same_run(traced, untraced, "traced vs untraced");
}

TEST(SweepEngine, OnePoolTaskPerSweepWhateverTheBlockSize) {
  obs::Counter& tasks = obs::Registry::global().counter("pool.tasks");
  const SweepGrid grid = small_grid();
  util::ThreadPool pool(2);
  for (const std::size_t block : {1, 5, 24}) {
    SweepEngine::Options opts;
    opts.pool = &pool;
    opts.block = block;
    const std::uint64_t before = tasks.value();
    (void)SweepEngine(std::move(opts)).run(grid);
    EXPECT_EQ(tasks.value() - before, 1u) << "block " << block;
  }
}

TEST(SweepEngine, JournalAppendFailureDegradesToJournalLess) {
  // A journal I/O failure at the k-th append must not stop the sweep: it
  // finishes journal-less with the unjournaled digest, counts exactly one
  // degradation, and the journal keeps the k records written before it.
  const SweepGrid grid = small_grid();
  const std::size_t n_cases = grid.case_count();
  const std::uint64_t clean = SweepEngine({}).run(grid).digest;
  obs::Counter& degraded = obs::Registry::global().counter("sweep.journal_io_degraded");
  const std::string dir = ::testing::TempDir() + "greenhpc_sweep_journal_degrade";
  struct Disarm {
    ~Disarm() { util::FaultInjector::global().disarm(); }
  } disarm;
  util::ThreadPool pool(2);
  for (const std::size_t k : {0, 2, 7}) {
    std::filesystem::remove_all(dir);
    util::FaultInjector::global().arm({{"journal.append", k, 1, util::FaultAction::Fail, 0}});
    const std::uint64_t before = degraded.value();
    {
      SweepJournal journal = SweepJournal::create(dir, grid.config_digest(), n_cases, 3);
      SweepEngine::Options opts;
      opts.pool = &pool;
      opts.journal = &journal;
      EXPECT_EQ(SweepEngine(std::move(opts)).run(grid).digest, clean) << "k " << k;
    }
    util::FaultInjector::global().disarm();
    EXPECT_EQ(degraded.value() - before, 1u) << "k " << k;
    const SweepJournal journal = SweepJournal::resume(dir, grid.config_digest(), n_cases);
    EXPECT_EQ(journal.completed().size(), k) << "k " << k;
  }
  std::filesystem::remove_all(dir);
}

// --- SweepCaseRunner::run_ranges -------------------------------------------

bool same_outcome(const SweepCaseOutcome& a, const SweepCaseOutcome& b) {
  return a.ok == b.ok && a.attempts == b.attempts && a.error == b.error &&
         std::memcmp(&a.metrics, &b.metrics, sizeof(SweepCaseMetrics)) == 0;
}

/// Non-contiguous ranges of the 24-case grid in blocks of 5: an aligned
/// block, a later block, a 1-case probe behind it, and the short last
/// block.
const std::vector<SweepRange> kRanges = {{0, 5}, {10, 5}, {7, 1}, {20, 4}};

SweepCaseRunner::Options no_retries() {
  SweepCaseRunner::Options opts;
  opts.case_retries = 0;
  opts.retry_backoff_base_s = 0.0;
  return opts;
}

TEST(SweepCaseRunner, CommitsEachRangeOnceInListOrderWithItsBlockDigest) {
  const SweepGrid grid = small_grid();
  const SweepCaseRunner runner(grid, no_retries());
  for (const std::size_t threads : {1, 2, 8}) {
    util::ThreadPool pool(threads);
    std::vector<SweepBlock> committed;
    runner.run_ranges(pool, kRanges, [&](SweepBlock& b) { committed.push_back(b); });
    ASSERT_EQ(committed.size(), kRanges.size()) << threads << " workers";
    for (std::size_t r = 0; r < kRanges.size(); ++r) {
      const SweepBlock& b = committed[r];
      EXPECT_EQ(b.start, kRanges[r].start) << threads << " workers, range " << r;
      EXPECT_EQ(b.cases.size(), kRanges[r].count) << threads << " workers, range " << r;
      EXPECT_EQ(b.digest_after, sweep_block_digest(b)) << threads << " workers, range " << r;
    }
  }
}

TEST(SweepCaseRunner, OutcomesAreBitIdenticalToRunCaseOnAnyPool) {
  // Case 11 is poisoned: a quarantine record must travel through the
  // loop as faithfully as metrics do.
  util::FaultInjector::global().arm({{"case.poison", 11, 1, util::FaultAction::Fail, 0}});
  struct Disarm {
    ~Disarm() { util::FaultInjector::global().disarm(); }
  } disarm;
  const SweepGrid grid = small_grid();
  const SweepCaseRunner runner(grid, no_retries());
  for (const std::size_t threads : {1, 2, 8}) {
    util::ThreadPool pool(threads);
    std::size_t checked = 0;
    runner.run_ranges(pool, kRanges, [&](SweepBlock& b) {
      for (std::size_t i = 0; i < b.cases.size(); ++i) {
        EXPECT_TRUE(same_outcome(b.cases[i], runner.run_case(b.start + i)))
            << threads << " workers, case " << b.start + i;
        ++checked;
      }
    });
    EXPECT_EQ(checked, 15u) << threads << " workers";
  }
}

TEST(SweepCaseRunner, ThrowingCommitStopsTheLoopAndThePoolRunsTheNext) {
  const SweepGrid grid = small_grid();
  const SweepCaseRunner runner(grid, no_retries());
  struct Stop {};
  for (const std::size_t threads : {1, 2, 8}) {
    util::ThreadPool pool(threads);
    for (const std::size_t k : {0, 1, 3}) {
      std::vector<std::size_t> starts;
      EXPECT_THROW(runner.run_ranges(pool, kRanges,
                                     [&](SweepBlock& b) {
                                       starts.push_back(b.start);
                                       if (starts.size() == k + 1) throw Stop{};
                                     }),
                   Stop);
      ASSERT_EQ(starts.size(), k + 1) << threads << " workers, k " << k;
      for (std::size_t r = 0; r <= k; ++r) EXPECT_EQ(starts[r], kRanges[r].start);
      std::size_t after = 0;
      runner.run_ranges(pool, kRanges, [&](SweepBlock&) { ++after; });
      EXPECT_EQ(after, kRanges.size()) << threads << " workers, k " << k;
    }
  }
}

TEST(SweepCaseRunner, RejectsEmptyAndOutOfGridRanges) {
  const SweepGrid grid = small_grid();  // 24 cases
  const SweepCaseRunner runner(grid, {});
  util::ThreadPool pool(1);
  const auto commit = [](SweepBlock&) {};
  EXPECT_THROW(runner.run_ranges(pool, {SweepRange{3, 0}}, commit), InvalidArgument);
  EXPECT_THROW(runner.run_ranges(pool, {SweepRange{20, 5}}, commit), InvalidArgument);
  EXPECT_THROW(runner.run_ranges(pool, {SweepRange{24, 1}}, commit), InvalidArgument);
}

TEST(SweepCellStats, Ci95MatchesNormalApproximation) {
  util::RunningStats s;
  EXPECT_EQ(SweepCellStats::ci95(s), 0.0);
  s.add(1.0);
  EXPECT_EQ(SweepCellStats::ci95(s), 0.0);  // undefined below two samples
  s.add(3.0);
  s.add(5.0);
  const double expect = 1.96 * s.sample_stddev() / std::sqrt(3.0);
  EXPECT_DOUBLE_EQ(SweepCellStats::ci95(s), expect);
}

TEST(ScenarioRunner, RunnersDifferingOnlyInPolicyShareAssets) {
  // The shared-asset bugfix: constructing two runners over the same
  // scenario must not regenerate the trace or the workload — both resolve
  // through the process-wide caches to pointer-identical assets.
  const ScenarioConfig cfg = small_base();
  const ScenarioRunner a(cfg);
  const ScenarioRunner b(cfg);
  EXPECT_EQ(a.trace_ptr().get(), b.trace_ptr().get());
  EXPECT_EQ(a.jobs_ptr().get(), b.jobs_ptr().get());

  // A different seed is a different scenario: assets must NOT be shared.
  ScenarioConfig other = cfg;
  other.seed += 1;
  const ScenarioRunner c(other);
  EXPECT_NE(a.trace_ptr().get(), c.trace_ptr().get());
  EXPECT_NE(a.jobs_ptr().get(), c.jobs_ptr().get());
}

// --- Carbon-blind pricing ----------------------------------------------------

SweepPolicy carbon_easy_policy() {
  return {"carbon-easy", [] {
            return std::make_unique<sched::CarbonAwareEasyScheduler>(
                sched::CarbonAwareEasyScheduler::Config{},
                std::make_shared<carbon::PersistenceForecaster>());
          }};
}

/// 2 regions x 2 kinds x {fcfs, easy, carbon-easy} x 2 replicas: 24 cases
/// in region-and-kind slices of 6, so schedule group g holds cases g,
/// g + 6, g + 12 and g + 18. Groups 0-3 (fcfs, easy) are carbon-blind,
/// groups 4 and 5 (carbon-easy) are not: a full run prices 4 x 3 cases.
SweepGrid pricing_grid() {
  SweepGrid grid;
  grid.base = small_base();
  grid.regions = {carbon::Region::Germany, carbon::Region::France};
  grid.intensity_kinds = {carbon::IntensityKind::Average, carbon::IntensityKind::Marginal};
  grid.seed_replicas = 2;
  grid.policies.push_back({"fcfs", [] { return std::make_unique<sched::FcfsScheduler>(); }});
  grid.policies.push_back(
      {"easy", [] { return std::make_unique<sched::EasyBackfillScheduler>(); }});
  grid.policies.push_back(carbon_easy_policy());
  return grid;
}

/// Case `flat` of `grid` simulated in a grid of its region and kind only,
/// where no schedule group has a second member and nothing is priced.
SweepCaseOutcome unpriced(const SweepGrid& grid, std::size_t flat) {
  const std::size_t kinds = grid.intensity_kinds.size();
  const std::size_t span = grid.case_count() / (grid.regions.size() * kinds);
  SweepGrid one = grid;
  one.regions = {grid.regions[flat / span / kinds]};
  one.intensity_kinds = {grid.intensity_kinds[flat / span % kinds]};
  const SweepCaseRunner runner(one, no_retries());
  return runner.run_case(flat % span);
}

std::vector<SweepCaseOutcome> unpriced_all(const SweepGrid& grid) {
  std::vector<SweepCaseOutcome> out;
  for (std::size_t f = 0; f < grid.case_count(); ++f) out.push_back(unpriced(grid, f));
  return out;
}

const std::vector<SweepRange> kPricingBlocks = {{0, 5}, {5, 5}, {10, 5}, {15, 5}, {20, 4}};

obs::Counter& priced_counter() {
  return obs::Registry::global().counter("sweep.cases_priced");
}

TEST(SweepPricing, OutcomesAreBitIdenticalToUnpricedRunsOnAnyPool) {
  const SweepGrid grid = pricing_grid();
  const std::vector<SweepCaseOutcome> want = unpriced_all(grid);
  obs::Counter& priced = priced_counter();
  for (const std::size_t threads : {1, 2, 8}) {
    const SweepCaseRunner runner(grid, no_retries());
    util::ThreadPool pool(threads);
    const std::uint64_t before = priced.value();
    std::size_t checked = 0;
    runner.run_ranges(pool, kPricingBlocks, [&](SweepBlock& b) {
      for (std::size_t i = 0; i < b.cases.size(); ++i) {
        EXPECT_TRUE(same_outcome(b.cases[i], want[b.start + i]))
            << threads << " workers, case " << b.start + i;
        ++checked;
      }
    });
    EXPECT_EQ(checked, 24u) << threads << " workers";
    EXPECT_EQ(priced.value() - before, 12u) << threads << " workers";
  }
  // A bare run_case prices over the whole grid, as the ranges did.
  const SweepCaseRunner runner(grid, no_retries());
  const std::uint64_t before = priced.value();
  for (std::size_t f = 0; f < grid.case_count(); ++f) {
    EXPECT_TRUE(same_outcome(runner.run_case(f), want[f])) << "bare run_case " << f;
  }
  EXPECT_EQ(priced.value() - before, 12u);
}

TEST(SweepPricing, ResumeFromLeadersWithoutTheirMembersKeepsTheDigest) {
  const SweepGrid grid = pricing_grid();
  const std::size_t n_cases = grid.case_count();
  const std::uint64_t clean = SweepEngine({}).run(grid).digest;
  const std::string dir = ::testing::TempDir() + "greenhpc_sweep_pricing_resume";
  obs::Counter& priced = priced_counter();
  struct Abort {};
  for (const std::size_t threads : {1, 2, 8}) {
    std::filesystem::remove_all(dir);
    util::ThreadPool pool(threads);
    {
      // Blocks of 6 are the region-and-kind slices: the journaled first
      // block holds the first case of every group and none of its members.
      SweepJournal journal = SweepJournal::create(dir, grid.config_digest(), n_cases, 6);
      SweepEngine::Options opts;
      opts.pool = &pool;
      opts.journal = &journal;
      opts.progress = [](std::size_t, std::size_t) { throw Abort{}; };
      EXPECT_THROW((void)SweepEngine(std::move(opts)).run(grid), Abort);
    }
    SweepJournal journal = SweepJournal::resume(dir, grid.config_digest(), n_cases);
    ASSERT_EQ(journal.completed().size(), 1u) << threads << " workers";
    SweepEngine::Options opts;
    opts.pool = &pool;
    opts.journal = &journal;
    const std::uint64_t before = priced.value();
    const SweepResult resumed = SweepEngine(std::move(opts)).run(grid);
    EXPECT_EQ(resumed.digest, clean) << threads << " workers";
    EXPECT_EQ(resumed.replayed_cases, 6u) << threads << " workers";
    // Each blind group's first remaining member leads and prices the two others.
    EXPECT_EQ(priced.value() - before, 8u) << threads << " workers";
  }
  std::filesystem::remove_all(dir);
}

TEST(SweepPricing, PoisonedFirstCaseIsQuarantinedAloneAndItsMembersKeepTheirOutcomes) {
  const SweepGrid grid = pricing_grid();
  const std::vector<SweepCaseOutcome> want = unpriced_all(grid);
  util::FaultInjector::global().arm({{"case.poison", 0, 1, util::FaultAction::Fail, 0}});
  struct Disarm {
    ~Disarm() { util::FaultInjector::global().disarm(); }
  } disarm;
  for (const std::size_t threads : {1, 2, 8}) {
    const SweepCaseRunner runner(grid, no_retries());
    util::ThreadPool pool(threads);
    runner.run_ranges(pool, kPricingBlocks, [&](SweepBlock& b) {
      for (std::size_t i = 0; i < b.cases.size(); ++i) {
        const std::size_t f = b.start + i;
        if (f == 0) {
          EXPECT_FALSE(b.cases[i].ok) << threads << " workers";
        } else {
          EXPECT_TRUE(same_outcome(b.cases[i], want[f])) << threads << " workers, case " << f;
        }
      }
    });
  }
}

TEST(SweepPricing, ALeaderThatThrowsOnceSucceedsOnItsRetry) {
  // The fcfs factory throws on its first call, which is always a group's
  // first case: a blind group's members never build a policy. Without the
  // leader releasing its group, the retry (or a waiting member) would
  // wait for it forever.
  const std::vector<SweepCaseOutcome> want = unpriced_all(pricing_grid());
  for (const std::size_t threads : {1, 2, 8}) {
    SweepGrid grid = pricing_grid();
    auto calls = std::make_shared<std::atomic<int>>(0);
    grid.policies[0].scheduler = [calls]() -> std::unique_ptr<hpcsim::SchedulingPolicy> {
      if (calls->fetch_add(1) == 0) throw std::runtime_error("flaky first call");
      return std::make_unique<sched::FcfsScheduler>();
    };
    SweepCaseRunner::Options opts = no_retries();
    opts.case_retries = 1;
    const SweepCaseRunner runner(grid, opts);
    util::ThreadPool pool(threads);
    int attempts = 0;
    runner.run_ranges(pool, kPricingBlocks, [&](SweepBlock& b) {
      for (std::size_t i = 0; i < b.cases.size(); ++i) {
        const SweepCaseOutcome& got = b.cases[i];
        ASSERT_TRUE(got.ok) << threads << " workers, case " << b.start + i;
        EXPECT_EQ(std::memcmp(&got.metrics, &want[b.start + i].metrics, sizeof(SweepCaseMetrics)),
                  0)
            << threads << " workers, case " << b.start + i;
        attempts += got.attempts;
      }
    });
    EXPECT_EQ(attempts, 25) << threads << " workers: one case retried once";
  }
}

TEST(SweepPricing, ALeasePricesOnlyTheMembersItHolds) {
  const SweepGrid grid = pricing_grid();
  const SweepCaseRunner runner(grid, no_retries());
  util::ThreadPool pool(2);
  obs::Counter& priced = priced_counter();
  const auto priced_in = [&](const std::vector<SweepRange>& ranges) {
    const std::uint64_t before = priced.value();
    runner.run_ranges(pool, ranges, [](SweepBlock&) {});
    return priced.value() - before;
  };
  // Cases 0 and 6 are two members of fcfs group 0: one simulates, one is
  // priced; the group's members 12 and 18 lie outside the lease.
  EXPECT_EQ(priced_in({{0, 7}}), 1u);
  // So are 0 and 18, in two ranges of one call.
  EXPECT_EQ(priced_in({{18, 1}, {0, 1}}), 1u);
  // Two consecutive replicas of one cell share no group.
  EXPECT_EQ(priced_in({{0, 2}}), 0u);
  // Carbon-easy's groups (4 and 5) never price, even whole.
  EXPECT_EQ(priced_in({{4, 2}, {10, 2}, {16, 2}, {22, 2}}), 0u);
}

TEST(SweepEngine, TinyLedgerGridPricesThreeCasesInFour) {
  // The tiny ledger grid's axes (2 regions x 2 kinds x fcfs, easy x 1000
  // replicas) and in-process layout (2-case blocks, 2 threads): every
  // schedule group is carbon-blind, so one case in four simulates.
  SweepGrid grid;
  grid.base = small_base();
  grid.regions = {carbon::Region::Germany, carbon::Region::France};
  grid.intensity_kinds = {carbon::IntensityKind::Average, carbon::IntensityKind::Marginal};
  grid.seed_replicas = 1000;
  grid.policies.push_back({"fcfs", [] { return std::make_unique<sched::FcfsScheduler>(); }});
  grid.policies.push_back(
      {"easy", [] { return std::make_unique<sched::EasyBackfillScheduler>(); }});
  obs::Counter& priced = priced_counter();
  obs::Counter& simulated = obs::Registry::global().counter("scenario.cases");
  util::ThreadPool pool(2);
  SweepEngine::Options opts;
  opts.pool = &pool;
  opts.block = 2;
  std::uint64_t priced0 = priced.value();
  std::uint64_t simulated0 = simulated.value();
  const SweepResult result = SweepEngine(opts).run(grid);
  EXPECT_EQ(result.cases, 8000u);
  EXPECT_TRUE(result.failed_cases.empty());
  EXPECT_EQ(priced.value() - priced0, 6000u);
  EXPECT_EQ(simulated.value() - simulated0, 2000u);

  // A carbon-easy-only grid prices nothing.
  SweepGrid aware = pricing_grid();
  aware.policies = {carbon_easy_policy()};
  priced0 = priced.value();
  simulated0 = simulated.value();
  (void)SweepEngine(opts).run(aware);
  EXPECT_EQ(priced.value() - priced0, 0u);
  EXPECT_EQ(simulated.value() - simulated0, aware.case_count());
}

}  // namespace
}  // namespace greenhpc::core
