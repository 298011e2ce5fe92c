#include "core/sweep_journal.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "sched/easy_backfill.hpp"
#include "sched/fcfs.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

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

/// Fresh run directory per test case; stale journals removed.
std::string run_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "greenhpc_journal_" + name;
  std::remove((dir + "/" + SweepJournal::kFileName).c_str());
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

/// Thrown by a progress callback to interrupt a sweep at a block
/// boundary — the journaled-run equivalent of a SIGKILL between blocks.
struct Interrupt : std::runtime_error {
  Interrupt() : std::runtime_error("interrupted") {}
};

void expect_equal_results(const SweepResult& a, const SweepResult& b) {
  EXPECT_EQ(a.digest, b.digest);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    EXPECT_EQ(a.cells[c].carbon_t.count(), b.cells[c].carbon_t.count()) << c;
    EXPECT_EQ(a.cells[c].carbon_t.mean(), b.cells[c].carbon_t.mean()) << c;
    EXPECT_EQ(a.cells[c].wait_h.sample_stddev(), b.cells[c].wait_h.sample_stddev())
        << c;
    EXPECT_EQ(a.cells[c].green_share.mean(), b.cells[c].green_share.mean()) << c;
  }
  ASSERT_EQ(a.failed_cases.size(), b.failed_cases.size());
  for (std::size_t i = 0; i < a.failed_cases.size(); ++i) {
    EXPECT_EQ(a.failed_cases[i].flat, b.failed_cases[i].flat);
    EXPECT_EQ(a.failed_cases[i].where, b.failed_cases[i].where);
    EXPECT_EQ(a.failed_cases[i].error, b.failed_cases[i].error);
  }
}

TEST(SweepGridDigest, BindsToExpandedCases) {
  const SweepGrid grid = small_grid();
  EXPECT_EQ(grid.config_digest(), small_grid().config_digest());

  SweepGrid different_seed = small_grid();
  different_seed.base.seed += 1;
  EXPECT_NE(grid.config_digest(), different_seed.config_digest());

  SweepGrid different_axis = small_grid();
  different_axis.cluster_nodes = {16, 64};
  EXPECT_NE(grid.config_digest(), different_axis.config_digest());

  SweepGrid different_label = small_grid();
  different_label.policies[1].label = "easy2";
  EXPECT_NE(grid.config_digest(), different_label.config_digest());

  // An empty axis means "the base value": spelling that out explicitly
  // must hash identically (axes are resolved before hashing).
  SweepGrid explicit_base = small_grid();
  explicit_base.intensity_kinds = {explicit_base.base.intensity_kind};
  EXPECT_EQ(grid.config_digest(), explicit_base.config_digest());
}

TEST(SweepJournal, JournaledRunMatchesPlainRunBitForBit) {
  const SweepGrid grid = small_grid();
  const SweepResult plain = SweepEngine({}).run(grid);

  const std::string dir = run_dir("plain_vs_journaled");
  SweepJournal journal =
      SweepJournal::create(dir, grid.config_digest(), grid.case_count(), 5);
  SweepEngine::Options opts;
  opts.journal = &journal;
  const SweepResult journaled = SweepEngine(std::move(opts)).run(grid);

  expect_equal_results(plain, journaled);
  EXPECT_EQ(journaled.replayed_cases, 0u);
  EXPECT_EQ(journal.resume_point(), grid.case_count());
}

TEST(SweepJournal, CompleteJournalResumesAsPureReplay) {
  const SweepGrid grid = small_grid();
  const std::string dir = run_dir("pure_replay");
  const SweepResult reference = [&] {
    SweepJournal journal =
        SweepJournal::create(dir, grid.config_digest(), grid.case_count(), 5);
    SweepEngine::Options opts;
    opts.journal = &journal;
    return SweepEngine(std::move(opts)).run(grid);
  }();

  SweepJournal resumed =
      SweepJournal::resume(dir, grid.config_digest(), grid.case_count());
  EXPECT_EQ(resumed.resume_point(), grid.case_count());
  SweepEngine::Options opts;
  opts.journal = &resumed;
  const SweepResult replay = SweepEngine(std::move(opts)).run(grid);
  expect_equal_results(reference, replay);
  EXPECT_EQ(replay.replayed_cases, grid.case_count());
}

TEST(SweepJournal, ResumeAfterEveryBlockBoundaryIsBitIdentical) {
  // The resume contract, exhaustively: interrupt a journaled sweep after
  // EVERY block boundary and resume it — on 1-, 2-, and default-thread
  // pools, with a different requested block size (the journal's recorded
  // block size must win). Digest and aggregates must match the
  // uninterrupted run bit for bit in every combination.
  const SweepGrid grid = small_grid();  // 24 cases
  const std::size_t block = 5;          // -> blocks of 5,5,5,5,4
  const SweepResult reference = SweepEngine({}).run(grid);
  const std::size_t n_blocks = (grid.case_count() + block - 1) / block;

  const std::size_t thread_counts[] = {1, 2, 0};  // 0 = pool default
  for (std::size_t t = 0; t < 3; ++t) {
    for (std::size_t interrupt_after = 1; interrupt_after < n_blocks;
         ++interrupt_after) {
      const std::string dir =
          run_dir("boundary_" + std::to_string(t) + "_" +
                  std::to_string(interrupt_after));
      {
        SweepJournal journal = SweepJournal::create(dir, grid.config_digest(),
                                                    grid.case_count(), block);
        SweepEngine::Options opts;
        opts.journal = &journal;
        std::size_t blocks_done = 0;
        opts.progress = [&](std::size_t, std::size_t) {
          if (++blocks_done == interrupt_after) throw Interrupt();
        };
        EXPECT_THROW((void)SweepEngine(std::move(opts)).run(grid), Interrupt);
      }
      std::unique_ptr<util::ThreadPool> pool;
      if (thread_counts[t] != 0) {
        pool = std::make_unique<util::ThreadPool>(thread_counts[t]);
      }
      SweepJournal resumed =
          SweepJournal::resume(dir, grid.config_digest(), grid.case_count());
      EXPECT_EQ(resumed.resume_point(), interrupt_after * block);
      SweepEngine::Options opts;
      opts.journal = &resumed;
      opts.pool = pool.get();
      opts.block = 7;  // journal's block size (5) must override this
      const SweepResult result = SweepEngine(std::move(opts)).run(grid);
      expect_equal_results(reference, result);
      EXPECT_EQ(result.replayed_cases, interrupt_after * block);
    }
  }
}

TEST(SweepJournal, ThrowingCaseIsQuarantinedNotFatal) {
  SweepGrid grid = small_grid();
  grid.policies.push_back(
      {"broken", []() -> std::unique_ptr<hpcsim::SchedulingPolicy> {
         throw std::runtime_error("scheduler factory exploded");
       }});
  obs::Counter& quarantined =
      obs::Registry::global().counter("sweep.cases_quarantined");
  const std::uint64_t quarantined_before = quarantined.value();

  SweepEngine::Options opts;
  opts.case_opts.case_retries = 1;
  opts.case_opts.retry_backoff_base_s = 0.0;  // deterministic failure: don't wait on it
  const SweepResult result = SweepEngine(std::move(opts)).run(grid);

  // 2 regions x 2 node counts x 3 replicas of the broken policy quarantine;
  // the healthy policies' cells keep their full replica counts.
  ASSERT_EQ(result.failed_cases.size(), 12u);
  for (const SweepFailedCase& f : result.failed_cases) {
    EXPECT_NE(f.where.find("policy=broken"), std::string::npos) << f.where;
    EXPECT_NE(f.error.find("scheduler factory exploded"), std::string::npos);
    EXPECT_EQ(f.attempts, 2);  // 1 attempt + 1 retry
  }
  EXPECT_EQ(quarantined.value() - quarantined_before, 12u);
  for (const SweepCellStats& cell : result.cells) {
    EXPECT_EQ(cell.carbon_t.count(), cell.policy == "broken" ? 0u : 3u);
  }
  // The digest must equal the same grid WITHOUT the broken policy's cases
  // being folded — i.e. healthy cases only, in flat order. Cross-check by
  // determinism: a second run quarantines identically.
  const SweepResult again = SweepEngine(SweepEngine::Options{}).run(grid);
  EXPECT_EQ(again.digest, result.digest);
  ASSERT_EQ(again.failed_cases.size(), 12u);
}

TEST(SweepJournal, TransientFailureIsRetriedToSuccess) {
  SweepGrid grid = small_grid();
  grid.regions = {carbon::Region::Germany};
  grid.cluster_nodes = {16};
  grid.seed_replicas = 2;
  // First construction attempt per process-lifetime counter fails, all
  // later ones succeed — the transient-blip shape retries exist for.
  auto flaky_count = std::make_shared<std::atomic<int>>(0);
  grid.policies.clear();
  grid.policies.push_back(
      {"flaky", [flaky_count]() -> std::unique_ptr<hpcsim::SchedulingPolicy> {
         if (flaky_count->fetch_add(1) == 0) {
           throw std::runtime_error("transient blip");
         }
         return std::make_unique<sched::EasyBackfillScheduler>();
       }});
  obs::Counter& retries = obs::Registry::global().counter("sweep.case_retries");
  const std::uint64_t retries_before = retries.value();

  SweepEngine::Options opts;
  opts.case_opts.case_retries = 2;
  opts.case_opts.retry_backoff_base_s = 0.0;
  const SweepResult result = SweepEngine(std::move(opts)).run(grid);

  EXPECT_TRUE(result.failed_cases.empty());
  EXPECT_GE(retries.value() - retries_before, 1u);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cells[0].carbon_t.count(), 2u);
}

TEST(SweepJournal, ResumedRunReproducesQuarantinedCases) {
  SweepGrid grid = small_grid();
  grid.policies.push_back(
      {"broken", []() -> std::unique_ptr<hpcsim::SchedulingPolicy> {
         throw std::runtime_error("deterministically down");
       }});
  SweepEngine::Options ref_opts;
  ref_opts.case_opts.case_retries = 0;
  ref_opts.case_opts.retry_backoff_base_s = 0.0;
  const SweepResult reference = SweepEngine(std::move(ref_opts)).run(grid);

  const std::string dir = run_dir("quarantine_resume");
  {
    SweepJournal journal =
        SweepJournal::create(dir, grid.config_digest(), grid.case_count(), 6);
    SweepEngine::Options opts;
    opts.journal = &journal;
    opts.case_opts.case_retries = 0;
    opts.case_opts.retry_backoff_base_s = 0.0;
    std::size_t blocks_done = 0;
    opts.progress = [&](std::size_t, std::size_t) {
      if (++blocks_done == 3) throw Interrupt();
    };
    EXPECT_THROW((void)SweepEngine(std::move(opts)).run(grid), Interrupt);
  }
  SweepJournal resumed =
      SweepJournal::resume(dir, grid.config_digest(), grid.case_count());
  EXPECT_EQ(resumed.resume_point(), 18u);
  SweepEngine::Options opts;
  opts.journal = &resumed;
  opts.case_opts.case_retries = 0;
  opts.case_opts.retry_backoff_base_s = 0.0;
  const SweepResult result = SweepEngine(std::move(opts)).run(grid);
  expect_equal_results(reference, result);
}

TEST(SweepJournal, RejectsForeignAndMalformedJournals) {
  const SweepGrid grid = small_grid();
  const std::string dir = run_dir("reject");
  {
    SweepJournal journal =
        SweepJournal::create(dir, grid.config_digest(), grid.case_count(), 5);
    SweepEngine::Options opts;
    opts.journal = &journal;
    (void)SweepEngine(std::move(opts)).run(grid);
  }
  // Wrong grid (different config digest) and wrong case count are both
  // hard errors — silently folding a foreign journal fabricates results.
  EXPECT_THROW((void)SweepJournal::resume(dir, grid.config_digest() ^ 1,
                                          grid.case_count()),
               InvalidArgument);
  EXPECT_THROW(
      (void)SweepJournal::resume(dir, grid.config_digest(), grid.case_count() + 1),
      InvalidArgument);
  // Missing journal directory.
  EXPECT_THROW((void)SweepJournal::resume(run_dir("never_created"),
                                          grid.config_digest(), grid.case_count()),
               InvalidArgument);
  // A corrupt header is unrecoverable: there is nothing valid to fall
  // back to.
  const std::string path = dir + "/" + SweepJournal::kFileName;
  const std::string intact = read_file(path);
  std::string broken_header = intact;
  broken_header[10] ^= 0x4;
  write_file(path, broken_header);
  EXPECT_THROW(
      (void)SweepJournal::resume(dir, grid.config_digest(), grid.case_count()),
      InvalidArgument);
  write_file(path, intact);
  // Engine-side binding: a journal opened for one grid cannot drive a
  // different grid's run.
  SweepGrid other = small_grid();
  other.base.seed += 123;
  SweepJournal journal =
      SweepJournal::resume(dir, grid.config_digest(), grid.case_count());
  SweepEngine::Options opts;
  opts.journal = &journal;
  EXPECT_THROW((void)SweepEngine(std::move(opts)).run(other), InvalidArgument);
}

TEST(SweepJournal, TornTailLineFallsBackToLastValidBlock) {
  const SweepGrid grid = small_grid();
  const SweepResult reference = SweepEngine({}).run(grid);
  const std::string dir = run_dir("torn");
  {
    SweepJournal journal =
        SweepJournal::create(dir, grid.config_digest(), grid.case_count(), 5);
    SweepEngine::Options opts;
    opts.journal = &journal;
    (void)SweepEngine(std::move(opts)).run(grid);
  }
  const std::string path = dir + "/" + SweepJournal::kFileName;
  const std::string intact = read_file(path);
  // Tear the file mid-way through its final record — the write that a
  // SIGKILL interrupted. The parser must drop the torn line and resume
  // from the last complete block.
  write_file(path, intact.substr(0, intact.size() - 40));
  SweepJournal resumed =
      SweepJournal::resume(dir, grid.config_digest(), grid.case_count());
  EXPECT_EQ(resumed.completed().size(), 4u);  // 5 blocks written, tail torn
  EXPECT_EQ(resumed.resume_point(), 20u);
  SweepEngine::Options opts;
  opts.journal = &resumed;
  const SweepResult result = SweepEngine(std::move(opts)).run(grid);
  expect_equal_results(reference, result);
}

TEST(SweepJournal, BitFlippedRecordDropsItselfAndEverythingAfter) {
  const SweepGrid grid = small_grid();
  const SweepResult reference = SweepEngine({}).run(grid);
  const std::string dir = run_dir("bitflip");
  {
    SweepJournal journal =
        SweepJournal::create(dir, grid.config_digest(), grid.case_count(), 5);
    SweepEngine::Options opts;
    opts.journal = &journal;
    (void)SweepEngine(std::move(opts)).run(grid);
  }
  const std::string path = dir + "/" + SweepJournal::kFileName;
  std::string content = read_file(path);
  // Flip one bit inside the SECOND block record (a metric nibble, not the
  // checksum): that record and every later one must be discarded, and the
  // resumed sweep must re-simulate from case 5 — still bit-identical.
  std::size_t line_start = content.find('\n') + 1;      // header
  line_start = content.find('\n', line_start) + 1;      // block 0
  const std::size_t flip_at = content.find(" c ", line_start) + 4;
  content[flip_at] = content[flip_at] == '0' ? '1' : '0';
  write_file(path, content);

  SweepJournal resumed =
      SweepJournal::resume(dir, grid.config_digest(), grid.case_count());
  EXPECT_EQ(resumed.completed().size(), 1u);
  EXPECT_EQ(resumed.resume_point(), 5u);
  SweepEngine::Options opts;
  opts.journal = &resumed;
  const SweepResult result = SweepEngine(std::move(opts)).run(grid);
  expect_equal_results(reference, result);
  EXPECT_EQ(result.replayed_cases, 5u);
}

TEST(SweepJournal, AppendOutOfOrderIsALogicError) {
  const std::string dir = run_dir("out_of_order");
  SweepJournal journal = SweepJournal::create(dir, 1, 10, 5);
  SweepBlock rec;
  rec.start = 5;  // must be 0
  rec.cases.resize(5);
  EXPECT_THROW(journal.append(rec), LogicError);
  EXPECT_EQ(journal.resume_point(), 0u);
}

TEST(SweepJournal, DroppedSuffixIsReportedOnStderrAndCounted) {
  // Satellite hardening: silent truncation in a recovery path is how
  // corruption goes unnoticed. Tearing the journal must produce ONE
  // stderr line naming the file, the first dropped line and the bytes
  // discarded, and bump sweep.journal_truncations.
  const SweepGrid grid = small_grid();
  const std::string dir = run_dir("loud_truncation");
  {
    SweepJournal journal =
        SweepJournal::create(dir, grid.config_digest(), grid.case_count(), 5);
    SweepEngine::Options opts;
    opts.journal = &journal;
    (void)SweepEngine(std::move(opts)).run(grid);
  }
  const std::string path = dir + "/" + SweepJournal::kFileName;
  const std::string intact = read_file(path);
  write_file(path, intact.substr(0, intact.size() - 33));

  obs::Counter& truncations =
      obs::Registry::global().counter("sweep.journal_truncations");
  const std::uint64_t before = truncations.value();
  ::testing::internal::CaptureStderr();
  SweepJournal resumed =
      SweepJournal::resume(dir, grid.config_digest(), grid.case_count());
  const std::string err = ::testing::internal::GetCapturedStderr();

  EXPECT_EQ(truncations.value() - before, 1u);
  EXPECT_NE(err.find(path), std::string::npos) << err;
  EXPECT_NE(err.find("dropped"), std::string::npos) << err;
  // 6 lines (header + 5 blocks): the torn final record is line 6.
  EXPECT_NE(err.find("starting at line 6"), std::string::npos) << err;
  EXPECT_EQ(resumed.completed().size(), 4u);

  // Per-run accounting: the journal instance remembers ITS truncation
  // count (what SweepResult::journal_truncations reports), so two
  // back-to-back sweeps in one process never bleed counts into each
  // other's RunReport — only the obs counter stays process-cumulative.
  EXPECT_EQ(resumed.truncations(), 1u);

  // A clean resume reports nothing, counts nothing, and starts from a
  // zero per-run count of its own.
  ::testing::internal::CaptureStderr();
  const SweepJournal clean_resume =
      SweepJournal::resume(dir, grid.config_digest(), grid.case_count());
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(truncations.value() - before, 1u);
  EXPECT_EQ(clean_resume.truncations(), 0u);

  obs::RunReport report;
  report.tool = "greenhpc sweep";
  report.embed_metrics = false;
  report.add("journal_truncations", static_cast<double>(resumed.truncations()));
  std::ostringstream os;
  report.write_json(os);
  EXPECT_NE(os.str().find("\"journal_truncations\": "), std::string::npos);
}

// --- shard mode (distributed sweeps) --------------------------------------

/// Internally-consistent synthetic shard record (the journal verifies the
/// digest re-fold, not the simulation).
SweepBlock shard_rec(std::size_t cases_total, std::size_t block, std::size_t start) {
  SweepBlock rec;
  rec.start = start;
  rec.cases.resize(std::min(block, cases_total - start));
  for (std::size_t i = 0; i < rec.cases.size(); ++i) {
    rec.cases[i].ok = true;
    rec.cases[i].metrics.total_energy_mwh = static_cast<double>(start + i) + 0.25;
  }
  rec.digest_after = sweep_block_digest(rec);
  return rec;
}

/// Fresh directory for shard tests (removes shards from earlier runs).
std::string shard_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "greenhpc_shards_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(SweepShardJournal, OutOfOrderAppendsMergeIntoOneSortedUnion) {
  const std::string dir = shard_dir("union");
  constexpr std::uint64_t kConfig = 0xfeed;
  {
    SweepJournal a = SweepJournal::create_shard(
        dir, SweepJournal::shard_file_name(0, "w0"), kConfig, 10, 4);
    EXPECT_TRUE(a.is_shard());
    a.append(shard_rec(10, 4, 8));  // shard order is completion order,
    a.append(shard_rec(10, 4, 0));  // not case order
    SweepJournal b = SweepJournal::create_shard(
        dir, SweepJournal::shard_file_name(1, "w1"), kConfig, 10, 4);
    b.append(shard_rec(10, 4, 4));
  }
  EXPECT_TRUE(SweepJournal::exists(dir));

  const SweepJournal::ShardLoad load = SweepJournal::load_shards(dir, kConfig, 10);
  ASSERT_EQ(load.blocks.size(), 3u);
  EXPECT_EQ(load.blocks[0].start, 0u);
  EXPECT_EQ(load.blocks[1].start, 4u);
  EXPECT_EQ(load.blocks[2].start, 8u);
  EXPECT_EQ(load.blocks[2].cases.size(), 2u);
  EXPECT_EQ(load.files, 2u);
  EXPECT_EQ(load.duplicate_blocks, 0u);
  EXPECT_EQ(load.max_gen, 1);  // a restart would journal as generation 2
  EXPECT_EQ(load.block, 4u);

  // Foreign shards are rejected exactly like foreign chained journals.
  EXPECT_THROW((void)SweepJournal::load_shards(dir, kConfig ^ 1, 10),
               InvalidArgument);
  EXPECT_THROW((void)SweepJournal::load_shards(dir, kConfig, 11), InvalidArgument);

  // A missing or empty directory is a valid empty load, not an error.
  const SweepJournal::ShardLoad empty =
      SweepJournal::load_shards(shard_dir("never_written"), kConfig, 10);
  EXPECT_TRUE(empty.blocks.empty());
  EXPECT_EQ(empty.files, 0u);
  EXPECT_EQ(empty.max_gen, -1);
}

TEST(SweepShardJournal, AtLeastOnceDuplicatesDedupConflictsThrow) {
  constexpr std::uint64_t kConfig = 0xbeef;
  {
    const std::string dir = shard_dir("dup");
    SweepJournal a = SweepJournal::create_shard(
        dir, SweepJournal::shard_file_name(0, "w0"), kConfig, 8, 4);
    SweepJournal b = SweepJournal::create_shard(
        dir, SweepJournal::shard_file_name(0, "w1"), kConfig, 8, 4);
    // Block 0 delivered twice (a reassignment both halves of which
    // finished): bit-identical records, deduplicated without complaint.
    a.append(shard_rec(8, 4, 0));
    b.append(shard_rec(8, 4, 0));
    b.append(shard_rec(8, 4, 4));
    const SweepJournal::ShardLoad load = SweepJournal::load_shards(dir, kConfig, 8);
    ASSERT_EQ(load.blocks.size(), 2u);
    EXPECT_EQ(load.duplicate_blocks, 1u);
  }
  {
    // The same block with DIFFERENT bits is nondeterminism or corruption:
    // folding either copy could fabricate results, so loading refuses.
    const std::string dir = shard_dir("conflict");
    SweepJournal a = SweepJournal::create_shard(
        dir, SweepJournal::shard_file_name(0, "w0"), kConfig, 8, 4);
    SweepJournal b = SweepJournal::create_shard(
        dir, SweepJournal::shard_file_name(0, "w1"), kConfig, 8, 4);
    a.append(shard_rec(8, 4, 0));
    SweepBlock twisted = shard_rec(8, 4, 0);
    twisted.cases[1].metrics.total_energy_mwh += 1.0;
    twisted.digest_after = sweep_block_digest(twisted);
    b.append(twisted);
    EXPECT_THROW((void)SweepJournal::load_shards(dir, kConfig, 8), InvalidArgument);
  }
}

TEST(SweepShardJournal, TornLineDropsTheRestOfThatFileOnly) {
  const std::string dir = shard_dir("torn");
  constexpr std::uint64_t kConfig = 0xcafe;
  const std::string name_a = SweepJournal::shard_file_name(0, "w0");
  {
    SweepJournal a =
        SweepJournal::create_shard(dir, name_a, kConfig, 16, 4);
    a.append(shard_rec(16, 4, 0));
    a.append(shard_rec(16, 4, 4));
    a.append(shard_rec(16, 4, 8));  // will sit after the corruption
    SweepJournal b = SweepJournal::create_shard(
        dir, SweepJournal::shard_file_name(0, "w1"), kConfig, 16, 4);
    b.append(shard_rec(16, 4, 4));   // honest duplicate of a's record
    b.append(shard_rec(16, 4, 12));
  }
  // Flip a bit inside a's SECOND record: its valid prefix ends at block
  // 0, so a loses blocks 4 and 8 — but b still proves 4 and 12.
  const std::string path = dir + "/" + name_a;
  std::string content = read_file(path);
  std::size_t line_start = content.find('\n') + 1;  // header
  line_start = content.find('\n', line_start) + 1;  // first record
  content[line_start + 30] ^= 0x1;
  write_file(path, content);

  obs::Counter& truncations =
      obs::Registry::global().counter("sweep.journal_truncations");
  const std::uint64_t before = truncations.value();
  ::testing::internal::CaptureStderr();
  const SweepJournal::ShardLoad load = SweepJournal::load_shards(dir, kConfig, 16);
  const std::string err = ::testing::internal::GetCapturedStderr();

  ASSERT_EQ(load.blocks.size(), 3u);
  EXPECT_EQ(load.blocks[0].start, 0u);
  EXPECT_EQ(load.blocks[1].start, 4u);
  EXPECT_EQ(load.blocks[2].start, 12u);
  EXPECT_EQ(truncations.value() - before, 1u);
  // Per-run accounting rides the ShardLoad so a restarted coordinator
  // can surface ITS truncations without reading the global counter.
  EXPECT_EQ(load.truncations, 1u);
  EXPECT_NE(err.find(path), std::string::npos) << err;
  EXPECT_NE(err.find("starting at line 3"), std::string::npos) << err;
}

TEST(SweepShardJournal, AppendRejectsStructurallyBrokenRecords) {
  const std::string dir = shard_dir("broken_append");
  SweepJournal shard = SweepJournal::create_shard(
      dir, SweepJournal::shard_file_name(0, "w0"), 0x1, 10, 4);

  SweepBlock misaligned = shard_rec(10, 4, 4);
  misaligned.start = 2;
  EXPECT_THROW(shard.append(misaligned), LogicError);

  SweepBlock bad_digest = shard_rec(10, 4, 0);
  bad_digest.digest_after ^= 1;
  EXPECT_THROW(shard.append(bad_digest), LogicError);

  SweepBlock wrong_size = shard_rec(10, 4, 0);
  wrong_size.cases.pop_back();
  wrong_size.digest_after = sweep_block_digest(wrong_size);
  EXPECT_THROW(shard.append(wrong_size), LogicError);

  shard.append(shard_rec(10, 4, 8));  // out-of-order is FINE in shard mode
  shard.append(shard_rec(10, 4, 0));
  EXPECT_EQ(shard.completed().size(), 2u);
}

}  // namespace
}  // namespace greenhpc::core
