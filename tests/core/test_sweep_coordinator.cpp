#include "core/sweep_coordinator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/sweep_journal.hpp"
#include "obs/metrics.hpp"
#include "sched/easy_backfill.hpp"
#include "sched/fcfs.hpp"
#include "util/error.hpp"
#include "util/fault_injector.hpp"
#include "util/parallel.hpp"

namespace greenhpc::core {
namespace {

SweepGrid small_grid() {
  SweepGrid grid;
  grid.base.cluster.nodes = 16;
  grid.base.cluster.tick = minutes(5.0);
  grid.base.region = carbon::Region::Germany;
  grid.base.trace_span = days(2.0);
  grid.base.trace_step = minutes(30.0);
  grid.base.workload.job_count = 12;
  grid.base.workload.span = hours(12.0);
  grid.base.workload.max_job_nodes = 8;
  grid.base.seed = 77;
  grid.regions = {carbon::Region::Germany, carbon::Region::France};
  grid.cluster_nodes = {16, 32};
  grid.seed_replicas = 3;
  grid.policies.push_back(
      {"fcfs", [] { return std::make_unique<sched::FcfsScheduler>(); }});
  grid.policies.push_back(
      {"easy", [] { return std::make_unique<sched::EasyBackfillScheduler>(); }});
  return grid;
}

void expect_equal_results(const SweepResult& a, const SweepResult& b) {
  EXPECT_EQ(a.digest, b.digest);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    EXPECT_EQ(a.cells[c].carbon_t.count(), b.cells[c].carbon_t.count()) << c;
    EXPECT_EQ(a.cells[c].carbon_t.mean(), b.cells[c].carbon_t.mean()) << c;
    EXPECT_EQ(a.cells[c].wait_h.sample_stddev(), b.cells[c].wait_h.sample_stddev())
        << c;
  }
  ASSERT_EQ(a.failed_cases.size(), b.failed_cases.size());
  for (std::size_t i = 0; i < a.failed_cases.size(); ++i) {
    EXPECT_EQ(a.failed_cases[i].flat, b.failed_cases[i].flat);
    EXPECT_EQ(a.failed_cases[i].where, b.failed_cases[i].where);
    EXPECT_EQ(a.failed_cases[i].error, b.failed_cases[i].error);
  }
}

/// A synthetic but internally-consistent block record: metrics derived
/// from the flat case id, block-local digest re-folded from the cases.
SweepBlock make_rec(std::size_t cases_total, std::size_t block, std::size_t start) {
  SweepBlock rec;
  rec.start = start;
  const std::size_t count = std::min(block, cases_total - start);
  rec.cases.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    rec.cases[i].ok = true;
    rec.cases[i].metrics.total_carbon_t = static_cast<double>(start + i) * 0.5;
    rec.cases[i].metrics.utilization = 0.75;
  }
  rec.digest_after = sweep_block_digest(rec);
  return rec;
}

/// A 1-case probe record for flat case `flat` (the shape a worker reports
/// back for a probe assignment).
SweepBlock make_probe_rec(std::size_t flat, bool ok = true) {
  SweepBlock rec;
  rec.start = flat;
  rec.cases.resize(1);
  rec.cases[0].ok = ok;
  rec.cases[0].metrics.total_carbon_t = static_cast<double>(flat) * 0.5;
  rec.cases[0].metrics.utilization = 0.75;
  rec.digest_after = sweep_block_digest(rec);
  return rec;
}

// --- BlockLedger ----------------------------------------------------------

TEST(BlockLedger, LeasesLowestPendingFirstUntilExhausted) {
  BlockLedger ledger(10, 4);  // blocks: [0,4), [4,8), [8,10)
  EXPECT_EQ(ledger.pending(), 3u);
  BlockLedger::Lease ls;
  ASSERT_TRUE(ledger.lease(7, 0.0, ls));
  EXPECT_EQ(ls.start, 0u);
  EXPECT_EQ(ls.count, 4u);
  EXPECT_FALSE(ls.probe);
  ASSERT_TRUE(ledger.lease(8, 0.0, ls));
  EXPECT_EQ(ls.start, 4u);
  ASSERT_TRUE(ledger.lease(7, 0.0, ls));
  EXPECT_EQ(ls.start, 8u);
  EXPECT_EQ(ls.count, 2u);  // tail block
  EXPECT_FALSE(ledger.lease(9, 0.0, ls));
  EXPECT_EQ(ledger.pending(), 0u);
  EXPECT_EQ(ledger.leased(), 3u);
  EXPECT_FALSE(ledger.all_folded());
}

TEST(BlockLedger, OutOfOrderDeliveryFoldsInFlatCaseOrder) {
  BlockLedger ledger(10, 4);
  BlockLedger::Lease ls;
  ASSERT_TRUE(ledger.lease(1, 0.0, ls));
  ASSERT_TRUE(ledger.lease(2, 0.0, ls));
  ASSERT_TRUE(ledger.lease(3, 0.0, ls));

  SweepBlock out;
  EXPECT_EQ(ledger.deliver(make_rec(10, 4, 8)), BlockLedger::Deliver::Accepted);
  EXPECT_FALSE(ledger.next_to_fold(out));  // block 0 still outstanding
  EXPECT_EQ(ledger.deliver(make_rec(10, 4, 0)), BlockLedger::Deliver::Accepted);
  ASSERT_TRUE(ledger.next_to_fold(out));
  EXPECT_EQ(out.start, 0u);
  EXPECT_FALSE(ledger.next_to_fold(out));  // block 4 gates the frontier
  EXPECT_EQ(ledger.deliver(make_rec(10, 4, 4)), BlockLedger::Deliver::Accepted);
  ASSERT_TRUE(ledger.next_to_fold(out));
  EXPECT_EQ(out.start, 4u);
  ASSERT_TRUE(ledger.next_to_fold(out));
  EXPECT_EQ(out.start, 8u);
  EXPECT_EQ(out.cases.size(), 2u);
  EXPECT_TRUE(ledger.all_folded());
  EXPECT_FALSE(ledger.next_to_fold(out));
}

TEST(BlockLedger, OrphanedBlocksBackOffExponentiallyUpToTheCap) {
  BlockLedger::Options opts;
  opts.backoff_base_s = 1.0;
  opts.backoff_cap_s = 4.0;
  BlockLedger ledger(2, 2, opts);  // a single block
  BlockLedger::Lease ls;

  // Orphaning k (0-based) parks the block for base * 2^k, capped: 1, 2,
  // 4, 4... seconds on this schedule.
  const double expected_backoff[] = {1.0, 2.0, 4.0, 4.0};
  double now = 100.0;
  for (const double backoff : expected_backoff) {
    ASSERT_TRUE(ledger.lease(0, now, ls));
    EXPECT_EQ(ledger.orphan_worker(0, now), 1u);
    EXPECT_DOUBLE_EQ(ledger.next_ready_s(), now + backoff);
    EXPECT_FALSE(ledger.lease(0, now + backoff * 0.5, ls))
        << "leasable before its backoff elapsed";
    now += backoff;
  }
  ASSERT_TRUE(ledger.lease(0, now, ls));
  EXPECT_EQ(ls.start, 0u);
  EXPECT_EQ(ledger.orphan_worker(1, now), 0u);  // worker 1 holds nothing
}

TEST(BlockLedger, OrphanReturnsEveryBlockOfTheDeadWorkerOnly) {
  BlockLedger ledger(12, 4);
  BlockLedger::Lease ls;
  ASSERT_TRUE(ledger.lease(5, 0.0, ls));  // block 0
  ASSERT_TRUE(ledger.lease(6, 0.0, ls));  // block 4
  ASSERT_TRUE(ledger.lease(5, 0.0, ls));  // block 8
  EXPECT_EQ(ledger.orphan_worker(5, 1.0), 2u);
  EXPECT_EQ(ledger.pending(), 2u);
  EXPECT_EQ(ledger.leased(), 1u);
}

TEST(BlockLedger, QueuedLeaseOfADeadWorkerIsReleasedWithoutAStrike) {
  // A pipelined worker holds running block A and queued block B, then
  // dies. The coordinator releases B (never started) and orphans A.
  BlockLedger::Options opts;
  opts.backoff_base_s = 1.0;
  opts.backoff_cap_s = 1.0;
  opts.suspect_after = 3;
  BlockLedger ledger(8, 2, opts);  // blocks A = [0,2), B = [2,4), ...
  BlockLedger::Lease ls;
  double now = 0.0;
  for (int death = 0; death < opts.suspect_after; ++death) {
    ASSERT_TRUE(ledger.lease(1, now, ls));
    ASSERT_EQ(ls.start, 0u);  // A, running
    ASSERT_TRUE(ledger.lease(1, now, ls));
    ASSERT_EQ(ls.start, 2u);  // B, queued
    EXPECT_FALSE(ledger.release(2, 2)) << "worker 2 holds no lease on B";
    EXPECT_TRUE(ledger.release(1, 2));
    EXPECT_FALSE(ledger.release(1, 2)) << "B was already released";
    EXPECT_EQ(ledger.orphan_worker(1, now), 1u);  // only A is struck
    EXPECT_EQ(ledger.leased(), 0u);

    // A waits out its backoff; B is leasable at once, so it was never
    // orphaned (any orphaning would have parked it for a backoff).
    ASSERT_TRUE(ledger.lease(3, now, ls));
    EXPECT_EQ(ls.start, 2u);
    EXPECT_FALSE(ls.probe);
    EXPECT_TRUE(ledger.release(3, 2));
    now += 10.0;
  }

  // suspect_after deaths made A, and only A, suspect: A now leases as
  // single-case probes while B still leases whole.
  EXPECT_EQ(ledger.suspects(), 1u);
  ASSERT_TRUE(ledger.lease(1, now, ls));
  EXPECT_TRUE(ls.probe);
  EXPECT_EQ(ls.start, 0u);
  ASSERT_TRUE(ledger.lease(1, now, ls));
  EXPECT_FALSE(ls.probe);
  EXPECT_EQ(ls.start, 2u);
  EXPECT_EQ(ls.count, 2u);
}

TEST(BlockLedger, DuplicateDeliveryIsCountedConflictThrows) {
  BlockLedger ledger(4, 2);
  const SweepBlock rec = make_rec(4, 2, 0);
  EXPECT_EQ(ledger.deliver(rec), BlockLedger::Deliver::Accepted);
  EXPECT_EQ(ledger.deliver(rec), BlockLedger::Deliver::Duplicate);
  EXPECT_EQ(ledger.duplicates(), 1u);

  // Same block, different bits: a consistently-sealed record whose digest
  // re-folds — but disagrees with what was already accepted. That is
  // nondeterminism, not duplicate delivery.
  SweepBlock conflicting = make_rec(4, 2, 0);
  conflicting.cases[0].metrics.total_carbon_t += 1.0;
  conflicting.digest_after = sweep_block_digest(conflicting);
  EXPECT_THROW((void)ledger.deliver(conflicting), InvalidArgument);

  // Duplicates of a FOLDED block are still recognised.
  SweepBlock out;
  ASSERT_TRUE(ledger.next_to_fold(out));
  EXPECT_EQ(ledger.deliver(rec), BlockLedger::Deliver::Duplicate);
  EXPECT_EQ(ledger.duplicates(), 2u);
}

TEST(BlockLedger, DeliverRejectsStructurallyWrongRecords) {
  BlockLedger ledger(10, 4);
  SweepBlock misaligned = make_rec(10, 4, 4);
  misaligned.start = 2;
  EXPECT_THROW((void)ledger.deliver(misaligned), InvalidArgument);

  SweepBlock beyond = make_rec(10, 4, 8);
  beyond.start = 12;
  EXPECT_THROW((void)ledger.deliver(beyond), InvalidArgument);

  SweepBlock short_rec = make_rec(10, 4, 0);
  short_rec.cases.pop_back();
  short_rec.digest_after = sweep_block_digest(short_rec);
  EXPECT_THROW((void)ledger.deliver(short_rec), InvalidArgument);

  SweepBlock bad_digest = make_rec(10, 4, 0);
  bad_digest.digest_after ^= 1;
  EXPECT_THROW((void)ledger.deliver(bad_digest), InvalidArgument);
}

TEST(BlockLedger, NextReadyTracksPendingBackoffsOnly) {
  BlockLedger ledger(4, 2);
  EXPECT_DOUBLE_EQ(ledger.next_ready_s(), 0.0);  // fresh blocks: ready now
  BlockLedger::Lease ls;
  ASSERT_TRUE(ledger.lease(0, 0.0, ls));
  ASSERT_TRUE(ledger.lease(0, 0.0, ls));
  EXPECT_EQ(ledger.next_ready_s(), std::numeric_limits<double>::infinity());
  (void)ledger.orphan_worker(0, 10.0);
  EXPECT_LT(ledger.next_ready_s(), std::numeric_limits<double>::infinity());
}

/// The ledger's contract restated the plain way: one record per block,
/// next_ready_s() by a scan over every pending block. The randomized test
/// below drives this and a BlockLedger through the same operations.
class LedgerModel {
 public:
  enum class State { Pending, Leased, Ready, Folded };
  struct Block {
    State state = State::Pending;
    int worker = -1;
    int orphanings = 0;
    double ready_at = 0.0;
    bool suspect = false;
    std::size_t probe = SIZE_MAX;  ///< in-block offset of the probe in flight
    std::vector<bool> pinned;
    std::vector<int> deaths;
  };

  LedgerModel(std::size_t cases, std::size_t block, BlockLedger::Options opts)
      : cases_(cases), block_(block), opts_(opts),
        blocks_((cases + block - 1) / block) {}

  [[nodiscard]] std::size_t size_of(std::size_t i) const {
    return std::min(block_, cases_ - i * block_);
  }
  [[nodiscard]] std::vector<Block>& blocks() { return blocks_; }

  [[nodiscard]] double next_ready() const {
    double best = std::numeric_limits<double>::infinity();
    for (const Block& b : blocks_) {
      if (b.state == State::Pending) best = std::min(best, b.ready_at);
    }
    return best;
  }
  [[nodiscard]] std::size_t count(State s) const {
    return static_cast<std::size_t>(std::count_if(
        blocks_.begin(), blocks_.end(), [&](const Block& b) { return b.state == s; }));
  }

  bool lease(int worker, double now, BlockLedger::Lease& out) {
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
      Block& b = blocks_[i];
      if (b.state != State::Pending || now < b.ready_at) continue;
      std::size_t j = 0;
      if (b.suspect) {
        while (j < b.pinned.size() && b.pinned[j]) ++j;
        if (j == b.pinned.size()) continue;
        b.probe = j;
      }
      b.state = State::Leased;
      b.worker = worker;
      out = {i * block_ + j, b.suspect ? 1 : size_of(i), b.suspect};
      return true;
    }
    return false;
  }

  std::size_t orphan(int worker, double now) {
    std::size_t n = 0;
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
      Block& b = blocks_[i];
      if (b.state != State::Leased || b.worker != worker) continue;
      ++n;
      b.ready_at = now + std::min(opts_.backoff_cap_s,
                                  opts_.backoff_base_s * std::pow(2.0, b.orphanings));
      ++b.orphanings;
      b.state = State::Pending;
      b.worker = -1;
      if (b.suspect && b.probe != SIZE_MAX) {
        const std::size_t j = b.probe;
        b.probe = SIZE_MAX;
        if (++b.deaths[j] >= opts_.probe_case_deaths) {
          b.pinned[j] = true;  // quarantined
          finalize(b);
        }
      } else if (!b.suspect && b.orphanings >= opts_.suspect_after) {
        b.suspect = true;
        b.pinned.assign(size_of(i), false);
        b.deaths.assign(size_of(i), 0);
      }
    }
    return n;
  }

  bool release(int worker, std::size_t start) {
    Block& b = blocks_[start / block_];
    if (b.state != State::Leased || b.worker != worker) return false;
    b.state = State::Pending;  // the gate of the last orphaning stays
    b.worker = -1;
    b.probe = SIZE_MAX;
    return true;
  }

  BlockLedger::Deliver deliver_full(std::size_t i) {
    Block& b = blocks_[i];
    if (b.state == State::Ready || b.state == State::Folded) {
      return BlockLedger::Deliver::Duplicate;
    }
    b.state = State::Ready;
    b.worker = -1;
    b.probe = SIZE_MAX;
    return BlockLedger::Deliver::Accepted;
  }

  BlockLedger::Deliver deliver_probe(std::size_t i, std::size_t j) {
    Block& b = blocks_[i];
    if (b.state == State::Ready || b.state == State::Folded || b.pinned[j]) {
      return BlockLedger::Deliver::Duplicate;
    }
    b.pinned[j] = true;
    if (b.state == State::Leased && b.probe == j) {
      b.state = State::Pending;
      b.worker = -1;
      b.probe = SIZE_MAX;
      b.ready_at = 0.0;
    }
    finalize(b);
    return BlockLedger::Deliver::Accepted;
  }

  void fold() {
    while (next_fold_ < blocks_.size() && blocks_[next_fold_].state == State::Ready) {
      blocks_[next_fold_++].state = State::Folded;
    }
  }

 private:
  static void finalize(Block& b) {
    if (std::all_of(b.pinned.begin(), b.pinned.end(), [](bool p) { return p; })) {
      b.state = State::Ready;
    }
  }

  std::size_t cases_;
  std::size_t block_;
  BlockLedger::Options opts_;
  std::vector<Block> blocks_;
  std::size_t next_fold_ = 0;
};

TEST(BlockLedger, NextReadyMatchesAScanUnderRandomOperations) {
  BlockLedger::Options opts;
  opts.backoff_base_s = 0.25;
  opts.backoff_cap_s = 2.0;
  opts.suspect_after = 2;
  opts.probe_case_deaths = 2;
  constexpr std::size_t kCases = 47;  // 16 blocks of 3, the last one of 2
  constexpr std::size_t kBlock = 3;
  constexpr int kWorkers = 4;
  std::mt19937_64 rng(20231112);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  using State = LedgerModel::State;

  std::size_t ops = 0;
  std::size_t orphaned = 0;
  std::size_t probes = 0;
  std::size_t rounds = 0;
  while (ops < 12000) {
    BlockLedger ledger(kCases, kBlock, opts);
    LedgerModel model(kCases, kBlock, opts);
    double now = 0.0;
    ++rounds;
    while (!ledger.all_folded()) {
      ++ops;
      now += 0.1 * static_cast<double>(pick(4));
      const int worker = static_cast<int>(pick(kWorkers));
      std::vector<LedgerModel::Block>& blocks = model.blocks();
      const std::size_t op = pick(100);
      if (op < 40) {
        BlockLedger::Lease got;
        BlockLedger::Lease want;
        const bool leased = ledger.lease(worker, now, got);
        ASSERT_EQ(leased, model.lease(worker, now, want)) << "op " << ops;
        if (leased) {
          EXPECT_EQ(got.start, want.start);
          EXPECT_EQ(got.count, want.count);
          EXPECT_EQ(got.probe, want.probe);
          probes += got.probe ? 1 : 0;
        }
      } else if (op < 55) {
        const std::size_t n = ledger.orphan_worker(worker, now);
        ASSERT_EQ(n, model.orphan(worker, now)) << "op " << ops;
        orphaned += n;
      } else if (op < 65) {
        const std::size_t start = pick(kCases);
        ASSERT_EQ(ledger.release(worker, start), model.release(worker, start));
      } else if (op < 85) {
        // A probe result for a suspect block: mostly the case in flight,
        // sometimes a late or out-of-turn one.
        std::vector<std::size_t> suspects;
        for (std::size_t i = 0; i < blocks.size(); ++i) {
          if (blocks[i].suspect) suspects.push_back(i);
        }
        if (suspects.empty()) continue;
        const std::size_t i = suspects[pick(suspects.size())];
        const std::size_t j = blocks[i].probe != SIZE_MAX && pick(4) != 0
                                  ? blocks[i].probe
                                  : pick(blocks[i].pinned.size());
        const BlockLedger::Deliver want = model.deliver_probe(i, j);
        ASSERT_EQ(ledger.deliver(make_probe_rec(i * kBlock + j)), want);
      } else {
        // A whole-block record, preferring blocks that are running.
        std::size_t i = pick(blocks.size());
        for (std::size_t k = 0; k < blocks.size(); ++k) {
          if (blocks[(i + k) % blocks.size()].state == State::Leased) {
            i = (i + k) % blocks.size();
            break;
          }
        }
        const BlockLedger::Deliver want = model.deliver_full(i);
        ASSERT_EQ(ledger.deliver(make_rec(kCases, kBlock, i * kBlock)), want);
      }
      SweepBlock out;
      while (ledger.next_to_fold(out)) {
      }
      model.fold();
      ASSERT_EQ(ledger.next_ready_s(), model.next_ready()) << "op " << ops;
      ASSERT_EQ(ledger.pending(), model.count(State::Pending)) << "op " << ops;
      ASSERT_EQ(ledger.leased(), model.count(State::Leased)) << "op " << ops;
    }
  }
  // Every path the backoff set tracks was taken.
  EXPECT_GT(rounds, 1u);
  EXPECT_GT(orphaned, 100u);
  EXPECT_GT(probes, 100u);
}

TEST(BlockLedger, NextReadyStaysCheapAtAHundredThousandBlocks) {
  // The coordinator asks next_ready_s() once per poll-loop iteration, so
  // a scan over the ledger makes a sweep quadratic in its block count
  // (this loop took tens of seconds that way).
  constexpr std::size_t kBlocks = 100000;
  BlockLedger ledger(kBlocks, 1);
  BlockLedger::Lease ls;
  SweepBlock out;
  const double inf = std::numeric_limits<double>::infinity();
  std::size_t wrong = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (ledger.lease(0, 0.0, ls)) {
    ASSERT_EQ(ledger.deliver(make_rec(kBlocks, 1, ls.start)),
              BlockLedger::Deliver::Accepted);
    ASSERT_TRUE(ledger.next_to_fold(out));
    // Nothing ever backed off: ready now while anything is pending.
    wrong += ledger.next_ready_s() != (ledger.pending() > 0 ? 0.0 : inf) ? 1 : 0;
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_TRUE(ledger.all_folded());
  EXPECT_EQ(wrong, 0u);
  EXPECT_LT(elapsed_s, 5.0);
}

TEST(BlockLedger, SuspectBlockIsProbedAndThePoisonedCaseQuarantined) {
  BlockLedger::Options opts;
  opts.backoff_base_s = 1.0;
  opts.backoff_cap_s = 1.0;
  opts.suspect_after = 2;
  opts.probe_case_deaths = 2;
  BlockLedger ledger(4, 2, opts);  // blocks [0,2) and [2,4)
  BlockLedger::Lease ls;
  double now = 0.0;

  // Two whole-block orphanings turn block 0 suspect.
  for (int k = 0; k < 2; ++k) {
    ASSERT_TRUE(ledger.lease(1, now, ls));
    EXPECT_EQ(ls.start, 0u);
    EXPECT_FALSE(ls.probe);
    EXPECT_EQ(ledger.orphan_worker(1, now), 1u);
    now += 10.0;
  }
  EXPECT_EQ(ledger.suspects(), 1u);

  // Further leases of block 0 are single-case probes (one in flight);
  // the healthy block still leases whole alongside.
  ASSERT_TRUE(ledger.lease(1, now, ls));
  ASSERT_TRUE(ls.probe);
  EXPECT_EQ(ls.start, 0u);
  EXPECT_EQ(ls.count, 1u);
  ASSERT_TRUE(ledger.lease(2, now, ls));
  EXPECT_FALSE(ls.probe);
  EXPECT_EQ(ls.start, 2u);

  // Probe death #1 accuses case 0; death #2 quarantines it.
  EXPECT_EQ(ledger.orphan_worker(1, now), 1u);
  now += 10.0;
  ASSERT_TRUE(ledger.lease(3, now, ls));
  ASSERT_TRUE(ls.probe);
  EXPECT_EQ(ls.start, 0u);
  EXPECT_EQ(ledger.orphan_worker(3, now), 1u);
  EXPECT_EQ(ledger.probe_quarantined(), 1u);
  now += 10.0;

  // The surviving case is probed and pinned by a delivered record, which
  // completes the block: it folds as a synthesized record with the
  // poison quarantined and the survivor's exact metric bits.
  ASSERT_TRUE(ledger.lease(4, now, ls));
  ASSERT_TRUE(ls.probe);
  EXPECT_EQ(ls.start, 1u);
  EXPECT_EQ(ledger.deliver(make_probe_rec(1)), BlockLedger::Deliver::Accepted);

  SweepBlock out;
  ASSERT_TRUE(ledger.next_to_fold(out));
  EXPECT_EQ(out.start, 0u);
  ASSERT_EQ(out.cases.size(), 2u);
  EXPECT_FALSE(out.cases[0].ok);
  EXPECT_FALSE(out.cases[0].error.empty());
  EXPECT_TRUE(out.cases[1].ok);
  EXPECT_EQ(out.cases[1].metrics.total_carbon_t, 0.5);
  EXPECT_GE(ledger.probes_launched(), 3u);

  // Duplicate probe results for a pinned case are counted, not refolded.
  EXPECT_EQ(ledger.deliver(make_probe_rec(1)), BlockLedger::Deliver::Duplicate);
}

TEST(BlockLedger, BlocksBackInPendingAreLeasedAfterEverythingWasLeased) {
  // The in-process path leases every block in a row before any result
  // arrives. A block that later returns to Pending (released, orphaned,
  // or a suspect block whose probe came back) must still be leased, and
  // lowest start first.
  BlockLedger::Options opts;
  opts.suspect_after = 1;
  BlockLedger ledger(8, 2, opts);  // blocks [0,2), [2,4), [4,6), [6,8)
  const double inf = std::numeric_limits<double>::infinity();
  BlockLedger::Lease ls;
  for (std::size_t b = 0; b < 4; ++b) ASSERT_TRUE(ledger.lease(1, inf, ls));
  ASSERT_FALSE(ledger.lease(1, inf, ls));

  ASSERT_TRUE(ledger.release(1, 4));
  ASSERT_TRUE(ledger.lease(2, inf, ls));
  EXPECT_EQ(ls.start, 4u);
  EXPECT_FALSE(ledger.lease(2, inf, ls));

  // Worker 1 dies holding blocks 0, 2 and 6: each turns suspect and is
  // re-leased one probe at a time, lowest start first.
  EXPECT_EQ(ledger.orphan_worker(1, 0.0), 3u);
  ASSERT_TRUE(ledger.lease(3, inf, ls));
  EXPECT_TRUE(ls.probe);
  EXPECT_EQ(ls.start, 0u);
  ASSERT_TRUE(ledger.lease(3, inf, ls));
  EXPECT_EQ(ls.start, 2u);
  ASSERT_TRUE(ledger.lease(3, inf, ls));
  EXPECT_EQ(ls.start, 6u);
  EXPECT_FALSE(ledger.lease(3, inf, ls));

  // A delivered probe returns its block to Pending for the next probe.
  EXPECT_EQ(ledger.deliver(make_probe_rec(2)), BlockLedger::Deliver::Accepted);
  ASSERT_TRUE(ledger.lease(3, inf, ls));
  EXPECT_TRUE(ls.probe);
  EXPECT_EQ(ls.start, 3u);
}

TEST(BlockLedger, FalsePositiveSuspectSynthesizesWithoutQuarantine) {
  // A block whose workers died for unrelated reasons (OOM, chaos kills)
  // goes suspect, but every probe completes: the synthesized block must
  // be indistinguishable from an honest whole-block delivery.
  BlockLedger::Options opts;
  opts.backoff_base_s = 1.0;
  opts.backoff_cap_s = 1.0;
  opts.suspect_after = 1;
  BlockLedger ledger(2, 2, opts);  // a single block
  BlockLedger::Lease ls;
  double now = 0.0;

  ASSERT_TRUE(ledger.lease(0, now, ls));
  (void)ledger.orphan_worker(0, now);
  now += 10.0;
  EXPECT_EQ(ledger.suspects(), 1u);

  for (std::size_t flat = 0; flat < 2; ++flat) {
    ASSERT_TRUE(ledger.lease(0, now, ls));
    ASSERT_TRUE(ls.probe);
    EXPECT_EQ(ls.start, flat);
    EXPECT_EQ(ledger.deliver(make_probe_rec(flat)),
              BlockLedger::Deliver::Accepted);
  }

  SweepBlock out;
  ASSERT_TRUE(ledger.next_to_fold(out));
  EXPECT_EQ(out.start, 0u);
  ASSERT_EQ(out.cases.size(), 2u);
  EXPECT_TRUE(out.cases[0].ok);
  EXPECT_TRUE(out.cases[1].ok);
  EXPECT_EQ(out.digest_after, sweep_block_digest(out));
  EXPECT_EQ(ledger.probe_quarantined(), 0u);
  EXPECT_TRUE(ledger.all_folded());
}

TEST(BlockLedger, ProbeRecordForANonSuspectBlockIsRejected) {
  BlockLedger::Options opts;
  opts.suspect_after = 2;
  BlockLedger ledger(4, 2, opts);
  // A 1-case record for a block nobody declared suspect is structurally
  // wrong input, not a probe result.
  EXPECT_THROW((void)ledger.deliver(make_probe_rec(1)), InvalidArgument);
}

// --- SweepCoordinator -----------------------------------------------------

TEST(SweepCoordinator, InProcessPathMatchesTheEngineBitForBit) {
  const SweepGrid grid = small_grid();
  const SweepResult reference = SweepEngine().run(grid);

  SweepCoordinator::Options opts;
  opts.workers = 0;
  opts.block = 5;
  SweepCoordinator coord(std::move(opts));
  const SweepResult result = coord.run(grid);
  expect_equal_results(reference, result);
  EXPECT_FALSE(coord.stats().degraded_in_process);
  EXPECT_EQ(coord.stats().worker_deaths, 0u);
}

TEST(SweepCoordinator, InProcessPathRecordsBlockMetrics) {
  // The registry is process-global, so measure deltas across the run.
  const auto recorded = [] {
    const obs::StatSnapshot snap = obs::Registry::global().snapshot();
    const obs::HistogramSnapshot* h = snap.find_histogram("sweep.block_seconds");
    const std::uint64_t* cases = snap.find_counter("sweep.cases");
    return std::pair<std::uint64_t, std::uint64_t>{h != nullptr ? h->total() : 0,
                                                   cases != nullptr ? *cases : 0};
  };
  const SweepGrid grid = small_grid();
  SweepCoordinator::Options opts;
  opts.workers = 0;
  opts.block = 5;
  const auto before = recorded();
  const SweepResult result = SweepCoordinator(std::move(opts)).run(grid);
  const auto after = recorded();
  ASSERT_EQ(result.cases, 24u);
  EXPECT_EQ(after.first - before.first, 5u);  // ceil(24 / 5) blocks
  EXPECT_EQ(after.second - before.second, 24u);
}

TEST(SweepCoordinator, InProcessPathIsOnePoolTaskPerRun) {
  // With no suspect block, every pending block streams through one
  // ordered pool loop, as the engine's cases do.
  obs::Counter& tasks = obs::Registry::global().counter("pool.tasks");
  const SweepGrid grid = small_grid();
  util::ThreadPool pool(3);
  for (const std::size_t block : {1, 5, 24}) {
    SweepCoordinator::Options opts;
    opts.workers = 0;
    opts.block = block;
    opts.pool = &pool;
    const std::uint64_t before = tasks.value();
    (void)SweepCoordinator(std::move(opts)).run(grid);
    EXPECT_EQ(tasks.value() - before, 1u) << "block " << block;
  }
}

TEST(SweepCoordinator, ShardAppendFailureDegradesTheInProcessPath) {
  // A shard-journal I/O failure at the k-th append must not stop the
  // sweep: the digest is the engine's, one degradation is counted and
  // reported in Stats, and the shard keeps the k blocks written before.
  const SweepGrid grid = small_grid();
  const std::uint64_t reference = SweepEngine().run(grid).digest;
  obs::Counter& degraded = obs::Registry::global().counter("sweep.journal_io_degraded");
  const std::string dir = ::testing::TempDir() + "greenhpc_coord_shard_degrade";
  struct Disarm {
    ~Disarm() { util::FaultInjector::global().disarm(); }
  } disarm;
  for (const std::size_t k : {0, 2, 4}) {
    std::filesystem::remove_all(dir);
    util::FaultInjector::global().arm({{"journal.append", k, 1, util::FaultAction::Fail, 0}});
    const std::uint64_t before = degraded.value();
    SweepCoordinator::Options opts;
    opts.workers = 0;
    opts.block = 5;
    opts.journal_dir = dir;
    SweepCoordinator coord(std::move(opts));
    EXPECT_EQ(coord.run(grid).digest, reference) << "k " << k;
    util::FaultInjector::global().disarm();
    EXPECT_EQ(degraded.value() - before, 1u) << "k " << k;
    EXPECT_TRUE(coord.stats().journal_degraded) << "k " << k;
    const SweepJournal::ShardLoad load =
        SweepJournal::load_shards(dir, grid.config_digest(), grid.case_count());
    EXPECT_EQ(load.blocks.size(), k) << "k " << k;
  }
  std::filesystem::remove_all(dir);
}

TEST(SweepCoordinator, QuarantinedCasesAreIdenticalToTheEngines) {
  // The distributed path must reproduce not just the digest but the
  // QUARANTINE evidence: same failed cases, same coordinates, same error
  // text, regardless of which execution path ran the block.
  SweepGrid grid = small_grid();
  grid.policies.push_back(
      {"broken", []() -> std::unique_ptr<hpcsim::SchedulingPolicy> {
         throw std::runtime_error("deterministically down");
       }});
  SweepEngine::Options eopts;
  eopts.case_opts.case_retries = 0;
  eopts.case_opts.retry_backoff_base_s = 0.0;
  const SweepResult reference = SweepEngine(std::move(eopts)).run(grid);
  ASSERT_FALSE(reference.failed_cases.empty());

  SweepCoordinator::Options opts;
  opts.workers = 0;
  opts.block = 4;
  opts.case_opts.case_retries = 0;
  opts.case_opts.retry_backoff_base_s = 0.0;
  const SweepResult result = SweepCoordinator(std::move(opts)).run(grid);
  expect_equal_results(reference, result);
}

TEST(SweepCoordinator, SilentWorkersAreDeclaredDeadAndTheSweepDegrades) {
  // Workers that never speak the protocol (here: /bin/sleep) must be
  // caught by the hello deadline; with every worker dead the coordinator
  // degrades to in-process execution and still produces the exact result.
  const SweepGrid grid = small_grid();
  const SweepResult reference = SweepEngine().run(grid);

  SweepCoordinator::Options opts;
  opts.workers = 2;
  // Alive, silent, and immune to the trailing --shard-path/--block flags
  // the coordinator appends (sh -c consumes them as $0/$1...).
  opts.worker_argv = {"/bin/sh", "-c", "sleep 60"};
  opts.block = 6;
  opts.hello_timeout_s = 0.2;
  opts.heartbeat_timeout_s = 0.1;
  SweepCoordinator coord(std::move(opts));
  const SweepResult result = coord.run(grid);

  expect_equal_results(reference, result);
  const SweepCoordinator::Stats& stats = coord.stats();
  EXPECT_EQ(stats.worker_deaths, 2u);
  EXPECT_TRUE(stats.degraded_in_process);
  ASSERT_EQ(stats.workers.size(), 2u);
  EXPECT_TRUE(stats.workers[0].died);
  EXPECT_TRUE(stats.workers[1].died);
  EXPECT_EQ(stats.workers[0].blocks + stats.workers[1].blocks, 0u);
}

TEST(SweepCoordinator, InstantlyExitingWorkersDegradeViaEof) {
  const SweepGrid grid = small_grid();
  const SweepResult reference = SweepEngine().run(grid);

  SweepCoordinator::Options opts;
  opts.workers = 3;
  opts.worker_argv = {"/bin/true"};
  opts.block = 6;
  opts.hello_timeout_s = 5.0;  // EOF must beat this, not the deadline
  SweepCoordinator coord(std::move(opts));
  const SweepResult result = coord.run(grid);

  expect_equal_results(reference, result);
  EXPECT_EQ(coord.stats().worker_deaths, 3u);
  EXPECT_TRUE(coord.stats().degraded_in_process);
}

TEST(SweepCoordinator, UnspawnableWorkerBinaryIsADeathNotAFailure) {
  const SweepGrid grid = small_grid();
  const SweepResult reference = SweepEngine().run(grid);

  SweepCoordinator::Options opts;
  opts.workers = 2;
  opts.worker_argv = {"/no/such/binary/greenhpc-worker"};
  opts.block = 8;
  opts.hello_timeout_s = 0.5;
  SweepCoordinator coord(std::move(opts));
  const SweepResult result = coord.run(grid);

  expect_equal_results(reference, result);
  EXPECT_EQ(coord.stats().worker_deaths, 2u);
  EXPECT_TRUE(coord.stats().degraded_in_process);
}

TEST(SweepCoordinator, MissingWorkerArgvIsInvalid) {
  SweepCoordinator::Options opts;
  opts.workers = 2;
  EXPECT_THROW((void)SweepCoordinator(std::move(opts)).run(small_grid()),
               InvalidArgument);
}

TEST(SweepCoordinator, ResumesFromShardJournalsWithoutResimulating) {
  const SweepGrid grid = small_grid();  // 24 cases
  const SweepResult reference = SweepEngine().run(grid);
  const std::size_t block = 6;
  const SweepCaseRunner runner(grid);

  const std::string dir =
      ::testing::TempDir() + "greenhpc_coord_resume_shards";
  std::filesystem::remove_all(dir);  // shards from earlier runs
  // Simulate a previous coordinator generation: two workers journaled
  // blocks 0 and 12 (out of order w.r.t. each other) before dying.
  for (const std::size_t start : {std::size_t{12}, std::size_t{0}}) {
    SweepJournal shard = SweepJournal::create_shard(
        dir, SweepJournal::shard_file_name(0, "w" + std::to_string(start)),
        grid.config_digest(), grid.case_count(), block);
    SweepBlock rec;
    rec.start = start;
    rec.cases.resize(block);
    for (std::size_t i = 0; i < block; ++i) {
      rec.cases[i] = runner.run_case(start + i);
    }
    rec.digest_after = sweep_block_digest(rec);
    shard.append(rec);
  }

  SweepCoordinator::Options opts;
  opts.workers = 0;
  opts.block = 99;  // shards recorded 6; that must win
  opts.journal_dir = dir;
  opts.resume = true;
  SweepCoordinator coord(std::move(opts));
  const SweepResult result = coord.run(grid);

  expect_equal_results(reference, result);
  EXPECT_EQ(result.replayed_cases, 2 * block);
  EXPECT_EQ(coord.stats().replayed_blocks, 2u);
  EXPECT_EQ(coord.stats().shard_generation, 1);  // g0 survived; we are g1

  // A SECOND resume sees both the g0 shards and g1's coord shard — the
  // whole sweep is now proven, so nothing is simulated at all.
  SweepCoordinator::Options again;
  again.workers = 0;
  again.journal_dir = dir;
  again.resume = true;
  SweepCoordinator coord2(std::move(again));
  const SweepResult replay = coord2.run(grid);
  expect_equal_results(reference, replay);
  EXPECT_EQ(replay.replayed_cases, grid.case_count());
  EXPECT_EQ(coord2.stats().shard_generation, 2);
}

}  // namespace
}  // namespace greenhpc::core
