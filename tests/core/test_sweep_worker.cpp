#include "core/sweep_worker.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/sweep_journal.hpp"
#include "core/sweep_protocol.hpp"
#include "sched/easy_backfill.hpp"
#include "sched/fcfs.hpp"
#include "util/subprocess.hpp"

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
  grid.seed_replicas = 3;
  grid.policies.push_back(
      {"fcfs", [] { return std::make_unique<sched::FcfsScheduler>(); }});
  grid.policies.push_back(
      {"easy", [] { return std::make_unique<sched::EasyBackfillScheduler>(); }});
  return grid;  // 2 regions x 2 policies x 3 replicas = 12 cases
}

/// The coordinator side of a worker conversation, over real pipes with
/// the worker running on a thread — the in-process twin of the
/// fork/exec'd `sweep-worker` command.
class WorkerHarness {
 public:
  explicit WorkerHarness(SweepWorker::Options opts, const SweepGrid& grid) {
    EXPECT_EQ(::pipe(to_worker_), 0);
    EXPECT_EQ(::pipe(from_worker_), 0);
    opts.in_fd = to_worker_[0];
    opts.out_fd = from_worker_[1];
    in_ = std::make_unique<util::LineChannel>(from_worker_[0]);
    thread_ = std::thread(
        [this, opts = std::move(opts), &grid] { rc_ = SweepWorker(opts).run(grid); });
  }

  ~WorkerHarness() {
    close_stdin();
    if (thread_.joinable()) thread_.join();
    ::close(to_worker_[0]);
    ::close(from_worker_[0]);
    ::close(from_worker_[1]);
  }

  void close_stdin() {
    if (to_worker_[1] >= 0) {
      ::close(to_worker_[1]);
      to_worker_[1] = -1;
    }
  }

  bool send(const std::string& sealed_line) {
    return util::write_all(to_worker_[1], sealed_line + "\n");
  }

  /// Next control message from the worker, counting skipped heartbeats.
  /// Shipped stat/trace telemetry is skipped too — these tests pin the
  /// control conversation; test_obs_ship.cpp owns the obs plane.
  Message next_skipping_heartbeats() {
    std::string line;
    for (;;) {
      while (!in_->next_line(line)) {
        if (in_->fill() == util::LineChannel::Fill::Eof) return Message{};
      }
      const Message m = parse_message(line);
      if (m.kind == MsgKind::Heartbeat) {
        ++heartbeats_;
        continue;
      }
      if (m.kind == MsgKind::Stat || m.kind == MsgKind::Trace) continue;
      return m;
    }
  }

  int join() {
    if (thread_.joinable()) thread_.join();
    return rc_;
  }

  /// Count the heartbeats still sitting in the pipe (call after join).
  std::size_t drain_heartbeats() {
    std::string line;
    for (;;) {
      while (in_->next_line(line)) {
        if (parse_message(line).kind == MsgKind::Heartbeat) ++heartbeats_;
      }
      if (util::poll_readable({from_worker_[0]}, 0.0).empty()) break;
      if (in_->fill() == util::LineChannel::Fill::Eof) break;
    }
    return heartbeats_;
  }

  [[nodiscard]] std::size_t heartbeats() const { return heartbeats_; }

 private:
  int to_worker_[2] = {-1, -1};
  int from_worker_[2] = {-1, -1};
  std::unique_ptr<util::LineChannel> in_;
  std::thread thread_;
  std::size_t heartbeats_ = 0;
  int rc_ = -1;
};

TEST(SweepWorker, HelloAssignReportShutdownConversation) {
  const SweepGrid grid = small_grid();
  const SweepCaseRunner runner(grid, {});
  SweepWorker::Options opts;
  opts.block = 4;
  opts.heartbeat_interval_s = 0.02;
  WorkerHarness h(std::move(opts), grid);

  const Message hello = h.next_skipping_heartbeats();
  ASSERT_EQ(hello.kind, MsgKind::Hello);
  EXPECT_EQ(hello.config_digest, grid.config_digest());
  EXPECT_EQ(hello.cases, grid.case_count());
  EXPECT_EQ(hello.block_size, 4u);
  EXPECT_GT(hello.pid, 0);

  // Assign the last (short) block first, then the first — the worker
  // serves leases in whatever order the coordinator picks.
  ASSERT_TRUE(h.send(encode_assign(8, 4)));
  Message rec = h.next_skipping_heartbeats();
  ASSERT_EQ(rec.kind, MsgKind::Block);
  EXPECT_EQ(rec.block.start, 8u);
  ASSERT_EQ(rec.block.cases.size(), 4u);
  EXPECT_EQ(sweep_block_digest(rec.block), rec.block.digest_after);

  ASSERT_TRUE(h.send(encode_assign(0, 4)));
  rec = h.next_skipping_heartbeats();
  ASSERT_EQ(rec.kind, MsgKind::Block);
  EXPECT_EQ(rec.block.start, 0u);
  // The reported metrics are the runner's own, bit for bit.
  for (std::size_t i = 0; i < rec.block.cases.size(); ++i) {
    const SweepCaseOutcome expected = runner.run_case(i);
    ASSERT_TRUE(rec.block.cases[i].ok);
    EXPECT_EQ(rec.block.cases[i].metrics.total_carbon_t,
              expected.metrics.total_carbon_t);
    EXPECT_EQ(rec.block.cases[i].metrics.mean_wait_h, expected.metrics.mean_wait_h);
  }

  // Idle worker: heartbeats must keep flowing between assignments.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  ASSERT_TRUE(h.send(encode_shutdown()));
  EXPECT_EQ(h.join(), 0);
  EXPECT_GE(h.drain_heartbeats(), 1u);
}

TEST(SweepWorker, JournalsTheBlockBeforeReportingIt) {
  const SweepGrid grid = small_grid();
  const std::string dir = ::testing::TempDir() + "greenhpc_worker_shard";
  std::filesystem::remove_all(dir);

  SweepWorker::Options opts;
  opts.block = 6;
  opts.shard_path = dir + "/" + SweepJournal::shard_file_name(0, "w0");
  WorkerHarness h(std::move(opts), grid);
  ASSERT_EQ(h.next_skipping_heartbeats().kind, MsgKind::Hello);

  ASSERT_TRUE(h.send(encode_assign(6, 6)));
  const Message rec = h.next_skipping_heartbeats();
  ASSERT_EQ(rec.kind, MsgKind::Block);

  // The moment the report is visible, the shard already holds the record
  // (durability before visibility).
  const SweepJournal::ShardLoad load =
      SweepJournal::load_shards(dir, grid.config_digest(), grid.case_count());
  ASSERT_EQ(load.blocks.size(), 1u);
  EXPECT_EQ(load.blocks[0].start, 6u);
  EXPECT_EQ(load.blocks[0].digest_after, rec.block.digest_after);

  ASSERT_TRUE(h.send(encode_shutdown()));
  EXPECT_EQ(h.join(), 0);
}

TEST(SweepWorker, StdinEofIsACleanExit) {
  const SweepGrid grid = small_grid();
  WorkerHarness h(SweepWorker::Options{}, grid);
  ASSERT_EQ(h.next_skipping_heartbeats().kind, MsgKind::Hello);
  h.close_stdin();
  EXPECT_EQ(h.join(), 0);
}

TEST(SweepWorker, StdinEofExitsWellInsideOneHeartbeatInterval) {
  // Stop is notified right after the hello, often before the heartbeat
  // thread first waits; shutdown must not wait out an interval. A few
  // rounds, since that ordering is up to the thread scheduler.
  const SweepGrid grid = small_grid();
  SweepWorker::Options opts;
  opts.heartbeat_interval_s = 5.0;
  for (int round = 0; round < 3; ++round) {
    WorkerHarness h(opts, grid);
    ASSERT_EQ(h.next_skipping_heartbeats().kind, MsgKind::Hello);
    const auto t0 = std::chrono::steady_clock::now();
    h.close_stdin();
    EXPECT_EQ(h.join(), 0);
    EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count(),
              1.0)
        << "round " << round;
  }
}

TEST(SweepWorker, MalformedCoordinatorLineExits2) {
  const SweepGrid grid = small_grid();
  WorkerHarness h(SweepWorker::Options{}, grid);
  ASSERT_EQ(h.next_skipping_heartbeats().kind, MsgKind::Hello);
  ASSERT_TRUE(h.send("complete garbage, no seal"));
  EXPECT_EQ(h.join(), 2);
}

TEST(SweepWorker, MisalignedAssignmentExits2) {
  const SweepGrid grid = small_grid();
  SweepWorker::Options opts;
  opts.block = 4;
  WorkerHarness h(std::move(opts), grid);
  ASSERT_EQ(h.next_skipping_heartbeats().kind, MsgKind::Hello);
  ASSERT_TRUE(h.send(encode_assign(2, 4)));  // not on the block grid
  EXPECT_EQ(h.join(), 2);
}

TEST(SweepWorker, WrongCountAssignmentExits2) {
  const SweepGrid grid = small_grid();  // 12 cases
  SweepWorker::Options opts;
  opts.block = 8;
  WorkerHarness h(std::move(opts), grid);
  ASSERT_EQ(h.next_skipping_heartbeats().kind, MsgKind::Hello);
  ASSERT_TRUE(h.send(encode_assign(8, 8)));  // tail block holds only 4
  EXPECT_EQ(h.join(), 2);
}

TEST(SweepWorker, GridTheRunnerRejectsExits3) {
  SweepGrid empty;  // no policies: SweepCaseRunner refuses it
  WorkerHarness h(SweepWorker::Options{}, empty);
  EXPECT_EQ(h.join(), 3);
}

}  // namespace
}  // namespace greenhpc::core
