// Observability-plane shipping tests: stat/trace wire round-trips, the
// drop-and-count contract for defective obs lines, and — under tsan —
// several in-process workers shipping concurrent snapshot batches while
// the fold stays bit-identical. Fixture names start with "SweepObsShip"
// on purpose: the CI tsan job runs test_core with
// --gtest_filter='Sweep*:ScenarioRunner*', and these are exactly the
// tests whose value doubles under the race detector.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/sweep_coordinator.hpp"
#include "core/sweep_protocol.hpp"
#include "core/sweep_worker.hpp"
#include "obs/fleet.hpp"
#include "obs/metrics.hpp"
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

/// A delivered block record is whole, its block-local digest re-folds,
/// and every case is bit-identical to the serial reference runner.
void expect_block_matches_runner(const SweepBlock& block, std::size_t count,
                                 const SweepCaseRunner& runner) {
  EXPECT_EQ(sweep_block_digest(block), block.digest_after);
  ASSERT_EQ(block.cases.size(), count);
  for (std::size_t i = 0; i < count; ++i) {
    const SweepCaseOutcome expected = runner.run_case(block.start + i);
    ASSERT_TRUE(block.cases[i].ok);
    EXPECT_EQ(block.cases[i].metrics.total_carbon_t,
              expected.metrics.total_carbon_t);
    EXPECT_EQ(block.cases[i].metrics.mean_wait_h, expected.metrics.mean_wait_h);
    EXPECT_EQ(block.cases[i].metrics.utilization, expected.metrics.utilization);
  }
}

// --- wire round-trips -----------------------------------------------------

TEST(SweepObsShipProtocol, StatLineRoundTripsSnapshotBitExactly) {
  obs::StatSnapshot snap;
  snap.counters = {{"sim.jobs_started", 12345u},
                   {"sweep.case_retries", 0u},
                   {"weird name\twith\nws|pipe", 7u}};
  // Doubles ship as exact 64-bit patterns: values with no short decimal
  // form must survive unchanged.
  snap.gauges = {{"sweep.cases_per_s", 0.1},
                 {"g.negative", -3.75},
                 {"g.tiny", 1e-300}};
  obs::HistogramSnapshot h;
  h.name = "sweep.block_seconds";
  h.bounds = {1e-3, 1e-2, 0.1, 1.0, 10.0};
  h.counts = {0, 3, 11, 2, 0, 1};  // bounds+1, last = overflow
  h.sum = 1.875;
  snap.histograms = {h};

  const std::string line = encode_stat(4242, 987654321u, snap);
  const Message m = parse_message(line);
  ASSERT_EQ(m.kind, MsgKind::Stat);
  EXPECT_EQ(m.pid, 4242);
  EXPECT_EQ(m.remote_now_ns, 987654321u);
  ASSERT_EQ(m.stats.counters.size(), snap.counters.size());
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    EXPECT_EQ(m.stats.counters[i].first, snap.counters[i].first);
    EXPECT_EQ(m.stats.counters[i].second, snap.counters[i].second);
  }
  ASSERT_EQ(m.stats.gauges.size(), snap.gauges.size());
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    EXPECT_EQ(m.stats.gauges[i].first, snap.gauges[i].first);
    EXPECT_EQ(m.stats.gauges[i].second, snap.gauges[i].second);
  }
  ASSERT_EQ(m.stats.histograms.size(), 1u);
  const obs::HistogramSnapshot& rh = m.stats.histograms[0];
  EXPECT_EQ(rh.name, h.name);
  EXPECT_EQ(rh.bounds, h.bounds);
  EXPECT_EQ(rh.counts, h.counts);
  EXPECT_EQ(rh.sum, h.sum);
}

TEST(SweepObsShipProtocol, TraceLineRoundTripsEventBatch) {
  std::vector<obs::RemoteTraceEvent> events(3);
  events[0].name = "worker.block";
  events[0].cat = "fleet";
  events[0].tid = 2;
  events[0].phase = 'X';
  events[0].ts_ns = 1000;
  events[0].dur_ns = 250;
  events[1].name = "worker.assign";
  events[1].cat = "fleet";
  events[1].phase = 'i';
  events[1].ts_ns = 900;
  events[1].value = 512.0;
  events[2].name = "queue depth";
  events[2].cat = "fleet";
  events[2].phase = 'C';
  events[2].ts_ns = 1100;
  events[2].value = 0.125;

  const std::string line = encode_trace(77, 555u, 9u, events);
  const Message m = parse_message(line);
  ASSERT_EQ(m.kind, MsgKind::Trace);
  EXPECT_EQ(m.pid, 77);
  EXPECT_EQ(m.remote_now_ns, 555u);
  EXPECT_EQ(m.trace_dropped, 9u);
  ASSERT_EQ(m.trace_events.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(m.trace_events[i].name, events[i].name) << i;
    EXPECT_EQ(m.trace_events[i].cat, events[i].cat) << i;
    EXPECT_EQ(m.trace_events[i].tid, events[i].tid) << i;
    EXPECT_EQ(m.trace_events[i].phase, events[i].phase) << i;
    EXPECT_EQ(m.trace_events[i].ts_ns, events[i].ts_ns) << i;
    EXPECT_EQ(m.trace_events[i].dur_ns, events[i].dur_ns) << i;
    EXPECT_EQ(m.trace_events[i].value, events[i].value) << i;
  }
}

TEST(SweepObsShipProtocol, DefectiveObsLinesAreRejectedNeverFatal) {
  obs::StatSnapshot snap;
  snap.counters = {{"sweep.case_retries", 3u}};
  const std::string stat_line = encode_stat(1, 2, snap);
  const std::string trace_line = encode_trace(1, 2, 0, {});

  // Any truncation that keeps the verb prefix must classify as
  // ObsRejected (the seal check fails), never Malformed: telemetry is
  // not allowed to kill the connection that ships it.
  for (std::size_t len = 5; len < stat_line.size(); ++len) {
    EXPECT_EQ(parse_message(stat_line.substr(0, len)).kind,
              MsgKind::ObsRejected)
        << "truncated at " << len;
  }
  for (std::size_t len = 6; len < trace_line.size(); ++len) {
    EXPECT_EQ(parse_message(trace_line.substr(0, len)).kind,
              MsgKind::ObsRejected)
        << "truncated at " << len;
  }
  // A flipped byte mid-payload breaks the seal: same classification.
  std::string corrupt = stat_line;
  corrupt[stat_line.size() / 2] ^= 0x20;
  EXPECT_EQ(parse_message(corrupt).kind, MsgKind::ObsRejected);
  // Unsealed garbage that merely claims the verb.
  EXPECT_EQ(parse_message("stat garbage").kind, MsgKind::ObsRejected);
  EXPECT_EQ(parse_message("trace 123 nope").kind, MsgKind::ObsRejected);
  // Control-plane lines keep their strict contract: defects stay fatal.
  const std::string assign = encode_assign(0, 4);
  EXPECT_EQ(parse_message(assign.substr(0, assign.size() - 1)).kind,
            MsgKind::Malformed);
  EXPECT_EQ(parse_message("hello garbage").kind, MsgKind::Malformed);
  // And intact obs lines still parse.
  EXPECT_EQ(parse_message(stat_line).kind, MsgKind::Stat);
  EXPECT_EQ(parse_message(trace_line).kind, MsgKind::Trace);
}

// --- worker shipping ------------------------------------------------------

/// WorkerHarness twin that counts and skips shipped stat/trace lines in
/// addition to heartbeats (see test_sweep_worker.cpp for the original),
/// merging trace batches into a one-lane FleetTrace as the coordinator
/// would.
class ShipHarness {
 public:
  ShipHarness(SweepWorker::Options opts, const SweepGrid& grid) {
    EXPECT_EQ(::pipe(to_worker_), 0);
    EXPECT_EQ(::pipe(from_worker_), 0);
    opts.in_fd = to_worker_[0];
    opts.out_fd = from_worker_[1];
    in_ = std::make_unique<util::LineChannel>(from_worker_[0]);
    thread_ = std::thread(
        [this, opts = std::move(opts), &grid] { rc_ = SweepWorker(opts).run(grid); });
  }

  ~ShipHarness() {
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

  /// Next hello/block message; heartbeats and obs lines are counted and
  /// skipped, and the last stat payload is kept for inspection.
  Message next_control() {
    std::string line;
    for (;;) {
      while (!in_->next_line(line)) {
        if (in_->fill() == util::LineChannel::Fill::Eof) return Message{};
      }
      Message m = parse_message(line);
      if (absorb(m)) continue;
      EXPECT_NE(m.kind, MsgKind::ObsRejected);  // workers never ship junk
      return m;
    }
  }

  /// Count the obs lines still sitting in the pipe (call after join).
  void drain() {
    std::string line;
    for (;;) {
      while (in_->next_line(line)) {
        Message m = parse_message(line);
        (void)absorb(m);
      }
      if (util::poll_readable({from_worker_[0]}, 0.0).empty()) break;
      if (in_->fill() == util::LineChannel::Fill::Eof) break;
    }
  }

  int join() {
    if (thread_.joinable()) thread_.join();
    return rc_;
  }

  [[nodiscard]] std::size_t stat_batches() const { return stat_batches_; }
  [[nodiscard]] std::size_t trace_batches() const { return trace_batches_; }
  [[nodiscard]] std::size_t max_trace_batch() const { return max_trace_batch_; }
  [[nodiscard]] const Message& first_stat() const { return first_stat_; }
  [[nodiscard]] const Message& last_stat() const { return last_stat_; }
  [[nodiscard]] const std::vector<obs::RemoteTraceEvent>& fleet_events() const {
    return fleet_.events(lane_);
  }

 private:
  /// Count (and merge) a heartbeat or obs line; false for anything else.
  bool absorb(Message& m) {
    switch (m.kind) {
      case MsgKind::Heartbeat:
        return true;
      case MsgKind::Stat:
        if (stat_batches_++ == 0) first_stat_ = m;
        fleet_.align(lane_, m.remote_now_ns, obs::Tracer::now_ns());
        last_stat_ = std::move(m);
        return true;
      case MsgKind::Trace:
        ++trace_batches_;
        max_trace_batch_ = std::max(max_trace_batch_, m.trace_events.size());
        fleet_.align(lane_, m.remote_now_ns, obs::Tracer::now_ns());
        fleet_.add_events(lane_, m.trace_events);
        return true;
      default:
        return false;
    }
  }

  int to_worker_[2] = {-1, -1};
  int from_worker_[2] = {-1, -1};
  std::unique_ptr<util::LineChannel> in_;
  std::thread thread_;
  std::size_t stat_batches_ = 0;
  std::size_t trace_batches_ = 0;
  std::size_t max_trace_batch_ = 0;
  Message first_stat_;
  Message last_stat_;
  obs::FleetTrace fleet_;
  int lane_ = fleet_.add_lane(1, "worker");
  int rc_ = -1;
};

/// Samples in a stat line's sweep.block_seconds histogram (0 before the
/// process ran its first block).
std::uint64_t block_samples(const Message& stat) {
  const obs::HistogramSnapshot* h = stat.stats.find_histogram("sweep.block_seconds");
  return h != nullptr ? h->total() : 0;
}

TEST(SweepObsShipWorker, ShipsOnlyTheAnchorAndFarewellStatsBetweenHeartbeats) {
  const SweepGrid grid = small_grid();  // 12 cases -> blocks 0/4/8
  SweepWorker::Options opts;
  opts.block = 4;
  opts.heartbeat_interval_s = 10.0;  // keep heartbeat stats out
  util::ThreadPool pool(2);
  opts.pool = &pool;
  ShipHarness h(std::move(opts), grid);

  const Message hello = h.next_control();
  ASSERT_EQ(hello.kind, MsgKind::Hello);
  for (const std::size_t start : {0u, 4u, 8u}) {
    ASSERT_TRUE(h.send(encode_assign(start, 4)));
    const Message rec = h.next_control();
    ASSERT_EQ(rec.kind, MsgKind::Block);
    EXPECT_EQ(rec.block.start, start);
  }
  // Blocks ship no stat line: only the anchor (right after hello) has
  // passed by the time the third record is visible...
  EXPECT_EQ(h.stat_batches(), 1u);
  ASSERT_TRUE(h.send(encode_shutdown()));
  EXPECT_EQ(h.join(), 0);
  h.drain();
  // ...and the farewell snapshot is the only other one.
  EXPECT_EQ(h.stat_batches(), 2u);
  const Message& anchor = h.first_stat();
  const Message& farewell = h.last_stat();
  ASSERT_EQ(farewell.kind, MsgKind::Stat);
  EXPECT_EQ(farewell.pid, hello.pid);
  EXPECT_GT(farewell.remote_now_ns, anchor.remote_now_ns);
  // The registry is cumulative, so the farewell alone carries every
  // block's latency sample (the registry is process-wide, hence the
  // difference to the anchor).
  EXPECT_EQ(block_samples(farewell) - block_samples(anchor), 3u);
}

TEST(SweepObsShipWorker, NoShipStatsKeepsTheWireFreeOfObsLines) {
  const SweepGrid grid = small_grid();
  SweepWorker::Options opts;
  opts.block = 4;
  opts.ship_stats = false;
  util::ThreadPool pool(2);
  opts.pool = &pool;
  ShipHarness h(std::move(opts), grid);
  ASSERT_EQ(h.next_control().kind, MsgKind::Hello);
  ASSERT_TRUE(h.send(encode_assign(0, 4)));
  ASSERT_EQ(h.next_control().kind, MsgKind::Block);
  ASSERT_TRUE(h.send(encode_shutdown()));
  EXPECT_EQ(h.join(), 0);
  h.drain();
  EXPECT_EQ(h.stat_batches(), 0u);
  EXPECT_EQ(h.trace_batches(), 0u);
}

// The tsan anchor: three in-process workers simulate concurrently while
// their heartbeat threads snapshot the (shared, process-global) registry
// and ship stat batches. Shipping must corrupt neither the registry nor
// the results: every delivered case stays bit-identical to the serial
// reference runner, exactly as the digest-neutrality argument claims.
TEST(SweepObsShipWorker, ConcurrentShippingWorkersStayBitIdentical) {
  const SweepGrid grid = small_grid();  // 12 cases -> blocks 0/4/8
  const SweepCaseRunner runner(grid);
  constexpr std::size_t kWorkers = 3;

  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  std::vector<std::unique_ptr<ShipHarness>> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    pools.push_back(std::make_unique<util::ThreadPool>(2));
    SweepWorker::Options opts;
    opts.block = 4;
    opts.heartbeat_interval_s = 0.005;  // hammer the snapshot path
    opts.pool = pools.back().get();
    workers.push_back(std::make_unique<ShipHarness>(std::move(opts), grid));
  }
  for (auto& w : workers) ASSERT_EQ(w->next_control().kind, MsgKind::Hello);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    ASSERT_TRUE(workers[w]->send(encode_assign(w * 4, 4)));
  }
  for (std::size_t w = 0; w < kWorkers; ++w) {
    const Message rec = workers[w]->next_control();
    ASSERT_EQ(rec.kind, MsgKind::Block);
    EXPECT_EQ(rec.block.start, w * 4);
    expect_block_matches_runner(rec.block, 4, runner);
  }
  for (auto& w : workers) ASSERT_TRUE(w->send(encode_shutdown()));
  for (auto& w : workers) EXPECT_EQ(w->join(), 0);
  for (auto& w : workers) {
    w->drain();
    EXPECT_GE(w->stat_batches(), 1u);  // at least the anchor snapshot
  }
}

// Lease pipelining rests on this contract: a worker handed a second
// assign before it reported the first serves both in grant order, each
// record whole and exactly what the serial runner computes.
TEST(SweepObsShipWorker, BackToBackAssignsAreServedInGrantOrder) {
  const SweepGrid grid = small_grid();  // 12 cases
  const SweepCaseRunner runner(grid);
  SweepWorker::Options opts;
  opts.block = 4;
  util::ThreadPool pool(2);
  opts.pool = &pool;
  ShipHarness h(std::move(opts), grid);
  ASSERT_EQ(h.next_control().kind, MsgKind::Hello);

  const std::size_t granted[] = {8, 0};
  for (const std::size_t start : granted) {
    ASSERT_TRUE(h.send(encode_assign(start, 4)));
  }
  for (const std::size_t start : granted) {
    const Message rec = h.next_control();
    ASSERT_EQ(rec.kind, MsgKind::Block);
    EXPECT_EQ(rec.block.start, start);
    expect_block_matches_runner(rec.block, 4, runner);
  }
  ASSERT_TRUE(h.send(encode_shutdown()));
  EXPECT_EQ(h.join(), 0);
}

// Batched trace shipping loses nothing: with the heartbeat cadence out
// of reach, only the batch cap and the farewell flush ship spans, and
// every block's span still arrives exactly once, in order.
TEST(SweepObsShipWorker, BatchedTraceShipsEverySpanWithinTheCap) {
  SweepGrid grid = small_grid();
  grid.seed_replicas = 75;  // 2 regions x 2 policies x 75 = 300 cases
  const std::size_t n = grid.case_count();
  ASSERT_EQ(n, 300u);
  SweepWorker::Options opts;
  opts.block = 1;
  opts.ship_trace = true;
  opts.heartbeat_interval_s = 10.0;
  util::ThreadPool pool(2);
  opts.pool = &pool;
  ShipHarness h(std::move(opts), grid);
  ASSERT_EQ(h.next_control().kind, MsgKind::Hello);

  for (std::size_t start = 0; start < n; ++start) {
    ASSERT_TRUE(h.send(encode_assign(start, 1)));
    const Message rec = h.next_control();
    ASSERT_EQ(rec.kind, MsgKind::Block);
    ASSERT_EQ(rec.block.start, start);
  }
  ASSERT_TRUE(h.send(encode_shutdown()));
  EXPECT_EQ(h.join(), 0);
  h.drain();

  EXPECT_GE(h.trace_batches(), 3u);  // two full batches, then the farewell
  EXPECT_LE(h.max_trace_batch(), 256u);
  std::size_t block_spans = 0;
  std::uint64_t last_ts = 0;
  for (const obs::RemoteTraceEvent& e : h.fleet_events()) {
    if (e.name == "worker.block") {
      EXPECT_EQ(e.phase, 'X');
      ++block_spans;
    }
    EXPECT_GE(e.ts_ns, last_ts) << "lane timestamps went backwards";
    last_ts = e.ts_ns;
  }
  EXPECT_EQ(block_spans, n);
}

// --- coordinator end to end -----------------------------------------------

TEST(SweepObsShipCoordinator, GarbageObsLinesAreCountedAndTheSweepCompletes) {
  // A "worker" that speaks nothing but a defective stat line: the
  // coordinator must drop and count it (and dump a postmortem), then
  // declare the worker dead at the hello deadline, degrade in-process,
  // and still produce the exact result — telemetry can never poison a
  // run.
  const SweepGrid grid = small_grid();
  const SweepResult reference = SweepEngine().run(grid);

  const std::string dir = ::testing::TempDir() + "greenhpc_obs_ship_pm";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  SweepCoordinator::Options opts;
  opts.workers = 1;
  // sh -c consumes the trailing --shard-path/--block flags as $0/$1...
  opts.worker_argv = {"/bin/sh", "-c", "echo 'stat garbage'; sleep 60"};
  opts.block = 6;
  opts.hello_timeout_s = 0.3;
  opts.heartbeat_timeout_s = 0.1;
  opts.postmortem_dir = dir;
  SweepCoordinator coord(std::move(opts));
  const SweepResult result = coord.run(grid);

  EXPECT_EQ(result.digest, reference.digest);
  const SweepCoordinator::Stats& stats = coord.stats();
  EXPECT_GE(stats.obs_lines_rejected, 1u);
  EXPECT_EQ(stats.worker_deaths, 1u);
  EXPECT_TRUE(stats.degraded_in_process);
  EXPECT_GE(stats.postmortems_written, 1u);
  ASSERT_EQ(stats.workers.size(), 1u);
  EXPECT_FALSE(stats.workers[0].postmortem_path.empty());
  EXPECT_TRUE(std::filesystem::exists(stats.workers[0].postmortem_path));
}

TEST(SweepObsShipCoordinator, ShippingOnAndOffFoldToTheSameDigest) {
  // The ship_stats switch must be invisible to the fold. With the
  // default workers = 0 every block runs in process and nothing is
  // shipped, so this only pins the switch as inert on that path; the
  // cli_sweep_distributed_digest ctest runs real workers with shipping
  // on and off.
  const SweepGrid grid = small_grid();
  SweepCoordinator::Options on;
  on.block = 6;
  SweepCoordinator::Options off;
  off.block = 6;
  off.ship_stats = false;
  const SweepResult a = SweepCoordinator(std::move(on)).run(grid);
  const SweepResult b = SweepCoordinator(std::move(off)).run(grid);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(SweepEngine().run(grid).digest, a.digest);
}

}  // namespace
}  // namespace greenhpc::core
