#pragma once
// Fault-tolerant distributed sweep: the worker side.
//
// A SweepWorker is one leased-block executor: it handshakes over its
// stdin/stdout pipes (`hello` carries its independently-derived config
// digest, so a mislaunched worker is rejected at connect), heartbeats
// from a side thread while simulating, and for each `assign` simulates
// the block with the SAME SweepCaseRunner the in-process engine uses,
// journals the completed record into its own shard file, and only then
// reports it — journal-before-report is what lets the coordinator treat
// a worker death after journaling as recoverable evidence rather than
// lost work. Assignments are served in arrival order, and each block is
// reported before the next `assign` is read: the coordinator may queue
// a second assign behind the running one, and releases it without a
// strike if the worker dies, because the worker never started it. EOF
// on stdin (coordinator died) or a `shutdown` verb ends the worker
// cleanly; it owns no state anyone needs to clean up.
//
// Observability shipping: unless disabled, the worker batches its
// process-local obs::Registry snapshot onto `stat` lines (one right
// after hello — the coordinator's clock anchor — then one per heartbeat
// and one at farewell; the registry is cumulative, so the farewell line
// alone carries the final rollup) and, when `ship_trace` is on, its
// cat=="fleet" trace events onto `trace` lines in batches: between
// blocks once a heartbeat interval has passed since the last batch or
// one more block could take it past 256 events, and once at farewell. Both
// ride the same LineWriter as heartbeats and block records, so shipped
// telemetry can never interleave bytes into the result stream, and the
// fold path ignores the new verbs entirely — shipping is digest-neutral
// by construction (the cli_sweep_distributed_digest ctest checks it).

#include <string>

#include "core/sweep.hpp"
#include "util/parallel.hpp"

namespace greenhpc::core {

class SweepWorker {
 public:
  struct Options {
    int in_fd = 0;   ///< assignment stream (coordinator -> worker)
    int out_fd = 1;  ///< report stream (worker -> coordinator)
    /// Heartbeat cadence; the coordinator's timeout should be a small
    /// multiple of this.
    double heartbeat_interval_s = 0.5;
    /// Shard journal file (`dir/shard-g<gen>-<tag>.journal`); empty =
    /// no journaling (results live only in the report stream).
    std::string shard_path;
    /// Cases per block; must match the coordinator's grid view.
    std::size_t block = 256;
    SweepCaseRunner::Options case_opts;
    /// Pool each assignment streams over; null = the process-global pool.
    util::ThreadPool* pool = nullptr;
    /// Ship obs::Registry snapshots on `stat` lines (anchor after hello,
    /// then per heartbeat and at farewell). Off only for overhead
    /// measurement — the lines are digest-neutral either way.
    bool ship_stats = true;
    /// Ship cat=="fleet" trace events on batched `trace` lines. The
    /// events are recorded directly (not via the process-global Tracer,
    /// which would also enable the costly per-tick simulator spans).
    /// The coordinator requests it (via the `--ship-trace` worker flag)
    /// when a fleet trace artifact was asked for.
    bool ship_trace = false;
  };

  explicit SweepWorker(Options opts);

  /// Serve assignments until shutdown/EOF. An assignment is a whole
  /// aligned block or a single-case probe (the coordinator's poison
  /// containment); probe results are reported but never shard-journaled.
  /// Returns the process exit code: 0 clean (shutdown, stdin EOF, or
  /// coordinator gone mid-write), 2 on a protocol violation from the
  /// coordinator, 3 on a grid the runner rejects. Exceptions inside a
  /// CASE never surface here — the runner quarantines them into the
  /// block record.
  [[nodiscard]] int run(const SweepGrid& grid);

 private:
  Options opts_;
};

}  // namespace greenhpc::core
