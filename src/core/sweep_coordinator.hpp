#pragma once
// Fault-tolerant distributed sweep: the coordinator side.
//
// SweepCoordinator shards a sweep's blocks across N worker PROCESSES
// (fork/exec of the CLI's hidden `sweep-worker` command, local pipe
// transport) and folds their digest-verified block records into one
// SweepResult. The process boundary is the fault model: a worker that
// crashes, hangs, is OOM-killed or `kill -9`ed is detected (EOF on its
// pipe, missed heartbeats, or an expired lease), its running block is
// returned to the pool under capped exponential backoff, and the sweep
// continues. If EVERY worker dies the coordinator degrades to running
// the remaining blocks in-process — a distributed sweep can end slower,
// never wrong and never empty-handed.
//
// Leases are pipelined two deep: while every worker is busy, the ledger
// keeps a block per live worker and no block is suspect, each worker
// holds a second lease queued behind its running one, so it starts its
// next block without waiting a round trip through the coordinator. A
// queued lease becomes the running one (deadlines and lease span start
// then) when its predecessor's record arrives; a worker that dies
// returns it without a strike, because it never started it.
//
// Digest identity is the core invariant: the fold consumes blocks in
// flat case order (BlockLedger releases them contiguously), each block's
// record carries its block-local FNV digest verified on receipt, and
// simulation itself is the same SweepCaseRunner the in-process engine
// uses. The result digest is therefore bit-identical to a single-process
// run for ANY worker count and ANY failure/kill schedule — enforced by
// tests and the CI distributed-sweep job.
//
// Recovery composes with the journal layer: workers journal completed
// blocks into per-worker shard files (see SweepJournal shard mode), and
// a RESTARTED coordinator seeds its ledger from the union of surviving
// shards, so even coordinator death loses at most in-flight blocks.
//
// Observability plane: workers ship registry snapshots (`stat`) and
// cat=="fleet" trace batches (`trace`) over the same sealed pipe; the
// coordinator aligns each worker's clock at its first obs line, folds
// the payloads into per-worker rollups (cases/s, retries, quarantines,
// heartbeat RTT histograms) and — when `fleet_trace_path` is set — a
// single merged Chrome trace with one process lane per worker plus its
// own control-plane lane. A per-worker flight recorder keeps the last
// few hundred protocol/ledger events; it is dumped as a postmortem
// JSONL artifact into `postmortem_dir` when the worker dies, when it
// ships a malformed obs line, and (for the coordinator's own recorder)
// when a restarted coordinator reseeds from shards. None of it touches
// the fold path, so every digest stays bit-identical with shipping on.

#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/sweep.hpp"
#include "util/parallel.hpp"

namespace greenhpc::core {

/// The coordinator's assignment state machine, one entry per block:
///
///   Pending --lease()--> Leased --deliver()--> Ready --next_to_fold()--> Folded
///      ^                    |
///      +---orphan_worker()--+   (backoff: base * 2^orphanings, capped)
///      +------release()-----+   (a lease never started: no strike, no backoff)
///
/// Pure bookkeeping over synthetic double-seconds timestamps — no I/O,
/// no real clock — so every failure schedule is unit-testable without
/// sleeping. deliver() accepts records from ANY source (worker message,
/// shard replay, in-process fallback) and deduplicates at-least-once
/// delivery into exactly-once folding, keyed by block start + digest.
///
/// POISON CONTAINMENT: a block whose workers keep dying would otherwise
/// be reassigned forever (capped backoff, unbounded attempts) and — once
/// it has killed the whole fleet — crash into the in-process fallback
/// too. With `suspect_after` set, a block orphaned that many times is
/// declared SUSPECT and is no longer handed out whole: lease() bisects
/// it into single-case PROBE leases (one in flight per suspect block).
/// A probe that completes pins its case's outcome; a probe whose worker
/// dies accuses exactly one case, and at `probe_case_deaths` accusations
/// the case is quarantined (an ok=false outcome that folds into
/// SweepResult::failed_cases, never into the digest). When every case of
/// a suspect block is pinned, the ledger synthesizes the block record
/// and folding proceeds exactly as if a worker had delivered it — the
/// fleet stays alive and the sweep terminates with the poison named.
class BlockLedger {
 public:
  struct Options {
    /// Reassignment backoff for a block orphaned k times: base * 2^k,
    /// capped. Spaces out retries of a block that keeps killing its
    /// workers instead of hot-looping the fleet into it.
    double backoff_base_s = 0.25;
    double backoff_cap_s = 5.0;
    /// Orphanings of the SAME block before it is declared suspect and
    /// further leases become single-case probes. 0 = containment off
    /// (a block is retried whole forever — the pre-containment
    /// semantics).
    int suspect_after = 0;
    /// Probe-worker deaths on the SAME case before it is quarantined.
    int probe_case_deaths = 2;
  };

  BlockLedger(std::size_t cases, std::size_t block, Options opts);
  BlockLedger(std::size_t cases, std::size_t block);

  /// One granted assignment: a whole block, or a single-case probe of a
  /// suspect block (`count == 1`, `start` an arbitrary flat case id).
  struct Lease {
    std::size_t start = 0;
    std::size_t count = 0;
    bool probe = false;
  };

  /// Lease the lowest pending block whose backoff has elapsed to
  /// `worker` (a single-case probe when that block is suspect); false
  /// when none is leasable right now.
  bool lease(int worker, double now_s, Lease& out);

  /// Return every block leased to `worker` to Pending with backoff
  /// (the worker died or hung). A probe lease accuses its single case
  /// (see class comment). Returns how many leases were orphaned.
  std::size_t orphan_worker(int worker, double now_s);

  /// Return the lease `worker` holds on the block starting at `start` to
  /// Pending with no orphaning counted and no backoff: the coordinator
  /// releases a queued lease its dead worker never started, before
  /// orphan_worker() strikes the one it was running. False when
  /// `worker` holds no such lease.
  bool release(int worker, std::size_t start);

  enum class Deliver { Accepted, Duplicate };

  /// Accept a completed block record. Validates alignment, size and the
  /// block-local digest re-fold (InvalidArgument on a structurally wrong
  /// record — the transport checksum already passed, so this is a logic
  /// bug or forged input, not line noise). A record for an
  /// already-delivered block is a Duplicate when the digests agree and
  /// an InvalidArgument when they differ: duplicate delivery is normal
  /// under at-least-once semantics, disagreement is nondeterminism.
  /// A single-case record is a PROBE result and is only accepted for a
  /// suspect block; it pins that case and, once every case of the block
  /// is pinned, promotes the synthesized block to Ready.
  Deliver deliver(const SweepBlock& rec);

  /// Pop the next block in FLAT CASE ORDER if it is Ready — the gate
  /// that makes out-of-order completion fold deterministically. False
  /// while the next-to-fold block is still outstanding.
  bool next_to_fold(SweepBlock& out);

  [[nodiscard]] bool all_folded() const { return folded_blocks_ == states_.size(); }
  /// Blocks currently assignable or in backoff.
  [[nodiscard]] std::size_t pending() const { return pending_; }
  [[nodiscard]] std::size_t leased() const { return leased_; }
  [[nodiscard]] std::size_t duplicates() const { return duplicates_; }
  /// Earliest `ready_at` over the pending blocks (for the event loop's
  /// poll timeout): 0 while a pending block never backed off, +infinity
  /// when nothing is pending. O(1): only blocks in backoff are kept
  /// ordered, so the poll loop never scans the ledger.
  [[nodiscard]] double next_ready_s() const;
  [[nodiscard]] std::size_t block() const { return block_; }
  [[nodiscard]] std::size_t cases() const { return cases_; }
  // Poison-containment accounting.
  [[nodiscard]] std::size_t suspects() const { return suspect_blocks_; }
  [[nodiscard]] std::size_t probes_launched() const { return probes_launched_; }
  [[nodiscard]] std::size_t probe_quarantined() const {
    return probe_quarantined_;
  }

 private:
  enum class State { Pending, Leased, Ready, Folded };
  static constexpr std::size_t kNoProbe = static_cast<std::size_t>(-1);
  struct Entry {
    State state = State::Pending;
    int worker = -1;
    int orphanings = 0;
    double ready_at_s = 0.0;    ///< backoff gate while Pending
    std::uint64_t digest = 0;   ///< block-local digest once Ready/Folded
    SweepBlock record;          ///< payload once Ready (cleared on fold)
    // Suspect-block probe state (poison containment).
    bool suspect = false;
    std::size_t probe_active = kNoProbe;      ///< in-block offset in flight
    std::vector<SweepCaseOutcome> probe_out;  ///< pinned outcomes
    std::vector<std::uint8_t> probe_done;     ///< 1 = outcome pinned
    std::vector<int> probe_deaths;            ///< accusations per case
  };

  [[nodiscard]] std::size_t size_of(std::size_t index) const;
  /// Promote a fully-probed suspect block to Ready (synthesized record).
  void finalize_if_probed(std::size_t index);
  /// Return a Leased block to Pending, moving lease_from_ down to it.
  void unlease(std::size_t index);
  /// A Pending block leaves Pending (leased or ready): drop it from
  /// backoff_.
  void leave_pending(std::size_t index);
  /// Set a Pending block's backoff gate, keeping backoff_ in step.
  void set_ready_at(std::size_t index, double ready_at_s);

  std::size_t cases_ = 0;
  std::size_t block_ = 0;
  Options opts_;
  std::vector<Entry> states_;
  std::size_t next_fold_ = 0;      ///< index of the next block to fold
  /// No entry below this index is Pending, so lease() starts its scan
  /// here: leasing every block in a row stays linear, not quadratic.
  std::size_t lease_from_ = 0;
  std::size_t folded_blocks_ = 0;
  std::size_t pending_ = 0;
  std::size_t leased_ = 0;
  std::size_t duplicates_ = 0;
  std::size_t suspect_blocks_ = 0;
  std::size_t probes_launched_ = 0;
  std::size_t probe_quarantined_ = 0;
  /// (ready_at_s, index) of every Pending block whose ready_at_s is not
  /// 0, i.e. one that was orphaned (or released after an orphaning);
  /// every other Pending block is ready at 0.
  std::set<std::pair<double, std::size_t>> backoff_;
};

class SweepCoordinator {
 public:
  struct Options {
    /// Worker processes to spawn. 0 = run everything in-process through
    /// the all-workers-dead degradation path, directly (useful for tests;
    /// the CLI runs `--workers 0` through SweepEngine instead).
    int workers = 0;
    /// Exec argv of ONE worker (path + `sweep-worker` + grid flags); the
    /// coordinator appends per-worker `--shard-path`/`--block` flags.
    /// Required when workers > 0.
    std::vector<std::string> worker_argv;
    /// Run directory for shard journals; empty = no journaling (a worker
    /// death then re-simulates its unreported blocks).
    std::string journal_dir;
    /// Seed the ledger from existing shard journals under journal_dir
    /// before spawning anyone (coordinator restart).
    bool resume = false;
    /// Cases per block (ignored on resume when shards recorded one).
    std::size_t block = 256;

    // Liveness knobs (wall-clock seconds).
    double heartbeat_interval_s = 0.5;   ///< expected worker cadence
    double heartbeat_timeout_s = 2.0;    ///< silence counted as one miss
    int heartbeat_miss_limit = 3;        ///< misses before declared dead
    double hello_timeout_s = 10.0;       ///< spawn -> hello deadline
    /// A leased block must complete within this long (hung-worker trap;
    /// scale to the slowest expected block).
    double lease_timeout_s = 300.0;
    /// Wedged-worker trap, DISTINCT from the heartbeat deadline: a
    /// worker that heartbeats on time but makes no block progress for
    /// this long is evicted (flight-recorded, counted in
    /// `workers_evicted_wedged`). Heartbeats prove the process is alive;
    /// this proves it is working. 0 = disabled.
    double progress_timeout_s = 0.0;

    /// Reassignment backoff (see BlockLedger::Options).
    double lease_backoff_base_s = 0.25;
    double lease_backoff_cap_s = 5.0;
    /// Poison containment (see BlockLedger::Options): orphanings before
    /// a block is probed case-by-case, and probe deaths before the
    /// accused case is quarantined.
    int lease_suspect_after = 3;
    int probe_case_deaths = 2;

    /// Fleet survival budget: dead worker slots are respawned (fresh
    /// incarnation, own shard file) until this many respawns have been
    /// spent. 0 = a dead worker stays dead (pre-chaos behaviour).
    int max_respawns = 0;
    /// Extra argv appended when (re)spawning worker `slot` at
    /// `incarnation` (0 = first spawn). The chaos harness uses this to
    /// arm injector specs per worker — respawned incarnations get a
    /// healthy schedule so a kill-loop cannot exhaust the budget.
    std::function<std::vector<std::string>(int slot, int incarnation)>
        worker_extra_args;

    SweepCaseRunner::Options case_opts;
    /// Progress callback, (cases folded, cases total) — same contract as
    /// SweepEngine::Options::progress (runs on the calling thread).
    std::function<void(std::size_t, std::size_t)> progress;
    /// Pool for the in-process path; null = the process-global pool.
    util::ThreadPool* pool = nullptr;

    // Observability plane.
    /// Merged fleet Chrome trace artifact (one lane per worker + the
    /// coordinator's control plane); empty = off. Setting it makes the
    /// coordinator pass `--ship-trace` to every worker.
    std::string fleet_trace_path;
    /// Directory for postmortem JSONL flight-recorder dumps; empty = off.
    std::string postmortem_dir;
    /// Workers ship registry snapshots on `stat` lines (default on; off
    /// only to measure shipping overhead — digests never depend on it).
    bool ship_stats = true;
    /// Flight recorder ring capacity (events kept per worker).
    std::size_t flight_recorder_events = 256;
  };

  /// Post-run accounting, surfaced into the run report and tests.
  struct WorkerInfo {
    long pid = -1;
    std::size_t blocks = 0;            ///< blocks delivered
    std::size_t heartbeat_misses = 0;
    bool died = false;                 ///< exited/was killed before shutdown
    bool ready = false;                ///< hello accepted (live status line)
    bool busy = false;                 ///< currently holds a lease
    // Fleet rollup (from shipped `stat` snapshots and receipt timing).
    double cases_per_s = 0.0;          ///< worker's own sweep.cases_per_s
    std::uint64_t case_retries = 0;    ///< worker's sweep.case_retries
    std::uint64_t cases_quarantined = 0;
    std::size_t stat_batches = 0;
    std::size_t trace_batches = 0;
    std::size_t trace_events = 0;
    /// Obs-line round-trip percentiles: heartbeat `stat` lines and
    /// `trace` batches read inside the event loop (0 without a sample).
    double rtt_p50_s = 0.0;
    double rtt_p99_s = 0.0;
    std::size_t rtt_samples = 0;  ///< samples behind the percentiles
    std::string postmortem_path;  ///< last flight-recorder dump, "" = none
  };
  struct Stats {
    std::vector<WorkerInfo> workers;
    /// Leases a dead worker returned: its running lease (orphaned) plus
    /// its queued one (released), so at most 2 per death.
    std::size_t blocks_reassigned = 0;
    /// Second leases granted behind a running one (pipelining engaged).
    std::size_t leases_prefetched = 0;
    std::size_t worker_deaths = 0;
    std::size_t heartbeat_misses = 0;
    std::size_t duplicate_block_records = 0;
    std::size_t replayed_blocks = 0;   ///< seeded from shard journals
    bool degraded_in_process = false;  ///< fallback path ran
    int shard_generation = 0;          ///< generation of this run's shards
    // Containment accounting.
    std::size_t workers_respawned = 0;
    std::size_t workers_evicted_wedged = 0;  ///< heartbeating, no progress
    std::size_t suspect_blocks = 0;          ///< blocks probed case-by-case
    std::size_t probes_launched = 0;
    std::size_t probe_quarantined_cases = 0;
    std::size_t journal_truncations = 0;  ///< shard suffixes dropped on resume
    bool journal_degraded = false;  ///< shard journaling lost to an I/O fault
    // Observability plane.
    std::size_t obs_lines_rejected = 0;  ///< defective stat/trace lines
    std::size_t stat_batches = 0;
    std::size_t trace_batches = 0;
    std::size_t trace_events = 0;
    double rtt_p50_s = 0.0;  ///< fleet-wide obs-line RTT (as per worker)
    double rtt_p99_s = 0.0;
    /// Samples behind the fleet-wide percentiles. 0 means none were
    /// taken (e.g. a stats-only run shorter than one heartbeat interval)
    /// and the percentiles read 0 without measuring anything.
    std::size_t rtt_samples = 0;
    /// Block-simulation seconds percentiles, merged across every
    /// worker's shipped sweep.block_seconds histogram (0 when nothing
    /// shipped — e.g. --no-obs-ship).
    double block_seconds_p50_s = 0.0;
    double block_seconds_p99_s = 0.0;
    double max_lease_age_s = 0.0;  ///< oldest in-flight lease observed
    std::size_t postmortems_written = 0;
    std::string fleet_trace_path;  ///< written artifact, "" = none
  };

  explicit SweepCoordinator(Options opts);

  /// Run the sweep to completion (workers + fallback). Throws
  /// InvalidArgument on a bad grid, a config-skewed worker hello, or
  /// shards that disagree; worker DEATH is never an exception.
  [[nodiscard]] SweepResult run(const SweepGrid& grid);

  /// Accounting of the last run().
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  Options opts_;
  Stats stats_;
};

}  // namespace greenhpc::core
