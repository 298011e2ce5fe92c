#include "core/sweep_coordinator.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "core/sweep_journal.hpp"
#include "core/sweep_protocol.hpp"
#include "obs/fleet.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/atomic_file.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/fault_injector.hpp"
#include "util/subprocess.hpp"

namespace greenhpc::core {

// ---------------------------------------------------------------------------
// BlockLedger

BlockLedger::BlockLedger(std::size_t cases, std::size_t block)
    : BlockLedger(cases, block, Options()) {}

BlockLedger::BlockLedger(std::size_t cases, std::size_t block, Options opts)
    : cases_(cases), block_(block), opts_(opts) {
  GREENHPC_REQUIRE(block_ > 0, "ledger block size must be positive");
  const std::size_t n = cases_ == 0 ? 0 : (cases_ + block_ - 1) / block_;
  states_.resize(n);
  pending_ = n;
}

std::size_t BlockLedger::size_of(std::size_t index) const {
  return std::min(block_, cases_ - index * block_);
}

bool BlockLedger::lease(int worker, double now_s, Lease& out) {
  // Lowest-start-first keeps the fold frontier moving: the block gating
  // next_to_fold() is always the most urgent lease.
  for (std::size_t i = lease_from_; i < states_.size(); ++i) {
    Entry& e = states_[i];
    if (e.state != State::Pending) {
      if (i == lease_from_) ++lease_from_;
      continue;
    }
    if (now_s < e.ready_at_s) continue;  // still in reassignment backoff
    if (e.suspect) {
      // Suspect block: hand out ONE unpinned case as a probe. One probe
      // in flight per block (the entry is Leased while it runs), so a
      // probe death accuses exactly one case.
      std::size_t j = 0;
      while (j < e.probe_done.size() && e.probe_done[j] != 0) ++j;
      if (j == e.probe_done.size()) continue;  // fully pinned, finalizing
      leave_pending(i);
      e.state = State::Leased;
      e.worker = worker;
      e.probe_active = j;
      --pending_;
      ++leased_;
      ++probes_launched_;
      out.start = i * block_ + j;
      out.count = 1;
      out.probe = true;
      return true;
    }
    leave_pending(i);
    e.state = State::Leased;
    e.worker = worker;
    --pending_;
    ++leased_;
    out.start = i * block_;
    out.count = size_of(i);
    out.probe = false;
    return true;
  }
  return false;
}

std::size_t BlockLedger::orphan_worker(int worker, double now_s) {
  std::size_t orphaned = 0;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    Entry& e = states_[i];
    if (e.state != State::Leased || e.worker != worker) continue;
    const double backoff =
        std::min(opts_.backoff_cap_s,
                 opts_.backoff_base_s * std::pow(2.0, e.orphanings));
    ++e.orphanings;
    unlease(i);
    set_ready_at(i, now_s + backoff);
    ++orphaned;
    if (e.suspect && e.probe_active != kNoProbe) {
      // A probe death is evidence against ONE case, not the block.
      const std::size_t j = e.probe_active;
      e.probe_active = kNoProbe;
      if (++e.probe_deaths[j] >= opts_.probe_case_deaths) {
        SweepCaseOutcome q;
        q.ok = false;
        q.attempts = e.probe_deaths[j];
        q.error = "case killed its worker in " +
                  std::to_string(e.probe_deaths[j]) +
                  " consecutive probe(s) — quarantined by poison containment";
        e.probe_out[j] = std::move(q);
        e.probe_done[j] = 1;
        ++probe_quarantined_;
        finalize_if_probed(i);
      }
    } else if (!e.suspect && opts_.suspect_after > 0 &&
               e.orphanings >= opts_.suspect_after) {
      // The block keeps killing whoever runs it: stop retrying it whole
      // and start bisecting. Without this, a poison case is reassigned
      // forever and eventually takes the entire fleet with it.
      e.suspect = true;
      const std::size_t n = size_of(i);
      e.probe_out.assign(n, SweepCaseOutcome{});
      e.probe_done.assign(n, 0);
      e.probe_deaths.assign(n, 0);
      ++suspect_blocks_;
    }
  }
  return orphaned;
}

bool BlockLedger::release(int worker, std::size_t start) {
  if (start >= cases_) return false;
  Entry& e = states_[start / block_];
  if (e.state != State::Leased || e.worker != worker) return false;
  unlease(start / block_);
  e.probe_active = kNoProbe;
  return true;
}

void BlockLedger::unlease(std::size_t index) {
  Entry& e = states_[index];
  e.state = State::Pending;
  e.worker = -1;
  --leased_;
  ++pending_;
  lease_from_ = std::min(lease_from_, index);
  // The gate of an earlier orphaning still holds (a release keeps it).
  if (e.ready_at_s != 0.0) backoff_.emplace(e.ready_at_s, index);
}

void BlockLedger::leave_pending(std::size_t index) {
  const Entry& e = states_[index];
  if (e.ready_at_s != 0.0) backoff_.erase({e.ready_at_s, index});
}

void BlockLedger::set_ready_at(std::size_t index, double ready_at_s) {
  leave_pending(index);
  states_[index].ready_at_s = ready_at_s;
  if (ready_at_s != 0.0) backoff_.emplace(ready_at_s, index);
}

void BlockLedger::finalize_if_probed(std::size_t index) {
  Entry& e = states_[index];
  for (const std::uint8_t d : e.probe_done) {
    if (d == 0) return;
  }
  // Every case pinned: synthesize the block record a healthy worker
  // would have delivered. Quarantined cases are ok=false outcomes, so
  // the block-local digest folds only the survivors — exactly the
  // partial-digest contract the fold path already implements.
  SweepBlock rec;
  rec.start = index * block_;
  rec.cases = std::move(e.probe_out);
  rec.digest_after = sweep_block_digest(rec);
  GREENHPC_ASSERT(e.state == State::Pending,
                  "probe finalization from a non-pending entry");
  leave_pending(index);
  e.digest = rec.digest_after;
  e.record = std::move(rec);
  e.state = State::Ready;
  --pending_;
  e.probe_out.clear();
  e.probe_done.clear();
  e.probe_deaths.clear();
}

BlockLedger::Deliver BlockLedger::deliver(const SweepBlock& rec) {
  GREENHPC_REQUIRE(!rec.cases.empty() && rec.start < cases_,
                   "block record is empty or out of range");
  GREENHPC_REQUIRE(sweep_block_digest(rec) == rec.digest_after,
                   "block record digest does not re-fold");
  const std::size_t index = rec.start / block_;
  Entry& e = states_[index];
  const bool full =
      rec.start % block_ == 0 && rec.cases.size() == size_of(index);
  if (!full) {
    // Single-case probe result for a suspect block.
    GREENHPC_REQUIRE(rec.cases.size() == 1 && e.suspect,
                     "block record is not aligned to the sweep's block grid");
    if (e.state == State::Ready || e.state == State::Folded) {
      ++duplicates_;  // the block was resolved while this probe was in flight
      return Deliver::Duplicate;
    }
    const std::size_t j = rec.start % block_;
    if (e.probe_done[j] != 0) {
      ++duplicates_;
      return Deliver::Duplicate;
    }
    e.probe_out[j] = rec.cases[0];
    e.probe_done[j] = 1;
    if (e.state == State::Leased && e.probe_active == j) {
      e.probe_active = kNoProbe;
      unlease(index);
      set_ready_at(index, 0.0);  // the next probe needs no backoff: this one worked
    }
    finalize_if_probed(index);
    return Deliver::Accepted;
  }
  GREENHPC_REQUIRE(rec.start % block_ == 0,
                   "block record is not aligned to the sweep's block grid");
  if (e.state == State::Ready || e.state == State::Folded) {
    // At-least-once delivery: honest duplicates (same bits) are normal;
    // the same block with different bits is nondeterminism or forgery
    // and folding either copy could fabricate results.
    GREENHPC_REQUIRE(e.digest == rec.digest_after,
                     "conflicting duplicate record for block " +
                         std::to_string(rec.start) +
                         " — nondeterminism or corruption");
    ++duplicates_;
    return Deliver::Duplicate;
  }
  if (e.state == State::Leased) {
    --leased_;
  } else {
    leave_pending(index);
    --pending_;
  }
  e.state = State::Ready;
  e.worker = -1;
  e.probe_active = kNoProbe;
  e.digest = rec.digest_after;
  e.record = rec;
  return Deliver::Accepted;
}

bool BlockLedger::next_to_fold(SweepBlock& out) {
  if (next_fold_ >= states_.size()) return false;
  Entry& e = states_[next_fold_];
  if (e.state != State::Ready) return false;
  out = std::move(e.record);
  e.record = SweepBlock{};
  e.state = State::Folded;
  ++folded_blocks_;
  ++next_fold_;
  return true;
}

double BlockLedger::next_ready_s() const {
  const double backoff = backoff_.empty()
                             ? std::numeric_limits<double>::infinity()
                             : backoff_.begin()->first;
  // Pending blocks outside backoff_ are ready at 0.
  return pending_ > backoff_.size() ? std::min(0.0, backoff) : backoff;
}

// ---------------------------------------------------------------------------
// SweepCoordinator

namespace {

/// Bucket bounds (seconds) for the heartbeat/stat receipt-lag
/// histograms — sub-millisecond through a stalled event loop.
const std::vector<double> kRttBounds = {5e-4, 1e-3, 2.5e-3, 5e-3,  1e-2,
                                        2.5e-2, 5e-2, 0.1,  0.25, 1.0};

/// Coordinator-side view of one worker process.
struct WorkerConn {
  int id = -1;  ///< stable worker index (ledger lease owner, stats slot)
  util::Subprocess proc;
  std::unique_ptr<util::LineChannel> channel;
  bool alive = true;
  bool hello_ok = false;
  int misses = 0;                 ///< consecutive heartbeat misses
  util::Deadline liveness;        ///< hello deadline, then heartbeat deadline
  bool has_lease = false;          ///< a running lease (the block simulating)
  std::size_t lease_start = 0;
  bool has_queued = false;         ///< a second lease queued behind it
  std::size_t queued_start = 0;
  util::Deadline lease_deadline;     ///< hung-worker trap
  util::Deadline progress_deadline;  ///< wedged-but-heartbeating trap
  int incarnation = 0;               ///< 0 = first spawn of this slot

  // Observability plane.
  int lane = -1;                   ///< fleet trace lane (-1 = no fleet)
  bool obs_aligned = false;        ///< clock anchor received
  std::int64_t obs_offset_ns = 0;  ///< local ns = remote ns + offset
  std::uint64_t lease_grant_ns = 0;  ///< running-lease start, for lease spans
  obs::FlightRecorder fr{256};
  std::unique_ptr<obs::Histogram> rtt;  ///< per-worker receipt lag
  /// Latest shipped sweep.block_seconds snapshot (cumulative, so the
  /// last one wins; merged fleet-wide at finalization).
  obs::HistogramSnapshot block_hist;
};

}  // namespace

SweepCoordinator::SweepCoordinator(Options opts) : opts_(std::move(opts)) {
  if (opts_.block == 0) opts_.block = 256;
}

SweepResult SweepCoordinator::run(const SweepGrid& grid) {
  GREENHPC_TRACE_SPAN("sweep.coordinator");
  static obs::Counter& deaths_counter =
      obs::Registry::global().counter("sweep.worker_deaths");
  static obs::Counter& reassigned_counter =
      obs::Registry::global().counter("sweep.blocks_reassigned");
  static obs::Counter& prefetched_counter =
      obs::Registry::global().counter("sweep.leases_prefetched");
  static obs::Counter& hb_miss_counter =
      obs::Registry::global().counter("sweep.heartbeat_misses");
  static obs::Counter& dup_counter =
      obs::Registry::global().counter("sweep.duplicate_block_records");
  static obs::Gauge& alive_gauge =
      obs::Registry::global().gauge("sweep.workers_alive");
  static obs::Counter& obs_rejected_counter =
      obs::Registry::global().counter("sweep.obs_lines_rejected");
  static obs::Gauge& lease_age_gauge =
      obs::Registry::global().gauge("sweep.lease_age_s");
  static obs::Counter& respawned_counter =
      obs::Registry::global().counter("sweep.workers_respawned");
  static obs::Counter& evicted_counter =
      obs::Registry::global().counter("sweep.workers_evicted_wedged");
  static obs::Histogram& rtt_registry_hist =
      obs::Registry::global().histogram("sweep.heartbeat_rtt_s", kRttBounds);
  // Fleet-summed throughput: each worker ships its own sweep.cases_per_s
  // gauge; the coordinator republishes the sum so --progress (and the
  // metrics snapshot) show fleet throughput, not a dead-zero local gauge.
  static obs::Gauge& rate_gauge =
      obs::Registry::global().gauge("sweep.cases_per_s");

  stats_ = Stats{};
  const SweepCaseRunner runner(grid, opts_.case_opts);
  const std::size_t n_cases = runner.case_count();
  const std::uint64_t config = grid.config_digest();
  SweepResult result;
  runner.init_result(result);

  util::MonotoneClock clock;

  // Observability plane: the merged fleet trace (one lane per process),
  // the coordinator's own flight recorder, and the per-run RTT fold.
  // All of it is bookkeeping beside the fold path — digests cannot see it.
  std::unique_ptr<obs::FleetTrace> fleet;
  int coord_lane = -1;
  const std::uint64_t run_begin_ns = obs::Tracer::now_ns();
  if (!opts_.fleet_trace_path.empty()) {
    fleet = std::make_unique<obs::FleetTrace>();
    coord_lane = fleet->add_lane(static_cast<long>(::getpid()),
                                 "greenhpc sweep coordinator");
  }
  obs::FlightRecorder coord_fr(opts_.flight_recorder_events);
  obs::Histogram fleet_rtt(kRttBounds);  // this run only (registry accumulates)

  /// Instant event on the coordinator's control-plane lane. Goes through
  /// FleetTrace directly (local clock, zero offset) so the control plane
  /// shows up even when the process-global Tracer is disabled.
  const auto fleet_mark = [&](const char* name, double value) {
    if (fleet == nullptr) return;
    obs::RemoteTraceEvent e;
    e.name = name;
    e.cat = "fleet";
    e.phase = 'i';
    e.ts_ns = obs::Tracer::now_ns();
    e.value = value;
    fleet->add_event(coord_lane, std::move(e));
  };

  /// Dump a flight recorder as a postmortem JSONL artifact; returns the
  /// path ("" when postmortems are off or the write failed — a failed
  /// postmortem must never fail the sweep).
  const auto dump_recorder = [&](const obs::FlightRecorder& fr,
                                 const std::string& file) -> std::string {
    if (opts_.postmortem_dir.empty()) return std::string();
    ::mkdir(opts_.postmortem_dir.c_str(), 0777);  // EEXIST is fine
    const std::string path = opts_.postmortem_dir + "/" + file;
    try {
      util::atomic_write_file(path,
                              [&](std::ostream& os) { fr.write_jsonl(os); });
    } catch (const std::exception& e) {
      std::fprintf(stderr, "greenhpc: cannot write postmortem %s: %s\n",
                   path.c_str(), e.what());
      return std::string();
    }
    ++stats_.postmortems_written;
    return path;
  };

  /// Close the coordinator's run span and publish the merged trace.
  const auto finalize_fleet = [&] {
    if (fleet == nullptr) return;
    obs::RemoteTraceEvent run_span;
    run_span.name = "coord.run";
    run_span.cat = "fleet";
    run_span.phase = 'X';
    run_span.ts_ns = run_begin_ns;
    run_span.dur_ns = obs::Tracer::now_ns() - run_begin_ns;
    fleet->add_event(coord_lane, std::move(run_span));
    try {
      util::atomic_write_file(
          opts_.fleet_trace_path,
          [&](std::ostream& os) { fleet->write_chrome_json(os); });
      stats_.fleet_trace_path = opts_.fleet_trace_path;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "greenhpc: cannot write fleet trace %s: %s\n",
                   opts_.fleet_trace_path.c_str(), e.what());
    }
  };

  // Resume: seed the ledger with every block the surviving shard
  // journals prove complete, and bump the shard generation so this run's
  // files never clobber the evidence it just recovered from.
  std::size_t block_size = opts_.block;
  int gen = 0;
  std::vector<SweepBlock> seeded;
  if (!opts_.journal_dir.empty() && opts_.resume) {
    SweepJournal::ShardLoad load =
        SweepJournal::load_shards(opts_.journal_dir, config, n_cases);
    if (load.block != 0) block_size = load.block;
    gen = load.max_gen + 1;
    seeded = std::move(load.blocks);
    stats_.journal_truncations = load.truncations;
    result.journal_truncations = load.truncations;
    coord_fr.record(clock.now_s(), "restart",
                    "gen=" + std::to_string(gen) +
                        " shard_blocks=" + std::to_string(seeded.size()) +
                        " truncations=" + std::to_string(load.truncations));
  }
  stats_.shard_generation = gen;

  BlockLedger::Options lopts;
  lopts.backoff_base_s = opts_.lease_backoff_base_s;
  lopts.backoff_cap_s = opts_.lease_backoff_cap_s;
  lopts.suspect_after = opts_.lease_suspect_after;
  lopts.probe_case_deaths = opts_.probe_case_deaths;
  BlockLedger ledger(n_cases, block_size, lopts);
  const auto finalize_containment = [&] {
    stats_.suspect_blocks = ledger.suspects();
    stats_.probes_launched = ledger.probes_launched();
    stats_.probe_quarantined_cases = ledger.probe_quarantined();
  };

  std::size_t folded_cases = 0;
  const auto drain_folds = [&] {
    // The determinism gate: blocks fold strictly in flat case order, no
    // matter which worker finished first, so digest and failed_cases are
    // those of the serial engine.
    SweepBlock b;
    while (ledger.next_to_fold(b)) {
      // Chaos hook: simulated coordinator death at a fold boundary. The
      // thrown InjectedFailure unwinds run() (worker children are killed
      // by their Subprocess destructors); the chaos harness then
      // restarts the coordinator with resume=true and proves the shard
      // union re-folds to the same digest.
      util::FaultHit coord_hit;
      if (util::FaultInjector::global().consult("coord.fold", coord_hit) &&
          coord_hit.action == util::FaultAction::Fail) {
        throw util::InjectedFailure(
            "injected coordinator failure before folding block " +
            std::to_string(b.start));
      }
      fleet_mark("coord.fold", static_cast<double>(b.start));
      runner.fold_block(result, b);
      folded_cases += b.cases.size();
      if (opts_.progress) opts_.progress(folded_cases, n_cases);
    }
  };

  for (const SweepBlock& b : seeded) {
    if (ledger.deliver(b) == BlockLedger::Deliver::Accepted) {
      ++stats_.replayed_blocks;
      result.replayed_cases += b.cases.size();
      coord_fr.record(clock.now_s(), "replayed",
                      "start=" + std::to_string(b.start) +
                          " count=" + std::to_string(b.cases.size()));
    }
  }
  seeded.clear();
  drain_folds();

  // A restarted coordinator is itself a postmortem trigger: the dump
  // records what the shard union proved before anything new runs.
  if (opts_.resume && !opts_.journal_dir.empty()) {
    dump_recorder(coord_fr,
                  "postmortem-restart-g" + std::to_string(gen) + ".jsonl");
  }

  // In-process execution: the workers==0 configuration AND the
  // all-workers-dead degradation path. Journals its blocks into its own
  // shard so coordinator crashes stay recoverable on this path too.
  const auto run_in_process = [&] {
    if (ledger.all_folded()) return;
    util::ThreadPool& pool =
        opts_.pool != nullptr ? *opts_.pool : util::ThreadPool::global();
    std::unique_ptr<SweepJournal> shard;
    const auto journal_io = [&](const std::function<void()>& io) {
      std::string why;
      if (journal_io_ok(io, &why)) return;
      stats_.journal_degraded = true;
      coord_fr.record(clock.now_s(), "journal_degraded", why);
      fleet_mark("coord.journal_degraded", 0.0);
      shard.reset();
    };
    if (!opts_.journal_dir.empty()) {
      journal_io([&] {
        shard = std::make_unique<SweepJournal>(SweepJournal::create_shard(
            opts_.journal_dir, SweepJournal::shard_file_name(gen, "coord"),
            config, n_cases, block_size));
      });
    }
    // Leasing at time +inf ignores backoff: every pending block whole plus
    // one probe per suspect block, streamed through one loop. A probe's
    // result can unlock its block's next probe, hence the outer loop.
    for (;;) {
      std::vector<SweepRange> ranges;
      std::vector<bool> probes;
      BlockLedger::Lease ls;
      while (ledger.lease(-1, std::numeric_limits<double>::infinity(), ls)) {
        ranges.push_back({ls.start, ls.count});
        probes.push_back(ls.probe);
      }
      if (ranges.empty()) return;
      std::size_t next = 0;
      runner.run_ranges(pool, ranges, [&](SweepBlock& b) {
        // Probe results are not shard-journaled: they are single-case and
        // a restarted coordinator re-probes from its own evidence.
        if (!probes[next++] && shard != nullptr) journal_io([&] { shard->append(b); });
        ledger.deliver(b);
        drain_folds();
      });
    }
  };

  if (opts_.workers <= 0 || ledger.all_folded()) {
    run_in_process();
    finalize_containment();
    finalize_fleet();
    return result;
  }

  GREENHPC_REQUIRE(!opts_.worker_argv.empty(),
                   "distributed sweep needs the worker exec argv");

  // One WorkerConn per SLOT, not per spawn: a respawned worker reuses
  // its slot (and its stats row), with a fresh incarnation and its own
  // shard file so a dead incarnation's journaled evidence survives.
  std::vector<WorkerConn> conns(static_cast<std::size_t>(opts_.workers));
  stats_.workers.assign(static_cast<std::size_t>(opts_.workers), WorkerInfo{});

  const auto alive_count = [&] {
    std::size_t n = 0;
    for (const WorkerConn& c : conns) n += c.alive ? 1 : 0;
    return n;
  };

  const auto declare_dead = [&](WorkerConn& c, const char* why) {
    if (!c.alive) return;
    c.alive = false;
    c.has_lease = false;
    const long pid = static_cast<long>(c.proc.pid());
    c.proc.kill_hard();
    // A worker reports each block before it reads its next assign, so a
    // queued lease was never started: it goes back without a strike.
    // Only the running lease is orphaned and counts toward suspicion.
    std::size_t released = 0;
    if (c.has_queued) {
      c.has_queued = false;
      released = ledger.release(c.id, c.queued_start) ? 1 : 0;
    }
    const std::size_t orphaned = ledger.orphan_worker(c.id, clock.now_s());
    const std::size_t returned = orphaned + released;
    // A probe death can be the final accusation that quarantines a case
    // and completes its block — the fold frontier may be movable NOW.
    drain_folds();
    stats_.blocks_reassigned += returned;
    for (std::size_t i = 0; i < returned; ++i) reassigned_counter.add();
    ++stats_.worker_deaths;
    deaths_counter.add();
    WorkerInfo& wi = stats_.workers[static_cast<std::size_t>(c.id)];
    wi.died = true;
    wi.busy = false;
    alive_gauge.set(static_cast<double>(alive_count()));
    fleet_mark("coord.worker_dead", static_cast<double>(c.id));
    if (returned > 0) {
      fleet_mark("coord.reassign", static_cast<double>(returned));
    }
    c.fr.record(clock.now_s(), "dead",
                std::string(why) + "; orphaned=" + std::to_string(orphaned) +
                    " released=" + std::to_string(released));
    // Worker death is THE postmortem trigger: dump the last protocol
    // exchange this connection saw.
    wi.postmortem_path =
        dump_recorder(c.fr, "postmortem-w" + std::to_string(c.id) + "-pid" +
                                std::to_string(pid) + ".jsonl");
    if (c.rtt != nullptr) {
      wi.rtt_p50_s = c.rtt->percentile(0.5);
      wi.rtt_p99_s = c.rtt->percentile(0.99);
    }
    std::fprintf(stderr,
                 "greenhpc: sweep worker %d (pid %ld) dead: %s; %zu block(s) "
                 "returned for reassignment\n",
                 c.id, pid, why, returned);
  };

  /// (Re)spawn slot `k` at incarnation `inc`. False = the spawn failed
  /// (a dead worker, not a dead sweep).
  const auto spawn_worker = [&](int k, int inc) -> bool {
    std::vector<std::string> argv = opts_.worker_argv;
    if (!opts_.journal_dir.empty()) {
      // Incarnation-tagged shard name: a respawn must never truncate the
      // shard its dead predecessor already made durable.
      const std::string tag =
          "w" + std::to_string(k) +
          (inc > 0 ? "r" + std::to_string(inc) : std::string());
      argv.push_back("--shard-path");
      argv.push_back(opts_.journal_dir + "/" +
                     SweepJournal::shard_file_name(gen, tag));
    }
    argv.push_back("--block");
    argv.push_back(std::to_string(block_size));
    if (!opts_.ship_stats) argv.push_back("--no-ship-stats");
    if (fleet != nullptr) argv.push_back("--ship-trace");
    if (opts_.worker_extra_args) {
      for (std::string& a : opts_.worker_extra_args(k, inc)) {
        argv.push_back(std::move(a));
      }
    }
    WorkerConn c;
    c.id = k;
    c.incarnation = inc;
    try {
      c.proc = util::Subprocess::spawn(argv);
    } catch (const std::exception& e) {
      stats_.workers[static_cast<std::size_t>(k)].died = true;
      ++stats_.worker_deaths;
      deaths_counter.add();
      std::fprintf(stderr, "greenhpc: cannot spawn sweep worker %d: %s\n", k,
                   e.what());
      c.alive = false;
      conns[static_cast<std::size_t>(k)] = std::move(c);
      return false;
    }
    const long wpid = static_cast<long>(c.proc.pid());
    WorkerInfo& wi = stats_.workers[static_cast<std::size_t>(k)];
    wi.pid = wpid;
    wi.died = false;
    wi.ready = false;
    wi.busy = false;
    c.proc.set_stdout_nonblocking();
    c.channel = std::make_unique<util::LineChannel>(c.proc.stdout_fd());
    c.liveness = util::Deadline(clock.now_s(), opts_.hello_timeout_s);
    c.fr = obs::FlightRecorder(opts_.flight_recorder_events);
    c.rtt = std::make_unique<obs::Histogram>(kRttBounds);
    if (fleet != nullptr) {
      c.lane = fleet->add_lane(
          wpid, "sweep worker " + std::to_string(k) +
                    (inc > 0 ? " (respawn " + std::to_string(inc) + ")"
                             : std::string()));
    }
    c.fr.record(clock.now_s(), "spawn",
                "pid=" + std::to_string(wpid) + " inc=" + std::to_string(inc));
    fleet_mark("coord.spawn", static_cast<double>(k));
    conns[static_cast<std::size_t>(k)] = std::move(c);
    return true;
  };

  for (int k = 0; k < opts_.workers; ++k) {
    conns[static_cast<std::size_t>(k)].id = k;
    conns[static_cast<std::size_t>(k)].alive = false;
    spawn_worker(k, 0);
  }
  alive_gauge.set(static_cast<double>(alive_count()));

  /// Make the block at `start` `c`'s running lease. Its lease and
  /// progress deadlines and its coord.lease span start here: at the
  /// grant for an idle worker, at promotion for a queued lease.
  const auto start_running = [&](WorkerConn& c, std::size_t start) {
    const double now = clock.now_s();
    c.has_lease = true;
    c.lease_start = start;
    c.lease_deadline = util::Deadline(now, opts_.lease_timeout_s);
    if (opts_.progress_timeout_s > 0.0) {
      c.progress_deadline = util::Deadline(now, opts_.progress_timeout_s);
    }
    c.lease_grant_ns = obs::Tracer::now_ns();
    stats_.workers[static_cast<std::size_t>(c.id)].busy = true;
  };

  /// Lease the next block to `c` and send its assign, as the running
  /// lease or (`queued`) as the one behind it. False when nothing is
  /// leasable right now.
  const auto grant = [&](WorkerConn& c, bool queued) -> bool {
    BlockLedger::Lease ls;
    if (!ledger.lease(c.id, clock.now_s(), ls)) return false;
    if (queued) {
      c.has_queued = true;
      c.queued_start = ls.start;
      ++stats_.leases_prefetched;
      prefetched_counter.add();
    } else {
      start_running(c, ls.start);
    }
    c.fr.record(clock.now_s(), "assign",
                "start=" + std::to_string(ls.start) +
                    " count=" + std::to_string(ls.count) +
                    (ls.probe ? " probe" : "") + (queued ? " queued" : ""));
    if (!util::write_all(c.proc.stdin_fd(),
                         encode_assign(ls.start, ls.count) + "\n")) {
      declare_dead(c, "assign write failed");
      return true;
    }
    fleet_mark("coord.assign", static_cast<double>(ls.start));
    return true;
  };

  // Set for the post-loop farewell drain: a line read there waited for
  // the fold frontier to close, so its receipt lag is not an RTT.
  bool draining = false;
  /// Receipt lag of an obs line stamped `remote_now_ns` relative to the
  /// anchor: how much later than the anchor's pipe latency it landed —
  /// the round-trip proxy the fleet RTT histograms aggregate.
  const auto sample_rtt = [&](WorkerConn& c, std::uint64_t remote_now_ns,
                              std::uint64_t local_now) {
    if (!c.obs_aligned || draining) return;
    const std::int64_t mapped =
        static_cast<std::int64_t>(remote_now_ns) + c.obs_offset_ns;
    const double rtt_s = std::max(
        0.0,
        static_cast<double>(static_cast<std::int64_t>(local_now) - mapped) * 1e-9);
    c.rtt->record(rtt_s);
    fleet_rtt.record(rtt_s);
    rtt_registry_hist.record(rtt_s);
  };

  // Returns false when the worker must be declared dead (protocol
  // violation, unfoldable record). Throws only on config skew — a worker
  // computing a DIFFERENT grid is an operator error no reassignment can
  // fix, so it fails the sweep loudly.
  const auto handle_line = [&](WorkerConn& c, const std::string& line) -> bool {
    // Receipt time, read before parsing, so an obs line's RTT sample
    // leaves out its own parse (a 256-event trace batch is about 10 KB).
    const std::uint64_t local_now = obs::Tracer::now_ns();
    Message m = parse_message(line);
    WorkerInfo& wi = stats_.workers[static_cast<std::size_t>(c.id)];
    switch (m.kind) {
      case MsgKind::Hello:
        GREENHPC_REQUIRE(
            m.config_digest == config && m.cases == n_cases &&
                m.block_size == block_size,
            "sweep worker disagrees about the grid (config/case-count/block "
            "skew) — refusing to fold its results");
        c.hello_ok = true;
        wi.ready = true;
        c.misses = 0;
        c.liveness.extend(clock.now_s(), opts_.heartbeat_timeout_s);
        c.fr.record(clock.now_s(), "hello", "pid=" + std::to_string(m.pid));
        fleet_mark("coord.hello", static_cast<double>(c.id));
        return true;
      case MsgKind::Heartbeat:
        c.misses = 0;
        c.liveness.extend(clock.now_s(), opts_.heartbeat_timeout_s);
        c.fr.record(clock.now_s(), "hb");
        return true;
      case MsgKind::Block: {
        BlockLedger::Deliver d;
        try {
          d = ledger.deliver(m.block);
        } catch (const std::exception&) {
          return false;  // structurally wrong record: the worker is broken
        }
        if (d == BlockLedger::Deliver::Duplicate) {
          ++stats_.duplicate_block_records;
          dup_counter.add();
        } else {
          ++wi.blocks;
        }
        c.fr.record(clock.now_s(), "block",
                    "start=" + std::to_string(m.block.start) +
                        " count=" + std::to_string(m.block.cases.size()) +
                        (d == BlockLedger::Deliver::Duplicate ? " dup" : ""));
        fleet_mark("coord.block_recv", static_cast<double>(m.block.start));
        if (c.has_lease && m.block.start == c.lease_start) {
          if (fleet != nullptr) {
            // Synthesize the assign->completion window as a span on the
            // control-plane lane, one thread row per worker.
            obs::RemoteTraceEvent span;
            span.name = "coord.lease";
            span.cat = "fleet";
            span.phase = 'X';
            span.tid = c.id;
            span.ts_ns = c.lease_grant_ns;
            const std::uint64_t now_ns = obs::Tracer::now_ns();
            span.dur_ns =
                now_ns > c.lease_grant_ns ? now_ns - c.lease_grant_ns : 0;
            fleet->add_event(coord_lane, std::move(span));
          }
          if (c.has_queued) {
            // The worker moves straight on to its queued block.
            c.has_queued = false;
            start_running(c, c.queued_start);
          } else {
            c.has_lease = false;
            wi.busy = false;
          }
        }
        c.misses = 0;
        c.liveness.extend(clock.now_s(), opts_.heartbeat_timeout_s);
        drain_folds();
        return true;
      }
      case MsgKind::Stat: {
        if (!c.obs_aligned) {
          // First obs line = the clock anchor (sent right after hello,
          // when the pipe is empty, so the pairing latency is minimal).
          c.obs_aligned = true;
          c.obs_offset_ns = static_cast<std::int64_t>(local_now) -
                            static_cast<std::int64_t>(m.remote_now_ns);
        } else {
          sample_rtt(c, m.remote_now_ns, local_now);
        }
        if (fleet != nullptr && c.lane >= 0) {
          fleet->align(c.lane, m.remote_now_ns, local_now);
        }
        if (const double* g = m.stats.find_gauge("sweep.cases_per_s")) {
          wi.cases_per_s = *g;
          double fleet_rate = 0.0;
          for (const WorkerInfo& w : stats_.workers) fleet_rate += w.cases_per_s;
          rate_gauge.set(fleet_rate);
        }
        if (const std::uint64_t* v = m.stats.find_counter("sweep.case_retries")) {
          wi.case_retries = *v;
        }
        if (const std::uint64_t* v =
                m.stats.find_counter("sweep.cases_quarantined")) {
          wi.cases_quarantined = *v;
        }
        if (const obs::HistogramSnapshot* h =
                m.stats.find_histogram("sweep.block_seconds")) {
          c.block_hist = *h;
        }
        ++wi.stat_batches;
        ++stats_.stat_batches;
        c.fr.record(clock.now_s(), "stat",
                    "counters=" + std::to_string(m.stats.counters.size()) +
                        " gauges=" + std::to_string(m.stats.gauges.size()) +
                        " hists=" + std::to_string(m.stats.histograms.size()));
        c.misses = 0;
        c.liveness.extend(clock.now_s(), opts_.heartbeat_timeout_s);
        return true;
      }
      case MsgKind::Trace: {
        const std::size_t events = m.trace_events.size();
        // Trace batches ship between blocks: with stats at heartbeat
        // cadence they are most of a short run's RTT samples.
        sample_rtt(c, m.remote_now_ns, local_now);
        if (fleet != nullptr && c.lane >= 0) {
          fleet->align(c.lane, m.remote_now_ns, local_now);
          fleet->add_dropped(c.lane, m.trace_dropped);
          fleet->add_events(c.lane, std::move(m.trace_events));
        }
        ++wi.trace_batches;
        wi.trace_events += events;
        ++stats_.trace_batches;
        stats_.trace_events += events;
        c.fr.record(clock.now_s(), "trace",
                    "events=" + std::to_string(events) +
                        " dropped=" + std::to_string(m.trace_dropped));
        c.misses = 0;
        c.liveness.extend(clock.now_s(), opts_.heartbeat_timeout_s);
        return true;
      }
      case MsgKind::ObsRejected:
        // Telemetry must never kill the worker that ships it: drop the
        // line, count it, and snapshot the flight recorder — a mangled
        // obs line IS a postmortem trigger, just not a fatal one.
        ++stats_.obs_lines_rejected;
        obs_rejected_counter.add();
        c.fr.record(clock.now_s(), "obs_rejected", line.substr(0, 96));
        wi.postmortem_path = dump_recorder(
            c.fr, "postmortem-w" + std::to_string(c.id) + "-pid" +
                      std::to_string(static_cast<long>(c.proc.pid())) +
                      ".jsonl");
        return true;
      default:
        return false;  // malformed or a coordinator-only verb
    }
  };

  int respawns_used = 0;
  const auto can_respawn = [&] {
    return opts_.max_respawns > 0 && respawns_used < opts_.max_respawns;
  };

  while (!ledger.all_folded() && (alive_count() > 0 || can_respawn())) {
    // Fleet survival: refill dead slots from the respawn budget before
    // handing out work. Fresh incarnations get their own shard files
    // (and, via worker_extra_args, their own fault schedules).
    for (int k = 0; k < opts_.workers && can_respawn(); ++k) {
      WorkerConn& c = conns[static_cast<std::size_t>(k)];
      if (c.alive) continue;
      ++respawns_used;
      if (spawn_worker(k, c.incarnation + 1)) {
        ++stats_.workers_respawned;
        respawned_counter.add();
        fleet_mark("coord.respawn", static_cast<double>(k));
      }
    }
    alive_gauge.set(static_cast<double>(alive_count()));

    // Hand a running lease to every idle, handshaken worker.
    bool saturated = true;
    for (WorkerConn& c : conns) {
      if (!c.alive || !c.hello_ok || c.has_lease) continue;
      if (!grant(c, false)) {
        saturated = false;
        break;
      }
    }
    // Pipelining: queue a second lease behind each running one, so a
    // worker starts its next block without waiting a round trip through
    // this loop. Only while every worker is busy, only while the ledger
    // keeps a block per live worker for the tail of the run, and never
    // once a block is suspect: probes stay stop-and-wait, so a probe
    // death still accuses exactly one case.
    if (saturated && ledger.suspects() == 0) {
      const std::size_t live = alive_count();
      for (WorkerConn& c : conns) {
        if (!c.alive || !c.has_lease || c.has_queued) continue;
        if (ledger.pending() < live + 1 || !grant(c, true)) break;
      }
    }

    // Sleep until the earliest of: any pipe readable, the next liveness
    // or lease deadline, the next backoff expiry. Capped so a lost
    // wakeup can only cost one beat.
    const double now = clock.now_s();
    double timeout = 0.25;
    for (const WorkerConn& c : conns) {
      if (!c.alive) continue;
      timeout = std::min(timeout, c.liveness.remaining_s(now));
      if (c.has_lease) {
        timeout = std::min(timeout, c.lease_deadline.remaining_s(now));
        if (opts_.progress_timeout_s > 0.0) {
          timeout = std::min(timeout, c.progress_deadline.remaining_s(now));
        }
      }
    }
    const double next_ready = ledger.next_ready_s();
    if (next_ready < std::numeric_limits<double>::infinity()) {
      timeout = std::min(timeout, std::max(0.0, next_ready - now));
    }
    timeout = std::max(timeout, 0.005);

    std::vector<int> fds;
    fds.reserve(conns.size());
    for (const WorkerConn& c : conns) {
      fds.push_back(c.alive ? c.proc.stdout_fd() : -1);
    }
    for (const std::size_t idx : util::poll_readable(fds, timeout)) {
      WorkerConn& c = conns[idx];
      if (!c.alive) continue;
      bool dead = false;
      for (;;) {
        const util::LineChannel::Fill f = c.channel->fill();
        std::string line;
        while (c.channel->next_line(line)) {
          if (!handle_line(c, line)) {
            dead = true;
            break;
          }
        }
        if (dead || f == util::LineChannel::Fill::WouldBlock) break;
        if (f == util::LineChannel::Fill::Eof ||
            f == util::LineChannel::Fill::Error) {
          dead = true;
          break;
        }
      }
      if (dead) declare_dead(c, "pipe closed or protocol violation");
    }

    // Failure detectors: hello deadline, heartbeat misses, hung leases.
    const double tick = clock.now_s();
    double max_lease_age_s = 0.0;
    for (WorkerConn& c : conns) {
      if (!c.alive) continue;
      if (!c.hello_ok) {
        if (c.liveness.expired(tick)) declare_dead(c, "no hello before deadline");
        continue;
      }
      if (c.liveness.expired(tick)) {
        ++c.misses;
        ++stats_.heartbeat_misses;
        ++stats_.workers[static_cast<std::size_t>(c.id)].heartbeat_misses;
        hb_miss_counter.add();
        c.fr.record(tick, "hb_miss", "misses=" + std::to_string(c.misses));
        fleet_mark("coord.hb_miss", static_cast<double>(c.id));
        if (c.misses >= opts_.heartbeat_miss_limit) {
          declare_dead(c, "heartbeat timeout");
          continue;
        }
        c.liveness.extend(tick, opts_.heartbeat_timeout_s);
      }
      if (c.has_lease) {
        const double age_s =
            opts_.lease_timeout_s - c.lease_deadline.remaining_s(tick);
        max_lease_age_s = std::max(max_lease_age_s, age_s);
        // The wedged trap fires FIRST and separately from the heartbeat
        // detector: a worker stuck in a busy loop (or an injected stall)
        // keeps heartbeating from its heartbeat thread, so liveness
        // alone would wait out the full lease timeout.
        if (opts_.progress_timeout_s > 0.0 &&
            c.progress_deadline.expired(tick)) {
          ++stats_.workers_evicted_wedged;
          evicted_counter.add();
          c.fr.record(tick, "wedged",
                      "start=" + std::to_string(c.lease_start) +
                          " no progress for " +
                          std::to_string(opts_.progress_timeout_s) + "s");
          fleet_mark("coord.evict_wedged", static_cast<double>(c.id));
          declare_dead(c, "wedged: heartbeating but no block progress");
          continue;
        }
        if (c.lease_deadline.expired(tick)) {
          declare_dead(c, "lease timeout (hung block)");
        }
      }
    }
    lease_age_gauge.set(max_lease_age_s);
    stats_.max_lease_age_s = std::max(stats_.max_lease_age_s, max_lease_age_s);
  }

  // Graceful shutdown: shutdown verb + stdin EOF, a short grace window,
  // then SIGKILL. The destructorial kill is the backstop either way.
  for (WorkerConn& c : conns) {
    if (!c.alive) continue;
    util::write_all(c.proc.stdin_fd(), encode_shutdown() + "\n");
    c.proc.close_stdin();
    c.fr.record(clock.now_s(), "shutdown_sent");
    fleet_mark("coord.shutdown", static_cast<double>(c.id));
  }
  // Drain the farewell batches: a worker ships its final stat/trace
  // lines AFTER its last block record, i.e. after the fold frontier
  // closed and the event loop exited — without this read-to-EOF pass a
  // one-block worker's whole lane would be lost. Bounded by the same
  // grace the process wait uses; late blocks are duplicates by now and
  // handle_line absorbs them.
  {
    draining = true;
    const double drain_end = clock.now_s() + 2.0;
    for (WorkerConn& c : conns) {
      if (!c.alive) continue;
      bool open = true;
      while (open) {
        const util::LineChannel::Fill f = c.channel->fill();
        std::string line;
        while (c.channel->next_line(line)) {
          if (!handle_line(c, line)) {
            open = false;
            break;
          }
        }
        if (f == util::LineChannel::Fill::Eof ||
            f == util::LineChannel::Fill::Error) {
          break;
        }
        if (f == util::LineChannel::Fill::WouldBlock) {
          const double left = drain_end - clock.now_s();
          if (left <= 0.0) break;
          (void)util::poll_readable({c.proc.stdout_fd()}, std::min(left, 0.05));
        }
      }
    }
  }
  const double grace_end = clock.now_s() + 2.0;
  for (WorkerConn& c : conns) {
    if (!c.alive) continue;
    // A worker closes its pipes just before it becomes reapable, so the
    // reap polls on a doubling backoff from 50 µs: a fixed 10 ms nap
    // cost most shutdowns a whole nap.
    std::chrono::microseconds nap(50);
    while (c.proc.running() && clock.now_s() < grace_end) {
      std::this_thread::sleep_for(nap);
      nap = std::min(2 * nap, std::chrono::microseconds(10000));
    }
    if (c.proc.running()) {
      c.proc.kill_hard();
    } else {
      c.proc.wait();
    }
  }
  alive_gauge.set(0.0);

  // Rollup finalization: survivors get their RTT percentiles here (the
  // dead already got theirs in declare_dead), and the fleet-wide
  // percentiles come from this run's histogram, not the process-global
  // registry one (which accumulates across runs).
  obs::HistogramSnapshot merged_block_hist;
  for (WorkerConn& c : conns) {
    WorkerInfo& wi = stats_.workers[static_cast<std::size_t>(c.id)];
    if (!wi.died) {
      wi.rtt_p50_s = c.rtt->percentile(0.5);
      wi.rtt_p99_s = c.rtt->percentile(0.99);
    }
    if (c.block_hist.counts.empty()) continue;
    if (merged_block_hist.counts.empty()) {
      merged_block_hist = c.block_hist;
    } else if (merged_block_hist.bounds == c.block_hist.bounds) {
      for (std::size_t i = 0; i < merged_block_hist.counts.size(); ++i) {
        merged_block_hist.counts[i] += c.block_hist.counts[i];
      }
      merged_block_hist.sum += c.block_hist.sum;
    }
  }
  if (merged_block_hist.total() > 0) {
    stats_.block_seconds_p50_s = merged_block_hist.percentile(0.5);
    stats_.block_seconds_p99_s = merged_block_hist.percentile(0.99);
  }
  stats_.rtt_p50_s = fleet_rtt.percentile(0.5);
  stats_.rtt_p99_s = fleet_rtt.percentile(0.99);

  if (!ledger.all_folded()) {
    // Graceful degradation: every worker is gone, work remains. Slower
    // is acceptable; wrong or empty-handed is not.
    stats_.degraded_in_process = true;
    coord_fr.record(clock.now_s(), "degrade",
                    std::to_string(ledger.pending() + ledger.leased()) +
                        " blocks to in-process fallback");
    fleet_mark("coord.degrade",
               static_cast<double>(ledger.pending() + ledger.leased()));
    std::fprintf(stderr,
                 "greenhpc: all %d sweep worker(s) died; running the remaining "
                 "%zu block(s) in-process\n",
                 opts_.workers, ledger.pending() + ledger.leased());
    run_in_process();
  }
  finalize_containment();
  finalize_fleet();
  return result;
}

}  // namespace greenhpc::core
