#include "core/sweep_worker.hpp"

#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

#include "core/sweep_journal.hpp"
#include "core/sweep_protocol.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/fault_injector.hpp"
#include "util/subprocess.hpp"

namespace greenhpc::core {

namespace {

/// Most fleet events one `trace` line carries. Pending events ship
/// when one more block could overflow the cap or a heartbeat interval
/// has passed, so a fast worker's trace costs one line per batch rather
/// than one per block while its buffer stays a few kilobytes.
constexpr std::size_t kTraceBatchEvents = 256;
/// Fleet events one block records: assign, block and journal.
constexpr std::size_t kFleetEventsPerBlock = 3;

/// Injected sleep, milliseconds (Stall/Delay actions).
void chaos_sleep_ms(std::uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Injected process death. 137 = the 128+SIGKILL convention, so chaos
/// kills look exactly like the OOM-killer to the coordinator.
[[noreturn]] void chaos_kill() { std::_Exit(137); }

/// Split `dir/file` for SweepJournal::create_shard.
void split_path(const std::string& path, std::string& dir, std::string& file) {
  const std::size_t slash = path.rfind('/');
  if (slash == std::string::npos) {
    dir = ".";
    file = path;
  } else {
    dir = path.substr(0, slash);
    file = path.substr(slash + 1);
  }
}

}  // namespace

SweepWorker::SweepWorker(Options opts) : opts_(std::move(opts)) {
  if (opts_.block == 0) opts_.block = 256;
}

int SweepWorker::run(const SweepGrid& grid) {
  util::FaultInjector& chaos = util::FaultInjector::global();
  {
    // Chaos hook: slow-start (Delay) or death before the hello (Kill) —
    // the coordinator's hello-deadline detector owns this window.
    util::FaultHit hit;
    if (chaos.consult("worker.start", hit)) {
      if (hit.action == util::FaultAction::Kill && chaos.lethal()) {
        chaos_kill();
      }
      if (hit.action == util::FaultAction::Delay ||
          hit.action == util::FaultAction::Stall) {
        chaos_sleep_ms(hit.param);
      }
    }
  }
  std::unique_ptr<SweepCaseRunner> runner;
  try {
    runner = std::make_unique<SweepCaseRunner>(grid, opts_.case_opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "greenhpc: sweep worker rejects grid: %s\n", e.what());
    return 3;
  }
  const std::size_t n_cases = runner->case_count();
  const std::uint64_t config = grid.config_digest();
  util::ThreadPool& pool =
      opts_.pool != nullptr ? *opts_.pool : util::ThreadPool::global();

  std::unique_ptr<SweepJournal> shard;
  if (!opts_.shard_path.empty()) {
    std::string dir, file;
    split_path(opts_.shard_path, dir, file);
    // A worker without crash insurance is still a working worker: the
    // coordinator re-leases anything this worker dies holding.
    (void)journal_io_ok([&] {
      shard = std::make_unique<SweepJournal>(
          SweepJournal::create_shard(dir, file, config, n_cases, opts_.block));
    });
  }

  util::LineWriter out(opts_.out_fd);
  util::LineChannel in(opts_.in_fd);  // blocking fd: fill() waits for data
  const long pid = static_cast<long>(::getpid());

  // Observability shipping (digest-neutral: the coordinator's fold path
  // never reads stat/trace lines). Fleet spans are recorded directly
  // into a small main-thread buffer rather than through the global
  // Tracer: enabling the tracer would also switch on every per-tick
  // simulator span, and shipping would pay for recording them all.
  // The buffer is bounded by kTraceBatchEvents, so it needs no ring.
  const bool ship_obs = opts_.ship_stats || opts_.ship_trace;
  static obs::Gauge& rate_gauge =
      obs::Registry::global().gauge("sweep.cases_per_s");
  const auto ship_stat = [&] {
    (void)out.write_line(encode_stat(pid, obs::Tracer::now_ns(),
                                     obs::Registry::global().snapshot()));
  };
  // Pending cat=="fleet" events; MAIN THREAD ONLY, between blocks (the
  // heartbeat thread never records).
  std::vector<obs::RemoteTraceEvent> fleet_events;
  util::MonotoneClock clock;
  const auto fleet_instant = [&](const char* name, double value) {
    if (!opts_.ship_trace) return;
    obs::RemoteTraceEvent e;
    e.name = name;
    e.cat = "fleet";
    e.phase = 'i';
    e.ts_ns = obs::Tracer::now_ns();
    e.value = value;
    fleet_events.push_back(std::move(e));
  };
  const auto fleet_span = [&](const char* name, std::uint64_t begin_ns) {
    if (!opts_.ship_trace) return;
    obs::RemoteTraceEvent e;
    e.name = name;
    e.cat = "fleet";
    e.phase = 'X';
    e.ts_ns = begin_ns;
    const std::uint64_t now_ns = obs::Tracer::now_ns();
    e.dur_ns = now_ns > begin_ns ? now_ns - begin_ns : 0;
    fleet_events.push_back(std::move(e));
  };
  double trace_flushed_s = clock.now_s();
  const auto ship_trace_batch = [&] {
    if (!opts_.ship_trace) return;
    (void)out.write_line(
        encode_trace(pid, obs::Tracer::now_ns(), 0, fleet_events));
    fleet_events.clear();
    trace_flushed_s = clock.now_s();
  };

  if (!out.write_line(encode_hello(pid, config, n_cases, opts_.block))) {
    return 0;  // coordinator already gone; nothing to serve
  }
  // The anchor line: the coordinator pairs this line's clock reading
  // with its own receipt time to fix this worker's lane offset in the
  // merged fleet trace, so it must ship before any span does.
  if (ship_obs) ship_stat();

  // Heartbeat side thread: liveness must keep flowing WHILE a block
  // simulates, or a long block is indistinguishable from a hang. The
  // LineWriter mutex keeps heartbeat lines and block lines from
  // interleaving bytes.
  std::mutex hb_mu;
  std::condition_variable hb_cv;
  bool hb_stop = false;
  std::thread heartbeat([&] {
    std::unique_lock<std::mutex> lock(hb_mu);
    for (;;) {
      // The predicate also catches a stop notified before this thread
      // first waits; without it that wake-up is lost and shutdown waits
      // out a whole interval.
      if (hb_cv.wait_for(lock,
                         std::chrono::duration<double>(opts_.heartbeat_interval_s),
                         [&] { return hb_stop; })) {
        return;
      }
      {
        // Chaos hook: drop or delay this beat. Consulted per beat, so a
        // Drop spec with count=N silences exactly N consecutive beats —
        // enough to drive the coordinator through miss counting without
        // (or into) the death verdict, depending on N.
        util::FaultHit hit;
        if (chaos.consult("worker.heartbeat", hit)) {
          if (hit.action == util::FaultAction::Drop) continue;
          if (hit.action == util::FaultAction::Delay) chaos_sleep_ms(hit.param);
        }
      }
      if (!out.write_line(encode_heartbeat(pid))) return;  // peer gone
      // Piggyback a registry snapshot on the heartbeat cadence: the
      // coordinator turns the line's clock reading into an RTT sample
      // and its payload into the per-worker rollup. Registry::snapshot
      // is safe concurrent with the simulating pool threads.
      if (opts_.ship_stats) ship_stat();
    }
  });
  const auto stop_heartbeat = [&] {
    {
      std::lock_guard<std::mutex> lock(hb_mu);
      hb_stop = true;
    }
    hb_cv.notify_all();
    heartbeat.join();
  };

  const double t0_s = clock.now_s();
  std::size_t done_cases = 0;

  std::string line;
  int rc = 0;
  for (;;) {
    while (!in.next_line(line)) {
      const util::LineChannel::Fill f = in.fill();
      if (f == util::LineChannel::Fill::Eof ||
          f == util::LineChannel::Fill::Error) {
        if (!in.next_line(line)) {
          stop_heartbeat();
          return 0;  // coordinator hung up: clean exit
        }
        break;
      }
    }
    const Message m = parse_message(line);
    if (m.kind == MsgKind::Shutdown) break;
    if (m.kind != MsgKind::Assign) {
      rc = 2;  // the coordinator never sends anything else
      break;
    }
    // A valid assignment is either a whole aligned block or a
    // single-case PROBE of a suspect block (poison containment).
    const bool aligned = m.start % opts_.block == 0 && m.start < n_cases &&
                         m.count == std::min(opts_.block, n_cases - m.start);
    const bool probe = m.count == 1 && m.start < n_cases;
    if (!aligned && !probe) {
      rc = 2;
      break;
    }

    SweepBlock block;
    fleet_instant("worker.assign", static_cast<double>(m.start));
    {
      const std::uint64_t span_t0_ns = obs::Tracer::now_ns();
      runner->run_ranges(pool, {SweepRange{m.start, m.count}},
                         [&](SweepBlock& done) { block = std::move(done); });
      fleet_span("worker.block", span_t0_ns);
    }
    {
      // Chaos hook, placed in the worst spot by design: AFTER the block
      // computed, BEFORE it is journaled or reported. Kill loses the
      // whole block's work (re-lease must recompute); Stall wedges the
      // main thread while the heartbeat thread keeps beating — exactly
      // the failure the coordinator's progress deadline exists to catch.
      util::FaultHit hit;
      if (chaos.consult("worker.block", hit)) {
        if (hit.action == util::FaultAction::Kill && chaos.lethal()) {
          chaos_kill();
        }
        if (hit.action == util::FaultAction::Stall) chaos_sleep_ms(hit.param);
      }
    }

    // Durability before visibility: once the coordinator sees this
    // record it may never be re-leased, so it must already be on disk.
    // Probe results are deliberately NOT journaled: shard records must
    // stay block-aligned, and a restarted coordinator re-probes from
    // its own lease-death evidence.
    if (shard != nullptr && aligned) {
      const std::uint64_t span_t0_ns = obs::Tracer::now_ns();
      if (!journal_io_ok([&] { shard->append(block); })) shard.reset();
      fleet_span("worker.journal", span_t0_ns);
    }
    done_cases += m.count;
    const double elapsed_s = clock.now_s() - t0_s;
    if (elapsed_s > 0.0) {
      rate_gauge.set(static_cast<double>(done_cases) / elapsed_s);
    }
    std::string report = SweepJournal::serialize_block_line(block);
    {
      // Chaos hook: corrupt the sealed report line in flight. Every
      // mutation fails the line's FNV seal at the coordinator (a
      // surviving corruption is a ~2^-64 event), which must be treated
      // as a protocol violation, never folded.
      util::FaultHit hit;
      if (chaos.consult("worker.report", hit)) {
        switch (hit.action) {
          case util::FaultAction::Truncate:
            report.resize(report.size() -
                          std::min<std::size_t>(hit.param, report.size()));
            break;
          case util::FaultAction::ShortWrite:
            report.resize(std::min<std::size_t>(hit.param, report.size()));
            break;
          case util::FaultAction::BitFlip:
            if (!report.empty()) {
              const std::uint64_t bit = hit.param % (report.size() * 8);
              report[bit / 8] = static_cast<char>(
                  static_cast<unsigned char>(report[bit / 8]) ^
                  (1u << (bit % 8)));
            }
            break;
          default:
            break;
        }
      }
    }
    if (!out.write_line(report)) {
      break;  // coordinator died mid-run; the shard record survives
    }
    if (fleet_events.size() + kFleetEventsPerBlock > kTraceBatchEvents ||
        clock.now_s() - trace_flushed_s >= opts_.heartbeat_interval_s) {
      ship_trace_batch();
    }
  }
  // Last snapshot out the door (best effort — the coordinator may
  // already be gone): the final protocol exchange a postmortem shows.
  // The registry is cumulative, so this one line carries every block's
  // counters and block-seconds samples to the coordinator's rollup.
  if (ship_obs) ship_stat();
  ship_trace_batch();
  stop_heartbeat();
  return rc;
}

}  // namespace greenhpc::core
