#include "core/chaos.hpp"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "core/sweep_coordinator.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "util/atomic_file.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace greenhpc::core {

namespace {

using util::FaultAction;
using util::FaultSpec;

/// Remove the journal files a previous schedule (or a previous harness
/// invocation reusing the workdir) left in `dir`, so a resume inside
/// THIS schedule can never union stale shards from another grid run.
/// Only sweep artifacts are touched; unknown files are left alone.
void scrub_journal_dir(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;  // not created yet: nothing to scrub
  std::vector<std::string> doomed;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    const bool shard = name.rfind("shard-", 0) == 0 &&
                       name.size() > 8 &&
                       name.compare(name.size() - 8, 8, ".journal") == 0;
    if (shard || name == "sweep.journal") doomed.push_back(name);
  }
  ::closedir(d);
  for (const std::string& name : doomed) ::unlink((dir + "/" + name).c_str());
}

/// Sorted flat ids of a result's quarantined cases — the comparable half
/// of the terminal report (error text is path-dependent, flat ids are
/// not).
std::vector<std::size_t> failed_flats(const SweepResult& r) {
  std::vector<std::size_t> out;
  out.reserve(r.failed_cases.size());
  for (const SweepFailedCase& f : r.failed_cases) out.push_back(f.flat);
  std::sort(out.begin(), out.end());
  return out;
}

std::string flats_to_string(const std::vector<std::size_t>& v) {
  std::string s = "{";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) s += ",";
    s += std::to_string(v[i]);
  }
  return s + "}";
}

/// Arm/disarm bracket: the injector is process-global state, so every
/// exit path out of the harness must leave it disarmed or a later sweep
/// in the same process would inherit chaos specs.
struct DisarmGuard {
  ~DisarmGuard() { util::FaultInjector::global().disarm(); }
};

}  // namespace

const std::vector<std::string>& chaos_site_catalogue() {
  static const std::vector<std::string> kSites = {
      "worker.start",   "worker.heartbeat", "worker.block",
      "worker.report",  "journal.append",   "case.poison",
      "coord.fold",
  };
  return kSites;
}

ChaosSchedule ChaosSchedule::derive(std::uint64_t chaos_seed, int schedule,
                                    const std::vector<std::string>& sites,
                                    int workers, std::size_t n_cases,
                                    std::size_t n_blocks,
                                    std::uint64_t wedge_stall_ms) {
  GREENHPC_REQUIRE(workers >= 1, "chaos schedule needs at least one worker");
  GREENHPC_REQUIRE(n_cases >= 1 && n_blocks >= 1,
                   "chaos schedule needs a non-empty grid");
  ChaosSchedule p;
  p.chaos_seed = chaos_seed;
  p.schedule = schedule;
  p.worker_faults.resize(static_cast<std::size_t>(workers));

  // One splitmix64 stream per (seed, schedule); every decision below is
  // a fresh draw in a FIXED order, so the plan is a pure function of the
  // derive() arguments.
  std::uint64_t st =
      chaos_seed + 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(schedule + 1);
  auto draw = [&st] { return util::splitmix64(st); };
  auto enabled = [&sites](const char* site) {
    return sites.empty() ||
           std::find(sites.begin(), sites.end(), site) != sites.end();
  };

  // Plan-level faults first: the poison case (one per schedule, shared by
  // every process so worker and in-process behaviour agree on WHICH case
  // is bad) and the mid-fold coordinator death.
  if (enabled("case.poison") && draw() % 100 < 25) {
    p.has_poison = true;
    p.poison_flat = draw() % n_cases;
  }
  if (enabled("coord.fold") && draw() % 100 < 20) {
    p.has_restart = true;
    p.coordinator_faults.push_back(
        {"coord.fold", draw() % n_blocks, 1, FaultAction::Fail, 0});
  }

  for (int w = 0; w < workers; ++w) {
    std::vector<FaultSpec>& specs = p.worker_faults[static_cast<std::size_t>(w)];
    if (enabled("worker.start") && draw() % 100 < 30) {
      const std::uint64_t d = draw();
      if (d % 4 == 0) {
        specs.push_back({"worker.start", 0, 1, FaultAction::Kill, 0});
      } else {
        specs.push_back({"worker.start", 0, 1, FaultAction::Delay, 20 + d % 180});
      }
    }
    if (enabled("worker.heartbeat") && draw() % 100 < 30) {
      const std::uint64_t d = draw();
      if (d % 3 == 0) {
        specs.push_back(
            {"worker.heartbeat", d % 4, 2, FaultAction::Delay, 20 + d % 130});
      } else {
        // Long drops (up to 12 beats) can cross the miss limit and get
        // the worker declared dead while perfectly healthy — the fabric
        // must survive false positives too.
        specs.push_back(
            {"worker.heartbeat", d % 4, 1 + d % 12, FaultAction::Drop, 0});
      }
    }
    if (enabled("worker.block") && draw() % 100 < 40) {
      const std::uint64_t d = draw();
      if (d % 100 < 15) {
        // The wedge: heartbeats keep flowing while the block sits on a
        // stall longer than the progress deadline — only the
        // progress-timeout eviction trap ends this one.
        specs.push_back(
            {"worker.block", d % 3, 1, FaultAction::Stall, wedge_stall_ms});
      } else if (d % 2 == 0) {
        specs.push_back({"worker.block", d % 3, 1, FaultAction::Kill, 0});
      } else {
        specs.push_back(
            {"worker.block", d % 3, 1, FaultAction::Stall, 50 + d % 250});
      }
    }
    if (enabled("worker.report") && draw() % 100 < 25) {
      const std::uint64_t d = draw();
      switch (d % 3) {
        case 0:
          specs.push_back(
              {"worker.report", d % 3, 1, FaultAction::Truncate, 1 + d % 8});
          break;
        case 1:
          specs.push_back(
              {"worker.report", d % 3, 1, FaultAction::BitFlip, d % 4096});
          break;
        default:
          specs.push_back(
              {"worker.report", d % 3, 1, FaultAction::ShortWrite, 5 + d % 40});
          break;
      }
    }
    if (enabled("journal.append") && draw() % 100 < 25) {
      const std::uint64_t d = draw();
      if (d % 2 == 0) {
        specs.push_back({"journal.append", d % 3, 1, FaultAction::Fail, 0});
      } else {
        specs.push_back(
            {"journal.append", d % 3, 1, FaultAction::ShortWrite, 3 + d % 30});
      }
    }
  }

  if (p.has_poison) {
    // The SAME spec everywhere: workers run lethal (the case kills its
    // process), the coordinator does not (match degrades to a thrown,
    // quarantinable failure in the in-process path).
    const FaultSpec poison{"case.poison", p.poison_flat, 1, FaultAction::Kill, 0};
    for (std::vector<FaultSpec>& specs : p.worker_faults) specs.push_back(poison);
    p.coordinator_faults.push_back(poison);
  }
  return p;
}

std::vector<FaultSpec> ChaosSchedule::worker_specs(int slot,
                                                   int incarnation) const {
  if (incarnation > 0) {
    // Respawns are healthy except for the poison: the poisoned case must
    // keep killing whoever runs it, everything else must not be able to
    // drain the respawn budget forever.
    std::vector<FaultSpec> specs;
    if (has_poison) {
      specs.push_back({"case.poison", poison_flat, 1, FaultAction::Kill, 0});
    }
    return specs;
  }
  const auto i = static_cast<std::size_t>(slot);
  return i < worker_faults.size() ? worker_faults[i] : std::vector<FaultSpec>{};
}

std::vector<FaultSpec> ChaosSchedule::resume_coordinator_faults() const {
  std::vector<FaultSpec> specs;
  for (const FaultSpec& s : coordinator_faults) {
    if (s.site != "coord.fold") specs.push_back(s);
  }
  return specs;
}

std::string ChaosSchedule::describe() const {
  std::ostringstream os;
  os << "schedule " << schedule << " seed " << chaos_seed;
  if (has_poison) os << " poison=" << poison_flat;
  if (has_restart) os << " restart";
  for (std::size_t w = 0; w < worker_faults.size(); ++w) {
    if (worker_faults[w].empty()) continue;
    os << " w" << w << ":[";
    for (std::size_t i = 0; i < worker_faults[w].size(); ++i) {
      if (i != 0) os << " ";
      const FaultSpec& s = worker_faults[w][i];
      os << s.site << "@" << s.at << "x" << s.count << ":"
         << util::FaultInjector::action_name(s.action);
    }
    os << "]";
  }
  return os.str();
}

ChaosReport run_chaos(const ChaosOptions& opts) {
  GREENHPC_REQUIRE(opts.grid != nullptr, "chaos needs a grid");
  GREENHPC_REQUIRE(opts.schedules >= 1, "chaos needs at least one schedule");
  GREENHPC_REQUIRE(opts.workers >= 1, "chaos needs at least one worker");
  GREENHPC_REQUIRE(!opts.worker_argv.empty(), "chaos needs a worker argv");
  GREENHPC_REQUIRE(!opts.workdir.empty(), "chaos needs a workdir");
  GREENHPC_REQUIRE(opts.block >= 1, "chaos block must be >= 1");
  for (const std::string& site : opts.sites) {
    const auto& cat = chaos_site_catalogue();
    GREENHPC_REQUIRE(std::find(cat.begin(), cat.end(), site) != cat.end(),
                     "unknown chaos site: " + site);
  }

  util::FaultInjector& inj = util::FaultInjector::global();
  DisarmGuard disarm_guard;
  obs::Registry& reg = obs::Registry::global();
  util::MonotoneClock clock;
  const double t_start = clock.now_s();
  obs::FlightRecorder events(
      std::max<std::size_t>(256, static_cast<std::size_t>(opts.schedules) * 4));

  const std::size_t n_cases = opts.grid->case_count();
  const std::size_t n_blocks = (n_cases + opts.block - 1) / opts.block;

  ChaosReport report;
  report.chaos_seed = opts.chaos_seed;

  // Clean reference: the digest every fault-only (non-poison) schedule
  // must reproduce bit for bit. In-process, injector disarmed.
  inj.disarm();
  SweepEngine::Options ceng;
  ceng.block = opts.block;
  const SweepResult clean = SweepEngine(ceng).run(*opts.grid);
  GREENHPC_REQUIRE(clean.failed_cases.empty(),
                   "chaos baseline grid must run clean (a grid that "
                   "quarantines cases on its own cannot anchor the digest "
                   "comparison)");
  report.clean_digest = clean.digest;
  events.record(clock.now_s() - t_start, "baseline",
                "digest=" + std::to_string(clean.digest) +
                    " cases=" + std::to_string(clean.cases));

  // Poisoned references, computed on demand and cached by flat id: the
  // expected terminal report when case `flat` deterministically dies.
  // case_retries=0 — attempts don't move the digest and the reference
  // should not burn retry backoff.
  std::map<std::size_t, SweepResult> poison_ref;
  auto poisoned_reference = [&](std::size_t flat) -> const SweepResult& {
    auto it = poison_ref.find(flat);
    if (it != poison_ref.end()) return it->second;
    inj.arm({{"case.poison", flat, 1, FaultAction::Kill, 0}});
    SweepEngine::Options peng;
    peng.block = opts.block;
    peng.case_opts.case_retries = 0;
    SweepResult r = SweepEngine(peng).run(*opts.grid);
    inj.disarm();
    GREENHPC_REQUIRE(r.failed_cases.size() == 1 && r.failed_cases[0].flat == flat,
                     "poisoned reference run did not quarantine exactly the "
                     "poisoned case");
    return poison_ref.emplace(flat, std::move(r)).first->second;
  };

  // Execute one schedule to its terminal report: arm, run, and on an
  // injected coordinator death restart with resume=true re-armed WITHOUT
  // the fold fault. Never throws for schedule-level failures.
  auto run_schedule = [&](const ChaosSchedule& plan,
                          const std::string& jdir) -> ChaosScheduleOutcome {
    ChaosScheduleOutcome out;
    out.schedule = plan.schedule;
    out.has_poison = plan.has_poison;
    out.poison_flat = plan.poison_flat;

    scrub_journal_dir(jdir);

    SweepCoordinator::Options c;
    c.workers = opts.workers;
    c.worker_argv = opts.worker_argv;
    c.journal_dir = jdir;
    c.block = opts.block;
    c.heartbeat_interval_s = opts.heartbeat_interval_s;
    c.heartbeat_timeout_s = opts.heartbeat_timeout_s;
    c.heartbeat_miss_limit = opts.heartbeat_miss_limit;
    c.hello_timeout_s = opts.hello_timeout_s;
    c.lease_timeout_s = opts.lease_timeout_s;
    c.progress_timeout_s = opts.progress_timeout_s;
    c.lease_backoff_base_s = opts.lease_backoff_base_s;
    c.lease_backoff_cap_s = opts.lease_backoff_cap_s;
    c.lease_suspect_after = opts.lease_suspect_after;
    c.probe_case_deaths = opts.probe_case_deaths;
    c.max_respawns = opts.max_respawns;
    c.worker_extra_args = [&plan](int slot, int incarnation) {
      std::vector<std::string> extra;
      const std::vector<FaultSpec> specs = plan.worker_specs(slot, incarnation);
      if (!specs.empty()) {
        extra.push_back("--chaos-spec");
        extra.push_back(util::FaultInjector::encode(specs));
      }
      return extra;
    };

    const double t0 = clock.now_s();
    SweepResult result;
    SweepCoordinator::Stats stats;
    bool completed = false;
    for (int attempt = 0; attempt < 4; ++attempt) {
      inj.arm(attempt == 0 ? plan.coordinator_faults
                           : plan.resume_coordinator_faults());
      try {
        SweepCoordinator coord(c);
        result = coord.run(*opts.grid);
        stats = coord.stats();
        completed = true;
        break;
      } catch (const util::InjectedFailure&) {
        // The injected coordinator death. Worker children were reaped by
        // the unwind; shard journals survive on disk. Restart resuming
        // from them, with the fold fault removed.
        out.restarted = true;
        c.resume = true;
      }
    }
    inj.disarm();
    out.elapsed_s = clock.now_s() - t0;
    if (!completed) {
      out.note = "coordinator restart loop did not converge in 4 attempts";
      return out;
    }

    out.digest = result.digest;
    out.cases = result.cases;
    out.failed_flats = failed_flats(result);
    out.worker_deaths = stats.worker_deaths;
    out.workers_respawned = stats.workers_respawned;
    out.workers_evicted_wedged = stats.workers_evicted_wedged;
    out.suspect_blocks = stats.suspect_blocks;
    out.probes_launched = stats.probes_launched;
    out.probe_quarantined_cases = stats.probe_quarantined_cases;
    out.journal_degraded = stats.journal_degraded;
    out.journal_truncations = stats.journal_truncations;

    const SweepResult& expect =
        plan.has_poison ? poisoned_reference(plan.poison_flat) : clean;
    const std::vector<std::size_t> expect_flats = failed_flats(expect);
    if (out.cases != n_cases) {
      out.note = "terminal report covers " + std::to_string(out.cases) +
                 " cases, grid has " + std::to_string(n_cases);
    } else if (out.digest != expect.digest) {
      out.note = "digest " + std::to_string(out.digest) + " != expected " +
                 std::to_string(expect.digest) +
                 (plan.has_poison ? " (poisoned reference)" : " (clean run)");
    } else if (out.failed_flats != expect_flats) {
      out.note = "quarantined cases " + flats_to_string(out.failed_flats) +
                 " != expected " + flats_to_string(expect_flats);
    } else if (out.elapsed_s > opts.schedule_deadline_s) {
      out.note = "schedule took " + std::to_string(out.elapsed_s) +
                 "s, deadline " + std::to_string(opts.schedule_deadline_s) + "s";
    } else {
      out.pass = true;
    }
    return out;
  };

  auto record_outcome = [&](const ChaosScheduleOutcome& out, const char* kind) {
    std::ostringstream d;
    d << "s=" << out.schedule << " pass=" << (out.pass ? 1 : 0)
      << " digest=" << out.digest << " failed=" << flats_to_string(out.failed_flats)
      << " poison=" << (out.has_poison ? static_cast<long long>(out.poison_flat) : -1)
      << " restarted=" << (out.restarted ? 1 : 0)
      << " deaths=" << out.worker_deaths << " respawned=" << out.workers_respawned
      << " wedged=" << out.workers_evicted_wedged
      << " probes=" << out.probes_launched
      << " elapsed_s=" << out.elapsed_s;
    if (!out.note.empty()) d << " note=" << out.note;
    events.record(clock.now_s() - t_start, kind, d.str());
  };

  static obs::Counter& schedules_run = reg.counter("chaos.schedules_run");
  static obs::Counter& schedules_failed = reg.counter("chaos.schedules_failed");

  for (int s = 0; s < opts.schedules; ++s) {
    const ChaosSchedule plan = ChaosSchedule::derive(
        opts.chaos_seed, s, opts.sites, opts.workers, n_cases, n_blocks,
        opts.wedge_stall_ms);
    const std::string jdir = opts.workdir + "/sched-" + std::to_string(s);
    ChaosScheduleOutcome out;
    try {
      out = run_schedule(plan, jdir);
    } catch (const std::exception& e) {
      // A coordinator crash that is NOT the injected restart is exactly
      // what the harness exists to catch: a containment failure.
      out.schedule = s;
      out.has_poison = plan.has_poison;
      out.poison_flat = plan.poison_flat;
      out.note = std::string("coordinator threw: ") + e.what();
      inj.disarm();
    }
    schedules_run.add();
    if (!out.pass) {
      schedules_failed.add();
      ++report.failures;
      std::fprintf(stderr, "greenhpc chaos: FAIL %s\n  %s\n",
                   plan.describe().c_str(), out.note.c_str());
    }
    if (plan.has_poison) ++report.poison_schedules;
    if (out.restarted) ++report.restart_schedules;
    record_outcome(out, out.pass ? "schedule" : "schedule_fail");
    if (opts.on_schedule) opts.on_schedule(out);
    report.schedules.push_back(std::move(out));
  }

  // Determinism pass: re-run one schedule end to end; the terminal
  // report must reproduce exactly (digest, quarantine set, case count).
  const int r = static_cast<int>(opts.chaos_seed % static_cast<std::uint64_t>(
                                     opts.schedules));
  report.determinism_schedule = r;
  const ChaosSchedule replan = ChaosSchedule::derive(
      opts.chaos_seed, r, opts.sites, opts.workers, n_cases, n_blocks,
      opts.wedge_stall_ms);
  ChaosScheduleOutcome rerun;
  try {
    rerun = run_schedule(replan, opts.workdir + "/sched-" + std::to_string(r));
  } catch (const std::exception& e) {
    rerun.note = std::string("determinism rerun threw: ") + e.what();
    inj.disarm();
  }
  const ChaosScheduleOutcome& first = report.schedules[static_cast<std::size_t>(r)];
  report.determinism_pass = rerun.pass == first.pass &&
                            rerun.digest == first.digest &&
                            rerun.cases == first.cases &&
                            rerun.failed_flats == first.failed_flats;
  record_outcome(rerun, report.determinism_pass ? "determinism" : "determinism_fail");
  if (!report.determinism_pass) {
    std::fprintf(stderr,
                 "greenhpc chaos: determinism FAIL on schedule %d (digest "
                 "%llu vs %llu)\n",
                 r, static_cast<unsigned long long>(rerun.digest),
                 static_cast<unsigned long long>(first.digest));
  }

  report.pass = report.failures == 0 && report.determinism_pass;

  // Chaos event lane artifact: one JSONL verdict per schedule, same
  // shape the flight-recorder postmortems use, committed atomically so a
  // crashed harness never leaves a torn artifact for CI to upload.
  try {
    const std::string path = opts.workdir + "/chaos-events.jsonl";
    util::atomic_write_file(
        path, [&events](std::ostream& os) { events.write_jsonl(os); });
    report.events_path = path;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "greenhpc chaos: could not write event artifact: %s\n",
                 e.what());
  }
  return report;
}

}  // namespace greenhpc::core
