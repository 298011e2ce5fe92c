// greenhpc — command-line front end.
//
//   greenhpc trace    --region DE --days 31 [--step-min 60] [--marginal]
//                     [--seed N]                  CSV carbon-intensity trace
//   greenhpc fig1                                 embodied breakdown table
//   greenhpc carbon500                            carbon-efficiency ranking
//   greenhpc simulate --nodes 256 --region DE --days 7 [--jobs 900]
//                     [--sched easy|fcfs|conservative|carbon-easy]
//                     [--swf FILE] [--seed N]     cluster simulation summary
//   greenhpc regions                              list region presets
//   greenhpc sweep    --regions DE,FR --nodes 64,128 [--replicas 3]
//                     [--sched easy,carbon-easy]   mean±CI policy comparison
//                     [--journal DIR] [--resume |   over a parameter grid;
//                      --resume-or-start|--restart] journaled runs survive a
//                     [--retries N] [--csv FILE]   SIGKILL and resume with a
//                     [--workers N]                bit-identical digest;
//                     [--fleet-trace-out FILE]     --workers shards blocks
//                     [--postmortem-dir DIR]       across worker processes
//                     [--no-obs-ship]              with heartbeat-driven
//                                                  reassignment on death;
//                                                  the fleet flags merge
//                                                  worker traces and dump
//                                                  crash postmortems
//
// Global flags:
//   --threads N         size the worker pool (overrides GREENHPC_THREADS)
//   --trace-out FILE    record a runtime trace (Chrome trace_event JSON,
//                       loadable in chrome://tracing or ui.perfetto.dev)
//   --metrics-out FILE  dump the metrics-registry snapshot as JSON
//   --report FILE       write a per-run report (config digest, key numbers,
//                       metrics snapshot, wall time) as JSON
//
// Exit status: 0 on success, 2 on usage errors.

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "carbon/trace_io.hpp"
#include "core/scenario.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "core/chaos.hpp"
#include "core/sweep.hpp"
#include "core/sweep_coordinator.hpp"
#include "core/sweep_journal.hpp"
#include "core/sweep_worker.hpp"
#include "embodied/systems.hpp"
#include "hpcsim/swf_io.hpp"
#include "procure/carbon500.hpp"
#include "sched/carbon_aware.hpp"
#include "sched/conservative.hpp"
#include "sched/easy_backfill.hpp"
#include "sched/fcfs.hpp"
#include "util/atomic_file.hpp"
#include "util/csv.hpp"
#include "util/fault_injector.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace {

using namespace greenhpc;

/// Minimal --key value / --flag parser.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
        ok_ = false;
        return;
      }
      key = key.substr(2);
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";  // boolean flag
      }
    }
  }
  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] bool has(const std::string& key) const { return values_.count(key) > 0; }
  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() || it->second.empty() ? fallback : it->second;
  }
  [[nodiscard]] double num(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }

 private:
  std::map<std::string, std::string> values_;
  bool ok_ = true;
};

carbon::Region parse_region(const std::string& code) {
  for (carbon::Region r : carbon::all_regions()) {
    if (code == carbon::traits(r).code || code == carbon::traits(r).name) return r;
  }
  throw InvalidArgument("unknown region code: " + code + " (try `greenhpc regions`)");
}

int cmd_regions() {
  util::Table table({"code", "region", "mean [g/kWh]", "floor", "cap"});
  for (carbon::Region r : carbon::all_regions()) {
    const auto& t = carbon::traits(r);
    table.add_row({std::string(t.code), std::string(t.name),
                   util::Table::fmt(t.mean_gkwh, 0), util::Table::fmt(t.floor_gkwh, 0),
                   util::Table::fmt(t.cap_gkwh, 0)});
  }
  std::printf("%s", table.str("Region presets").c_str());
  return 0;
}

int cmd_trace(const Args& args) {
  const carbon::Region region = parse_region(args.get("region", "DE"));
  carbon::GridModel model(region, static_cast<std::uint64_t>(args.num("seed", 1)));
  const auto trace = model.generate(
      seconds(0.0), days(args.num("days", 31.0)), minutes(args.num("step-min", 60.0)),
      args.has("marginal") ? carbon::IntensityKind::Marginal
                           : carbon::IntensityKind::Average);
  carbon::save_intensity_csv(trace, std::cout);
  return 0;
}

int cmd_fig1() {
  const embodied::ActModel model;
  util::Table table({"system", "CPU[t]", "GPU[t]", "DRAM[t]", "storage[t]", "total[t]",
                     "mem+stor[%]"});
  for (const auto& sys : embodied::fig1_systems()) {
    const auto b = embodied_breakdown(model, sys);
    table.add_row({sys.name, util::Table::fmt(b.cpu.tonnes(), 1),
                   util::Table::fmt(b.gpu.tonnes(), 1),
                   util::Table::fmt(b.dram.tonnes(), 1),
                   util::Table::fmt(b.storage.tonnes(), 1),
                   util::Table::fmt(b.total().tonnes(), 1),
                   util::Table::fmt(100.0 * b.memory_storage_share(), 1)});
  }
  std::printf("%s", table.str("Embodied carbon by component (Fig. 1 methodology)").c_str());
  return 0;
}

int cmd_carbon500() {
  const embodied::ActModel model;
  const auto ranked = procure::rank(procure::reference_list(model));
  util::Table table({"#", "system", "region", "Rmax [PF]", "GFLOP/gCO2e"});
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    table.add_row({std::to_string(i + 1), ranked[i].system,
                   std::string(carbon::traits(ranked[i].region).code),
                   util::Table::fmt(ranked[i].rmax_pflops, 1),
                   util::Table::fmt(ranked[i].score_gflops_per_gram, 2)});
  }
  std::printf("%s", table.str("Carbon500").c_str());
  return 0;
}

core::SchedulerFactory scheduler_factory(const std::string& name) {
  if (name == "fcfs") {
    return [] { return std::make_unique<sched::FcfsScheduler>(); };
  }
  if (name == "conservative") {
    return [] { return std::make_unique<sched::ConservativeBackfillScheduler>(); };
  }
  if (name == "carbon-easy") {
    // One forecaster for every case of the factory: gate signals are
    // keyed by forecaster, so the cases of one trace share one signal.
    std::shared_ptr<const carbon::Forecaster> forecaster =
        std::make_shared<carbon::PersistenceForecaster>();
    return [forecaster] {
      return std::make_unique<sched::CarbonAwareEasyScheduler>(
          sched::CarbonAwareEasyScheduler::Config{}, forecaster);
    };
  }
  if (name == "easy") {
    return [] { return std::make_unique<sched::EasyBackfillScheduler>(); };
  }
  throw InvalidArgument("unknown scheduler: " + name +
                        " (easy|fcfs|conservative|carbon-easy)");
}

int cmd_simulate(const Args& args, obs::RunReport& report) {
  core::ScenarioConfig cfg;
  cfg.cluster.nodes = static_cast<int>(args.num("nodes", 256));
  cfg.region = parse_region(args.get("region", "DE"));
  const double span_days = args.num("days", 7.0);
  cfg.trace_span = days(span_days + 5.0);
  cfg.workload.span = days(span_days);
  cfg.workload.job_count = static_cast<int>(args.num("jobs", 900));
  cfg.workload.max_job_nodes = std::max(1, cfg.cluster.nodes / 2);
  cfg.seed = static_cast<std::uint64_t>(args.num("seed", 2023));
  core::ScenarioRunner runner(cfg);

  std::vector<hpcsim::JobSpec> jobs = runner.jobs();
  if (args.has("swf")) {
    std::ifstream swf(args.get("swf", ""));
    if (!swf) {
      std::fprintf(stderr, "cannot open SWF file: %s\n", args.get("swf", "").c_str());
      return 2;
    }
    hpcsim::SwfDefaults defaults;
    defaults.max_nodes = cfg.cluster.nodes;
    auto imported = hpcsim::load_swf(swf, defaults);
    std::fprintf(stderr, "SWF: %zu jobs imported, %d skipped\n", imported.jobs.size(),
                 imported.skipped);
    jobs = std::move(imported.jobs);
  }

  hpcsim::Simulator::Config sim_cfg;
  sim_cfg.cluster = cfg.cluster;
  sim_cfg.carbon_intensity = runner.trace_ptr();  // shared, zero-copy
  const std::size_t n_jobs = jobs.size();
  hpcsim::Simulator sim(sim_cfg, std::move(jobs));
  auto scheduler = scheduler_factory(args.get("sched", "easy"))();
  const auto result = sim.run(*scheduler);

  std::printf("scheduler:        %s\n", scheduler->name().c_str());
  std::printf("jobs completed:   %d / %zu\n", result.completed_jobs, n_jobs);
  std::printf("makespan:         %.1f h\n", result.makespan.hours());
  std::printf("energy:           %.2f MWh (idle share %.1f%%)\n",
              result.total_energy.megawatt_hours(),
              100.0 * result.idle_energy.joules() /
                  std::max(1.0, result.total_energy.joules()));
  std::printf("carbon:           %.3f tCO2e (%.1f g per delivered node-hour)\n",
              result.total_carbon.tonnes(), result.carbon_per_node_hour());
  std::printf("mean wait:        %.2f h   bounded slowdown: %.2f\n",
              result.mean_wait_hours(), result.mean_bounded_slowdown());
  std::printf("utilization:      %.1f%%\n", 100.0 * result.utilization(cfg.cluster));

  report.add_label("scheduler", scheduler->name());
  report.add("jobs", static_cast<double>(n_jobs));
  report.add("jobs_completed", static_cast<double>(result.completed_jobs));
  report.add("makespan_h", result.makespan.hours());
  report.add("energy_mwh", result.total_energy.megawatt_hours());
  report.add("carbon_t", result.total_carbon.tonnes());
  report.add("mean_wait_h", result.mean_wait_hours());
  report.add("utilization", result.utilization(cfg.cluster));
  // Resilience telemetry: zero in fault-free runs, but always reported so
  // report consumers need no schema branch.
  report.add("node_failures", static_cast<double>(result.node_failures));
  report.add("job_failures", static_cast<double>(result.job_failures));
  report.add("jobs_failed", static_cast<double>(result.jobs_failed));
  report.add("walltime_kills", static_cast<double>(result.walltime_kills));
  report.add("checkpoints_taken", static_cast<double>(result.checkpoints_taken));
  report.add("lost_node_hours", result.lost_node_hours());
  report.add("wasted_carbon_g", result.wasted_carbon.grams());
  return 0;
}

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : csv) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

/// Write `body` to `path` atomically (tmp + fsync + rename): readers never
/// observe a partial artifact, and a crash leaves any previous version
/// intact. Usage-level failure (exit 2) if unwritable.
template <typename WriteBody>
int write_artifact(const std::string& path, const char* what, WriteBody&& body) {
  try {
    util::atomic_write_file(path, [&body](std::ostream& os) { body(os); });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot write %s file: %s\n", what, e.what());
    return 2;
  }
  return 0;
}

/// Grid construction shared by `sweep` (coordinator side) and the hidden
/// `sweep-worker` command: both must derive EXACTLY the same grid from
/// the same flags, or the worker's hello-time config digest cross-check
/// refuses the fold.
core::SweepGrid build_sweep_grid(const Args& args) {
  core::SweepGrid grid;
  grid.base.cluster.nodes = 64;
  const double span_days = args.num("days", 2.0);
  grid.base.trace_span = days(span_days + 3.0);
  grid.base.workload.span = days(span_days);
  grid.base.workload.job_count = static_cast<int>(args.num("jobs", 150));
  grid.base.workload.max_job_nodes = 32;
  grid.base.seed = static_cast<std::uint64_t>(args.num("seed", 2023));

  for (const auto& code : split_list(args.get("regions", "DE")))
    grid.regions.push_back(parse_region(code));
  for (const auto& kind : split_list(args.get("kinds", "average"))) {
    if (kind == "average") {
      grid.intensity_kinds.push_back(carbon::IntensityKind::Average);
    } else if (kind == "marginal") {
      grid.intensity_kinds.push_back(carbon::IntensityKind::Marginal);
    } else {
      throw InvalidArgument("unknown intensity kind: " + kind + " (average|marginal)");
    }
  }
  for (const auto& n : split_list(args.get("nodes", "64")))
    grid.cluster_nodes.push_back(std::atoi(n.c_str()));
  if (args.has("jobs-list")) {
    for (const auto& n : split_list(args.get("jobs-list", "")))
      grid.job_counts.push_back(std::atoi(n.c_str()));
  }
  grid.seed_replicas = static_cast<int>(args.num("replicas", 3));
  for (const auto& name : split_list(args.get("sched", "easy,carbon-easy")))
    grid.policies.push_back({name, scheduler_factory(name), nullptr});
  return grid;
}

/// Terminal-hygiene progress sink. On a TTY it redraws one `\r` status
/// line (padded to erase a longer previous draw); on a non-TTY stderr
/// (CI logs, `2>file`) it emits one complete line per update so logs
/// stay greppable instead of one carriage-return-glued mega-line. The
/// destructor closes any open TTY line, so EVERY exit path — including
/// an exception unwinding out of the sweep — leaves the cursor on a
/// fresh line before the error message prints.
class ProgressPrinter {
 public:
  explicit ProgressPrinter(std::size_t total)
      : total_(total), tty_(::isatty(::fileno(stderr)) != 0) {}
  ~ProgressPrinter() { finish(); }
  ProgressPrinter(const ProgressPrinter&) = delete;
  ProgressPrinter& operator=(const ProgressPrinter&) = delete;

  void update(std::size_t done, const std::string& extra) {
    std::string line =
        std::to_string(done) + " / " + std::to_string(total_) + " cases";
    if (!extra.empty()) line += ' ' + extra;
    if (tty_) {
      const std::size_t drawn = line.size();
      if (drawn < last_len_) line.append(last_len_ - drawn, ' ');
      last_len_ = drawn;
      std::fprintf(stderr, "\r%s", line.c_str());
      std::fflush(stderr);
      open_line_ = true;
      if (done == total_) finish();
    } else {
      std::fprintf(stderr, "%s\n", line.c_str());
    }
  }

  void finish() {
    if (open_line_) {
      std::fprintf(stderr, "\n");
      open_line_ = false;
    }
  }

 private:
  std::size_t total_;
  bool tty_;
  bool open_line_ = false;
  std::size_t last_len_ = 0;
};

std::function<void(std::size_t, std::size_t)> make_sweep_progress(
    const Args& args, std::size_t total,
    std::function<std::string()> status = nullptr) {
  if (args.has("quiet")) return nullptr;
  // --progress appends a live throughput readout from the engine's
  // sweep.cases_per_s gauge (updated before each progress call) plus an
  // optional caller-supplied status (the distributed path wires in a
  // live per-worker readout).
  const bool live_rate = args.has("progress");
  obs::Gauge& rate = obs::Registry::global().gauge("sweep.cases_per_s");
  // shared_ptr so the printer lives exactly as long as the callback: the
  // engine/coordinator drops the callback during unwind on failure, and
  // the printer's destructor flushes the final newline right there.
  auto printer = std::make_shared<ProgressPrinter>(total);
  return [printer, live_rate, &rate, status = std::move(status)](
             std::size_t done, std::size_t) {
    std::string extra;
    if (live_rate) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "(%.1f cases/s)", rate.value());
      extra = buf;
      if (status) {
        const std::string s = status();
        if (!s.empty()) extra += ' ' + s;
      }
    }
    printer->update(done, extra);
  };
}

/// How a sweep relates to any journal already in the run directory.
enum class SweepJournalMode { None, Fresh, Resume, Restart };

/// Resolve the journal flags (satellite hardening: `--resume` against a
/// missing or empty journal directory is a CLEAR error, never a silent
/// fresh start). Returns 0 and fills mode/dir, or a CLI exit code.
int resolve_journal_mode(const Args& args, SweepJournalMode& mode,
                         std::string& dir) {
  mode = SweepJournalMode::None;
  dir = args.get("journal", "");
  const int pick = (args.has("resume") ? 1 : 0) +
                   (args.has("resume-or-start") ? 1 : 0) +
                   (args.has("restart") ? 1 : 0);
  if (pick > 1) {
    std::fprintf(stderr,
                 "--resume, --resume-or-start and --restart are mutually "
                 "exclusive\n");
    return 2;
  }
  if (!args.has("journal")) {
    if (pick > 0) {
      std::fprintf(stderr, "--resume/--resume-or-start/--restart want --journal DIR\n");
      return 2;
    }
    return 0;
  }
  if (dir.empty()) {
    std::fprintf(stderr, "--journal wants a run directory\n");
    return 2;
  }
  const bool have = core::SweepJournal::exists(dir);
  if (args.has("resume")) {
    if (!have) {
      std::fprintf(stderr,
                   "cannot resume: no journal found under %s — refusing to "
                   "silently start a fresh sweep\n"
                   "  (use --resume-or-start to begin when nothing is "
                   "resumable, or drop --resume)\n",
                   dir.c_str());
      return 2;
    }
    mode = SweepJournalMode::Resume;
  } else if (args.has("resume-or-start")) {
    if (have) {
      mode = SweepJournalMode::Resume;
    } else {
      std::fprintf(stderr, "journal: nothing to resume under %s; starting fresh\n",
                   dir.c_str());
      mode = SweepJournalMode::Fresh;
    }
  } else if (args.has("restart")) {
    mode = SweepJournalMode::Restart;
  } else {
    if (have) {
      std::fprintf(stderr,
                   "journal: %s already holds a sweep journal; refusing to "
                   "overwrite completed work\n"
                   "  (use --resume to continue it, --resume-or-start to "
                   "continue-or-begin, or --restart to discard it)\n",
                   dir.c_str());
      return 2;
    }
    mode = SweepJournalMode::Fresh;
  }
  return 0;
}

/// Table + digest + quarantine printing and run-report numbers shared by
/// the in-process and distributed sweep paths.
int report_sweep_result(const Args& args, const core::SweepResult& result,
                        obs::RunReport& report) {
  util::Table table({"region", "kind", "nodes", "jobs", "policy", "carbon[t]",
                     "±95%", "MWh", "wait[h]", "util[%]", "green[%]", "done"});
  for (const auto& cell : result.cells) {
    table.add_row({std::string(carbon::traits(cell.region).code),
                   cell.kind == carbon::IntensityKind::Average ? "avg" : "marg",
                   std::to_string(cell.nodes), std::to_string(cell.jobs), cell.policy,
                   util::Table::fmt(cell.carbon_t.mean(), 2),
                   util::Table::fmt(core::SweepCellStats::ci95(cell.carbon_t), 2),
                   util::Table::fmt(cell.energy_mwh.mean(), 1),
                   util::Table::fmt(cell.wait_h.mean(), 2),
                   util::Table::fmt(100.0 * cell.utilization.mean(), 1),
                   util::Table::fmt(100.0 * cell.green_share.mean(), 1),
                   util::Table::fmt(cell.completed.mean(), 0)});
  }
  std::printf("%s", table
                        .str("Sweep: " + std::to_string(result.cases) + " cases, " +
                             std::to_string(result.cells.size()) + " cells x " +
                             std::to_string(result.replicas) + " replicas")
                        .c_str());
  std::printf("digest: %016llx (bit-identical for any --threads)\n",
              static_cast<unsigned long long>(result.digest));
  if (result.replayed_cases > 0) {
    std::printf("resumed: %zu of %zu cases replayed from the journal\n",
                result.replayed_cases, result.cases);
  }
  if (!result.failed_cases.empty()) {
    std::fprintf(stderr, "quarantined: %zu case(s) failed after retries\n",
                 result.failed_cases.size());
    const std::size_t show = std::min<std::size_t>(result.failed_cases.size(), 5);
    for (std::size_t i = 0; i < show; ++i) {
      const auto& f = result.failed_cases[i];
      std::fprintf(stderr, "  case %zu (%s): %s [%d attempts]\n", f.flat,
                   f.where.c_str(), f.error.c_str(), f.attempts);
    }
    if (show < result.failed_cases.size()) {
      std::fprintf(stderr, "  ... and %zu more\n",
                   result.failed_cases.size() - show);
    }
  }

  char digest_hex[32];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(result.digest));
  report.add_label("sweep_digest", digest_hex);
  report.add("cases", static_cast<double>(result.cases));
  report.add("cells", static_cast<double>(result.cells.size()));
  report.add("replicas", static_cast<double>(result.replicas));
  report.add("replayed_cases", static_cast<double>(result.replayed_cases));
  report.add("failed_cases", static_cast<double>(result.failed_cases.size()));
  report.add("journal_truncations",
             static_cast<double>(result.journal_truncations));
  // Block latency percentiles from the local registry: from the claim of
  // a block's first case until its commit returns (fold, journal append
  // and progress in-process), which may include waiting for earlier
  // blocks to commit. The distributed path additionally reports
  // fleet_block_seconds_p50/p99 merged from worker-shipped histograms.
  {
    const obs::StatSnapshot snap = obs::Registry::global().snapshot();
    if (const obs::HistogramSnapshot* h =
            snap.find_histogram("sweep.block_seconds");
        h != nullptr && h->total() > 0) {
      report.add("block_seconds_p50", h->percentile(0.5));
      report.add("block_seconds_p99", h->percentile(0.99));
    }
  }
  for (std::size_t i = 0; i < std::min<std::size_t>(result.failed_cases.size(), 5);
       ++i) {
    const auto& f = result.failed_cases[i];
    report.add_label("failed_case_" + std::to_string(i),
                     f.where + ": " + f.error);
  }

  if (args.has("csv")) {
    const int w = write_artifact(
        args.get("csv", ""), "sweep CSV", [&result](std::ostream& os) {
          util::CsvWriter csv(os);
          csv.write_row({"region", "kind", "nodes", "jobs", "policy", "replicas",
                         "carbon_t_mean", "carbon_t_ci95", "energy_mwh_mean",
                         "wait_h_mean", "utilization_mean", "green_share_mean",
                         "completed_mean"});
          for (const auto& cell : result.cells) {
            csv.write_row(
                {std::string(carbon::traits(cell.region).code),
                 cell.kind == carbon::IntensityKind::Average ? "average" : "marginal",
                 std::to_string(cell.nodes), std::to_string(cell.jobs), cell.policy,
                 std::to_string(cell.carbon_t.count()),
                 util::CsvWriter::fmt(cell.carbon_t.mean()),
                 util::CsvWriter::fmt(core::SweepCellStats::ci95(cell.carbon_t)),
                 util::CsvWriter::fmt(cell.energy_mwh.mean()),
                 util::CsvWriter::fmt(cell.wait_h.mean()),
                 util::CsvWriter::fmt(cell.utilization.mean()),
                 util::CsvWriter::fmt(cell.green_share.mean()),
                 util::CsvWriter::fmt(cell.completed.mean())});
          }
        });
    if (w != 0) return w;
  }
  return 0;
}

/// Absolute path of this binary (for re-exec'ing as `sweep-worker`);
/// set by main() before command dispatch.
std::string g_self_exe;

int cmd_sweep(const Args& args, obs::RunReport& report) {
  const core::SweepGrid grid = build_sweep_grid(args);
  const std::size_t block = static_cast<std::size_t>(args.num("block", 256));
  const int retries = static_cast<int>(args.num("retries", 2));
  const int workers = static_cast<int>(args.num("workers", 0));
  if (workers < 0) {
    std::fprintf(stderr, "--workers wants a non-negative count\n");
    return 2;
  }

  SweepJournalMode mode = SweepJournalMode::None;
  std::string dir;
  if (const int rc = resolve_journal_mode(args, mode, dir); rc != 0) return rc;

  if (workers == 0 &&
      (args.has("fleet-trace-out") || args.has("postmortem-dir"))) {
    std::fprintf(stderr,
                 "note: --fleet-trace-out/--postmortem-dir observe the worker "
                 "fleet; without --workers N there is none to observe\n");
  }

  if (workers > 0) {
    // Distributed sweep: shard blocks across worker processes. Each
    // worker re-derives the grid from the SAME flags (whitelisted below)
    // and cross-checks its config digest at hello, so a skewed worker is
    // rejected instead of folded.
    core::SweepCoordinator::Options copts;
    copts.workers = workers;
    copts.block = block;
    copts.case_opts.case_retries = retries;
    copts.journal_dir = mode == SweepJournalMode::None ? "" : dir;
    copts.resume = mode == SweepJournalMode::Resume;
    copts.heartbeat_interval_s = args.num("hb-interval", 0.5);
    copts.heartbeat_timeout_s = args.num("hb-timeout", 2.0);
    copts.hello_timeout_s = args.num("hello-timeout", 30.0);
    copts.lease_timeout_s = args.num("lease-timeout", 600.0);
    // Containment knobs (chaos-hardened defaults; see DESIGN.md "Failure
    // domains & containment").
    copts.progress_timeout_s = args.num("progress-timeout", 0.0);
    copts.max_respawns = static_cast<int>(args.num("max-respawns", 0));
    copts.fleet_trace_path = args.get("fleet-trace-out", "");
    copts.postmortem_dir = args.get("postmortem-dir", "");
    copts.ship_stats = !args.has("no-obs-ship");

    // Live per-worker status for --progress: the callback runs on the
    // coordinator's own event-loop thread, so reading its stats here is
    // race-free; coord is set before run() ever invokes progress.
    core::SweepCoordinator* coord = nullptr;
    copts.progress = make_sweep_progress(
        args, grid.case_count(), [&coord]() -> std::string {
          if (coord == nullptr) return "";
          std::string s;
          const auto& ws = coord->stats().workers;
          for (std::size_t k = 0; k < ws.size(); ++k) {
            if (!s.empty()) s += ' ';
            s += 'w' + std::to_string(k) + ':';
            if (ws[k].died) {
              s += "dead";
            } else if (!ws[k].ready) {
              s += "spawn";
            } else {
              s += std::to_string(ws[k].blocks) + 'b';
              if (ws[k].busy) s += '*';
            }
          }
          return '[' + s + ']';
        });

    std::vector<std::string> wargv{g_self_exe, "sweep-worker"};
    for (const char* key : {"regions", "kinds", "nodes", "jobs-list", "jobs",
                            "days", "replicas", "sched", "seed", "retries",
                            "hb-interval"}) {
      if (!args.has(key)) continue;
      wargv.push_back(std::string("--") + key);
      const std::string value = args.get(key, "");
      if (!value.empty()) wargv.push_back(value);
    }
    // Split the machine between the workers instead of oversubscribing
    // it N-fold (each worker's pool would otherwise default to every
    // hardware thread).
    const int machine =
        args.has("threads")
            ? static_cast<int>(args.num("threads", 1))
            : static_cast<int>(std::thread::hardware_concurrency());
    wargv.push_back("--threads");
    wargv.push_back(std::to_string(std::max(1, machine / workers)));
    copts.worker_argv = std::move(wargv);

    core::SweepCoordinator coordinator(std::move(copts));
    coord = &coordinator;
    const core::SweepResult result = coordinator.run(grid);
    coord = nullptr;
    const core::SweepCoordinator::Stats& st = coordinator.stats();

    const int rc = report_sweep_result(args, result, report);
    std::fprintf(stderr,
                 "workers: %d spawned, %zu death(s), %zu block(s) reassigned, "
                 "%zu heartbeat miss(es), %zu lease(s) prefetched%s\n",
                 workers, st.worker_deaths, st.blocks_reassigned,
                 st.heartbeat_misses, st.leases_prefetched,
                 st.degraded_in_process ? " — degraded to in-process" : "");
    if (st.stat_batches > 0 || st.trace_batches > 0 ||
        st.obs_lines_rejected > 0) {
      // No sample is no measurement: print n/a, not a zero-latency pipe.
      char rtt[64] = "rtt n/a";
      if (st.rtt_samples > 0) {
        std::snprintf(rtt, sizeof(rtt), "rtt p50 %.2f ms p99 %.2f ms",
                      1e3 * st.rtt_p50_s, 1e3 * st.rtt_p99_s);
      }
      std::fprintf(stderr,
                   "fleet: %zu stat batch(es), %zu trace event(s) in %zu "
                   "batch(es), %s, %zu obs line(s) rejected, %zu postmortem(s)\n",
                   st.stat_batches, st.trace_events, st.trace_batches, rtt,
                   st.obs_lines_rejected, st.postmortems_written);
    }
    if (!st.fleet_trace_path.empty()) {
      std::fprintf(stderr, "fleet trace: %s\n", st.fleet_trace_path.c_str());
    }
    report.add("workers", static_cast<double>(workers));
    report.add("worker_deaths", static_cast<double>(st.worker_deaths));
    report.add("blocks_reassigned", static_cast<double>(st.blocks_reassigned));
    report.add("leases_prefetched", static_cast<double>(st.leases_prefetched));
    report.add("heartbeat_misses", static_cast<double>(st.heartbeat_misses));
    report.add("duplicate_block_records",
               static_cast<double>(st.duplicate_block_records));
    report.add("replayed_blocks", static_cast<double>(st.replayed_blocks));
    report.add("shard_generation", static_cast<double>(st.shard_generation));
    report.add("degraded_in_process", st.degraded_in_process ? 1.0 : 0.0);
    // Fleet observability rollup.
    report.add("obs_lines_rejected",
               static_cast<double>(st.obs_lines_rejected));
    report.add("stat_batches", static_cast<double>(st.stat_batches));
    report.add("trace_batches", static_cast<double>(st.trace_batches));
    report.add("trace_events", static_cast<double>(st.trace_events));
    report.add("heartbeat_rtt_samples", static_cast<double>(st.rtt_samples));
    if (st.rtt_samples > 0) {
      report.add("heartbeat_rtt_p50_s", st.rtt_p50_s);
      report.add("heartbeat_rtt_p99_s", st.rtt_p99_s);
    }
    report.add("max_lease_age_s", st.max_lease_age_s);
    report.add("postmortems_written",
               static_cast<double>(st.postmortems_written));
    if (st.block_seconds_p50_s > 0.0) {
      // Distinct key from the local-registry block_seconds_p50: a
      // degraded run legitimately reports both (fleet-shipped blocks
      // plus the in-process fallback's own).
      report.add("fleet_block_seconds_p50", st.block_seconds_p50_s);
      report.add("fleet_block_seconds_p99", st.block_seconds_p99_s);
    }
    if (!st.fleet_trace_path.empty()) {
      report.add_label("fleet_trace", st.fleet_trace_path);
    }
    for (std::size_t k = 0; k < st.workers.size(); ++k) {
      const core::SweepCoordinator::WorkerInfo& w = st.workers[k];
      const std::string p = "worker_" + std::to_string(k);
      report.add(p + "_blocks", static_cast<double>(w.blocks));
      report.add(p + "_heartbeat_misses",
                 static_cast<double>(w.heartbeat_misses));
      report.add(p + "_died", w.died ? 1.0 : 0.0);
      report.add(p + "_cases_per_s", w.cases_per_s);
      report.add(p + "_case_retries", static_cast<double>(w.case_retries));
      report.add(p + "_cases_quarantined",
                 static_cast<double>(w.cases_quarantined));
      report.add(p + "_stat_batches", static_cast<double>(w.stat_batches));
      report.add(p + "_trace_events", static_cast<double>(w.trace_events));
      if (w.rtt_samples > 0) {
        report.add(p + "_rtt_p50_s", w.rtt_p50_s);
        report.add(p + "_rtt_p99_s", w.rtt_p99_s);
      }
      if (!w.postmortem_path.empty()) {
        report.add_label(p + "_postmortem", w.postmortem_path);
      }
    }
    return rc;
  }

  // Single-process path: the original engine, with the chained journal.
  core::SweepEngine::Options opts;
  opts.block = block;
  opts.case_opts.case_retries = retries;
  std::unique_ptr<core::SweepJournal> journal;
  if (mode == SweepJournalMode::Resume) {
    journal = std::make_unique<core::SweepJournal>(core::SweepJournal::resume(
        dir, grid.config_digest(), grid.case_count()));
    std::fprintf(stderr,
                 "journal: resuming from case %zu / %zu (%zu blocks proven)\n",
                 journal->resume_point(), grid.case_count(),
                 journal->completed().size());
  } else if (mode != SweepJournalMode::None) {
    journal = std::make_unique<core::SweepJournal>(core::SweepJournal::create(
        dir, grid.config_digest(), grid.case_count(), opts.block));
  }
  opts.journal = journal.get();
  opts.progress = make_sweep_progress(args, grid.case_count());
  const core::SweepResult result = core::SweepEngine(std::move(opts)).run(grid);
  return report_sweep_result(args, result, report);
}

/// Hidden command: one distributed-sweep worker process. Spawned by the
/// coordinator, never by hand — stdin/stdout ARE the protocol channel,
/// so nothing else in this path may write to stdout.
int cmd_sweep_worker(const Args& args) {
  // Chaos harness arming: the coordinator's worker_extra_args hook hands
  // each worker its fault schedule through this flag. Workers run LETHAL
  // (Kill actions really _Exit) — that is the point of the process
  // boundary fault model.
  if (args.has("chaos-spec")) {
    std::vector<util::FaultSpec> specs;
    if (!util::FaultInjector::decode(args.get("chaos-spec", ""), specs)) {
      std::fprintf(stderr, "malformed --chaos-spec\n");
      return 2;
    }
    util::FaultInjector::global().set_lethal(true);
    util::FaultInjector::global().arm(std::move(specs));
  }
  const core::SweepGrid grid = build_sweep_grid(args);
  core::SweepWorker::Options wopts;
  wopts.block = static_cast<std::size_t>(args.num("block", 256));
  wopts.heartbeat_interval_s = args.num("hb-interval", 0.5);
  wopts.shard_path = args.get("shard-path", "");
  wopts.case_opts.case_retries = static_cast<int>(args.num("retries", 2));
  // Appended by the coordinator, never typed by hand: shipping defaults
  // on, trace shipping only when a fleet trace was requested.
  wopts.ship_stats = !args.has("no-ship-stats");
  wopts.ship_trace = args.has("ship-trace");
  return core::SweepWorker(std::move(wopts)).run(grid);
}

/// `greenhpc chaos`: run N deterministic fault schedules against a real
/// coordinator + worker fleet on a micro-grid and hard-fail unless every
/// terminal state is digest-identical to the clean run or an explicitly
/// reported quarantine. The grid flags share build_sweep_grid's names but
/// default to a deliberately tiny grid — every schedule runs it to
/// completion at least once.
int cmd_chaos(const Args& args, obs::RunReport& report) {
  // Chaos-sized grid defaults; any of them can be overridden, but the
  // SAME resolved values must reach the workers, so the flag list is
  // materialized once and re-parsed through build_sweep_grid.
  std::vector<std::string> grid_flags = {
      "--regions",  args.get("regions", "DE"),
      "--nodes",    args.get("nodes", "8,12"),
      "--jobs",     args.get("jobs", "12"),
      "--days",     args.get("days", "0.1"),
      "--replicas", args.get("replicas", "3"),
      "--sched",    args.get("sched", "easy"),
      "--seed",     args.get("seed", "2023"),
  };
  // The default chaos grid spreads a jobs axis too (12 cases, 6 blocks
  // at --block 2); a user who pins --jobs without --jobs-list gets the
  // single-value axis they asked for.
  if (args.has("jobs-list") || !args.has("jobs")) {
    grid_flags.push_back("--jobs-list");
    grid_flags.push_back(args.get("jobs-list", "8,12"));
  }
  std::vector<char*> grid_argv;
  grid_argv.reserve(grid_flags.size());
  for (std::string& s : grid_flags) grid_argv.push_back(s.data());
  const Args grid_args(static_cast<int>(grid_argv.size()), grid_argv.data(), 0);
  const core::SweepGrid grid = build_sweep_grid(grid_args);

  core::ChaosOptions copts;
  copts.grid = &grid;
  copts.chaos_seed = static_cast<std::uint64_t>(args.num("chaos-seed", 1));
  copts.schedules = static_cast<int>(args.num("schedules", 10));
  copts.workers = static_cast<int>(args.num("workers", 3));
  copts.workdir = args.get("workdir", "chaos-out");
  copts.block = static_cast<std::size_t>(args.num("block", 2));
  copts.schedule_deadline_s = args.num("deadline", 120.0);
  copts.sites = split_list(args.get("sites", ""));
  if (copts.schedules < 1 || copts.workers < 1) {
    std::fprintf(stderr, "--schedules and --workers want positive counts\n");
    return 2;
  }
  ::mkdir(copts.workdir.c_str(), 0755);  // EEXIST is fine

  std::vector<std::string> wargv{g_self_exe, "sweep-worker"};
  wargv.insert(wargv.end(), grid_flags.begin(), grid_flags.end());
  wargv.push_back("--hb-interval");
  wargv.push_back(std::to_string(copts.heartbeat_interval_s));
  // One compute thread per worker: three micro-grid workers on one
  // machine must not each claim every hardware thread.
  wargv.push_back("--threads");
  wargv.push_back("1");
  copts.worker_argv = std::move(wargv);

  const bool quiet = args.has("quiet");
  copts.on_schedule = [&](const core::ChaosScheduleOutcome& out) {
    if (quiet && out.pass) return;
    std::string line = "schedule " + std::to_string(out.schedule) + ": " +
                       (out.pass ? "ok" : "FAIL");
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(out.digest));
    line += std::string(" digest=") + hex;
    if (out.has_poison) {
      line += " poison=" + std::to_string(out.poison_flat) + " quarantined=" +
              std::to_string(out.failed_flats.size());
    }
    if (out.restarted) line += " coord-restart";
    if (out.worker_deaths > 0) {
      line += " deaths=" + std::to_string(out.worker_deaths);
    }
    if (out.workers_respawned > 0) {
      line += " respawned=" + std::to_string(out.workers_respawned);
    }
    if (out.workers_evicted_wedged > 0) {
      line += " wedged=" + std::to_string(out.workers_evicted_wedged);
    }
    if (out.journal_degraded) line += " journal-degraded";
    char el[32];
    std::snprintf(el, sizeof(el), " (%.2fs)", out.elapsed_s);
    line += el;
    std::fprintf(stderr, "%s\n", line.c_str());
  };

  const core::ChaosReport chaos = core::run_chaos(copts);

  std::printf("chaos: %d schedule(s), seed %llu: %s\n", copts.schedules,
              static_cast<unsigned long long>(copts.chaos_seed),
              chaos.pass ? "PASS" : "FAIL");
  std::printf("  clean digest:   %016llx\n",
              static_cast<unsigned long long>(chaos.clean_digest));
  std::printf("  poisoned:       %d schedule(s)\n", chaos.poison_schedules);
  std::printf("  coord restarts: %d schedule(s)\n", chaos.restart_schedules);
  std::printf("  failures:       %d\n", chaos.failures);
  std::printf("  determinism:    schedule %d re-run %s\n",
              chaos.determinism_schedule,
              chaos.determinism_pass ? "identical" : "DIVERGED");
  if (!chaos.events_path.empty()) {
    std::printf("  event lane:     %s\n", chaos.events_path.c_str());
  }

  report.add("schedules", static_cast<double>(copts.schedules));
  report.add("failures", static_cast<double>(chaos.failures));
  report.add("poison_schedules", static_cast<double>(chaos.poison_schedules));
  report.add("restart_schedules", static_cast<double>(chaos.restart_schedules));
  report.add("determinism_pass", chaos.determinism_pass ? 1.0 : 0.0);
  char digest_hex[24];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(chaos.clean_digest));
  report.add_label("clean_digest", digest_hex);
  if (!chaos.events_path.empty()) {
    report.add_label("chaos_events", chaos.events_path);
  }
  // Exit 1 (not the usage code 2): the harness ran and found a
  // containment or determinism failure.
  return chaos.pass ? 0 : 1;
}

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: greenhpc <command> [--flags]\n"
               "  help                          print this message\n"
               "  regions                       list region presets\n"
               "  trace --region DE --days 31   emit a carbon-intensity CSV\n"
               "  fig1                          embodied-carbon breakdown table\n"
               "  carbon500                     carbon-efficiency ranking\n"
               "  simulate --nodes 256 --region DE --days 7 [--sched easy]\n"
               "           [--swf trace.swf]    run a cluster simulation\n"
               "  sweep --regions DE,FR [--kinds average,marginal]\n"
               "        --nodes 64,128 [--jobs-list 150,300] [--replicas 3]\n"
               "        [--sched easy,carbon-easy] [--days 2] [--seed N]\n"
               "        [--block 256] [--quiet] [--progress] [--csv FILE]\n"
               "        [--journal DIR] [--resume | --resume-or-start | --restart]\n"
               "        [--retries N] [--workers N]\n"
               "        [--fleet-trace-out FILE] [--postmortem-dir DIR]\n"
               "        [--no-obs-ship]\n"
               "                                aggregate a parameter-grid sweep;\n"
               "                                --journal makes it crash-restartable\n"
               "                                (kill it, rerun with --resume: the\n"
               "                                digest is bit-identical), --retries\n"
               "                                bounds per-case retry before a case\n"
               "                                is quarantined instead of fatal,\n"
               "                                --workers N shards blocks across N\n"
               "                                worker processes (a killed worker's\n"
               "                                blocks are reassigned; the digest\n"
               "                                stays bit-identical);\n"
               "                                --fleet-trace-out merges every\n"
               "                                worker's spans into one Chrome trace\n"
               "                                (one lane per worker + coordinator),\n"
               "                                --postmortem-dir collects flight-\n"
               "                                recorder JSONL dumps for dead\n"
               "                                workers, --no-obs-ship disables\n"
               "                                metric shipping (digests never\n"
               "                                depend on it either way)\n"
               "  chaos [--chaos-seed N] [--schedules N] [--workers N]\n"
               "        [--sites a,b,...] [--workdir DIR] [--block N]\n"
               "        [--deadline SECS] [--quiet]\n"
               "                                drive N deterministic fault\n"
               "                                schedules (worker kills, wedges,\n"
               "                                torn journals, poisoned cases,\n"
               "                                coordinator restarts) against a\n"
               "                                real worker fleet on a micro-grid;\n"
               "                                fails unless every terminal state\n"
               "                                is digest-identical to the clean\n"
               "                                run or an explicitly reported\n"
               "                                quarantine, and re-runs one\n"
               "                                schedule to prove determinism\n"
               "global flags:\n"
               "  --threads N         worker-pool size (overrides GREENHPC_THREADS)\n"
               "  --trace-out FILE    runtime trace (Chrome trace_event JSON,\n"
               "                      open in chrome://tracing / ui.perfetto.dev)\n"
               "  --metrics-out FILE  metrics-registry snapshot as JSON\n"
               "  --report FILE       per-run report JSON (config digest, key\n"
               "                      numbers, metrics, wall time)\n");
}

int usage() {
  print_usage(stderr);
  return 2;
}

bool known_command(const std::string& command) {
  // `sweep-worker` is deliberately absent from the usage text: it is the
  // coordinator's re-exec target, not an operator command.
  return command == "regions" || command == "trace" || command == "fig1" ||
         command == "carbon500" || command == "simulate" || command == "sweep" ||
         command == "sweep-worker" || command == "chaos";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    print_usage(stdout);
    return 0;
  }
  if (!known_command(command)) {
    std::fprintf(stderr, "unknown command: %s\n", command.c_str());
    return usage();
  }
  Args args(argc, argv, 2);
  if (!args.ok()) return usage();
  {
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
      buf[n] = '\0';
      g_self_exe = buf;
    } else {
      g_self_exe = argv[0];
    }
  }

  const std::string trace_out = args.get("trace-out", "");
  const std::string metrics_out = args.get("metrics-out", "");
  const std::string report_out = args.get("report", "");

  obs::RunReport report;
  report.tool = "greenhpc " + command;
  for (int i = 1; i < argc; ++i) {
    if (i > 1) report.config += ' ';
    report.config += argv[i];
  }
  report.config_digest = obs::fnv1a(report.config);

  int ret = 2;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    if (args.has("threads")) {
      const int n = static_cast<int>(args.num("threads", 0));
      if (n <= 0) {
        std::fprintf(stderr, "--threads wants a positive count\n");
        return 2;
      }
      util::ThreadPool::configure_global(static_cast<std::size_t>(n));
    }
    if (!trace_out.empty()) obs::Tracer::set_enabled(true);
    if (command == "regions") ret = cmd_regions();
    if (command == "trace") ret = cmd_trace(args);
    if (command == "fig1") ret = cmd_fig1();
    if (command == "carbon500") ret = cmd_carbon500();
    if (command == "simulate") ret = cmd_simulate(args, report);
    if (command == "sweep") ret = cmd_sweep(args, report);
    if (command == "sweep-worker") ret = cmd_sweep_worker(args);
    if (command == "chaos") ret = cmd_chaos(args, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    ret = 2;
  }
  report.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  // Drain observability artifacts after the command finishes: the pool is
  // quiescent here, so the tracer's drain contract holds.
  if (!trace_out.empty()) {
    obs::Tracer::set_enabled(false);
    const int w = write_artifact(trace_out, "trace", [](std::ostream& os) {
      obs::Tracer::write_chrome_json(os);
    });
    if (ret == 0) ret = w;
  }
  if (!metrics_out.empty()) {
    const int w = write_artifact(metrics_out, "metrics", [](std::ostream& os) {
      obs::Registry::global().write_json(os);
    });
    if (ret == 0) ret = w;
  }
  if (!report_out.empty()) {
    const int w = write_artifact(report_out, "report", [&report](std::ostream& os) {
      report.write_json(os);
    });
    if (ret == 0) ret = w;
  }
  return ret;
}
