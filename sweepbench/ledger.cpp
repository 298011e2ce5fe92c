// sweep_ledger: the traced half of the sweep ledger benchmark.
//
// Runs one `greenhpc sweep` workload through the library's public entry
// points and splits its time across the modules the sweep passes through.
// Every span is recorded here, around calls into the library; nothing is
// added inside the program. Spans are summed in memory and printed as one
// JSON object on stdout when the run ends.
//
//   --mode inproc   the in-process engine's loop: blocks of cases fanned
//                   out over a util::ThreadPool and a serial fold (the loop
//                   of core::SweepEngine::run).
//   --mode fleet    (a) core::SweepCoordinator::run in this process
//                   against real `greenhpc sweep-worker` children, split by
//                   rusage and the coordinator's stats; (b) a replay of one
//                   worker's per-block pipeline through the public
//                   functions: case, encode, a real pipe, parse,
//                   BlockLedger deliver, fold, stat shipping.
//
// Either mode then appends the same block records to a fresh journal
// (chained, or a shard for the fleet), fsync per block, reopens it and
// re-folds it, so the journal layer is measured on every grid.
//
// Grid flags match `greenhpc sweep`; the digest printed must equal the
// CLI's for the same flags (run.py checks it).

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "carbon/forecast.hpp"
#include "carbon/region.hpp"
#include "carbon/trace_cache.hpp"
#include "core/sweep.hpp"
#include "core/sweep_coordinator.hpp"
#include "core/sweep_journal.hpp"
#include "core/sweep_protocol.hpp"
#include "hpcsim/workload.hpp"
#include "obs/fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/carbon_aware.hpp"
#include "sched/easy_backfill.hpp"
#include "sched/fcfs.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/subprocess.hpp"

namespace {

using namespace greenhpc;
using Clock = std::chrono::steady_clock;

// `greenhpc sweep`'s defaults for the flags the benchmark never sets.
constexpr int kCaseRetries = 2;
constexpr double kHeartbeatIntervalS = 0.5;

double secs(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

/// Seconds summed from many threads (relaxed nanosecond adds).
class Seconds {
 public:
  void add(Clock::duration d) {
    ns_.fetch_add(static_cast<std::uint64_t>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count()),
                  std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const {
    return static_cast<double>(ns_.load(std::memory_order_relaxed)) * 1e-9;
  }

 private:
  std::atomic<std::uint64_t> ns_{0};
};

/// `--key value` / `--flag` arguments, the CLI's grammar.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) throw InvalidArgument("unexpected argument: " + key);
      key = key.substr(2);
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";
      }
    }
  }
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
};

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

core::SchedulerFactory scheduler_factory(const std::string& name) {
  if (name == "fcfs") return [] { return std::make_unique<sched::FcfsScheduler>(); };
  if (name == "carbon-easy") {
    return [] {
      return std::make_unique<sched::CarbonAwareEasyScheduler>(
          sched::CarbonAwareEasyScheduler::Config{},
          std::make_shared<carbon::PersistenceForecaster>());
    };
  }
  if (name == "easy") return [] { return std::make_unique<sched::EasyBackfillScheduler>(); };
  throw InvalidArgument("unknown scheduler: " + name);
}

/// The grid `greenhpc sweep` builds from the same flags (its
/// build_sweep_grid); the config digest and the result digest prove it.
core::SweepGrid build_grid(const Args& args) {
  core::SweepGrid grid;
  grid.base.cluster.nodes = 64;
  const double span_days = args.num("days", 2.0);
  grid.base.trace_span = days(span_days + 3.0);
  grid.base.workload.span = days(span_days);
  grid.base.workload.job_count = static_cast<int>(args.num("jobs", 150));
  grid.base.workload.max_job_nodes = 32;
  grid.base.seed = static_cast<std::uint64_t>(args.num("seed", 2023));
  for (const auto& code : split_list(args.get("regions", "DE"))) {
    bool found = false;
    for (const carbon::Region r : carbon::all_regions()) {
      if (code == carbon::traits(r).code) {
        grid.regions.push_back(r);
        found = true;
      }
    }
    if (!found) throw InvalidArgument("unknown region code: " + code);
  }
  for (const auto& kind : split_list(args.get("kinds", "average"))) {
    if (kind != "average" && kind != "marginal") {
      throw InvalidArgument("unknown intensity kind: " + kind);
    }
    grid.intensity_kinds.push_back(kind == "average" ? carbon::IntensityKind::Average
                                                     : carbon::IntensityKind::Marginal);
  }
  for (const auto& n : split_list(args.get("nodes", "64"))) {
    grid.cluster_nodes.push_back(std::atoi(n.c_str()));
  }
  for (const auto& n : split_list(args.get("jobs-list", ""))) {
    grid.job_counts.push_back(std::atoi(n.c_str()));
  }
  grid.seed_replicas = static_cast<int>(args.num("replicas", 3));
  for (const auto& name : split_list(args.get("sched", "easy,carbon-easy"))) {
    grid.policies.push_back({name, scheduler_factory(name), nullptr});
  }
  return grid;
}

// ---------------------------------------------------------------------------
// sched + hpcsim engine: a timing decorator around every scheduling policy.

struct PolicyTotals {
  Seconds on_tick;
  Seconds attest;
  Seconds lifetime;  ///< policy construction to destruction, per case
  std::atomic<std::uint64_t> on_tick_calls{0};
};

/// Forwards on_tick and all three quiescence attestations unchanged and
/// times them. A policy instance lives for exactly one Simulator (the
/// scenario runner builds it right before the simulator and drops it
/// after the result is derived), so its lifetime brackets the engine.
class TimedPolicy final : public hpcsim::SchedulingPolicy {
 public:
  TimedPolicy(std::unique_ptr<hpcsim::SchedulingPolicy> inner, PolicyTotals& totals)
      : inner_(std::move(inner)), totals_(totals), born_(Clock::now()) {}
  ~TimedPolicy() override {
    totals_.lifetime.add(Clock::now() - born_);
    totals_.on_tick.add(on_tick_);
    totals_.attest.add(attest_);
    totals_.on_tick_calls.fetch_add(calls_, std::memory_order_relaxed);
  }
  TimedPolicy(const TimedPolicy&) = delete;
  TimedPolicy& operator=(const TimedPolicy&) = delete;
  TimedPolicy(TimedPolicy&&) = delete;
  TimedPolicy& operator=(TimedPolicy&&) = delete;

  void on_tick(hpcsim::SimulationView& view) override {
    const auto t0 = Clock::now();
    inner_->on_tick(view);
    on_tick_ += Clock::now() - t0;
    ++calls_;
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] Duration quiescent_until(const hpcsim::SimulationView& view) const override {
    const auto t0 = Clock::now();
    const Duration d = inner_->quiescent_until(view);
    attest_ += Clock::now() - t0;
    return d;
  }
  [[nodiscard]] bool quiescent_over_arrivals(
      const hpcsim::SimulationView& view) const override {
    const auto t0 = Clock::now();
    const bool q = inner_->quiescent_over_arrivals(view);
    attest_ += Clock::now() - t0;
    return q;
  }
  [[nodiscard]] bool quiescent_over_release(
      const hpcsim::SimulationView& view) const override {
    const auto t0 = Clock::now();
    const bool q = inner_->quiescent_over_release(view);
    attest_ += Clock::now() - t0;
    return q;
  }

 private:
  std::unique_ptr<hpcsim::SchedulingPolicy> inner_;
  PolicyTotals& totals_;
  Clock::time_point born_;
  Clock::duration on_tick_{};
  mutable Clock::duration attest_{};
  std::uint64_t calls_ = 0;
};

core::SweepGrid timed_grid(const core::SweepGrid& plain, PolicyTotals& totals) {
  core::SweepGrid grid = plain;
  for (core::SweepPolicy& p : grid.policies) {
    core::SchedulerFactory inner = p.scheduler;
    p.scheduler = [inner, &totals] {
      return std::make_unique<TimedPolicy>(inner(), totals);
    };
  }
  return grid;
}

// ---------------------------------------------------------------------------
// carbon + hpcsim generation: resolve each case's shared assets through the
// process-wide caches before the case runs, timing the calls. The case's
// own ScenarioRunner then hits; check_caches() proves it never generated.

class AssetCaches {
 public:
  explicit AssetCaches(const core::SweepGrid& grid)
      : grid_(grid),
        regions_(grid.regions.empty() ? std::vector<carbon::Region>{grid.base.region}
                                      : grid.regions),
        kinds_(grid.intensity_kinds.empty()
                   ? std::vector<carbon::IntensityKind>{grid.base.intensity_kind}
                   : grid.intensity_kinds),
        nodes_(grid.cluster_nodes.empty() ? std::vector<int>{grid.base.cluster.nodes}
                                          : grid.cluster_nodes),
        jobs_(grid.job_counts.empty() ? std::vector<int>{grid.base.workload.job_count}
                                      : grid.job_counts) {}

  /// The scenario of flat case `flat`, decoded as SweepCaseRunner does
  /// (replica innermost, then policy, jobs, nodes, kind, region).
  [[nodiscard]] core::ScenarioConfig scenario(std::size_t flat) const {
    const std::size_t replicas = static_cast<std::size_t>(grid_.seed_replicas);
    const int replica = static_cast<int>(flat % replicas);
    std::size_t rest = flat / replicas / grid_.policies.size();
    const std::size_t j = rest % jobs_.size();
    rest /= jobs_.size();
    const std::size_t n = rest % nodes_.size();
    rest /= nodes_.size();
    const std::size_t k = rest % kinds_.size();
    rest /= kinds_.size();
    core::ScenarioConfig cfg = grid_.base;
    cfg.region = regions_[rest];
    cfg.intensity_kind = kinds_[k];
    cfg.cluster.nodes = nodes_[n];
    cfg.workload.job_count = jobs_[j];
    cfg.workload.max_job_nodes = std::min(cfg.workload.max_job_nodes, cfg.cluster.nodes);
    cfg.seed = core::SweepEngine::replica_seed(grid_.base.seed, replica);
    return cfg;
  }

  void resolve(std::size_t flat) {
    const core::ScenarioConfig cfg = scenario(flat);
    const auto t0 = Clock::now();
    (void)carbon::TraceCache::global().get(cfg.region, cfg.intensity_kind, cfg.seed,
                                           seconds(0.0), cfg.trace_span, cfg.trace_step);
    const auto t1 = Clock::now();
    (void)hpcsim::WorkloadCache::global().get(cfg.workload, cfg.seed);
    trace_s.add(t1 - t0);
    workload_s.add(Clock::now() - t1);
  }

  /// Whether the caches hold exactly the distinct keys resolve() asked
  /// for — i.e. no case generated an asset outside the timed calls.
  [[nodiscard]] bool check(std::size_t cases) const {
    std::set<std::tuple<int, int, std::uint64_t>> traces;
    std::set<std::tuple<int, int, std::uint64_t>> workloads;
    for (std::size_t f = 0; f < cases; ++f) {
      const core::ScenarioConfig cfg = scenario(f);
      traces.emplace(static_cast<int>(cfg.region), static_cast<int>(cfg.intensity_kind),
                     cfg.seed);
      workloads.emplace(cfg.workload.job_count, cfg.workload.max_job_nodes, cfg.seed);
    }
    return carbon::TraceCache::global().size() == traces.size() &&
           hpcsim::WorkloadCache::global().size() == workloads.size();
  }

  Seconds trace_s;
  Seconds workload_s;

 private:
  const core::SweepGrid& grid_;
  std::vector<carbon::Region> regions_;
  std::vector<carbon::IntensityKind> kinds_;
  std::vector<int> nodes_;
  std::vector<int> jobs_;
};

// ---------------------------------------------------------------------------

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t i = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(i, v.size() - 1)];
}

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Flat JSON object printer: insertion order, doubles with all digits.
class JsonOut {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    fields_.emplace_back(key, buf);
  }
  void str(const std::string& key, const std::string& v) {
    fields_.emplace_back(key, '"' + v + '"');
  }
  void flag(const std::string& key, bool v) { fields_.emplace_back(key, v ? "true" : "false"); }
  void print() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += '"' + fields_[i].first + "\": " + fields_[i].second;
    }
    std::printf("%s}\n", out.c_str());
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Everything one traced run measures; printed by report().
struct Ledger {
  std::uint64_t digest = 0;
  std::uint64_t resume_digest = 0;
  double wall_s = 0.0;        ///< wall of the traced pipeline
  double attributed_s = 0.0;  ///< part of wall_s inside a layer span
  double reference_s = 0.0;   ///< fleet: CPU the real fleet spent on the same work
  Seconds fold;
  Seconds case_body;  ///< asset resolution + run_case, summed over threads
  double block_wall_s = 0.0;
  std::size_t team = 1;
  std::vector<double> case_s;  ///< run_case seconds, by flat case id
  std::uint64_t quarantined = 0;
  // journal
  std::vector<double> append_s;
  double journal_bytes = 0.0;
  double load_s = 0.0;
  double replay_s = 0.0;
  // wire + shipping (fleet replay)
  double wire_lines = 0, wire_bytes = 0, ship_lines = 0, ship_bytes = 0;
  Seconds encode, parse, transit, ship_encode, merge;
  // coordinator (fleet, part a)
  std::uint64_t coord_digest = 0;
  double coord_wall_s = 0, coord_cpu_s = 0, worker_cpu_s = 0, worker_idle_share = 0;
  double hb_rtt_p99_s = 0, max_lease_age_s = 0;
  bool fleet = false;
};

double cpu_of(const rusage& u) {
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

/// One timed append; the record is durable when this returns.
void timed_append(core::SweepJournal& journal, const core::SweepBlock& rec, Ledger& led) {
  const auto t0 = Clock::now();
  journal.append(rec);
  led.append_s.push_back(secs(Clock::now() - t0));
}

/// Journal read side: reopen what was written, re-fold every record and
/// check the digest. Shard journals load as the union of shards.
void journal_read(const core::SweepCaseRunner& runner, const core::SweepGrid& grid,
                  const std::string& dir, bool shard, const std::string& path,
                  Ledger& led) {
  led.journal_bytes = static_cast<double>(std::filesystem::file_size(path));
  const auto t0 = Clock::now();
  std::vector<core::SweepBlock> blocks;
  if (shard) {
    blocks = core::SweepJournal::load_shards(dir, grid.config_digest(), grid.case_count())
                 .blocks;
  } else {
    blocks = core::SweepJournal::resume(dir, grid.config_digest(), grid.case_count())
                 .completed();
  }
  const auto t1 = Clock::now();
  core::SweepResult again;
  runner.init_result(again);
  for (const core::SweepBlock& rec : blocks) {
    for (std::size_t i = 0; i < rec.cases.size(); ++i) {
      runner.fold(again, rec.start + i, rec.cases[i]);
    }
  }
  led.load_s = secs(t1 - t0);
  led.replay_s = secs(Clock::now() - t1);
  led.resume_digest = again.digest;
}

/// Run the cases of one block over `pool`, timing asset resolution and
/// run_case per case.
void run_block(util::ThreadPool& pool, const core::SweepCaseRunner& runner,
               AssetCaches& assets, core::SweepBlock& block, Ledger& led) {
  const auto t0 = Clock::now();
  pool.parallel_for_chunked(block.cases.size(), 1, [&](std::size_t i) {
    const std::size_t flat = block.start + i;
    const auto c0 = Clock::now();
    assets.resolve(flat);
    const auto c1 = Clock::now();
    block.cases[i] = runner.run_case(flat);
    const auto c2 = Clock::now();
    led.case_s[flat] = secs(c2 - c1);
    led.case_body.add(c2 - c0);
  });
  led.block_wall_s += secs(Clock::now() - t0);
}

void fold_block(const core::SweepCaseRunner& runner, const core::SweepBlock& block,
                core::SweepResult& result, Ledger& led) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < block.cases.size(); ++i) {
    runner.fold(result, block.start + i, block.cases[i]);
  }
  led.fold.add(Clock::now() - t0);
}

// ---------------------------------------------------------------------------
// --mode inproc: the in-process engine's block loop.

void run_inproc(const Args& args, const core::SweepGrid& grid, const std::string& workdir,
                AssetCaches& assets, Ledger& led) {
  const std::size_t threads = static_cast<std::size_t>(args.num("threads", 2));
  core::SweepCaseRunner::Options copts;
  copts.case_retries = kCaseRetries;

  // Pool start and runner construction are inside wall_s but no layer
  // span covers them: they count as unattributed.
  const auto t_start = Clock::now();
  util::ThreadPool pool(threads);
  led.team = pool.size() + 1;  // the calling thread helps
  const core::SweepCaseRunner runner(grid, copts);
  const std::size_t n = runner.case_count();
  const std::size_t block_size = static_cast<std::size_t>(args.num("block", 256));
  led.case_s.assign(n, 0.0);
  core::SweepResult result;
  runner.init_result(result);
  std::vector<core::SweepBlock> records;  // for the journal pass
  for (std::size_t start = 0; start < n; start += block_size) {
    core::SweepBlock block;
    block.start = start;
    block.cases.resize(std::min(block_size, n - start));
    run_block(pool, runner, assets, block, led);
    fold_block(runner, block, result, led);
    block.digest_after = result.digest;  // chained journals store the running digest
    records.push_back(std::move(block));
  }
  const auto t_end = Clock::now();
  led.wall_s = secs(t_end - t_start);
  led.attributed_s = led.block_wall_s + led.fold.value();
  led.digest = result.digest;
  led.quarantined = result.failed_cases.size();

  const std::string jdir = workdir + "/journal";
  {
    core::SweepJournal journal =
        core::SweepJournal::create(jdir, grid.config_digest(), n, block_size);
    for (const core::SweepBlock& rec : records) timed_append(journal, rec, led);
  }
  journal_read(runner, grid, jdir, false, jdir + "/" + core::SweepJournal::kFileName, led);
}

// ---------------------------------------------------------------------------
// --mode fleet

std::vector<std::string> worker_argv(const Args& args, int workers) {
  std::vector<std::string> argv{args.get("greenhpc", "greenhpc"), "sweep-worker"};
  for (const char* key :
       {"regions", "kinds", "nodes", "jobs-list", "jobs", "days", "replicas", "sched", "seed"}) {
    if (!args.has(key)) continue;
    argv.push_back(std::string("--") + key);
    const std::string value = args.get(key, "");
    if (!value.empty()) argv.push_back(value);
  }
  const int machine = static_cast<int>(args.num("threads", 2));
  argv.push_back("--threads");
  argv.push_back(std::to_string(std::max(1, machine / workers)));
  return argv;
}

/// (a) The real coordinator against real worker processes, as the CLI
/// drives it; split by this process's and its children's rusage.
void run_coordinator(const Args& args, const core::SweepGrid& grid,
                     const std::string& workdir, Ledger& led) {
  const int workers = static_cast<int>(args.num("workers", 2));
  core::SweepCoordinator::Options o;
  o.workers = workers;
  o.block = static_cast<std::size_t>(args.num("block", 256));
  o.case_opts.case_retries = kCaseRetries;
  o.heartbeat_interval_s = kHeartbeatIntervalS;
  o.heartbeat_timeout_s = 2.0;
  o.hello_timeout_s = 30.0;
  o.lease_timeout_s = 600.0;
  o.ship_stats = !args.has("no-obs-ship");
  o.fleet_trace_path = args.has("fleet-trace") ? workdir + "/coordinator-fleet.json" : "";
  o.worker_argv = worker_argv(args, workers);

  rusage self0{}, kids0{}, self1{}, kids1{};
  ::getrusage(RUSAGE_SELF, &self0);
  ::getrusage(RUSAGE_CHILDREN, &kids0);
  const auto t0 = Clock::now();
  core::SweepCoordinator coordinator(std::move(o));
  const core::SweepResult result = coordinator.run(grid);
  led.coord_wall_s = secs(Clock::now() - t0);
  ::getrusage(RUSAGE_SELF, &self1);
  ::getrusage(RUSAGE_CHILDREN, &kids1);
  led.coord_digest = result.digest;
  led.coord_cpu_s = cpu_of(self1) - cpu_of(self0);
  led.worker_cpu_s = cpu_of(kids1) - cpu_of(kids0);
  led.worker_idle_share =
      1.0 - led.worker_cpu_s / (static_cast<double>(workers) * led.coord_wall_s);
  led.hb_rtt_p99_s = coordinator.stats().rtt_p99_s;
  led.max_lease_age_s = coordinator.stats().max_lease_age_s;
  led.reference_s = led.worker_cpu_s + led.coord_cpu_s;
}

/// A pipe the replay sends every protocol line through, both directions.
class Wire {
 public:
  Wire() {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    read_fd_ = fds[0];
    write_fd_ = fds[1];
    // The same thread writes and then reads, so a whole line must fit in
    // the pipe: a sealed 768-case block line is ~93 KiB.
    if (::fcntl(write_fd_, F_SETPIPE_SZ, 1 << 20) < (1 << 20)) {
      ::close(read_fd_);
      ::close(write_fd_);
      throw std::runtime_error("cannot grow the replay pipe to 1 MiB");
    }
    writer_ = std::make_unique<util::LineWriter>(write_fd_);
    reader_ = std::make_unique<util::LineChannel>(read_fd_);
  }
  ~Wire() {
    ::close(read_fd_);
    ::close(write_fd_);
  }
  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;
  Wire(Wire&&) = delete;
  Wire& operator=(Wire&&) = delete;

  /// Send `line` and receive it on the far end, timing the transit.
  std::string send(const std::string& line, Ledger& led) {
    const auto t0 = Clock::now();
    if (!writer_->write_line(line)) throw std::runtime_error("pipe write failed");
    std::string got;
    while (!reader_->next_line(got)) {
      const util::LineChannel::Fill f = reader_->fill();
      if (f == util::LineChannel::Fill::Eof || f == util::LineChannel::Fill::Error) {
        throw std::runtime_error("pipe read failed");
      }
    }
    led.transit.add(Clock::now() - t0);
    led.wire_lines += 1;
    led.wire_bytes += static_cast<double>(line.size() + 1);
    return got;
  }

 private:
  int read_fd_ = -1;
  int write_fd_ = -1;
  std::unique_ptr<util::LineWriter> writer_;
  std::unique_ptr<util::LineChannel> reader_;
};

core::Message timed_parse(const std::string& line, Ledger& led) {
  const auto t0 = Clock::now();
  core::Message m = core::parse_message(line);
  led.parse.add(Clock::now() - t0);
  if (m.kind == core::MsgKind::Malformed || m.kind == core::MsgKind::ObsRejected) {
    throw std::runtime_error("replayed line did not parse");
  }
  return m;
}

template <typename Encode>
std::string timed(Seconds& into, Encode&& encode) {
  const auto t0 = Clock::now();
  std::string line = encode();
  into.add(Clock::now() - t0);
  return line;
}

/// (b) One worker's per-block pipeline, replayed in this process for
/// every block of the grid with the worker's thread count.
void run_replay(const Args& args, const core::SweepGrid& grid, const std::string& workdir,
                AssetCaches& assets, Ledger& led) {
  const int workers = static_cast<int>(args.num("workers", 2));
  const std::size_t threads =
      static_cast<std::size_t>(std::max(1, static_cast<int>(args.num("threads", 2)) / workers));
  const bool ship_stats = !args.has("no-obs-ship");
  const bool ship_trace = args.has("fleet-trace");
  const long pid = static_cast<long>(::getpid());
  core::SweepCaseRunner::Options copts;
  copts.case_retries = kCaseRetries;

  // As in run_inproc, the set-up outside the hello and first stat exchange
  // (pool, runner, pipe, FleetTrace) is unattributed.
  const auto t_start = Clock::now();
  util::ThreadPool pool(threads);
  led.team = threads <= 1 ? 1 : pool.size() + 1;  // a 1-thread pool runs inline
  const core::SweepCaseRunner runner(grid, copts);
  const std::size_t n = runner.case_count();
  const std::size_t block_size = static_cast<std::size_t>(args.num("block", 256));
  led.case_s.assign(n, 0.0);
  core::SweepResult result;
  runner.init_result(result);
  core::BlockLedger ledger(n, block_size);
  Wire wire;
  obs::FleetTrace fleet;
  const int lane = fleet.add_lane(pid, "worker 0");

  const auto ship_stat = [&] {
    const std::string line = timed(led.ship_encode, [&] {
      return core::encode_stat(pid, obs::Tracer::now_ns(), obs::Registry::global().snapshot());
    });
    const core::Message m = timed_parse(wire.send(line, led), led);
    const auto t0 = Clock::now();
    fleet.align(lane, m.remote_now_ns, obs::Tracer::now_ns());
    led.merge.add(Clock::now() - t0);
    led.ship_lines += 1;
    led.ship_bytes += static_cast<double>(line.size() + 1);
  };
  (void)timed_parse(
      wire.send(timed(led.encode,
                      [&] { return core::encode_hello(pid, grid.config_digest(), n, block_size); }),
                led),
      led);
  if (ship_stats || ship_trace) ship_stat();

  std::vector<core::SweepBlock> records;  // for the journal pass
  core::BlockLedger::Lease lease;
  for (;;) {
    auto t0 = Clock::now();
    const bool leased = ledger.lease(0, 0.0, lease);
    led.fold.add(Clock::now() - t0);  // BlockLedger bookkeeping counts as fold
    if (!leased) break;
    const core::Message assign = timed_parse(
        wire.send(timed(led.encode, [&] { return core::encode_assign(lease.start, lease.count); }),
                  led),
        led);
    const std::uint64_t block_t0_ns = obs::Tracer::now_ns();
    core::SweepBlock block;
    block.start = assign.start;
    block.cases.resize(assign.count);
    run_block(pool, runner, assets, block, led);
    t0 = Clock::now();
    block.digest_after = core::sweep_block_digest(block);
    led.fold.add(Clock::now() - t0);
    const std::uint64_t report_t0_ns = obs::Tracer::now_ns();
    const std::string line =
        timed(led.encode, [&] { return core::SweepJournal::serialize_block_line(block); });
    const core::Message got = timed_parse(wire.send(line, led), led);
    t0 = Clock::now();
    (void)ledger.deliver(got.block);
    core::SweepBlock ready;
    while (ledger.next_to_fold(ready)) {
      for (std::size_t i = 0; i < ready.cases.size(); ++i) {
        runner.fold(result, ready.start + i, ready.cases[i]);
      }
    }
    led.fold.add(Clock::now() - t0);
    records.push_back(std::move(block));
    if (ship_stats) ship_stat();
    if (ship_trace) {
      // The fleet events a worker records per block (no journal span:
      // these workloads run without a journal).
      std::vector<obs::RemoteTraceEvent> events(2);
      events[0].name = "worker.assign";
      events[0].phase = 'i';
      events[0].ts_ns = block_t0_ns;
      events[0].value = static_cast<double>(assign.start);
      events[1].name = "worker.block";
      events[1].ts_ns = block_t0_ns;
      events[1].dur_ns = report_t0_ns - block_t0_ns;
      for (auto& e : events) e.cat = "fleet";
      const std::string tline = timed(led.ship_encode, [&] {
        return core::encode_trace(pid, obs::Tracer::now_ns(), 0, events);
      });
      const core::Message m = timed_parse(wire.send(tline, led), led);
      led.ship_lines += 1;
      led.ship_bytes += static_cast<double>(tline.size() + 1);
      t0 = Clock::now();
      fleet.add_events(lane, m.trace_events);
      led.merge.add(Clock::now() - t0);
    }
  }
  if (ship_stats || ship_trace) ship_stat();  // the farewell snapshot
  (void)timed_parse(wire.send(timed(led.encode, [] { return core::encode_shutdown(); }), led),
                    led);
  if (ship_trace) {
    const auto t0 = Clock::now();
    std::ofstream os(workdir + "/replay-fleet.json");
    fleet.write_chrome_json(os);
    led.merge.add(Clock::now() - t0);
  }
  const auto t_end = Clock::now();
  if (!ledger.all_folded()) throw std::runtime_error("replay left blocks unfolded");

  led.wall_s = secs(t_end - t_start);
  led.attributed_s = led.block_wall_s + led.fold.value() + led.encode.value() + led.transit.value() + led.parse.value() +
                     led.ship_encode.value() + led.merge.value();
  led.digest = result.digest;
  led.quarantined = result.failed_cases.size();

  const std::string jdir = workdir + "/replay";
  const std::string shard_name = core::SweepJournal::shard_file_name(0, "w0");
  {
    core::SweepJournal shard = core::SweepJournal::create_shard(
        jdir, shard_name, grid.config_digest(), n, block_size);
    for (const core::SweepBlock& rec : records) timed_append(shard, rec, led);
  }
  journal_read(runner, grid, jdir, true, jdir + "/" + shard_name, led);
}

void report(const Ledger& led, const AssetCaches& assets, const PolicyTotals& policy,
            bool caches_ok) {
  const std::uint64_t ticks = counter("sim.ticks");
  const std::uint64_t span_ticks = counter("sim.span_ticks");
  const std::uint64_t ff_ticks = counter("sim.fast_forward_ticks");
  const double all_ticks = static_cast<double>(ticks + span_ticks + ff_ticks);
  double case_sum = 0.0;
  for (const double c : led.case_s) case_sum += c;
  double append_sum = 0.0;
  for (const double a : led.append_s) append_sum += a;

  JsonOut out;
  out.str("digest", hex64(led.digest));
  out.str("resume_digest", hex64(led.resume_digest));
  out.flag("caches_ok", caches_ok);
  out.num("wall_s", led.wall_s);
  out.num("reference_s", led.reference_s);
  out.num("carbon.trace_gen_s", assets.trace_s.value());
  out.num("carbon.traces_generated", static_cast<double>(carbon::TraceCache::global().misses()));
  out.num("hpcsim.workload_gen_s", assets.workload_s.value());
  out.num("hpcsim.workloads_generated",
          static_cast<double>(hpcsim::WorkloadCache::global().misses()));
  out.num("hpcsim.engine_s",
          policy.lifetime.value() - policy.on_tick.value() - policy.attest.value());
  out.num("hpcsim.ticks", static_cast<double>(ticks));
  out.num("hpcsim.span_ticks", static_cast<double>(span_ticks));
  out.num("hpcsim.span_tick_share", all_ticks > 0 ? static_cast<double>(span_ticks) / all_ticks : 0);
  out.num("sched.on_tick_s", policy.on_tick.value());
  out.num("sched.on_tick_calls",
          static_cast<double>(policy.on_tick_calls.load(std::memory_order_relaxed)));
  out.num("sched.attest_s", policy.attest.value());
  out.num("core.case_s", case_sum);
  out.num("core.case_p50_s", percentile(led.case_s, 0.50));
  out.num("core.case_p99_s", percentile(led.case_s, 0.99));
  out.num("core.fold_s", led.fold.value());
  out.num("core.case_retries", static_cast<double>(counter("sweep.case_retries")));
  out.num("core.cases_quarantined", static_cast<double>(led.quarantined));
  out.num("util.pool_busy_share",
          led.block_wall_s > 0
              ? led.case_body.value() / (static_cast<double>(led.team) * led.block_wall_s)
              : 0);
  out.num("core.journal.appends", static_cast<double>(led.append_s.size()));
  out.num("core.journal.append_s", append_sum);
  out.num("core.journal.append_p99_s", percentile(led.append_s, 0.99));
  out.num("core.journal.bytes", led.journal_bytes);
  out.num("core.journal.load_s", led.load_s);
  out.num("core.journal.replay_s", led.replay_s);
  out.num("core.wire.lines", led.wire_lines);
  out.num("core.wire.bytes", led.wire_bytes);
  out.num("obs.ship.lines", led.ship_lines);
  out.num("obs.ship.bytes", led.ship_bytes);
  out.num("unattributed_share", led.wall_s > 0 ? 1.0 - led.attributed_s / led.wall_s : 0);
  if (led.fleet) {
    out.str("coordinator_digest", hex64(led.coord_digest));
    out.num("core.wire.encode_s", led.encode.value());
    out.num("core.wire.parse_s", led.parse.value());
    out.num("core.wire.transit_s", led.transit.value());
    out.num("obs.ship.encode_s", led.ship_encode.value());
    out.num("obs.ship.merge_s", led.merge.value());
    out.num("core.coordinator.wall_s", led.coord_wall_s);
    out.num("core.coordinator.cpu_s", led.coord_cpu_s);
    out.num("core.coordinator.worker_cpu_s", led.worker_cpu_s);
    out.num("core.coordinator.worker_idle_share", led.worker_idle_share);
    out.num("core.coordinator.hb_rtt_p99_s", led.hb_rtt_p99_s);
    out.num("core.coordinator.max_lease_age_s", led.max_lease_age_s);
  }
  out.print();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args(argc, argv);
    const std::string mode = args.get("mode", "");
    const std::string workdir = args.get("workdir", "");
    if ((mode != "inproc" && mode != "fleet") || workdir.empty()) {
      std::fprintf(stderr,
                   "usage: sweep_ledger --mode inproc|fleet --workdir DIR "
                   "[--greenhpc PATH] <greenhpc sweep grid flags>\n");
      return 2;
    }
    std::filesystem::create_directories(workdir);
    const core::SweepGrid plain = build_grid(args);
    PolicyTotals policy;
    const core::SweepGrid grid = timed_grid(plain, policy);
    AssetCaches assets(grid);
    Ledger led;
    if (mode == "inproc") {
      run_inproc(args, grid, workdir, assets, led);
    } else {
      led.fleet = true;
      run_coordinator(args, plain, workdir, led);
      run_replay(args, grid, workdir, assets, led);
    }
    report(led, assets, policy, assets.check(grid.case_count()));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_ledger: %s\n", e.what());
    return 1;
  }
}
