// EXP-PERF — simulator hot-path throughput.
//
// Not a paper experiment: this bench tracks the engine itself, so the
// operational experiments (which run hundreds of simulations per sweep)
// stay cheap enough to iterate on. Workloads of increasing size are timed
// through the FCFS and EASY hot loops (ticks/s, jobs/s), plus a dense
// completion-bound scale. A final pass re-runs the reference hot loop with
// the event tracer enabled and reports the overhead ratio plus a
// span-derived phase breakdown ("tracing" block in the JSON). Sweep
// timing lives in the sweep ledger (sweepbench/).
//
// Usage: bench_perf [--smoke] [--json-out FILE] [--baseline FILE]
//   --smoke      smallest scale only (CI perf gate)
//   --json-out FILE  write the JSON report there (default BENCH_PERF.json;
//                    --out is accepted as an alias)
//   --baseline   compare against a committed baseline JSON; exit nonzero
//                on a >2x ticks/s regression of the reference hot loop or
//                the dense scale
//
// The committed baseline lives at bench/perf_baseline.json; regenerate it
// with `bench_perf --smoke --out bench/perf_baseline.json` on an idle
// machine when the engine legitimately gets faster or slower.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/trace.hpp"
#include "sched/easy_backfill.hpp"
#include "sched/fcfs.hpp"
#include "util/parallel.hpp"

namespace {

using namespace greenhpc;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct ScaleSpec {
  const char* name;
  int nodes;
  int jobs;
  double span_days;
};

constexpr ScaleSpec kScales[] = {
    {"small", 64, 220, 2.0},
    {"medium", 256, 900, 7.0},
    {"large", 512, 2200, 14.0},
    // Mostly-idle campaign: long gaps between arrivals, the shape the
    // idle fast-forward path is built for (capability systems between
    // campaigns, federated sites off the dispatch favorites list).
    {"sparse", 64, 48, 21.0},
};

struct HotLoopSample {
  std::string scale;
  std::string scheduler;
  std::size_t ticks = 0;
  std::size_t jobs = 0;
  double wall_s = 0.0;
  [[nodiscard]] double ticks_per_s() const { return ticks / wall_s; }
  [[nodiscard]] double jobs_per_s() const { return static_cast<double>(jobs) / wall_s; }
};

core::ScenarioConfig scale_config(const ScaleSpec& s) {
  auto cfg = bench::reference_scenario();
  cfg.cluster.nodes = s.nodes;
  cfg.workload.job_count = s.jobs;
  cfg.workload.span = days(s.span_days);
  cfg.workload.max_job_nodes = std::max(4, s.nodes / 2);
  cfg.trace_span = days(s.span_days + 5.0);
  return cfg;
}

// --- dense scale: completion-bound wave arrivals ---
// Many short jobs on a fine tick, submitted in hourly waves (arrival
// quantum) that mostly fit the machine at once: between waves the pending
// queue is empty, so every finish is a pure node release the policies
// attest over and the span kernel resolves in place. This is the regime
// the in-span completion path targets.

core::ScenarioConfig dense_config() {
  auto cfg = bench::reference_scenario();
  cfg.cluster.nodes = 512;
  cfg.cluster.tick = seconds(15.0);
  cfg.workload.job_count = 2000;
  cfg.workload.span = days(1.5);
  cfg.workload.arrival_quantum = minutes(60.0);
  cfg.workload.max_job_nodes = 1;
  cfg.workload.runtime_mean = minutes(300.0);
  cfg.workload.runtime_max = hours(12.0);
  cfg.trace_span = days(4.0);
  return cfg;
}

HotLoopSample time_hot_loop(const core::ScenarioRunner& runner, const char* scale,
                            const char* sched_name) {
  hpcsim::Simulator::Config sim_cfg;
  sim_cfg.cluster = runner.config().cluster;
  sim_cfg.carbon_intensity = runner.trace();
  // Best of 5: each rep is an identical, independent run (fresh Simulator
  // and fresh policy on the same inputs), so the minimum is the least
  // noise-contaminated estimate of the true cost.
  HotLoopSample out;
  out.scale = scale;
  out.scheduler = sched_name;
  out.jobs = runner.jobs().size();
  out.wall_s = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    hpcsim::Simulator sim(sim_cfg, runner.jobs());
    std::unique_ptr<hpcsim::SchedulingPolicy> sched;
    if (std::strcmp(sched_name, "fcfs") == 0) {
      sched = std::make_unique<sched::FcfsScheduler>();
    } else {
      sched = std::make_unique<sched::EasyBackfillScheduler>();
    }
    const auto t0 = Clock::now();
    const auto result = sim.run(*sched);
    const double wall = seconds_since(t0);
    out.ticks = result.system_power.size();
    out.wall_s = std::min(out.wall_s, wall);
  }
  return out;
}

/// Minimal scanner for `"key": <number>` in the baseline JSON — the file
/// is our own flat output, not arbitrary JSON.
bool find_json_number(const std::string& text, const std::string& key, double* out) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return false;
  return std::sscanf(text.c_str() + pos + needle.size(), " %lf", out) == 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_PERF.json";
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if ((std::strcmp(argv[i], "--out") == 0 ||
                std::strcmp(argv[i], "--json-out") == 0) &&
               i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_perf [--smoke] [--json-out FILE] "
                   "[--baseline FILE]\n");
      return 2;
    }
  }

  const std::size_t n_scales = smoke ? 1 : std::size(kScales);

  // --- hot-loop throughput ---
  util::Table tt({"scale", "nodes", "jobs", "scheduler", "ticks", "wall[ms]",
                  "ticks/s", "jobs/s"});
  std::vector<HotLoopSample> samples;
  for (std::size_t i = 0; i < n_scales; ++i) {
    const ScaleSpec& s = kScales[i];
    core::ScenarioRunner runner(scale_config(s));
    for (const char* sched_name : {"fcfs", "easy"}) {
      const HotLoopSample sample = time_hot_loop(runner, s.name, sched_name);
      tt.add_row({sample.scale, std::to_string(s.nodes), std::to_string(s.jobs),
                  sample.scheduler, std::to_string(sample.ticks),
                  util::Table::fmt(1e3 * sample.wall_s, 1),
                  util::Table::fmt(sample.ticks_per_s(), 0),
                  util::Table::fmt(sample.jobs_per_s(), 0)});
      samples.push_back(sample);
    }
  }
  std::printf("%s\n", tt.str("Simulator hot-loop throughput").c_str());

  // --- dense scale: completion-bound wave arrivals ---
  const core::ScenarioConfig dense_cfg = dense_config();
  core::ScenarioRunner dense_runner(dense_cfg);
  util::Table dt({"scheduler", "ticks", "wall[ms]", "ticks/s"});
  std::vector<HotLoopSample> dense_samples;
  for (const char* sched_name : {"fcfs", "easy"}) {
    const HotLoopSample sample = time_hot_loop(dense_runner, "dense", sched_name);
    dt.add_row({sched_name, std::to_string(sample.ticks),
                util::Table::fmt(1e3 * sample.wall_s, 1),
                util::Table::fmt(sample.ticks_per_s(), 0)});
    dense_samples.push_back(sample);
  }
  std::printf("%s\n",
              dt.str("Dense scale (512 nodes, 2000 single-node jobs, 15 s tick, "
                     "hourly arrival waves)")
                  .c_str());

  // --- tracing overhead probe ---
  // One more pass over the reference hot loop (small/fcfs) with the event
  // tracer switched on: overhead_x is the "instrumentation compiled in AND
  // enabled stays cheap" number for the report. Best of 3; the rings are
  // reset before each rep so the drained span table describes one run.
  const HotLoopSample& ref = samples[0];  // small/fcfs = the reference hot loop
  core::ScenarioRunner traced_runner(scale_config(kScales[0]));
  obs::Tracer::set_buffer_capacity(std::size_t{1} << 19);
  double traced_s = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    obs::Tracer::reset();
    obs::Tracer::set_enabled(true);
    hpcsim::Simulator::Config traced_cfg;
    traced_cfg.cluster = traced_runner.config().cluster;
    traced_cfg.carbon_intensity = traced_runner.trace();
    hpcsim::Simulator sim(traced_cfg, traced_runner.jobs());
    sched::FcfsScheduler fcfs;
    const auto t0 = Clock::now();
    (void)sim.run(fcfs);
    traced_s = std::min(traced_s, seconds_since(t0));
    obs::Tracer::set_enabled(false);
  }
  const std::vector<obs::SpanStat> phases = obs::Tracer::aggregate_spans();
  const std::uint64_t traced_dropped = obs::Tracer::dropped();
  const double overhead_x = ref.wall_s > 0.0 ? traced_s / ref.wall_s : 0.0;
  std::printf("Tracing overhead (small/fcfs): %.1f ms traced vs %.1f ms untraced "
              "(%.2fx), %zu span kinds, %llu dropped\n\n",
              1e3 * traced_s, 1e3 * ref.wall_s, overhead_x, phases.size(),
              static_cast<unsigned long long>(traced_dropped));
  obs::Tracer::reset();

  // --- JSON report ---
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::fprintf(f, "{\n  \"threads\": %zu,\n  \"smoke\": %s,\n",
               util::ThreadPool::global().size(), smoke ? "true" : "false");
  std::fprintf(f, "  \"reference_ticks_per_s\": %.1f,\n", ref.ticks_per_s());
  std::fprintf(f, "  \"hot_loop\": [\n");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto& s = samples[i];
    std::fprintf(f,
                 "    {\"scale\": \"%s\", \"scheduler\": \"%s\", \"ticks\": %zu, "
                 "\"jobs\": %zu, \"wall_s\": %.6f, \"ticks_per_s\": %.1f, "
                 "\"jobs_per_s\": %.1f}%s\n",
                 s.scale.c_str(), s.scheduler.c_str(), s.ticks, s.jobs, s.wall_s,
                 s.ticks_per_s(), s.jobs_per_s(), i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"dense\": {\"nodes\": %d, \"jobs\": %d, \"tick_s\": %.0f, "
               "\"samples\": [\n",
               dense_cfg.cluster.nodes, dense_cfg.workload.job_count,
               dense_cfg.cluster.tick.seconds());
  for (std::size_t i = 0; i < dense_samples.size(); ++i) {
    const auto& s = dense_samples[i];
    std::fprintf(f,
                 "    {\"scheduler\": \"%s\", \"ticks\": %zu, \"wall_s\": %.6f, "
                 "\"ticks_per_s\": %.1f}%s\n",
                 s.scheduler.c_str(), s.ticks, s.wall_s, s.ticks_per_s(),
                 i + 1 < dense_samples.size() ? "," : "");
  }
  std::fprintf(f, "  ]},\n");
  std::fprintf(f, "  \"dense_fcfs_ticks_per_s\": %.1f,\n",
               dense_samples[0].ticks_per_s());
  std::fprintf(f,
               "  \"tracing\": {\"enabled_wall_s\": %.6f, \"disabled_wall_s\": %.6f, "
               "\"overhead_x\": %.3f, \"dropped\": %llu, \"phases\": [\n",
               traced_s, ref.wall_s, overhead_x,
               static_cast<unsigned long long>(traced_dropped));
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const auto& p = phases[i];
    std::fprintf(f, "    {\"name\": \"%s\", \"count\": %llu, \"total_ms\": %.3f}%s\n",
                 p.name.c_str(), static_cast<unsigned long long>(p.count), p.total_ms,
                 i + 1 < phases.size() ? "," : "");
  }
  std::fprintf(f, "  ]}\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  // --- baseline regression gate ---
  if (!baseline_path.empty()) {
    std::FILE* bf = std::fopen(baseline_path.c_str(), "r");
    if (bf == nullptr) {
      std::fprintf(stderr, "cannot read baseline %s\n", baseline_path.c_str());
      return 2;
    }
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), bf)) > 0) text.append(buf, n);
    std::fclose(bf);
    double base_tps = 0.0;
    if (!find_json_number(text, "reference_ticks_per_s", &base_tps) || base_tps <= 0.0) {
      std::fprintf(stderr, "baseline %s has no reference_ticks_per_s\n",
                   baseline_path.c_str());
      return 2;
    }
    const double measured = ref.ticks_per_s();
    std::printf("Baseline gate: measured %.0f ticks/s vs baseline %.0f (ratio %.2f)\n",
                measured, base_tps, measured / base_tps);
    if (measured < 0.5 * base_tps) {
      std::fprintf(stderr,
                   "FAIL: reference hot loop regressed >2x vs baseline "
                   "(%.0f < 0.5 * %.0f ticks/s)\n",
                   measured, base_tps);
      return 1;
    }
    // Dense gate: the completion-bound scale must not regress >2x against
    // the committed baseline.
    double base_dense_tps = 0.0;
    if (find_json_number(text, "dense_fcfs_ticks_per_s", &base_dense_tps) &&
        base_dense_tps > 0.0) {
      const double dense_tps = dense_samples[0].ticks_per_s();
      std::printf(
          "Baseline gate: dense fcfs %.0f ticks/s vs baseline %.0f (ratio %.2f)\n",
          dense_tps, base_dense_tps, dense_tps / base_dense_tps);
      if (dense_tps < 0.5 * base_dense_tps) {
        std::fprintf(stderr,
                     "FAIL: dense hot loop regressed >2x vs baseline "
                     "(%.0f < 0.5 * %.0f ticks/s)\n",
                     dense_tps, base_dense_tps);
        return 1;
      }
    }
  }
  return 0;
}
