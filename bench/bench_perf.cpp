// EXP-PERF — simulator hot-path throughput and sweep scaling.
//
// Not a paper experiment: this bench tracks the engine itself, so the
// operational experiments (which run hundreds of simulations per sweep)
// stay cheap enough to iterate on. Three workloads of increasing size are
// timed through the FCFS and EASY hot loops (ticks/s, jobs/s), and one
// policy sweep is run serially and through the thread pool to measure
// sweep scaling and to assert that parallel fan-out reproduces the serial
// results bit for bit. A final pass re-runs the reference hot loop with
// the event tracer enabled and reports the overhead ratio plus a
// span-derived phase breakdown ("tracing" block in the JSON).
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
#include "carbon/forecast.hpp"
#include "obs/trace.hpp"
#include "sched/carbon_aware.hpp"
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

/// FNV-1a over the bit patterns of the headline totals: enough to detect
/// any serial-vs-parallel divergence without hauling full results around.
std::uint64_t outcome_digest(const std::vector<core::PolicyOutcome>& outcomes) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const auto& o : outcomes) {
    mix(o.result.total_carbon.grams());
    mix(o.result.total_energy.joules());
    mix(o.result.makespan.seconds());
    mix(static_cast<double>(o.completed));
    for (const auto& j : o.result.jobs) {
      mix(j.finish.seconds());
      mix(j.energy.joules());
    }
  }
  return h;
}

std::vector<core::ScenarioRunner::PolicyCase> sweep_cases() {
  std::vector<core::ScenarioRunner::PolicyCase> cases;
  cases.push_back({"fcfs", [] { return std::make_unique<sched::FcfsScheduler>(); }});
  cases.push_back({"easy", [] { return std::make_unique<sched::EasyBackfillScheduler>(); }});
  cases.push_back(
      {"easy+mold", [] { return std::make_unique<sched::EasyBackfillScheduler>(true); }});
  for (int k = 0; k < 3; ++k) {
    cases.push_back({"carbon-easy/" + std::to_string(k), [] {
                       sched::CarbonAwareEasyScheduler::Config c;
                       c.max_hold = hours(24.0);
                       return std::make_unique<sched::CarbonAwareEasyScheduler>(
                           c, std::make_shared<carbon::PersistenceForecaster>());
                     }});
  }
  return cases;
}

/// Fixed unit of work for the crossover probe: enough arithmetic
/// (~volatile-protected 20k fused ops) that a handful of units dominate
/// chunk-dispatch cost, small enough that the probe stays in microseconds.
double crossover_unit(std::size_t i) {
  volatile double x = 1.0 + static_cast<double>(i % 7);
  for (int k = 0; k < 20000; ++k) x = x * 1.0000001 + 1e-9;
  return x;
}

struct CrossoverReport {
  bool serial_fallback = false;  ///< pool cannot win; crossover undefined
  std::size_t crossover_n = 0;   ///< smallest n where parallel <= serial (0 = never)
  double unit_us = 0.0;          ///< measured cost of one work unit
};

/// Measure the serial/parallel crossover of the chunked fan-out: the
/// smallest iteration count n for which the pool path is no slower than
/// the plain loop (within 5% — below it, ThreadPool's serial fallback is
/// the right call; sweeps at or above it should fan out).
CrossoverReport measure_crossover() {
  CrossoverReport rep;
  auto& pool = util::ThreadPool::global();
  rep.serial_fallback = pool.size() <= 1;

  const auto tu = Clock::now();
  double sink = 0.0;
  for (std::size_t i = 0; i < 32; ++i) sink += crossover_unit(i);
  rep.unit_us = seconds_since(tu) / 32.0 * 1e6;
  (void)sink;
  if (rep.serial_fallback) return rep;  // parallel IS serial; nothing to probe

  for (const std::size_t n : {2u, 4u, 8u, 16u, 32u, 64u}) {
    double serial_best = 1e300;
    double parallel_best = 1e300;
    for (int rep_i = 0; rep_i < 3; ++rep_i) {
      double s = 0.0;
      auto t0 = Clock::now();
      for (std::size_t i = 0; i < n; ++i) s += crossover_unit(i);
      serial_best = std::min(serial_best, seconds_since(t0));
      t0 = Clock::now();
      std::vector<double> slots(n);
      pool.parallel_for_chunked(n, 1, [&](std::size_t i) { slots[i] = crossover_unit(i); });
      parallel_best = std::min(parallel_best, seconds_since(t0));
      (void)s;
    }
    if (parallel_best <= 1.05 * serial_best) {
      rep.crossover_n = n;
      break;
    }
  }
  return rep;
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

  // --- serial vs parallel sweep ---
  auto sweep_cfg = scale_config(kScales[0]);
  sweep_cfg.workload.checkpointable_fraction = 0.5;
  core::ScenarioRunner sweep_runner(sweep_cfg);
  const auto cases = sweep_cases();

  // Best of 5, serial and parallel interleaved: at this scale the sweep is
  // milliseconds, so a single-shot (or phase-ordered) timing would gate on
  // allocator state and clock drift rather than on the fan-out path.
  std::vector<core::PolicyOutcome> serial;
  std::vector<core::PolicyOutcome> parallel;
  double serial_s = 1e300;
  double parallel_s = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const auto ts0 = Clock::now();
    std::vector<core::PolicyOutcome> s_out;
    s_out.reserve(cases.size());
    for (const auto& c : cases) s_out.push_back(sweep_runner.run(c.label, c.scheduler, c.power));
    serial_s = std::min(serial_s, seconds_since(ts0));
    serial = std::move(s_out);

    const auto tp0 = Clock::now();
    std::vector<core::PolicyOutcome> p_out = sweep_runner.run_all(cases);
    parallel_s = std::min(parallel_s, seconds_since(tp0));
    parallel = std::move(p_out);
  }

  const std::uint64_t serial_digest = outcome_digest(serial);
  const std::uint64_t parallel_digest = outcome_digest(parallel);
  const bool identical = serial_digest == parallel_digest;
  const std::size_t threads = util::ThreadPool::global().size();

  const CrossoverReport crossover = measure_crossover();
  std::printf("Sweep (%zu cases): serial %.3f s, parallel %.3f s on %zu threads "
              "(pool speedup %.2fx%s); results %s\n",
              cases.size(), serial_s, parallel_s, threads, serial_s / parallel_s,
              crossover.serial_fallback ? ", serial fallback engaged" : "",
              identical ? "bit-identical" : "DIVERGED");
  if (crossover.serial_fallback) {
    std::printf("Crossover: single-worker pool — chunked loops run the serial "
                "path (unit %.1f us)\n",
                crossover.unit_us);
  } else if (crossover.crossover_n > 0) {
    std::printf("Crossover: parallel fan-out breaks even at n=%zu units of "
                "%.1f us on %zu threads\n",
                crossover.crossover_n, crossover.unit_us, threads);
  } else {
    std::printf("Crossover: parallel never beat serial up to n=64 (unit %.1f us, "
                "%zu threads)\n",
                crossover.unit_us, threads);
  }
  std::printf("\n");

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
  std::fprintf(f, "{\n  \"threads\": %zu,\n  \"smoke\": %s,\n", threads,
               smoke ? "true" : "false");
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
               "  \"sweep\": {\"cases\": %zu, \"serial_s\": %.6f, \"parallel_s\": "
               "%.6f, \"speedup\": %.3f, \"bit_identical\": %s, "
               "\"serial_fallback\": %s},\n",
               cases.size(), serial_s, parallel_s, serial_s / parallel_s,
               identical ? "true" : "false",
               crossover.serial_fallback ? "true" : "false");
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
  std::fprintf(f, "  ]},\n");
  std::fprintf(f,
               "  \"crossover\": {\"serial_fallback\": %s, \"crossover_n\": %zu, "
               "\"unit_us\": %.2f}\n}\n",
               crossover.serial_fallback ? "true" : "false", crossover.crossover_n,
               crossover.unit_us);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  if (!identical) {
    std::fprintf(stderr, "FAIL: parallel sweep diverged from serial results\n");
    return 1;
  }

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
    // The pool path must never lose to the plain loop: either it wins, or
    // the serial fallback makes it the plain loop (speedup ~1.0). 0.9
    // rather than 1.0 absorbs timer noise on the few-second sweep.
    const double sweep_speedup = serial_s / parallel_s;
    std::printf("Baseline gate: sweep parallel/serial speedup %.2fx%s\n",
                sweep_speedup,
                crossover.serial_fallback ? " (serial fallback)" : "");
    if (sweep_speedup < 0.9) {
      std::fprintf(stderr,
                   "FAIL: parallel sweep slower than serial (%.2fx < 0.9x) — "
                   "fan-out overhead is not being amortized or the serial "
                   "fallback failed to engage\n",
                   sweep_speedup);
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
