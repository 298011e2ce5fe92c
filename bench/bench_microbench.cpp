// Microbenchmarks (google-benchmark) of the library's hot kernels: grid
// trace generation, the simulator tick loop, hierarchical budget
// distribution, DSE evaluation, the parallel sweep infrastructure, and
// the observability primitives (disabled/enabled tracer spans, metric
// counters) against an uninstrumented reference loop.

#include <benchmark/benchmark.h>

#include <memory>

#include "carbon/grid_model.hpp"
#include "embodied/dse.hpp"
#include "hpcsim/simulator.hpp"
#include "hpcsim/workload.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "powerstack/budget_tree.hpp"
#include "sched/easy_backfill.hpp"
#include "util/fault_injector.hpp"
#include "util/parallel.hpp"

namespace {

using namespace greenhpc;

void BM_GridTraceGeneration(benchmark::State& state) {
  const auto span = days(static_cast<double>(state.range(0)));
  for (auto _ : state) {
    carbon::GridModel model(carbon::Region::Germany, 42);
    benchmark::DoNotOptimize(model.generate(seconds(0.0), span, minutes(15.0)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 96);
}
BENCHMARK(BM_GridTraceGeneration)->Arg(7)->Arg(31)->Arg(365);

void BM_SimulatorWeek(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  carbon::GridModel grid_model(carbon::Region::Germany, 7);
  const auto trace = grid_model.generate(seconds(0.0), days(10.0), minutes(15.0));
  hpcsim::WorkloadConfig wl;
  wl.job_count = nodes;  // ~1 job per node over the week
  wl.span = days(7.0);
  wl.max_job_nodes = nodes / 4;
  const auto jobs = hpcsim::WorkloadGenerator(wl, 3).generate();
  for (auto _ : state) {
    hpcsim::Simulator::Config cfg;
    cfg.cluster.nodes = nodes;
    cfg.cluster.tick = minutes(2.0);
    cfg.carbon_intensity = trace;
    hpcsim::Simulator sim(cfg, jobs);
    sched::EasyBackfillScheduler sched;
    benchmark::DoNotOptimize(sim.run(sched));
  }
}
BENCHMARK(BM_SimulatorWeek)->Arg(64)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_BudgetTreeDistribute(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  powerstack::ComponentBounds bounds;
  bounds.gpus_per_node = 4;
  const auto tree = powerstack::make_site_tree(jobs, 8, bounds);
  for (auto _ : state) {
    benchmark::DoNotOptimize(powerstack::distribute(tree, megawatts(2.0)));
  }
}
BENCHMARK(BM_BudgetTreeDistribute)->Arg(8)->Arg(64)->Arg(256);

void BM_DseEvaluate(benchmark::State& state) {
  const embodied::ActModel model;
  embodied::DesignSpaceExplorer::Config cfg;
  const embodied::DesignSpaceExplorer dse(model, cfg);
  const embodied::DesignPoint point{embodied::ProcessNode::N7, 64, 2.5, 4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(dse.evaluate(point, grams_per_kwh(300.0)));
  }
}
BENCHMARK(BM_DseEvaluate);

void BM_DseFullSweep(benchmark::State& state) {
  const embodied::ActModel model;
  embodied::DesignSpaceExplorer::Config cfg;
  const embodied::DesignSpaceExplorer dse(model, cfg);
  const auto grid = dse.default_grid();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dse.best(grid, embodied::Objective::Cdp, grams_per_kwh(300.0)));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(grid.size()));
}
BENCHMARK(BM_DseFullSweep)->Unit(benchmark::kMillisecond);

void BM_ParallelFor(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> out(n);
  for (auto _ : state) {
    util::parallel_for_chunked(n, 1, [&](std::size_t i) {
      double acc = 0.0;
      for (int k = 0; k < 1000; ++k) acc += static_cast<double>(i * k % 7);
      out[i] = acc;
    });
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ParallelFor)->Arg(64)->Arg(1024);

// --- observability overhead guard ---
// The same small work unit is timed bare, with a disabled tracer span,
// with a metrics counter, and with an enabled tracer span. The contract
// is that the disabled-span and counter variants stay within noise of
// the bare loop (a relaxed atomic load / fetch_add around ~100ns of
// work); the enabled-span variant prices the "tracing on" mode.

double obs_work_unit(std::size_t i) {
  double x = static_cast<double>(i % 17) + 1.0;
  for (int k = 0; k < 64; ++k) x = x * 1.0000001 + 1e-9;
  return x;
}

void BM_ObsUninstrumentedLoop(benchmark::State& state) {
  std::size_t i = 0;
  for (auto _ : state) benchmark::DoNotOptimize(obs_work_unit(i++));
}
BENCHMARK(BM_ObsUninstrumentedLoop);

void BM_ObsDisabledSpanLoop(benchmark::State& state) {
  obs::Tracer::set_enabled(false);
  std::size_t i = 0;
  for (auto _ : state) {
    GREENHPC_TRACE_SPAN("bench.obs.disabled");
    benchmark::DoNotOptimize(obs_work_unit(i++));
  }
}
BENCHMARK(BM_ObsDisabledSpanLoop);

void BM_ObsCounterLoop(benchmark::State& state) {
  static obs::Counter& counter =
      obs::Registry::global().counter("bench.obs.counter");
  std::size_t i = 0;
  for (auto _ : state) {
    counter.add();
    benchmark::DoNotOptimize(obs_work_unit(i++));
  }
  counter.reset();
}
BENCHMARK(BM_ObsCounterLoop);

void BM_ObsEnabledSpanLoop(benchmark::State& state) {
  obs::Tracer::set_buffer_capacity(std::size_t{1} << 16);
  obs::Tracer::reset();
  obs::Tracer::set_enabled(true);
  std::size_t i = 0;
  for (auto _ : state) {
    GREENHPC_TRACE_SPAN("bench.obs.enabled");
    benchmark::DoNotOptimize(obs_work_unit(i++));
  }
  obs::Tracer::set_enabled(false);
  obs::Tracer::reset();
}
BENCHMARK(BM_ObsEnabledSpanLoop);

// The fault-injection hooks live on the sweep fabric's hot paths (case
// dispatch, journal append, heartbeat). The cost contract is that a
// DISARMED injector is one relaxed atomic load per consult — this pair
// of benchmarks keeps that honest against the armed (mutex + map) path.
void BM_FaultInjectorDisarmedConsult(benchmark::State& state) {
  auto& inj = util::FaultInjector::global();
  inj.disarm();
  const std::string site = "bench.site";
  util::FaultHit hit;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(inj.consult(site, hit));
    benchmark::DoNotOptimize(obs_work_unit(i++));
  }
}
BENCHMARK(BM_FaultInjectorDisarmedConsult);

void BM_FaultInjectorArmedConsult(benchmark::State& state) {
  auto& inj = util::FaultInjector::global();
  // Armed with a spec for a DIFFERENT site: the worst common case is
  // paying the slow path without ever firing.
  inj.arm({{"bench.other", 0, 1, util::FaultAction::Fail, 0}});
  const std::string site = "bench.site";
  util::FaultHit hit;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(inj.consult(site, hit));
    benchmark::DoNotOptimize(obs_work_unit(i++));
  }
  inj.disarm();
}
BENCHMARK(BM_FaultInjectorArmedConsult);

}  // namespace

BENCHMARK_MAIN();
