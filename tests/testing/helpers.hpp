#pragma once
// Shared fixtures/builders for greenhpc tests.

#include <algorithm>
#include <string>
#include <vector>

#include "hpcsim/cluster.hpp"
#include "hpcsim/job.hpp"
#include "hpcsim/policy.hpp"
#include "hpcsim/sim_core.hpp"
#include "sched/fcfs.hpp"
#include "util/time_series.hpp"

namespace greenhpc::testing {

/// Flat carbon-intensity trace of `value` g/kWh covering `span`.
inline util::TimeSeries constant_trace(double value, Duration span,
                                       Duration step = minutes(15.0)) {
  const auto n = static_cast<std::size_t>(span.seconds() / step.seconds());
  return util::TimeSeries(seconds(0.0), step, std::vector<double>(n, value));
}

/// Square-wave trace alternating `lo` and `hi` every `half_period`.
inline util::TimeSeries square_trace(double lo, double hi, Duration half_period,
                                     Duration span, Duration step = minutes(15.0)) {
  util::TimeSeries ts(seconds(0.0), step);
  const auto n = static_cast<std::size_t>(span.seconds() / step.seconds());
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * step.seconds();
    const auto phase = static_cast<long long>(t / half_period.seconds());
    ts.push_back(phase % 2 == 0 ? lo : hi);
  }
  return ts;
}

/// Small homogeneous test cluster.
inline hpcsim::ClusterConfig small_cluster(int nodes = 16) {
  hpcsim::ClusterConfig c;
  c.nodes = nodes;
  c.node_tdp = watts(500.0);
  c.node_idle = watts(100.0);
  c.min_cap_fraction = 0.5;
  c.tick = minutes(1.0);
  return c;
}

/// A rigid job with sane defaults, customizable via designated assignment
/// after the call.
inline hpcsim::JobSpec rigid_job(int id, Duration submit, int nodes, Duration runtime) {
  hpcsim::JobSpec j;
  j.id = id;
  j.user = "u" + std::to_string(id % 4);
  j.project = "p" + std::to_string(id % 2);
  j.submit = submit;
  j.kind = hpcsim::JobKind::Rigid;
  j.nodes_requested = nodes;
  j.nodes_used = nodes;
  j.min_nodes = nodes;
  j.max_nodes = nodes;
  j.runtime = runtime;
  j.walltime = runtime * 1.5;
  j.node_power = watts(400.0);
  j.power_alpha = 0.4;
  j.scale_gamma = 0.9;
  return j;
}

/// A malleable job sized `natural` with range [natural/2, natural*2].
inline hpcsim::JobSpec malleable_job(int id, Duration submit, int natural,
                                     Duration runtime, int cluster_nodes) {
  hpcsim::JobSpec j = rigid_job(id, submit, natural, runtime);
  j.kind = hpcsim::JobKind::Malleable;
  j.min_nodes = std::max(1, natural / 2);
  j.max_nodes = std::min(cluster_nodes, natural * 2);
  return j;
}

/// A one-row JobTable holding `spec` in slot 0, flattened exactly as the
/// simulator flattens its job list — for unit tests of the table-form
/// helpers. Not copyable: the table's spans point into the core.
class OneRowTable {
 public:
  explicit OneRowTable(const hpcsim::JobSpec& spec) {
    core_.init(1);
    core_.fill_static(0, spec);
    table_ = core_.table();
  }
  OneRowTable(const OneRowTable&) = delete;
  OneRowTable& operator=(const OneRowTable&) = delete;
  [[nodiscard]] const hpcsim::JobTable& table() const { return table_; }

 private:
  hpcsim::SimCore core_;
  hpcsim::JobTable table_;
};

/// Scheduler that starts every pending job immediately if possible
/// (no queue discipline) — minimal driver for engine tests.
class GreedyScheduler final : public hpcsim::SchedulingPolicy {
 public:
  void on_tick(hpcsim::SimulationView& view) override {
    const hpcsim::JobTable& t = view.job_table();
    const std::vector<hpcsim::JobId> pending = view.pending_jobs();
    for (hpcsim::JobId id : pending) {
      (void)view.start(id, sched::start_nodes(t, view.slot_of(id)));
    }
  }
  [[nodiscard]] std::string name() const override { return "greedy-test"; }
};

}  // namespace greenhpc::testing
