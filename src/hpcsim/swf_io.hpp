#pragma once
// Standard Workload Format (SWF) import/export.
//
// SWF is the format of the Parallel Workloads Archive and the de-facto
// interchange format for RJMS research traces. Importing SWF lets users
// run real production logs (ANL, KIT, CEA, ...) through the simulator in
// place of the synthetic generator; exporting makes generated workloads
// consumable by other schedulers/simulators.
//
// Mapping notes (SWF is processor-based; greenhpc is node-based):
//   * requested processors -> nodes_requested (allocation held),
//   * used processors      -> nodes_used (falls back to requested),
//   * requested time       -> walltime (falls back to 1.5x runtime),
//   * user id              -> "user<uid>", group id -> "proj<gid>".
// Jobs with unknown (-1) runtime or non-positive processors are skipped;
// the importer reports how many. Power/elasticity fields have no SWF
// equivalent and take the given defaults.

#include <iosfwd>
#include <vector>

#include "hpcsim/job.hpp"

namespace greenhpc::hpcsim {

/// Defaults applied to fields SWF does not carry.
struct SwfDefaults {
  Power node_power = watts(400.0);
  double power_alpha = 0.4;
  double scale_gamma = 0.9;
  /// Cap on nodes per job (oversized entries are clamped); 0 = no cap.
  int max_nodes = 0;
};

/// Result of an SWF import.
struct SwfImport {
  std::vector<JobSpec> jobs;
  int skipped = 0;  ///< malformed/unschedulable entries dropped
};

/// Parse an SWF stream (';' header/comment lines ignored).
[[nodiscard]] SwfImport load_swf(std::istream& in, const SwfDefaults& defaults = {});

/// Write jobs as SWF (with a header documenting the export).
/// Kept as load_swf's round-trip oracle in `Swf.RoundTripsGeneratedWorkload`.
void save_swf(const std::vector<JobSpec>& jobs, std::ostream& out);

}  // namespace greenhpc::hpcsim
