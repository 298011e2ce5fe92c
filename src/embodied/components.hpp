#pragma once
// Hardware component descriptions and their embodied carbon.
//
// A processor is a set of chiplets on a package (optionally a 2.5D silicon
// interposer) plus on-package HBM; memory and storage are capacity
// quantities. Embodied carbon of each component is a pure function of the
// spec and an ActModel.

#include <string>
#include <vector>

#include "embodied/act_model.hpp"
#include "util/units.hpp"

namespace greenhpc::embodied {

/// A group of identical chiplets within one package.
struct ChipletSpec {
  double area_mm2 = 0.0;              ///< area of one die
  ProcessNode node = ProcessNode::N7; ///< process generation
  int count = 1;                      ///< identical dies of this kind
};

/// A packaged processor (CPU or GPU module).
struct ProcessorSpec {
  std::string name;
  std::vector<ChipletSpec> chiplets;
  double substrate_cm2 = 0.0;   ///< organic package substrate area
  double interposer_cm2 = 0.0;  ///< 2.5D silicon interposer area (0 = none)
  double hbm_gb = 0.0;          ///< on-package HBM capacity
  /// Module-level overhead beyond the package: carrier PCB, VRMs, cold
  /// plate, mechanical (kgCO2e). Dominant for SXM-class GPU modules.
  double module_overhead_kg = 0.0;
  /// Total die count across all chiplet groups.
  [[nodiscard]] int total_die_count() const;
};

/// Embodied carbon of one packaged processor: chiplet manufacturing
/// (yield-adjusted per die), packaging, and on-package HBM.
[[nodiscard]] Carbon processor_embodied(const ActModel& model, const ProcessorSpec& spec);

/// Embodied carbon of a DRAM capacity.
[[nodiscard]] Carbon memory_embodied(const ActModel& model, double gigabytes, DramType type);

/// Embodied carbon of a storage capacity.
[[nodiscard]] Carbon storage_embodied(const ActModel& model, double gigabytes,
                                      StorageType type);

// --- reference processor specs used by the Fig. 1 systems -----------------

/// NVIDIA A100-40GB SXM module: one 826 mm^2 GA100 die (7nm-class), six HBM
/// stacks on a CoWoS interposer, 40 GB HBM2e.
[[nodiscard]] ProcessorSpec nvidia_a100_sxm();

/// AMD EPYC 7402 (Rome, 24-core): 4 CCDs (7nm) + 1 IO die (14nm-class) on
/// an SP3 organic substrate.
[[nodiscard]] ProcessorSpec amd_epyc_7402();

/// AMD EPYC 7742 (Rome, 64-core): 8 CCDs (7nm) + 1 IO die (14nm-class).
[[nodiscard]] ProcessorSpec amd_epyc_7742();

/// Intel Xeon Platinum 8174 (Skylake-SP, 24-core): one ~694 mm^2 XCC die
/// (14nm) on an LGA3647 substrate.
[[nodiscard]] ProcessorSpec intel_xeon_8174();

}  // namespace greenhpc::embodied
