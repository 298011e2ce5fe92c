#include "embodied/components.hpp"

#include "util/error.hpp"

namespace greenhpc::embodied {

int ProcessorSpec::total_die_count() const {
  int n = 0;
  for (const auto& c : chiplets) n += c.count;
  return n;
}

Carbon processor_embodied(const ActModel& model, const ProcessorSpec& spec) {
  GREENHPC_REQUIRE(!spec.chiplets.empty(), "processor spec needs at least one chiplet");
  Carbon total{};
  for (const auto& c : spec.chiplets) {
    GREENHPC_REQUIRE(c.count >= 1, "chiplet count must be >= 1");
    total += model.logic_die(c.area_mm2, c.node) * static_cast<double>(c.count);
  }
  total += model.packaging(spec.total_die_count(), spec.substrate_cm2, spec.interposer_cm2);
  if (spec.hbm_gb > 0.0) total += model.dram(spec.hbm_gb, DramType::HBM2e);
  total += kilograms_co2(spec.module_overhead_kg);
  return total;
}

Carbon memory_embodied(const ActModel& model, double gigabytes, DramType type) {
  return model.dram(gigabytes, type);
}

Carbon storage_embodied(const ActModel& model, double gigabytes, StorageType type) {
  return model.storage(gigabytes, type);
}

ProcessorSpec nvidia_a100_sxm() {
  ProcessorSpec s;
  s.name = "NVIDIA A100-40GB SXM";
  s.chiplets = {{826.0, ProcessNode::N7, 1}};
  s.substrate_cm2 = 55.0;   // SXM4 board-level substrate share
  s.interposer_cm2 = 14.0;  // CoWoS interposer under die + 6 HBM stacks
  s.hbm_gb = 40.0;
  s.module_overhead_kg = 115.0;  // SXM carrier, VRM stages, cold plate
  return s;
}

ProcessorSpec amd_epyc_7402() {
  ProcessorSpec s;
  s.name = "AMD EPYC 7402";
  s.chiplets = {{74.0, ProcessNode::N7, 4},    // CCDs
                {416.0, ProcessNode::N14, 1}}; // IO die (GloFo 14nm-class)
  s.substrate_cm2 = 43.5;  // SP3: 58 x 75 mm
  return s;
}

ProcessorSpec amd_epyc_7742() {
  ProcessorSpec s;
  s.name = "AMD EPYC 7742";
  s.chiplets = {{74.0, ProcessNode::N7, 8},
                {416.0, ProcessNode::N14, 1}};
  s.substrate_cm2 = 43.5;
  return s;
}

ProcessorSpec intel_xeon_8174() {
  ProcessorSpec s;
  s.name = "Intel Xeon Platinum 8174";
  s.chiplets = {{694.0, ProcessNode::N14, 1}};  // Skylake XCC
  s.substrate_cm2 = 42.9;                       // LGA3647: 76.0 x 56.5 mm
  return s;
}

}  // namespace greenhpc::embodied
