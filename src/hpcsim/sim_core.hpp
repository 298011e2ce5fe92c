#pragma once
// Arena-allocated structure-of-arrays core of the simulator.
//
// All per-job state the tick hot path touches lives here as parallel
// arrays indexed by slot: the static columns flattened from JobSpec once
// at construction (so the integrate kernel never chases the shared spec
// pointers), the dynamic columns the engine integrates every tick, the
// pow() caches, and the span-kernel scratch columns. Everything is carved
// out of ONE allocation, grouped by element width so each column is
// naturally aligned and consecutive columns stay cache-adjacent.
//
// The columns hold exactly the same double values the former
// array-of-structs layout held (flattening JobSpec::effective_node_power
// etc. is value-preserving), so the layout change cannot move a single
// bit of any simulation result — the determinism contract the golden
// digest fixtures pin down.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hpcsim/job.hpp"
#include "hpcsim/policy.hpp"

namespace greenhpc::hpcsim {

struct SimCore {
  // --- static columns (written once at construction) ---
  double* eff_power_w = nullptr;      ///< effective_node_power().watts()
  double* runtime_s = nullptr;
  double* walltime_s = nullptr;
  double* submit_s = nullptr;
  double* ckpt_overhead_s = nullptr;
  double* power_alpha = nullptr;
  double* scale_gamma = nullptr;
  std::int32_t* nodes_requested = nullptr;
  std::int32_t* nodes_used = nullptr;
  std::int32_t* min_nodes = nullptr;
  std::int32_t* max_nodes = nullptr;
  JobKind* kind = nullptr;
  std::uint8_t* checkpointable = nullptr;

  // --- dynamic columns (the integrate kernel's working set) ---
  double* progress = nullptr;
  double* wall_used_s = nullptr;
  double* energy_j = nullptr;
  double* carbon_g = nullptr;
  double* start_s = nullptr;
  double* last_checkpoint_s = nullptr;
  std::int32_t* alloc_nodes = nullptr;

  // --- pow() caches (cap_key == 1.0 / scale_key == -1 mean "unset";
  //     the defaults make the uncapped, natural-size case exact) ---
  double* cap_key = nullptr;
  double* cap_val = nullptr;
  double* scale_val = nullptr;
  std::int32_t* scale_key = nullptr;

  // --- span-kernel scratch: per-running-job constants and local
  //     accumulators, compacted to the running set (sp_slot maps a
  //     scratch row back to its slot) ---
  double* sp_ej = nullptr;    ///< energy per full tick (J)
  double* sp_dj = nullptr;    ///< sp_ej / 3.6e6 (carbon integrand)
  double* sp_rp = nullptr;    ///< progress per full tick
  double* sp_prog = nullptr;  ///< local progress accumulator
  double* sp_wall = nullptr;  ///< local wall-clock accumulator (s)
  double* sp_wl = nullptr;    ///< walltime limit (s)
  double* sp_en = nullptr;    ///< local energy accumulator (J)
  double* sp_cb = nullptr;    ///< local carbon accumulator (g)
  std::int32_t* sp_slot = nullptr;

  [[nodiscard]] std::size_t size() const { return n_; }

  /// Allocate every column for n slots out of one arena block and
  /// zero/default-initialize the dynamic columns and caches.
  void init(std::size_t n) {
    n_ = n;
    constexpr std::size_t kDoubleCols = 24;
    constexpr std::size_t kInt32Cols = 7;
    const std::size_t bytes = n * (kDoubleCols * sizeof(double) +
                                   kInt32Cols * sizeof(std::int32_t) +
                                   sizeof(JobKind) + sizeof(std::uint8_t));
    arena_.assign(bytes, std::byte{0});
    std::byte* p = arena_.data();
    const auto take_d = [&](double*& col) {
      col = reinterpret_cast<double*>(p);
      p += n * sizeof(double);
    };
    const auto take_i = [&](std::int32_t*& col) {
      col = reinterpret_cast<std::int32_t*>(p);
      p += n * sizeof(std::int32_t);
    };
    // Widest first so every column stays naturally aligned.
    take_d(eff_power_w);
    take_d(runtime_s);
    take_d(walltime_s);
    take_d(submit_s);
    take_d(ckpt_overhead_s);
    take_d(power_alpha);
    take_d(scale_gamma);
    take_d(progress);
    take_d(wall_used_s);
    take_d(energy_j);
    take_d(carbon_g);
    take_d(start_s);
    take_d(last_checkpoint_s);
    take_d(cap_key);
    take_d(cap_val);
    take_d(scale_val);
    take_d(sp_ej);
    take_d(sp_dj);
    take_d(sp_rp);
    take_d(sp_prog);
    take_d(sp_wall);
    take_d(sp_wl);
    take_d(sp_en);
    take_d(sp_cb);
    take_i(nodes_requested);
    take_i(nodes_used);
    take_i(min_nodes);
    take_i(max_nodes);
    take_i(alloc_nodes);
    take_i(scale_key);
    take_i(sp_slot);
    kind = reinterpret_cast<JobKind*>(p);
    p += n * sizeof(JobKind);
    checkpointable = reinterpret_cast<std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      cap_key[i] = 1.0;
      cap_val[i] = 1.0;
      scale_val[i] = 1.0;
      scale_key[i] = -1;
    }
  }

  /// Flatten one job's static description into row i.
  void fill_static(std::size_t i, const JobSpec& spec) {
    eff_power_w[i] = spec.effective_node_power().watts();
    runtime_s[i] = spec.runtime.seconds();
    walltime_s[i] = spec.walltime.seconds();
    submit_s[i] = spec.submit.seconds();
    ckpt_overhead_s[i] = spec.checkpoint_overhead.seconds();
    power_alpha[i] = spec.power_alpha;
    scale_gamma[i] = spec.scale_gamma;
    nodes_requested[i] = spec.nodes_requested;
    nodes_used[i] = spec.nodes_used;
    min_nodes[i] = spec.min_nodes;
    max_nodes[i] = spec.max_nodes;
    kind[i] = spec.kind;
    checkpointable[i] = spec.checkpointable ? 1 : 0;
  }

  /// The policy-facing read-only view of the columns.
  [[nodiscard]] JobTable table() const {
    const std::size_t n = n_;
    return JobTable{.eff_power_w = {eff_power_w, n},
                    .runtime_s = {runtime_s, n},
                    .walltime_s = {walltime_s, n},
                    .submit_s = {submit_s, n},
                    .ckpt_overhead_s = {ckpt_overhead_s, n},
                    .nodes_requested = {nodes_requested, n},
                    .nodes_used = {nodes_used, n},
                    .min_nodes = {min_nodes, n},
                    .max_nodes = {max_nodes, n},
                    .kind = {kind, n},
                    .checkpointable = {checkpointable, n},
                    .progress = {progress, n},
                    .wall_used_s = {wall_used_s, n},
                    .start_s = {start_s, n},
                    .last_checkpoint_s = {last_checkpoint_s, n},
                    .alloc_nodes = {alloc_nodes, n}};
  }

 private:
  std::vector<std::byte> arena_;
  std::size_t n_ = 0;
};

}  // namespace greenhpc::hpcsim
