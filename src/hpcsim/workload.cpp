#include "hpcsim/workload.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>

#include "util/error.hpp"

namespace greenhpc::hpcsim {

WorkloadGenerator::WorkloadGenerator(WorkloadConfig config, std::uint64_t seed)
    : cfg_(config), rng_(seed ^ 0x776f726bull /* "work" */) {
  GREENHPC_REQUIRE(cfg_.job_count >= 1, "workload needs at least one job");
  GREENHPC_REQUIRE(cfg_.span.seconds() > 0.0, "workload span must be positive");
  GREENHPC_REQUIRE(cfg_.max_job_nodes >= 1, "max job nodes must be >= 1");
  GREENHPC_REQUIRE(cfg_.over_allocation_mean >= 1.0,
                   "over-allocation mean must be >= 1");
  GREENHPC_REQUIRE(cfg_.malleable_fraction >= 0.0 && cfg_.malleable_fraction <= 1.0,
                   "malleable fraction must be in [0,1]");
  GREENHPC_REQUIRE(cfg_.moldable_fraction >= 0.0 &&
                       cfg_.moldable_fraction + cfg_.malleable_fraction <= 1.0,
                   "moldable + malleable fractions must stay within [0,1]");
  GREENHPC_REQUIRE(cfg_.checkpointable_fraction >= 0.0 &&
                       cfg_.checkpointable_fraction <= 1.0,
                   "checkpointable fraction must be in [0,1]");
  GREENHPC_REQUIRE(cfg_.diurnal_amplitude >= 0.0 && cfg_.diurnal_amplitude < 1.0,
                   "diurnal amplitude must be in [0,1)");
  GREENHPC_REQUIRE(cfg_.arrival_quantum.seconds() >= 0.0,
                   "arrival quantum must be >= 0");
  GREENHPC_REQUIRE(cfg_.mpi_wait_mean >= 0.0 && cfg_.mpi_wait_mean <= 0.45,
                   "mpi wait mean must be in [0, 0.45]");
  GREENHPC_REQUIRE(cfg_.powersave_adoption >= 0.0 && cfg_.powersave_adoption <= 1.0,
                   "powersave adoption must be in [0,1]");
  GREENHPC_REQUIRE(cfg_.user_count >= 1, "user count must be >= 1");
}

Duration WorkloadGenerator::draw_submit_time() {
  // Rejection-sample against a diurnal submission intensity peaking at
  // 14:00 (users submit during working hours).
  for (;;) {
    const double t = rng_.uniform(0.0, cfg_.span.seconds());
    const double hour = std::fmod(t / 3600.0, 24.0);
    const double weight =
        1.0 + cfg_.diurnal_amplitude *
                  std::cos(2.0 * std::numbers::pi * (hour - 14.0) / 24.0);
    if (rng_.uniform() * (1.0 + cfg_.diurnal_amplitude) <= weight) {
      const double q = cfg_.arrival_quantum.seconds();
      if (q > 0.0) return seconds(std::floor(t / q) * q);
      return seconds(t);
    }
  }
}

Duration WorkloadGenerator::draw_runtime() {
  // Weibull scale from the requested mean: mean = scale * Gamma(1 + 1/k).
  const double k = cfg_.runtime_weibull_shape;
  const double scale = cfg_.runtime_mean.seconds() / std::tgamma(1.0 + 1.0 / k);
  const double r = rng_.weibull(k, scale);
  return seconds(std::clamp(r, cfg_.runtime_min.seconds(), cfg_.runtime_max.seconds()));
}

std::vector<JobSpec> WorkloadGenerator::generate() {
  std::vector<JobSpec> jobs;
  jobs.reserve(static_cast<std::size_t>(cfg_.job_count));
  for (int i = 0; i < cfg_.job_count; ++i) {
    JobSpec j;
    j.id = i + 1;
    j.user = "user" + std::to_string(rng_.uniform_int(0, cfg_.user_count - 1));
    j.project = "proj" + std::to_string(rng_.uniform_int(0, cfg_.user_count / 4));
    j.submit = draw_submit_time();

    j.nodes_used = static_cast<int>(
        std::lround(rng_.log_uniform(1.0, static_cast<double>(cfg_.max_job_nodes))));
    j.nodes_used = std::clamp(j.nodes_used, 1, cfg_.max_job_nodes);

    const bool malleable = rng_.bernoulli(cfg_.malleable_fraction);
    const bool moldable =
        !malleable && cfg_.moldable_fraction > 0.0 &&
        rng_.bernoulli(std::min(1.0, cfg_.moldable_fraction /
                                         std::max(1e-9, 1.0 - cfg_.malleable_fraction)));
    if (malleable) {
      j.kind = JobKind::Malleable;
      j.nodes_requested = j.nodes_used;
      j.min_nodes = std::max(1, j.nodes_used / 4);
      j.max_nodes = std::min(cfg_.max_job_nodes, j.nodes_used * 2);
    } else if (moldable) {
      j.kind = JobKind::Moldable;
      j.nodes_requested = j.nodes_used;
      j.min_nodes = std::max(1, j.nodes_used / 2);
      j.max_nodes = std::min(cfg_.max_job_nodes, j.nodes_used * 2);
    } else {
      j.kind = JobKind::Rigid;
      double factor = 1.0;
      if (cfg_.over_allocation_mean > 1.0) {
        factor = 1.0 + rng_.exponential(1.0 / (cfg_.over_allocation_mean - 1.0));
      }
      j.nodes_requested = std::min(
          cfg_.max_job_nodes,
          static_cast<int>(std::ceil(static_cast<double>(j.nodes_used) * factor)));
      j.nodes_requested = std::max(j.nodes_requested, j.nodes_used);
      j.min_nodes = j.nodes_requested;
      j.max_nodes = j.nodes_requested;
    }

    j.runtime = draw_runtime();
    const double wt_factor = std::max(1.0, rng_.lognormal(0.35, cfg_.walltime_factor_sigma));
    j.walltime = seconds(std::min(j.runtime.seconds() * wt_factor, 2.0 * 86400.0));
    if (j.walltime < j.runtime) j.walltime = j.runtime;

    const double draw = rng_.normal(cfg_.node_power_mean.watts(),
                                    cfg_.node_power_sigma.watts());
    j.node_power = watts(std::clamp(draw, 0.5 * cfg_.node_power_mean.watts(),
                                    cfg_.node_power_limit.watts()));

    j.power_alpha = rng_.uniform(cfg_.alpha_min, cfg_.alpha_max);
    j.scale_gamma = rng_.uniform(cfg_.gamma_min, cfg_.gamma_max);

    j.mpi_wait_fraction =
        std::clamp(rng_.uniform(0.0, 2.0 * cfg_.mpi_wait_mean), 0.0, 0.9);
    j.powersave_runtime = rng_.bernoulli(cfg_.powersave_adoption);

    j.checkpointable = rng_.bernoulli(cfg_.checkpointable_fraction);
    j.checkpoint_overhead =
        minutes(5.0 + 0.05 * static_cast<double>(j.nodes_used));

    j.validate();
    jobs.push_back(std::move(j));
  }
  std::stable_sort(jobs.begin(), jobs.end(), [](const JobSpec& a, const JobSpec& b) {
    if (a.submit != b.submit) return a.submit < b.submit;
    return a.id < b.id;
  });
  return jobs;
}

namespace {

/// SplitMix64 finalizer folded over each key field (as TraceCache's key
/// hash does).
std::uint64_t mix64(std::uint64_t h, std::uint64_t x) {
  x ^= h;
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Doubles enter by bit pattern, with -0.0 as 0.0: the key compares
/// fields with ==, so equal keys must hash equal.
std::uint64_t mix64(std::uint64_t h, double v) {
  return mix64(h, std::bit_cast<std::uint64_t>(v == 0.0 ? 0.0 : v));
}

}  // namespace

std::size_t WorkloadCache::KeyHash::operator()(const Key& k) const {
  // Every WorkloadConfig field; one left out still compares exactly, it
  // only spreads worse.
  const WorkloadConfig& c = k.config;
  std::uint64_t h = mix64(0, k.seed);
  h = mix64(h, static_cast<std::uint64_t>(c.job_count));
  h = mix64(h, c.span.seconds());
  h = mix64(h, c.diurnal_amplitude);
  h = mix64(h, c.arrival_quantum.seconds());
  h = mix64(h, static_cast<std::uint64_t>(c.max_job_nodes));
  h = mix64(h, c.runtime_weibull_shape);
  h = mix64(h, c.runtime_mean.seconds());
  h = mix64(h, c.runtime_min.seconds());
  h = mix64(h, c.runtime_max.seconds());
  h = mix64(h, c.walltime_factor_sigma);
  h = mix64(h, c.over_allocation_mean);
  h = mix64(h, c.malleable_fraction);
  h = mix64(h, c.moldable_fraction);
  h = mix64(h, c.checkpointable_fraction);
  h = mix64(h, c.node_power_mean.watts());
  h = mix64(h, c.node_power_sigma.watts());
  h = mix64(h, c.node_power_limit.watts());
  h = mix64(h, c.alpha_min);
  h = mix64(h, c.alpha_max);
  h = mix64(h, c.gamma_min);
  h = mix64(h, c.gamma_max);
  h = mix64(h, c.mpi_wait_mean);
  h = mix64(h, c.powersave_adoption);
  h = mix64(h, static_cast<std::uint64_t>(c.user_count));
  return static_cast<std::size_t>(h);
}

std::shared_ptr<const std::vector<JobSpec>> WorkloadCache::get(
    const WorkloadConfig& config, std::uint64_t seed) {
  Key key{config, seed};
  {
    std::lock_guard lock(mutex_);
    const auto it = map_.find(key);
    if (it != map_.end()) {
      ++hits_;
      return it->second;
    }
    ++misses_;
  }
  // Generate outside the lock; deterministic generation makes a raced
  // duplicate harmless — try_emplace keeps the first insertion.
  auto jobs = std::make_shared<const std::vector<JobSpec>>(
      WorkloadGenerator(config, seed).generate());
  std::lock_guard lock(mutex_);
  return map_.try_emplace(std::move(key), std::move(jobs)).first->second;
}

std::size_t WorkloadCache::size() const {
  std::lock_guard lock(mutex_);
  return map_.size();
}

std::size_t WorkloadCache::hits() const {
  std::lock_guard lock(mutex_);
  return hits_;
}

std::size_t WorkloadCache::misses() const {
  std::lock_guard lock(mutex_);
  return misses_;
}

void WorkloadCache::clear() {
  std::lock_guard lock(mutex_);
  map_.clear();
  hits_ = 0;
  misses_ = 0;
}

WorkloadCache& WorkloadCache::global() {
  static WorkloadCache cache;
  return cache;
}

}  // namespace greenhpc::hpcsim
