#pragma once
// Deterministic random number generation.
//
// greenhpc experiments must be bit-reproducible across platforms and standard
// library versions, so we implement both the generator (xoshiro256**) and the
// distributions ourselves instead of relying on <random>'s unspecified
// distribution algorithms.

#include <array>
#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace greenhpc::util {

/// SplitMix64's state increment: each draw first adds it to the state.
inline constexpr std::uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ull;

/// SplitMix64 — used to seed xoshiro and as a cheap stateless mixer.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference
/// implementation re-expressed in C++). High-quality, tiny, and — unlike
/// std::mt19937 + std::normal_distribution — gives identical streams on
/// every platform.
class Rng {
 public:
  /// Seeds the four-word state from a single seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Next raw 64-bit draw.
  [[nodiscard]] std::uint64_t next_u64();

  /// Uniform in [0, 1).
  [[nodiscard]] double uniform();
  /// Uniform in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Standard normal via Box–Muller (cached second deviate).
  [[nodiscard]] double normal();
  /// Normal with the given mean and standard deviation (sigma >= 0).
  [[nodiscard]] double normal(double mean, double sigma);
  /// Lognormal: exp(Normal(mu, sigma)).
  [[nodiscard]] double lognormal(double mu, double sigma);
  /// Exponential with the given rate lambda > 0 (mean 1/lambda).
  [[nodiscard]] double exponential(double lambda);
  /// Weibull with shape k > 0 and scale lambda > 0.
  [[nodiscard]] double weibull(double shape, double scale);
  /// Poisson-distributed count with mean > 0 (Knuth for small means,
  /// normal approximation above 64 to stay O(1)).
  [[nodiscard]] std::int64_t poisson(double mean);
  /// Bernoulli draw: true with probability p in [0, 1].
  [[nodiscard]] bool bernoulli(double p);
  /// Draw an index in [0, weights.size()) with probability proportional to
  /// weights[i]. Requires at least one strictly positive weight.
  [[nodiscard]] std::size_t categorical(const std::vector<double>& weights);
  /// Log-uniform (uniform in log space) in [lo, hi], both > 0.
  [[nodiscard]] double log_uniform(double lo, double hi);

 private:
  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace greenhpc::util
