#include "util/rng.hpp"

#include <cmath>
#include <numbers>

namespace greenhpc::util {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += kSplitMix64Gamma);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {
[[nodiscard]] constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 top bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  GREENHPC_REQUIRE(lo <= hi, "uniform bounds inverted");
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  GREENHPC_REQUIRE(lo <= hi, "uniform_int bounds inverted");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = std::uint64_t(-1) - std::uint64_t(-1) % span;
  std::uint64_t draw = next_u64();
  while (draw >= limit) draw = next_u64();
  return lo + static_cast<std::int64_t>(draw % span);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller; u1 in (0,1] to avoid log(0).
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double sigma) {
  GREENHPC_REQUIRE(sigma >= 0.0, "normal sigma must be >= 0");
  return mean + sigma * normal();
}

double Rng::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

double Rng::exponential(double lambda) {
  GREENHPC_REQUIRE(lambda > 0.0, "exponential rate must be > 0");
  return -std::log(1.0 - uniform()) / lambda;
}

double Rng::weibull(double shape, double scale) {
  GREENHPC_REQUIRE(shape > 0.0 && scale > 0.0, "weibull parameters must be > 0");
  return scale * std::pow(-std::log(1.0 - uniform()), 1.0 / shape);
}

std::int64_t Rng::poisson(double mean) {
  GREENHPC_REQUIRE(mean > 0.0, "poisson mean must be > 0");
  if (mean > 64.0) {
    // Normal approximation with continuity correction keeps this O(1) for
    // the large arrival batches used by workload generators.
    const double draw = normal(mean, std::sqrt(mean));
    return draw < 0.0 ? 0 : static_cast<std::int64_t>(draw + 0.5);
  }
  const double limit = std::exp(-mean);
  std::int64_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= uniform();
  } while (p > limit);
  return k - 1;
}

bool Rng::bernoulli(double p) {
  GREENHPC_REQUIRE(p >= 0.0 && p <= 1.0, "bernoulli p must be in [0,1]");
  return uniform() < p;
}

std::size_t Rng::categorical(const std::vector<double>& weights) {
  GREENHPC_REQUIRE(!weights.empty(), "categorical requires weights");
  double total = 0.0;
  for (double w : weights) {
    GREENHPC_REQUIRE(w >= 0.0, "categorical weights must be >= 0");
    total += w;
  }
  GREENHPC_REQUIRE(total > 0.0, "categorical requires a positive weight");
  double draw = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    draw -= weights[i];
    if (draw < 0.0) return i;
  }
  return weights.size() - 1;  // numerical edge: fall into the last bucket
}

double Rng::log_uniform(double lo, double hi) {
  GREENHPC_REQUIRE(lo > 0.0 && hi >= lo, "log_uniform requires 0 < lo <= hi");
  return std::exp(uniform(std::log(lo), std::log(hi)));
}

}  // namespace greenhpc::util
