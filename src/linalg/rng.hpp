#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

namespace cirstag::linalg {

/// Deterministic pseudo-random source used throughout the library.
///
/// Every stochastic component (synthetic circuit generation, GNN weight
/// initialization, JL sketching, perturbation sampling) takes an explicit Rng
/// so experiments are reproducible from a single seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eedULL) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Standard normal (optionally scaled/shifted). The draw is standard and
  /// scaled here, so stddev = 0 returns `mean` (std::normal_distribution
  /// requires σ > 0) and consumes the same engine state as any other σ.
  double normal(double mean = 0.0, double stddev = 1.0) {
    const double z = std::normal_distribution<double>(0.0, 1.0)(engine_);
    return z * stddev + mean;
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t randint(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform index in [0, n).
  std::size_t index(std::size_t n) {
    return static_cast<std::size_t>(randint(0, static_cast<std::int64_t>(n) - 1));
  }

  /// +1 or -1 with equal probability (Rademacher), for JL sketching.
  double rademacher() { return randint(0, 1) == 0 ? -1.0 : 1.0; }

  /// Bernoulli trial.
  bool chance(double p) { return uniform() < p; }

  template <typename T>
  void shuffle(std::vector<T>& xs) {
    std::shuffle(xs.begin(), xs.end(), engine_);
  }

  /// k distinct indices sampled uniformly from [0, n) without replacement.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k) {
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = i;
    shuffle(all);
    all.resize(std::min(k, n));
    return all;
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace cirstag::linalg
