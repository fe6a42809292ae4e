#ifndef BIOPERA_COMMON_RNG_H_
#define BIOPERA_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace biopera {

/// Deterministic pseudo-random number generator (xoshiro256**), seeded via
/// SplitMix64. All randomness in the library flows through explicitly
/// seeded Rng instances so that experiments and tests are reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform in [0, n). n must be > 0.
  uint64_t NextUint64(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Exponential with the given mean (> 0).
  double Exponential(double mean);

  /// Standard normal via Box-Muller.
  double Normal(double mean, double stddev);

  /// Gamma(shape k, scale theta) via Marsaglia-Tsang. k > 0, theta > 0.
  double Gamma(double shape, double scale);

  /// Samples an index according to non-negative `weights` (at least one
  /// weight must be positive).
  size_t Discrete(const std::vector<double>& weights);

  /// Forks a child generator whose stream is independent of (but fully
  /// determined by) this one. Useful to give each simulated node its own
  /// stream so adding nodes does not perturb unrelated randomness.
  Rng Fork();

 private:
  uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0;
};

}  // namespace biopera

#endif  // BIOPERA_COMMON_RNG_H_
