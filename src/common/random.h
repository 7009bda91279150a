// Deterministic, seedable pseudo-random number generation. All stochastic
// behaviour in GridQP (data generation, per-tuple perturbation noise,
// weighted routing) draws from Rng instances so that experiments are
// reproducible run-to-run.

#ifndef GRIDQP_COMMON_RANDOM_H_
#define GRIDQP_COMMON_RANDOM_H_

#include <cassert>
#include <cstdint>

namespace gqp {

/// \brief xoshiro256** PRNG with splitmix64 seeding.
///
/// Deliberately not std::mt19937: we want a fixed, documented algorithm so
/// simulated experiments reproduce bit-for-bit across standard libraries.
class Rng {
 public:
  /// Seeds the generator. Equal seeds yield equal streams.
  explicit Rng(uint64_t seed = 42);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform in [0, n). Precondition: n > 0. Defined inline so that at a
  /// call site with a constant bound the rejection limit folds at compile
  /// time and `% n` becomes a multiply; the draws are the same either way.
  uint64_t NextBelow(uint64_t n) {
    assert(n > 0);
    // Rejection sampling to remove modulo bias.
    const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
    uint64_t v;
    do {
      v = Next();
    } while (v >= limit);
    return v % n;
  }

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Standard normal variate (Box–Muller, deterministic).
  double NextGaussian();

  /// Normal variate with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev);

  /// Normal variate clamped to [lo, hi] (the paper's Fig. 5 perturbation
  /// model: per-tuple cost factors normally distributed with a stable mean,
  /// truncated to an interval).
  double NextTruncatedGaussian(double mean, double stddev, double lo,
                               double hi);

  /// Bernoulli trial with probability p of returning true.
  bool NextBool(double p);

  /// Derives an independent generator (for per-component streams).
  Rng Fork();

 private:
  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace gqp

#endif  // GRIDQP_COMMON_RANDOM_H_
