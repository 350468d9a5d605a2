// Deterministic random-number generation for simulations.
//
// Every stochastic component takes an explicit Rng so experiments are
// reproducible from a single seed and independent components can be given
// decorrelated streams (via fork()).
#pragma once

#include <cstdint>
#include <random>

#include "util/time.h"

namespace flowdiff {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform in [0, 1).
  double uniform();

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// True with probability p.
  bool bernoulli(double p);

  /// Exponential with the given mean.
  double exponential(double mean);

  /// Poisson-distributed count with the given mean.
  std::int64_t poisson(double mean);

  /// Lognormal parameterized by the *target* mean and standard deviation of
  /// the distribution itself (not of the underlying normal), as used by the
  /// Benson et al. ON/OFF traffic model in the paper's scalability study.
  double lognormal_mean_sd(double mean, double sd);

  /// Normal with the given mean and standard deviation; sd == 0 returns
  /// `mean` and advances the stream exactly as any other sd would.
  double normal(double mean, double sd);

  /// Derives an independent child generator; deterministic given this
  /// generator's state.
  Rng fork();

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace flowdiff
