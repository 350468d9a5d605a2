#include "util/rng.h"

#include <cmath>

namespace flowdiff {

double Rng::uniform() {
  return std::uniform_real_distribution<double>{0.0, 1.0}(engine_);
}

double Rng::uniform(double lo, double hi) {
  return std::uniform_real_distribution<double>{lo, hi}(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  return std::uniform_int_distribution<std::int64_t>{lo, hi}(engine_);
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return std::bernoulli_distribution{p}(engine_);
}

double Rng::exponential(double mean) {
  return std::exponential_distribution<double>{1.0 / mean}(engine_);
}

std::int64_t Rng::poisson(double mean) {
  return std::poisson_distribution<std::int64_t>{mean}(engine_);
}

double Rng::lognormal_mean_sd(double mean, double sd) {
  // Convert the distribution's mean m and standard deviation s into the
  // (mu, sigma) of the underlying normal:
  //   sigma^2 = ln(1 + s^2/m^2),  mu = ln(m) - sigma^2/2.
  const double variance_ratio = (sd * sd) / (mean * mean);
  const double sigma2 = std::log1p(variance_ratio);
  const double mu = std::log(mean) - sigma2 / 2.0;
  return std::lognormal_distribution<double>{mu, std::sqrt(sigma2)}(engine_);
}

double Rng::normal(double mean, double sd) {
  // A standard normal scaled by hand: the distribution's own parameters
  // require sd > 0, and callers pass sd == 0 for "no jitter". libstdc++
  // computes exactly z * sd + mean, so every sd > 0 draw is unchanged, and
  // sd == 0 consumes the same engine draws and returns the mean.
  const double z = std::normal_distribution<double>{}(engine_);
  return z * sd + mean;
}

Rng Rng::fork() {
  // Two draws decorrelate the child from the next values of the parent.
  const std::uint64_t a = engine_();
  const std::uint64_t b = engine_();
  return Rng{a ^ (b << 1) ^ 0x9e3779b97f4a7c15ull};
}

}  // namespace flowdiff
