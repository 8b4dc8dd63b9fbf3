// Deterministic random-number generation for the simulator and the workload
// generators. Every experiment binary seeds one Rng; a given seed reproduces
// an entire evaluation bit-for-bit (DESIGN.md §3.4).
//
// The engine is xoshiro256** seeded through splitmix64 — fast, tiny state,
// and (unlike std::mt19937 distributions) the distribution helpers here are
// implemented in-repo so results are identical across standard libraries.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"

namespace ritm {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept;

  /// Uniform 64-bit value.
  std::uint64_t next() noexcept;

  /// Uniform in [0, bound) without modulo bias. bound must be > 0.
  std::uint64_t uniform(std::uint64_t bound) noexcept;

  /// Uniform double in [0, 1).
  double uniform01() noexcept;

  /// Standard normal via Box–Muller (cached second sample).
  double normal() noexcept;
  double normal(double mean, double stddev) noexcept;

  /// Log-normal with given parameters of the underlying normal.
  double lognormal(double mu, double sigma) noexcept;

  /// Exponential with given rate (mean 1/rate).
  double exponential(double rate) noexcept;

  /// Bernoulli trial.
  bool chance(double p) noexcept;

  /// n uniform random bytes.
  Bytes bytes(std::size_t n);

  /// Derives an independent child stream (for per-node RNGs).
  Rng fork() noexcept;

  /// Zipf-like sample in [0, n): rank r chosen with weight 1/(r+1)^s.
  /// Used by the population model (city sizes are Zipf-distributed).
  std::size_t zipf(std::size_t n, double s) noexcept;

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace ritm
