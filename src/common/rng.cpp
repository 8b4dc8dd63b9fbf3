#include "common/rng.hpp"

#include <cmath>
#include <numbers>

namespace ritm {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next() noexcept {
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

std::uint64_t Rng::uniform(std::uint64_t bound) noexcept {
  // Rejection sampling over the top of the range to avoid modulo bias.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

double Rng::uniform01() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform01();
  while (u1 <= 0.0) u1 = uniform01();
  const double u2 = uniform01();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(normal(mu, sigma));
}

double Rng::exponential(double rate) noexcept {
  double u = uniform01();
  while (u <= 0.0) u = uniform01();
  return -std::log(u) / rate;
}

bool Rng::chance(double p) noexcept { return uniform01() < p; }

Bytes Rng::bytes(std::size_t n) {
  Bytes out(n);
  std::size_t i = 0;
  while (i + 8 <= n) {
    std::uint64_t v = next();
    for (int b = 0; b < 8; ++b) out[i++] = static_cast<std::uint8_t>(v >> (8 * b));
  }
  if (i < n) {
    std::uint64_t v = next();
    while (i < n) {
      out[i++] = static_cast<std::uint8_t>(v);
      v >>= 8;
    }
  }
  return out;
}

Rng Rng::fork() noexcept { return Rng(next() ^ 0xA5A5A5A5DEADBEEFULL); }

std::size_t Rng::zipf(std::size_t n, double s) noexcept {
  // Inverse-CDF sampling over the (finite) harmonic weights. For the sizes
  // used in this repo (n <= ~50k cities) a linear scan amortizes fine because
  // callers draw via Population which caches cumulative weights; this method
  // is the simple fallback for small n.
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) total += 1.0 / std::pow(double(r + 1), s);
  double target = uniform01() * total;
  for (std::size_t r = 0; r < n; ++r) {
    target -= 1.0 / std::pow(double(r + 1), s);
    if (target <= 0.0) return r;
  }
  return n - 1;
}

}  // namespace ritm
