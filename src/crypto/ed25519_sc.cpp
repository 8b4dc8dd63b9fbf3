#include "crypto/ed25519_sc.hpp"

#include <cstddef>

namespace ritm::crypto::detail {

namespace {
using u64 = std::uint64_t;
__extension__ using u128 = unsigned __int128;  // NOLINT: GCC/Clang extension, required width

// L as 64-bit little-endian words, zero-extended to five.
constexpr u64 kL[5] = {0x5812631A5CF5D3EDULL, 0x14DEF9DEA2F79CD6ULL,
                       0x0000000000000000ULL, 0x1000000000000000ULL, 0};

// Barrett constant mu = floor(2^512 / L), a 260-bit value.
constexpr u64 kMu[5] = {0xED9CE5A30A2C131BULL, 0x2106215D086329A7ULL,
                        0xFFFFFFFFFFFFFFEBULL, 0xFFFFFFFFFFFFFFFFULL,
                        0x000000000000000FULL};

template <std::size_t N>
void load_words(u64 (&out)[N], const std::uint8_t* in, std::size_t n) noexcept {
  for (auto& w : out) w = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out[i / 8] |= u64(in[i]) << (8 * (i % 8));
  }
}

// r -= L if r >= L, selected with a mask rather than a branch.
void sub_l_if_ge(u64 (&r)[5]) noexcept {
  u64 t[5];
  u64 borrow = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    const u128 d = u128(r[i]) - kL[i] - borrow;
    t[i] = u64(d);
    borrow = u64(d >> 64) & 1;
  }
  const u64 keep_t = borrow - 1;  // all ones iff no borrow, i.e. r >= L
  for (std::size_t i = 0; i < 5; ++i) {
    r[i] = (t[i] & keep_t) | (r[i] & ~keep_t);
  }
}

// x mod L for any x < 2^512, by Barrett reduction with base 2^64 (HAC
// 14.42): q = floor(floor(x / 2^192) * mu / 2^320). In general q undershoots
// floor(x / L) by up to 2; here by at most 1, because x / L exceeds the
// unfloored estimate by less than frac(2^512 / L) + 2^-60 = 0.22..., so
// r = x - q*L lies in [0, 2L) and one masked subtraction finishes.
// Every loop has a fixed trip count, so the time does not depend on x.
Scalar mod_l(const u64 (&x)[8]) noexcept {
  u64 prod[10] = {};  // (x >> 192) * mu
  for (std::size_t i = 0; i < 5; ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < 5; ++j) {
      const u128 cur = u128(x[3 + i]) * kMu[j] + prod[i + j] + carry;
      prod[i + j] = u64(cur);
      carry = u64(cur >> 64);
    }
    prod[i + 5] = carry;
  }
  const u64* q = prod + 5;

  u64 ql[5] = {};  // (q * L) mod 2^320
  for (std::size_t i = 0; i < 5; ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; i + j < 5; ++j) {
      const u128 cur = u128(q[i]) * kL[j] + ql[i + j] + carry;
      ql[i + j] = u64(cur);
      carry = u64(cur >> 64);
    }
  }

  u64 r[5];
  u64 borrow = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    const u128 d = u128(x[i]) - ql[i] - borrow;
    r[i] = u64(d);
    borrow = u64(d >> 64) & 1;
  }
  sub_l_if_ge(r);

  Scalar out{};
  for (std::size_t i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(r[i / 8] >> (8 * (i % 8)));
  }
  return out;
}
}  // namespace

Scalar sc_reduce64(const std::array<std::uint8_t, 64>& in) noexcept {
  u64 x[8];
  load_words(x, in.data(), 64);
  return mod_l(x);
}

Scalar sc_reduce32(const Scalar& in) noexcept {
  u64 x[8];
  load_words(x, in.data(), 32);
  return mod_l(x);
}

Scalar sc_muladd(const Scalar& a, const Scalar& b, const Scalar& c) noexcept {
  u64 aw[4], bw[4], x[8];
  load_words(aw, a.data(), 32);
  load_words(bw, b.data(), 32);
  load_words(x, c.data(), 32);
  // x = c + a*b, schoolbook; a*b + c < 2^512 so nothing carries out.
  for (std::size_t i = 0; i < 4; ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      const u128 cur = u128(aw[i]) * bw[j] + x[i + j] + carry;
      x[i + j] = u64(cur);
      carry = u64(cur >> 64);
    }
    for (std::size_t k = i + 4; k < 8; ++k) {
      const u128 cur = u128(x[k]) + carry;
      x[k] = u64(cur);
      carry = u64(cur >> 64);
    }
  }
  return mod_l(x);
}

bool sc_is_canonical(const Scalar& s) noexcept {
  u64 w[4];
  load_words(w, s.data(), 32);
  for (std::size_t i = 4; i-- > 0;) {
    if (w[i] != kL[i]) return w[i] < kL[i];
  }
  return false;  // s == L
}

}  // namespace ritm::crypto::detail
