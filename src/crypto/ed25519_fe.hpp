// Arithmetic in GF(2^255 - 19), the base field of Curve25519/edwards25519.
//
// Representation: five 51-bit limbs in 64-bit words (radix 2^51), the classic
// "donna-64" layout; products accumulate in unsigned __int128. Products and
// differences come out "loosely reduced" (limbs just above 2^51), sums of up
// to three such values below 2^53; to_bytes() performs the full canonical
// reduction.
//
// Every operation here runs in time independent of the values: inversion
// and the square-root power use fixed addition chains, and fe_cmov selects
// with masks. Variable-time code lives only on the verify side of
// ed25519_ge.hpp, which handles public inputs.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"

namespace ritm::crypto::detail {

struct Fe {
  std::uint64_t v[5];
};

constexpr Fe fe_zero() noexcept { return Fe{{0, 0, 0, 0, 0}}; }
constexpr Fe fe_one() noexcept { return Fe{{1, 0, 0, 0, 0}}; }

Fe fe_from_u64(std::uint64_t x) noexcept;

/// Little-endian 32 bytes -> field element (high bit of byte 31 ignored,
/// per RFC 8032 point decoding).
Fe fe_from_bytes(const std::uint8_t* in) noexcept;

/// Canonical little-endian encoding (fully reduced mod p).
void fe_to_bytes(std::uint8_t* out, const Fe& a) noexcept;

// The five hot operations are defined inline below so the point formulas
// in ed25519_ge.cpp compile to straight-line code without calls.
inline Fe fe_add(const Fe& a, const Fe& b) noexcept;
inline Fe fe_sub(const Fe& a, const Fe& b) noexcept;
inline Fe fe_neg(const Fe& a) noexcept;
inline Fe fe_mul(const Fe& a, const Fe& b) noexcept;
inline Fe fe_sq(const Fe& a) noexcept;

/// a^-1 via Fermat (a^(p-2)), 254 squarings and 11 multiplications.
/// Returns 0 for 0.
Fe fe_invert(const Fe& a) noexcept;

/// a^((p-5)/8), used for square roots during point decompression.
Fe fe_pow22523(const Fe& a) noexcept;

/// f = b ? g : f, without a branch on b (b must be 0 or 1).
void fe_cmov(Fe& f, const Fe& g, unsigned b) noexcept;

bool fe_is_zero(const Fe& a) noexcept;
/// Least significant bit of the canonical encoding ("sign" of x).
bool fe_is_negative(const Fe& a) noexcept;
bool fe_equal(const Fe& a, const Fe& b) noexcept;

/// sqrt(-1) = 2^((p-1)/4), computed once.
const Fe& fe_sqrtm1() noexcept;
/// Edwards curve constant d = -121665/121666.
const Fe& fe_d() noexcept;
/// 2*d.
const Fe& fe_2d() noexcept;

namespace fe_impl {
using u64 = std::uint64_t;
__extension__ using u128 = unsigned __int128;  // NOLINT: GCC/Clang extension, required width

inline constexpr u64 kMask51 = (u64(1) << 51) - 1;

// Carry-propagates so that all limbs are < 2^51 (top carry folds via *19).
inline Fe carry(const Fe& in) noexcept {
  u64 t0 = in.v[0], t1 = in.v[1], t2 = in.v[2], t3 = in.v[3], t4 = in.v[4];
  u64 c;
  c = t0 >> 51; t0 &= kMask51; t1 += c;
  c = t1 >> 51; t1 &= kMask51; t2 += c;
  c = t2 >> 51; t2 &= kMask51; t3 += c;
  c = t3 >> 51; t3 &= kMask51; t4 += c;
  c = t4 >> 51; t4 &= kMask51; t0 += 19 * c;
  c = t0 >> 51; t0 &= kMask51; t1 += c;
  return Fe{{t0, t1, t2, t3, t4}};
}

// Folds five 128-bit column sums back into reduced limbs (below 2^51 + 2^11);
// the carry out of the top limb wraps around times 19 (2^255 = 19 mod p).
// Two carry chains run side by side, 0->1->2->3->4 and 3->4->0->1, which
// shortens the dependency path the squaring ladders wait on.
inline Fe reduce_wide(u128 r0, u128 r1, u128 r2, u128 r3, u128 r4) noexcept {
  r1 += u64(r0 >> 51);
  r4 += u64(r3 >> 51);
  u64 t0 = u64(r0) & kMask51;
  u64 t3 = u64(r3) & kMask51;
  r2 += u64(r1 >> 51);
  const u64 t1 = u64(r1) & kMask51;
  t0 += 19 * u64(r4 >> 51);
  const u64 t4 = u64(r4) & kMask51;
  t3 += u64(r2 >> 51);
  const u64 t2 = u64(r2) & kMask51;
  return Fe{{t0 & kMask51, t1 + (t0 >> 51), t2, t3 & kMask51, t4 + (t3 >> 51)}};
}
}  // namespace fe_impl

inline Fe fe_add(const Fe& a, const Fe& b) noexcept {
  // No carry. Products and differences have limbs below 2^51 + 2^11, so a
  // sum of up to three of them stays below 2^53, which fe_mul, fe_sq,
  // fe_sub (as either operand) and fe_to_bytes all accept.
  Fe r;
  for (int i = 0; i < 5; ++i) r.v[i] = a.v[i] + b.v[i];
  return r;
}

inline Fe fe_sub(const Fe& a, const Fe& b) noexcept {
  // Add 4p (in limb form) before subtracting so limbs never underflow for
  // any b with limbs below 2^53, then carry back to reduced form along two
  // chains side by side (0->1->2->3 and 3->4->0), as in reduce_wide.
  using fe_impl::kMask51;
  using fe_impl::u64;
  constexpr u64 kFourP0 = 0x1FFFFFFFFFFFB4;  // 4*(2^51-19)
  constexpr u64 kFourPi = 0x1FFFFFFFFFFFFC;  // 4*(2^51-1)
  u64 t0 = a.v[0] + kFourP0 - b.v[0];
  u64 t1 = a.v[1] + kFourPi - b.v[1];
  u64 t2 = a.v[2] + kFourPi - b.v[2];
  u64 t3 = a.v[3] + kFourPi - b.v[3];
  u64 t4 = a.v[4] + kFourPi - b.v[4];
  t1 += t0 >> 51;
  t4 += t3 >> 51;
  t0 &= kMask51;
  t3 &= kMask51;
  t2 += t1 >> 51;
  t0 += 19 * (t4 >> 51);
  t1 &= kMask51;
  t4 &= kMask51;
  t3 += t2 >> 51;
  t2 &= kMask51;
  return Fe{{t0, t1, t2, t3, t4}};
}

inline Fe fe_neg(const Fe& a) noexcept { return fe_sub(fe_zero(), a); }

inline Fe fe_mul(const Fe& a, const Fe& b) noexcept {
  using fe_impl::u128;
  using fe_impl::u64;
  const u64 a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const u64 b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3], b4 = b.v[4];
  const u64 b1_19 = b1 * 19, b2_19 = b2 * 19, b3_19 = b3 * 19, b4_19 = b4 * 19;

  const u128 r0 = u128(a0) * b0 + u128(a1) * b4_19 + u128(a2) * b3_19 +
                  u128(a3) * b2_19 + u128(a4) * b1_19;
  const u128 r1 = u128(a0) * b1 + u128(a1) * b0 + u128(a2) * b4_19 +
                  u128(a3) * b3_19 + u128(a4) * b2_19;
  const u128 r2 = u128(a0) * b2 + u128(a1) * b1 + u128(a2) * b0 +
                  u128(a3) * b4_19 + u128(a4) * b3_19;
  const u128 r3 = u128(a0) * b3 + u128(a1) * b2 + u128(a2) * b1 +
                  u128(a3) * b0 + u128(a4) * b4_19;
  const u128 r4 = u128(a0) * b4 + u128(a1) * b3 + u128(a2) * b2 +
                  u128(a3) * b1 + u128(a4) * b0;
  return fe_impl::reduce_wide(r0, r1, r2, r3, r4);
}

inline Fe fe_sq(const Fe& a) noexcept {
  // Fifteen products instead of fe_mul's twenty-five: each cross term
  // a_i*a_j (i != j) appears twice, so it is computed once with a doubled
  // factor.
  using fe_impl::u128;
  using fe_impl::u64;
  const u64 a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const u64 d0 = a0 * 2, d1 = a1 * 2;
  const u64 d2_19 = a2 * 2 * 19, a4_19 = a4 * 19, d4_19 = a4_19 * 2;

  const u128 r0 = u128(a0) * a0 + u128(d4_19) * a1 + u128(d2_19) * a3;
  const u128 r1 = u128(d0) * a1 + u128(d4_19) * a2 + u128(a3) * (a3 * 19);
  const u128 r2 = u128(d0) * a2 + u128(a1) * a1 + u128(d4_19) * a3;
  const u128 r3 = u128(d0) * a3 + u128(d1) * a2 + u128(a4) * a4_19;
  const u128 r4 = u128(d0) * a4 + u128(d1) * a3 + u128(a2) * a2;
  return fe_impl::reduce_wide(r0, r1, r2, r3, r4);
}

}  // namespace ritm::crypto::detail
