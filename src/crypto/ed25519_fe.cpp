#include "crypto/ed25519_fe.hpp"

namespace ritm::crypto::detail {

namespace {
using fe_impl::carry;
using fe_impl::kMask51;
using fe_impl::u64;
}  // namespace

Fe fe_from_u64(std::uint64_t x) noexcept {
  return carry(Fe{{x, 0, 0, 0, 0}});
}

Fe fe_from_bytes(const std::uint8_t* in) noexcept {
  auto load64 = [&](int off) {
    u64 v = 0;
    for (int i = 7; i >= 0; --i) v = v << 8 | in[off + i];
    return v;
  };
  Fe h;
  h.v[0] = load64(0) & kMask51;
  h.v[1] = (load64(6) >> 3) & kMask51;
  h.v[2] = (load64(12) >> 6) & kMask51;
  h.v[3] = (load64(19) >> 1) & kMask51;
  h.v[4] = (load64(24) >> 12) & kMask51;
  return h;
}

void fe_to_bytes(std::uint8_t* out, const Fe& a) noexcept {
  Fe t = carry(carry(a));
  // Compute q = 1 iff t >= p, then add 19*q and drop bit 255 — this maps
  // values in [p, 2^255) back to [0, 2^255-19) canonically.
  u64 q = (t.v[0] + 19) >> 51;
  q = (t.v[1] + q) >> 51;
  q = (t.v[2] + q) >> 51;
  q = (t.v[3] + q) >> 51;
  q = (t.v[4] + q) >> 51;
  t.v[0] += 19 * q;
  u64 c;
  c = t.v[0] >> 51; t.v[0] &= kMask51; t.v[1] += c;
  c = t.v[1] >> 51; t.v[1] &= kMask51; t.v[2] += c;
  c = t.v[2] >> 51; t.v[2] &= kMask51; t.v[3] += c;
  c = t.v[3] >> 51; t.v[3] &= kMask51; t.v[4] += c;
  t.v[4] &= kMask51;

  const u64 w0 = t.v[0] | (t.v[1] << 51);
  const u64 w1 = (t.v[1] >> 13) | (t.v[2] << 38);
  const u64 w2 = (t.v[2] >> 26) | (t.v[3] << 25);
  const u64 w3 = (t.v[3] >> 39) | (t.v[4] << 12);
  const u64 words[4] = {w0, w1, w2, w3};
  for (int i = 0; i < 4; ++i) {
    for (int b = 0; b < 8; ++b) {
      out[8 * i + b] = static_cast<std::uint8_t>(words[i] >> (8 * b));
    }
  }
}

namespace {
// a^(2^n) by n squarings.
Fe fe_sq_n(Fe a, int n) noexcept {
  for (int i = 0; i < n; ++i) a = fe_sq(a);
  return a;
}

// The shared prefix of the inversion and square-root chains (ref10's
// pow225521/pow22523): returns a^(2^250 - 1) and sets *a11 = a^11.
Fe fe_pow_2_250_1(const Fe& a, Fe* a11) noexcept {
  const Fe a2 = fe_sq(a);
  const Fe a9 = fe_mul(a, fe_sq_n(a2, 2));
  *a11 = fe_mul(a2, a9);
  const Fe e5 = fe_mul(a9, fe_sq(*a11));        // 2^5 - 1
  const Fe e10 = fe_mul(fe_sq_n(e5, 5), e5);    // 2^10 - 1
  const Fe e20 = fe_mul(fe_sq_n(e10, 10), e10);
  const Fe e40 = fe_mul(fe_sq_n(e20, 20), e20);
  const Fe e50 = fe_mul(fe_sq_n(e40, 10), e10);
  const Fe e100 = fe_mul(fe_sq_n(e50, 50), e50);
  const Fe e200 = fe_mul(fe_sq_n(e100, 100), e100);
  return fe_mul(fe_sq_n(e200, 50), e50);        // 2^250 - 1
}
}  // namespace

Fe fe_invert(const Fe& a) noexcept {
  Fe a11;
  const Fe t = fe_pow_2_250_1(a, &a11);
  return fe_mul(fe_sq_n(t, 5), a11);  // 2^255 - 32 + 11 = p - 2
}

Fe fe_pow22523(const Fe& a) noexcept {
  Fe a11;
  const Fe t = fe_pow_2_250_1(a, &a11);
  return fe_mul(fe_sq_n(t, 2), a);  // 2^252 - 4 + 1 = (p - 5) / 8
}

void fe_cmov(Fe& f, const Fe& g, unsigned b) noexcept {
  const u64 mask = u64(0) - u64(b);
  for (int i = 0; i < 5; ++i) f.v[i] ^= mask & (f.v[i] ^ g.v[i]);
}

bool fe_is_zero(const Fe& a) noexcept {
  std::uint8_t b[32];
  fe_to_bytes(b, a);
  std::uint8_t acc = 0;
  for (auto x : b) acc |= x;
  return acc == 0;
}

bool fe_is_negative(const Fe& a) noexcept {
  std::uint8_t b[32];
  fe_to_bytes(b, a);
  return (b[0] & 1) != 0;
}

bool fe_equal(const Fe& a, const Fe& b) noexcept {
  std::uint8_t ba[32], bb[32];
  fe_to_bytes(ba, a);
  fe_to_bytes(bb, b);
  std::uint8_t acc = 0;
  for (int i = 0; i < 32; ++i) acc |= ba[i] ^ bb[i];
  return acc == 0;
}

const Fe& fe_sqrtm1() noexcept {
  // 2^((p-1)/4) = 2^(2 * (p-5)/8 + 1), so one squaring and one multiply on
  // top of the square-root chain.
  static const Fe v = [] {
    const Fe two = fe_from_u64(2);
    return fe_mul(fe_sq(fe_pow22523(two)), two);
  }();
  return v;
}

const Fe& fe_d() noexcept {
  static const Fe v =
      fe_mul(fe_neg(fe_from_u64(121665)), fe_invert(fe_from_u64(121666)));
  return v;
}

const Fe& fe_2d() noexcept {
  static const Fe v = fe_add(fe_d(), fe_d());
  return v;
}

}  // namespace ritm::crypto::detail
