#include "crypto/ed25519_ge.hpp"

#include <cstddef>

namespace ritm::crypto::detail {

namespace {
using Scalar = std::array<std::uint8_t, 32>;

// The point forms described in the header.
struct GeP2 {
  Fe x, y, z;
};
struct GeP1P1 {
  Fe x, y, z, t;
};
struct GeCached {
  Fe ypx, ymx, z, t2d;
};
struct GePrecomp {
  Fe ypx, ymx, xy2d;
};

GeP2 to_p2(const Ge& p) noexcept { return GeP2{p.x, p.y, p.z}; }

GeP2 to_p2(const GeP1P1& p) noexcept {
  return GeP2{fe_mul(p.x, p.t), fe_mul(p.y, p.z), fe_mul(p.z, p.t)};
}

Ge to_p3(const GeP1P1& p) noexcept {
  return Ge{fe_mul(p.x, p.t), fe_mul(p.y, p.z), fe_mul(p.z, p.t),
            fe_mul(p.x, p.y)};
}

GeCached to_cached(const Ge& p) noexcept {
  return GeCached{fe_add(p.y, p.x), fe_sub(p.y, p.x), p.z,
                  fe_mul(p.t, fe_2d())};
}

GePrecomp to_precomp(const Ge& p) noexcept {
  const Fe zinv = fe_invert(p.z);
  const Fe x = fe_mul(p.x, zinv);
  const Fe y = fe_mul(p.y, zinv);
  return GePrecomp{fe_add(y, x), fe_sub(y, x), fe_mul(fe_mul(x, y), fe_2d())};
}

// dbl-2008-hwcd: 4 squarings, no T needed on input.
GeP1P1 dbl(const GeP2& p) noexcept {
  const Fe xx = fe_sq(p.x);
  const Fe yy = fe_sq(p.y);
  const Fe zz = fe_sq(p.z);
  const Fe sum = fe_add(yy, xx);
  const Fe diff = fe_sub(yy, xx);
  return GeP1P1{fe_sub(fe_sq(fe_add(p.x, p.y)), sum), sum, diff,
                fe_sub(fe_add(zz, zz), diff)};
}

// add-2008-hwcd-3 with q given by (y+x, y-x, 2d*t) and zz2 = 2*Z_p*Z_q.
// With negate set it computes p - q: negating q swaps y+x with y-x and
// flips the sign of its t.
GeP1P1 add_core(const Ge& p, const Fe& q_ypx, const Fe& q_ymx,
                const Fe& q_t2d, const Fe& zz2, bool negate) noexcept {
  const Fe a = fe_mul(fe_add(p.y, p.x), negate ? q_ymx : q_ypx);
  const Fe b = fe_mul(fe_sub(p.y, p.x), negate ? q_ypx : q_ymx);
  const Fe c = fe_mul(q_t2d, p.t);
  const Fe plus = fe_add(zz2, c);
  const Fe minus = fe_sub(zz2, c);
  return GeP1P1{fe_sub(a, b), fe_add(a, b), negate ? minus : plus,
                negate ? plus : minus};
}

GeP1P1 add(const Ge& p, const GeCached& q, bool negate = false) noexcept {
  const Fe zz = fe_mul(p.z, q.z);
  return add_core(p, q.ypx, q.ymx, q.t2d, fe_add(zz, zz), negate);
}

GeP1P1 add(const Ge& p, const GePrecomp& q, bool negate = false) noexcept {
  return add_core(p, q.ypx, q.ymx, q.xy2d, fe_add(p.z, p.z), negate);
}

// ---------------------------------------------- variable-time (verify)

constexpr int kWindowA = 5;  // digits in (-16, 16): A, 3A, ..., 15A
constexpr int kWindowB = 7;  // digits in (-64, 64): B, 3B, ..., 63B

// Odd multiples B, 3B, ..., 63B, built on first use (see the header).
using BaseOddMultiples = std::array<GePrecomp, 1 << (kWindowB - 2)>;

const BaseOddMultiples& base_odd_multiples() noexcept {
  static const BaseOddMultiples table = [] {
    BaseOddMultiples t;
    const GeCached twice = to_cached(ge_double(ge_base()));
    Ge m = ge_base();
    for (auto& entry : t) {
      entry = to_precomp(m);
      m = to_p3(add(m, twice));
    }
    return t;
  }();
  return table;
}

// Width-w non-adjacent form of a 256-bit scalar: every digit is 0 or odd
// in (-2^(w-1), 2^(w-1)), any w consecutive digits hold at most one nonzero,
// and sum(naf[i] * 2^i) == n. A final carry lands at most at 255 + w.
using Naf = std::array<std::int8_t, 256 + 8>;

Naf naf_recode(const Scalar& n, int w) noexcept {
  std::uint64_t x[5] = {};  // the zero top word lets a window read past 255
  for (std::size_t i = 0; i < 32; ++i) {
    x[i / 8] |= std::uint64_t(n[i]) << (8 * (i % 8));
  }
  const std::uint64_t width = std::uint64_t(1) << w;
  Naf naf{};
  std::uint64_t carry = 0;
  std::size_t pos = 0;
  while (pos < 256) {
    const std::size_t word = pos / 64, bit = pos % 64;
    std::uint64_t bits = x[word] >> bit;
    if (bit + static_cast<std::size_t>(w) > 64) {
      bits |= x[word + 1] << (64 - bit);
    }
    const std::uint64_t window = carry + (bits & (width - 1));
    if ((window & 1) == 0) {
      ++pos;  // (carry + bit) is even: carry moves up unchanged
      continue;
    }
    carry = window >= width / 2 ? 1 : 0;
    naf[pos] = static_cast<std::int8_t>(
        static_cast<std::int64_t>(window) -
        static_cast<std::int64_t>(carry * width));
    pos += static_cast<std::size_t>(w);
  }
  naf[pos] = static_cast<std::int8_t>(carry);
  return naf;
}

// ---------------------------------------------- constant-time (signing)

// comb[i][j] = (j + 1) * 256^i * B, built on first use (see the header).
using Comb = std::array<std::array<GePrecomp, 8>, 32>;

const Comb& base_comb() noexcept {
  static const Comb table = [] {
    Comb t;
    Ge row = ge_base();
    for (auto& entries : t) {
      const GeCached step = to_cached(row);
      Ge m = row;
      for (auto& entry : entries) {
        entry = to_precomp(m);
        m = to_p3(add(m, step));
      }
      for (int k = 0; k < 8; ++k) row = ge_double(row);
    }
    return t;
  }();
  return table;
}

// 1 iff b == c, without a branch.
unsigned ct_equal(std::uint8_t b, std::uint8_t c) noexcept {
  const std::uint32_t x = b ^ c;
  return (x - 1) >> 31;
}

void cmov(GePrecomp& t, const GePrecomp& u, unsigned b) noexcept {
  fe_cmov(t.ypx, u.ypx, b);
  fe_cmov(t.ymx, u.ymx, b);
  fe_cmov(t.xy2d, u.xy2d, b);
}

// digit * 256^row * B for digit in [-8, 8]: scans the whole row and negates
// with masked moves, so the access pattern is the same for every digit.
GePrecomp select(std::size_t row, std::int8_t digit) noexcept {
  const unsigned negative = static_cast<std::uint8_t>(digit) >> 7;
  const auto magnitude = static_cast<std::uint8_t>(
      digit - (-static_cast<int>(negative) & digit) * 2);
  GePrecomp t{fe_one(), fe_one(), fe_zero()};  // the identity
  const auto& entries = base_comb()[row];
  for (std::size_t j = 0; j < entries.size(); ++j) {
    cmov(t, entries[j], ct_equal(magnitude, static_cast<std::uint8_t>(j + 1)));
  }
  cmov(t, GePrecomp{t.ymx, t.ypx, fe_neg(t.xy2d)}, negative);
  return t;
}
}  // namespace

Ge ge_identity() noexcept {
  return Ge{fe_zero(), fe_one(), fe_one(), fe_zero()};
}

Ge ge_add(const Ge& p, const Ge& q) noexcept {
  return to_p3(add(p, to_cached(q)));
}

Ge ge_double(const Ge& p) noexcept { return to_p3(dbl(to_p2(p))); }

Ge ge_neg(const Ge& p) noexcept {
  return Ge{fe_neg(p.x), p.y, p.z, fe_neg(p.t)};
}

Ge ge_double_scalarmult_vartime(const Scalar& a, const Ge& A,
                                const Scalar& b) noexcept {
  const Naf a_naf = naf_recode(a, kWindowA);
  const Naf b_naf = naf_recode(b, kWindowB);

  std::array<GeCached, 1 << (kWindowA - 2)> a_odd;  // A, 3A, ..., 15A
  const Ge a2 = ge_double(A);
  Ge m = A;
  a_odd[0] = to_cached(m);
  for (std::size_t i = 1; i < a_odd.size(); ++i) {
    m = to_p3(add(a2, a_odd[i - 1]));
    a_odd[i] = to_cached(m);
  }
  const auto& b_odd = base_odd_multiples();

  std::size_t i = a_naf.size();
  while (i > 0 && a_naf[i - 1] == 0 && b_naf[i - 1] == 0) --i;
  if (i == 0) return ge_identity();

  // Table slot of the odd multiple |d|.
  const auto slot = [](int d) {
    return static_cast<std::size_t>(d < 0 ? -d : d) / 2;
  };
  GeP2 r = to_p2(ge_identity());
  GeP1P1 t{};
  while (i-- > 0) {
    t = dbl(r);
    if (const int d = a_naf[i]; d != 0) {
      t = add(to_p3(t), a_odd[slot(d)], d < 0);
    }
    if (const int d = b_naf[i]; d != 0) {
      t = add(to_p3(t), b_odd[slot(d)], d < 0);
    }
    r = to_p2(t);
  }
  return to_p3(t);
}

Ge ge_scalarmult_base(const Scalar& a) noexcept {
  // Signed radix 16: a = sum(e[i] * 16^i) with every e[i] in [-8, 8).
  // a[31] <= 127 keeps the top digit at most 8.
  std::array<std::int8_t, 64> e;
  for (std::size_t i = 0; i < 32; ++i) {
    e[2 * i] = static_cast<std::int8_t>(a[i] & 15);
    e[2 * i + 1] = static_cast<std::int8_t>(a[i] >> 4);
  }
  int carry = 0;
  for (std::size_t i = 0; i < 63; ++i) {
    const int v = e[i] + carry;
    carry = (v + 8) >> 4;
    e[i] = static_cast<std::int8_t>(v - carry * 16);
  }
  e[63] = static_cast<std::int8_t>(e[63] + carry);

  // Odd digits first, times 16, then the even ones: each table row serves
  // two digits, 16^(2k+1) = 16 * 256^k.
  Ge h = ge_identity();
  for (std::size_t i = 1; i < 64; i += 2) {
    h = to_p3(add(h, select(i / 2, e[i])));
  }
  GeP1P1 t = dbl(to_p2(h));
  for (int k = 0; k < 3; ++k) t = dbl(to_p2(t));
  h = to_p3(t);
  for (std::size_t i = 0; i < 64; i += 2) {
    h = to_p3(add(h, select(i / 2, e[i])));
  }
  return h;
}

std::array<std::uint8_t, 32> ge_to_bytes(const Ge& p) noexcept {
  const Fe zinv = fe_invert(p.z);
  const Fe x = fe_mul(p.x, zinv);
  const Fe y = fe_mul(p.y, zinv);
  std::array<std::uint8_t, 32> out;
  fe_to_bytes(out.data(), y);
  if (fe_is_negative(x)) out[31] |= 0x80;
  return out;
}

std::optional<Ge> ge_from_bytes(
    const std::array<std::uint8_t, 32>& s) noexcept {
  const bool sign = (s[31] & 0x80) != 0;
  const Fe y = fe_from_bytes(s.data());

  // Recover x from x^2 = (y^2 - 1) / (d*y^2 + 1).
  const Fe y2 = fe_sq(y);
  const Fe u = fe_sub(y2, fe_one());
  const Fe v = fe_add(fe_mul(fe_d(), y2), fe_one());

  // Candidate root: x = u * v^3 * (u * v^7)^((p-5)/8).
  const Fe v3 = fe_mul(fe_sq(v), v);
  const Fe v7 = fe_mul(fe_sq(v3), v);
  Fe x = fe_mul(fe_mul(u, v3), fe_pow22523(fe_mul(u, v7)));

  const Fe vx2 = fe_mul(v, fe_sq(x));
  if (!fe_equal(vx2, u)) {
    if (fe_equal(vx2, fe_neg(u))) {
      x = fe_mul(x, fe_sqrtm1());
    } else {
      return std::nullopt;  // not a point on the curve
    }
  }
  if (fe_is_zero(x) && sign) {
    return std::nullopt;  // -0 is not a valid encoding
  }
  if (fe_is_negative(x) != sign) x = fe_neg(x);

  Ge p;
  p.x = x;
  p.y = y;
  p.z = fe_one();
  p.t = fe_mul(x, y);
  return p;
}

const Ge& ge_base() noexcept {
  static const Ge b = [] {
    std::array<std::uint8_t, 32> enc{};
    enc[0] = 0x58;
    for (int i = 1; i < 32; ++i) enc[static_cast<std::size_t>(i)] = 0x66;
    auto p = ge_from_bytes(enc);
    return *p;  // the canonical base-point encoding always decompresses
  }();
  return b;
}

bool ge_equal(const Ge& p, const Ge& q) noexcept {
  // Cross-multiply to avoid inversions: X1*Z2 == X2*Z1 and Y1*Z2 == Y2*Z1.
  return fe_equal(fe_mul(p.x, q.z), fe_mul(q.x, p.z)) &&
         fe_equal(fe_mul(p.y, q.z), fe_mul(q.y, p.z));
}

}  // namespace ritm::crypto::detail
