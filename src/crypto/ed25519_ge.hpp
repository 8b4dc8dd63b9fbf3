// Group arithmetic on edwards25519 in extended homogeneous coordinates
// (X : Y : Z : T) with x = X/Z, y = Y/Z, x*y = T/Z.
//
// Formulas follow the "add-2008-hwcd-3" / "dbl-2008-hwcd" complete addition
// laws (Hisil–Wong–Carter–Dawson), so addition is correct for all inputs
// including doubling and the identity.
//
// Inside the scalar multiplications (ed25519_ge.cpp) points move between
// five ref10 forms, each chosen to drop work the next step does not need:
//   - extended (Ge, "p3"): (X : Y : Z : T), the input of an addition;
//   - projective ("p2"): (X : Y : Z), T dropped; doubling needs no T;
//   - completed ("p1p1"): ((X : Z), (Y : T)), x = X/Z, y = Y/T, the raw
//     output of an addition or doubling; 3 (to p2) or 4 (to p3)
//     multiplications normalise it;
//   - cached: (Y+X, Y-X, Z, 2d*T), the right-hand operand of an addition,
//     precomputed once per table entry;
//   - precomputed ("niels"): (y+x, y-x, 2d*x*y) with Z = 1, the affine
//     cached form of a fixed base-point multiple (one multiplication fewer
//     per addition).
//
// The base-point tables are built from ge_base() on first use, each in a
// function-local static (so concurrent first uses are safe), not pasted in
// as constants:
//   - 32 odd multiples B, 3B, ..., 63B (3.8 KB) for verification; the first
//     verify in a process pays ~0.2 ms for them (2.1 GHz Xeon);
//   - the signing comb, (j+1) * 256^i * B for i < 32, j < 8 (30 KB); the
//     first key derivation or signature pays ~1 ms.
// Both are normalised to Z = 1 (the precomputed form).
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "crypto/ed25519_fe.hpp"

namespace ritm::crypto::detail {

struct Ge {
  Fe x, y, z, t;
};

/// Identity element (0, 1).
Ge ge_identity() noexcept;

/// Base point B (y = 4/5, x positive), decompressed from its canonical
/// encoding once.
const Ge& ge_base() noexcept;

Ge ge_add(const Ge& p, const Ge& q) noexcept;
Ge ge_double(const Ge& p) noexcept;
Ge ge_neg(const Ge& p) noexcept;

/// [a]A + [b]B for any 256-bit little-endian scalars a and b, in one
/// shared chain of doublings with signed sliding windows (width 5 over a
/// table of odd multiples of A, width 7 over the precomputed odd multiples
/// of B). Variable-time: the memory access pattern and the number of
/// additions follow the scalars, so use it only on public inputs
/// (signature verification).
Ge ge_double_scalarmult_vartime(const std::array<std::uint8_t, 32>& a,
                                const Ge& A,
                                const std::array<std::uint8_t, 32>& b) noexcept;

/// [a]B for a secret scalar a < 2^255, in constant time: signed radix-16
/// digits select entries of the precomputed comb with masked moves, so
/// neither the branches nor the memory addresses depend on a.
Ge ge_scalarmult_base(const std::array<std::uint8_t, 32>& a) noexcept;

/// Compressed 32-byte encoding: y with the sign of x in the top bit.
std::array<std::uint8_t, 32> ge_to_bytes(const Ge& p) noexcept;

/// Decompression per RFC 8032 §5.1.3; rejects non-curve points.
std::optional<Ge> ge_from_bytes(const std::array<std::uint8_t, 32>& s) noexcept;

/// True if both points represent the same affine point.
bool ge_equal(const Ge& p, const Ge& q) noexcept;

}  // namespace ritm::crypto::detail
