// Scalar arithmetic modulo the edwards25519 group order
// L = 2^252 + 27742317777372353535851937790883648493.
//
// Scalars are 32 little-endian bytes. Reduction is Barrett's with 64-bit
// words: fixed-size schoolbook products and a masked final subtraction, so
// sc_reduce64 and sc_muladd run in constant time on the secret nonce and
// key during signing.
#pragma once

#include <array>
#include <cstdint>

namespace ritm::crypto::detail {

using Scalar = std::array<std::uint8_t, 32>;

/// Reduces a 64-byte little-endian value mod L (RFC 8032's SC reduction of
/// SHA-512 outputs).
Scalar sc_reduce64(const std::array<std::uint8_t, 64>& in) noexcept;

/// Reduces a 32-byte little-endian value mod L.
Scalar sc_reduce32(const Scalar& in) noexcept;

/// (a * b + c) mod L.
Scalar sc_muladd(const Scalar& a, const Scalar& b, const Scalar& c) noexcept;

/// True iff the 32-byte value is canonical, i.e. < L (required when
/// verifying the S half of a signature to prevent malleability).
bool sc_is_canonical(const Scalar& s) noexcept;

}  // namespace ritm::crypto::detail
