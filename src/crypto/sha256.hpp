// SHA-256 (FIPS 180-4), plus the 20-byte truncated digest that RITM uses as
// its tree/leaf hash (the paper §VI: "We used the SHA-256 hash function, but
// we truncated its output to the first 20 bytes").
//
// Every hash on the dictionary hot path (leaf hashes, Merkle inner nodes,
// hash-chain links) is a short fixed-shape message, so hash20()
// dispatches to a one-shot compression path for inputs that fit in one or
// two blocks, skipping the incremental buffer/length machinery entirely.
// hash20_batch() is the rebuild loop's entry point: it feeds the runtime-
// dispatched multi-lane engine (crypto/sha256_engine.hpp — scalar, 8-lane
// AVX2 multi-buffer, or SHA-NI, picked by CPUID), as do the one-shot and
// streaming compression paths. Every backend is bit-identical SHA-256, so
// dictionary roots never depend on the engine.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "common/bytes.hpp"

namespace ritm::crypto {

using Sha256Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 (arbitrary-length input, streaming).
class Sha256 {
 public:
  Sha256() noexcept;
  void update(ByteSpan data) noexcept;
  /// Finalizes and returns the digest. The object must not be reused after.
  Sha256Digest finish() noexcept;

  /// One-shot convenience. Short inputs (<= 119 bytes) take the
  /// single/double-block fast path.
  static Sha256Digest hash(ByteSpan data) noexcept;

 private:
  void compress(const std::uint8_t* block) noexcept;

  std::uint32_t state_[8];
  std::uint64_t length_ = 0;  // total bytes absorbed
  std::uint8_t buf_[64];
  std::size_t buf_len_ = 0;
};

/// Largest message that fits the one-shot two-block fast path: two 64-byte
/// blocks minus padding byte and the 8-byte length field.
constexpr std::size_t kSha256ShortMax = 119;

/// One-shot SHA-256 of a short message (data.size() <= kSha256ShortMax):
/// pads on the stack and runs one or two compressions, no buffering.
Sha256Digest sha256_short(ByteSpan data) noexcept;

/// RITM's 20-byte hash: SHA-256 truncated to its first 20 bytes.
using Digest20 = std::array<std::uint8_t, 20>;

Digest20 hash20(ByteSpan data) noexcept;

/// Hash of the concatenation of two 20-byte digests (Merkle inner node).
Digest20 hash20_pair(const Digest20& left, const Digest20& right) noexcept;

/// One hash-chain link: H(d) for a 20-byte digest. Single-block fast path,
/// used by crypto::HashChain to build and walk chains.
Digest20 rehash20(const Digest20& d) noexcept;

/// Hashes `inputs.size()` independent messages into `out` (which must have
/// room for inputs.size() digests). Each input must individually satisfy
/// whatever length it likes; short ones take the one-shot path. This is the
/// multi-buffer seam: a SIMD backend can compress 4/8 lanes at once here
/// while callers (the dictionary rebuild loop) stay unchanged.
void hash20_batch(std::span<const ByteSpan> inputs, Digest20* out) noexcept;

}  // namespace ritm::crypto
