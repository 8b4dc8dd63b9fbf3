#include "crypto/ed25519.hpp"

#include <cstring>

#include "crypto/ed25519_fe.hpp"
#include "crypto/ed25519_ge.hpp"
#include "crypto/ed25519_sc.hpp"
#include "crypto/sha512.hpp"

namespace ritm::crypto {

namespace {
using detail::Ge;
using detail::Scalar;

Scalar clamp(const std::uint8_t* h) noexcept {
  Scalar a;
  std::memcpy(a.data(), h, 32);
  a[0] &= 0xF8;
  a[31] &= 0x7F;
  a[31] |= 0x40;
  return a;
}

Scalar hash_to_scalar(std::initializer_list<ByteSpan> parts) noexcept {
  Sha512 h;
  for (const auto& p : parts) h.update(p);
  return detail::sc_reduce64(h.finish());
}
}  // namespace

PublicKey derive_public_key(const Seed& seed) noexcept {
  const Sha512Digest h = Sha512::hash(ByteSpan(seed.data(), seed.size()));
  const Scalar a = clamp(h.data());
  const Ge A = detail::ge_scalarmult_base(a);
  return detail::ge_to_bytes(A);
}

KeyPair keypair_from_seed(const Seed& seed) noexcept {
  return KeyPair{seed, derive_public_key(seed)};
}

Signature sign(ByteSpan message, const Seed& seed) noexcept {
  return sign(message, seed, derive_public_key(seed));
}

Signature sign(ByteSpan message, const Seed& seed,
               const PublicKey& pub) noexcept {
  const Sha512Digest h = Sha512::hash(ByteSpan(seed.data(), seed.size()));
  const Scalar a = clamp(h.data());

  const ByteSpan prefix(h.data() + 32, 32);
  const Scalar r = hash_to_scalar({prefix, message});
  const Ge R = detail::ge_scalarmult_base(r);
  const auto r_enc = detail::ge_to_bytes(R);

  const Scalar k = hash_to_scalar({ByteSpan(r_enc.data(), r_enc.size()),
                                   ByteSpan(pub.data(), pub.size()), message});
  const Scalar s = detail::sc_muladd(k, a, r);

  Signature sig;
  std::memcpy(sig.data(), r_enc.data(), 32);
  std::memcpy(sig.data() + 32, s.data(), 32);
  return sig;
}

bool verify(ByteSpan message, const Signature& sig,
            const PublicKey& public_key) noexcept {
  std::array<std::uint8_t, 32> r_enc;
  Scalar s;
  std::memcpy(r_enc.data(), sig.data(), 32);
  std::memcpy(s.data(), sig.data() + 32, 32);

  if (!detail::sc_is_canonical(s)) return false;

  const auto A = detail::ge_from_bytes(public_key);
  if (!A) return false;
  const auto R = detail::ge_from_bytes(r_enc);
  if (!R) return false;

  const Scalar k = hash_to_scalar(
      {ByteSpan(r_enc.data(), r_enc.size()),
       ByteSpan(public_key.data(), public_key.size()), message});

  // Check s*B == R + k*A as s*B - k*A == R, in one double-scalar chain.
  const Ge sB_minus_kA =
      detail::ge_double_scalarmult_vartime(k, detail::ge_neg(*A), s);
  return detail::ge_equal(sB_minus_kA, *R);
}

}  // namespace ritm::crypto
