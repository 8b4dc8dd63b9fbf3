// Crypto substrate tests: FIPS 180-4 vectors for SHA-256/512, RFC 8032
// vectors for Ed25519, structural properties of hash chains, and randomized
// robustness checks (bit-flip rejection).
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/ed25519_fe.hpp"
#include "crypto/ed25519_ge.hpp"
#include "crypto/ed25519_sc.hpp"
#include "crypto/cpu_features.hpp"
#include "crypto/hash_chain.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_engine.hpp"
#include "crypto/sha512.hpp"

namespace ritm::crypto {
namespace {

using ritm::Bytes;
using ritm::ByteSpan;
using ritm::from_hex;
using ritm::to_hex;

ByteSpan span_of(const Bytes& b) { return ByteSpan(b.data(), b.size()); }

template <std::size_t N>
std::string hex_of(const std::array<std::uint8_t, N>& a) {
  return to_hex(ByteSpan(a.data(), a.size()));
}

std::array<std::uint8_t, 32> array32(const Bytes& b) {
  std::array<std::uint8_t, 32> out{};
  std::copy(b.begin(), b.end(), out.begin());
  return out;
}

std::array<std::uint8_t, 32> bytes32(const char* hex) {
  return array32(from_hex(hex));
}

// The group order L and L - 1, little-endian.
constexpr const char* kLHex =
    "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010";
constexpr const char* kLMinus1Hex =
    "ecd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010";

// ---------------------------------------------------------------- SHA-256

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_of(Sha256::hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  const Bytes msg = ritm::bytes_of("abc");
  EXPECT_EQ(hex_of(Sha256::hash(span_of(msg))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  const Bytes msg =
      ritm::bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  EXPECT_EQ(hex_of(Sha256::hash(span_of(msg))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(span_of(chunk));
  EXPECT_EQ(hex_of(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const Bytes msg = rng.bytes(rng.uniform(500));
    Sha256 inc;
    std::size_t off = 0;
    while (off < msg.size()) {
      const std::size_t take =
          std::min<std::size_t>(1 + rng.uniform(97), msg.size() - off);
      inc.update(ByteSpan(msg.data() + off, take));
      off += take;
    }
    EXPECT_EQ(inc.finish(), Sha256::hash(span_of(msg)));
  }
}

TEST(Sha256, Hash20IsTruncation) {
  const Bytes msg = ritm::bytes_of("ritm");
  const auto full = Sha256::hash(span_of(msg));
  const auto trunc = hash20(span_of(msg));
  EXPECT_TRUE(std::equal(trunc.begin(), trunc.end(), full.begin()));
}

TEST(Sha256, PairHashMatchesConcat) {
  Digest20 a{}, b{};
  a.fill(0x11);
  b.fill(0x22);
  Bytes cat;
  ritm::append(cat, ByteSpan(a.data(), a.size()));
  ritm::append(cat, ByteSpan(b.data(), b.size()));
  EXPECT_EQ(hash20_pair(a, b), hash20(span_of(cat)));
}

TEST(Sha256, ShortFastPathMatchesIncrementalEveryLength) {
  // The one-shot single/double-block path must agree with the streaming
  // implementation at every length it claims, both sides of every padding
  // boundary (55/56, 64, 119), and just past its limit.
  Rng rng(42);
  for (std::size_t len = 0; len <= kSha256ShortMax + 16; ++len) {
    const Bytes msg = rng.bytes(len);
    Sha256 streaming;
    // Feed in uneven chunks so the buffer machinery is exercised.
    std::size_t off = 0;
    while (off < len) {
      const std::size_t take = std::min<std::size_t>(1 + off % 7, len - off);
      streaming.update(ByteSpan(msg.data() + off, take));
      off += take;
    }
    const auto reference = streaming.finish();
    EXPECT_EQ(hex_of(Sha256::hash(span_of(msg))), hex_of(reference))
        << "length " << len;
    if (len <= kSha256ShortMax) {
      EXPECT_EQ(hex_of(sha256_short(span_of(msg))), hex_of(reference))
          << "length " << len;
    }
  }
}

TEST(Sha256, Rehash20IsOneChainLink) {
  Digest20 d{};
  d.fill(0x5A);
  EXPECT_EQ(rehash20(d), hash20(ByteSpan(d.data(), d.size())));
}

TEST(Sha256, BatchMatchesScalar) {
  Rng rng(7);
  std::vector<Bytes> msgs;
  std::vector<ByteSpan> spans;
  for (std::size_t i = 0; i < 67; ++i) {
    msgs.push_back(rng.bytes(i % 40));
    spans.push_back(span_of(msgs.back()));
  }
  std::vector<Digest20> out(spans.size());
  hash20_batch(std::span<const ByteSpan>(spans.data(), spans.size()),
               out.data());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(out[i], hash20(spans[i])) << "lane " << i;
  }
}

// ------------------------------------------------- SHA-256 engine dispatch

/// Restores auto-detection when a test that forces backends exits (even via
/// an assertion failure), so later tests never run under a leaked selection.
struct BackendGuard {
  ~BackendGuard() { sha256_reset_backend(); }
};

TEST(Sha256Engine, ScalarIsAlwaysAvailableAndListedFirst) {
  const auto backends = sha256_available_backends();
  ASSERT_FALSE(backends.empty());
  EXPECT_EQ(backends.front(), Sha256Backend::scalar);
  // The active engine must be one of the available ones.
  const auto active = sha256_engine().kind;
  EXPECT_TRUE(std::find(backends.begin(), backends.end(), active) !=
              backends.end());
}

TEST(Sha256Engine, AvailabilityMatchesCpuFeatures) {
  const auto backends = sha256_available_backends();
  const auto listed = [&](Sha256Backend b) {
    return std::find(backends.begin(), backends.end(), b) != backends.end();
  };
#if RITM_SHA256_X86_SIMD
  EXPECT_EQ(listed(Sha256Backend::avx2),
            cpu_features().avx2 && cpu_features().ssse3);
  EXPECT_EQ(listed(Sha256Backend::shani),
            cpu_features().sha_ni && cpu_features().sse41);
#else
  // RITM_FORCE_SCALAR (or a non-x86 host): the portable path must be the
  // whole menu, and selecting a SIMD backend must fail without side effects.
  EXPECT_EQ(backends.size(), 1u);
  EXPECT_FALSE(listed(Sha256Backend::avx2));
  EXPECT_FALSE(listed(Sha256Backend::shani));
  const auto before = sha256_engine().kind;
  EXPECT_FALSE(sha256_select_backend(Sha256Backend::avx2));
  EXPECT_FALSE(sha256_select_backend(Sha256Backend::shani));
  EXPECT_EQ(sha256_engine().kind, before);
#endif
}

TEST(Sha256Engine, SelectActivatesEachAvailableBackend) {
  BackendGuard guard;
  for (const auto b : sha256_available_backends()) {
    ASSERT_TRUE(sha256_select_backend(b)) << sha256_backend_name(b);
    EXPECT_EQ(sha256_engine().kind, b);
    EXPECT_STREQ(sha256_engine().name, sha256_backend_name(b));
  }
}

TEST(Sha256Engine, FipsVectorsHoldUnderEveryBackend) {
  // The one-shot fast paths route through the selected engine's compression
  // function (scalar rounds or sha256rnds2), so the NIST vectors must hold
  // under each backend, not just the default.
  BackendGuard guard;
  const Bytes abc = ritm::bytes_of("abc");
  const Bytes two_block =
      ritm::bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  for (const auto b : sha256_available_backends()) {
    ASSERT_TRUE(sha256_select_backend(b));
    EXPECT_EQ(hex_of(Sha256::hash({})),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
        << sha256_backend_name(b);
    EXPECT_EQ(hex_of(Sha256::hash(span_of(abc))),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
        << sha256_backend_name(b);
    EXPECT_EQ(hex_of(Sha256::hash(span_of(two_block))),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1")
        << sha256_backend_name(b);
  }
}

TEST(Sha256Engine, CrossBackendRandomizedBatches) {
  // The dispatch-layer contract: every backend hashes every batch to the
  // exact bytes the scalar path produces. Batch sizes sweep 0-200 (the empty
  // and single-input edge cases explicitly) and lengths straddle each
  // grouping boundary the SIMD backends bucket by: 0, <=55 (one padded
  // block), 56..119 (two blocks), and >119 (streaming fallback).
  BackendGuard guard;
  Rng rng(20260727);
  std::vector<std::size_t> batch_sizes = {0, 1, 2, 7, 8, 9, 64, 200};
  for (int i = 0; i < 6; ++i) batch_sizes.push_back(rng.uniform(201));

  for (const std::size_t n : batch_sizes) {
    std::vector<Bytes> msgs;
    std::vector<ByteSpan> spans;
    msgs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Cycle the boundary lengths through the batch, with random filler.
      static constexpr std::size_t kEdges[] = {0,  1,  20, 41, 55,
                                               56, 64, 119, 120, 300};
      const std::size_t len = (i % 3 == 0)
                                  ? kEdges[i / 3 % std::size(kEdges)]
                                  : rng.uniform(160);
      msgs.push_back(rng.bytes(len));
    }
    for (const auto& m : msgs) spans.push_back(span_of(m));
    const auto batch = std::span<const ByteSpan>(spans.data(), spans.size());

    ASSERT_TRUE(sha256_select_backend(Sha256Backend::scalar));
    std::vector<Digest20> expect(n);
    hash20_batch(batch, expect.data());

    for (const auto b : sha256_available_backends()) {
      if (b == Sha256Backend::scalar) continue;
      ASSERT_TRUE(sha256_select_backend(b));
      std::vector<Digest20> got(n);
      hash20_batch(batch, got.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hex_of(got[i]), hex_of(expect[i]))
            << sha256_backend_name(b) << " lane " << i << " of " << n
            << " (len " << msgs[i].size() << ")";
      }
    }
  }
}

// ---------------------------------------------------------------- SHA-512

TEST(Sha512, EmptyString) {
  EXPECT_EQ(hex_of(Sha512::hash({})),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512, Abc) {
  const Bytes msg = ritm::bytes_of("abc");
  EXPECT_EQ(hex_of(Sha512::hash(span_of(msg))),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, TwoBlockMessage) {
  const Bytes msg = ritm::bytes_of(
      "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
      "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu");
  EXPECT_EQ(hex_of(Sha512::hash(span_of(msg))),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
            "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512, MillionAs) {
  Sha512 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(span_of(chunk));
  EXPECT_EQ(hex_of(h.finish()),
            "e718483d0ce769644e2e42c7bc15b4638e1f98b13b2044285632a803afa973eb"
            "de0ff244877ea60a4cb0432ce577c31beb009c5c2c49aa2e4eadb217ad8cc09b");
}

// ------------------------------------------------------------ field/group

TEST(Fe25519, RoundTripBytes) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    Bytes raw = rng.bytes(32);
    raw[31] &= 0x7F;  // stay below 2^255
    detail::Fe fe = detail::fe_from_bytes(raw.data());
    std::uint8_t out[32];
    detail::fe_to_bytes(out, fe);
    // Round-trips exactly unless the value was >= p (probability ~2^-250).
    EXPECT_EQ(to_hex(ByteSpan(out, 32)), to_hex(span_of(raw)));
  }
}

TEST(Fe25519, MulCommutesAndDistributes) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    const Bytes ab = rng.bytes(32), bb = rng.bytes(32), cb = rng.bytes(32);
    const auto a = detail::fe_from_bytes(ab.data());
    const auto b = detail::fe_from_bytes(bb.data());
    const auto c = detail::fe_from_bytes(cb.data());
    EXPECT_TRUE(detail::fe_equal(detail::fe_mul(a, b), detail::fe_mul(b, a)));
    EXPECT_TRUE(detail::fe_equal(
        detail::fe_mul(a, detail::fe_add(b, c)),
        detail::fe_add(detail::fe_mul(a, b), detail::fe_mul(a, c))));
  }
}

TEST(Fe25519, InvertIsInverse) {
  Rng rng(17);
  for (int i = 0; i < 20; ++i) {
    const Bytes ab = rng.bytes(32);
    const auto a = detail::fe_from_bytes(ab.data());
    if (detail::fe_is_zero(a)) continue;
    const auto inv = detail::fe_invert(a);
    EXPECT_TRUE(detail::fe_equal(detail::fe_mul(a, inv), detail::fe_one()));
  }
}

TEST(Fe25519, SqrtM1Squared) {
  const auto& i = detail::fe_sqrtm1();
  EXPECT_TRUE(
      detail::fe_equal(detail::fe_sq(i), detail::fe_neg(detail::fe_one())));
}

TEST(Ge25519, BasePointOnCurve) {
  // -x^2 + y^2 = 1 + d x^2 y^2 for the affine base point.
  const auto& b = detail::ge_base();
  const auto zinv = detail::fe_invert(b.z);
  const auto x = detail::fe_mul(b.x, zinv);
  const auto y = detail::fe_mul(b.y, zinv);
  const auto x2 = detail::fe_sq(x), y2 = detail::fe_sq(y);
  const auto lhs = detail::fe_sub(y2, x2);
  const auto rhs = detail::fe_add(
      detail::fe_one(), detail::fe_mul(detail::fe_d(), detail::fe_mul(x2, y2)));
  EXPECT_TRUE(detail::fe_equal(lhs, rhs));
}

TEST(Ge25519, AddMatchesDouble) {
  const auto& b = detail::ge_base();
  EXPECT_TRUE(detail::ge_equal(detail::ge_add(b, b), detail::ge_double(b)));
}

TEST(Ge25519, IdentityIsNeutral) {
  const auto& b = detail::ge_base();
  EXPECT_TRUE(detail::ge_equal(detail::ge_add(b, detail::ge_identity()), b));
}

TEST(Ge25519, NegCancels) {
  const auto& b = detail::ge_base();
  EXPECT_TRUE(detail::ge_equal(detail::ge_add(b, detail::ge_neg(b)),
                               detail::ge_identity()));
}

TEST(Ge25519, ScalarMultSmall) {
  const auto& b = detail::ge_base();
  const detail::Scalar zero{};
  detail::Scalar three{};
  three[0] = 3;
  const auto via_adds = detail::ge_add(detail::ge_add(b, b), b);
  EXPECT_TRUE(detail::ge_equal(detail::ge_scalarmult_base(three), via_adds));
  EXPECT_TRUE(detail::ge_equal(
      detail::ge_double_scalarmult_vartime(three, b, zero), via_adds));
  EXPECT_TRUE(detail::ge_equal(
      detail::ge_double_scalarmult_vartime(zero, b, three), via_adds));
  EXPECT_TRUE(detail::ge_equal(
      detail::ge_double_scalarmult_vartime(zero, b, zero),
      detail::ge_identity()));
}

// Textbook MSB-first double-and-add over all 256 bits: the reference the
// windowed multiplications are checked against.
detail::Ge textbook_mul(const detail::Ge& p, const detail::Scalar& n) {
  detail::Ge r = detail::ge_identity();
  for (std::size_t i = 256; i-- > 0;) {
    r = detail::ge_double(r);
    if ((n[i / 8] >> (i % 8)) & 1) r = detail::ge_add(r, p);
  }
  return r;
}

// A random y decodes about half the time, to a point whose small-order
// component is uniform, so the multiplications see torsion as well.
detail::Ge random_point(Rng& rng) {
  for (int tries = 0; tries < 200; ++tries) {
    const auto p = detail::ge_from_bytes(array32(rng.bytes(32)));
    if (p) return *p;
  }
  ADD_FAILURE() << "no random encoding decoded";
  return detail::ge_base();
}

// 0, 1, L - 1, 2^252, 2^255 and 2^256 - 1.
std::vector<detail::Scalar> edge_scalars() {
  std::vector<detail::Scalar> out(6);
  out[1][0] = 1;
  out[2] = bytes32(kLMinus1Hex);
  out[3][31] = 0x10;
  out[4][31] = 0x80;
  out[5].fill(0xFF);
  return out;
}

TEST(Ge25519, DoubleScalarMultMatchesTextbook) {
  // [s]B - [k]A exactly as verify calls it: every pair of edge scalars,
  // then random 256-bit scalars.
  Rng rng(0xD5);
  const auto edges = edge_scalars();
  for (std::size_t i = 0; i < 2000; ++i) {
    const bool edge = i < edges.size() * edges.size();
    const auto s = edge ? edges[i / edges.size()] : array32(rng.bytes(32));
    const auto k = edge ? edges[i % edges.size()] : array32(rng.bytes(32));
    const auto neg_a = detail::ge_neg(random_point(rng));
    const auto expected = detail::ge_add(textbook_mul(detail::ge_base(), s),
                                         textbook_mul(neg_a, k));
    EXPECT_TRUE(detail::ge_equal(
        detail::ge_double_scalarmult_vartime(k, neg_a, s), expected))
        << "triple " << i;
  }
}

TEST(Ge25519, ScalarMultBaseMatchesTextbook) {
  // Every scalar below 2^255 is in the contract (clamped keys, nonces < L).
  Rng rng(0xB5);
  auto edges = edge_scalars();
  edges.pop_back();  // 2^256 - 1 and 2^255 are out of range
  edges.pop_back();
  for (std::size_t i = 0; i < 200; ++i) {
    auto a = i < edges.size() ? edges[i] : array32(rng.bytes(32));
    a[31] &= 0x7F;
    EXPECT_TRUE(detail::ge_equal(detail::ge_scalarmult_base(a),
                                 textbook_mul(detail::ge_base(), a)))
        << "scalar " << i;
  }
}

TEST(Ge25519, CompressDecompressRoundTrip) {
  Rng rng(23);
  auto p = detail::ge_base();
  for (int i = 0; i < 20; ++i) {
    p = detail::ge_double(p);
    const auto enc = detail::ge_to_bytes(p);
    const auto q = detail::ge_from_bytes(enc);
    ASSERT_TRUE(q.has_value());
    EXPECT_TRUE(detail::ge_equal(p, *q));
  }
}

// ------------------------------------------------------------- scalars

TEST(Sc25519, ReduceSmallIdentity) {
  detail::Scalar s{};
  s[0] = 42;
  EXPECT_EQ(detail::sc_reduce32(s), s);
}

TEST(Sc25519, LReducesToZero) {
  // L itself must reduce to zero.
  std::array<std::uint8_t, 64> l{};
  const Bytes l_bytes = from_hex(
      "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  std::copy(l_bytes.begin(), l_bytes.end(), l.begin());
  const auto r = detail::sc_reduce64(l);
  for (auto b : r) EXPECT_EQ(b, 0);
}

// Textbook reference for the Barrett reduction: MSB-first binary long
// division by L.
detail::Scalar reduce_reference(const std::array<std::uint8_t, 64>& in) {
  using u64 = std::uint64_t;
  const auto l_bytes = bytes32(kLHex);
  u64 l[4] = {}, r[4] = {};
  for (std::size_t i = 0; i < 32; ++i) {
    l[i / 8] |= u64(l_bytes[i]) << (8 * (i % 8));
  }
  for (std::size_t bit = 512; bit-- > 0;) {
    for (std::size_t w = 3; w > 0; --w) r[w] = (r[w] << 1) | (r[w - 1] >> 63);
    r[0] = (r[0] << 1) | ((in[bit / 8] >> (bit % 8)) & 1);
    bool at_least_l = true;
    for (std::size_t w = 4; w-- > 0;) {
      if (r[w] != l[w]) {
        at_least_l = r[w] > l[w];
        break;
      }
    }
    if (!at_least_l) continue;
    u64 borrow = 0;
    for (std::size_t w = 0; w < 4; ++w) {
      const u64 sub = l[w] + borrow;  // no word of L is all ones
      borrow = r[w] < sub ? 1 : 0;
      r[w] -= sub;
    }
  }
  detail::Scalar out{};
  for (std::size_t i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(r[i / 8] >> (8 * (i % 8)));
  }
  return out;
}

TEST(Sc25519, ReduceMatchesLongDivision) {
  Rng rng(0x5C);
  std::vector<std::array<std::uint8_t, 64>> inputs(4);
  inputs[1].fill(0xFF);  // 2^512 - 1
  const auto l = bytes32(kLHex), l_minus_1 = bytes32(kLMinus1Hex);
  std::copy(l.begin(), l.end(), inputs[2].begin());
  std::copy(l_minus_1.begin(), l_minus_1.end(), inputs[3].begin());
  for (int i = 0; i < 2000; ++i) {
    const Bytes b = rng.bytes(64);
    std::copy(b.begin(), b.end(), inputs.emplace_back().begin());
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(detail::sc_reduce64(inputs[i]), reduce_reference(inputs[i]))
        << "input " << i;
  }
}

TEST(Sc25519, MulAddMatchesManualSmall) {
  detail::Scalar a{}, b{}, c{};
  a[0] = 7;
  b[0] = 9;
  c[0] = 5;
  const auto r = detail::sc_muladd(a, b, c);
  EXPECT_EQ(r[0], 68);
  for (std::size_t i = 1; i < r.size(); ++i) EXPECT_EQ(r[i], 0);
}

TEST(Sc25519, CanonicalBoundary) {
  const Bytes l_bytes = from_hex(
      "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  detail::Scalar l{};
  std::copy(l_bytes.begin(), l_bytes.end(), l.begin());
  EXPECT_FALSE(detail::sc_is_canonical(l));
  detail::Scalar l_minus_1 = l;
  l_minus_1[0] -= 1;
  EXPECT_TRUE(detail::sc_is_canonical(l_minus_1));
  detail::Scalar zero{};
  EXPECT_TRUE(detail::sc_is_canonical(zero));
}

// ------------------------------------------------------------- Ed25519

struct Rfc8032Vector {
  const char* seed;
  const char* public_key;
  const char* message;
  const char* signature;
};

// Test vectors from RFC 8032 §7.1 (TEST 1, TEST 2, TEST 3).
const Rfc8032Vector kVectors[] = {
    {"9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
     "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a", "",
     "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
     "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
    {"4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
     "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c", "72",
     "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
     "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
    {"c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
     "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
     "af82",
     "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
     "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"},
};

class Rfc8032Test : public ::testing::TestWithParam<Rfc8032Vector> {};

TEST_P(Rfc8032Test, PublicKeyDerivation) {
  const auto& v = GetParam();
  Seed seed{};
  const Bytes sb = from_hex(v.seed);
  std::copy(sb.begin(), sb.end(), seed.begin());
  EXPECT_EQ(hex_of(derive_public_key(seed)), v.public_key);
}

TEST_P(Rfc8032Test, Sign) {
  const auto& v = GetParam();
  Seed seed{};
  const Bytes sb = from_hex(v.seed);
  std::copy(sb.begin(), sb.end(), seed.begin());
  const Bytes msg = from_hex(v.message);
  EXPECT_EQ(hex_of(sign(span_of(msg), seed)), v.signature);
}

TEST_P(Rfc8032Test, Verify) {
  const auto& v = GetParam();
  PublicKey pub{};
  const Bytes pb = from_hex(v.public_key);
  std::copy(pb.begin(), pb.end(), pub.begin());
  Signature sig{};
  const Bytes gb = from_hex(v.signature);
  std::copy(gb.begin(), gb.end(), sig.begin());
  const Bytes msg = from_hex(v.message);
  EXPECT_TRUE(verify(span_of(msg), sig, pub));
}

INSTANTIATE_TEST_SUITE_P(Rfc8032, Rfc8032Test, ::testing::ValuesIn(kVectors));

TEST(Ed25519, SignVerifyRoundTrip) {
  Rng rng(31);
  for (int i = 0; i < 10; ++i) {
    Seed seed{};
    const Bytes sb = rng.bytes(32);
    std::copy(sb.begin(), sb.end(), seed.begin());
    const auto kp = keypair_from_seed(seed);
    const Bytes msg = rng.bytes(1 + rng.uniform(200));
    const auto sig = sign(span_of(msg), kp.seed);
    EXPECT_TRUE(verify(span_of(msg), sig, kp.public_key));
  }
}

TEST(Ed25519, BitFlipsAreRejected) {
  Rng rng(37);
  Seed seed{};
  const Bytes sb = rng.bytes(32);
  std::copy(sb.begin(), sb.end(), seed.begin());
  const auto kp = keypair_from_seed(seed);
  const Bytes msg = rng.bytes(64);
  const auto sig = sign(span_of(msg), kp.seed);

  for (int trial = 0; trial < 40; ++trial) {
    // Flip one random bit in the signature.
    Signature bad = sig;
    const std::size_t bit = rng.uniform(bad.size() * 8);
    bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(verify(span_of(msg), bad, kp.public_key));
  }
  for (int trial = 0; trial < 20; ++trial) {
    // Flip one random bit in the message.
    Bytes bad = msg;
    const std::size_t bit = rng.uniform(bad.size() * 8);
    bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(verify(span_of(bad), sig, kp.public_key));
  }
}

TEST(Ed25519, WrongKeyRejected) {
  Rng rng(41);
  Seed s1{}, s2{};
  auto b1 = rng.bytes(32), b2 = rng.bytes(32);
  std::copy(b1.begin(), b1.end(), s1.begin());
  std::copy(b2.begin(), b2.end(), s2.begin());
  const auto kp1 = keypair_from_seed(s1);
  const auto kp2 = keypair_from_seed(s2);
  const Bytes msg = ritm::bytes_of("signed root");
  const auto sig = sign(span_of(msg), kp1.seed);
  EXPECT_TRUE(verify(span_of(msg), sig, kp1.public_key));
  EXPECT_FALSE(verify(span_of(msg), sig, kp2.public_key));
}

TEST(Ed25519, NonCanonicalSRejected) {
  // Construct a signature whose S >= L; verify must fail before any group op.
  Signature sig{};
  sig.fill(0xFF);
  PublicKey pub{};
  pub.fill(0);
  pub[0] = 1;
  const Bytes msg = ritm::bytes_of("x");
  EXPECT_FALSE(verify(span_of(msg), sig, pub));
}

// ------------------------------------------------ pinned verify verdicts
//
// The verdicts below were recorded from the original verify kernel (two
// independent fixed-window ladders, [s]B == R + [k]A) before the joint
// double-scalar kernel replaced it. A flipped verdict changes which
// signatures RITM accepts, so it is a protocol change, not a speedup.

struct NamedEncoding {
  std::string name;
  std::array<std::uint8_t, 32> enc;
};

struct EdgeFixture {
  Bytes msg = ritm::bytes_of("ritm edge");
  KeyPair kp{};
  Signature sig{};
  std::vector<NamedEncoding> points;  // used both as A and as R
  std::vector<NamedEncoding> scalars;
};

EdgeFixture edge_fixture() {
  EdgeFixture f;
  Seed seed{};
  seed.fill(0x5A);
  f.kp = keypair_from_seed(seed);
  f.sig = sign(span_of(f.msg), f.kp.seed);
  std::array<std::uint8_t, 32> r_real{}, s_real{};
  std::copy(f.sig.begin(), f.sig.begin() + 32, r_real.begin());
  std::copy(f.sig.begin() + 32, f.sig.end(), s_real.begin());

  const char* kOrder8 =
      "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a";
  const auto t8 = *detail::ge_from_bytes(bytes32(kOrder8));
  const auto a_pt = *detail::ge_from_bytes(f.kp.public_key);
  f.points = {
      {"id", bytes32("01000000000000000000000000000000"
                     "00000000000000000000000000000000")},
      {"-0id", bytes32("01000000000000000000000000000000"
                       "00000000000000000000000000000080")},
      {"ord2", bytes32("ecffffffffffffffffffffffffffffff"
                       "ffffffffffffffffffffffffffffff7f")},
      {"-0ord2", bytes32("ecffffffffffffffffffffffffffffff"
                         "ffffffffffffffffffffffffffffffff")},
      {"ord4+", bytes32("00000000000000000000000000000000"
                        "00000000000000000000000000000000")},
      {"ord4-", bytes32("00000000000000000000000000000000"
                        "00000000000000000000000000000080")},
      {"ord8a", bytes32(kOrder8)},
      {"ord8b", bytes32("c7176a703d4dd84fba3c0b760d10670f"
                        "2a2053fa2c39ccc64ec7fd7792ac03fa")},
      {"ord8c", bytes32("26e8958fc2b227b045c3f489f2ef98f0"
                        "d5dfac05d3c63339b13802886d53fc05")},
      {"ord8d", bytes32("26e8958fc2b227b045c3f489f2ef98f0"
                        "d5dfac05d3c63339b13802886d53fc85")},
      // y >= p: non-canonical encodings of y = 0 and y = 1.
      {"y=p", bytes32("edffffffffffffffffffffffffffffff"
                      "ffffffffffffffffffffffffffffff7f")},
      {"y=p,-", bytes32("edffffffffffffffffffffffffffffff"
                        "ffffffffffffffffffffffffffffffff")},
      {"y=p+1", bytes32("eeffffffffffffffffffffffffffffff"
                        "ffffffffffffffffffffffffffffff7f")},
      {"y=p+1,-", bytes32("eeffffffffffffffffffffffffffffff"
                          "ffffffffffffffffffffffffffffffff")},
      {"y=2^255-1", bytes32("ffffffffffffffffffffffffffffffff"
                            "ffffffffffffffffffffffffffffff7f")},
      {"offcurve", bytes32("02000000000000000000000000000000"
                           "00000000000000000000000000000000")},
      {"B", detail::ge_to_bytes(detail::ge_base())},
      {"B+T8", detail::ge_to_bytes(detail::ge_add(detail::ge_base(), t8))},
      {"A", f.kp.public_key},
      {"A+T8", detail::ge_to_bytes(detail::ge_add(a_pt, t8))},
      {"R", r_real},
  };
  std::array<std::uint8_t, 32> one{};
  one[0] = 1;
  std::array<std::uint8_t, 32> all_ones{};
  all_ones.fill(0xFF);
  f.scalars = {
      {"0", {}},
      {"1", one},
      {"s", s_real},
      {"L-1", bytes32(kLMinus1Hex)},
      {"L", bytes32(kLHex)},
      {"2^256-1", all_ones},
  };
  return f;
}

TEST(Ed25519Pinned, EdgeEncodingsAreWhatTheyClaim) {
  const auto f = edge_fixture();
  auto find = [&](const std::string& name) {
    for (const auto& p : f.points) {
      if (p.name == name) return detail::ge_from_bytes(p.enc);
    }
    ADD_FAILURE() << name;
    return std::optional<detail::Ge>();
  };
  for (const char* name : {"-0id", "-0ord2", "offcurve"}) {
    EXPECT_FALSE(find(name).has_value()) << name;
  }
  for (const char* name : {"id", "ord2", "ord4+", "ord4-", "ord8a", "ord8b",
                           "ord8c", "ord8d", "y=p", "y=p,-", "y=p+1"}) {
    const auto p = find(name);
    ASSERT_TRUE(p.has_value()) << name;
    const auto p8 = detail::ge_double(detail::ge_double(detail::ge_double(*p)));
    EXPECT_TRUE(detail::ge_equal(p8, detail::ge_identity())) << name;
  }
}

// Every (A, R, S) in the grid edge points x edge points x edge scalars is
// verified over one message; the accepted triples are pinned, every other
// triple must be rejected.
TEST(Ed25519Pinned, EdgeGridVerdicts) {
  const auto f = edge_fixture();
  std::vector<std::string> accepted;
  for (const auto& a : f.points) {
    for (const auto& r : f.points) {
      for (const auto& s : f.scalars) {
        Signature sig{};
        std::copy(r.enc.begin(), r.enc.end(), sig.begin());
        std::copy(s.enc.begin(), s.enc.end(), sig.begin() + 32);
        if (verify(span_of(f.msg), sig, a.enc)) {
          accepted.push_back(a.name + "/" + r.name + "/" + s.name);
        }
      }
    }
  }
  const std::vector<std::string> expected = {
      "id/id/0", "id/y=p+1/0", "id/B/1", "ord2/id/0", "ord2/y=p+1/0",
      "ord2/B/1", "ord4+/id/0", "ord4+/ord2/0", "ord8a/ord2/0",
      "ord8a/B+T8/1", "ord8b/ord2/0", "ord8b/B+T8/1", "ord8c/ord8c/0",
      "ord8c/B+T8/1", "ord8d/ord8a/0", "ord8d/ord8b/0", "y=p/ord2/0",
      "y=p/y=p,-/0", "y=p/y=p+1/0", "y=p,-/ord2/0", "y=p,-/ord4-/0",
      "y=p,-/y=p,-/0", "y=p,-/B/1", "y=p+1/id/0", "y=p+1/y=p+1/0",
      "y=p+1/B/1", "A/R/s"};
  EXPECT_EQ(accepted, expected) << ::testing::PrintToString(accepted);
}

// 2,000 random keys and messages; each signature is checked, then one byte
// of (signature || public key || message) is replaced by a different value.
TEST(Ed25519Pinned, MutatedSignatureVerdicts) {
  Rng rng(0xED25519);
  std::vector<int> accepted_mutants;
  for (int i = 0; i < 2000; ++i) {
    Seed seed{};
    const Bytes sb = rng.bytes(32);
    std::copy(sb.begin(), sb.end(), seed.begin());
    const auto kp = keypair_from_seed(seed);
    Bytes msg = rng.bytes(rng.uniform(48));
    Signature sig = sign(span_of(msg), kp.seed);
    PublicKey pub = kp.public_key;
    ASSERT_TRUE(verify(span_of(msg), sig, pub)) << i;

    const std::size_t pos = rng.uniform(64 + 32 + msg.size());
    const auto delta = static_cast<std::uint8_t>(1 + rng.uniform(255));
    if (pos < 64) {
      sig[pos] ^= delta;
    } else if (pos < 96) {
      pub[pos - 64] ^= delta;
    } else {
      msg[pos - 96] ^= delta;
    }
    if (verify(span_of(msg), sig, pub)) accepted_mutants.push_back(i);
  }
  EXPECT_EQ(accepted_mutants, std::vector<int>{});
}

// ------------------------------------------------------------ hash chain

TEST(HashChain, StatementVerifies) {
  Digest20 v{};
  v.fill(0xAB);
  HashChain chain(v, 100);
  for (std::size_t p = 0; p <= 100; ++p) {
    EXPECT_TRUE(HashChain::verify(chain.statement(p), p, chain.anchor()));
  }
}

TEST(HashChain, WrongStepCountFails) {
  Digest20 v{};
  v.fill(0xCD);
  HashChain chain(v, 50);
  EXPECT_FALSE(HashChain::verify(chain.statement(10), 9, chain.anchor()));
  EXPECT_FALSE(HashChain::verify(chain.statement(10), 11, chain.anchor()));
}

TEST(HashChain, ForgedStatementFails) {
  Digest20 v{};
  v.fill(0xEF);
  HashChain chain(v, 50);
  Digest20 forged = chain.statement(10);
  forged[0] ^= 1;
  EXPECT_FALSE(HashChain::verify(forged, 10, chain.anchor()));
}

TEST(HashChain, StatementBeyondLengthThrows) {
  Digest20 v{};
  HashChain chain(v, 5);
  EXPECT_THROW(chain.statement(6), std::out_of_range);
}

TEST(HashChain, AnchorIsStatementZero) {
  Digest20 v{};
  v.fill(0x33);
  HashChain chain(v, 7);
  EXPECT_EQ(chain.statement(0), chain.anchor());
}

TEST(HashChain, CannotWalkBackward) {
  // Knowing H^(m-p) gives you H^(m-p+1).. for free but the test asserts the
  // forward relation: advancing a later statement yields an earlier one.
  Digest20 v{};
  v.fill(0x44);
  HashChain chain(v, 20);
  EXPECT_EQ(HashChain::advance(chain.statement(10), 3), chain.statement(7));
}

}  // namespace
}  // namespace ritm::crypto
