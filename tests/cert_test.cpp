// Certificate-lite tests: serials, encoding round-trips, signature
// verification, and chain validation.
#include <gtest/gtest.h>

#include "cert/certificate.hpp"
#include "common/rng.hpp"

namespace ritm::cert {
namespace {

crypto::KeyPair test_keypair(std::uint64_t seed_val) {
  Rng rng(seed_val);
  crypto::Seed seed{};
  const Bytes b = rng.bytes(32);
  std::copy(b.begin(), b.end(), seed.begin());
  return crypto::keypair_from_seed(seed);
}

Certificate make_cert(const std::string& subject, const CaId& issuer,
                      std::uint64_t serial, const crypto::KeyPair& issuer_kp,
                      const crypto::PublicKey& subject_key,
                      UnixSeconds not_before = 0,
                      UnixSeconds not_after = 1'000'000'000) {
  Certificate c;
  c.serial = SerialNumber::from_uint(serial);
  c.issuer = issuer;
  c.subject = subject;
  c.not_before = not_before;
  c.not_after = not_after;
  c.subject_key = subject_key;
  const Bytes tbs = c.tbs();
  c.signature = crypto::sign(ByteSpan(tbs), issuer_kp.seed);
  return c;
}

TEST(SerialNumber, FromUintBigEndian) {
  const auto s = SerialNumber::from_uint(0x01020304, 4);
  EXPECT_EQ(s.value, (Bytes{0x01, 0x02, 0x03, 0x04}));
  EXPECT_EQ(s.to_hex(), "01020304");
}

TEST(SerialNumber, DefaultWidthIs3Bytes) {
  // The paper's dataset analysis: 3-byte serials are the most common size.
  EXPECT_EQ(SerialNumber::from_uint(7).value.size(), 3u);
}

TEST(SerialNumber, WidthBoundsChecked) {
  EXPECT_THROW(SerialNumber::from_uint(1, 0), std::invalid_argument);
  EXPECT_THROW(SerialNumber::from_uint(1, 21), std::invalid_argument);
}

TEST(SerialNumber, WideSerialsAreZeroPadded) {
  const auto s = SerialNumber::from_uint(0x0102030405060708ull, 20);
  Bytes expect(20, 0);
  for (std::size_t i = 0; i < 8; ++i) expect[12 + i] = std::uint8_t(i + 1);
  EXPECT_EQ(s.value, expect);
}

TEST(SerialNumber, Ordering) {
  EXPECT_LT(SerialNumber::from_uint(1), SerialNumber::from_uint(2));
  EXPECT_EQ(SerialNumber::from_uint(5), SerialNumber::from_uint(5));
}

TEST(Certificate, EncodeDecodeRoundTrip) {
  const auto ca = test_keypair(1);
  const auto subject = test_keypair(2);
  const auto c = make_cert("example.com", "CA-1", 0x73E10A5, ca,
                           subject.public_key);
  const Bytes enc = c.encode();
  const auto dec = Certificate::decode(ByteSpan(enc));
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->serial, c.serial);
  EXPECT_EQ(dec->issuer, "CA-1");
  EXPECT_EQ(dec->subject, "example.com");
  EXPECT_EQ(dec->subject_key, c.subject_key);
  EXPECT_EQ(dec->signature, c.signature);
}

TEST(Certificate, DecodeRejectsTruncation) {
  const auto ca = test_keypair(1);
  const auto c =
      make_cert("example.com", "CA-1", 1, ca, test_keypair(2).public_key);
  Bytes enc = c.encode();
  for (std::size_t cut : {std::size_t(0), std::size_t(1), enc.size() / 2,
                          enc.size() - 1}) {
    EXPECT_FALSE(Certificate::decode(ByteSpan(enc.data(), cut)).has_value());
  }
}

TEST(Certificate, DecodeRejectsTrailingGarbage) {
  const auto ca = test_keypair(1);
  const auto c =
      make_cert("example.com", "CA-1", 1, ca, test_keypair(2).public_key);
  Bytes enc = c.encode();
  enc.push_back(0x00);
  EXPECT_FALSE(Certificate::decode(ByteSpan(enc)).has_value());
}

TEST(Certificate, SignatureVerifies) {
  const auto ca = test_keypair(3);
  const auto c =
      make_cert("a.example", "CA-1", 9, ca, test_keypair(4).public_key);
  EXPECT_TRUE(c.verify_signature(ca.public_key));
  EXPECT_FALSE(c.verify_signature(test_keypair(5).public_key));
}

TEST(Certificate, TamperedFieldBreaksSignature) {
  const auto ca = test_keypair(3);
  auto c = make_cert("a.example", "CA-1", 9, ca, test_keypair(4).public_key);
  c.subject = "evil.example";
  EXPECT_FALSE(c.verify_signature(ca.public_key));
}

TEST(Certificate, ValidityWindow) {
  const auto ca = test_keypair(6);
  const auto c = make_cert("a.example", "CA-1", 1, ca,
                           test_keypair(7).public_key, 100, 200);
  EXPECT_FALSE(c.valid_at(99));
  EXPECT_TRUE(c.valid_at(100));
  EXPECT_TRUE(c.valid_at(200));
  EXPECT_FALSE(c.valid_at(201));
}

TEST(Chain, EncodeDecodeRoundTrip) {
  const auto ca = test_keypair(8);
  Chain chain;
  chain.push_back(
      make_cert("leaf.example", "CA-1", 1, ca, test_keypair(9).public_key));
  chain.push_back(
      make_cert("CA-1", "ROOT", 2, ca, ca.public_key));
  const Bytes enc = encode_chain(chain);
  const auto dec = decode_chain(ByteSpan(enc));
  ASSERT_TRUE(dec.has_value());
  ASSERT_EQ(dec->size(), 2u);
  EXPECT_EQ((*dec)[0].subject, "leaf.example");
  EXPECT_EQ((*dec)[1].subject, "CA-1");
}

TEST(TrustStore, AddAndFind) {
  TrustStore store;
  const auto ca = test_keypair(10);
  store.add("CA-1", ca.public_key);
  EXPECT_TRUE(store.find("CA-1").has_value());
  EXPECT_FALSE(store.find("CA-2").has_value());
  // Re-adding replaces.
  const auto ca2 = test_keypair(11);
  store.add("CA-1", ca2.public_key);
  EXPECT_EQ(*store.find("CA-1"), ca2.public_key);
  EXPECT_EQ(store.size(), 1u);
}

class ChainValidationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_kp_ = test_keypair(20);
    intermediate_kp_ = test_keypair(21);
    leaf_kp_ = test_keypair(22);
    roots_.add("ROOT-CA", root_kp_.public_key);

    intermediate_ = make_cert("INT-CA", "ROOT-CA", 100, root_kp_,
                              intermediate_kp_.public_key);
    leaf_ = make_cert("www.example.com", "INT-CA", 101, intermediate_kp_,
                      leaf_kp_.public_key);
  }

  crypto::KeyPair root_kp_, intermediate_kp_, leaf_kp_;
  TrustStore roots_;
  Certificate intermediate_, leaf_;
};

TEST_F(ChainValidationTest, ValidTwoLinkChain) {
  EXPECT_EQ(validate_chain({leaf_, intermediate_}, roots_, 500),
            ChainError::ok);
}

TEST_F(ChainValidationTest, DirectlyIssuedLeaf) {
  const auto direct =
      make_cert("direct.example", "ROOT-CA", 102, root_kp_, leaf_kp_.public_key);
  EXPECT_EQ(validate_chain({direct}, roots_, 500), ChainError::ok);
}

TEST_F(ChainValidationTest, EmptyChain) {
  EXPECT_EQ(validate_chain({}, roots_, 500), ChainError::empty);
}

TEST_F(ChainValidationTest, ExpiredLeaf) {
  auto expired = make_cert("www.example.com", "INT-CA", 103, intermediate_kp_,
                           leaf_kp_.public_key, 0, 400);
  EXPECT_EQ(validate_chain({expired, intermediate_}, roots_, 500),
            ChainError::expired);
}

TEST_F(ChainValidationTest, UntrustedRoot) {
  auto rogue_kp = test_keypair(30);
  auto rogue = make_cert("www.example.com", "ROGUE-CA", 104, rogue_kp,
                         leaf_kp_.public_key);
  EXPECT_EQ(validate_chain({rogue}, roots_, 500), ChainError::untrusted_root);
}

TEST_F(ChainValidationTest, IssuerMismatch) {
  auto other = make_cert("www.example.com", "OTHER-CA", 105, intermediate_kp_,
                         leaf_kp_.public_key);
  EXPECT_EQ(validate_chain({other, intermediate_}, roots_, 500),
            ChainError::issuer_mismatch);
}

TEST_F(ChainValidationTest, ForgedIntermediateSignature) {
  auto forged = leaf_;
  forged.signature[0] ^= 1;
  EXPECT_EQ(validate_chain({forged, intermediate_}, roots_, 500),
            ChainError::bad_signature);
}

}  // namespace
}  // namespace ritm::cert
