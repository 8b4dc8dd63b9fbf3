// Tests for the §VIII extension features: certificate-chain proofs,
// bootstrap manifests, and gossip-based consistency checking.
#include <gtest/gtest.h>

#include "ca/authority.hpp"
#include "ca/manifest.hpp"
#include "client/client.hpp"
#include "ra/agent.hpp"
#include "ra/gossip.hpp"
#include "tls/session.hpp"

namespace ritm {
namespace {

using cert::SerialNumber;

constexpr UnixSeconds kDelta = 10;

ca::CertificationAuthority make_ca(const cert::CaId& id, std::uint64_t seed,
                                   UnixSeconds now = 1000) {
  Rng rng(seed);
  ca::CertificationAuthority::Config cfg;
  cfg.id = id;
  cfg.delta = kDelta;
  cfg.chain_length = 128;
  return ca::CertificationAuthority(cfg, rng, now);
}

// ----------------------------------------------------------- chain proofs

class ChainProofTest : public ::testing::Test {
 protected:
  ChainProofTest()
      : root_ca_(make_ca("ROOT-CA", 1)),
        int_ca_(make_ca("INT-CA", 2)) {
    store_.register_ca(root_ca_.id(), root_ca_.public_key(), kDelta);
    store_.register_ca(int_ca_.id(), int_ca_.public_key(), kDelta);
    roots_.add(root_ca_.id(), root_ca_.public_key());
    roots_.add(int_ca_.id(), int_ca_.public_key());

    // Non-empty dictionaries + current freshness.
    store_.apply_issuance(
        root_ca_.revoke({SerialNumber::from_uint(900001, 3)}, 1000), 1000);
    store_.apply_issuance(
        int_ca_.revoke({SerialNumber::from_uint(900002, 3)}, 1000), 1000);

    crypto::Seed s{};
    s.fill(0x77);
    const auto kp = crypto::keypair_from_seed(s);
    // Chain: leaf (issued by INT-CA), intermediate (issued by ROOT-CA).
    intermediate_ = root_ca_.issue("INT-CA", int_ca_.public_key(), 0,
                                   10'000'000);
    leaf_ = int_ca_.issue("www.example.com", kp.public_key, 0, 10'000'000);
  }

  sim::Packet run_handshake(ra::RevocationAgent& agent, UnixSeconds now) {
    store_.apply_freshness({root_ca_.id(), root_ca_.freshness_at(now)}, now);
    store_.apply_freshness({int_ca_.id(), int_ca_.freshness_at(now)}, now);
    auto ch = tls::make_client_hello(ce_, se_, rng_, true);
    agent.process(ch, now);
    auto flight = tls::make_server_flight(ce_, se_, rng_,
                                          {leaf_, intermediate_}, false);
    agent.process(flight, now);
    return flight;
  }

  Rng rng_{3};
  ca::CertificationAuthority root_ca_, int_ca_;
  ra::DictionaryStore store_;
  cert::TrustStore roots_;
  cert::Certificate intermediate_, leaf_;
  sim::Endpoint ce_{sim::Endpoint::parse_ip("10.0.0.1"), 1234};
  sim::Endpoint se_{sim::Endpoint::parse_ip("10.0.0.2"), 443};
};

TEST_F(ChainProofTest, AgentAttachesOneStatusPerChainCert) {
  ra::RevocationAgent agent({.delta = kDelta, .chain_proofs = true}, &store_);
  auto flight = run_handshake(agent, 2000);
  auto statuses = ra::strip_status(flight);
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_EQ(statuses[0].signed_root.ca, "INT-CA");   // leaf issuer first
  EXPECT_EQ(statuses[1].signed_root.ca, "ROOT-CA");  // intermediate issuer
}

TEST_F(ChainProofTest, LeafOnlyModeAttachesOne) {
  ra::RevocationAgent agent({.delta = kDelta, .chain_proofs = false}, &store_);
  auto flight = run_handshake(agent, 2000);
  EXPECT_EQ(ra::strip_status(flight).size(), 1u);
}

TEST_F(ChainProofTest, ClientAcceptsFullChainProofs) {
  ra::RevocationAgent agent({.delta = kDelta, .chain_proofs = true}, &store_);
  client::RitmClient client({.delta = kDelta,
                             .expect_ritm = true,
                             .require_server_confirmation = false,
                             .require_chain_proofs = true},
                            roots_);
  auto flight = run_handshake(agent, 2000);
  EXPECT_EQ(client.process_server_flight(flight, 2000),
            client::Verdict::accepted);
}

TEST_F(ChainProofTest, ClientRejectsMissingIntermediateProof) {
  // RA in leaf-only mode, client demanding chain proofs: reject.
  ra::RevocationAgent agent({.delta = kDelta, .chain_proofs = false}, &store_);
  client::RitmClient client({.delta = kDelta,
                             .expect_ritm = true,
                             .require_server_confirmation = false,
                             .require_chain_proofs = true},
                            roots_);
  auto flight = run_handshake(agent, 2000);
  EXPECT_EQ(client.process_server_flight(flight, 2000),
            client::Verdict::missing_status);
}

TEST_F(ChainProofTest, RevokedIntermediateRejected) {
  // Revoking the intermediate CA certificate kills the whole chain.
  store_.apply_issuance(root_ca_.revoke({intermediate_.serial}, 2000), 2000);
  ra::RevocationAgent agent({.delta = kDelta, .chain_proofs = true}, &store_);
  client::RitmClient client({.delta = kDelta,
                             .expect_ritm = true,
                             .require_server_confirmation = false,
                             .require_chain_proofs = true},
                            roots_);
  auto flight = run_handshake(agent, 2010);
  EXPECT_EQ(client.process_server_flight(flight, 2010),
            client::Verdict::revoked);
}

// ----------------------------------------------------------- manifest

TEST(Manifest, RoundTripAndVerify) {
  Rng rng(9);
  crypto::Seed s{};
  const Bytes b = rng.bytes(32);
  std::copy(b.begin(), b.end(), s.begin());
  const auto kp = crypto::keypair_from_seed(s);

  const auto m = ca::Manifest::make("CA-7", 30, 123456, kp);
  const auto dec = ca::Manifest::decode(ByteSpan(m.encode()));
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->ca, "CA-7");
  EXPECT_EQ(dec->delta, 30);
  EXPECT_EQ(dec->dictionary_size, 123456u);
  EXPECT_TRUE(dec->verify(kp.public_key));
}

TEST(Manifest, TamperedDeltaRejected) {
  Rng rng(10);
  crypto::Seed s{};
  const Bytes b = rng.bytes(32);
  std::copy(b.begin(), b.end(), s.begin());
  const auto kp = crypto::keypair_from_seed(s);
  auto m = ca::Manifest::make("CA-7", 30, 1, kp);
  m.delta = 86400;  // attacker stretches the attack window
  EXPECT_FALSE(m.verify(kp.public_key));
}

TEST(Manifest, AuthorityManifestDecodes) {
  auto ca = make_ca("CA-M", 11);
  ca.revoke({SerialNumber::from_uint(5)}, 1000);
  const auto dec = ca::Manifest::decode(ByteSpan(ca.manifest()));
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->ca, "CA-M");
  EXPECT_EQ(dec->delta, kDelta);
  EXPECT_EQ(dec->dictionary_size, 1u);
  EXPECT_TRUE(dec->verify(ca.public_key()));
}

TEST(Manifest, DecodeRejectsGarbage) {
  EXPECT_FALSE(ca::Manifest::decode(ByteSpan(Bytes{1, 2, 3})));
  Rng rng(12);
  const Bytes noise = rng.bytes(120);
  EXPECT_FALSE(ca::Manifest::decode(ByteSpan(noise)));
}

// ----------------------------------------------------------- gossip

class GossipTest : public ::testing::Test {
 protected:
  GossipTest() : ca_(make_ca("CA-G", 20)) {
    keys_.add(ca_.id(), ca_.public_key());
  }
  ca::CertificationAuthority ca_;
  cert::TrustStore keys_;
};

TEST_F(GossipTest, ConsistentRootsProduceNoEvidence) {
  ra::GossipPool a(&keys_), b(&keys_);
  const auto msg = ca_.revoke({SerialNumber::from_uint(1)}, 1000);
  EXPECT_FALSE(a.observe(msg.signed_root).has_value());
  EXPECT_FALSE(b.observe(msg.signed_root).has_value());
  EXPECT_TRUE(a.exchange(b).empty());
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 1u);
}

TEST_F(GossipTest, SplitViewSurfacesOnExchange) {
  ra::GossipPool alice(&keys_), bob(&keys_);
  const auto hide = SerialNumber::from_uint(13);
  const auto honest = ca_.revoke({SerialNumber::from_uint(12), hide}, 1000);
  alice.observe(honest.signed_root);

  ca::MisbehavingCa evil(ca_);
  const auto fake = evil.view_without(hide, 1000);
  bob.observe(fake.signed_root);

  const auto evidence = alice.exchange(bob);
  ASSERT_FALSE(evidence.empty());
  EXPECT_TRUE(evidence[0].ours.verify(ca_.public_key()));
  EXPECT_TRUE(evidence[0].theirs.verify(ca_.public_key()));
  EXPECT_EQ(evidence[0].ours.n, evidence[0].theirs.n);
  EXPECT_NE(evidence[0].ours.root, evidence[0].theirs.root);
}

TEST_F(GossipTest, ForgedRootsIgnored) {
  ra::GossipPool pool(&keys_);
  auto msg = ca_.revoke({SerialNumber::from_uint(1)}, 1000);
  msg.signed_root.signature[0] ^= 1;
  EXPECT_FALSE(pool.observe(msg.signed_root).has_value());
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.forged_dropped(), 1u);
}

TEST_F(GossipTest, IdenticalResendIsNeitherEvidenceNorForgery) {
  ra::GossipPool pool(&keys_);
  const auto msg = ca_.revoke({SerialNumber::from_uint(1)}, 1000);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(pool.observe(msg.signed_root).has_value());
  }
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.forged_dropped(), 0u);

  // Same (ca, n, root) with one signature bit flipped is not a duplicate:
  // it is verified, dropped as forged, and the held root stays.
  auto tampered = msg.signed_root;
  tampered.signature[5] ^= 0x10;
  EXPECT_FALSE(pool.observe(tampered).has_value());
  EXPECT_EQ(pool.forged_dropped(), 1u);
  ASSERT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.roots()[0], msg.signed_root);
}

TEST_F(GossipTest, UnknownCaIgnored) {
  ra::GossipPool pool(&keys_);
  auto other = make_ca("CA-OTHER", 21);
  const auto msg = other.revoke({SerialNumber::from_uint(1)}, 1000);
  EXPECT_FALSE(pool.observe(msg.signed_root).has_value());
  EXPECT_EQ(pool.size(), 0u);
}

TEST_F(GossipTest, TransitiveDetectionThroughMiddleman) {
  // Victim only ever talks to a relay; the honest root still reaches it.
  ra::GossipPool honest(&keys_), relay(&keys_), victim(&keys_);
  const auto hide = SerialNumber::from_uint(99);
  const auto truth = ca_.revoke({SerialNumber::from_uint(98), hide}, 1000);
  honest.observe(truth.signed_root);

  ca::MisbehavingCa evil(ca_);
  victim.observe(evil.view_without(hide, 1000).signed_root);

  EXPECT_TRUE(honest.exchange(relay).empty());      // relay learns the truth
  const auto evidence = relay.exchange(victim);     // conflict surfaces here
  EXPECT_FALSE(evidence.empty());
}

}  // namespace
}  // namespace ritm
