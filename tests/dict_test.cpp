// Authenticated-dictionary tests: Fig. 2 operations (insert / update /
// prove), Merkle proof verification, signed roots, wire messages, and the
// append-only/consistency invariants from DESIGN.md §5.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "crypto/sha256_engine.hpp"
#include "dict/dictionary.hpp"
#include "dict/messages.hpp"
#include "dict/signed_root.hpp"

namespace ritm::dict {
namespace {

using cert::SerialNumber;

SerialNumber sn(std::uint64_t v) { return SerialNumber::from_uint(v); }

/// Restores SHA-256 backend auto-detection when a backend-sweeping test
/// exits, even through a failed ASSERT, so a single divergence can't leak a
/// forced backend into every later test in this binary.
struct BackendGuard {
  ~BackendGuard() { crypto::sha256_reset_backend(); }
};

std::vector<SerialNumber> serial_range(std::uint64_t first,
                                       std::uint64_t count) {
  std::vector<SerialNumber> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) out.push_back(sn(first + i));
  return out;
}

// ------------------------------------------------------------- basics

TEST(Dictionary, EmptyDictionary) {
  Dictionary d;
  EXPECT_EQ(d.size(), 0u);
  EXPECT_EQ(d.root(), empty_root());
  EXPECT_FALSE(d.contains(sn(1)));
}

TEST(Dictionary, InsertAssignsConsecutiveNumbers) {
  Dictionary d;
  const auto added = d.insert({sn(30), sn(10), sn(20)});
  ASSERT_EQ(added.size(), 3u);
  EXPECT_EQ(added[0].number, 1u);
  EXPECT_EQ(added[1].number, 2u);
  EXPECT_EQ(added[2].number, 3u);
  EXPECT_EQ(d.number_of(sn(30)), 1u);
  EXPECT_EQ(d.number_of(sn(10)), 2u);
  EXPECT_EQ(d.number_of(sn(20)), 3u);
}

TEST(Dictionary, InsertIsIdempotent) {
  Dictionary d;
  d.insert({sn(1)});
  const auto root1 = d.root();
  const auto added = d.insert({sn(1)});
  EXPECT_TRUE(added.empty());
  EXPECT_EQ(d.size(), 1u);
  EXPECT_EQ(d.root(), root1);
}

TEST(Dictionary, RootChangesOnInsert) {
  Dictionary d;
  std::set<std::string> roots;
  roots.insert(ritm::to_hex(ByteSpan(d.root().data(), d.root().size())));
  for (std::uint64_t i = 1; i <= 20; ++i) {
    d.insert({sn(i)});
    roots.insert(ritm::to_hex(ByteSpan(d.root().data(), d.root().size())));
  }
  EXPECT_EQ(roots.size(), 21u);  // every insertion changes the root
}

TEST(Dictionary, OrderOfBatchInsertionMatters) {
  // Numbering depends on insertion order, so the roots differ — exactly the
  // property that makes revocation reordering detectable (§V).
  Dictionary a, b;
  a.insert({sn(1), sn(2)});
  b.insert({sn(2), sn(1)});
  EXPECT_NE(a.root(), b.root());
}

TEST(Dictionary, SameContentSameRoot) {
  Dictionary a, b;
  a.insert({sn(5), sn(3), sn(9)});
  b.insert({sn(5)});
  b.insert({sn(3)});
  b.insert({sn(9)});
  EXPECT_EQ(a.root(), b.root());  // same serials in same numbering order
}

TEST(Dictionary, EntriesFromReturnsSuffix) {
  Dictionary d;
  d.insert(serial_range(100, 10));
  const auto tail = d.entries_from(8);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].number, 8u);
  EXPECT_EQ(tail[2].number, 10u);
  EXPECT_TRUE(d.entries_from(11).empty());
  EXPECT_EQ(d.entries_from(0).size(), 10u);
  EXPECT_EQ(d.entries_from(1).size(), 10u);
}

// ------------------------------------------------------------- proofs

class ProofTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProofTest, PresenceProofsVerifyForAllEntries) {
  const std::uint64_t n = GetParam();
  Dictionary d;
  // Spread serials so absence queries exist between them.
  std::vector<SerialNumber> serials;
  for (std::uint64_t i = 0; i < n; ++i) serials.push_back(sn(2 * i + 1));
  d.insert(serials);
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto proof = d.prove(sn(2 * i + 1));
    EXPECT_EQ(proof.type, Proof::Type::presence);
    EXPECT_TRUE(verify_proof(proof, sn(2 * i + 1), d.root(), d.size()));
  }
}

TEST_P(ProofTest, AbsenceProofsVerifyBetweenAllEntries) {
  const std::uint64_t n = GetParam();
  Dictionary d;
  std::vector<SerialNumber> serials;
  for (std::uint64_t i = 0; i < n; ++i) serials.push_back(sn(2 * i + 1));
  d.insert(serials);
  // Query every even value: before, between, and after the leaves.
  for (std::uint64_t q = 0; q <= 2 * n; q += 2) {
    const auto proof = d.prove(sn(q));
    EXPECT_EQ(proof.type, Proof::Type::absence);
    EXPECT_TRUE(verify_proof(proof, sn(q), d.root(), d.size()))
        << "absence proof failed for q=" << q << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(TreeSizes, ProofTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 15, 16, 17,
                                           33, 100, 255, 256, 257));

TEST(Proof, EmptyDictionaryAbsence) {
  Dictionary d;
  const auto proof = d.prove(sn(42));
  EXPECT_EQ(proof.type, Proof::Type::absence);
  EXPECT_FALSE(proof.left || proof.right);
  EXPECT_TRUE(verify_proof(proof, sn(42), d.root(), 0));
}

TEST(Proof, WrongRootRejected) {
  Dictionary d;
  d.insert(serial_range(1, 50));
  auto proof = d.prove(sn(25));
  crypto::Digest20 wrong = d.root();
  wrong[0] ^= 1;
  EXPECT_FALSE(verify_proof(proof, sn(25), wrong, d.size()));
}

TEST(Proof, WrongCountRejected) {
  // The root alone binds the tree contents; n comes from the signed root.
  // Verification must still reject a count implying a different tree shape
  // (an off-by-one count with an identical shape is harmless: the recomputed
  // root could only match if the contents are the ones the CA signed).
  Dictionary d;
  d.insert(serial_range(1, 50));
  auto proof = d.prove(sn(25));
  EXPECT_FALSE(verify_proof(proof, sn(25), d.root(), 100));
  EXPECT_FALSE(verify_proof(proof, sn(25), d.root(), 25));
  EXPECT_FALSE(verify_proof(proof, sn(25), d.root(), 0));
}

TEST(Proof, PresenceProofForDifferentSerialRejected) {
  Dictionary d;
  d.insert(serial_range(1, 50));
  auto proof = d.prove(sn(25));
  EXPECT_FALSE(verify_proof(proof, sn(26), d.root(), d.size()));
}

TEST(Proof, AbsenceProofCannotHideRevokedSerial) {
  // An adversary (compromised RA) must not be able to take a valid absence
  // proof for serial x and pass it off for revoked serial y.
  Dictionary d;
  d.insert({sn(10), sn(20), sn(30)});
  auto absent_proof = d.prove(sn(15));  // valid absence between 10 and 20
  EXPECT_TRUE(verify_proof(absent_proof, sn(15), d.root(), d.size()));
  EXPECT_FALSE(verify_proof(absent_proof, sn(20), d.root(), d.size()));
  EXPECT_FALSE(verify_proof(absent_proof, sn(10), d.root(), d.size()));
}

TEST(Proof, TamperedPathRejected) {
  Dictionary d;
  d.insert(serial_range(1, 64));
  auto proof = d.prove(sn(32));
  ASSERT_TRUE(proof.leaf);
  ASSERT_FALSE(proof.leaf->path.empty());
  proof.leaf->path[0][0] ^= 1;
  EXPECT_FALSE(verify_proof(proof, sn(32), d.root(), d.size()));
}

TEST(Proof, TamperedIndexRejected) {
  Dictionary d;
  d.insert(serial_range(1, 64));
  auto proof = d.prove(sn(32));
  ASSERT_TRUE(proof.leaf);
  proof.leaf->index += 1;
  EXPECT_FALSE(verify_proof(proof, sn(32), d.root(), d.size()));
}

TEST(Proof, NonAdjacentAbsenceNeighboursRejected) {
  Dictionary d;
  d.insert({sn(10), sn(20), sn(30), sn(40)});
  // Construct a fake absence proof for 25 from the leaves 10 and 40 (indices
  // 0 and 3): not adjacent, must be rejected even though both paths verify.
  auto p10 = d.prove(sn(10));
  auto p40 = d.prove(sn(40));
  Proof fake;
  fake.type = Proof::Type::absence;
  fake.left = *p10.leaf;
  fake.right = *p40.leaf;
  EXPECT_FALSE(verify_proof(fake, sn(25), d.root(), d.size()));
}

TEST(Proof, EncodeDecodeRoundTrip) {
  Dictionary d;
  d.insert(serial_range(1, 100));
  for (std::uint64_t q : {std::uint64_t(50), std::uint64_t(1000)}) {
    const auto proof = d.prove(sn(q));
    const Bytes enc = proof.encode();
    const auto dec = Proof::decode(ByteSpan(enc));
    ASSERT_TRUE(dec.has_value());
    EXPECT_EQ(*dec, proof);
    EXPECT_TRUE(verify_proof(*dec, sn(q), d.root(), d.size()));
  }
}

TEST(Proof, DecodeRejectsCorruptInput) {
  Dictionary d;
  d.insert(serial_range(1, 10));
  Bytes enc = d.prove(sn(5)).encode();
  EXPECT_FALSE(Proof::decode(ByteSpan(enc.data(), enc.size() - 1)).has_value());
  Bytes extended = enc;
  extended.push_back(0);
  EXPECT_FALSE(Proof::decode(ByteSpan(extended)).has_value());
  Bytes bad_type = enc;
  bad_type[0] = 7;
  EXPECT_FALSE(Proof::decode(ByteSpan(bad_type)).has_value());
}

TEST(Proof, SizeGrowsLogarithmically) {
  Dictionary small, large;
  small.insert(serial_range(1, 64));
  large.insert(serial_range(1, 65536));
  const auto ps = small.prove(sn(32)).wire_size();
  const auto pl = large.prove(sn(32768)).wire_size();
  // 1024x more leaves should add ~10 path hashes (~200 bytes), not 1024x.
  EXPECT_LT(pl, ps + 16 * 20);
  EXPECT_GT(pl, ps);
}

// ------------------------------------------------------------- update

TEST(Update, ReplayMatchesCaRoot) {
  Rng rng(99);
  Dictionary ca_dict, ra_dict;
  // Arbitrary batch splits (DESIGN.md §5): RA replays in the same order.
  std::uint64_t next_serial = 1;
  for (int round = 0; round < 20; ++round) {
    const std::uint64_t batch = 1 + rng.uniform(40);
    const auto serials = serial_range(next_serial, batch);
    next_serial += batch;
    ca_dict.insert(serials);
    EXPECT_TRUE(ra_dict.update(serials, ca_dict.root(), ca_dict.size()));
  }
  EXPECT_EQ(ra_dict.root(), ca_dict.root());
  EXPECT_EQ(ra_dict.size(), ca_dict.size());
}

TEST(Update, RejectsWrongRootAndRollsBack) {
  Dictionary ca_dict, ra_dict;
  ca_dict.insert(serial_range(1, 10));
  ra_dict.update(serial_range(1, 10), ca_dict.root(), ca_dict.size());

  crypto::Digest20 bogus = ca_dict.root();
  bogus[5] ^= 0xFF;
  const auto before_root = ra_dict.root();
  EXPECT_FALSE(ra_dict.update(serial_range(11, 5), bogus, 15));
  EXPECT_EQ(ra_dict.size(), 10u);
  EXPECT_EQ(ra_dict.root(), before_root);
  EXPECT_FALSE(ra_dict.contains(sn(11)));
}

TEST(Update, RejectsWrongCount) {
  Dictionary ca_dict, ra_dict;
  ca_dict.insert(serial_range(1, 10));
  // Root is right but claimed n is wrong -> reject.
  EXPECT_FALSE(ra_dict.update(serial_range(1, 10), ca_dict.root(), 11));
  EXPECT_EQ(ra_dict.size(), 0u);
}

TEST(Update, DetectsReordering) {
  // A CA that shows reordered revocations to an RA produces a different
  // root, so the RA rejects the update (§V revocation reordering).
  Dictionary ca_dict, ra_dict;
  ca_dict.insert({sn(1), sn(2)});
  EXPECT_FALSE(ra_dict.update({sn(2), sn(1)}, ca_dict.root(), 2));
  EXPECT_EQ(ra_dict.size(), 0u);
}

TEST(Update, DetectsDeletion) {
  Dictionary ca_dict, ra_dict;
  ca_dict.insert({sn(1), sn(2), sn(3)});
  // CA tries to hide revocation 2 from this RA.
  EXPECT_FALSE(ra_dict.update({sn(1), sn(3)}, ca_dict.root(), 3));
  EXPECT_FALSE(ra_dict.update({sn(1), sn(3)}, ca_dict.root(), 2));
}

TEST(Update, LargeBatchPath) {
  Dictionary ca_dict, ra_dict;
  const auto serials = serial_range(1, 5000);
  ca_dict.insert(serials);
  EXPECT_TRUE(ra_dict.update(serials, ca_dict.root(), 5000));
  EXPECT_EQ(ra_dict.root(), ca_dict.root());
}

// ------------------------------------------------------------- randomized

TEST(DictionaryProperty, RandomizedProofsAlwaysVerify) {
  Rng rng(1234);
  Dictionary d;
  std::set<std::uint64_t> inserted;
  for (int round = 0; round < 10; ++round) {
    std::vector<SerialNumber> batch;
    for (int i = 0; i < 50; ++i) {
      const std::uint64_t v = rng.uniform(100000);
      batch.push_back(sn(v));
      inserted.insert(v);
    }
    d.insert(batch);
    // Probe random values, present or absent.
    for (int i = 0; i < 30; ++i) {
      const std::uint64_t v = rng.uniform(100000);
      const auto proof = d.prove(sn(v));
      EXPECT_EQ(proof.type == Proof::Type::presence, inserted.count(v) == 1);
      EXPECT_TRUE(verify_proof(proof, sn(v), d.root(), d.size()));
    }
  }
}

TEST(DictionaryProperty, VariableLengthSerialsSortLexicographically) {
  Dictionary d;
  // 0x01, 0x0102, 0x02 — lexicographic order: 0x01 < 0x0102 < 0x02.
  d.insert({SerialNumber{{0x02}}, SerialNumber{{0x01, 0x02}},
            SerialNumber{{0x01}}});
  for (const auto& s : {SerialNumber{{0x01}}, SerialNumber{{0x01, 0x02}},
                        SerialNumber{{0x02}}}) {
    const auto p = d.prove(s);
    EXPECT_EQ(p.type, Proof::Type::presence);
    EXPECT_TRUE(verify_proof(p, s, d.root(), d.size()));
  }
  const SerialNumber between{{0x01, 0x01}};
  const auto p = d.prove(between);
  EXPECT_EQ(p.type, Proof::Type::absence);
  EXPECT_TRUE(verify_proof(p, between, d.root(), d.size()));
}

// ------------------------------------------------------- incremental tree

TEST(Update, RejectedUpdateLeavesRootByteIdentical) {
  // Regression for the rollback path: a rejected update must leave root()
  // byte-identical to the pre-update root, including when the incremental
  // rebuild state is hot from earlier mutations.
  Dictionary ca_dict, ra_dict;
  ca_dict.insert(serial_range(1, 200));
  ASSERT_TRUE(ra_dict.update(serial_range(1, 200), ca_dict.root(), 200));
  // Warm the incremental machinery with a few small replayed batches.
  for (std::uint64_t b = 0; b < 4; ++b) {
    const auto batch = serial_range(201 + 10 * b, 10);
    ca_dict.insert(batch);
    ASSERT_TRUE(ra_dict.update(batch, ca_dict.root(), ca_dict.size()));
  }
  const auto before = ra_dict.root();
  const std::uint64_t before_n = ra_dict.size();

  crypto::Digest20 bogus = before;
  bogus[0] ^= 0x80;
  // Small-batch path rollback.
  EXPECT_FALSE(ra_dict.update(serial_range(500, 5), bogus, before_n + 5));
  EXPECT_EQ(ra_dict.size(), before_n);
  EXPECT_EQ(ra_dict.root(), before);
  // Large-batch path rollback.
  EXPECT_FALSE(ra_dict.update(serial_range(500, 100), bogus, before_n + 100));
  EXPECT_EQ(ra_dict.size(), before_n);
  EXPECT_EQ(ra_dict.root(), before);
  // The rolled-back replica must still serve verifying proofs.
  const auto proof = ra_dict.prove(sn(100));
  EXPECT_TRUE(verify_proof(proof, sn(100), ra_dict.root(), ra_dict.size()));
}

TEST(Insert, DuplicateSerialsNumberIdenticallyAcrossBatchPaths) {
  // A batch with repeated serials must produce the same numbering (first
  // occurrence wins) whether it takes the small-batch (<=64) in-place path
  // or the large-batch append-and-resort path.
  std::vector<SerialNumber> uniques;
  for (std::uint64_t i = 0; i < 40; ++i) uniques.push_back(sn(1000 + 7 * i));

  std::vector<SerialNumber> small_batch = uniques;  // 42 items: small path
  small_batch.push_back(uniques[5]);
  small_batch.push_back(uniques[7]);

  std::vector<SerialNumber> large_batch;  // 80 items: large path
  for (const auto& s : uniques) {
    large_batch.push_back(s);
    large_batch.push_back(s);
  }

  Dictionary a, b;
  a.insert({uniques[10]});  // pre-existing overlap in both
  b.insert({uniques[10]});
  const auto added_a = a.insert(small_batch);
  const auto added_b = b.insert(large_batch);

  ASSERT_EQ(added_a.size(), 39u);
  ASSERT_EQ(added_b.size(), 39u);
  for (std::size_t i = 0; i < added_a.size(); ++i) {
    EXPECT_EQ(added_a[i], added_b[i]) << "entry " << i;
  }
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.root(), b.root());
  for (const auto& s : uniques) {
    EXPECT_EQ(a.number_of(s), b.number_of(s));
  }
}

TEST(Insert, LargeBatchMergeMatchesElementWiseInsertion) {
  // The large-batch path merges the pre-sorted index with the sorted batch
  // in O(n + k); it must land on exactly the state element-wise insertion
  // produces, for batches that interleave, prepend, and append.
  std::vector<SerialNumber> base;
  for (std::uint64_t i = 0; i < 300; ++i) base.push_back(sn(1000 + 10 * i));

  std::vector<SerialNumber> batch;
  for (std::uint64_t i = 0; i < 100; ++i) batch.push_back(sn(1005 + 30 * i));
  for (std::uint64_t i = 0; i < 20; ++i) batch.push_back(sn(i));       // front
  for (std::uint64_t i = 0; i < 20; ++i) batch.push_back(sn(9000 + i));  // back

  Dictionary merged, reference;
  merged.insert(base);
  reference.insert(base);
  (void)merged.root();
  const auto added = merged.insert(batch);  // 140 items: large-batch merge
  ASSERT_EQ(added.size(), 140u);
  for (const auto& s : batch) reference.insert({s});  // small path, one by one

  EXPECT_EQ(merged.size(), reference.size());
  EXPECT_EQ(merged.root(), reference.root());
  for (const auto& s : batch) {
    EXPECT_EQ(merged.number_of(s), reference.number_of(s));
    const auto proof = merged.prove(s);
    EXPECT_EQ(proof.type, Proof::Type::presence);
    EXPECT_TRUE(verify_proof(proof, s, merged.root(), merged.size()));
  }
}

TEST(Insert, LargeBatchAppendKeepsPrefixUntouched) {
  // An all-past-the-maximum large batch must dirty only the suffix: the
  // merge never moves positions below the first new leaf, so the rebuild
  // stays O(batch + log n) even through the large-batch path.
  Dictionary d;
  std::vector<SerialNumber> base;
  for (std::uint64_t i = 0; i < 3000; ++i) base.push_back(sn(2 * i + 1));
  d.insert(base);
  (void)d.root();

  std::vector<SerialNumber> delta;
  for (std::uint64_t i = 0; i < 100; ++i) delta.push_back(sn(100000 + i));
  d.insert(delta);  // > 64: large-batch merge path
  (void)d.root();
  const std::uint64_t incremental = d.last_rebuild_hash_count();
  EXPECT_LE(incremental, 100 + 2 * 100 + 24);  // leaves + spine, not O(n)
}

TEST(Dictionary, EpochAdvancesOnlyOnAcceptedMutation) {
  Dictionary d;
  EXPECT_EQ(d.epoch(), 0u);
  d.insert({sn(1), sn(2)});
  EXPECT_EQ(d.epoch(), 1u);

  // Reads never advance the version.
  (void)d.root();
  (void)d.prove(sn(1));
  (void)d.contains(sn(2));
  EXPECT_EQ(d.epoch(), 1u);

  // A batch that adds nothing is not a mutation.
  d.insert({sn(1)});
  EXPECT_EQ(d.epoch(), 1u);

  // Accepted update advances.
  Dictionary ca;
  ca.insert({sn(1), sn(2), sn(3)});
  ASSERT_TRUE(d.update({sn(3)}, ca.root(), 3));
  const auto after_update = d.epoch();
  EXPECT_GT(after_update, 1u);

  // Rejected update rolls content back but must NOT reuse an epoch: any
  // cache keyed by (epoch) would otherwise serve bytes proven against the
  // transient state.
  crypto::Digest20 bogus = ca.root();
  bogus[0] ^= 1;
  const auto root_before = d.root();
  EXPECT_FALSE(d.update({sn(9)}, bogus, 4));
  EXPECT_EQ(d.root(), root_before);
  EXPECT_GT(d.epoch(), after_update);
}

TEST(Insert, InvalidSerialAnywhereInBatchLeavesDictionaryUntouched) {
  Dictionary d;
  d.insert(serial_range(1, 10));
  const auto before = d.root();
  std::vector<SerialNumber> bad = serial_range(100, 5);
  bad.push_back(SerialNumber{{}});  // empty serial: invalid
  EXPECT_THROW(d.insert(bad), std::invalid_argument);
  EXPECT_EQ(d.size(), 10u);
  EXPECT_EQ(d.root(), before);
}

TEST(Dictionary, AppendBatchesRehashOnlyTheSpine) {
  // 4000 leaves: under the 4096 arena capacity, so appends stay incremental
  // (crossing a power-of-two boundary legitimately re-lays-out the arena).
  Dictionary d;
  std::vector<SerialNumber> base;
  for (std::uint64_t i = 0; i < 4000; ++i) base.push_back(sn(2 * i + 1));
  d.insert(base);
  (void)d.root();
  const std::uint64_t full = d.last_rebuild_hash_count();
  EXPECT_GE(full, 4000u);  // every leaf plus the interior

  // A Δ-batch of appends past the current maximum serial touches only the
  // new leaves and the right spine: O(batch + log n), not O(n).
  std::vector<SerialNumber> delta;
  for (std::uint64_t i = 0; i < 16; ++i) delta.push_back(sn(100000 + i));
  d.insert(delta);
  (void)d.root();
  const std::uint64_t incremental = d.last_rebuild_hash_count();
  EXPECT_LE(incremental, 16 + 2 * 16 + 32);
  EXPECT_LT(incremental * 20, full);
}

TEST(Dictionary, GoldenRootPinsWireFormat) {
  // Golden vector computed with the seed (pre-incremental) implementation:
  // the flat-arena rebuild must stay byte-compatible with it forever, since
  // RAs compare recomputed roots against CA-signed roots on the wire.
  Dictionary d;
  for (std::uint64_t b = 0; b < 5; ++b) {
    std::vector<SerialNumber> batch;
    for (std::uint64_t i = 0; i < 20; ++i) {
      batch.push_back(SerialNumber::from_uint(1 + 3 * (b * 20 + i)));
    }
    d.insert(batch);
  }
  const auto& r = d.root();
  EXPECT_EQ(ritm::to_hex(ByteSpan(r.data(), r.size())),
            "21b8a53ff116c4b853c438796e3ab3b295a9caf4");
}

TEST(Dictionary, GoldenRootIdenticalAcrossSha256Backends) {
  // Every SHA-256 engine backend must reproduce the pinned wire-format root
  // byte for byte. A multi-lane backend that silently forked the tree format
  // would pass same-backend consistency checks while breaking root
  // comparison between heterogeneous CA/RA hosts — this is the test that
  // rules that out.
  BackendGuard guard;
  for (const auto backend : crypto::sha256_available_backends()) {
    ASSERT_TRUE(crypto::sha256_select_backend(backend));
    Dictionary d;
    for (std::uint64_t b = 0; b < 5; ++b) {
      std::vector<SerialNumber> batch;
      for (std::uint64_t i = 0; i < 20; ++i) {
        batch.push_back(SerialNumber::from_uint(1 + 3 * (b * 20 + i)));
      }
      d.insert(batch);
    }
    const auto& r = d.root();
    EXPECT_EQ(ritm::to_hex(ByteSpan(r.data(), r.size())),
              "21b8a53ff116c4b853c438796e3ab3b295a9caf4")
        << "backend " << crypto::sha256_backend_name(backend);
  }
}

TEST(DictionaryProperty, RandomizedRootsIdenticalAcrossSha256Backends) {
  // Randomized growth (mixed batch sizes and serial widths, so leaf counts
  // cross odd/even and chunk boundaries) replayed from scratch under every
  // backend: the root trajectory and the proofs must match the scalar path
  // exactly, whether the tree was built incrementally lane-saturated or not.
  BackendGuard guard;
  Rng rng(777);
  std::vector<std::vector<SerialNumber>> batches;
  for (int round = 0; round < 30; ++round) {
    std::vector<SerialNumber> batch;
    const std::uint64_t batch_size = 1 + rng.uniform(120);
    for (std::uint64_t i = 0; i < batch_size; ++i) {
      batch.push_back(SerialNumber::from_uint(rng.uniform(1u << 20),
                                              1 + rng.uniform(4)));
    }
    batches.push_back(std::move(batch));
  }

  ASSERT_TRUE(crypto::sha256_select_backend(crypto::Sha256Backend::scalar));
  std::vector<crypto::Digest20> expected_roots;
  Dictionary scalar_dict;
  for (const auto& batch : batches) {
    scalar_dict.insert(batch);
    expected_roots.push_back(scalar_dict.root());
  }

  for (const auto backend : crypto::sha256_available_backends()) {
    if (backend == crypto::Sha256Backend::scalar) continue;
    ASSERT_TRUE(crypto::sha256_select_backend(backend));
    Dictionary d;
    for (std::size_t round = 0; round < batches.size(); ++round) {
      d.insert(batches[round]);
      ASSERT_EQ(d.root(), expected_roots[round])
          << crypto::sha256_backend_name(backend) << " round " << round;
    }
    const auto proof = d.prove(batches[0][0]);
    EXPECT_TRUE(verify_proof(proof, batches[0][0], d.root(), d.size()))
        << crypto::sha256_backend_name(backend);
  }
}

TEST(DictionaryProperty, IncrementalFullRebuildAndReplayAgree) {
  // 1k random insert batches: the incrementally maintained tree, a control
  // tree forced through a full rebuild every batch, and a replica replaying
  // via update() must all stay self-consistent.
  Rng rng(20260727);
  Dictionary incremental, control, replica;
  for (int round = 0; round < 1000; ++round) {
    std::vector<SerialNumber> batch;
    const std::uint64_t batch_size = 1 + rng.uniform(4);
    for (std::uint64_t i = 0; i < batch_size; ++i) {
      batch.push_back(sn(rng.uniform(1u << 16)));
    }
    incremental.insert(batch);
    control.insert(batch);
    control.invalidate_tree();  // force the O(n) from-scratch rebuild
    const auto root = incremental.root();
    ASSERT_EQ(root, control.root()) << "round " << round;
    ASSERT_TRUE(replica.update(batch, root, incremental.size()))
        << "round " << round;
  }
  EXPECT_EQ(incremental.size(), replica.size());
}

TEST(Proof, WireSizeMatchesEncodedSizeEverywhere) {
  Dictionary empty;
  const auto empty_absence = empty.prove(sn(9));
  EXPECT_EQ(empty_absence.wire_size(), empty_absence.encode().size());

  Dictionary d;
  std::vector<SerialNumber> serials;
  for (std::uint64_t i = 0; i < 100; ++i) serials.push_back(sn(2 * i + 1));
  d.insert(serials);

  const auto presence = d.prove(sn(51));
  ASSERT_EQ(presence.type, Proof::Type::presence);
  EXPECT_EQ(presence.wire_size(), presence.encode().size());

  const auto between = d.prove(sn(50));  // two neighbours
  ASSERT_EQ(between.type, Proof::Type::absence);
  EXPECT_EQ(between.wire_size(), between.encode().size());

  const auto before_all = d.prove(sn(0));  // right neighbour only
  EXPECT_EQ(before_all.wire_size(), before_all.encode().size());
  const auto after_all = d.prove(sn(100000));  // left neighbour only
  EXPECT_EQ(after_all.wire_size(), after_all.encode().size());

  SignedRoot sr;
  sr.ca = "CA-wire-size";
  sr.root = d.root();
  sr.n = d.size();
  EXPECT_EQ(sr.wire_size(), sr.encode().size());

  RevocationStatus status;
  status.proof = between;
  status.signed_root = sr;
  status.freshness.fill(0x33);
  EXPECT_EQ(status.wire_size(), status.encode().size());

  SyncResponse resp;
  resp.ca = "CA-wire-size";
  resp.entries = {Entry{sn(100), 1}, Entry{sn(50), 2}};
  resp.signed_root = sr;
  EXPECT_EQ(resp.wire_size(), resp.encode().size());
}

// ------------------------------------------------------------- signed root

TEST(SignedRoot, MakeAndVerify) {
  Rng rng(7);
  crypto::Seed seed{};
  auto b = rng.bytes(32);
  std::copy(b.begin(), b.end(), seed.begin());
  const auto kp = crypto::keypair_from_seed(seed);

  Dictionary d;
  d.insert(serial_range(1, 5));
  crypto::Digest20 anchor{};
  anchor.fill(0x42);
  const auto sr = SignedRoot::make("CA-1", d.root(), d.size(), anchor,
                                   1700000000, kp.seed);
  EXPECT_TRUE(sr.verify(kp.public_key));

  auto tampered = sr;
  tampered.n += 1;
  EXPECT_FALSE(tampered.verify(kp.public_key));
}

TEST(SignedRoot, EncodeDecodeRoundTrip) {
  Rng rng(8);
  crypto::Seed seed{};
  auto b = rng.bytes(32);
  std::copy(b.begin(), b.end(), seed.begin());
  const auto kp = crypto::keypair_from_seed(seed);
  crypto::Digest20 root{}, anchor{};
  root.fill(1);
  anchor.fill(2);
  const auto sr = SignedRoot::make("CA-XYZ", root, 77, anchor, 123456, kp.seed);
  const Bytes enc = sr.encode();
  const auto dec = SignedRoot::decode(ByteSpan(enc));
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, sr);
  EXPECT_TRUE(dec->verify(kp.public_key));
}

TEST(SignedRoot, SplitViewIsProvable) {
  // Two signed roots with the same n but different roots constitute a proof
  // of CA misbehaviour. Both verify, so the evidence is non-repudiable.
  Rng rng(9);
  crypto::Seed seed{};
  auto b = rng.bytes(32);
  std::copy(b.begin(), b.end(), seed.begin());
  const auto kp = crypto::keypair_from_seed(seed);

  Dictionary view1, view2;
  view1.insert({sn(1), sn(2)});
  view2.insert({sn(1), sn(3)});  // hides revocation of 2, shows 3 instead
  crypto::Digest20 anchor{};
  const auto sr1 =
      SignedRoot::make("CA-1", view1.root(), 2, anchor, 1000, kp.seed);
  const auto sr2 =
      SignedRoot::make("CA-1", view2.root(), 2, anchor, 1000, kp.seed);
  EXPECT_TRUE(sr1.verify(kp.public_key));
  EXPECT_TRUE(sr2.verify(kp.public_key));
  EXPECT_EQ(sr1.n, sr2.n);
  EXPECT_NE(sr1.root, sr2.root);  // the split view, cryptographically pinned
}

// ------------------------------------------------------------- messages

TEST(Messages, RevocationIssuanceRoundTrip) {
  RevocationIssuance m;
  m.serials = serial_range(1, 3);
  m.signed_root.ca = "CA-1";
  m.signed_root.n = 3;
  const Bytes enc = m.encode();
  const auto dec = RevocationIssuance::decode(ByteSpan(enc));
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, m);
}

TEST(Messages, FreshnessStatementRoundTrip) {
  FreshnessStatement m;
  m.ca = "CA-2";
  m.statement.fill(0xAA);
  const Bytes enc = m.encode();
  const auto dec = FreshnessStatement::decode(ByteSpan(enc));
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, m);
}

TEST(Messages, RevocationStatusRoundTripAndSize) {
  Dictionary d;
  d.insert(serial_range(1, 339557 / 100));  // scaled-down largest CRL
  RevocationStatus status;
  status.proof = d.prove(sn(424242));
  status.signed_root.ca = "CA-1";
  status.signed_root.n = d.size();
  status.signed_root.root = d.root();
  status.freshness.fill(0x55);
  const Bytes enc = status.encode();
  const auto dec = RevocationStatus::decode(ByteSpan(enc));
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, status);
  // Paper §VII-D: revocation status is a few hundred bytes, not kilobytes.
  EXPECT_LT(status.wire_size(), 1200u);
  EXPECT_GT(status.wire_size(), 100u);
}

TEST(Messages, SyncRoundTrip) {
  SyncRequest req{"CA-1", 41};
  const auto req_dec = SyncRequest::decode(ByteSpan(req.encode()));
  ASSERT_TRUE(req_dec.has_value());
  EXPECT_EQ(*req_dec, req);

  SyncResponse resp;
  resp.ca = "CA-1";
  resp.entries = {Entry{sn(100), 42}, Entry{sn(50), 43}};
  resp.freshness.fill(0x77);
  const auto resp_dec = SyncResponse::decode(ByteSpan(resp.encode()));
  ASSERT_TRUE(resp_dec.has_value());
  EXPECT_EQ(*resp_dec, resp);
}

TEST(Messages, DecodeRejectsTruncation) {
  RevocationIssuance m;
  m.serials = serial_range(1, 2);
  const Bytes enc = m.encode();
  for (std::size_t cut = 0; cut < enc.size(); cut += 3) {
    EXPECT_FALSE(RevocationIssuance::decode(ByteSpan(enc.data(), cut)));
  }
}

}  // namespace
}  // namespace ritm::dict
