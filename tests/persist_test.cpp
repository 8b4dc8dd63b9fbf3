// Persistence suite: WAL framing + torn-write truncation at every byte of
// the final record and every framing field, atomic snapshot commit and
// fallback, the dictionary wire codec, RA store persist/recover with crash
// simulation, and the CDN cold-start bootstrap. The crash-consistency
// property pinned throughout: recovery from a prefix of the log always
// equals an in-memory replay of exactly that prefix — root, epoch, and
// proof bytes identical.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "ca/authority.hpp"
#include "ca/distribution.hpp"
#include "cdn/cdn.hpp"
#include "cdn/service.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "dict/dictionary.hpp"
#include "persist/recovery.hpp"
#include "persist/sections.hpp"
#include "persist/snapshot.hpp"
#include "persist/wal.hpp"
#include "ra/store.hpp"
#include "ra/updater.hpp"

namespace ritm {
namespace {

using cert::SerialNumber;
using persist::Recovery;
using persist::SnapshotFile;
using persist::WalScan;
using persist::WriteAheadLog;

/// A per-test scratch directory, removed on destruction.
struct TempDir {
  std::filesystem::path path;

  explicit TempDir(const std::string& name) {
    path = std::filesystem::temp_directory_path() /
           ("ritm-persist-" + name + "-" + std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
  std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

Bytes read_all(const std::string& path) {
  Bytes out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  std::uint8_t buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.insert(out.end(), buf, buf + n);
  }
  std::fclose(f);
  return out;
}

void write_all(const std::string& path, ByteSpan data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
  std::fclose(f);
}

std::uint32_t rd_be32(const std::uint8_t* p) {
  return (std::uint32_t(p[0]) << 24) | (std::uint32_t(p[1]) << 16) |
         (std::uint32_t(p[2]) << 8) | std::uint32_t(p[3]);
}

std::uint64_t rd_be64(const std::uint8_t* p) {
  return (std::uint64_t(rd_be32(p)) << 32) | rd_be32(p + 4);
}

void wr_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = std::uint8_t(v >> 24);
  p[1] = std::uint8_t(v >> 16);
  p[2] = std::uint8_t(v >> 8);
  p[3] = std::uint8_t(v);
}

// ----------------------------------------------------------------- WAL

TEST(Wal, AppendScanRoundTrip) {
  TempDir dir("wal-roundtrip");
  const std::string path = dir.file("wal.log");
  std::vector<persist::WalRecord> written;
  {
    WriteAheadLog wal;
    const WalScan fresh = wal.open(path);
    EXPECT_TRUE(fresh.records.empty());
    Rng rng(7);
    for (std::uint8_t t = 1; t <= 9; ++t) {
      const Bytes payload = rng.bytes(t == 5 ? 0 : rng.uniform(200));
      const std::uint64_t seq = wal.append(t, ByteSpan(payload));
      written.push_back({seq, t, payload});
    }
    wal.close();
  }
  const WalScan scan = WriteAheadLog::scan_file(path);
  EXPECT_EQ(scan.records, written);
  EXPECT_EQ(scan.truncated_bytes, 0u);

  // Reopen: numbering continues, prior records survive.
  WriteAheadLog wal;
  const WalScan again = wal.open(path);
  EXPECT_EQ(again.records, written);
  EXPECT_EQ(wal.append(1, ByteSpan()), written.back().seq + 1);
}

TEST(Wal, ResetRestartsAtGivenSeq) {
  TempDir dir("wal-reset");
  WriteAheadLog wal;
  wal.open(dir.file("wal.log"));
  wal.append(1, ByteSpan());
  wal.append(1, ByteSpan());
  wal.reset(43);
  EXPECT_EQ(wal.next_seq(), 43u);
  EXPECT_EQ(wal.append(2, ByteSpan()), 43u);
  wal.close();
  const WalScan scan = WriteAheadLog::scan_file(dir.file("wal.log"));
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].seq, 43u);
}

TEST(Wal, TornWritesTruncatedAtEveryByteOfEveryRecord) {
  TempDir dir("wal-torn");
  const std::string path = dir.file("wal.log");
  std::vector<std::size_t> ends;  // file offset after each record
  {
    WriteAheadLog wal;
    wal.open(path);
    Rng rng(11);
    for (int i = 0; i < 8; ++i) {
      wal.append(static_cast<std::uint8_t>(1 + i % 3),
                 ByteSpan(rng.bytes(5 + rng.uniform(60))));
      ends.push_back(WriteAheadLog::kHeaderSize + wal.tail_bytes());
    }
    wal.close();
  }
  const Bytes image = read_all(path);
  ASSERT_EQ(image.size(), ends.back());
  const WalScan full = WriteAheadLog::scan(ByteSpan(image));
  ASSERT_EQ(full.records.size(), ends.size());

  // Every byte offset of the whole file: recovery must yield exactly the
  // records whose frames lie entirely below the cut.
  for (std::size_t cut = 0; cut <= image.size(); ++cut) {
    const WalScan scan = WriteAheadLog::scan(ByteSpan(image.data(), cut));
    std::size_t expect = 0;
    while (expect < ends.size() && ends[expect] <= cut) ++expect;
    ASSERT_EQ(scan.records.size(), expect) << "cut at byte " << cut;
    for (std::size_t i = 0; i < expect; ++i) {
      ASSERT_EQ(scan.records[i], full.records[i]) << "cut at byte " << cut;
    }
    ASSERT_EQ(scan.valid_bytes,
              expect == 0 ? (cut >= WriteAheadLog::kHeaderSize
                                 ? WriteAheadLog::kHeaderSize
                                 : 0)
                          : ends[expect - 1])
        << "cut at byte " << cut;
  }

  // open() on a torn file truncates in place and appends cleanly after the
  // surviving prefix.
  const std::size_t torn = ends[4] + 3;  // 3 bytes into record 6's frame
  write_all(path, ByteSpan(image.data(), torn));
  WriteAheadLog wal;
  const WalScan scan = wal.open(path);
  EXPECT_EQ(scan.records.size(), 5u);
  EXPECT_EQ(scan.truncated_bytes, 3u);
  EXPECT_EQ(wal.append(7, ByteSpan()), scan.records.back().seq + 1);
  wal.close();
  EXPECT_EQ(WriteAheadLog::scan_file(path).records.size(), 6u);
}

TEST(Wal, CorruptMiddleRecordEndsThePrefix) {
  TempDir dir("wal-corrupt");
  const std::string path = dir.file("wal.log");
  {
    WriteAheadLog wal;
    wal.open(path);
    for (int i = 0; i < 6; ++i) wal.append(1, ByteSpan(Bytes(20, 0xAB)));
    wal.close();
  }
  Bytes image = read_all(path);
  // Flip one payload byte of the third record: its CRC fails, and
  // everything after is treated as tail — replay stops at record 2.
  const std::size_t record_size = (image.size() - 12) / 6;
  image[12 + 2 * record_size + 15] ^= 0x01;
  write_all(path, ByteSpan(image));
  const WalScan scan = WriteAheadLog::scan_file(path);
  EXPECT_EQ(scan.records.size(), 2u);
  EXPECT_GT(scan.truncated_bytes, 0u);
}

// ------------------------------------------------------------ snapshots

/// The bytes of a mapped snapshot's single section.
Bytes only_section(const SnapshotFile::Mapped& mapped) {
  EXPECT_EQ(mapped.sections.size(), 1u);
  if (mapped.sections.empty()) return {};
  const ByteSpan data = mapped.sections.front().data;
  return Bytes(data.begin(), data.end());
}

TEST(Snapshot, AtomicCommitLoadAndFallback) {
  TempDir dir("snap");
  std::uint64_t skipped = 0;
  EXPECT_FALSE(SnapshotFile::map_newest(dir.str(), &skipped).has_value());

  const Bytes a{1, 2, 3}, b(100000, 0x5C);
  SnapshotFile::write_v2(dir.str(), 3, {{7, ByteSpan(a)}});
  SnapshotFile::write_v2(dir.str(), 9, {{7, ByteSpan(b)}});
  {
    const auto newest = SnapshotFile::map_newest(dir.str(), &skipped);
    ASSERT_TRUE(newest.has_value());
    EXPECT_EQ(newest->seq, 9u);
    EXPECT_EQ(only_section(*newest), b);
    EXPECT_EQ(skipped, 0u);
  }

  // Corrupt the newest file's section bytes: its section CRC fails and
  // loading falls back to the previous snapshot.
  const std::string newest_path = dir.file("snap-0000000000000009.snap");
  Bytes image = read_all(newest_path);
  const std::size_t first_section =
      SnapshotFile::kV2HeaderSize +
      persist::align_section(persist::kSectionHeaderSize +
                             persist::kSectionDirEntrySize);
  image[first_section + 17] ^= 0x80;
  write_all(newest_path, ByteSpan(image));
  const auto fallback = SnapshotFile::map_newest(dir.str(), &skipped);
  ASSERT_TRUE(fallback.has_value());
  EXPECT_EQ(fallback->seq, 3u);
  EXPECT_EQ(only_section(*fallback), a);
  EXPECT_EQ(skipped, 1u);

  // A torn .tmp (crash before rename) is never considered.
  write_all(dir.file("snap-00000000000000ff.snap.tmp"), ByteSpan(a));
  EXPECT_EQ(SnapshotFile::map_newest(dir.str())->seq, 3u);
}

TEST(Snapshot, RetentionKeepsNewestTwo) {
  TempDir dir("snap-retention");
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    const Bytes payload{std::uint8_t(seq)};
    SnapshotFile::write_v2(dir.str(), seq, {{1, ByteSpan(payload)}});
  }
  std::size_t on_disk = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    on_disk += entry.path().extension() == ".snap";
  }
  EXPECT_EQ(on_disk, 2u);
  const auto newest = SnapshotFile::map_newest(dir.str());
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(newest->seq, 5u);
  EXPECT_EQ(only_section(*newest), Bytes{5});
}

// ---------------------------------------------- dictionary wire codec

TEST(DictSnapshot, RoundTripPreservesRootEpochAndProofBytes) {
  dict::Dictionary d;
  Rng rng(21);
  for (int batch = 0; batch < 20; ++batch) {
    std::vector<SerialNumber> serials;
    for (std::uint64_t i = rng.uniform(30) + 1; i > 0; --i) {
      serials.push_back(SerialNumber::from_uint(rng.uniform(100000), 4));
    }
    d.insert(serials);
  }
  // A rejected update advances the epoch via rollback; the snapshot must
  // carry that version too.
  crypto::Digest20 wrong{};
  d.update({SerialNumber::from_uint(999999, 4)}, wrong, d.size() + 1);

  ByteWriter w;
  d.snapshot_into(w);
  ByteReader r{ByteSpan(w.bytes())};
  dict::Dictionary restored;
  restored.restore_from(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(restored.size(), d.size());
  EXPECT_EQ(restored.epoch(), d.epoch());
  EXPECT_EQ(restored.root(), d.root());
  for (const std::uint64_t probe : {0ull, 77ull, 4242ull, 999999ull}) {
    const auto serial = SerialNumber::from_uint(probe, 4);
    EXPECT_EQ(restored.prove(serial).encode(), d.prove(serial).encode());
  }
}

TEST(DictSnapshot, CorruptPayloadIsRejectedWithoutMutation) {
  dict::Dictionary d;
  d.insert({SerialNumber::from_uint(1), SerialNumber::from_uint(2)});
  ByteWriter w;
  d.snapshot_into(w);
  Bytes image(w.bytes());

  dict::Dictionary victim;
  victim.insert({SerialNumber::from_uint(9)});
  const auto before_root = victim.root();
  // Flip a serial byte: the recomputed root cannot match the recorded one.
  image[11] ^= 0x01;
  ByteReader r{ByteSpan(image)};
  EXPECT_THROW(victim.restore_from(r), std::runtime_error);
  EXPECT_EQ(victim.root(), before_root);
  EXPECT_EQ(victim.size(), 1u);
}

TEST(DictSnapshot, EmptyDictionaryRoundTrips) {
  dict::Dictionary d;
  ByteWriter w;
  d.snapshot_into(w);
  ByteReader r{ByteSpan(w.bytes())};
  dict::Dictionary restored;
  restored.restore_from(r);
  EXPECT_EQ(restored.size(), 0u);
  EXPECT_EQ(restored.root(), dict::empty_root());
}

// Snapshot sections whose entry count wraps n * 24 back to the log
// section's real size must be rejected up front instead of driving the
// tree layout with n ~ 2^63.
TEST(DictSnapshot, SectionsWithWrappingCountAreRejected) {
  dict::Dictionary d;
  d.insert({SerialNumber::from_uint(1), SerialNumber::from_uint(2)});
  dict::DictSections sec = d.snapshot_sections();
  sec.n += std::uint64_t(1) << 63;
  dict::Dictionary victim;
  EXPECT_THROW(victim.restore_sections(sec, nullptr), std::runtime_error);
  EXPECT_EQ(victim.size(), 0u);
}

// ------------------------------------------------- RA store durability

ca::CertificationAuthority make_ca(std::uint64_t seed) {
  Rng rng(seed);
  ca::CertificationAuthority::Config cfg;
  cfg.id = "CA-P";
  cfg.delta = 10;
  cfg.chain_length = 64;
  return ca::CertificationAuthority(cfg, rng, 1000);
}

TEST(StorePersist, SnapshotPlusWalTailRecoversExactState) {
  TempDir dir("store-recover");
  auto ca = make_ca(1);
  Rng rng(2);

  ra::DictionaryStore live;
  live.register_ca(ca.id(), ca.public_key(), ca.delta());
  persist::WriteAheadLog wal;
  wal.open(Recovery::wal_path(dir.str()));
  live.attach_wal(&wal);

  UnixSeconds now = 1000;
  const auto issue = [&](std::size_t count) {
    std::vector<SerialNumber> serials;
    for (std::size_t i = 0; i < count; ++i) {
      serials.push_back(SerialNumber::from_uint(rng.uniform(1 << 20), 4));
    }
    now += 10;
    ASSERT_EQ(live.apply_issuance(ca.revoke(serials, now), now),
              ra::ApplyResult::ok);
  };

  for (int i = 0; i < 10; ++i) issue(4);
  live.persist_to(dir.str());  // snapshot; WAL resets
  for (int i = 0; i < 5; ++i) issue(3);  // the tail
  ASSERT_EQ(live.apply_freshness({ca.id(), ca.freshness_at(now + 15)},
                                 now + 15),
            ra::ApplyResult::ok);
  wal.sync();  // crash happens after this point

  ra::DictionaryStore recovered;
  recovered.register_ca(ca.id(), ca.public_key(), ca.delta());
  const auto report = recovered.recover_from(dir.str());
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_TRUE(report.have_snapshot);
  EXPECT_EQ(report.replayed, 6u);
  EXPECT_EQ(report.rejected, 0u);

  EXPECT_EQ(recovered.have_n(ca.id()), live.have_n(ca.id()));
  ASSERT_NE(recovered.root_of(ca.id()), nullptr);
  EXPECT_EQ(recovered.root_of(ca.id())->encode(),
            live.root_of(ca.id())->encode());
  // Served statuses — proof, signed root, and freshness — byte-identical.
  for (const std::uint64_t probe : {1ull, 555ull, 123456ull}) {
    const auto serial = SerialNumber::from_uint(probe, 4);
    EXPECT_EQ(recovered.status_for(ca.id(), serial)->encode(),
              live.status_for(ca.id(), serial)->encode());
  }
  // The replica version (dict epoch) replayed to the same value.
  const auto live_v = live.status_bytes_for(ca.id(), SerialNumber::from_uint(1));
  const auto rec_v =
      recovered.status_bytes_for(ca.id(), SerialNumber::from_uint(1));
  ASSERT_TRUE(live_v && rec_v);
  EXPECT_EQ(rec_v->epoch, live_v->epoch);
}

TEST(StorePersist, BootstrapReplicaIsLoggedAndReplayed) {
  TempDir dir("store-bootstrap");
  auto ca = make_ca(5);
  Rng rng(6);
  std::vector<SerialNumber> serials;
  for (int i = 0; i < 200; ++i) {
    serials.push_back(SerialNumber::from_uint(rng.uniform(1 << 20), 4));
  }
  ca.revoke(serials, 1000);
  const auto obj = ca.cold_start_object(0, 1000);

  ra::DictionaryStore live;
  live.register_ca(ca.id(), ca.public_key(), ca.delta());
  persist::WriteAheadLog wal;
  wal.open(Recovery::wal_path(dir.str()));
  live.attach_wal(&wal);
  ASSERT_EQ(live.bootstrap_replica(ca.id(), ByteSpan(obj.dict_snapshot),
                                   obj.signed_root, obj.freshness, 1000),
            ra::ApplyResult::ok);
  ASSERT_EQ(live.apply_issuance(
                ca.revoke({SerialNumber::from_uint(0xF00D, 4)}, 1010), 1010),
            ra::ApplyResult::ok);
  wal.sync();

  // Crash with no snapshot at all: the WAL alone must rebuild the replica.
  ra::DictionaryStore recovered;
  recovered.register_ca(ca.id(), ca.public_key(), ca.delta());
  const auto report = recovered.recover_from(dir.str());
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_FALSE(report.have_snapshot);
  EXPECT_EQ(report.replayed, 2u);
  EXPECT_EQ(recovered.have_n(ca.id()), live.have_n(ca.id()));
  EXPECT_EQ(recovered.root_of(ca.id())->encode(),
            live.root_of(ca.id())->encode());
}

// Format v2 never re-hashes arena sections on restore: integrity is the
// per-section CRCs, authenticity the CA-signed root cross-check. A tamperer
// who refreshes the CRCs can alter raw bytes at will, but any change that
// survives the structural checks still has to reproduce the signed root —
// impossible without the CA key. Pinned here with full container surgery:
// flip the recorded dictionary root in the store-meta section AND the
// matching digest-arena byte (with one entry the arena *is* the 20-byte
// root, so the restored dictionary is self-consistent), then fix both
// section CRCs and the directory CRC.
TEST(StorePersist, TamperedSnapshotRootFailsRecovery) {
  TempDir dir("store-tamper");
  auto ca = make_ca(7);
  ra::DictionaryStore live;
  live.register_ca(ca.id(), ca.public_key(), ca.delta());
  ASSERT_EQ(live.apply_issuance(
                ca.revoke({SerialNumber::from_uint(1)}, 1000), 1000),
            ra::ApplyResult::ok);
  live.persist_to(dir.str());

  std::string snap;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    if (entry.path().extension() == ".snap") snap = entry.path().string();
  }
  ASSERT_FALSE(snap.empty());
  Bytes image = read_all(snap);
  ASSERT_GT(image.size(), SnapshotFile::kV2HeaderSize +
                              persist::kSectionHeaderSize);

  std::uint8_t* base = image.data() + SnapshotFile::kV2HeaderSize;
  const std::uint32_t count = rd_be32(base + 4);
  constexpr std::uint32_t kTreeTag =
      (1u << 8) | ra::DictionaryStore::kSectionKindTree;
  bool flipped_meta = false, flipped_tree = false;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint8_t* e = base + persist::kSectionHeaderSize +
                      std::size_t(i) * persist::kSectionDirEntrySize;
    const std::uint32_t tag = rd_be32(e);
    if (tag != ra::DictionaryStore::kSectionMeta && tag != kTreeTag) continue;
    const std::uint64_t off = rd_be64(e + 8);
    const std::uint64_t len = rd_be64(e + 16);
    ASSERT_GT(len, 0u);
    base[off + len - 1] ^= 0x01;  // meta ends with the dict root; the
                                  // one-leaf arena *is* that root
    wr_be32(e + 4, crc32(ByteSpan(base + off, len)));
    (tag == ra::DictionaryStore::kSectionMeta ? flipped_meta : flipped_tree) =
        true;
  }
  ASSERT_TRUE(flipped_meta);
  ASSERT_TRUE(flipped_tree);
  wr_be32(base + 8,
          crc32(ByteSpan(base + persist::kSectionHeaderSize,
                         std::size_t(count) * persist::kSectionDirEntrySize)));
  write_all(snap, ByteSpan(image));

  ra::DictionaryStore recovered;
  recovered.register_ca(ca.id(), ca.public_key(), ca.delta());
  const auto report = recovered.recover_from(dir.str());
  EXPECT_FALSE(report.ok);
  // The failure must be the authenticity check, not a CRC or parse error —
  // those were all repaired above.
  EXPECT_NE(report.error.find("signed root"), std::string::npos)
      << report.error;
  EXPECT_FALSE(recovered.has_root(ca.id()));
}

// The v2 corruption matrix: flip every structural byte of the newest
// snapshot — the 20-byte stamp, the container header, every directory
// byte, and the edge bytes of every section — and recovery must fall back
// to the previous snapshot each time, never crash or half-restore.
TEST(StorePersist, V2CorruptionAtEveryStructuralByteFallsBack) {
  TempDir dir("store-v2-matrix");
  auto ca = make_ca(15);
  Rng rng(16);
  ra::DictionaryStore live;
  live.register_ca(ca.id(), ca.public_key(), ca.delta());
  persist::WriteAheadLog wal;
  wal.open(Recovery::wal_path(dir.str()));
  live.attach_wal(&wal);

  UnixSeconds now = 1000;
  const auto issue = [&](std::size_t count) {
    std::vector<SerialNumber> serials;
    for (std::size_t i = 0; i < count; ++i) {
      serials.push_back(SerialNumber::from_uint(rng.uniform(1 << 20), 4));
    }
    now += 10;
    ASSERT_EQ(live.apply_issuance(ca.revoke(serials, now), now),
              ra::ApplyResult::ok);
  };

  for (int i = 0; i < 8; ++i) issue(4);
  live.persist_to(dir.str());  // the fallback snapshot
  const std::uint64_t n_fallback = live.have_n(ca.id());
  const Bytes root_fallback = live.root_of(ca.id())->encode();
  for (int i = 0; i < 4; ++i) issue(3);
  live.persist_to(dir.str());  // the newest snapshot; WAL now empty
  wal.close();

  std::string newest;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    if (entry.path().extension() != ".snap") continue;
    if (entry.path().string() > newest) newest = entry.path().string();
  }
  ASSERT_FALSE(newest.empty());
  const Bytes pristine = read_all(newest);

  // Structural offsets: stamp, container header (minus the unvalidated
  // reserved word), the whole directory, and each section's edge bytes.
  std::vector<std::size_t> offsets;
  for (std::size_t i = 0; i < 20; ++i) offsets.push_back(i);
  const std::size_t cbase = SnapshotFile::kV2HeaderSize;
  for (std::size_t i = 0; i < 12; ++i) offsets.push_back(cbase + i);
  const std::uint32_t count = rd_be32(pristine.data() + cbase + 4);
  ASSERT_GE(count, 4u);  // meta + three arena sections
  const std::size_t dir_len =
      std::size_t(count) * persist::kSectionDirEntrySize;
  for (std::size_t i = 0; i < dir_len; ++i) {
    offsets.push_back(cbase + persist::kSectionHeaderSize + i);
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint8_t* e = pristine.data() + cbase +
                            persist::kSectionHeaderSize +
                            std::size_t(i) * persist::kSectionDirEntrySize;
    const std::uint64_t off = rd_be64(e + 8);
    const std::uint64_t len = rd_be64(e + 16);
    if (len == 0) continue;
    offsets.push_back(cbase + off);
    offsets.push_back(cbase + off + len - 1);
  }

  for (const std::size_t off : offsets) {
    ASSERT_LT(off, pristine.size());
    Bytes image = pristine;
    image[off] ^= 0x01;
    write_all(newest, ByteSpan(image));

    ra::DictionaryStore recovered;
    recovered.register_ca(ca.id(), ca.public_key(), ca.delta());
    const auto report = recovered.recover_from(dir.str());
    ASSERT_TRUE(report.ok) << "flip at byte " << off << ": " << report.error;
    ASSERT_GE(report.snapshots_skipped, 1u) << "flip at byte " << off;
    ASSERT_EQ(recovered.have_n(ca.id()), n_fallback) << "flip at byte " << off;
    ASSERT_EQ(recovered.root_of(ca.id())->encode(), root_fallback)
        << "flip at byte " << off;
  }

  // Sanity: the pristine image still recovers the newest state.
  write_all(newest, ByteSpan(pristine));
  ra::DictionaryStore recovered;
  recovered.register_ca(ca.id(), ca.public_key(), ca.delta());
  const auto report = recovered.recover_from(dir.str());
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.snapshots_skipped, 0u);
  EXPECT_EQ(recovered.have_n(ca.id()), live.have_n(ca.id()));
}

// The acceptance property: 1k random mutation batches, a simulated crash at
// WAL byte offsets covering every byte of the final record, every framing
// field, and a uniform sample of the whole file — recovery must equal an
// in-memory replay of exactly the surviving prefix (root, epoch, proofs).
// Runs at the dict layer (record payloads are serial batches) so the sweep
// stays cheap enough to run under sanitizers.
TEST(CrashSim, RecoveryEqualsReplayOfSurvivingPrefixOver1kBatches) {
  TempDir dir("crash-1k");
  const std::string path = dir.file("wal.log");
  constexpr std::size_t kBatches = 1000;
  constexpr std::uint8_t kBatchRecord = 32;  // test-local record type

  Rng rng(99);
  struct Oracle {
    crypto::Digest20 root{};
    std::uint64_t epoch = 0;
    std::uint64_t size = 0;
  };
  std::vector<Oracle> oracle(kBatches + 1);
  std::vector<std::size_t> ends;       // file offset after each record
  std::vector<Bytes> batches(kBatches);

  {
    dict::Dictionary d;
    oracle[0] = {d.root(), d.epoch(), d.size()};
    WriteAheadLog wal;
    wal.open(path, {.sync_every = 0});
    for (std::size_t b = 0; b < kBatches; ++b) {
      std::vector<SerialNumber> serials;
      const std::size_t count = 1 + rng.uniform(8);
      ByteWriter w;
      w.u16(static_cast<std::uint16_t>(count));
      for (std::size_t i = 0; i < count; ++i) {
        serials.push_back(SerialNumber::from_uint(rng.uniform(1 << 22), 4));
        w.var8(ByteSpan(serials.back().value));
      }
      batches[b] = Bytes(w.bytes());
      wal.append(kBatchRecord, ByteSpan(batches[b]));
      ends.push_back(WriteAheadLog::kHeaderSize + wal.tail_bytes());
      d.insert(serials);
      oracle[b + 1] = {d.root(), d.epoch(), d.size()};
    }
    wal.close();
  }
  const Bytes image = read_all(path);
  ASSERT_EQ(image.size(), ends.back());

  // Crash offsets: every byte of the final record, each framing-field
  // boundary of every record (len / seq / type / payload / crc edges), and
  // 256 uniform offsets.
  std::vector<std::size_t> cuts;
  for (std::size_t c = ends[kBatches - 2]; c <= ends.back(); ++c) {
    cuts.push_back(c);
  }
  for (std::size_t b = 0; b < kBatches; ++b) {
    const std::size_t start = b == 0 ? WriteAheadLog::kHeaderSize : ends[b - 1];
    for (const std::size_t field :
         {start + 2, start + 4, start + 12, start + 13,
          ends[b] - 4, ends[b] - 1}) {
      cuts.push_back(field);
    }
  }
  for (int i = 0; i < 256; ++i) cuts.push_back(rng.uniform(image.size() + 1));
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  const auto replay_batch = [&](dict::Dictionary& d, ByteSpan payload) {
    ByteReader r{payload};
    const std::uint16_t count = r.u16();
    std::vector<SerialNumber> serials;
    serials.reserve(count);
    for (std::uint16_t i = 0; i < count; ++i) {
      serials.push_back(SerialNumber{r.var8()});
    }
    d.insert(serials);
  };

  // Full from-scratch replays are sampled (every byte of the final record,
  // every ~37th cut elsewhere) to keep the sweep sanitizer-friendly; the
  // prefix-exactness property is asserted at every cut.
  std::size_t replays = 0;
  for (std::size_t ci = 0; ci < cuts.size(); ++ci) {
    const std::size_t cut = cuts[ci];
    const WalScan scan = WriteAheadLog::scan(ByteSpan(image.data(), cut));
    // Exactly the longest valid prefix survives.
    std::size_t expect = 0;
    while (expect < ends.size() && ends[expect] <= cut) ++expect;
    ASSERT_EQ(scan.records.size(), expect) << "cut at byte " << cut;
    ASSERT_EQ(scan.valid_bytes,
              expect == 0 ? (cut >= WriteAheadLog::kHeaderSize
                                 ? WriteAheadLog::kHeaderSize
                                 : 0)
                          : ends[expect - 1])
        << "cut at byte " << cut;

    if (cut < ends[kBatches - 2] && ci % 37 != 0) continue;
    ++replays;
    dict::Dictionary recovered;
    for (const auto& rec : scan.records) {
      ASSERT_EQ(rec.type, kBatchRecord);
      ASSERT_EQ(rec.payload, batches[rec.seq - 1]);
      replay_batch(recovered, ByteSpan(rec.payload));
    }
    ASSERT_EQ(recovered.root(), oracle[expect].root) << "cut " << cut;
    ASSERT_EQ(recovered.epoch(), oracle[expect].epoch) << "cut " << cut;
    ASSERT_EQ(recovered.size(), oracle[expect].size) << "cut " << cut;
  }
  EXPECT_GT(replays, 150u);

  // Proof-byte identity on the full surviving prefix (the most common
  // crash: nothing torn), probed across the serial space.
  dict::Dictionary full, replayed;
  for (const auto& b : batches) replay_batch(full, ByteSpan(b));
  const WalScan scan = WriteAheadLog::scan(ByteSpan(image));
  for (const auto& rec : scan.records) {
    replay_batch(replayed, ByteSpan(rec.payload));
  }
  Rng probe_rng(123);
  for (int i = 0; i < 64; ++i) {
    const auto probe =
        SerialNumber::from_uint(probe_rng.uniform(1 << 22), 4);
    ASSERT_EQ(replayed.prove(probe).encode(), full.prove(probe).encode());
  }
}

// The same crash sweep through the full store stack — real signed
// issuances, snapshot mid-history, recovery via persist::Recovery — with
// the oracle being an independent in-memory store replaying the same
// surviving prefix.
TEST(CrashSim, StoreRecoveryMatchesOracleAtFieldBoundaries) {
  TempDir dir("crash-store");
  auto ca = make_ca(13);
  Rng rng(14);

  ra::DictionaryStore live;
  live.register_ca(ca.id(), ca.public_key(), ca.delta());
  persist::WriteAheadLog wal;
  wal.open(Recovery::wal_path(dir.str()), {.sync_every = 0});
  live.attach_wal(&wal);

  std::vector<dict::RevocationIssuance> msgs;
  UnixSeconds now = 1000;
  for (int i = 0; i < 30; ++i) {
    std::vector<SerialNumber> serials;
    for (std::uint64_t j = 1 + rng.uniform(4); j > 0; --j) {
      serials.push_back(SerialNumber::from_uint(rng.uniform(1 << 20), 4));
    }
    now += 10;
    msgs.push_back(ca.revoke(serials, now));
    ASSERT_EQ(live.apply_issuance(msgs.back(), now), ra::ApplyResult::ok);
    if (i == 9) live.persist_to(dir.str());  // snapshot after 10 issuances
  }
  wal.sync();
  wal.close();

  const Bytes image = read_all(Recovery::wal_path(dir.str()));
  const WalScan full = WriteAheadLog::scan(ByteSpan(image));
  ASSERT_EQ(full.records.size(), 20u);  // the 20 post-snapshot issuances

  std::vector<std::size_t> ends;
  {
    std::size_t pos = WriteAheadLog::kHeaderSize;
    for (const auto& rec : full.records) {
      pos += 4 + 9 + rec.payload.size() + 4;
      ends.push_back(pos);
    }
  }
  std::vector<std::size_t> cuts;
  for (std::size_t c = ends[ends.size() - 2]; c <= ends.back(); ++c) {
    cuts.push_back(c);  // every byte of the final record
  }
  for (std::size_t b = 0; b < ends.size(); ++b) {
    const std::size_t start =
        b == 0 ? WriteAheadLog::kHeaderSize : ends[b - 1];
    for (const std::size_t field :
         {start + 2, start + 4, start + 12, start + 13, ends[b] - 4,
          ends[b] - 1}) {
      cuts.push_back(field);
    }
  }

  const auto probe = SerialNumber::from_uint(777, 4);
  for (const std::size_t cut : cuts) {
    // Simulated crash: the tail beyond `cut` never reached the disk.
    write_all(Recovery::wal_path(dir.str()),
              ByteSpan(image.data(), std::min(cut, image.size())));

    ra::DictionaryStore recovered;
    recovered.register_ca(ca.id(), ca.public_key(), ca.delta());
    const auto report = recovered.recover_from(dir.str());
    ASSERT_TRUE(report.ok) << report.error;

    // Oracle: replay the first (10 + surviving) issuances in memory.
    std::size_t surviving = 0;
    while (surviving < ends.size() && ends[surviving] <= cut) ++surviving;
    ra::DictionaryStore oracle;
    oracle.register_ca(ca.id(), ca.public_key(), ca.delta());
    for (std::size_t i = 0; i < 10 + surviving; ++i) {
      ASSERT_EQ(oracle.apply_issuance(msgs[i], 1000 + 10 * (i + 1)),
                ra::ApplyResult::ok);
    }
    ASSERT_EQ(recovered.have_n(ca.id()), oracle.have_n(ca.id()))
        << "cut " << cut;
    ASSERT_EQ(recovered.root_of(ca.id())->encode(),
              oracle.root_of(ca.id())->encode())
        << "cut " << cut;
    ASSERT_EQ(recovered.status_for(ca.id(), probe)->encode(),
              oracle.status_for(ca.id(), probe)->encode())
        << "cut " << cut;
    const auto rv = recovered.status_bytes_for(ca.id(), probe);
    const auto ov = oracle.status_bytes_for(ca.id(), probe);
    ASSERT_TRUE(rv && ov);
    ASSERT_EQ(rv->epoch, ov->epoch) << "cut " << cut;
  }
}

// --------------------------------------------- updater + CDN cold start

TEST(UpdaterPersist, CheckpointAndRecoverResumeFeedCursor) {
  TempDir dir("updater");
  Rng rng(51);
  auto cdn = cdn::make_global_cdn(0);
  ca::DistributionPoint dp(&cdn, 10);
  auto ca = make_ca(52);
  dp.register_ca(ca.id(), ca.public_key());

  UnixSeconds now_s = 1000;
  std::uint64_t serial = 1;
  const auto publish_period = [&](std::size_t revocations) {
    if (revocations == 0) {
      dp.submit(ca.refresh(now_s));
    } else {
      std::vector<SerialNumber> serials;
      for (std::size_t i = 0; i < revocations; ++i) {
        serials.push_back(SerialNumber::from_uint(serial++, 4));
      }
      dp.submit(ca::FeedMessage::of(ca.revoke(serials, now_s)));
    }
    dp.publish(from_seconds(now_s));
    now_s += 10;
  };

  ra::DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  cdn::LocalCdn cdn_rpc(&cdn);
  ra::RaUpdater updater({.location = {0, 0}}, &store, &cdn_rpc.rpc);
  updater.enable_persistence(dir.str());

  for (int p = 0; p < 6; ++p) publish_period(p % 3 == 0 ? 5 : 0);
  updater.pull_up_to(5, from_seconds(now_s));
  updater.checkpoint();
  for (int p = 0; p < 4; ++p) publish_period(p % 2 == 0 ? 3 : 0);
  updater.pull_up_to(9, from_seconds(now_s));
  // Crash: nothing flushed beyond the WAL's own batching — force the sync
  // the way a real shutdown would not get to.
  store.wal()->sync();

  ra::DictionaryStore store2;
  store2.register_ca(ca.id(), ca.public_key(), ca.delta());
  ra::RaUpdater updater2({.location = {0, 0}}, &store2, &cdn_rpc.rpc);
  const auto report = updater2.recover(dir.str());
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(updater2.next_period(), 10u);
  EXPECT_EQ(store2.have_n(ca.id()), store.have_n(ca.id()));
  EXPECT_EQ(store2.root_of(ca.id())->encode(),
            store.root_of(ca.id())->encode());
  EXPECT_FALSE(store2.needs_sync(ca.id()));

  // The recovered updater keeps pulling new periods seamlessly.
  publish_period(2);
  updater2.pull_up_to(10, from_seconds(now_s));
  EXPECT_EQ(store2.have_n(ca.id()), serial - 1);
  EXPECT_EQ(updater2.totals().syncs, 0u);
}

TEST(StorePersist, ReopenedEmptyWalNumbersPastTheSnapshotStamp) {
  // Regression: persist_to() empties the WAL; after a crash the reopened
  // log would restart numbering at 1, below the snapshot's stamp, and the
  // next recovery would drop every post-restart mutation. append_wal()
  // floors the counter at mutation_seq + 1.
  TempDir dir("store-empty-wal");
  auto ca = make_ca(81);
  const auto issue = [&](std::uint64_t s, UnixSeconds now) {
    return ca.revoke({SerialNumber::from_uint(s, 4)}, now);
  };

  {
    ra::DictionaryStore store;
    store.register_ca(ca.id(), ca.public_key(), ca.delta());
    persist::WriteAheadLog wal;
    wal.open(Recovery::wal_path(dir.str()));
    store.attach_wal(&wal);
    for (std::uint64_t s = 1; s <= 3; ++s) {
      ASSERT_EQ(store.apply_issuance(issue(s, 1000 + 10 * s), 1000 + 10 * s),
                ra::ApplyResult::ok);
    }
    store.persist_to(dir.str());  // snapshot stamped seq 3; WAL emptied
    wal.close();                  // crash with the log empty
  }
  std::uint64_t n_second_run = 0;
  {
    ra::DictionaryStore store;
    store.register_ca(ca.id(), ca.public_key(), ca.delta());
    ASSERT_TRUE(store.recover_from(dir.str()).ok);
    persist::WriteAheadLog wal;
    wal.open(Recovery::wal_path(dir.str()));  // fresh log: next_seq == 1
    store.attach_wal(&wal);
    for (std::uint64_t s = 4; s <= 5; ++s) {
      ASSERT_EQ(store.apply_issuance(issue(s, 1000 + 10 * s), 1000 + 10 * s),
                ra::ApplyResult::ok);
    }
    n_second_run = store.have_n(ca.id());
    wal.close();  // crash again, no second snapshot
  }
  ra::DictionaryStore recovered;
  recovered.register_ca(ca.id(), ca.public_key(), ca.delta());
  const auto report = recovered.recover_from(dir.str());
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.replayed, 2u);  // both post-restart issuances survive
  EXPECT_EQ(recovered.have_n(ca.id()), n_second_run);
}

TEST(UpdaterPersist, MutationsAfterEmptyTailRecoveryAreNotLost) {
  // Regression: a checkpoint empties the WAL; recovering from exactly that
  // state (no tail) and then accepting new mutations must number them
  // *past* the snapshot's stamp — if the reopened log restarted at seq 1,
  // the next recovery would silently drop everything since the checkpoint.
  TempDir dir("updater-empty-tail");
  auto cdn = cdn::make_global_cdn(0);
  cdn::LocalCdn cdn_rpc(&cdn);
  ca::DistributionPoint dp(&cdn, 10);
  auto ca = make_ca(72);
  dp.register_ca(ca.id(), ca.public_key());

  UnixSeconds now_s = 1000;
  std::uint64_t serial = 1;
  const auto publish_period = [&](std::size_t revocations) {
    std::vector<SerialNumber> serials;
    for (std::size_t i = 0; i < revocations; ++i) {
      serials.push_back(SerialNumber::from_uint(serial++, 4));
    }
    dp.submit(ca::FeedMessage::of(ca.revoke(serials, now_s)));
    dp.publish(from_seconds(now_s));
    now_s += 10;
  };

  {
    ra::DictionaryStore store;
    store.register_ca(ca.id(), ca.public_key(), ca.delta());
    ra::RaUpdater updater({.location = {0, 0}}, &store, &cdn_rpc.rpc);
    updater.enable_persistence(dir.str());
    for (int p = 0; p < 3; ++p) publish_period(4);
    updater.pull_up_to(2, from_seconds(now_s));
    updater.checkpoint();  // WAL now empty; crash right here
  }

  std::uint64_t n_after_second_run = 0;
  {
    // Restart 1: recover from snapshot + empty tail, then accept more.
    ra::DictionaryStore store;
    store.register_ca(ca.id(), ca.public_key(), ca.delta());
    ra::RaUpdater updater({.location = {0, 0}}, &store, &cdn_rpc.rpc);
    const auto report = updater.recover(dir.str());
    ASSERT_TRUE(report.ok) << report.error;
    EXPECT_EQ(updater.next_period(), 3u);
    for (int p = 0; p < 2; ++p) publish_period(4);
    updater.pull_up_to(4, from_seconds(now_s));
    store.wal()->sync();
    n_after_second_run = store.have_n(ca.id());
    ASSERT_EQ(n_after_second_run, 20u);
  }  // crash again, without a second checkpoint

  // Restart 2: the post-recovery mutations must all replay.
  ra::DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  ra::RaUpdater updater({.location = {0, 0}}, &store, &cdn_rpc.rpc);
  const auto report = updater.recover(dir.str());
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.replayed, 2u);  // the two post-checkpoint issuances
  EXPECT_EQ(store.have_n(ca.id()), n_after_second_run);
  EXPECT_EQ(updater.next_period(), 5u);

  // And a checkpoint now must supersede the old snapshot, not rank below
  // it: one more cycle proves the newest state wins.
  updater.checkpoint();
  ra::DictionaryStore store2;
  store2.register_ca(ca.id(), ca.public_key(), ca.delta());
  ra::RaUpdater updater2({.location = {0, 0}}, &store2, &cdn_rpc.rpc);
  ASSERT_TRUE(updater2.recover(dir.str()).ok);
  EXPECT_EQ(store2.have_n(ca.id()), n_after_second_run);
  EXPECT_EQ(updater2.next_period(), 5u);
}

TEST(ColdStart, FreshRaBootstrapsInOnePullThenPullsOnlyDeltas) {
  auto cdn = cdn::make_global_cdn(0);
  cdn::LocalCdn cdn_rpc(&cdn);
  ca::DistributionPoint dp(&cdn, 10);
  auto ca = make_ca(62);
  dp.register_ca(ca.id(), ca.public_key());

  // History: 20 feed periods of revocations.
  UnixSeconds now_s = 1000;
  std::uint64_t serial = 1;
  for (int p = 0; p < 20; ++p) {
    std::vector<SerialNumber> serials;
    for (int i = 0; i < 50; ++i) {
      serials.push_back(SerialNumber::from_uint(serial++, 4));
    }
    dp.submit(ca::FeedMessage::of(ca.revoke(serials, now_s)));
    dp.publish(from_seconds(now_s));
    now_s += 10;
  }
  // The CA publishes its cold-start object covering periods 0..19.
  ASSERT_EQ(dp.publish_cold_start(ca.cold_start_object(19, now_s),
                                  from_seconds(now_s)),
            svc::Status::ok);
  // Two more delta periods after the snapshot.
  for (int p = 0; p < 2; ++p) {
    std::vector<SerialNumber> serials;
    for (int i = 0; i < 5; ++i) {
      serials.push_back(SerialNumber::from_uint(serial++, 4));
    }
    dp.submit(ca::FeedMessage::of(ca.revoke(serials, now_s)));
    dp.publish(from_seconds(now_s));
    now_s += 10;
  }

  ra::DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), ca.delta());
  ra::RaUpdater updater({.location = {0, 0}}, &store, &cdn_rpc.rpc);
  ASSERT_EQ(updater.bootstrap(ca.id(), from_seconds(now_s)), svc::Status::ok);
  EXPECT_EQ(store.have_n(ca.id()), 1000u);   // periods 0..19 in one GET
  EXPECT_EQ(updater.next_period(), 20u);
  EXPECT_EQ(updater.totals().bootstraps, 1u);

  updater.pull_up_to(21, from_seconds(now_s));
  EXPECT_EQ(store.have_n(ca.id()), serial - 1);
  EXPECT_EQ(updater.totals().syncs, 0u);
  EXPECT_EQ(updater.totals().rejected, 0u);
  // Statuses served off the bootstrapped replica verify like any other.
  const auto status = store.status_for(ca.id(), SerialNumber::from_uint(3, 4));
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(dict::verify_proof(status->proof, SerialNumber::from_uint(3, 4),
                                 status->signed_root.root,
                                 status->signed_root.n));

  // A tampered cold-start object is rejected: flip a snapshot byte.
  auto obj = ca.cold_start_object(21, now_s);
  obj.dict_snapshot[40] ^= 0x01;
  ASSERT_EQ(dp.publish_cold_start(obj, from_seconds(now_s)),
            svc::Status::ok);  // sig is fine
  ra::DictionaryStore store2;
  store2.register_ca(ca.id(), ca.public_key(), ca.delta());
  ra::RaUpdater updater2({.location = {0, 0}}, &store2, &cdn_rpc.rpc);
  EXPECT_EQ(updater2.bootstrap(ca.id(), from_seconds(now_s)),
            svc::Status::root_mismatch);
  EXPECT_FALSE(store2.has_root(ca.id()));
}

}  // namespace
}  // namespace ritm
