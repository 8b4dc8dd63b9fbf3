// Atomic snapshot files for the durable dictionary pipeline.
//
// A snapshot is a set of sections stamped with the WAL sequence number it
// covers: every logged record with seq <= that stamp is already reflected
// in the sections, so recovery maps the newest valid snapshot and replays
// only the WAL records past it.
//
// On-disk format (version 2, the only one): a 20-byte stamp zero-padded to
// 64 bytes, followed by a persist::sections container of 64-byte-aligned,
// individually CRC'd sections —
//   "RITMSNAP" (8)  u32 version (=2)  u64 seq  pad to 64  container
// Readers mmap the file and adopt arena sections in place
// (dict::Dictionary::restore_sections); the entry log and digest arena are
// never copied or re-hashed on the restore path.
//
// Commit protocol (crash-safe on POSIX rename semantics; see
// commit_container_file):
//   1. write snap-<seq>.snap.tmp in full,
//   2. fsync the tmp file,
//   3. rename(2) it to snap-<seq>.snap,
//   4. fsync the directory.
// A crash before (3) leaves only a .tmp that loading ignores; a crash after
// leaves a complete, CRC-checked file. map_newest() walks snapshots newest
// first and skips any whose stamp, directory, or section CRCs do not check
// out, so a corrupt latest snapshot degrades to the previous one instead of
// to nothing.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "persist/sections.hpp"

namespace ritm::persist {

/// Read-only mmap of one file, shared by every arena adopted out of it; the
/// mapping lives until the last adopter detaches.
class MappedFile {
 public:
  /// Maps `path` read-only (PROT_READ, MAP_PRIVATE). nullptr on failure.
  static std::shared_ptr<const MappedFile> map(const std::string& path);

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  ByteSpan span() const noexcept {
    return ByteSpan(static_cast<const std::uint8_t*>(base_), len_);
  }

 private:
  MappedFile(void* base, std::size_t len) : base_(base), len_(len) {}

  void* base_ = nullptr;
  std::size_t len_ = 0;
};

class SnapshotFile {
 public:
  static constexpr std::size_t kV2HeaderSize = 64;  // stamp padded to 64

  /// A validated snapshot mapped into memory. `sections` alias the mapping;
  /// hold `file` for as long as any of them is in use (restore_sections
  /// keeps it alive per-arena).
  struct Mapped {
    std::uint64_t seq = 0;
    std::shared_ptr<const MappedFile> file;
    std::vector<SectionView> sections;
  };

  /// Atomically commits `sections` as the snapshot covering WAL records up
  /// to and including `seq`, streaming them straight to the tmp fd (no
  /// whole-file staging). Creates `dir` if needed. Only the two newest
  /// snapshots are kept after the commit — the newest plus one fallback
  /// for when it fails validation. Returns the committed file's size in
  /// bytes. Throws std::runtime_error on I/O failure.
  static std::uint64_t write_v2(const std::string& dir, std::uint64_t seq,
                                const std::vector<SectionSpec>& sections);

  /// Maps the newest snapshot in `dir` that validates fully (magic,
  /// version, stamp, directory, and every section CRC), skipping (and
  /// counting into `skipped`, when given) every newer one that does not.
  /// nullopt when no valid snapshot exists.
  static std::optional<Mapped> map_newest(const std::string& dir,
                                          std::uint64_t* skipped = nullptr);
};

}  // namespace ritm::persist
