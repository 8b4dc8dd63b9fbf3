// Per-shard incremental checkpoints for sharded dictionaries.
//
// Inserts dirty exactly one expiry bucket at a time, so rewriting every
// shard on every checkpoint wastes nearly all of its bytes. The
// checkpointer instead keeps one section-container file per shard and a
// small manifest unifying them:
//
//   shard-<key hex16>-<epoch hex16>.shard
//     "RITMSHRD" (8)  u32 version (=1)  u64 shard key  u64 dict epoch,
//     zero-padded to 64 bytes, then a persist::sections container holding
//     the shard's meta (tag 1: u8 ver, u64 epoch, u64 n, 20B root) and its
//     raw arenas (tag 2 entry log, tag 3 sorted index, tag 4 digest arena)
//     — the same mmap-adoptable layout as a SnapshotFile.
//
//   snap-<epoch hex16>.snap  (manifest, a SnapshotFile stamped with the
//     sharded epoch, holding one kManifestSection section)
//     u8 version (=1)  u64 bucket_width  u64 sharded epoch  u32 shard_count
//     then per shard (ascending key): u64 key  u64 shard dict epoch.
//
// checkpoint() writes only shards whose Dictionary::epoch() moved since the
// last checkpoint (tracked per key), fsyncs them, then commits the manifest
// — so a crash mid-checkpoint leaves the previous manifest pointing at the
// previous shard files, all still present. Retention keeps every shard file
// referenced by the two newest manifests and deletes the rest.
//
// recover() maps the newest valid manifest (a corrupt newest manifest falls
// back to the previous one, whose shard files retention kept) and adopts
// its shard files' arenas in place (Dictionary::restore_sections keeps each
// mapping alive). A missing or corrupt shard file fails recovery — the sharded dictionary
// is CA-side state the caller can rebuild from its feed, so there is no
// partial-restore mode.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/thread_pool.hpp"
#include "dict/sharded.hpp"

namespace ritm::persist {

class ShardCheckpointer {
 public:
  /// Section tag of the manifest inside its snapshot file.
  static constexpr std::uint32_t kManifestSection = 1;

  struct Stats {
    std::size_t shards_written = 0;   // rewritten this checkpoint
    std::size_t shards_skipped = 0;   // clean since the last checkpoint
    std::uint64_t bytes_written = 0;  // shard files + manifest, this call
  };

  struct RecoverResult {
    bool ok = false;
    std::uint64_t epoch = 0;        // recovered sharded epoch
    std::size_t shards = 0;         // shard files adopted
    std::string error;              // set when ok == false and a manifest
                                    // existed; empty-dir recovery is ok with
                                    // have_manifest == false
    bool have_manifest = false;
  };

  explicit ShardCheckpointer(std::string dir);

  /// Incrementally checkpoints `sharded` into the directory: rewrites dirty
  /// shards (in parallel across `pool` when given), commits the manifest,
  /// then prunes unreferenced shard files. Throws std::runtime_error on I/O
  /// failure. Serialise calls against mutations of `sharded` externally
  /// (freeze semantics are the caller's: a CowArena-sharing copy works).
  Stats checkpoint(const dict::ShardedDictionary& sharded,
                   ThreadPool* pool = nullptr);

  /// Restores the newest valid manifest into `out` and primes the dirty
  /// tracking so the next checkpoint() rewrites nothing that is already on
  /// disk. On failure `out` is untouched.
  RecoverResult recover(dict::ShardedDictionary& out);

  const std::string& dir() const noexcept { return dir_; }

 private:
  std::string dir_;
  /// shard key -> the Dictionary::epoch() of its newest on-disk file; a
  /// shard whose live epoch still matches is skipped entirely.
  std::map<std::uint64_t, std::uint64_t> on_disk_epoch_;
};

}  // namespace ritm::persist
