// The authenticated dictionary of paper §III Fig. 2.
//
// One instance per CA. The CA owns the writable copy (insert); every RA
// maintains a replica it updates by replaying the CA's announced serials and
// comparing the recomputed root against the signed root (update). Both sides
// use the same class; `update` implements the RA-side acceptance rule.
//
// Representation: an append-only log in revocation-number order plus a
// sorted-by-serial index. The Merkle tree lives in one flat contiguous
// digest arena with per-level offsets (leaf capacity rounded to a power of
// two, so offsets stay stable as the dictionary grows) and is rebuilt lazily
// and *incrementally*: mutations record the lowest dirtied sorted position,
// and the rebuild rehashes only leaves [dirty_lo, n) plus their ancestor
// spine. A Δ-batch of appends past the current maximum serial therefore
// costs O(batch + log n) hashes instead of O(n). Proof generation is
// O(log n).
//
// All three arenas (log, sorted index, digest tree) are copy-on-write
// (dict/arena.hpp): the log is fixed-width 24-byte records, so a snapshot
// can dump the arenas verbatim into 64-byte-aligned file sections
// (snapshot_sections) and a restart can adopt them straight out of an
// mmap-ed snapshot (restore_sections) — zero copy until the first
// mutation. Copying a Dictionary is O(1) and yields a stable frozen view,
// which is what the background checkpointer snapshots while serving
// continues.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "common/io.hpp"
#include "dict/arena.hpp"
#include "dict/proof.hpp"

namespace ritm::dict {

/// One entry of the append-only log in its arena form: a fixed-width,
/// mmap-adoptable record. The revocation number is implicit (position + 1).
struct LogRecord {
  std::uint8_t len = 0;
  std::uint8_t bytes[23] = {};
};
static_assert(sizeof(LogRecord) == 24, "snapshot sections assume 24B records");
static_assert(cert::kMaxSerialBytes <= sizeof(LogRecord::bytes),
              "serials must fit a LogRecord");

/// The raw arena sections of one dictionary — what a snapshot file persists
/// verbatim and what an mmap restore adopts in place. Spans use the
/// dictionary's in-memory (host-endian) layout; the snapshot container
/// carries an endianness tag so a foreign-endian file is rejected as
/// corrupt instead of being misread.
struct DictSections {
  std::uint64_t epoch = 0;
  std::uint64_t n = 0;
  crypto::Digest20 root{};
  ByteSpan log;     // n * sizeof(LogRecord)
  ByteSpan sorted;  // n * sizeof(uint32_t)
  ByteSpan tree;    // (2 * leaf_cap - 1) * 20, empty when n == 0
};

class Dictionary {
 public:
  Dictionary() = default;

  /// Number of revocations (leaves); the paper's `n`.
  std::uint64_t size() const noexcept { return log_.size(); }

  /// Current Merkle root (empty_root() when size()==0). Rebuilds if stale.
  const crypto::Digest20& root() const;

  /// Monotonically increasing version counter: bumped on every accepted
  /// mutation (insert that appends, update — including a rejected update's
  /// rollback, which conservatively counts as two transitions). Two calls
  /// observing the same epoch are guaranteed to observe the same contents
  /// and root, which is what lets the RA's status cache serve encoded
  /// responses without re-proving (ra::DictionaryStore).
  std::uint64_t epoch() const noexcept { return epoch_; }

  /// True when a mutation has outdated the Merkle tree and the next root()
  /// (or prove()) will pay for a rebuild. ShardedDictionary::rebuild_dirty
  /// uses this to fan only the dirty shards across a thread pool.
  bool tree_stale() const noexcept { return !tree_valid_; }

  bool contains(const cert::SerialNumber& serial) const;

  /// Looks up the revocation number of a serial, if revoked.
  std::optional<std::uint64_t> number_of(const cert::SerialNumber& serial) const;

  /// CA-side insert (Fig. 2): appends each new serial with the next
  /// consecutive number. Serials already present — in the dictionary or
  /// earlier in the same batch — are skipped, so numbering is idempotent
  /// regardless of batch size. Returns the entries actually appended, in
  /// numbering order. Throws (before any mutation) if a serial has an
  /// invalid length.
  std::vector<Entry> insert(const std::vector<cert::SerialNumber>& serials);

  /// RA-side update (Fig. 2): replays `serials` and accepts iff the rebuilt
  /// root equals `expected_root` and the new size equals `expected_n`.
  /// On mismatch the dictionary is rolled back and false is returned.
  bool update(const std::vector<cert::SerialNumber>& serials,
              const crypto::Digest20& expected_root, std::uint64_t expected_n);

  /// Produces a presence or absence proof for `serial` (Fig. 2 prove).
  Proof prove(const cert::SerialNumber& serial) const;

  /// Entries with numbers in [first_number, n], in numbering order — the
  /// replication stream an RA uses to resynchronize after detecting a gap
  /// (§III "synchronization protocol").
  std::vector<Entry> entries_from(std::uint64_t first_number) const;

  /// Serializes the dictionary (versioned, length-prefixed: epoch, the
  /// entry log, the sorted index, and the current root) into `w` — the
  /// compact wire codec of CA cold-start objects (ca::ColdStartObject) and
  /// of the store's WAL bootstrap records, 5 + serial length bytes per
  /// entry. It is not a disk snapshot format (see snapshot_sections).
  /// The encoding streams straight out of the flat arenas; it rebuilds
  /// lazily first so the recorded root always matches the recorded
  /// contents.
  void snapshot_into(ByteWriter& w) const;

  /// Restores a dictionary serialized by snapshot_into(). No per-entry
  /// re-hash: the log and sorted index load in O(n), the sorted order is
  /// validated with byte comparisons, and the Merkle root is recomputed
  /// once and checked against the encoding's recorded root. Throws
  /// std::runtime_error on malformed input or a root mismatch, leaving the
  /// dictionary untouched.
  void restore_from(ByteReader& r);

  /// The raw arena sections for an mmap-able snapshot file. Forces a rebuild
  /// first so the tree section and recorded root match the contents; the
  /// spans alias this dictionary's arenas and stay valid until the next
  /// mutation (freeze — copy — first when persisting off-thread).
  DictSections snapshot_sections() const;

  /// Adopts snapshot sections in place: validates record lengths, index
  /// bounds, section sizes, and that the recorded root equals the tree
  /// arena's top node, then aliases the spans directly (holding `keepalive`
  /// — typically the mapped snapshot file — until the first mutation
  /// detaches). No hashing, no copy. Unlike restore_from, the sorted
  /// *order* is not re-verified here — section CRCs guard integrity, and
  /// untrusted wire payloads (bootstrap/sync) always take restore_from.
  /// Throws std::runtime_error on malformed sections, leaving this
  /// dictionary untouched.
  void restore_sections(const DictSections& s,
                        std::shared_ptr<const void> keepalive);

  /// Bytes needed to persist the raw revocation list (serials + numbers) —
  /// the paper's "storage overhead" (§VII-D).
  std::size_t storage_bytes() const noexcept;

  /// Bytes of in-memory state including the Merkle arena — the paper's
  /// "memory required to build and keep all dictionaries" (§VII-D).
  std::size_t memory_bytes() const noexcept;

  /// SHA-256 invocations performed by the most recent rebuild, and in total
  /// over this dictionary's lifetime (ablation/bench metrics).
  std::uint64_t last_rebuild_hash_count() const noexcept {
    return last_rebuild_hashes_;
  }
  std::uint64_t total_hash_count() const noexcept { return total_hashes_; }

  /// Drops all incremental rebuild state so the next root() performs a full
  /// O(n) rebuild — a bench/testing hook that reproduces the pre-incremental
  /// cost model and lets tests pin incremental == full.
  void invalidate_tree() const noexcept;

 private:
  static constexpr std::size_t kClean = std::numeric_limits<std::size_t>::max();

  void rebuild() const;
  /// Derives leaf_cap_, level_off_/level_size_ shapes, and level_count_ for
  /// `n` leaves without touching the tree arena (shared by the mutation
  /// path and mmap adoption).
  void compute_layout(std::size_t n) const;
  /// (Re)allocates the flat arena for `n` leaves: capacity is the next power
  /// of two, offsets are derived from capacity so they survive growth.
  void layout(std::size_t n) const;
  /// Hashes leaves [lo, n) into level 0 of `arena` via the batch entry point.
  void hash_leaves(crypto::Digest20* arena, std::size_t lo,
                   std::size_t n) const;
  /// Hashes dirty parents [lo, next_size) at `level + 1` from the `size`
  /// children at `level`, batched in 64-node chunks (multi-lane engine).
  void hash_inner(crypto::Digest20* arena, std::size_t level, std::size_t lo,
                  std::size_t next_size, std::size_t size) const;
  /// Records that sorted positions >= pos must be rehashed.
  void mark_dirty(std::size_t pos) noexcept;

  const crypto::Digest20& node(std::size_t level, std::size_t i) const {
    return tree_.data()[level_off_[level] + i];
  }

  /// Serial bytes of log entry `idx` (the entry's number is idx + 1).
  ByteSpan serial_at(std::size_t idx) const noexcept {
    const LogRecord& r = log_[idx];
    return ByteSpan(r.bytes, r.len);
  }
  /// Materializes log entry `idx` as an owning Entry (allocates).
  Entry entry_at(std::size_t idx) const {
    const LogRecord& r = log_[idx];
    return Entry{cert::SerialNumber{Bytes(r.bytes, r.bytes + r.len)}, idx + 1};
  }

  /// Position in sorted_ of first entry with serial >= s.
  std::size_t lower_bound(ByteSpan serial) const;
  LeafProof make_leaf_proof(std::size_t sorted_pos) const;

  CowArena<LogRecord> log_;            // numbering order, append-only
  CowArena<std::uint32_t> sorted_;     // indices into log_, sorted by serial
  std::uint64_t epoch_ = 0;            // version counter, see epoch()

  // Flat Merkle arena: level 0 (leaves) first, root level last. Offsets are
  // computed from leaf_cap_ (a power of two), so growing n within capacity
  // never moves existing nodes.
  mutable CowArena<crypto::Digest20> tree_;
  mutable std::vector<std::size_t> level_off_;
  mutable std::vector<std::size_t> level_size_;
  mutable std::size_t level_count_ = 0;
  mutable std::size_t leaf_cap_ = 0;
  mutable std::size_t built_leaves_ = 0;   // leaves in the built tree
  mutable std::size_t dirty_lo_ = kClean;  // lowest stale sorted position
  mutable bool tree_valid_ = false;
  mutable std::uint64_t last_rebuild_hashes_ = 0;
  mutable std::uint64_t total_hashes_ = 0;
};

}  // namespace ritm::dict
