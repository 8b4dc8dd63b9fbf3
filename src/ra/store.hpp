// The RA's replicated dictionary store: one verified replica per CA, kept
// current by replaying issuance messages (Fig. 2 `update`), freshness
// statements, and sync responses. All acceptance rules of §III live here:
// signature checks, root-replay comparison, hash-chain freshness walks, and
// gap detection via the revocation numbering.
//
// Serving path: handshake throughput is bounded by how fast the RA can
// assemble a RevocationStatus per packet, so each CA carries a status cache
// mapping serial → encoded status bytes. The cache is keyed by the replica's
// version — the dictionary epoch plus a freshness sequence — and is dropped
// wholesale the moment either advances, so a warm serial costs one hash
// lookup and a memcpy instead of prove + encode, and a stale status can
// never be served across a root change. Within one version the cache is
// bounded by a byte budget with CLOCK second-chance eviction: high-
// cardinality (attacker-controlled) serials evict cold entries one at a
// time while hot serials keep their ref bit and stay warm.
//
// Concurrency (PR 7): the per-CA cache is split into kCacheShards
// serial-hash shards, each with its own mutex, CLOCK ring, and
// (epoch, freshness_seq) stamp, so the multi-reactor TCP server's serving
// threads contend only when they race on the same shard of the same CA.
// Invalidation is lazy — apply_* paths bump the version counters and never
// touch a shard lock, so writers share no locks with readers; each shard
// notices the stamp mismatch and clears itself on its next lookup. Cache
// entries own their bytes through a shared_ptr which CachedStatus holds,
// so returned bytes survive concurrent eviction. The contract is
// concurrent *readers* (status_for / status_bytes_for) against each other;
// mutations (apply_*, recover_from) still require external serialization
// against readers, exactly like the dictionaries underneath.
//
// Durability (PR 4): attach_wal() makes the store log every accepted
// mutation to a persist::WriteAheadLog; persist_to()/recover_from() write
// and reload atomic snapshots, replaying the WAL tail through the same
// apply_* paths that ran live — recovery *is* replay, so the recovered
// root/epoch/proofs are byte-identical to an in-memory replay of the
// surviving prefix.
//
// Zero-copy persistence (PR 9): persist_to() writes snapshot format v2 —
// each dictionary's entry log, sorted index, and digest arena go to disk as
// raw 64-byte-aligned sections, and recover_from() mmaps the file and
// adopts them in place (copy-on-first-mutation) instead of deserializing
// and re-hashing. freeze()/persist_frozen() split the write into an O(#CAs)
// consistent copy under the mutation lock and an off-lock file commit,
// which is what bounds the serving stall of background checkpoints.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/counter.hpp"
#include "crypto/hash_chain.hpp"
#include "dict/dictionary.hpp"
#include "dict/messages.hpp"
#include "dict/signed_root.hpp"
#include "persist/recovery.hpp"
#include "svc/envelope.hpp"

namespace ritm::ra {

/// Two conflicting signed roots for the same dictionary size — the
/// cryptographic, non-repudiable evidence of CA misbehaviour (§V).
struct MisbehaviourEvidence {
  dict::SignedRoot ours;
  dict::SignedRoot theirs;
};

/// The apply/acceptance verdicts are the upper range of the service-wide
/// svc::Status taxonomy (PR 5): unknown_ca / bad_signature / stale_root /
/// root_mismatch / gap_detected / bad_freshness, with svc::Status::ok for
/// acceptance — so a rejection reason travels unchanged from the replica
/// acceptance rule to the wire response to the Totals breakdown.
using ApplyResult = svc::Status;

class DictionaryStore {
 public:
  /// Registers a CA (trust anchor + its ∆). Replicas start empty.
  void register_ca(const cert::CaId& ca, const crypto::PublicKey& key,
                   UnixSeconds delta);

  bool knows(const cert::CaId& ca) const;
  std::size_t ca_count() const noexcept { return cas_.size(); }

  /// Applies a revocation issuance (serials + signed root).
  ApplyResult apply_issuance(const dict::RevocationIssuance& msg,
                             UnixSeconds now);

  /// Applies a freshness statement, verifying it against the committed
  /// anchor for the current period (±1 period of clock tolerance).
  ApplyResult apply_freshness(const dict::FreshnessStatement& msg,
                              UnixSeconds now);

  /// Applies a sync response (recovery after gap_detected).
  ApplyResult apply_sync(const dict::SyncResponse& msg, UnixSeconds now);

  /// Installs a CDN cold-start replica (§VIII bootstrapping): restores the
  /// CA's dictionary from a Dictionary snapshot payload, checks the signed
  /// root against the registered key, the recomputed dictionary root, and
  /// the recorded size, then adopts the freshness statement. One pull
  /// replaces replaying the CA's entire issuance history.
  ApplyResult bootstrap_replica(const cert::CaId& ca, ByteSpan dict_snapshot,
                                const dict::SignedRoot& root,
                                const crypto::Digest20& freshness,
                                UnixSeconds now);

  /// Builds the revocation status (Eq. (3)) the RA injects for a serial.
  /// Always re-proves and re-assembles — the cold path; the packet pipeline
  /// uses status_bytes_for().
  std::optional<dict::RevocationStatus> status_for(
      const cert::CaId& ca, const cert::SerialNumber& serial) const;

  /// A cached, fully encoded revocation status plus the signed-root fields
  /// the agent needs for the multi-RA freshness comparison without decoding.
  struct CachedStatus {
    /// Wire encoding of the RevocationStatus (what attach_status_bytes
    /// copies into the packet). Kept alive by `owned` below, so the view
    /// stays valid even if a concurrent lookup evicts or invalidates the
    /// entry after this returns.
    const Bytes* bytes = nullptr;
    std::uint64_t n = 0;          // signed_root.n
    UnixSeconds timestamp = 0;    // signed_root.timestamp
    std::uint64_t epoch = 0;      // dictionary epoch the proof is against
    std::shared_ptr<const Bytes> owned;  // lifetime anchor for `bytes`
  };

  struct CacheStats {
    Counter hits;
    Counter misses;         // lookups that had to prove + encode
    Counter invalidations;  // wholesale drops on version change
    Counter evictions;      // single entries evicted by CLOCK
    Counter evicted_bytes;  // bytes reclaimed by those evictions
  };

  /// Default per-CA status-cache byte budget. Serials are read off observed
  /// certificates, i.e. attacker-controlled, so the cache is bounded — but
  /// eviction is CLOCK second-chance per entry, not wholesale: hot serials
  /// under a flood of one-shot probes keep their ref bit and stay warm.
  static constexpr std::size_t kStatusCacheDefaultBudget = 32u << 20;

  /// Serial-hash shards per CA cache: serving threads racing on one CA
  /// contend only within a shard, and lazy invalidation is per shard.
  static constexpr std::size_t kCacheShards = 8;

  /// Floor on each shard's slice of the budget: tiny budgets still leave
  /// every shard enough slots for CLOCK's second chance to mean something
  /// (a 1–2 entry shard degrades to FIFO and evicts its own hot entries).
  static constexpr std::size_t kCacheShardMinBudget = 4096;

  /// Adjusts the per-CA cache byte budget (shrinking takes effect at each
  /// shard's next miss). The budget is split evenly across kCacheShards,
  /// floored at kCacheShardMinBudget per shard; budgets below one entry
  /// still admit a single entry per shard.
  void set_status_cache_budget(std::size_t bytes) noexcept {
    status_cache_budget_.store(bytes, std::memory_order_relaxed);
  }
  std::size_t status_cache_budget() const noexcept {
    return status_cache_budget_.load(std::memory_order_relaxed);
  }

  /// The warm serving path: returns the cached encoded status for
  /// (ca, serial), proving and encoding only on the first lookup per replica
  /// version. A root or freshness change invalidates the CA's whole cache
  /// before the next lookup, so returned bytes always reflect the current
  /// verified root. nullopt when the CA is unknown or has no root yet.
  std::optional<CachedStatus> status_bytes_for(
      const cert::CaId& ca, const cert::SerialNumber& serial) const;

  /// Snapshot of the cache counters (coherent per field; one field can
  /// lead another by an in-flight lookup under concurrency).
  CacheStats cache_stats() const noexcept { return cache_stats_; }

  /// Number of consecutive revocations held for `ca` (the sync cursor).
  std::uint64_t have_n(const cert::CaId& ca) const;

  /// True if a gap was detected and a sync is pending for `ca`.
  bool needs_sync(const cert::CaId& ca) const;

  /// True once a verified signed root is held for `ca`. Until then the RA
  /// cannot serve statuses and must bootstrap via the sync protocol.
  bool has_root(const cert::CaId& ca) const;

  /// Consistency checking (§III): compares a signed root obtained from an
  /// edge server / peer RA / piggybacked status against our replica.
  /// Returns evidence if both roots verify, have equal n, but differ —
  /// i.e. a provable split view. Updates nothing.
  std::optional<MisbehaviourEvidence> cross_check(
      const dict::SignedRoot& theirs) const;

  /// Latest verified signed root for a CA (for gossip / cross checks).
  const dict::SignedRoot* root_of(const cert::CaId& ca) const;

  /// Total memory footprint across replicas (§VII-D storage evaluation).
  std::size_t storage_bytes() const;
  std::size_t memory_bytes() const;

  // ------------------------------------------------------------ durability

  /// WAL record types owned by the store (persist::WalRecord::type). Types
  /// 16+ are left to layers stacking their own records onto the same log
  /// (ra::RaUpdater's feed-period markers).
  static constexpr std::uint8_t kWalIssuance = 1;
  static constexpr std::uint8_t kWalFreshness = 2;
  static constexpr std::uint8_t kWalSync = 3;
  static constexpr std::uint8_t kWalBootstrap = 4;

  /// Attaches an open write-ahead log: from now on every *accepted* mutation
  /// (issuance / freshness / sync / bootstrap, with its wall-clock `now`) is
  /// appended before the apply call returns. Detach with nullptr. The log
  /// must outlive the store or the next attach.
  void attach_wal(persist::WriteAheadLog* wal) noexcept { wal_ = wal; }
  persist::WriteAheadLog* wal() const noexcept { return wal_; }

  /// Sequence number of the last logged (or replayed) mutation — what
  /// persist_to() stamps its snapshot with.
  std::uint64_t mutation_seq() const noexcept { return mutation_seq_; }

  /// Snapshot section tags (persist::SectionSpec::tag): tag 1
  /// carries the store metadata (flags, signed roots, freshness state, and
  /// per-dictionary epoch/n/root); the i-th CA's dictionary arenas (in meta
  /// order) use ((i+1) << 8) | kind with kinds 1 = entry log, 2 = sorted
  /// index, 3 = digest arena.
  static constexpr std::uint32_t kSectionMeta = 1;
  static constexpr std::uint32_t kSectionKindLog = 1;
  static constexpr std::uint32_t kSectionKindSorted = 2;
  static constexpr std::uint32_t kSectionKindTree = 3;

  /// A consistent copy of every replica's durable state, cheap enough to
  /// take under the mutation lock: the Dictionary copies share their arenas
  /// copy-on-write, so freeze() is O(#CAs) regardless of entry counts. The
  /// background checkpointer freezes briefly, then persists the frozen
  /// image while the live store keeps mutating (first mutation per arena
  /// pays one detach-copy).
  struct FrozenStore {
    struct FrozenCa {
      cert::CaId ca;
      bool have_root = false;
      bool desynchronized = false;
      dict::SignedRoot root;
      crypto::Digest20 freshness{};
      std::uint64_t freshness_period = 0;
      std::uint64_t freshness_seq = 0;
      dict::Dictionary dict;  // arena-sharing copy
    };
    std::vector<FrozenCa> cas;  // in CaId order (matches section tagging)
    std::uint64_t mutation_seq = 0;
  };

  /// Takes the O(#CAs) frozen copy. The caller must hold whatever
  /// serializes mutations for the duration of this call only; persisting
  /// the result can then run concurrently with further mutations.
  FrozenStore freeze() const;

  /// Commits `frozen` as a format-v2 (mmap-ready) snapshot into `dir`,
  /// stamped with frozen.mutation_seq. Never touches the WAL — the caller
  /// decides whether the log may be reset (persist_to resets immediately;
  /// the background checkpointer resets only if no mutation landed while it
  /// wrote). Returns the committed file's size in bytes.
  static std::uint64_t persist_frozen(const FrozenStore& frozen,
                                      const std::string& dir);

  /// Atomically writes the current state as a snapshot into `dir` (stamped
  /// with mutation_seq()) and, when a WAL is attached, resets it — the
  /// snapshot supersedes every logged record.
  void persist_to(const std::string& dir);

  struct RecoveryReport {
    bool ok = false;
    bool have_snapshot = false;
    std::uint64_t snapshot_seq = 0;
    std::size_t replayed = 0;        // WAL records applied cleanly
    std::size_t rejected = 0;        // replayed records the rules refused
    std::uint64_t truncated_bytes = 0;   // torn WAL tail detected
    std::uint64_t snapshots_skipped = 0; // corrupt snapshot files passed over
    /// Records with types the store does not own (16+), in seq order — the
    /// updater reads its period markers back out of these.
    std::vector<persist::WalRecord> unhandled;
    std::string error;               // set when ok == false
  };

  /// Crash recovery: loads the newest valid snapshot in `dir` and replays
  /// the WAL tail past it through the normal apply_* paths (without
  /// re-logging). Torn final records are detected and skipped; reopening
  /// the WAL for appending afterwards truncates them in place. All CAs must
  /// be registered before calling.
  RecoveryReport recover_from(const std::string& dir);

 private:
  struct CaState {
    crypto::PublicKey key{};
    UnixSeconds delta = 10;
    dict::Dictionary dict;
    dict::SignedRoot root;
    bool have_root = false;
    crypto::Digest20 freshness{};     // latest verified statement
    std::uint64_t freshness_period = 0;
    bool desynchronized = false;
    /// Bumped whenever the served material changes without the dictionary
    /// necessarily growing: a new signed root (possibly with zero serials)
    /// or an accepted freshness statement. Together with dict.epoch() this
    /// versions everything a RevocationStatus contains.
    std::uint64_t freshness_seq = 0;
    // Serial → encoded RevocationStatus, valid for exactly one
    // (dict epoch, freshness_seq) pair, bounded by the byte budget with
    // CLOCK second-chance eviction. Split into serial-hash shards, each
    // self-contained behind its own mutex: lookups under concurrency
    // contend per shard, and each shard validates its own version stamp
    // lazily (writers never take cache locks). Heterogeneous lookup keeps
    // the warm path allocation-free (the serial bytes are viewed, not
    // copied, until an insert). Mutable: serving is logically const.
    struct TransparentHash {
      using is_transparent = void;
      std::size_t operator()(std::string_view s) const noexcept {
        return std::hash<std::string_view>{}(s);
      }
    };
    struct CacheEntry {
      /// shared_ptr-owned so a CachedStatus handed to a serving thread
      /// outlives eviction/invalidation by a concurrent lookup.
      std::shared_ptr<const Bytes> bytes;
      bool ref = false;  // CLOCK second-chance bit
    };
    struct CacheShard {
      std::mutex mu;
      std::unordered_map<std::string, CacheEntry, TransparentHash,
                         std::equal_to<>>
          map;
      /// CLOCK ring: one slot per cached serial (pointers into the map's
      /// node-stable keys). The hand sweeps slots, clearing ref bits, and
      /// evicts the first entry found cold.
      std::vector<const std::string*> ring;
      std::size_t hand = 0;
      std::size_t bytes = 0;  // budgeted footprint of this shard
      std::uint64_t epoch = 0;
      std::uint64_t freshness_seq = 0;
    };
    struct StatusCache {
      std::array<CacheShard, kCacheShards> shards;
      StatusCache() = default;
      // Replica copies (restore_snapshot staging) never carry the cache: a
      // restore is a version change for every CA anyway, and shard mutexes
      // are not copyable. Copies start cold and re-fill lazily.
      StatusCache(const StatusCache&) {}
      StatusCache& operator=(const StatusCache&) { return *this; }
    };
    mutable StatusCache cache;
  };

  /// Budget accounting per cache entry beyond key + encoded bytes: map node
  /// and ring-slot bookkeeping.
  static constexpr std::size_t kCacheEntryOverhead = 64;

  CaState* find(const cert::CaId& ca);
  const CaState* find(const cert::CaId& ca) const;
  /// The single assembly point for Eq. (3): both the cold status_for path
  /// and the cache's miss path build statuses here so they can never drift.
  static dict::RevocationStatus assemble_status(
      const CaState& state, const cert::SerialNumber& serial);
  /// Verifies a statement against `state`'s anchor for period ~now; stores
  /// it on success.
  bool accept_freshness(CaState& state, const crypto::Digest20& statement,
                        UnixSeconds now);
  /// Each shard's slice of the byte budget (floored at
  /// kCacheShardMinBudget so CLOCK keeps enough slots to be meaningful).
  std::size_t shard_budget() const noexcept;
  /// CLOCK second-chance: evicts cold entries from `shard` (whose mutex the
  /// caller holds) until `need` more bytes fit under the shard's budget
  /// slice (or the shard is empty).
  void evict_for(CaState::CacheShard& shard, std::size_t need) const;
  /// Raw WAL append with the sequence counter floored past mutation_seq()
  /// (a reopened post-checkpoint log restarts at 1, which would place new
  /// records below the snapshot's stamp and lose them at the next
  /// recovery). Requires an attached WAL.
  void append_wal(std::uint8_t type, ByteSpan payload);
  /// Appends an accepted mutation to the attached WAL (no-op while
  /// replaying or with no WAL attached).
  void log_mutation(std::uint8_t type, UnixSeconds now, ByteSpan message);
  /// Restores a mapped snapshot: parses the meta section, adopts each CA's
  /// arena sections in place (keeping the mapping alive), and re-verifies
  /// every signed root against its registered key. Every CA in the
  /// snapshot must already be registered (keys and ∆ are trust
  /// configuration, not replicated state); registered CAs absent from it
  /// keep their state. Staged — throws std::runtime_error on any mismatch,
  /// leaving the store untouched.
  void restore_snapshot(const persist::SnapshotFile::Mapped& mapped);

  std::map<cert::CaId, CaState> cas_;
  mutable CacheStats cache_stats_;  // bumped by concurrent const lookups
  std::atomic<std::size_t> status_cache_budget_{kStatusCacheDefaultBudget};
  persist::WriteAheadLog* wal_ = nullptr;
  std::uint64_t mutation_seq_ = 0;
  bool replaying_ = false;  // recover_from() replay must not re-log
};

}  // namespace ritm::ra
