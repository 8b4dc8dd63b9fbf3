#include "ra/store.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "persist/snapshot.hpp"

namespace ritm::ra {

void DictionaryStore::register_ca(const cert::CaId& ca,
                                  const crypto::PublicKey& key,
                                  UnixSeconds delta) {
  if (delta <= 0) {
    throw std::invalid_argument("DictionaryStore: delta must be > 0");
  }
  auto& state = cas_[ca];
  state.key = key;
  state.delta = delta;
}

bool DictionaryStore::knows(const cert::CaId& ca) const {
  return cas_.count(ca) != 0;
}

DictionaryStore::CaState* DictionaryStore::find(const cert::CaId& ca) {
  auto it = cas_.find(ca);
  return it == cas_.end() ? nullptr : &it->second;
}

const DictionaryStore::CaState* DictionaryStore::find(
    const cert::CaId& ca) const {
  auto it = cas_.find(ca);
  return it == cas_.end() ? nullptr : &it->second;
}

void DictionaryStore::append_wal(std::uint8_t type, ByteSpan payload) {
  // A log emptied by a snapshot commit and then reopened restarts its
  // numbering at 1; records at or below the snapshot's stamp would be
  // dropped by the next recovery, so floor the counter first.
  wal_->fast_forward(mutation_seq_ + 1);
  mutation_seq_ = wal_->append(type, payload);
}

void DictionaryStore::log_mutation(std::uint8_t type, UnixSeconds now,
                                   ByteSpan message) {
  if (wal_ == nullptr || replaying_) return;
  Bytes payload;
  payload.reserve(8 + message.size());
  ByteWriter w(payload);
  w.u64(static_cast<std::uint64_t>(now));
  w.raw(message);
  append_wal(type, ByteSpan(payload));
}

bool DictionaryStore::accept_freshness(CaState& state,
                                       const crypto::Digest20& statement,
                                       UnixSeconds now) {
  if (!state.have_root) return false;
  // Expected period from our clock; allow one period of skew either way
  // (the paper's 2∆ acceptance window, §V).
  const std::uint64_t expected =
      now <= state.root.timestamp
          ? 0
          : static_cast<std::uint64_t>((now - state.root.timestamp) /
                                       state.delta);
  const std::uint64_t lo = expected == 0 ? 0 : expected - 1;
  for (std::uint64_t p = lo; p <= expected + 1; ++p) {
    // Verify incrementally against the last verified statement: walking
    // (p - last) steps instead of p steps from the anchor keeps periodic
    // verification O(1) amortized over a chain's lifetime. (The anchor is
    // the period-0 statement, so a fresh root bootstraps this.)
    if (p < state.freshness_period) continue;
    if (crypto::HashChain::verify(statement, p - state.freshness_period,
                                  state.freshness)) {
      if (state.freshness != statement) ++state.freshness_seq;
      state.freshness = statement;
      state.freshness_period = p;
      return true;
    }
  }
  return false;
}

ApplyResult DictionaryStore::apply_issuance(
    const dict::RevocationIssuance& msg, UnixSeconds now) {
  CaState* state = find(msg.signed_root.ca);
  if (state == nullptr) return ApplyResult::unknown_ca;
  if (!msg.signed_root.verify(state->key)) return ApplyResult::bad_signature;
  if (state->have_root) {
    if (msg.signed_root.n < state->root.n ||
        msg.signed_root.timestamp < state->root.timestamp) {
      return ApplyResult::stale_root;
    }
  }
  // Gap check via consecutive numbering: the issuance must extend our
  // replica exactly.
  if (msg.signed_root.n != state->dict.size() + msg.serials.size()) {
    state->desynchronized = true;
    return ApplyResult::gap_detected;
  }
  if (!state->dict.update(msg.serials, msg.signed_root.root,
                          msg.signed_root.n)) {
    return ApplyResult::root_mismatch;
  }
  state->root = msg.signed_root;
  state->have_root = true;
  // A fresh signed root doubles as the period-0 freshness statement.
  state->freshness = msg.signed_root.freshness_anchor;
  state->freshness_period = 0;
  state->desynchronized = false;
  ++state->freshness_seq;  // served material changed even if n did not
  log_mutation(kWalIssuance, now, ByteSpan(msg.encode()));
  return ApplyResult::ok;
}

ApplyResult DictionaryStore::apply_freshness(
    const dict::FreshnessStatement& msg, UnixSeconds now) {
  CaState* state = find(msg.ca);
  if (state == nullptr) return ApplyResult::unknown_ca;
  if (!accept_freshness(*state, msg.statement, now)) {
    return ApplyResult::bad_freshness;
  }
  log_mutation(kWalFreshness, now, ByteSpan(msg.encode()));
  return ApplyResult::ok;
}

ApplyResult DictionaryStore::apply_sync(const dict::SyncResponse& msg,
                                        UnixSeconds now) {
  CaState* state = find(msg.ca);
  if (state == nullptr) return ApplyResult::unknown_ca;
  if (!msg.signed_root.verify(state->key)) return ApplyResult::bad_signature;

  // Entries must continue our numbering exactly.
  std::uint64_t expect = state->dict.size() + 1;
  std::vector<cert::SerialNumber> serials;
  serials.reserve(msg.entries.size());
  for (const auto& e : msg.entries) {
    if (e.number != expect++) return ApplyResult::gap_detected;
    serials.push_back(e.serial);
  }
  if (msg.signed_root.n != state->dict.size() + serials.size()) {
    return ApplyResult::gap_detected;
  }
  if (!state->dict.update(serials, msg.signed_root.root, msg.signed_root.n)) {
    return ApplyResult::root_mismatch;
  }
  state->root = msg.signed_root;
  state->have_root = true;
  state->desynchronized = false;
  ++state->freshness_seq;
  if (!accept_freshness(*state, msg.freshness, now)) {
    // Root applied but statement stale: keep the anchor as freshness.
    state->freshness = msg.signed_root.freshness_anchor;
    state->freshness_period = 0;
  }
  log_mutation(kWalSync, now, ByteSpan(msg.encode()));
  return ApplyResult::ok;
}

ApplyResult DictionaryStore::bootstrap_replica(const cert::CaId& ca,
                                               ByteSpan dict_snapshot,
                                               const dict::SignedRoot& root,
                                               const crypto::Digest20& freshness,
                                               UnixSeconds now) {
  CaState* state = find(ca);
  if (state == nullptr || root.ca != ca) return ApplyResult::unknown_ca;
  if (!root.verify(state->key)) return ApplyResult::bad_signature;
  if (state->have_root &&
      (root.n < state->root.n || root.timestamp < state->root.timestamp)) {
    return ApplyResult::stale_root;
  }

  // Stage the dictionary first: restore_from recomputes the root once and
  // checks it against the snapshot's recorded root, and the signed root
  // must commit to exactly that root and size.
  dict::Dictionary staged;
  ByteReader r{dict_snapshot};
  try {
    staged.restore_from(r);
  } catch (const std::exception&) {
    return ApplyResult::root_mismatch;
  }
  if (!r.done() || staged.root() != root.root || staged.size() != root.n) {
    return ApplyResult::root_mismatch;
  }

  state->dict = std::move(staged);
  state->root = root;
  state->have_root = true;
  state->freshness = root.freshness_anchor;
  state->freshness_period = 0;
  state->desynchronized = false;
  ++state->freshness_seq;
  // Adopt the carried statement if it chains into the new anchor; on
  // failure the anchor itself (period 0) remains the served statement.
  accept_freshness(*state, freshness, now);

  if (wal_ != nullptr && !replaying_) {
    Bytes payload;
    ByteWriter w(payload);
    w.u64(static_cast<std::uint64_t>(now));
    w.var16(ByteSpan(bytes_of(ca)));
    w.var16(ByteSpan(root.encode()));
    w.raw(ByteSpan(freshness));
    w.raw(dict_snapshot);
    append_wal(kWalBootstrap, ByteSpan(payload));
  }
  return ApplyResult::ok;
}

dict::RevocationStatus DictionaryStore::assemble_status(
    const CaState& state, const cert::SerialNumber& serial) {
  dict::RevocationStatus status;
  status.proof = state.dict.prove(serial);
  status.signed_root = state.root;
  status.freshness = state.freshness;
  return status;
}

std::optional<dict::RevocationStatus> DictionaryStore::status_for(
    const cert::CaId& ca, const cert::SerialNumber& serial) const {
  const CaState* state = find(ca);
  if (state == nullptr || !state->have_root) return std::nullopt;
  return assemble_status(*state, serial);
}

std::size_t DictionaryStore::shard_budget() const noexcept {
  return std::max(status_cache_budget_.load(std::memory_order_relaxed) /
                      kCacheShards,
                  kCacheShardMinBudget);
}

void DictionaryStore::evict_for(CaState::CacheShard& shard,
                                std::size_t need) const {
  const std::size_t budget = shard_budget();
  auto& ring = shard.ring;
  while (!ring.empty() && shard.bytes + need > budget) {
    if (shard.hand >= ring.size()) shard.hand = 0;
    const std::string* key = ring[shard.hand];
    auto it = shard.map.find(*key);
    if (it->second.ref) {
      // Second chance: referenced since the hand last came by.
      it->second.ref = false;
      ++shard.hand;
      continue;
    }
    const std::size_t freed =
        key->size() + it->second.bytes->size() + kCacheEntryOverhead;
    shard.bytes -= freed;
    ++cache_stats_.evictions;
    cache_stats_.evicted_bytes += freed;
    // Swap-remove the slot; the moved slot takes over the hand position and
    // gets examined next, which preserves the sweep.
    ring[shard.hand] = ring.back();
    ring.pop_back();
    shard.map.erase(it);
  }
}

std::optional<DictionaryStore::CachedStatus> DictionaryStore::status_bytes_for(
    const cert::CaId& ca, const cert::SerialNumber& serial) const {
  const CaState* state = find(ca);
  if (state == nullptr || !state->have_root) return std::nullopt;

  const std::string_view key(
      reinterpret_cast<const char*>(serial.value.data()),
      serial.value.size());
  // Shard selection mixes the serial's first and last bytes instead of
  // hashing the whole key (map.find hashes it again anyway): serials are
  // high-entropy by construction, so two bytes spread uniformly, and the
  // warm hit path saves one full string hash.
  const std::size_t shard_ix =
      key.empty() ? 0
                  : (std::uint8_t(key.front()) * 31u ^
                     std::uint8_t(key.back())) %
                        kCacheShards;
  CaState::CacheShard& shard = state->cache.shards[shard_ix];
  std::lock_guard<std::mutex> lock(shard.mu);

  // Validate the shard against the replica version; any root or freshness
  // transition since this shard's last lookup drops it wholesale. The
  // epochs advance on every accepted mutation (including rollbacks), so a
  // status proven against an old root can never survive into a new one —
  // and since writers only bump the version counters, invalidation costs
  // them no cache lock.
  const std::uint64_t epoch = state->dict.epoch();
  if (shard.epoch != epoch || shard.freshness_seq != state->freshness_seq) {
    if (!shard.map.empty()) {
      shard.map.clear();
      shard.ring.clear();
      shard.hand = 0;
      shard.bytes = 0;
      ++cache_stats_.invalidations;
    }
    shard.epoch = epoch;
    shard.freshness_seq = state->freshness_seq;
  }

  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    ++cache_stats_.misses;
    const dict::RevocationStatus status = assemble_status(*state, serial);
    auto encoded = std::make_shared<Bytes>();
    encoded->reserve(status.wire_size());
    status.encode_into(*encoded);
    // Make room under the shard's budget slice before admitting the new
    // entry (a single entry larger than the whole slice is still admitted —
    // the shard then holds exactly that entry).
    const std::size_t need =
        key.size() + encoded->size() + kCacheEntryOverhead;
    evict_for(shard, need);
    CaState::CacheEntry entry;
    entry.bytes = std::move(encoded);
    entry.ref = true;
    it = shard.map.emplace(std::string(key), std::move(entry)).first;
    shard.ring.push_back(&it->first);
    shard.bytes += need;
  } else {
    ++cache_stats_.hits;
    // Keep hot serials warm across evictions; test-before-set so steady-
    // state hits never dirty the entry's cache line.
    if (!it->second.ref) it->second.ref = true;
  }
  CachedStatus out;
  out.owned = it->second.bytes;  // pins the encoding past the shard lock
  out.bytes = out.owned.get();
  out.n = state->root.n;
  out.timestamp = state->root.timestamp;
  out.epoch = epoch;
  return out;
}

std::uint64_t DictionaryStore::have_n(const cert::CaId& ca) const {
  const CaState* state = find(ca);
  return state == nullptr ? 0 : state->dict.size();
}

bool DictionaryStore::needs_sync(const cert::CaId& ca) const {
  const CaState* state = find(ca);
  return state != nullptr && state->desynchronized;
}

bool DictionaryStore::has_root(const cert::CaId& ca) const {
  const CaState* state = find(ca);
  return state != nullptr && state->have_root;
}

std::optional<MisbehaviourEvidence> DictionaryStore::cross_check(
    const dict::SignedRoot& theirs) const {
  const CaState* state = find(theirs.ca);
  if (state == nullptr || !state->have_root) return std::nullopt;
  if (!theirs.verify(state->key)) return std::nullopt;  // forgery, not CA sig
  if (theirs.n != state->root.n) return std::nullopt;   // different versions
  if (theirs.root == state->root.root) return std::nullopt;  // consistent
  return MisbehaviourEvidence{state->root, theirs};
}

const dict::SignedRoot* DictionaryStore::root_of(const cert::CaId& ca) const {
  const CaState* state = find(ca);
  return state != nullptr && state->have_root ? &state->root : nullptr;
}

std::size_t DictionaryStore::storage_bytes() const {
  std::size_t total = 0;
  for (const auto& [id, state] : cas_) total += state.dict.storage_bytes();
  return total;
}

std::size_t DictionaryStore::memory_bytes() const {
  std::size_t total = 0;
  for (const auto& [id, state] : cas_) {
    total += state.dict.memory_bytes();
    // The warm status cache can dominate a serving RA's footprint; its
    // budgeted accounting already covers keys, encoded statuses, and
    // per-entry bookkeeping.
    for (auto& shard : state.cache.shards) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total +=
          shard.bytes + shard.ring.capacity() * sizeof(const std::string*);
    }
  }
  return total;
}

// ------------------------------------------------------------- durability

// Snapshot meta section (store.hpp kSectionMeta): u8 version, u32
// ca_count, then per CA (in CaId order): var16 ca, u8 have_root, u8
// desynchronized, [var16 signed root when have_root], 20B freshness,
// u64 freshness_period, u64 freshness_seq, u64 dict_epoch, u64 dict_n,
// 20B dict_root. The dictionaries' bulk data lives in the per-CA arena
// sections, not in the meta. Keys and ∆ are trust configuration
// (register_ca), not replicated state, and are not persisted.
namespace {
constexpr std::uint8_t kStoreMetaVersion = 2;
}  // namespace

DictionaryStore::FrozenStore DictionaryStore::freeze() const {
  FrozenStore frozen;
  frozen.mutation_seq = mutation_seq_;
  frozen.cas.reserve(cas_.size());
  for (const auto& [ca, state] : cas_) {
    FrozenStore::FrozenCa f;
    f.ca = ca;
    f.have_root = state.have_root;
    f.desynchronized = state.desynchronized;
    f.root = state.root;
    f.freshness = state.freshness;
    f.freshness_period = state.freshness_period;
    f.freshness_seq = state.freshness_seq;
    f.dict = state.dict;  // O(1): the arenas are shared copy-on-write
    frozen.cas.push_back(std::move(f));
  }
  return frozen;
}

std::uint64_t DictionaryStore::persist_frozen(const FrozenStore& frozen,
                                              const std::string& dir) {
  Bytes meta;
  ByteWriter w(meta);
  w.u8(kStoreMetaVersion);
  w.u32(static_cast<std::uint32_t>(frozen.cas.size()));
  // snapshot_sections() forces each dictionary's tree valid first; a dirty
  // frozen copy detaches and rebuilds here, off whatever lock guarded the
  // freeze, never on the serving path.
  std::vector<dict::DictSections> secs(frozen.cas.size());
  for (std::size_t i = 0; i < frozen.cas.size(); ++i) {
    const FrozenStore::FrozenCa& ca = frozen.cas[i];
    secs[i] = ca.dict.snapshot_sections();
    w.var16(ByteSpan(bytes_of(ca.ca)));
    w.u8(ca.have_root ? 1 : 0);
    w.u8(ca.desynchronized ? 1 : 0);
    if (ca.have_root) w.var16(ByteSpan(ca.root.encode()));
    w.raw(ByteSpan(ca.freshness));
    w.u64(ca.freshness_period);
    w.u64(ca.freshness_seq);
    w.u64(secs[i].epoch);
    w.u64(secs[i].n);
    w.raw(ByteSpan(secs[i].root));
  }
  std::vector<persist::SectionSpec> sections;
  sections.reserve(1 + 3 * frozen.cas.size());
  sections.push_back({kSectionMeta, ByteSpan(meta)});
  for (std::size_t i = 0; i < frozen.cas.size(); ++i) {
    const auto base = static_cast<std::uint32_t>((i + 1) << 8);
    sections.push_back({base | kSectionKindLog, secs[i].log});
    sections.push_back({base | kSectionKindSorted, secs[i].sorted});
    sections.push_back({base | kSectionKindTree, secs[i].tree});
  }
  return persist::SnapshotFile::write_v2(dir, frozen.mutation_seq, sections);
}

void DictionaryStore::persist_to(const std::string& dir) {
  persist_frozen(freeze(), dir);
  if (wal_ != nullptr) wal_->reset(mutation_seq_ + 1);
}

void DictionaryStore::restore_snapshot(
    const persist::SnapshotFile::Mapped& mapped) {
  const auto bad = [](const char* what) -> std::runtime_error {
    return std::runtime_error(
        std::string("DictionaryStore::restore_snapshot: ") + what);
  };
  const auto find_section = [&mapped](std::uint32_t tag) {
    return persist::find_section(mapped.sections, tag);
  };
  const persist::SectionView* meta = find_section(kSectionMeta);
  if (meta == nullptr) throw bad("missing meta section");
  ByteReader r{meta->data};
  if (r.try_u8().value_or(0xFF) != kStoreMetaVersion) {
    throw bad("unsupported snapshot version");
  }
  const auto count = r.try_u32();
  if (!count) throw bad("truncated header");

  // Stage into a copy so a failure at any CA (including a section that
  // fails adoption) leaves the store untouched. Staged caches start cold by
  // construction (StatusCache's copy semantics drop the cache): a restore
  // is a version change for every replica anyway, and each shard restamps
  // itself to the restored version on its first lookup.
  std::map<cert::CaId, CaState> staged = cas_;
  for (std::uint32_t i = 0; i < *count; ++i) {
    const auto ca_bytes = r.try_var16();
    if (!ca_bytes) throw bad("truncated CA id");
    const cert::CaId ca(ca_bytes->begin(), ca_bytes->end());
    auto it = staged.find(ca);
    if (it == staged.end()) throw bad("snapshot CA not registered");
    CaState& state = it->second;

    const auto have_root = r.try_u8();
    const auto desync = r.try_u8();
    if (!have_root || *have_root > 1 || !desync || *desync > 1) {
      throw bad("bad flags");
    }
    state.have_root = *have_root == 1;
    state.desynchronized = *desync == 1;
    if (state.have_root) {
      const auto root_bytes = r.try_var16();
      if (!root_bytes) throw bad("truncated signed root");
      auto root = dict::SignedRoot::decode(ByteSpan(*root_bytes));
      if (!root || root->ca != ca) throw bad("bad signed root");
      // Trust is re-established from the registered key, not the file.
      if (!root->verify(state.key)) throw bad("signed root fails key check");
      state.root = std::move(*root);
    } else {
      state.root = dict::SignedRoot{};
    }
    const auto freshness = r.try_raw(20);
    const auto period = r.try_u64();
    const auto seq = r.try_u64();
    if (!freshness || !period || !seq) throw bad("truncated freshness state");
    std::copy(freshness->begin(), freshness->end(), state.freshness.begin());
    state.freshness_period = *period;
    state.freshness_seq = *seq;

    const auto dict_epoch = r.try_u64();
    const auto dict_n = r.try_u64();
    const auto dict_root = r.try_raw(20);
    if (!dict_epoch || !dict_n || !dict_root) {
      throw bad("truncated dictionary meta");
    }
    dict::DictSections sec;
    sec.epoch = *dict_epoch;
    sec.n = *dict_n;
    std::copy(dict_root->begin(), dict_root->end(), sec.root.begin());
    const auto base = static_cast<std::uint32_t>((i + 1) << 8);
    const persist::SectionView* log = find_section(base | kSectionKindLog);
    const persist::SectionView* sorted =
        find_section(base | kSectionKindSorted);
    const persist::SectionView* tree = find_section(base | kSectionKindTree);
    if (log == nullptr || sorted == nullptr || tree == nullptr) {
      throw bad("missing dictionary section");
    }
    sec.log = log->data;
    sec.sorted = sorted->data;
    sec.tree = tree->data;
    // Adopts the mapped arenas in place; the mapping stays alive through
    // the keepalive for as long as any arena still aliases it.
    state.dict.restore_sections(sec, mapped.file);
    if (state.have_root && (state.dict.root() != state.root.root ||
                            state.dict.size() != state.root.n)) {
      throw bad("dictionary does not match signed root");
    }
  }
  if (!r.done()) throw bad("trailing meta bytes");
  cas_ = std::move(staged);
}

DictionaryStore::RecoveryReport DictionaryStore::recover_from(
    const std::string& dir) {
  RecoveryReport report;
  persist::MappedRecovery rec = persist::Recovery::recover_mapped(dir);
  report.truncated_bytes = rec.wal_truncated_bytes;
  report.snapshots_skipped = rec.snapshots_skipped;

  std::uint64_t snapshot_seq = 0;
  if (rec.snapshot) {
    try {
      restore_snapshot(*rec.snapshot);
    } catch (const std::exception& e) {
      report.error = e.what();
      return report;
    }
    report.have_snapshot = true;
    report.snapshot_seq = rec.snapshot->seq;
    snapshot_seq = rec.snapshot->seq;
  }
  mutation_seq_ = snapshot_seq;

  // Replay the tail through the very apply paths that ran live; the WAL
  // only holds accepted mutations, so rejections here mean the log and
  // snapshot disagree (they are still counted, never fatal — the replica
  // simply converges to the longest consistent prefix).
  replaying_ = true;
  for (const persist::WalRecord& record : rec.tail) {
    ByteReader r{ByteSpan(record.payload)};
    const auto now64 = r.try_u64();
    if (record.type >= 16) {
      report.unhandled.push_back(record);
      continue;
    }
    if (!now64) {
      ++report.rejected;
      continue;
    }
    const UnixSeconds now = static_cast<UnixSeconds>(*now64);
    ApplyResult result = ApplyResult::root_mismatch;
    bool decoded = false;
    const Bytes body = r.raw(r.remaining());
    switch (record.type) {
      case kWalIssuance:
        if (auto msg = dict::RevocationIssuance::decode(ByteSpan(body))) {
          decoded = true;
          result = apply_issuance(*msg, now);
        }
        break;
      case kWalFreshness:
        if (auto msg = dict::FreshnessStatement::decode(ByteSpan(body))) {
          decoded = true;
          result = apply_freshness(*msg, now);
        }
        break;
      case kWalSync:
        if (auto msg = dict::SyncResponse::decode(ByteSpan(body))) {
          decoded = true;
          result = apply_sync(*msg, now);
        }
        break;
      case kWalBootstrap: {
        ByteReader br{ByteSpan(body)};
        const auto ca_bytes = br.try_var16();
        if (!ca_bytes) break;
        const auto root_bytes = br.try_var16();
        if (!root_bytes) break;
        const auto fresh_bytes = br.try_raw(20);
        if (!fresh_bytes) break;
        if (auto root = dict::SignedRoot::decode(ByteSpan(*root_bytes))) {
          decoded = true;
          crypto::Digest20 freshness{};
          std::copy(fresh_bytes->begin(), fresh_bytes->end(),
                    freshness.begin());
          const cert::CaId ca(ca_bytes->begin(), ca_bytes->end());
          const auto snap = ByteSpan(body).subspan(br.position());
          result = bootstrap_replica(ca, snap, *root, freshness, now);
        }
        break;
      }
      default:
        break;  // reserved store-range type from a newer writer
    }
    if (decoded && result == ApplyResult::ok) {
      ++report.replayed;
    } else {
      ++report.rejected;
    }
    mutation_seq_ = record.seq;
  }
  replaying_ = false;
  report.ok = true;
  return report;
}

}  // namespace ritm::ra
