#include "dict/sharded.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace ritm::dict {

ShardedDictionary::ShardedDictionary(UnixSeconds bucket_width)
    : bucket_width_(bucket_width) {
  if (bucket_width_ <= 0) {
    throw std::invalid_argument("ShardedDictionary: bucket width must be > 0");
  }
}

std::uint64_t ShardedDictionary::shard_of(UnixSeconds not_after) const {
  if (not_after < 0) return 0;
  return static_cast<std::uint64_t>(not_after / bucket_width_);
}

std::optional<Entry> ShardedDictionary::insert(
    const cert::SerialNumber& serial, UnixSeconds not_after) {
  auto& shard = shards_[shard_of(not_after)];
  const auto added = shard.insert({serial});
  if (added.empty()) return std::nullopt;
  ++epoch_;
  return added.front();
}

bool ShardedDictionary::contains(const cert::SerialNumber& serial,
                                 UnixSeconds not_after) const {
  const auto it = shards_.find(shard_of(not_after));
  return it != shards_.end() && it->second.contains(serial);
}

Proof ShardedDictionary::prove(const cert::SerialNumber& serial,
                               UnixSeconds not_after) const {
  const auto it = shards_.find(shard_of(not_after));
  if (it == shards_.end()) {
    // Empty shard: the trivially-valid empty absence proof.
    return Dictionary{}.prove(serial);
  }
  return it->second.prove(serial);
}

crypto::Digest20 ShardedDictionary::shard_root(UnixSeconds not_after) const {
  const auto it = shards_.find(shard_of(not_after));
  return it == shards_.end() ? empty_root() : it->second.root();
}

std::uint64_t ShardedDictionary::shard_size(UnixSeconds not_after) const {
  const auto it = shards_.find(shard_of(not_after));
  return it == shards_.end() ? 0 : it->second.size();
}

std::size_t ShardedDictionary::prune(UnixSeconds now) {
  // A shard with index k covers certificates expiring before
  // (k+1)*bucket_width; it can be dropped once now exceeds that boundary
  // plus one bucket of grace.
  std::size_t reclaimed = 0;
  for (auto it = shards_.begin(); it != shards_.end();) {
    const UnixSeconds bucket_end =
        static_cast<UnixSeconds>(it->first + 1) * bucket_width_;
    if (now > bucket_end + bucket_width_) {
      reclaimed += it->second.storage_bytes();
      it = shards_.erase(it);
      ++epoch_;
    } else {
      ++it;
    }
  }
  return reclaimed;
}

std::uint64_t ShardedDictionary::total_entries() const {
  std::uint64_t total = 0;
  for (const auto& [k, shard] : shards_) total += shard.size();
  return total;
}

std::size_t ShardedDictionary::storage_bytes() const {
  std::size_t total = 0;
  for (const auto& [k, shard] : shards_) total += shard.storage_bytes();
  return total;
}

std::uint64_t ShardedDictionary::total_hash_count() const {
  std::uint64_t total = 0;
  for (const auto& [k, shard] : shards_) total += shard.total_hash_count();
  return total;
}

std::size_t ShardedDictionary::dirty_shard_count() const {
  std::size_t dirty = 0;
  for (const auto& [k, shard] : shards_) dirty += shard.tree_stale();
  return dirty;
}

std::size_t ShardedDictionary::rebuild_dirty(ThreadPool* pool) {
  // Collect first: rebuild order must not depend on map iteration racing
  // with the pool, and each dirty shard appears exactly once, so no two
  // tasks ever touch the same Dictionary (root() mutates its arena).
  std::vector<Dictionary*> dirty;
  for (auto& [k, shard] : shards_) {
    if (shard.tree_stale()) dirty.push_back(&shard);
  }
  if (dirty.empty()) return 0;
  if (pool == nullptr || dirty.size() == 1) {
    for (Dictionary* d : dirty) (void)d->root();
  } else {
    // Largest shards first (LPT order): run_indexed hands out indices from
    // a shared counter, so with a skewed shard-size distribution (one huge
    // expiry bucket, many small ones) a worker that claims the big rebuild
    // late extends the join long after the others drain the queue. Rebuild
    // order cannot affect any root — shards share no state (pinned in
    // concurrency_test.cpp).
    std::sort(dirty.begin(), dirty.end(),
              [](const Dictionary* a, const Dictionary* b) {
                return a->size() > b->size();
              });
    pool->run_indexed(dirty.size(),
                      [&dirty](std::size_t i) { (void)dirty[i]->root(); });
  }
  return dirty.size();
}

void ShardedDictionary::install(UnixSeconds bucket_width, std::uint64_t epoch,
                                std::map<std::uint64_t, Dictionary> shards) {
  if (bucket_width <= 0) {
    throw std::invalid_argument("ShardedDictionary: bucket width must be > 0");
  }
  bucket_width_ = bucket_width;
  epoch_ = epoch;
  shards_ = std::move(shards);
}

std::vector<std::pair<std::uint64_t, crypto::Digest20>>
ShardedDictionary::shard_roots() const {
  std::vector<std::pair<std::uint64_t, crypto::Digest20>> out;
  out.reserve(shards_.size());
  for (const auto& [k, shard] : shards_) out.emplace_back(k, shard.root());
  return out;
}

}  // namespace ritm::dict
