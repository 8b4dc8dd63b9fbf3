#include "dict/dictionary.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_set>
#include <stdexcept>

namespace ritm::dict {

namespace {

int cmp_span(ByteSpan a, ByteSpan b) { return ritm::compare(a, b); }

void validate_serials(const std::vector<cert::SerialNumber>& serials) {
  for (const auto& s : serials) {
    if (s.value.empty() || s.value.size() > cert::kMaxSerialBytes) {
      throw std::invalid_argument("Dictionary::insert: bad serial length");
    }
  }
}

LogRecord make_record(const cert::SerialNumber& s) {
  LogRecord rec;
  rec.len = static_cast<std::uint8_t>(s.value.size());
  std::memcpy(rec.bytes, s.value.data(), s.value.size());
  return rec;
}

}  // namespace

const crypto::Digest20& Dictionary::root() const {
  if (log_.empty()) return empty_root();
  rebuild();
  return node(level_count_ - 1, 0);
}

std::size_t Dictionary::lower_bound(ByteSpan serial) const {
  const std::uint32_t* first = sorted_.begin();
  const std::uint32_t* it = std::lower_bound(
      first, sorted_.end(), serial,
      [&](std::uint32_t idx, ByteSpan key) {
        return cmp_span(serial_at(idx), key) < 0;
      });
  return static_cast<std::size_t>(it - first);
}

bool Dictionary::contains(const cert::SerialNumber& serial) const {
  const ByteSpan key(serial.value);
  const std::size_t pos = lower_bound(key);
  return pos < sorted_.size() && cmp_span(serial_at(sorted_[pos]), key) == 0;
}

std::optional<std::uint64_t> Dictionary::number_of(
    const cert::SerialNumber& serial) const {
  const ByteSpan key(serial.value);
  const std::size_t pos = lower_bound(key);
  if (pos < sorted_.size() && cmp_span(serial_at(sorted_[pos]), key) == 0) {
    return sorted_[pos] + 1;  // numbering == log position + 1
  }
  return std::nullopt;
}

std::vector<Entry> Dictionary::insert(
    const std::vector<cert::SerialNumber>& serials) {
  // Validate everything before mutating anything, so a bad serial anywhere
  // in the batch leaves the dictionary untouched. mut() is deferred to the
  // first actual append: an all-duplicates batch never detaches a shared
  // (frozen or mapped) arena.
  validate_serials(serials);

  std::vector<Entry> added;

  // Small batches: in-place sorted insertion, O(batch * n) moves.
  // Large batches (Heartbleed-scale): append everything, then one re-sort.
  // Both paths skip serials already present — in the dictionary or earlier
  // in the same batch — so numbering is identical regardless of which path
  // a batch takes.
  constexpr std::size_t kBatchThreshold = 64;

  if (serials.size() <= kBatchThreshold) {
    for (const auto& s : serials) {
      const std::size_t pos = lower_bound(ByteSpan(s.value));
      if (pos < sorted_.size() &&
          cmp_span(serial_at(sorted_[pos]), ByteSpan(s.value)) == 0) {
        continue;  // already revoked (or duplicated in batch); idempotent
      }
      const std::uint64_t number = log_.size() + 1;
      log_.mut().push_back(make_record(s));
      auto& sorted = sorted_.mut();
      sorted.insert(sorted.begin() + static_cast<std::ptrdiff_t>(pos),
                    static_cast<std::uint32_t>(number - 1));
      mark_dirty(pos);
      added.push_back(Entry{s, number});
    }
  } else {
    const std::size_t old_size = log_.size();
    std::unordered_set<std::string> batch_seen;
    batch_seen.reserve(serials.size());
    for (const auto& s : serials) {
      std::string key(s.value.begin(), s.value.end());
      if (!batch_seen.insert(std::move(key)).second) continue;
      if (contains(s)) continue;  // lookups see only pre-batch entries
      const std::uint64_t number = log_.size() + 1;
      log_.mut().push_back(make_record(s));
      added.push_back(Entry{s, number});
    }
    if (!added.empty()) {
      // Merge the pre-sorted index with the (sorted) batch in O(n + k)
      // instead of re-sorting all n + k positions: sort only the k new
      // log indices, then merge from the back so existing positions shift
      // right at most once and the prefix below the first new leaf is
      // never touched.
      const std::size_t k = log_.size() - old_size;
      std::vector<std::uint32_t> fresh(k);
      for (std::size_t j = 0; j < k; ++j) {
        fresh[j] = static_cast<std::uint32_t>(old_size + j);
      }
      std::sort(fresh.begin(), fresh.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  return cmp_span(serial_at(a), serial_at(b)) < 0;
                });
      auto& sorted = sorted_.mut();
      sorted.resize(old_size + k);
      std::size_t i = old_size;      // unmerged tail of the old index
      std::size_t j = k;             // unmerged tail of the batch
      std::size_t w = old_size + k;  // write cursor
      std::size_t first_new = 0;     // lowest position that received a new leaf
      while (j > 0) {
        if (i > 0 &&
            cmp_span(serial_at(sorted[i - 1]), serial_at(fresh[j - 1])) > 0) {
          sorted[--w] = sorted[--i];
        } else {
          first_new = --w;
          sorted[w] = fresh[--j];
        }
      }
      // Positions below first_new kept their leaves; everything from it
      // onward shifted or is new.
      mark_dirty(first_new);
    }
  }
  if (!added.empty()) ++epoch_;
  return added;
}

bool Dictionary::update(const std::vector<cert::SerialNumber>& serials,
                        const crypto::Digest20& expected_root,
                        std::uint64_t expected_n) {
  const std::uint64_t old_size = size();
  insert(serials);
  if (size() == expected_n && root() == expected_root) return true;

  // Reject and roll back: drop every entry numbered above old_size, and
  // drop the (partially rebuilt) tree wholesale — the incremental machinery
  // only handles growth, so a shrink forces the next root() to rebuild from
  // scratch, which reproduces the pre-update root byte for byte.
  log_.mut().resize(old_size);
  auto& sorted = sorted_.mut();
  sorted.erase(std::remove_if(sorted.begin(), sorted.end(),
                              [&](std::uint32_t idx) {
                                return idx >= old_size;
                              }),
               sorted.end());
  invalidate_tree();
  // The contents are back to the pre-update state, but the epoch advances
  // once more: versions never repeat, so epoch-keyed caches stay sound even
  // across a rollback.
  ++epoch_;
  return false;
}

void Dictionary::mark_dirty(std::size_t pos) noexcept {
  tree_valid_ = false;
  if (pos < dirty_lo_) dirty_lo_ = pos;
}

void Dictionary::invalidate_tree() const noexcept {
  tree_valid_ = false;
  dirty_lo_ = 0;
  built_leaves_ = 0;
}

void Dictionary::compute_layout(std::size_t n) const {
  std::size_t cap = 1;
  while (cap < n) cap <<= 1;
  leaf_cap_ = cap;
  std::size_t levels = 1;
  for (std::size_t c = cap; c > 1; c >>= 1) ++levels;
  level_off_.resize(levels);
  level_size_.assign(levels, 0);
  std::size_t off = 0;
  for (std::size_t l = 0; l < levels; ++l) {
    level_off_[l] = off;
    off += cap >> l;
  }
  level_count_ = levels;
}

void Dictionary::layout(std::size_t n) const {
  compute_layout(n);
  tree_.mut().resize(2 * leaf_cap_ - 1);
  built_leaves_ = 0;
  dirty_lo_ = 0;
}

void Dictionary::hash_leaves(crypto::Digest20* arena, std::size_t lo,
                             std::size_t n) const {
  constexpr std::size_t kChunk = 64;
  std::uint8_t enc[kChunk][kLeafPreimageMax];
  ByteSpan spans[kChunk];
  for (std::size_t base = lo; base < n; base += kChunk) {
    const std::size_t m = std::min(kChunk, n - base);
    for (std::size_t j = 0; j < m; ++j) {
      const std::uint32_t idx = sorted_[base + j];
      spans[j] = ByteSpan(
          enc[j], encode_leaf_preimage(serial_at(idx), idx + 1, enc[j]));
    }
    crypto::hash20_batch(std::span<const ByteSpan>(spans, m),
                         arena + level_off_[0] + base);
    last_rebuild_hashes_ += m;
  }
}

void Dictionary::hash_inner(crypto::Digest20* arena, std::size_t level,
                            std::size_t lo, std::size_t next_size,
                            std::size_t size) const {
  // Dirty parents [lo, next_size) at `level + 1` from children at `level`
  // (which holds `size` nodes), fed through the batch entry point in 64-node
  // chunks so the ancestor spine keeps the multi-lane engine saturated, not
  // just the leaves. Only the last parent can lack a right child (when
  // `size` is odd); it is promoted unchanged, outside the batch.
  std::size_t paired_end = next_size;
  if (size % 2 != 0) --paired_end;

  const crypto::Digest20* child = arena + level_off_[level];
  crypto::Digest20* parent = arena + level_off_[level + 1];
  constexpr std::size_t kChunk = 64;
  std::uint8_t enc[kChunk][kNodePreimageSize];
  ByteSpan spans[kChunk];
  for (std::size_t base = lo; base < paired_end; base += kChunk) {
    const std::size_t m = std::min(kChunk, paired_end - base);
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t i = base + j;
      encode_node_preimage(child[2 * i], child[2 * i + 1], enc[j]);
      spans[j] = ByteSpan(enc[j], kNodePreimageSize);
    }
    // Parents are contiguous in the arena, so the batch writes them in
    // place — no copy-out staging.
    crypto::hash20_batch(std::span<const ByteSpan>(spans, m), parent + base);
    last_rebuild_hashes_ += m;
  }
  if (paired_end < next_size && lo <= paired_end) {
    parent[paired_end] = child[2 * paired_end];
  }
}

void Dictionary::rebuild() const {
  if (tree_valid_) return;
  const std::size_t n = sorted_.size();
  last_rebuild_hashes_ = 0;
  if (n == 0) {
    tree_.clear();
    level_off_.clear();
    level_size_.clear();
    level_count_ = 0;
    leaf_cap_ = 0;
    built_leaves_ = 0;
    dirty_lo_ = kClean;
    tree_valid_ = true;
    return;
  }

  // Incremental is possible only while growing within the current arena;
  // otherwise lay out a fresh arena and rehash everything.
  if (built_leaves_ == 0 || n < built_leaves_ || n > leaf_cap_) layout(n);

  // One writable pointer for the whole rebuild: the first mutation after a
  // freeze or an mmap adoption pays for the arena clone here, once.
  crypto::Digest20* arena = tree_.mut().data();

  std::size_t lo = std::min(dirty_lo_, n);
  hash_leaves(arena, lo, n);
  level_size_[0] = n;

  std::size_t size = n;
  std::size_t level = 0;
  while (size > 1) {
    const std::size_t next_size = (size + 1) / 2;
    const std::size_t next_lo = lo >> 1;
    hash_inner(arena, level, next_lo, next_size, size);
    level_size_[level + 1] = next_size;
    size = next_size;
    lo = next_lo;
    ++level;
  }
  level_count_ = level + 1;
  built_leaves_ = n;
  dirty_lo_ = kClean;
  tree_valid_ = true;
  total_hashes_ += last_rebuild_hashes_;
}

LeafProof Dictionary::make_leaf_proof(std::size_t sorted_pos) const {
  rebuild();
  LeafProof p;
  p.entry = entry_at(sorted_[sorted_pos]);
  p.index = sorted_pos;
  p.path.reserve(level_count_ > 0 ? level_count_ - 1 : 0);
  std::size_t pos = sorted_pos;
  for (std::size_t lvl = 0; lvl + 1 < level_count_; ++lvl) {
    const std::size_t sibling = pos ^ 1;
    if (sibling < level_size_[lvl]) p.path.push_back(node(lvl, sibling));
    pos >>= 1;
  }
  return p;
}

Proof Dictionary::prove(const cert::SerialNumber& serial) const {
  Proof proof;
  if (log_.empty()) {
    proof.type = Proof::Type::absence;
    return proof;
  }
  const ByteSpan key(serial.value);
  const std::size_t pos = lower_bound(key);
  if (pos < sorted_.size() && cmp_span(serial_at(sorted_[pos]), key) == 0) {
    proof.type = Proof::Type::presence;
    proof.leaf = make_leaf_proof(pos);
    return proof;
  }
  proof.type = Proof::Type::absence;
  if (pos > 0) proof.left = make_leaf_proof(pos - 1);
  if (pos < sorted_.size()) proof.right = make_leaf_proof(pos);
  return proof;
}

std::vector<Entry> Dictionary::entries_from(std::uint64_t first_number) const {
  std::vector<Entry> out;
  if (first_number == 0) first_number = 1;
  if (first_number > log_.size()) return out;
  out.reserve(log_.size() - (first_number - 1));
  for (std::size_t i = first_number - 1; i < log_.size(); ++i) {
    out.push_back(entry_at(i));
  }
  return out;
}

// Compact wire codec (big-endian, length-prefixed) of cold-start objects and
// WAL bootstrap records:
//   u8  version
//   u64 epoch
//   u64 n
//   n x (u8 serial_len, serial)      -- the log in numbering order; entry
//                                       numbers are the implied positions
//                                       1..n (insert()'s invariant)
//   n x u32                          -- the sorted-by-serial index
//   20B root                         -- recorded root, checked on restore
constexpr std::uint8_t kSnapshotVersion = 1;

void Dictionary::snapshot_into(ByteWriter& w) const {
  w.u8(kSnapshotVersion);
  w.u64(epoch_);
  w.u64(log_.size());
  for (std::size_t i = 0; i < log_.size(); ++i) w.var8(serial_at(i));
  for (const std::uint32_t idx : sorted_) w.u32(idx);
  w.raw(ByteSpan(root()));
}

void Dictionary::restore_from(ByteReader& r) {
  const auto bad = [](const char* what) -> std::runtime_error {
    return std::runtime_error(std::string("Dictionary::restore_from: ") +
                              what);
  };
  if (r.try_u8().value_or(0xFF) != kSnapshotVersion) {
    throw bad("unsupported snapshot version");
  }
  const auto epoch = r.try_u64();
  const auto n64 = r.try_u64();
  if (!epoch || !n64) throw bad("truncated header");
  // Each entry costs at least 2 bytes (len + serial) plus 4 index bytes, so
  // the remaining input bounds n — rejects forged counts before allocating.
  if (*n64 > r.remaining() / 2) throw bad("entry count exceeds input");
  const std::size_t n = static_cast<std::size_t>(*n64);

  std::vector<LogRecord> log;
  log.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto serial = r.try_var8();
    if (!serial || serial->empty() || serial->size() > cert::kMaxSerialBytes) {
      throw bad("bad serial");
    }
    LogRecord rec;
    rec.len = static_cast<std::uint8_t>(serial->size());
    std::memcpy(rec.bytes, serial->data(), serial->size());
    log.push_back(rec);
  }
  std::vector<std::uint32_t> sorted;
  sorted.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto idx = r.try_u32();
    if (!idx || *idx >= n) throw bad("bad sorted index");
    // Strictly increasing serials also rule out duplicate indices: a
    // repeated index would repeat its serial and fail the comparison.
    if (i > 0 &&
        cmp_span(ByteSpan(log[sorted.back()].bytes, log[sorted.back()].len),
                 ByteSpan(log[*idx].bytes, log[*idx].len)) >= 0) {
      throw bad("sorted index out of order");
    }
    sorted.push_back(*idx);
  }
  const auto root_bytes = r.try_raw(20);
  if (!root_bytes) throw bad("truncated root");
  crypto::Digest20 recorded{};
  std::copy(root_bytes->begin(), root_bytes->end(), recorded.begin());

  // Stage into a scratch instance and pay for exactly one full rebuild; the
  // recomputed root must reproduce the recorded one or the snapshot does not
  // describe a state this code ever produced. *this is only replaced on
  // success, so a failed restore leaves the dictionary untouched.
  Dictionary fresh;
  fresh.log_.mut() = std::move(log);
  fresh.sorted_.mut() = std::move(sorted);
  fresh.epoch_ = *epoch;
  if (fresh.root() != recorded) throw bad("recorded root mismatch");
  *this = std::move(fresh);
}

DictSections Dictionary::snapshot_sections() const {
  DictSections s;
  s.root = root();  // rebuilds first, so tree bytes match the contents
  s.epoch = epoch_;
  s.n = log_.size();
  if (s.n == 0) return s;
  s.log = ByteSpan(reinterpret_cast<const std::uint8_t*>(log_.data()),
                   log_.size() * sizeof(LogRecord));
  s.sorted = ByteSpan(reinterpret_cast<const std::uint8_t*>(sorted_.data()),
                      sorted_.size() * sizeof(std::uint32_t));
  s.tree = ByteSpan(reinterpret_cast<const std::uint8_t*>(tree_.data()),
                    tree_.size() * sizeof(crypto::Digest20));
  return s;
}

void Dictionary::restore_sections(const DictSections& s,
                                  std::shared_ptr<const void> keepalive) {
  const auto bad = [](const char* what) -> std::runtime_error {
    return std::runtime_error(std::string("Dictionary::restore_sections: ") +
                              what);
  };
  const std::size_t n = static_cast<std::size_t>(s.n);
  Dictionary fresh;
  fresh.epoch_ = s.epoch;
  if (n == 0) {
    if (!s.log.empty() || !s.sorted.empty() || !s.tree.empty()) {
      throw bad("nonempty sections for empty dictionary");
    }
    if (s.root != empty_root()) throw bad("recorded root mismatch");
    fresh.dirty_lo_ = kClean;
    fresh.tree_valid_ = true;
    *this = std::move(fresh);
    return;
  }
  // Divide rather than multiply: n comes from the file, and n * 24 can wrap
  // to a small size (n = 2^63 + m matches an m-record section otherwise).
  if (s.log.size() % sizeof(LogRecord) != 0 ||
      s.log.size() / sizeof(LogRecord) != n) {
    throw bad("log section size");
  }
  if (s.sorted.size() != n * sizeof(std::uint32_t)) {
    throw bad("sorted section size");
  }
  fresh.compute_layout(n);
  const std::size_t tree_nodes = 2 * fresh.leaf_cap_ - 1;
  if (s.tree.size() != tree_nodes * sizeof(crypto::Digest20)) {
    throw bad("tree section size");
  }
  // Memory-safety validation only (O(n), no hashing): record lengths and
  // index bounds keep every later access in range.
  const auto* log = reinterpret_cast<const LogRecord*>(s.log.data());
  for (std::size_t i = 0; i < n; ++i) {
    if (log[i].len == 0 || log[i].len > cert::kMaxSerialBytes) {
      throw bad("bad serial length");
    }
  }
  const auto* sorted = reinterpret_cast<const std::uint32_t*>(s.sorted.data());
  for (std::size_t i = 0; i < n; ++i) {
    if (sorted[i] >= n) throw bad("sorted index out of range");
  }
  const auto* tree = reinterpret_cast<const crypto::Digest20*>(s.tree.data());
  if (tree[fresh.level_off_[fresh.level_count_ - 1]] != s.root) {
    throw bad("recorded root mismatch");
  }
  std::size_t sz = n;
  for (std::size_t l = 0; l < fresh.level_count_; ++l) {
    fresh.level_size_[l] = sz;
    sz = (sz + 1) / 2;
  }
  fresh.log_.adopt(log, n, keepalive);
  fresh.sorted_.adopt(sorted, n, keepalive);
  fresh.tree_.adopt(tree, tree_nodes, std::move(keepalive));
  fresh.built_leaves_ = n;
  fresh.dirty_lo_ = kClean;
  fresh.tree_valid_ = true;
  *this = std::move(fresh);
}

std::size_t Dictionary::storage_bytes() const noexcept {
  // Persisted form: per entry, 1 length byte + serial bytes + 8-byte number.
  std::size_t total = 0;
  for (const LogRecord& rec : log_) total += 1 + rec.len + 8;
  return total;
}

std::size_t Dictionary::memory_bytes() const noexcept {
  rebuild();
  return log_.memory_bytes() + sorted_.memory_bytes() + tree_.memory_bytes() +
         (level_off_.capacity() + level_size_.capacity()) *
             sizeof(std::size_t);
}

}  // namespace ritm::dict
