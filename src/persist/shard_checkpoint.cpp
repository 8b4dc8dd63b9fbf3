#include "persist/shard_checkpoint.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/io.hpp"
#include "persist/snapshot.hpp"

namespace ritm::persist {

namespace {

constexpr std::uint8_t kShardMagic[8] = {'R', 'I', 'T', 'M',
                                         'S', 'H', 'R', 'D'};
constexpr std::uint32_t kShardVersion = 1;
constexpr std::size_t kShardHeaderSize = 64;  // 28 bytes used, 64-aligned
constexpr std::uint8_t kManifestVersion = 1;

// Section tags inside one shard file's container.
constexpr std::uint32_t kTagMeta = 1;
constexpr std::uint32_t kTagLog = 2;
constexpr std::uint32_t kTagSorted = 3;
constexpr std::uint32_t kTagTree = 4;

std::string shard_name(std::uint64_t key, std::uint64_t epoch) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "shard-%016" PRIx64 "-%016" PRIx64 ".shard",
                key, epoch);
  return buf;
}

/// Parses "shard-<16 hex>-<16 hex>.shard"; nullopt for anything else.
std::optional<std::pair<std::uint64_t, std::uint64_t>> parse_shard_name(
    const std::string& name) {
  if (name.size() != 45 || name.rfind("shard-", 0) != 0 ||
      name[22] != '-' || name.compare(39, 6, ".shard") != 0) {
    return std::nullopt;
  }
  const auto hex16 = [&name](std::size_t at) -> std::optional<std::uint64_t> {
    std::uint64_t v = 0;
    for (std::size_t i = at; i < at + 16; ++i) {
      const char c = name[i];
      std::uint64_t digit;
      if (c >= '0' && c <= '9') digit = std::uint64_t(c - '0');
      else if (c >= 'a' && c <= 'f') digit = std::uint64_t(c - 'a' + 10);
      else return std::nullopt;
      v = (v << 4) | digit;
    }
    return v;
  };
  const auto key = hex16(6);
  const auto epoch = hex16(23);
  if (!key || !epoch) return std::nullopt;
  return std::make_pair(*key, *epoch);
}

/// Writes one shard file (tmp -> fsync -> rename; the directory fsync is
/// batched by the caller). Returns the file's size in bytes.
std::uint64_t write_shard(const std::string& dir, std::uint64_t key,
                          const dict::Dictionary& shard) {
  const dict::DictSections sec = shard.snapshot_sections();

  Bytes meta;
  ByteWriter mw(meta);
  mw.u8(kManifestVersion);
  mw.u64(sec.epoch);
  mw.u64(sec.n);
  mw.raw(ByteSpan(sec.root));

  std::uint8_t header[kShardHeaderSize] = {};
  std::memcpy(header, kShardMagic, sizeof(kShardMagic));
  ByteWriter hw;
  hw.u32(kShardVersion);
  hw.u64(key);
  hw.u64(sec.epoch);
  std::memcpy(header + sizeof(kShardMagic), hw.bytes().data(),
              hw.bytes().size());

  return commit_container_file(dir, shard_name(key, sec.epoch),
                               ByteSpan(header, sizeof(header)),
                               {{kTagMeta, ByteSpan(meta)},
                                {kTagLog, sec.log},
                                {kTagSorted, sec.sorted},
                                {kTagTree, sec.tree}},
                               /*sync_dir=*/false);
}

struct ManifestEntry {
  std::uint64_t key = 0;
  std::uint64_t epoch = 0;
};

struct Manifest {
  std::uint64_t bucket_width = 0;
  std::uint64_t epoch = 0;
  std::vector<ManifestEntry> entries;
};

/// Decodes the manifest section of a mapped manifest snapshot.
std::optional<Manifest> parse_manifest(const SnapshotFile::Mapped& mapped) {
  const SectionView* section =
      find_section(mapped.sections, ShardCheckpointer::kManifestSection);
  if (section == nullptr) return std::nullopt;
  ByteReader r{section->data};
  if (r.try_u8().value_or(0xFF) != kManifestVersion) return std::nullopt;
  Manifest m;
  const auto width = r.try_u64();
  const auto epoch = r.try_u64();
  const auto count = r.try_u32();
  if (!width || !epoch || !count) return std::nullopt;
  // Each entry is 16 bytes; reject forged counts before allocating.
  if (*count > r.remaining() / 16) return std::nullopt;
  m.bucket_width = *width;
  m.epoch = *epoch;
  m.entries.reserve(*count);
  std::uint64_t prev_key = 0;
  for (std::uint32_t i = 0; i < *count; ++i) {
    const auto key = r.try_u64();
    const auto shard_epoch = r.try_u64();
    if (!key || !shard_epoch) return std::nullopt;
    if (i > 0 && *key <= prev_key) return std::nullopt;  // sorted, no dups
    prev_key = *key;
    m.entries.push_back({*key, *shard_epoch});
  }
  if (!r.done()) return std::nullopt;
  return m;
}

/// Deletes shard files referenced by neither of the two newest manifests.
/// Best-effort: stale files are harmless, a missed deletion is retried at
/// the next checkpoint.
void prune_unreferenced(const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> referenced;
  const std::vector<std::uint64_t> manifests = SnapshotFile::seqs(dir);
  for (std::size_t i = 0; i < manifests.size() && i < 2; ++i) {
    const auto mapped = SnapshotFile::map(dir, manifests[i]);
    if (const auto m = mapped ? parse_manifest(*mapped) : std::nullopt) {
      for (const auto& e : m->entries) referenced.push_back({e.key, e.epoch});
    }
  }
  std::vector<std::filesystem::path> stale;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const auto f = parse_shard_name(entry.path().filename().string());
    if (f && std::find(referenced.begin(), referenced.end(), *f) ==
                 referenced.end()) {
      stale.push_back(entry.path());
    }
  }
  for (const auto& path : stale) {
    std::error_code rm_ec;
    std::filesystem::remove(path, rm_ec);
  }
}

}  // namespace

ShardCheckpointer::ShardCheckpointer(std::string dir) : dir_(std::move(dir)) {}

ShardCheckpointer::Stats ShardCheckpointer::checkpoint(
    const dict::ShardedDictionary& sharded, ThreadPool* pool) {
  std::filesystem::create_directories(dir_);
  Stats stats;

  struct Job {
    std::uint64_t key = 0;
    const dict::Dictionary* dict = nullptr;
    std::uint64_t bytes = 0;
  };
  std::vector<Job> jobs;
  for (const auto& [key, shard] : sharded.shards()) {
    const auto it = on_disk_epoch_.find(key);
    if (it != on_disk_epoch_.end() && it->second == shard.epoch()) {
      ++stats.shards_skipped;
      continue;
    }
    jobs.push_back({key, &shard, 0});
  }

  if (!jobs.empty()) {
    // Pool tasks must not throw; capture the first failure and rethrow on
    // the calling thread after the join.
    std::mutex err_mu;
    std::string error;
    const auto run_one = [this, &jobs, &err_mu, &error](std::size_t i) {
      try {
        jobs[i].bytes = write_shard(dir_, jobs[i].key, *jobs[i].dict);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (error.empty()) error = e.what();
      }
    };
    if (pool != nullptr && jobs.size() > 1) {
      pool->run_indexed(jobs.size(), run_one);
    } else {
      for (std::size_t i = 0; i < jobs.size(); ++i) run_one(i);
    }
    if (!error.empty()) throw std::runtime_error(error);
    // One directory fsync covers every rename; shard files must be durable
    // before the manifest that references them commits.
    fsync_dir(dir_);
  }

  Bytes payload;
  ByteWriter w(payload);
  w.u8(kManifestVersion);
  w.u64(static_cast<std::uint64_t>(sharded.bucket_width()));
  w.u64(sharded.epoch());
  w.u32(static_cast<std::uint32_t>(sharded.shards().size()));
  for (const auto& [key, shard] : sharded.shards()) {
    w.u64(key);
    w.u64(shard.epoch());
  }
  stats.bytes_written = SnapshotFile::write_v2(
      dir_, sharded.epoch(), {{kManifestSection, ByteSpan(payload)}});

  stats.shards_written = jobs.size();
  for (const Job& j : jobs) stats.bytes_written += j.bytes;

  on_disk_epoch_.clear();
  for (const auto& [key, shard] : sharded.shards()) {
    on_disk_epoch_[key] = shard.epoch();
  }
  prune_unreferenced(dir_);
  return stats;
}

ShardCheckpointer::RecoverResult ShardCheckpointer::recover(
    dict::ShardedDictionary& out) {
  RecoverResult res;
  const auto mapped = SnapshotFile::map_newest(dir_);
  if (!mapped) {
    // Nothing checkpointed yet: an empty directory is a clean cold start.
    res.ok = true;
    return res;
  }
  res.have_manifest = true;
  const auto manifest = parse_manifest(*mapped);
  if (!manifest) {
    res.error = "malformed manifest";
    return res;
  }
  if (manifest->bucket_width == 0 ||
      manifest->bucket_width >
          std::uint64_t(std::numeric_limits<UnixSeconds>::max())) {
    res.error = "bad bucket width";
    return res;
  }

  std::map<std::uint64_t, dict::Dictionary> shards;
  for (const ManifestEntry& e : manifest->entries) {
    const std::string path = dir_ + "/" + shard_name(e.key, e.epoch);
    const auto file = MappedFile::map(path);
    if (!file) {
      res.error = "missing shard file " + shard_name(e.key, e.epoch);
      return res;
    }
    const ByteSpan data = file->span();
    bool header_ok = data.size() >= kShardHeaderSize &&
                     std::memcmp(data.data(), kShardMagic,
                                 sizeof(kShardMagic)) == 0;
    if (header_ok) {
      ByteReader r{data.subspan(sizeof(kShardMagic))};
      header_ok = r.u32() == kShardVersion && r.u64() == e.key &&
                  r.u64() == e.epoch;
    }
    if (!header_ok) {
      res.error = "bad shard header " + shard_name(e.key, e.epoch);
      return res;
    }
    const auto sections = parse_container(data.subspan(kShardHeaderSize));
    if (!sections) {
      res.error = "corrupt shard container " + shard_name(e.key, e.epoch);
      return res;
    }
    const SectionView* meta = find_section(*sections, kTagMeta);
    const SectionView* log = find_section(*sections, kTagLog);
    const SectionView* sorted = find_section(*sections, kTagSorted);
    const SectionView* tree = find_section(*sections, kTagTree);
    if (meta == nullptr || log == nullptr || sorted == nullptr ||
        tree == nullptr) {
      res.error = "missing shard section " + shard_name(e.key, e.epoch);
      return res;
    }
    ByteReader mr{meta->data};
    dict::DictSections sec;
    if (mr.try_u8().value_or(0xFF) != kManifestVersion) {
      res.error = "bad shard meta " + shard_name(e.key, e.epoch);
      return res;
    }
    const auto epoch = mr.try_u64();
    const auto n = mr.try_u64();
    const auto root = mr.try_raw(20);
    if (!epoch || *epoch != e.epoch || !n || !root || !mr.done()) {
      res.error = "bad shard meta " + shard_name(e.key, e.epoch);
      return res;
    }
    sec.epoch = *epoch;
    sec.n = *n;
    std::copy(root->begin(), root->end(), sec.root.begin());
    sec.log = log->data;
    sec.sorted = sorted->data;
    sec.tree = tree->data;
    dict::Dictionary d;
    try {
      d.restore_sections(sec, file);  // adopts the mapping in place
    } catch (const std::exception& ex) {
      res.error = ex.what();
      return res;
    }
    shards.emplace(e.key, std::move(d));
  }

  out.install(static_cast<UnixSeconds>(manifest->bucket_width),
              manifest->epoch, std::move(shards));
  on_disk_epoch_.clear();
  for (const ManifestEntry& e : manifest->entries) {
    on_disk_epoch_[e.key] = e.epoch;
  }
  res.ok = true;
  res.epoch = manifest->epoch;
  res.shards = manifest->entries.size();
  return res;
}

}  // namespace ritm::persist
