#include "persist/snapshot.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <vector>

#include "common/io.hpp"

namespace ritm::persist {

namespace {

constexpr std::uint8_t kMagic[8] = {'R', 'I', 'T', 'M', 'S', 'N', 'A', 'P'};
constexpr std::uint32_t kVersion = 2;

std::string snapshot_name(std::uint64_t seq) {
  // Zero-padded hex so lexicographic name order equals seq order.
  char buf[40];
  std::snprintf(buf, sizeof(buf), "snap-%016" PRIx64 ".snap", seq);
  return buf;
}

/// Parses "snap-<16 hex>.snap"; nullopt for anything else (.tmp leftovers,
/// the WAL, foreign files).
std::optional<std::uint64_t> parse_snapshot_name(const std::string& name) {
  if (name.size() != 26 || name.rfind("snap-", 0) != 0 ||
      name.compare(21, 5, ".snap") != 0) {
    return std::nullopt;
  }
  std::uint64_t seq = 0;
  for (std::size_t i = 5; i < 21; ++i) {
    const char c = name[i];
    std::uint64_t digit;
    if (c >= '0' && c <= '9') digit = std::uint64_t(c - '0');
    else if (c >= 'a' && c <= 'f') digit = std::uint64_t(c - 'a' + 10);
    else return std::nullopt;
    seq = (seq << 4) | digit;
  }
  return seq;
}

}  // namespace

std::shared_ptr<const MappedFile> MappedFile::map(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return nullptr;
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return nullptr;
  }
  const auto len = static_cast<std::size_t>(st.st_size);
  void* base = nullptr;
  if (len > 0) {
    base = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
    if (base == MAP_FAILED) {
      ::close(fd);
      return nullptr;
    }
  }
  ::close(fd);  // the mapping outlives the descriptor
  return std::shared_ptr<const MappedFile>(new MappedFile(base, len));
}

MappedFile::~MappedFile() {
  if (base_ != nullptr) ::munmap(base_, len_);
}

std::uint64_t SnapshotFile::write_v2(const std::string& dir, std::uint64_t seq,
                                     const std::vector<SectionSpec>& sections,
                                     std::size_t keep) {
  std::filesystem::create_directories(dir);

  std::uint8_t header[kV2HeaderSize] = {};
  std::memcpy(header, kMagic, sizeof(kMagic));
  ByteWriter w;
  w.u32(kVersion);
  w.u64(seq);
  std::memcpy(header + sizeof(kMagic), w.bytes().data(), w.bytes().size());
  const std::uint64_t total = commit_container_file(
      dir, snapshot_name(seq), ByteSpan(header, sizeof(header)), sections);

  // Retention: drop everything older than the newest `keep` snapshots. The
  // just-committed file is newest, so at least it always survives.
  const std::vector<std::uint64_t> on_disk = seqs(dir);
  for (std::size_t i = std::max<std::size_t>(keep, 1); i < on_disk.size();
       ++i) {
    std::error_code ec;  // best-effort cleanup; stale files are harmless
    std::filesystem::remove(dir + "/" + snapshot_name(on_disk[i]), ec);
  }
  return total;
}

std::vector<std::uint64_t> SnapshotFile::seqs(const std::string& dir) {
  std::vector<std::uint64_t> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (const auto s = parse_snapshot_name(entry.path().filename().string())) {
      out.push_back(*s);
    }
  }
  std::sort(out.begin(), out.end(), std::greater<>());
  return out;
}

std::optional<SnapshotFile::Mapped> SnapshotFile::map(const std::string& dir,
                                                      std::uint64_t seq) {
  auto file = MappedFile::map(dir + "/" + snapshot_name(seq));
  if (!file) return std::nullopt;
  const ByteSpan data = file->span();
  if (data.size() < kV2HeaderSize ||
      std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return std::nullopt;
  }
  ByteReader r{data.subspan(sizeof(kMagic))};
  if (r.u32() != kVersion || r.u64() != seq) return std::nullopt;
  auto sections = parse_container(data.subspan(kV2HeaderSize));
  if (!sections) return std::nullopt;
  return Mapped{seq, std::move(file), std::move(*sections)};
}

std::optional<SnapshotFile::Mapped> SnapshotFile::map_newest(
    const std::string& dir, std::uint64_t* skipped) {
  if (skipped != nullptr) *skipped = 0;
  for (const std::uint64_t seq : seqs(dir)) {
    if (auto mapped = map(dir, seq)) return mapped;
    if (skipped != nullptr) ++*skipped;
  }
  return std::nullopt;
}

}  // namespace ritm::persist
