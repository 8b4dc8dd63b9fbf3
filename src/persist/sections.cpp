#include "persist/sections.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "common/crc32.hpp"
#include "common/io.hpp"

namespace ritm::persist {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("persist: " + what + ": " + std::strerror(errno));
}

void write_fd(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("write");
    }
    data += static_cast<std::size_t>(n);
    len -= static_cast<std::size_t>(n);
  }
}

void write_zeros(int fd, std::size_t len) {
  static constexpr std::uint8_t kZeros[kSectionAlign] = {};
  while (len > 0) {
    const std::size_t chunk = len < sizeof(kZeros) ? len : sizeof(kZeros);
    write_fd(fd, kZeros, chunk);
    len -= chunk;
  }
}

std::uint32_t be32_at(const std::uint8_t* p) {
  return (std::uint32_t(p[0]) << 24) | (std::uint32_t(p[1]) << 16) |
         (std::uint32_t(p[2]) << 8) | std::uint32_t(p[3]);
}

std::uint64_t be64_at(const std::uint8_t* p) {
  return (std::uint64_t(be32_at(p)) << 32) | be32_at(p + 4);
}

}  // namespace

std::uint64_t write_container(int fd,
                              const std::vector<SectionSpec>& sections) {
  // Lay out offsets first; the directory is tiny, so it is staged in memory
  // while the sections themselves stream straight from their arenas.
  const std::uint64_t dir_end =
      kSectionHeaderSize +
      std::uint64_t(sections.size()) * kSectionDirEntrySize;
  std::vector<std::uint64_t> offsets(sections.size());
  std::uint64_t off = align_section(dir_end);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    offsets[i] = off;
    off = align_section(off + sections[i].data.size());
  }
  const std::uint64_t total = off;

  ByteWriter dir;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    dir.u32(sections[i].tag);
    dir.u32(crc32(sections[i].data));
    dir.u64(offsets[i]);
    dir.u64(sections[i].data.size());
  }

  ByteWriter header;
  // The endian tag is the one host-native field: memcpy the constant so a
  // foreign-endian reader sees a mismatched value.
  std::uint8_t tag_bytes[4];
  const std::uint32_t tag = kSectionEndianTag;
  std::memcpy(tag_bytes, &tag, sizeof(tag));
  header.raw(ByteSpan(tag_bytes, sizeof(tag_bytes)));
  header.u32(static_cast<std::uint32_t>(sections.size()));
  header.u32(crc32(ByteSpan(dir.bytes())));
  header.u32(0);  // reserved

  write_fd(fd, header.bytes().data(), header.bytes().size());
  write_fd(fd, dir.bytes().data(), dir.bytes().size());
  write_zeros(fd, static_cast<std::size_t>(align_section(dir_end) - dir_end));
  std::uint64_t pos = align_section(dir_end);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    write_fd(fd, sections[i].data.data(), sections[i].data.size());
    pos += sections[i].data.size();
    const std::uint64_t padded = align_section(pos);
    write_zeros(fd, static_cast<std::size_t>(padded - pos));
    pos = padded;
  }
  return total;
}

std::optional<std::vector<SectionView>> parse_container(ByteSpan data) {
  if (data.size() < kSectionHeaderSize) return std::nullopt;
  std::uint32_t tag;
  std::memcpy(&tag, data.data(), sizeof(tag));
  if (tag != kSectionEndianTag) return std::nullopt;  // foreign endianness
  const std::uint32_t count = be32_at(data.data() + 4);
  const std::uint32_t dir_crc = be32_at(data.data() + 8);
  // An adversarial count must not drive the bounds math into overflow.
  if (count > (data.size() - kSectionHeaderSize) / kSectionDirEntrySize) {
    return std::nullopt;
  }
  const std::size_t dir_len = std::size_t(count) * kSectionDirEntrySize;
  const ByteSpan dir(data.data() + kSectionHeaderSize, dir_len);
  if (crc32(dir) != dir_crc) return std::nullopt;

  std::vector<SectionView> out;
  out.reserve(count);
  const std::uint64_t dir_end = kSectionHeaderSize + dir_len;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint8_t* e = dir.data() + std::size_t(i) * kSectionDirEntrySize;
    SectionView view;
    view.tag = be32_at(e);
    const std::uint32_t crc = be32_at(e + 4);
    const std::uint64_t off = be64_at(e + 8);
    const std::uint64_t len = be64_at(e + 16);
    if (off % kSectionAlign != 0 || off < align_section(dir_end)) {
      return std::nullopt;
    }
    if (off > data.size() || len > data.size() - off) return std::nullopt;
    view.data = ByteSpan(data.data() + off, static_cast<std::size_t>(len));
    if (crc32(view.data) != crc) return std::nullopt;
    out.push_back(view);
  }
  return out;
}

const SectionView* find_section(const std::vector<SectionView>& sections,
                                std::uint32_t tag) noexcept {
  for (const SectionView& s : sections) {
    if (s.tag == tag) return &s;
  }
  return nullptr;
}

std::uint64_t commit_container_file(const std::string& dir,
                                    const std::string& name, ByteSpan header,
                                    const std::vector<SectionSpec>& sections,
                                    bool sync_dir) {
  const std::string final_path = dir + "/" + name;
  const std::string tmp_path = final_path + ".tmp";
  const int fd =
      ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) fail("open " + tmp_path);
  std::uint64_t total = header.size();
  try {
    write_fd(fd, header.data(), header.size());
    total += write_container(fd, sections);
  } catch (const std::exception&) {
    ::close(fd);
    throw;
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    fail("fsync " + tmp_path);
  }
  if (::close(fd) != 0) fail("close " + tmp_path);
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    fail("rename " + tmp_path);
  }
  if (sync_dir) fsync_dir(dir);
  return total;
}

void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) fail("open " + dir + " for fsync");
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) fail("fsync " + dir);
}

}  // namespace ritm::persist
