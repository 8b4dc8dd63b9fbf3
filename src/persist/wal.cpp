#include "persist/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common/crc32.hpp"
#include "common/io.hpp"
#include "persist/sections.hpp"

namespace ritm::persist {

namespace {

constexpr std::uint8_t kMagic[8] = {'R', 'I', 'T', 'M', 'W', 'A', 'L', 0};
constexpr std::uint32_t kVersion = 1;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("WriteAheadLog: " + what + ": " +
                           std::strerror(errno));
}

void write_all(int fd, ByteSpan data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("write");
    }
    off += static_cast<std::size_t>(n);
  }
}

Bytes read_file(const std::string& path) {
  Bytes out;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return out;
    fail("open for scan");
  }
  std::uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      fail("read");
    }
    if (n == 0) break;
    out.insert(out.end(), buf, buf + n);
  }
  ::close(fd);
  return out;
}

/// Parses the longest valid record prefix out of raw file bytes. Shared by
/// the read-only scan and open()'s truncating scan so the two can never
/// disagree about where the valid prefix ends.
WalScan scan_bytes(ByteSpan data) {
  WalScan scan;
  // A file shorter than the header (creation crashed mid-header) or with a
  // wrong magic/version holds no valid records at all.
  bool header_ok = data.size() >= WriteAheadLog::kHeaderSize &&
                   std::memcmp(data.data(), kMagic, sizeof(kMagic)) == 0;
  if (header_ok) {
    ByteReader hr{data.subspan(sizeof(kMagic), 4)};
    header_ok = hr.u32() == kVersion;
  }
  if (!header_ok) {
    scan.valid_bytes = 0;
    scan.truncated_bytes = data.size();
    return scan;
  }

  std::size_t pos = WriteAheadLog::kHeaderSize;
  std::uint64_t prev_seq = 0;
  for (;;) {
    if (data.size() - pos < 4) break;  // torn length field
    ByteReader lr{data.subspan(pos, 4)};
    const std::uint32_t frame_len = lr.u32();
    if (frame_len < 9 || frame_len > WriteAheadLog::kMaxFrameBytes) break;
    if (data.size() - pos < 4 + std::size_t{frame_len} + 4) break;  // torn
    const ByteSpan frame = data.subspan(pos + 4, frame_len);
    ByteReader cr{data.subspan(pos + 4 + frame_len, 4)};
    if (cr.u32() != crc32(frame)) break;  // torn or corrupt frame
    ByteReader fr{frame};
    WalRecord rec;
    rec.seq = fr.u64();
    rec.type = fr.u8();
    if (rec.seq <= prev_seq) break;  // seqs strictly increase from >= 1
    rec.payload = fr.raw(fr.remaining());
    prev_seq = rec.seq;
    scan.records.push_back(std::move(rec));
    pos += 4 + frame_len + 4;
  }
  scan.valid_bytes = pos;
  scan.truncated_bytes = data.size() - pos;
  return scan;
}

}  // namespace

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) {
    // Best-effort flush on destruction; explicit close() reports errors.
    ::fsync(fd_);
    ::close(fd_);
  }
}

WalScan WriteAheadLog::open(const std::string& path, Options opts) {
  if (fd_ >= 0) throw std::logic_error("WriteAheadLog: already open");
  path_ = path;
  opts_ = opts;

  const Bytes existing = read_file(path);
  WalScan scan = scan_bytes(ByteSpan(existing));

  const bool fresh = ::access(path.c_str(), F_OK) != 0;
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) fail("open");

  if (scan.valid_bytes == 0) {
    // Fresh file, or a header torn at creation: (re)write the header.
    if (::ftruncate(fd_, 0) != 0) fail("ftruncate");
    ByteWriter w;
    w.raw(ByteSpan(kMagic, sizeof(kMagic)));
    w.u32(kVersion);
    write_all(fd_, ByteSpan(w.bytes()));
    if (::fsync(fd_) != 0) fail("fsync");
    if (fresh) {
      // The file's own fsync does not persist its directory entry: without
      // an fsync of the parent, a power loss can make the whole log vanish
      // even though records were "durably" appended to it.
      const std::size_t slash = path.find_last_of('/');
      fsync_path(slash == std::string::npos ? std::string(".")
                                            : path.substr(0, slash));
    }
    size_ = kHeaderSize;
  } else {
    if (scan.truncated_bytes > 0) {
      // Torn tail: cut it off so appends extend the valid prefix.
      if (::ftruncate(fd_, static_cast<off_t>(scan.valid_bytes)) != 0) {
        fail("ftruncate torn tail");
      }
      if (::fsync(fd_) != 0) fail("fsync");
    }
    if (::lseek(fd_, static_cast<off_t>(scan.valid_bytes), SEEK_SET) < 0) {
      fail("lseek");
    }
    size_ = scan.valid_bytes;
  }
  next_seq_ = scan.records.empty() ? 1 : scan.records.back().seq + 1;
  unsynced_ = 0;
  return scan;
}

std::uint64_t WriteAheadLog::append(std::uint8_t type, ByteSpan payload) {
  if (fd_ < 0) throw std::logic_error("WriteAheadLog: not open");
  if (payload.size() + 9 > kMaxFrameBytes) {
    throw std::invalid_argument("WriteAheadLog: payload too large");
  }
  const std::uint64_t seq = next_seq_++;
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(9 + payload.size()));
  const std::size_t frame_off = w.size();
  w.u64(seq);
  w.u8(type);
  w.raw(payload);
  w.u32(crc32(ByteSpan(w.bytes()).subspan(frame_off)));
  write_all(fd_, ByteSpan(w.bytes()));
  size_ += w.size();
  if (opts_.sync_every > 0 && ++unsynced_ >= opts_.sync_every) sync();
  return seq;
}

void WriteAheadLog::sync() {
  if (fd_ < 0) return;
  if (::fsync(fd_) != 0) fail("fsync");
  unsynced_ = 0;
}

void WriteAheadLog::reset(std::uint64_t next_seq) {
  if (fd_ < 0) throw std::logic_error("WriteAheadLog: not open");
  if (::ftruncate(fd_, static_cast<off_t>(kHeaderSize)) != 0) {
    fail("ftruncate reset");
  }
  if (::lseek(fd_, static_cast<off_t>(kHeaderSize), SEEK_SET) < 0) {
    fail("lseek");
  }
  if (::fsync(fd_) != 0) fail("fsync");
  size_ = kHeaderSize;
  next_seq_ = next_seq == 0 ? 1 : next_seq;
  unsynced_ = 0;
}

void WriteAheadLog::close() {
  if (fd_ < 0) return;
  sync();
  if (::close(fd_) != 0) {
    fd_ = -1;
    fail("close");
  }
  fd_ = -1;
}

WalScan WriteAheadLog::scan_file(const std::string& path) {
  const Bytes data = read_file(path);
  return scan_bytes(ByteSpan(data));
}

WalScan WriteAheadLog::scan(ByteSpan data) { return scan_bytes(data); }

}  // namespace ritm::persist
