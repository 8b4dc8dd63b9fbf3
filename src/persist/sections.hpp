// Section container: the fixed-layout, mmap-ready payload of snapshot files.
//
// A container is a section directory followed by 64-byte-aligned sections,
// each CRC-guarded independently so a reader can validate without copying:
//
//   u32 endian_tag     host-native byte order; a foreign-endian file fails
//                      the tag check and is rejected as corrupt instead of
//                      having its raw arenas misread
//   u32 section_count  big-endian
//   u32 dir_crc        big-endian CRC32 over the directory entry bytes
//   u32 reserved       zero
//   count x 24B        directory entries: u32 tag | u32 crc | u64 off |
//                      u64 len (all big-endian; off is relative to the
//                      container start and 64-byte aligned)
//   ...                sections, zero-padded so each starts 64-aligned
//
// Section *contents* are raw in-memory arenas (host-endian, fixed-width
// records); everything structural is big-endian like the rest of the
// persistence plane. Writing streams straight to the fd — no whole-file
// staging buffer — so a 10M-entry snapshot never doubles in memory.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace ritm::persist {

/// Host byte-order tag ("RIT2"). A big-endian writer stores different bytes
/// for the same constant, so a mismatched reader rejects the container.
constexpr std::uint32_t kSectionEndianTag = 0x52495432;

constexpr std::size_t kSectionAlign = 64;
constexpr std::size_t kSectionDirEntrySize = 24;
constexpr std::size_t kSectionHeaderSize = 16;

/// One section to write: a tag chosen by the caller plus its raw bytes.
struct SectionSpec {
  std::uint32_t tag = 0;
  ByteSpan data;
};

/// One validated section of a parsed container. The span aliases the parsed
/// buffer (typically an mmap), so it lives exactly as long as that buffer.
struct SectionView {
  std::uint32_t tag = 0;
  ByteSpan data;

  bool operator==(const SectionView&) const = default;
};

inline constexpr std::uint64_t align_section(std::uint64_t off) {
  return (off + kSectionAlign - 1) & ~std::uint64_t(kSectionAlign - 1);
}

/// Streams a container to `fd` (which must be positioned at a 64-byte-
/// aligned file offset for the alignment guarantees to hold). Returns the
/// container's total byte length (a multiple of 64). Throws
/// std::runtime_error on I/O failure.
std::uint64_t write_container(int fd, const std::vector<SectionSpec>& sections);

/// Validates and indexes a container in `data` (whose start must be
/// 64-byte aligned, e.g. an mmap offset): endian tag, directory CRC,
/// bounds, alignment, and every per-section CRC. Returns nullopt on any
/// violation — the caller treats the whole file as unusable and falls back.
std::optional<std::vector<SectionView>> parse_container(ByteSpan data);

/// The first section in `sections` tagged `tag`, or nullptr.
const SectionView* find_section(const std::vector<SectionView>& sections,
                                std::uint32_t tag) noexcept;

/// Atomically commits `header` (a multiple of kSectionAlign bytes, so the
/// container starts aligned) followed by a container of `sections` as
/// `dir`/`name`: writes `name`.tmp in full, fsyncs it, renames it over
/// `name`, then fsyncs `dir`. Returns the file's size in bytes. Throws
/// std::runtime_error on I/O failure; a leftover .tmp is ignored by every
/// reader.
std::uint64_t commit_container_file(const std::string& dir,
                                    const std::string& name, ByteSpan header,
                                    const std::vector<SectionSpec>& sections);

/// Opens `path` read-only and fsyncs it. On a directory this makes the
/// files created or renamed inside it durable. Throws std::runtime_error
/// on failure.
void fsync_path(const std::string& path);

}  // namespace ritm::persist
