// Fuzz harness for the two state encodings that read untrusted or on-disk
// bytes:
//   * the compact dictionary wire codec (dict::Dictionary::restore_from),
//     which decodes CA cold-start objects fetched from the CDN and the
//     store's WAL bootstrap records — arbitrary bytes in;
//   * the snapshot section container (persist::parse_container) and the
//     in-place arena adoption behind it (Dictionary::restore_sections), fed
//     a 64-byte-aligned copy of the input the way an mmap would present it.
//     Arenas are read at the RA store's snapshot tags for its first CA,
//     (1 << 8) | ra::DictionaryStore::kSectionKind{Log,Sorted,Tree}; the
//     meta section (tag kSectionMeta) holds just the per-dictionary triple
//     the store's meta records for each CA — u64 epoch, u64 n, 20B root —
//     so the store's signed-root and freshness fields stay out of the way.
// Properties checked beyond "no crash":
//   * a wire decode that succeeds re-encodes to exactly the bytes it
//     consumed (the codec is canonical);
//   * adopted sections read back unchanged through snapshot_sections(),
//     and proving and inserting on the adopted dictionary stay in bounds
//     (ASan catches any read past the adopted buffer).
//
// Built like fuzz_frame (CMake): with -DRITM_BUILD_FUZZERS=ON (clang) this
// is a libFuzzer target; otherwise it compiles as a self-driving smoke
// binary that replays a deterministic pseudo-random corpus, registered as
// a ctest (label `fault`).
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "common/io.hpp"
#include "common/rng.hpp"
#include "dict/dictionary.hpp"
#include "persist/sections.hpp"
#include "ra/store.hpp"

namespace {

using namespace ritm;

using Store = ra::DictionaryStore;
constexpr std::uint32_t kTagMeta = Store::kSectionMeta;
constexpr std::uint32_t kFirstCa = 1u << 8;
constexpr std::uint32_t kTagLog = kFirstCa | Store::kSectionKindLog;
constexpr std::uint32_t kTagSorted = kFirstCa | Store::kSectionKindSorted;
constexpr std::uint32_t kTagTree = kFirstCa | Store::kSectionKindTree;

bool same_bytes(ByteSpan a, ByteSpan b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

/// Wire codec: decode, and on success re-encode and compare.
void fuzz_wire(ByteSpan input) {
  ByteReader r{input};
  dict::Dictionary d;
  try {
    d.restore_from(r);
  } catch (const std::exception&) {
    return;
  }
  ByteWriter w;
  d.snapshot_into(w);
  if (!same_bytes(ByteSpan(w.bytes()), input.first(r.position()))) {
    __builtin_trap();
  }
}

/// Section container: parse an aligned copy, adopt the dictionary arenas,
/// then read them back and exercise the adopted dictionary.
void fuzz_sections(ByteSpan input) {
  if (input.empty()) return;
  const std::size_t padded = persist::align_section(input.size());
  std::shared_ptr<std::uint8_t[]> buf(
      static_cast<std::uint8_t*>(std::aligned_alloc(persist::kSectionAlign,
                                                    padded)),
      std::free);
  if (!buf) return;
  std::memcpy(buf.get(), input.data(), input.size());
  const auto sections =
      persist::parse_container(ByteSpan(buf.get(), input.size()));
  if (!sections) return;

  const persist::SectionView* meta = persist::find_section(*sections, kTagMeta);
  const persist::SectionView* log = persist::find_section(*sections, kTagLog);
  const persist::SectionView* sorted =
      persist::find_section(*sections, kTagSorted);
  const persist::SectionView* tree = persist::find_section(*sections, kTagTree);
  if (meta == nullptr || log == nullptr || sorted == nullptr ||
      tree == nullptr) {
    return;
  }
  ByteReader mr{meta->data};
  const auto epoch = mr.try_u64();
  const auto n = mr.try_u64();
  const auto root = mr.try_raw(20);
  if (!epoch || !n || !root) return;
  dict::DictSections sec;
  sec.epoch = *epoch;
  sec.n = *n;
  std::memcpy(sec.root.data(), root->data(), sec.root.size());
  sec.log = log->data;
  sec.sorted = sorted->data;
  sec.tree = tree->data;

  dict::Dictionary d;
  try {
    d.restore_sections(sec, buf);
  } catch (const std::exception&) {
    return;
  }
  const dict::DictSections back = d.snapshot_sections();
  if (back.n != sec.n || back.epoch != sec.epoch || back.root != sec.root ||
      !same_bytes(back.log, sec.log) || !same_bytes(back.sorted, sec.sorted) ||
      !same_bytes(back.tree, sec.tree)) {
    __builtin_trap();
  }
  (void)d.prove(cert::SerialNumber::from_uint(0x1234, 4));
  if (d.size() > 0) (void)d.prove(d.entries_from(d.size()).front().serial);
  d.insert({cert::SerialNumber::from_uint(0xABCDEF, 3)});  // detaches
  (void)d.root();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const ByteSpan input(data, size);
  fuzz_wire(input);
  fuzz_sections(input);
  return 0;
}

#ifndef RITM_LIBFUZZER
namespace {

dict::Dictionary random_dictionary(Rng& rng) {
  dict::Dictionary d;
  const std::size_t n = rng.uniform(40);
  std::vector<cert::SerialNumber> serials;
  for (std::size_t i = 0; i < n; ++i) {
    serials.push_back(cert::SerialNumber::from_uint(
        rng.uniform(1 << 20), 1 + rng.uniform(cert::kMaxSerialBytes)));
  }
  d.insert(serials);
  return d;
}

/// A valid container holding `d`'s sections, staged through a temp file
/// because write_container streams to an fd.
Bytes container_of(const dict::Dictionary& d) {
  const dict::DictSections sec = d.snapshot_sections();
  Bytes meta;
  ByteWriter mw(meta);
  mw.u64(sec.epoch);
  mw.u64(sec.n);
  mw.raw(ByteSpan(sec.root));
  std::FILE* f = std::tmpfile();
  if (f == nullptr) std::abort();
  const std::uint64_t len = persist::write_container(
      fileno(f), {{kTagMeta, ByteSpan(meta)},
                  {kTagLog, sec.log},
                  {kTagSorted, sec.sorted},
                  {kTagTree, sec.tree}});
  Bytes out(static_cast<std::size_t>(len));
  std::rewind(f);
  if (std::fread(out.data(), 1, out.size(), f) != out.size()) std::abort();
  std::fclose(f);
  return out;
}

}  // namespace

// Self-driving smoke mode: a deterministic pseudo-random corpus — raw
// noise, valid wire encodings, and valid containers, each possibly
// bit-flipped or truncated — through the same entry point libFuzzer drives.
int main() {
  Rng rng(0x5AA9);
  Bytes buf;
  for (int iter = 0; iter < 20'000; ++iter) {
    const std::uint32_t shape = rng.uniform(3);
    if (shape == 0) {  // raw noise
      buf.assign(rng.uniform(512), 0);
      for (auto& b : buf) b = std::uint8_t(rng.uniform(256));
    } else {
      const dict::Dictionary d = random_dictionary(rng);
      if (shape == 1) {
        ByteWriter w;
        d.snapshot_into(w);
        buf = w.bytes();
      } else {
        buf = container_of(d);
      }
      const std::uint32_t damage = rng.uniform(4);
      if (damage == 1 && !buf.empty()) {
        const std::uint32_t flips = 1 + rng.uniform(4);
        for (std::uint32_t f = 0; f < flips; ++f) {
          buf[rng.uniform(buf.size())] ^= std::uint8_t(1u << rng.uniform(8));
        }
      } else if (damage == 2) {
        buf.resize(rng.uniform(buf.size() + 1));
      }
    }
    LLVMFuzzerTestOneInput(buf.data(), buf.size());
  }
  return 0;
}
#endif
