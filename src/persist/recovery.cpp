#include "persist/recovery.hpp"

namespace ritm::persist {

MappedRecovery Recovery::recover_mapped(const std::string& dir) {
  MappedRecovery result;
  result.snapshot = SnapshotFile::map_newest(dir, &result.snapshots_skipped);
  const std::uint64_t snapshot_seq =
      result.snapshot ? result.snapshot->seq : 0;

  WalScan scan = WriteAheadLog::scan_file(wal_path(dir));
  result.wal_truncated_bytes = scan.truncated_bytes;
  // Records already covered by the snapshot are dropped; the rest replay on
  // top of it. (A snapshot stamped past the whole log — e.g. the crash hit
  // between the snapshot commit and the WAL reset — yields an empty tail.)
  result.tail.reserve(scan.records.size());
  for (auto& rec : scan.records) {
    if (rec.seq > snapshot_seq) result.tail.push_back(std::move(rec));
  }
  return result;
}

}  // namespace ritm::persist
