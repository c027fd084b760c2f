#ifndef BLSM_MULTILEVEL_VERSION_H_
#define BLSM_MULTILEVEL_VERSION_H_

#include <memory>
#include <string>
#include <vector>

#include "lsm/run_writer.h"

namespace blsm::multilevel {

constexpr int kNumLevels = 7;

// Where a multilevel tree keeps its runs (<dir>/<number>.run) and its
// manifest (<dir>/CURRENT).
std::string RunFileName(const std::string& dir, uint64_t number);
std::string ManifestFileName(const std::string& dir);

// Immutable snapshot of the file layout (copy-on-write, LevelDB style).
// Level 0 always holds whole memtable dumps — files may overlap and are
// ordered newest first. A deeper level is in one of two layouts, tracked by
// `overlapping[level]`:
//   false  sorted: non-overlapping files ordered by smallest key (leveling)
//   true   tiered: stacked runs ordered newest first, ranges may overlap
// The flags are part of the version (cloned with it) and round-trip through
// the manifest, so recovery restores tiered levels exactly.
struct Version {
  std::vector<RunPtr> levels[kNumLevels];
  bool overlapping[kNumLevels] = {true, false, false, false,
                                  false, false, false};

  uint64_t LevelBytes(int level) const;
  int NumFiles() const;

  // Files in `level` whose range intersects [begin, end] (user keys); valid
  // for both layouts (pure range test, no sortedness assumption).
  std::vector<RunPtr> Overlapping(int level, const Slice& begin,
                                  const Slice& end) const;

  // True if no file below `level` intersects [begin, end] — compactions into
  // such a range may drop tombstones.
  bool IsBottommost(int level, const Slice& begin, const Slice& end) const;

  // True if no file at or below `from_level` intersects [begin, end], not
  // counting files whose number appears in `exclude` (the compaction's own
  // inputs). This is the tombstone-drop test for tiered data movement,
  // where the output stacks on top of output-level runs that stay live.
  bool IsBottommostExcluding(int from_level, const Slice& begin,
                             const Slice& end,
                             const std::vector<uint64_t>& exclude) const;

  std::shared_ptr<Version> Clone() const;
};
using VersionPtr = std::shared_ptr<Version>;

// --- manifest encoding ----------------------------------------------------
// One self-checksummed blob (CURRENT), atomically replaced. Shared by the
// tree (save/recover) and blsm_inspect's read-only `levels` dump.
//
// Format: [magic][next_file][last_seq][layout u8][granularity u8]
//         [tier_runs varint][overlap bitmask varint][count]
//         ([level u8][number][smallest][largest][data_bytes])* [crc]

struct ManifestFileEntry {
  int level = 0;
  uint64_t number = 0;
  std::string smallest;
  std::string largest;
  uint64_t data_bytes = 0;
};

struct ManifestData {
  uint64_t next_file_number = 1;
  uint64_t last_sequence = 0;
  // The compaction config the tree was running (engine::CompactionLayout /
  // engine::CompactionGranularity values); a reopen under a different
  // layout is rejected, because a sorted-level reader cannot probe tiered
  // runs correctly.
  uint8_t layout = 0;
  uint8_t granularity = 0;
  int tier_runs = 0;
  uint32_t overlapping_mask = 0x1;  // bit per level; L0 is always set
  std::vector<ManifestFileEntry> files;  // in-level order preserved
};

std::string EncodeManifest(const ManifestData& data);
Status DecodeManifest(const std::string& blob, ManifestData* out);

}  // namespace blsm::multilevel

#endif  // BLSM_MULTILEVEL_VERSION_H_
