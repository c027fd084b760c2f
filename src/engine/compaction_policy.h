#ifndef BLSM_ENGINE_COMPACTION_POLICY_H_
#define BLSM_ENGINE_COMPACTION_POLICY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "util/status.h"

namespace blsm::engine {

// The compaction design space, decomposed per "Constructing and Analyzing
// the LSM Compaction Design Space" (Sarkar et al., VLDB 2021) into four
// orthogonal axes:
//
//   trigger        when to compact (L0 run count, level size over target,
//                  tiered run-count fill)
//   data layout    how runs are organized per level: leveling (one sorted
//                  run per level), tiering (up to T overlapping runs per
//                  level), lazy-leveling (tiered upper levels, leveled last
//                  level)
//   granularity    how much data moves at once: one partition (file) picked
//                  round-robin, or the whole level
//   data movement  how the chosen data reaches the next level: merge with
//                  the overlapping runs there (leveling), or stack on top of
//                  them as a new run (tiering)
//
// Every decision is a pure function of a CompactionInputs snapshot —
// mirroring lsm::MergeScheduler, which makes the same choice for the bLSM
// tree's write pacing — so policies are directly unit-testable with no tree,
// no files, and no threads.

// One sorted run as the policy sees it: identity, size, and key range.
struct CompactionRun {
  uint64_t number = 0;  // file number; the tree maps it back to a Run
  uint64_t bytes = 0;
  std::string smallest;  // user keys
  std::string largest;
};

// One level of the snapshot. Overlapping levels (L0, tiered levels) order
// their runs newest first; sorted levels order them by smallest key.
struct CompactionLevel {
  std::vector<CompactionRun> runs;
  uint64_t target_bytes = 1;
  bool overlapping = false;

  uint64_t TotalBytes() const {
    uint64_t total = 0;
    for (const auto& r : runs) total += r.bytes;
    return total;
  }
};

// Everything a pick depends on, captured under the tree mutex and then
// evaluated without it.
struct CompactionInputs {
  std::vector<CompactionLevel> levels;
  // Round-robin partition cursors (LevelDB's partition-scheduler state),
  // one per level; a pick may advance the cursor for its input level.
  std::vector<std::string> cursors;
  int l0_trigger = 4;   // L0 run-count trigger (all layouts)
  int tier_runs = 4;    // runs per level before a tiered level spills

  int num_levels() const { return static_cast<int>(levels.size()); }
  // The deepest level holding any run, or 0 when the tree is empty.
  int LastLevelWithData() const;
};

// The data-layout axis.
enum class CompactionLayout : uint8_t {
  kLeveling = 0,
  kTiering = 1,
  kLazyLeveling = 2,
};

// The granularity axis (meaningful for leveled merges; tiered spills always
// move whole levels).
enum class CompactionGranularity : uint8_t {
  kPartitioned = 0,  // one file (plus next-level overlap) per compaction
  kWholeLevel = 1,   // every run of the input level per compaction
};

struct CompactionConfig {
  CompactionLayout layout = CompactionLayout::kLeveling;
  CompactionGranularity granularity = CompactionGranularity::kPartitioned;
  // Runs a tiered level accumulates before spilling to the next level.
  // 0 means "use the policy default" (kDefaultTierRuns).
  int tier_runs = 0;
};

inline constexpr int kDefaultTierRuns = 4;

// What to compact and how to install the result. `input_runs` name runs of
// `level`; the executor resolves numbers back to live file metadata.
struct CompactionPick {
  int level = -1;         // input level
  int output_level = -1;  // destination (== level for a last-level self-merge)
  std::vector<uint64_t> input_runs;
  // Leveling data movement: also consume the output-level runs overlapping
  // the input key range and produce a partitioned sorted replacement.
  bool pull_overlap = false;
  // Tiering data movement: emit one new run stacked newest-first on top of
  // the output level's existing runs, which are left untouched.
  bool output_overlapping = false;
  // Partitioned granularity: the new cursor value for `level`.
  bool advance_cursor = false;
  std::string next_cursor;
};

// A compaction policy: the trigger + layout + granularity axes as one pure
// decision procedure. Stateless — all state lives in CompactionInputs.
class CompactionPolicy {
 public:
  virtual ~CompactionPolicy() = default;

  virtual std::string Name() const = 0;
  virtual CompactionLayout Layout() const = 0;

  // The pick, or nullopt when nothing is over trigger. Pure: equal inputs
  // give equal picks.
  virtual std::optional<CompactionPick> Pick(
      const CompactionInputs& in) const = 0;
};

// Factory over the config space. tier_runs of 0 is replaced by
// kDefaultTierRuns.
std::unique_ptr<CompactionPolicy> MakeCompactionPolicy(
    const CompactionConfig& config);

// Option-string surface used by the kv registry ("multilevel:tiering") and
// engine options. Accepted specs: "" (default), "leveling",
// "leveling-whole", "tiering", "lazy-leveling"; an optional "@<N>" suffix
// sets tier_runs (e.g. "tiering@8"). InvalidArgument otherwise.
Status ParseCompactionConfig(const std::string& spec, CompactionConfig* out);

// Canonical spec string for a config (round-trips through Parse).
std::string CompactionConfigName(const CompactionConfig& config);

const char* CompactionLayoutName(CompactionLayout layout);

}  // namespace blsm::engine

#endif  // BLSM_ENGINE_COMPACTION_POLICY_H_
