#ifndef BLSM_LSM_READ_PATH_H_
#define BLSM_LSM_READ_PATH_H_

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "lsm/merge_operator.h"
#include "memtable/memtable.h"
#include "sstree/tree_reader.h"
#include "util/slice.h"
#include "util/status.h"

namespace blsm {

// One on-disk run as a reader sees it. An unbounded run (a bLSM component)
// covers every key; a bounded one's range points into what `pin` keeps
// alive, together with the reader and its file.
struct ReadRun {
  const sstree::TreeReader* reader = nullptr;
  bool bounded = false;
  Slice smallest;
  Slice largest;
  bool use_bloom = false;  // consult the Bloom filter before descending
  std::shared_ptr<const void> pin;

  bool Covers(const Slice& key) const {
    return !bounded ||
           (smallest.compare(key) <= 0 && key.compare(largest) <= 0);
  }
};

// A sorted level holds disjoint runs ascending by key, so at most one run
// covers a key; an overlapping level lists its runs newest first and every
// covering run is probed.
struct ReadLevel {
  bool sorted = false;
  std::vector<ReadRun> runs;

  // The run of a sorted level that covers `key`, or nullptr.
  const ReadRun* Find(const Slice& key) const;
};

// Once a merge has installed a memtable's consumed entries in a run of the
// same view, the memtable's slot hides them until the memtable leaves the
// view: each record is readable from exactly one slot, so no delta is ever
// applied twice.
struct ReadMemtable {
  std::shared_ptr<MemTable> mem;
  bool hide_consumed = false;
};

// What a reader can see, newest first: memtables, then levels of runs.
// Each tree builds one at every structural change and publishes it.
struct ReadView {
  std::vector<ReadMemtable> memtables;
  std::vector<ReadLevel> levels;
};
using ReadViewPtr = std::shared_ptr<const ReadView>;

// Read-path counters, embedded in each tree's stats; only ReadPath writes
// them. run_probes counts runs whose range covers a looked-up key, before
// the Bloom check (per get, the structural read amplification).
struct ReadStats {
  std::atomic<uint64_t> gets{0};
  std::atomic<uint64_t> views_pinned{0};  // one per read call, not per run
  std::atomic<uint64_t> multiget_batches{0};
  std::atomic<uint64_t> run_probes{0};
  std::atomic<uint64_t> bloom_skips{0};
  std::atomic<uint64_t> blocks_coalesced{0};
};

// The one LSM read path: every lookup folds over a ReadView newest first,
// collecting deltas until the first base or tombstone settles the key
// (§3.1.1), then applies them with one FullMerge. Each tree owns one and
// forwards its reads here with a pinned view.
class ReadPath {
 public:
  // early_termination = false is the §3.1.1 ablation: every covering run
  // is read (no Bloom filters, no early stop) and the answer rebuilt from
  // the collected versions.
  ReadPath(std::shared_ptr<const MergeOperator> merge_op,
           bool early_termination, ReadStats* stats);

  // NotFound if absent or deleted.
  Status Get(const ReadView& view, const Slice& key, std::string* value) const;

  // §3.1.2 insert-if-not-exists probe: the newest version decides (a base
  // or delta means present, a tombstone absent), so the fold stops there.
  Status GetKeyExists(const ReadView& view, const Slice& key,
                      bool* exists) const;

  // statuses and values->at(i) answer keys[i]. The keys are sorted once;
  // each run is visited once for the keys it may hold, with their Bloom
  // probes together and block reads coalesced (TreeReader::MultiGet). Per
  // key, the probed runs are exactly those Get probes.
  std::vector<Status> MultiGet(const ReadView& view,
                               const std::vector<Slice>& keys,
                               std::vector<std::string>* values) const;

  // Up to `limit` user records from `start` (inclusive), merged across every
  // slot of `view`; `readahead_bytes` caps each run iterator's readahead
  // hints (0 = off).
  Status Scan(const ReadView& view, const Slice& start, size_t limit,
              std::vector<std::pair<std::string, std::string>>* out,
              uint64_t readahead_bytes) const;

 private:
  std::shared_ptr<const MergeOperator> merge_op_;
  bool early_termination_;
  ReadStats* stats_;
};

}  // namespace blsm

#endif  // BLSM_LSM_READ_PATH_H_
