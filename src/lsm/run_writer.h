#ifndef BLSM_LSM_RUN_WRITER_H_
#define BLSM_LSM_RUN_WRITER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "buffer/block_cache.h"
#include "io/env.h"
#include "lsm/merge_iterator.h"
#include "lsm/merge_operator.h"
#include "sstree/tree_reader.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace blsm {

// One immutable on-disk run of either LSM tree: a bLSM component (C1, C1',
// C2) or a multilevel file. Views, merges and the tree share it; once it is
// obsolete (the manifest that drops it is durable), the last reference to
// drop unlinks the file, so in-flight reads outlive the merge that
// replaced it.
struct Run {
  Env* env = nullptr;
  uint64_t number = 0;
  std::string fname;
  std::unique_ptr<sstree::TreeReader> reader;
  // User-key range, as the run writer saw it or a manifest recorded it.
  // Only multilevel levels use it; a bLSM component covers every key.
  std::string smallest;
  std::string largest;
  uint64_t data_bytes = 0;  // data blocks only (the footer's count)
  std::atomic<bool> obsolete{false};

  ~Run();

  // Opens file `fname` as run `number`. `verify` first reads and checksums
  // every block (BackgroundPolicy::paranoid_checks), so latent damage fails
  // the open with the file's name instead of surfacing mid-merge.
  static Status Open(Env* env, BlockCache* cache, uint64_t number,
                     std::string fname, bool verify,
                     std::shared_ptr<Run>* out);
};
using RunPtr = std::shared_ptr<Run>;

struct RunWriterOptions {
  Env* env = nullptr;
  BlockCache* cache = nullptr;  // serves reads of the finished runs
  // Claims a file number; called once per output file, in key order.
  std::function<uint64_t()> new_file_number;
  std::function<std::string(uint64_t number)> file_name;
  // Output format: data block size and the per-run Bloom filter.
  size_t block_size = 4096;
  bool build_bloom = true;
  double bloom_bits_per_key = 10;

  const MergeOperator* merge_op = nullptr;
  bool bottom = false;  // CollapseGroup's bottom-component semantics

  // A file is cut once its records (internal key + value bytes) reach the
  // cap; 0 writes one run however large. Only a capped output with
  // builder_threads > 1 builds in parallel: each full file's records are
  // buffered and handed to a builder thread while the loop fills the next.
  // Uncapped outputs always stream and never buffer records.
  size_t file_bytes_cap = 0;
  int builder_threads = 1;
  // Files streamed from the calling thread append through their own
  // write-behind worker (engine::TaskPipeline with one worker), so
  // collapsing and block sealing overlap file IO; otherwise, and always on
  // builder threads, blocks are appended inline. bLSM merges measured
  // better with it, multilevel compactions without it (EXPERIMENTS.md, IO
  // backend).
  bool write_behind = false;

  // Called after every `yield_every` collapsed groups (pacing, shutdown);
  // returning false abandons the write.
  size_t yield_every = 1;
  std::function<bool()> yield;

  // Receives the input bytes consumed so far after every collapsed group
  // (the merge schedulers' inprogress numerator).
  std::atomic<uint64_t>* consumed = nullptr;
};

struct RunWriteResult {
  std::vector<RunPtr> runs;      // key order; empty if nothing was emitted
  uint64_t bytes_consumed = 0;   // encoded input records collapsed
  uint64_t bytes_written = 0;    // file bytes of `runs`
  uint64_t parallel_builds = 0;  // runs built on builder threads
  bool abandoned = false;        // the yield hook returned false
};

// The one run writer of both LSM trees: drains `inputs` (newest first)
// through a MergingIterator and CollapseGroup into sorted runs. All writer
// threads are started from the calling thread or its builders, so every
// byte is charged to the caller's ScopedIoPriority class. On error or
// abandonment every file started is unlinked and result->runs is empty;
// bytes_consumed is reported either way.
Status WriteRuns(const RunWriterOptions& options,
                 std::vector<std::unique_ptr<InternalIterator>> inputs,
                 RunWriteResult* result);

// Crash leftovers of merges in flight: deletes every file in `dir` named
// <number><suffix> whose number is not in `live`, and returns how many it
// removed.
uint64_t RemoveOrphanRuns(Env* env, const std::string& dir,
                          const std::string& suffix,
                          const std::vector<uint64_t>& live);

// Manifest writes happen outside the tree mutex (an fsync under it would
// stall every writer): the tree snapshots its state under its mutex with a
// version number, and Save serializes the writes and skips a snapshot
// older than the one already on disk (two background passes may install
// in one order and reach the file in the other).
class ManifestWriter {
 public:
  // Atomically replaces `fname` with `body` (fname.tmp + sync + rename).
  Status Save(Env* env, const std::string& fname, const std::string& body,
              uint64_t version) EXCLUDES(mu_);

 private:
  uint64_t written_version_ GUARDED_BY(mu_) = 0;
  // analyze:allow(blocking-under-lock) mu_ serializes and deduplicates
  // manifest fsyncs outside the tree mutex; the write happening under it
  // is its whole purpose and never stalls foreground writers.
  util::Mutex mu_{util::lock_rank::kManifestWriterMu};
};

}  // namespace blsm

#endif  // BLSM_LSM_RUN_WRITER_H_
