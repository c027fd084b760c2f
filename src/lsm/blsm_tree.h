#ifndef BLSM_LSM_BLSM_TREE_H_
#define BLSM_LSM_BLSM_TREE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "buffer/block_cache.h"
#include "engine/background_runner.h"
#include "engine/io_rate_limiter.h"
#include "engine/stall_tracker.h"
#include "engine/write_batch.h"
#include "engine/write_frontend.h"
#include "io/env.h"
#include "lsm/manifest.h"
#include "lsm/merge_iterator.h"
#include "lsm/merge_operator.h"
#include "lsm/merge_scheduler.h"
#include "lsm/read_path.h"
#include "lsm/record.h"
#include "memtable/memtable.h"
#include "sstree/tree_reader.h"
#include "util/atomic_shared_ptr.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "wal/logical_log.h"

namespace blsm {

// Tuning and ablation knobs. Defaults match the paper's design: three-level
// tree, Bloom filters on both on-disk components, snowshoveling, spring-and-
// gear scheduling, async logical logging (§5.1).
struct BlsmOptions {
  Env* env = nullptr;  // nullptr -> Env::Default()

  // Geometry. R is derived per merge pass as sqrt(|data| / c0_target) and
  // clamped to at least min_r (§2.3.1's optimal exponential sizing with
  // N = 3 levels).
  size_t c0_target_bytes = 8 << 20;
  double min_r = 2.0;

  size_t block_size = 4096;  // Appendix A.2
  size_t block_cache_bytes = 32 << 20;

  // §3.1 Bloom filters. bloom_on_largest=false removes only C2's filter —
  // the ablation for §3.1.2's zero-seek "insert if not exists".
  bool use_bloom = true;
  double bloom_bits_per_key = 10.0;
  bool bloom_on_largest = true;

  // §3.1.1 early read termination (ablation: when false, point reads visit
  // every component and reconstruct by sequence number).
  bool early_read_termination = true;

  // §4.2 snowshoveling. When false, C0 is partitioned into C0/C0' as the
  // plain gear scheduler requires.
  bool snowshovel = true;

  SchedulerKind scheduler = SchedulerKind::kSpringGear;
  double low_watermark = 0.50;   // spring: fraction of c0_target
  double high_watermark = 0.95;

  DurabilityMode durability = DurabilityMode::kAsync;

  // Background fault handling + open-time verification, shared with the
  // other engines (see engine::BackgroundPolicy).
  engine::BackgroundPolicy background;

  // Open an existing database without mutating it: no directory or manifest
  // creation, no orphan scavenge, no log rewrite, no merge threads; writes
  // and Flush fail with NotSupported. For offline inspection tooling.
  bool read_only = false;

  // Interprets delta records; default AppendMergeOperator.
  std::shared_ptr<const MergeOperator> merge_operator;

  // Entries a merge processes between scheduler checks.
  size_t merge_batch_entries = 512;

  // External block cache to share across trees (else the tree makes its
  // own of block_cache_bytes).
  std::shared_ptr<BlockCache> shared_block_cache;

  // Global merge-I/O arbiter shared across trees: when set, every byte the
  // background merges write is charged to this token bucket under its job's
  // IoPriority class, so all trees on one disk draw from one budget.
  // Foreground I/O (WAL, user-facing manifest writes) is not metered.
  std::shared_ptr<engine::IoRateLimiter> io_rate_limiter;

  // Closes the loop over io_rate_limiter: the scheduler checkpoints feed the
  // C0 fill fraction into an AdaptiveRateController, scaling merge bandwidth
  // between adaptive_rate (or the limiter's defaults when zeroed) as C0
  // drains and refills. Requires io_rate_limiter; off by default.
  bool adaptive_merge_rate = false;
  engine::AdaptiveRateController::Options adaptive_rate;
};

// Counters exposed for tests and the benchmark harness.
struct BlsmStats {
  std::atomic<uint64_t> puts{0};
  std::atomic<uint64_t> deletes{0};
  std::atomic<uint64_t> deltas{0};
  std::atomic<uint64_t> insert_if_not_exists{0};
  // Stall accounting: completed stall events, their measured wall-clock
  // total, and the longest single stall (the paper's robustness metric).
  std::atomic<uint64_t> write_stalls{0};
  std::atomic<uint64_t> write_stall_micros{0};
  std::atomic<uint64_t> max_stall_micros{0};
  std::atomic<uint64_t> merge1_passes{0};
  std::atomic<uint64_t> merge2_passes{0};
  std::atomic<uint64_t> merge1_bytes_out{0};
  std::atomic<uint64_t> merge2_bytes_out{0};
  std::atomic<uint64_t> merge_retries{0};       // transient-failure re-runs
  std::atomic<uint64_t> orphans_scavenged{0};   // unreferenced files removed
  ReadStats read;  // gets, Bloom skips, view pins, run probes, coalescing
};

// bLSM: a three-level log structured merge tree with Bloom filters, early
// read termination, snowshoveling, and level merge scheduling (Figure 1).
//
// Concurrency model: any number of application threads may call the write
// and read operations; two background threads run the C0:C1 and C1':C2
// merges. A short mutex protects the component pointers for mutators, but
// the read path never touches it: every structural change (memtable swap,
// merge install) publishes an immutable ReadView through an atomic
// shared_ptr, and a reader pins the current view with one atomic load + one
// refcount bump. Old views retire when the last reader drops them, which is
// also what keeps replaced component files alive until in-flight reads
// finish.
class BlsmTree {
 public:
  static Status Open(const BlsmOptions& options, const std::string& dir,
                     std::unique_ptr<BlsmTree>* out);

  ~BlsmTree();
  BlsmTree(const BlsmTree&) = delete;
  BlsmTree& operator=(const BlsmTree&) = delete;

  // Blind write of a complete value: zero seeks (Table 1).
  Status Put(const Slice& key, const Slice& value);

  // Applies a batch of blind writes atomically for durability: one sequence
  // range, one WAL record group, one group-commit sync.
  Status Write(const kv::WriteBatch& batch);

  // Blind delete (tombstone).
  Status Delete(const Slice& key);

  // Blind delta write, interpreted by the MergeOperator: zero seeks.
  Status WriteDelta(const Slice& key, const Slice& delta);

  // §3.1.2: returns KeyExists without writing if the key is present. With
  // Bloom filters on every component (including C2) the not-exists path
  // costs zero seeks.
  Status InsertIfNotExists(const Slice& key, const Slice& value);

  // Point lookup; ~1 seek (§3.1.1). NotFound if absent or deleted.
  // Lock-free: pins the published ReadView, acquires no mutex. Reads go
  // through the shared ReadPath (lsm/read_path.h).
  Status Get(const Slice& key, std::string* value) EXCLUDES(mu_);

  // Batched point lookups against one pinned view of the tree:
  // values->at(i) and the returned status i correspond to keys[i]
  // (ReadPath::MultiGet). Lock-free like Get.
  std::vector<Status> MultiGet(const std::vector<Slice>& keys,
                               std::vector<std::string>* values)
      EXCLUDES(mu_);

  // Read-modify-write convenience: Get (NotFound -> absent=true), then Put
  // what the callback returns. One seek total (Table 1): the write is blind.
  Status ReadModifyWrite(
      const Slice& key,
      const std::function<std::string(const std::string& old, bool absent)>&
          update);

  // Range scan from `start` (inclusive): up to `limit` user records, newest
  // versions, deltas applied, tombstones elided. Touches every component
  // (§3.3): 2-3 seeks regardless of scan length. `readahead_bytes` caps the
  // per-component readahead-hint window; 0 (default) leaves hints off, the
  // right call on buffered storage (see kv::ReadOptions::readahead_bytes).
  Status Scan(const Slice& start, size_t limit,
              std::vector<std::pair<std::string, std::string>>* out,
              uint64_t readahead_bytes = 0);

  // Pushes C0 into C1 and waits (one synchronous merge pass).
  Status Flush();

  // Pushes everything into C2 (flush, force-promote, merge) and waits.
  Status CompactToBottom();

  // Blocks until both merge threads are idle and no trigger is pending.
  void WaitForMergeIdle() EXCLUDES(mu_);

  // Progress/estimator snapshot (also how tests validate the schedulers).
  SchedulerState ComputeSchedulerState() const EXCLUDES(mu_);

  const BlsmStats& stats() const { return stats_; }

  // WAL group-commit counters (wal.* in kv::Engine::Stats()).
  LogicalLog::Counters WalCounters() const {
    return frontend_->WalCounters();
  }
  // Block-cache hit/miss counters.
  uint64_t CacheHits() const { return cache_ != nullptr ? cache_->hits() : 0; }
  uint64_t CacheMisses() const {
    return cache_ != nullptr ? cache_->misses() : 0;
  }

  // Terminal-Env IO counters (io.* in kv::Engine::Stats()); nullptr when
  // the Env stack has no counting terminal.
  const EnvIoCounters* IoCounters() const { return env_->io_counters(); }

  // Current on-disk footprint (bytes of data blocks across components).
  uint64_t OnDiskBytes() const EXCLUDES(mu_);
  uint64_t C0LiveBytes() const;

  // Distribution of measured per-stall durations (microseconds).
  Histogram StallHistogram() const { return stall_tracker_.HistogramSnapshot(); }

  Status BackgroundError() const;

 private:
  // An immutable on-disk component; unlinks its file when the last reference
  // drops after obsolescence (readers may outlive the merge that replaced
  // it).
  struct Component {
    Env* env = nullptr;
    std::string fname;
    uint64_t file_number = 0;
    std::unique_ptr<sstree::TreeReader> reader;
    std::atomic<bool> obsolete{false};

    ~Component() {
      if (obsolete.load()) {
        // The manifest that dropped this file is already durable; a failed
        // unlink only leaks disk until the next orphan scavenge at Open.
        env->RemoveFile(fname).IgnoreError(
            "orphan scavenge reclaims the file on next open");
      }
    }
  };
  using ComponentPtr = std::shared_ptr<Component>;

  struct MergeProgress {
    std::atomic<bool> active{false};
    std::atomic<uint64_t> bytes_read{0};
    std::atomic<uint64_t> input_total{1};

    double inprogress() const {
      uint64_t total = input_total.load(std::memory_order_relaxed);
      if (total == 0) return 1.0;
      double p = static_cast<double>(bytes_read.load(std::memory_order_relaxed)) /
                 static_cast<double>(total);
      return p > 1.0 ? 1.0 : p;
    }
  };

  BlsmTree(const BlsmOptions& options, std::string dir);

  Status OpenImpl() EXCLUDES(mu_);
  Status OpenComponent(uint64_t file_number, ComponentPtr* out,
                       bool with_bloom_expected) const;

  // The read side of the RCU pair: PinView is the entire hot-path cost
  // (one atomic load + one refcount bump, no mutex); PublishView rebuilds
  // the view from current state and must run at every structural
  // transition (it is called from the merge install blocks and from the
  // front-end's on_memtable_change hook). The view is two memtables plus
  // one single-run level per on-disk component (C1, C1', C2).
  ReadViewPtr PinView() EXCLUDES(mu_) { return view_.load(); }
  void PublishView() REQUIRES(mu_);

  Status WriteImpl(const Slice& key, RecordType type, const Slice& value);
  void ApplyBackpressure();

  double CurrentR() const REQUIRES(mu_);
  void MaybeScheduleMerge1();

  // Background passes, run by the engine::BackgroundRunner jobs "merge1"
  // and "merge2" (which own the threads, transient-retry, and the error
  // latch).
  bool Merge1Pending() EXCLUDES(mu_);
  bool Merge2Pending() EXCLUDES(mu_);
  Status RunMerge1Pass() EXCLUDES(mu_);
  Status RunMerge2Pass() EXCLUDES(mu_);
  // Waits while the scheduler pauses the given merge; returns false on
  // shutdown.
  bool MergePauseWait(int which);

  // Manifest writes happen OUTSIDE mu_ (an fsync under mu_ would stall every
  // writer): the tree state is snapshotted under mu_ with a version number,
  // and writes are serialized/deduplicated under manifest_io_mu_.
  Manifest BuildManifestLocked(uint64_t* version) REQUIRES(mu_);
  Status SaveManifest(const Manifest& manifest, uint64_t version)
      EXCLUDES(manifest_io_mu_);

  BlsmOptions options_;
  std::string dir_;
  // Wraps the user Env with the shared IoRateLimiter when one is
  // configured. Declared before every component/view member so it outlives
  // the Component destructors that unlink files through env_.
  std::unique_ptr<Env> rate_limited_env_;
  // Feedback loop over the shared limiter (adaptive_merge_rate); fed at the
  // scheduler checkpoints, which already compute the C0 fill it needs.
  std::unique_ptr<engine::AdaptiveRateController> rate_controller_;
  Env* env_ = nullptr;
  std::shared_ptr<BlockCache> cache_;
  std::unique_ptr<MergeScheduler> scheduler_;
  std::shared_ptr<const MergeOperator> merge_op_;
  ReadPath read_path_;

  // The shared WAL+memtable write path (C0 and C0' live here) and the
  // background-job runner (merge threads, retry, error latch).
  std::unique_ptr<engine::WriteFrontend> frontend_;
  std::unique_ptr<engine::BackgroundRunner> runner_;

  mutable util::Mutex mu_{util::lock_rank::kBlsmTreeMu};
  ComponentPtr c1_ GUARDED_BY(mu_);
  ComponentPtr c1_prime_ GUARDED_BY(mu_);
  ComponentPtr c2_ GUARDED_BY(mu_);
  // The memtable whose consumed entries the last C0:C1 install put in C1,
  // until it leaves the memtable pair (the snowshovel C0 at its truncation,
  // C0' at its drop); views hide those entries so each record is readable
  // from one slot only.
  std::shared_ptr<MemTable> merged_mem_ GUARDED_BY(mu_);
  // RCU publication point for the read path. Stores happen only inside
  // PublishView (under mu_); loads are lock-free by design.
  util::AtomicSharedPtr<const ReadView> view_;
  uint64_t next_file_number_ GUARDED_BY(mu_) = 1;
  // Flush() handshake: a flush bumps the request generation; a merge-1 pass
  // that *started* at generation g advances the done generation to g when it
  // completes successfully, so a waiter knows its data was covered.
  uint64_t merge1_request_gen_ GUARDED_BY(mu_) = 0;
  uint64_t merge1_done_gen_ GUARDED_BY(mu_) = 0;
  // Overrides merge pacing: set while a foreground compaction or idle-wait
  // must drain the tree at full speed.
  std::atomic<bool> force_promote_{false};
  std::atomic<int> pacing_override_{0};

  std::atomic<uint64_t> c1_data_bytes_{0};  // cached for the scheduler

  MergeProgress progress1_;
  MergeProgress progress2_;

  uint64_t manifest_build_version_ GUARDED_BY(mu_) = 0;
  // analyze:allow(blocking-under-lock) manifest_io_mu_ serializes and
  // deduplicates manifest fsyncs outside mu_; the write happening under it
  // is its whole purpose and never stalls foreground writers.
  util::Mutex manifest_io_mu_{util::lock_rank::kBlsmTreeManifestIoMu};
  uint64_t manifest_written_version_ GUARDED_BY(manifest_io_mu_) = 0;

  // Stalled writers sleep here; PublishView signals it on every structural
  // change.
  engine::StallTracker stall_tracker_;

  BlsmStats stats_;
};

}  // namespace blsm

#endif  // BLSM_LSM_BLSM_TREE_H_
