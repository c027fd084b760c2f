#include "multilevel/multilevel_tree.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "lsm/merge_iterator.h"

namespace blsm::multilevel {

namespace {

std::string TreeFileName(const std::string& dir, uint64_t number) {
  char buf[32];
  snprintf(buf, sizeof(buf), "/%06" PRIu64 ".run", number);
  return dir + buf;
}

std::string ManifestName(const std::string& dir) { return dir + "/CURRENT"; }
std::string LogName(const std::string& dir) { return dir + "/wal.log"; }

// Misconfigured trigger/geometry options fail Open outright instead of
// producing a tree that stalls forever or divides by zero in the score.
Status ValidateOptions(const MultilevelOptions& o) {
  if (o.l0_compaction_trigger < 1) {
    return Status::InvalidArgument("l0_compaction_trigger must be >= 1");
  }
  if (o.l0_compaction_trigger > o.l0_slowdown_trigger) {
    return Status::InvalidArgument(
        "l0_compaction_trigger must be <= l0_slowdown_trigger");
  }
  if (o.l0_slowdown_trigger > o.l0_stop_trigger) {
    return Status::InvalidArgument(
        "l0_slowdown_trigger must be <= l0_stop_trigger");
  }
  if (o.level_ratio < 2) {
    return Status::InvalidArgument("level_ratio must be >= 2");
  }
  if (o.file_bytes == 0) {
    return Status::InvalidArgument("file_bytes must be > 0");
  }
  if (o.base_level_bytes == 0) {
    return Status::InvalidArgument("base_level_bytes must be > 0");
  }
  return Status::OK();
}

}  // namespace

MultilevelTree::MultilevelTree(const MultilevelOptions& options,
                               std::string dir)
    : options_(options),
      dir_(std::move(dir)),
      merge_op_(options.merge_operator != nullptr
                    ? options.merge_operator
                    : std::make_shared<const AppendMergeOperator>()),
      read_path_(merge_op_, /*early_termination=*/true, &stats_.read) {
  env_ = options_.env != nullptr ? options_.env : Env::Default();
  if (options_.io_rate_limiter != nullptr) {
    // All tree I/O goes through the limiter-aware decorator; only writes on
    // IoPriority-tagged threads (the BackgroundRunner job) are metered.
    rate_limited_env_ = std::make_unique<engine::RateLimitedEnv>(
        env_, options_.io_rate_limiter);
    env_ = rate_limited_env_.get();
  }
  if (options_.shared_block_cache != nullptr) {
    cache_ = options_.shared_block_cache;
  } else if (options_.block_cache_bytes > 0) {
    cache_ = std::make_shared<BlockCache>(options_.block_cache_bytes);
  }
  version_ = std::make_shared<Version>();
}

Status MultilevelTree::Open(const MultilevelOptions& options,
                            const std::string& dir,
                            std::unique_ptr<MultilevelTree>* out) {
  auto tree =
      std::unique_ptr<MultilevelTree>(new MultilevelTree(options, dir));
  Status s = tree->OpenImpl();
  if (!s.ok()) return s;
  *out = std::move(tree);
  return Status::OK();
}

Status MultilevelTree::OpenImpl() {
  Status s = ValidateOptions(options_);
  if (!s.ok()) return s;
  if (!options_.read_only) {
    s = env_->CreateDir(dir_);
    if (!s.ok()) return s;
  }
  uint64_t manifest_last_seq = 0;

  std::string data;
  s = ReadFileToString(env_, ManifestName(dir_), &data);
  if (s.ok()) {
    ManifestData m;
    s = DecodeManifest(data, &m);
    if (!s.ok()) return s;
    if (m.layout > static_cast<uint8_t>(engine::CompactionLayout::kLazyLeveling)) {
      return Status::Corruption("manifest names an unknown compaction layout");
    }
    engine::CompactionConfig disk;
    disk.layout = static_cast<engine::CompactionLayout>(m.layout);
    disk.granularity = static_cast<engine::CompactionGranularity>(
        m.granularity != 0 ? 1 : 0);
    disk.tier_runs = m.tier_runs;
    if (options_.read_only) {
      // A read-only open must interpret the files under the layout that
      // wrote them; adopt the manifest's config wholesale.
      options_.compaction = disk;
    } else if (disk.layout != options_.compaction.layout) {
      return Status::InvalidArgument(
          std::string("compaction layout mismatch: manifest records '") +
          engine::CompactionLayoutName(disk.layout) + "' but options ask '" +
          engine::CompactionLayoutName(options_.compaction.layout) +
          "'; a sorted-level reader cannot probe tiered runs");
    }
    // No background thread exists yet; the lock keeps the guarded-field
    // discipline uniform (and is uncontended at open time).
    util::MutexLock l(&mu_);
    next_file_number_ = m.next_file_number;
    manifest_last_seq = m.last_sequence;
    for (int lvl = 0; lvl < kNumLevels; lvl++) {
      version_->overlapping[lvl] = (m.overlapping_mask >> lvl) & 1;
    }
    version_->overlapping[0] = true;
    for (const ManifestFileEntry& entry : m.files) {
      FileMetaPtr meta;
      s = NewFileMeta(entry.number, &meta);
      if (!s.ok()) return s;
      if (options_.background.paranoid_checks) {
        s = meta->reader->VerifyAllBlocks();
        if (!s.ok()) return s;
      }
      meta->smallest = entry.smallest;
      meta->largest = entry.largest;
      // In-level order is semantic (newest first on overlapping levels) and
      // the manifest preserves it.
      version_->levels[entry.level].push_back(std::move(meta));
    }
  } else if (!s.IsNotFound()) {
    return s;
  }
  policy_ = engine::MakeCompactionPolicy(options_.compaction);

  // Delete unreferenced runs (in-flight compactions at crash time).
  VersionPtr loaded = CurrentVersion();
  std::vector<std::string> children;
  if (!options_.read_only && env_->GetChildren(dir_, &children).ok()) {
    for (const std::string& name : children) {
      if (name.size() > 4 && name.substr(name.size() - 4) == ".run") {
        uint64_t num = strtoull(name.c_str(), nullptr, 10);
        bool referenced = false;
        for (int l = 0; l < kNumLevels; l++) {
          for (const auto& f : loaded->levels[l]) {
            if (f->number == num) referenced = true;
          }
        }
        if (!referenced && env_->RemoveFile(dir_ + "/" + name).ok()) {
          stats_.orphans_scavenged.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  }

  runner_ =
      std::make_unique<engine::BackgroundRunner>(env_, options_.background);

  engine::WriteFrontend::Options fopts;
  fopts.env = env_;
  fopts.durability = options_.durability;
  fopts.read_only = options_.read_only;
  fopts.before_write = [this]() -> Status {
    Status bg = runner_->BackgroundError();
    if (!bg.ok()) return bg;
    MaybeStallWrites();
    return runner_->BackgroundError();
  };
  fopts.after_write = [this] {
    // Memtable full: freeze it for flushing if the previous one is done.
    // Non-blocking — if another writer holds the swap lock (or has already
    // frozen), its freeze covers us.
    if (frontend_->ActiveLiveBytes() >= options_.memtable_bytes &&
        !frontend_->HasFrozen()) {
      if (frontend_->Freeze(/*block=*/false).ok()) runner_->Notify();
    }
  };
  // Memtable swaps (freeze, frozen drop) republish the read view; the hook
  // runs inside the front-end's writer exclusion, so a freshly-installed
  // active memtable is visible to readers before any write into it is
  // acknowledged.
  fopts.on_memtable_change = [this] {
    util::MutexLock l(&mu_);
    PublishView();
  };
  frontend_ =
      std::make_unique<engine::WriteFrontend>(fopts, LogName(dir_));
  s = frontend_->Recover(manifest_last_seq);
  if (!s.ok()) return s;

  {
    // First publication: no readers exist before Open returns.
    util::MutexLock l(&mu_);
    PublishView();
  }

  if (!options_.read_only) {
    engine::BackgroundRunner::JobSpec job;
    job.name = "compact";
    job.pending = [this] { return CompactionPending(); };
    job.run = [this] { return RunCompactionPass(); };
    job.retries = &stats_.compaction_retries;
    // Level compactions run at the lowest I/O class; FlushMemtable narrows
    // the tag to kFlush for the pass that directly unblocks writers.
    job.io_priority = engine::IoPriority::kCompaction;
    runner_->AddJob(std::move(job));
    runner_->Start();
  }
  return Status::OK();
}

Status MultilevelTree::NewFileMeta(uint64_t number, FileMetaPtr* out) {
  auto meta = std::make_shared<FileMeta>();
  meta->env = env_;
  meta->number = number;
  meta->fname = TreeFileName(dir_, number);
  Status s = sstree::TreeReader::Open(env_, cache_.get(), number, meta->fname,
                                      &meta->reader);
  if (!s.ok()) return s;
  meta->data_bytes = meta->reader->data_bytes();
  *out = std::move(meta);
  return Status::OK();
}

MultilevelTree::~MultilevelTree() {
  if (runner_ != nullptr) runner_->Stop();
  if (frontend_ != nullptr) {
    frontend_->Close().IgnoreError("destructor has no caller to report to");
  }
}

uint64_t MultilevelTree::LevelTargetBytes(int level) const {
  uint64_t target = options_.base_level_bytes;
  for (int l = 1; l < level; l++) {
    target *= static_cast<uint64_t>(options_.level_ratio);
  }
  return target;
}

VersionPtr MultilevelTree::CurrentVersion() const {
  util::MutexLock l(&mu_);
  return version_;
}

void MultilevelTree::PublishView() {
  // Called at every structural transition: flush/compaction installs do it
  // directly (with the output runs already in version_ but the consumed
  // memtable not yet dropped), memtable swaps reach it through the
  // front-end hook. Each record is readable from exactly one slot of every
  // view: a frozen memtable whose L0 run is installed (merged_mem_) hides
  // its entries until the drop, and compactions swap inputs for outputs in
  // one version, so a reader never misses a record or sees it twice.
  auto view = std::make_shared<ReadView>();
  engine::MemtablePairPtr pair = frontend_->Pair();
  for (const std::shared_ptr<MemTable>& mem : {pair->active, pair->frozen}) {
    if (mem != nullptr) view->memtables.push_back({mem, mem == merged_mem_});
  }
  for (int l = 0; l < kNumLevels; l++) {
    if (version_->levels[l].empty()) continue;
    ReadLevel level;
    level.sorted = !version_->overlapping[l];
    for (const FileMetaPtr& f : version_->levels[l]) {
      level.runs.push_back({f->reader.get(), /*bounded=*/true, f->smallest,
                            f->largest, options_.use_bloom, f});
    }
    view->levels.push_back(std::move(level));
  }
  view_.store(std::move(view));
  // Once the flushed memtable has been dropped, nothing is left to hide.
  if (merged_mem_ != pair->active && merged_mem_ != pair->frozen) {
    merged_mem_.reset();
  }
  // Every publication is a structural change that may have drained the L0
  // pile or freed the memtable: wake any writer stalled on it.
  stall_tracker_.NotifyChange();
}

Status MultilevelTree::BackgroundError() const {
  return runner_->BackgroundError();
}

int MultilevelTree::NumFilesAtLevel(int level) const {
  util::MutexLock l(&mu_);
  return static_cast<int>(version_->levels[level].size());
}

uint64_t MultilevelTree::BytesAtLevel(int level) const {
  util::MutexLock l(&mu_);
  return version_->LevelBytes(level);
}

uint64_t MultilevelTree::OnDiskBytes() const {
  util::MutexLock l(&mu_);
  uint64_t total = 0;
  for (int l = 0; l < kNumLevels; l++) total += version_->LevelBytes(l);
  return total;
}

uint64_t MultilevelTree::C0LiveBytes() const {
  std::shared_ptr<MemTable> active, frozen;
  frontend_->Memtables(&active, &frozen);
  uint64_t total = active->LiveBytes();
  if (frozen != nullptr) total += frozen->LiveBytes();
  return total;
}

// --- writes --------------------------------------------------------------

void MultilevelTree::MaybeStallWrites() {
  // Stalled writers wait on the stall CondVar, signaled by PublishView at
  // every flush/compaction install and memtable swap, so the stall ends
  // when the structure actually changes instead of at the next poll tick.
  // Both waits keep a timeout: an error latched while we sleep is noticed
  // within one interval — bounded stall escape, never a hang.
  constexpr uint64_t kStopWaitUs = 5000;
  constexpr uint64_t kSlowdownWaitUs = 1000;  // LevelDB's 1 ms write delay
  uint64_t start_us = 0;
  bool counted_stop = false;
  while (!runner_->shutting_down()) {
    // A latched background error means compaction will never drain the
    // backlog: escape the stall so the caller sees the error, not a hang.
    if (!runner_->BackgroundError().ok()) break;
    size_t l0_files;
    {
      util::MutexLock l(&mu_);
      l0_files = version_->levels[0].size();
    }
    bool mem_full_and_imm_busy =
        frontend_->ActiveLiveBytes() >= options_.memtable_bytes &&
        frontend_->HasFrozen();
    if (static_cast<int>(l0_files) >= options_.l0_stop_trigger ||
        mem_full_and_imm_busy) {
      // Hard stop: the L0 pile (or the frozen memtable) must drain first.
      // This is the unbounded write pause the paper measures in LevelDB.
      if (start_us == 0) start_us = env_->NowMicros();
      if (!counted_stop) {
        counted_stop = true;  // one stop event per stall, not per wait tick
        stats_.stopped_writes.fetch_add(1, std::memory_order_relaxed);
      }
      runner_->Notify();
      stall_tracker_.WaitForChange(kStopWaitUs);
      continue;
    }
    if (static_cast<int>(l0_files) >= options_.l0_slowdown_trigger) {
      // Slowdown: one bounded delay per write, cut short if compaction
      // publishes progress meanwhile.
      if (start_us == 0) start_us = env_->NowMicros();
      stats_.slowdown_writes.fetch_add(1, std::memory_order_relaxed);
      stall_tracker_.WaitForChange(kSlowdownWaitUs);
    }
    break;
  }
  if (start_us != 0) {
    // Measured wall-clock stall, not accumulated sleep quanta.
    uint64_t now = env_->NowMicros();
    uint64_t stalled = now > start_us ? now - start_us : 1;
    stats_.write_stalls.fetch_add(1, std::memory_order_relaxed);
    stats_.write_stall_micros.fetch_add(stalled, std::memory_order_relaxed);
    engine::AtomicFetchMax(stats_.max_stall_micros, stalled);
    stall_tracker_.RecordStall(stalled);
  }
}

Status MultilevelTree::WriteImpl(const Slice& key, RecordType type,
                                 const Slice& value) {
  // The front-end runs the backpressure / error checks (before_write) and the
  // full-memtable freeze (after_write) around the log+memtable critical
  // section.
  return frontend_->Write(key, type, value);
}

Status MultilevelTree::Put(const Slice& key, const Slice& value) {
  stats_.puts.fetch_add(1, std::memory_order_relaxed);
  return WriteImpl(key, RecordType::kBase, value);
}

Status MultilevelTree::Write(const kv::WriteBatch& batch) {
  for (const auto& e : batch.entries()) {
    if (e.type == RecordType::kBase) {
      stats_.puts.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return frontend_->Write(batch);
}

Status MultilevelTree::Delete(const Slice& key) {
  return WriteImpl(key, RecordType::kTombstone, Slice());
}

Status MultilevelTree::WriteDelta(const Slice& key, const Slice& delta) {
  return WriteImpl(key, RecordType::kDelta, delta);
}

Status MultilevelTree::InsertIfNotExists(const Slice& key,
                                         const Slice& value) {
  bool exists = false;
  Status s = read_path_.GetKeyExists(*PinView(), key, &exists);
  if (!s.ok()) return s;
  if (exists) return Status::KeyExists(key);
  return Put(key, value);
}

Status MultilevelTree::ReadModifyWrite(
    const Slice& key,
    const std::function<std::string(const std::string& old, bool absent)>&
        update) {
  std::string old;
  Status s = Get(key, &old);
  bool absent = s.IsNotFound();
  if (!s.ok() && !absent) return s;
  return Put(key, update(old, absent));
}

// --- reads ---------------------------------------------------------------

Status MultilevelTree::Get(const Slice& key, std::string* value) {
  return read_path_.Get(*PinView(), key, value);
}

std::vector<Status> MultilevelTree::MultiGet(
    const std::vector<Slice>& keys, std::vector<std::string>* values) {
  return read_path_.MultiGet(*PinView(), keys, values);
}

Status MultilevelTree::Scan(
    const Slice& start, size_t limit,
    std::vector<std::pair<std::string, std::string>>* out,
    uint64_t readahead_bytes) {
  return read_path_.Scan(*PinView(), start, limit, out, readahead_bytes);
}

}  // namespace blsm::multilevel
