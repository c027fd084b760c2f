#include "lsm/blsm_tree.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdlib>

#include "lsm/collapse.h"
#include "sstree/tree_builder.h"

namespace blsm {

namespace {

constexpr uint64_t kMergePausePollUs = 1000;

}  // namespace

// --- construction / open ------------------------------------------------------

BlsmTree::BlsmTree(const BlsmOptions& options, std::string dir)
    : options_(options),
      dir_(std::move(dir)),
      merge_op_(options.merge_operator != nullptr
                    ? options.merge_operator
                    : std::make_shared<const AppendMergeOperator>()),
      read_path_(merge_op_, options.early_read_termination, &stats_.read) {
  env_ = options_.env != nullptr ? options_.env : Env::Default();
  if (options_.io_rate_limiter != nullptr) {
    // All tree I/O goes through the limiter-aware decorator; only writes on
    // IoPriority-tagged threads (the BackgroundRunner jobs) are metered.
    rate_limited_env_ = std::make_unique<engine::RateLimitedEnv>(
        env_, options_.io_rate_limiter);
    env_ = rate_limited_env_.get();
    if (options_.adaptive_merge_rate) {
      rate_controller_ = std::make_unique<engine::AdaptiveRateController>(
          options_.io_rate_limiter, options_.adaptive_rate);
    }
  }
  if (options_.shared_block_cache != nullptr) {
    cache_ = options_.shared_block_cache;
  } else if (options_.block_cache_bytes > 0) {
    cache_ = std::make_shared<BlockCache>(options_.block_cache_bytes);
  }  // else: no cache — every read hits the Env (cold-cache measurements)
  if (options_.scheduler == SchedulerKind::kSpringGear) {
    scheduler_ = std::make_unique<SpringGearScheduler>(
        options_.low_watermark, options_.high_watermark);
  } else {
    scheduler_ = MakeScheduler(options_.scheduler);
  }
}

Status BlsmTree::Open(const BlsmOptions& options, const std::string& dir,
                      std::unique_ptr<BlsmTree>* out) {
  auto tree = std::unique_ptr<BlsmTree>(new BlsmTree(options, dir));
  Status s = tree->OpenImpl();
  if (!s.ok()) return s;
  *out = std::move(tree);
  return Status::OK();
}

Status BlsmTree::OpenImpl() {
  Status s;
  if (!options_.read_only) {
    s = env_->CreateDir(dir_);
    if (!s.ok()) return s;
  }

  Manifest manifest;
  s = Manifest::Load(env_, dir_, &manifest);
  if (s.IsNotFound() && !options_.read_only) {
    manifest = Manifest{};
    s = manifest.Save(env_, dir_);
  }
  if (!s.ok()) return s;

  {
    // No background threads exist yet, but the guarded fields are touched
    // under mu_ anyway so the locking discipline holds everywhere.
    util::MutexLock l(&mu_);
    next_file_number_ = manifest.next_file_number;

    for (const auto& entry : manifest.components) {
      ComponentPtr comp;
      s = OpenComponent(entry.file_number, &comp, options_.use_bloom);
      if (!s.ok()) return s;
      if (options_.background.paranoid_checks) {
        uint64_t bad_offset = 0;
        s = comp->reader->VerifyAllBlocks(&bad_offset);
        if (!s.ok()) return s;
      }
      switch (entry.slot) {
        case Manifest::Slot::kC1:
          c1_ = comp;
          c1_data_bytes_.store(comp->reader->data_bytes());
          break;
        case Manifest::Slot::kC1Prime:
          c1_prime_ = comp;
          break;
        case Manifest::Slot::kC2:
          c2_ = comp;
          break;
      }
    }
  }

  // Garbage from merges in flight at crash time: any .tree file the manifest
  // does not reference.
  if (!options_.read_only) {
    std::vector<std::string> children;
    if (env_->GetChildren(dir_, &children).ok()) {
      for (const std::string& name : children) {
        if (name.size() > 5 && name.substr(name.size() - 5) == ".tree") {
          uint64_t num = strtoull(name.c_str(), nullptr, 10);
          bool referenced = false;
          for (const auto& entry : manifest.components) {
            if (entry.file_number == num) referenced = true;
          }
          if (!referenced && env_->RemoveFile(dir_ + "/" + name).ok()) {
            stats_.orphans_scavenged.fetch_add(1, std::memory_order_relaxed);
          }
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
    ApplyBackpressure();
    // Re-check after the stall: the error may have latched while we waited.
    return runner_->BackgroundError();
  };
  fopts.after_write = [this] { MaybeScheduleMerge1(); };
  // Every memtable swap republishes the read view. The hook runs inside the
  // front-end's writer exclusion, so the view containing a freshly-installed
  // active memtable is visible to readers before any write into it can be
  // acknowledged (read-your-writes).
  fopts.on_memtable_change = [this] {
    util::MutexLock l(&mu_);
    PublishView();
  };
  frontend_ = std::make_unique<engine::WriteFrontend>(
      fopts, Manifest::LogFileName(dir_));

  // Recover recent writes from the logical log; the front-end restarts the
  // log with the survivors so the new log is self-contained.
  s = frontend_->Recover(manifest.last_sequence);
  if (!s.ok()) return s;

  {
    // First publication: no readers exist before Open returns, so this is
    // the view every reader starts from.
    util::MutexLock l(&mu_);
    PublishView();
  }

  if (!options_.read_only) {
    runner_->AddJob({.name = "merge1",
                     .pending = [this] { return Merge1Pending(); },
                     .run = [this] { return RunMerge1Pass(); },
                     .passes = &stats_.merge1_passes,
                     .retries = &stats_.merge_retries,
                     .io_priority = engine::IoPriority::kMerge1});
    runner_->AddJob({.name = "merge2",
                     .pending = [this] { return Merge2Pending(); },
                     .run = [this] { return RunMerge2Pass(); },
                     .passes = &stats_.merge2_passes,
                     .retries = &stats_.merge_retries,
                     .io_priority = engine::IoPriority::kCompaction});
    runner_->Start();
  }
  return Status::OK();
}

Status BlsmTree::OpenComponent(uint64_t file_number, ComponentPtr* out,
                               bool with_bloom_expected) const {
  (void)with_bloom_expected;
  auto comp = std::make_shared<Component>();
  comp->env = env_;
  comp->file_number = file_number;
  comp->fname = Manifest::TreeFileName(dir_, file_number);
  Status s = sstree::TreeReader::Open(env_, cache_.get(), file_number,
                                      comp->fname, &comp->reader);
  if (!s.ok()) return s;
  *out = std::move(comp);
  return Status::OK();
}

BlsmTree::~BlsmTree() {
  if (runner_ != nullptr) runner_->Stop();
  if (frontend_ != nullptr) {
    frontend_->Close().IgnoreError("destructor has no caller to report to");
  }
}

// --- read views / state ------------------------------------------------------

void BlsmTree::PublishView() {
  // Rebuilds the view from current state. Publication points cover every
  // structural transition: merge installs call this directly (under mu_,
  // with the output component already in place but the consumed memtable
  // not yet dropped or truncated), and memtable swaps reach it through the
  // front-end's on_memtable_change hook (with the install already
  // published). Each record is readable from exactly one slot of every
  // view: from the install on, the merged memtable's slot hides the
  // entries the output component now holds (merged_mem_), so a delta is
  // never applied twice, and nothing leaves a memtable before its component
  // is visible, so no record is ever missed.
  auto view = std::make_shared<ReadView>();
  engine::MemtablePairPtr pair = frontend_->Pair();
  for (const std::shared_ptr<MemTable>& mem : {pair->active, pair->frozen}) {
    if (mem != nullptr) view->memtables.push_back({mem, mem == merged_mem_});
  }
  for (const ComponentPtr& comp : {c1_, c1_prime_, c2_}) {
    if (comp == nullptr) continue;
    ReadRun run;
    run.reader = comp->reader.get();
    // §3.1.2: bloom_on_largest=false drops only C2's filter.
    run.use_bloom = options_.use_bloom &&
                    (options_.bloom_on_largest || comp != c2_);
    run.pin = comp;
    view->levels.push_back({/*sorted=*/false, {std::move(run)}});
  }
  view_.store(std::move(view));
  // Once the merged memtable has left the pair (dropped or truncated),
  // nothing is left to hide.
  if (merged_mem_ != pair->active && merged_mem_ != pair->frozen) {
    merged_mem_.reset();
  }
  // Every publication is a structural change that may have freed C0 space
  // or merge headroom: wake any writer stalled on it.
  stall_tracker_.NotifyChange();
}

double BlsmTree::CurrentR() const {
  // Variable R (§2.3.1): with a three-level tree, R = sqrt(|data| / |C0|).
  uint64_t disk = 0;
  if (c1_ != nullptr) disk += c1_->reader->data_bytes();
  if (c1_prime_ != nullptr) disk += c1_prime_->reader->data_bytes();
  if (c2_ != nullptr) disk += c2_->reader->data_bytes();
  double r = std::sqrt(static_cast<double>(disk + options_.c0_target_bytes) /
                       static_cast<double>(options_.c0_target_bytes));
  return std::max(options_.min_r, r);
}

SchedulerState BlsmTree::ComputeSchedulerState() const {
  SchedulerState s;
  s.c0_live_bytes = frontend_->ActiveLiveBytes();
  util::MutexLock l(&mu_);
  s.c0_target_bytes = options_.c0_target_bytes;
  s.merge1_active = progress1_.active.load(std::memory_order_relaxed);
  s.merge1_inprogress = progress1_.inprogress();
  s.merge2_active = progress2_.active.load(std::memory_order_relaxed);
  s.merge2_inprogress = progress2_.inprogress();
  s.c1_prime_exists = c1_prime_ != nullptr;

  // outprogress_1 (§4.1): how close C1 is to triggering the next hand-off,
  // counting completed C0-sized fills plus the current merge's inprogress.
  double r = CurrentR();
  double ceil_r = std::ceil(r);
  double fills = std::floor(
      static_cast<double>(c1_data_bytes_.load(std::memory_order_relaxed)) /
      static_cast<double>(options_.c0_target_bytes));
  fills = std::min(fills, ceil_r - 1.0);
  s.merge1_outprogress =
      std::min(1.0, (s.merge1_inprogress + fills) / ceil_r);
  return s;
}

uint64_t BlsmTree::OnDiskBytes() const {
  util::MutexLock l(&mu_);
  uint64_t total = 0;
  if (c1_ != nullptr) total += c1_->reader->data_bytes();
  if (c1_prime_ != nullptr) total += c1_prime_->reader->data_bytes();
  if (c2_ != nullptr) total += c2_->reader->data_bytes();
  return total;
}

uint64_t BlsmTree::C0LiveBytes() const {
  std::shared_ptr<MemTable> active, frozen;
  frontend_->Memtables(&active, &frozen);
  uint64_t total = active->LiveBytes();
  if (frozen != nullptr) total += frozen->LiveBytes();
  return total;
}

Status BlsmTree::BackgroundError() const { return runner_->BackgroundError(); }

// --- writes ---------------------------------------------------------------

void BlsmTree::ApplyBackpressure() {
  // Hard-blocked writers wait on the stall CondVar, which every structural
  // change signals (PublishView -> NotifyChange): a snowshovel truncation or
  // merge install wakes them immediately instead of at the next poll tick.
  // The wait keeps a timeout so an error latched while we sleep is noticed
  // within one interval — bounded stall escape, never a hang.
  constexpr uint64_t kBlockedWaitUs = 2000;
  uint64_t start_us = 0;
  while (!runner_->shutting_down()) {
    // If merges have latched an error they will never drain C0; the write
    // must escape the stall and report the error instead of hanging.
    if (!runner_->BackgroundError().ok()) break;
    SchedulerState state = ComputeSchedulerState();
    if (rate_controller_ != nullptr) rate_controller_->Observe(state.c0_fill());
    if (!scheduler_->WriteBlocked(state)) {
      uint64_t delay = scheduler_->WriteDelayMicros(state);
      if (delay > 0) {
        // One-shot proportional delay (the spring, §4.3): a deliberate
        // pause no event ends early, not a poll.
        if (start_us == 0) start_us = env_->NowMicros();
        env_->SleepForMicroseconds(delay);  // lint:allow(write-path-sleep) the spring's one-shot proportional delay IS the backpressure mechanism
      }
      break;
    }
    if (start_us == 0) start_us = env_->NowMicros();
    MaybeScheduleMerge1();
    runner_->Notify();
    stall_tracker_.WaitForChange(kBlockedWaitUs);
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

Status BlsmTree::WriteImpl(const Slice& key, RecordType type,
                           const Slice& value) {
  // The front-end runs the backpressure/error hooks, assigns the sequence
  // number, appends to the log, and inserts into C0.
  return frontend_->Write(key, type, value);
}

void BlsmTree::MaybeScheduleMerge1() {
  uint64_t live = frontend_->ActiveLiveBytes();
  bool trigger;
  if (options_.snowshovel) {
    trigger = live >= static_cast<uint64_t>(
                          options_.low_watermark *
                          static_cast<double>(options_.c0_target_bytes));
  } else {
    trigger = frontend_->HasFrozen() || live >= options_.c0_target_bytes;
  }
  if (trigger) runner_->Notify();
}

Status BlsmTree::Put(const Slice& key, const Slice& value) {
  stats_.puts.fetch_add(1, std::memory_order_relaxed);
  return WriteImpl(key, RecordType::kBase, value);
}

Status BlsmTree::Write(const kv::WriteBatch& batch) {
  for (const auto& e : batch.entries()) {
    switch (e.type) {
      case RecordType::kBase:
        stats_.puts.fetch_add(1, std::memory_order_relaxed);
        break;
      case RecordType::kTombstone:
        stats_.deletes.fetch_add(1, std::memory_order_relaxed);
        break;
      case RecordType::kDelta:
        stats_.deltas.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  }
  return frontend_->Write(batch);
}

Status BlsmTree::Delete(const Slice& key) {
  stats_.deletes.fetch_add(1, std::memory_order_relaxed);
  return WriteImpl(key, RecordType::kTombstone, Slice());
}

Status BlsmTree::WriteDelta(const Slice& key, const Slice& delta) {
  stats_.deltas.fetch_add(1, std::memory_order_relaxed);
  return WriteImpl(key, RecordType::kDelta, delta);
}

Status BlsmTree::InsertIfNotExists(const Slice& key, const Slice& value) {
  stats_.insert_if_not_exists.fetch_add(1, std::memory_order_relaxed);
  bool exists = false;
  Status s = read_path_.GetKeyExists(*PinView(), key, &exists);
  if (!s.ok()) return s;
  if (exists) return Status::KeyExists(key);
  return WriteImpl(key, RecordType::kBase, value);
}

// --- reads ----------------------------------------------------------------

Status BlsmTree::Get(const Slice& key, std::string* value) {
  return read_path_.Get(*PinView(), key, value);
}

std::vector<Status> BlsmTree::MultiGet(const std::vector<Slice>& keys,
                                       std::vector<std::string>* values) {
  return read_path_.MultiGet(*PinView(), keys, values);
}

Status BlsmTree::ReadModifyWrite(
    const Slice& key,
    const std::function<std::string(const std::string& old, bool absent)>&
        update) {
  std::string old;
  Status s = Get(key, &old);
  bool absent = s.IsNotFound();
  if (!s.ok() && !absent) return s;
  return Put(key, update(old, absent));
}

Status BlsmTree::Scan(const Slice& start, size_t limit,
                      std::vector<std::pair<std::string, std::string>>* out,
                      uint64_t readahead_bytes) {
  return read_path_.Scan(*PinView(), start, limit, out, readahead_bytes);
}

// --- merges -----------------------------------------------------------------

bool BlsmTree::MergePauseWait(int which) {
  while (!runner_->shutting_down()) {
    if (force_promote_.load(std::memory_order_relaxed) ||
        pacing_override_.load(std::memory_order_relaxed) > 0) {
      return true;  // foreground compaction / drain override
    }
    SchedulerState state = ComputeSchedulerState();
    if (rate_controller_ != nullptr) rate_controller_->Observe(state.c0_fill());
    bool paused = (which == 1) ? scheduler_->PauseMerge1(state)
                               : scheduler_->PauseMerge2(state);
    if (!paused) return true;
    env_->SleepForMicroseconds(kMergePausePollUs);  // lint:allow(write-path-sleep) merge-thread pacing between batches, not a writer stall
  }
  return false;
}

bool BlsmTree::Merge1Pending() {
  bool requested;
  {
    util::MutexLock l(&mu_);
    requested = merge1_done_gen_ < merge1_request_gen_;
  }
  uint64_t live = frontend_->ActiveLiveBytes();
  if (options_.snowshovel) {
    return requested ||
           live >= static_cast<uint64_t>(
                       options_.low_watermark *
                       static_cast<double>(options_.c0_target_bytes));
  }
  return requested || frontend_->HasFrozen() ||
         live >= options_.c0_target_bytes;
}

bool BlsmTree::Merge2Pending() {
  util::MutexLock l(&mu_);
  return c1_prime_ != nullptr;
}

Status BlsmTree::RunMerge1Pass() {
  // Reading the request generation BEFORE snapshotting the inputs is what
  // makes the Flush() handshake sound: everything written before the request
  // was issued is in the inputs this pass merges.
  uint64_t pass_gen;
  ComponentPtr old_c1;
  {
    util::MutexLock l(&mu_);
    pass_gen = merge1_request_gen_;
    old_c1 = c1_;
  }

  // Non-snowshovel modes partition C0: freeze the current memtable as C0'
  // and open a fresh C0 for incoming writes (§4.2.1). A frozen memtable left
  // over from a retried pass is reused.
  if (!options_.snowshovel && !frontend_->HasFrozen()) {
    Status fs = frontend_->Freeze(/*block=*/true);
    if (!fs.ok()) return fs;
  }
  std::shared_ptr<MemTable> input_mem = options_.snowshovel
                                            ? frontend_->ActiveMemtable()
                                            : frontend_->FrozenMemtable();
  if (input_mem == nullptr) return Status::OK();

  uint64_t input_total = input_mem->LiveBytes() +
                         (old_c1 != nullptr ? old_c1->reader->data_bytes() : 0);
  if (input_total == 0) {
    // Nothing to do; clear C0' so the job does not spin, and count the empty
    // pass toward the flush handshake (a flush of an empty tree succeeds).
    if (!options_.snowshovel) frontend_->DropFrozen();
    util::MutexLock l(&mu_);
    merge1_done_gen_ = std::max(merge1_done_gen_, pass_gen);
    return Status::OK();
  }
  progress1_.bytes_read.store(0);
  progress1_.input_total.store(input_total);
  progress1_.active.store(true);

  uint64_t file_number;
  {
    util::MutexLock l(&mu_);
    file_number = next_file_number_++;
  }
  std::string fname = Manifest::TreeFileName(dir_, file_number);
  sstree::TreeBuilderOptions bopts;
  bopts.block_size = options_.block_size;
  bopts.bloom_bits_per_key = options_.bloom_bits_per_key;
  bopts.build_bloom = options_.use_bloom;
  // Write-behind: sealed blocks are appended on a single ordered worker so
  // the merge loop overlaps CPU (merge + compress/checksum) with file I/O.
  // One worker keeps the append order the file format requires.
  engine::TaskPipeline append_pipeline(/*max_concurrency=*/1);
  bopts.append_executor = &append_pipeline;
  sstree::TreeBuilder builder(env_, fname, bopts);
  Status s = builder.Open();
  if (!s.ok()) {
    progress1_.active.store(false);
    return s;
  }

  std::vector<std::unique_ptr<InternalIterator>> children;
  children.push_back(NewMemTableIterator(input_mem));
  if (old_c1 != nullptr) {
    children.push_back(
        NewTreeComponentIterator(old_c1->reader.get(), /*sequential=*/true));
  }
  MergingIterator merged(std::move(children));
  merged.SeekToFirst();

  uint64_t consumed = 0;
  size_t since_check = 0;
  std::string out_ikey;
  while (merged.Valid()) {
    GroupResult group;
    s = CollapseGroup(&merged, merge_op_.get(), /*bottom=*/false, &consumed,
                      &group);
    if (!s.ok()) break;
    progress1_.bytes_read.store(std::min(consumed, input_total));
    if (group.emit) {
      out_ikey.clear();
      AppendInternalKey(&out_ikey, group.user_key, group.seq, group.type);
      s = builder.Add(out_ikey, group.value);
      if (!s.ok()) break;
    }
    if (++since_check >= options_.merge_batch_entries) {
      since_check = 0;
      if (!MergePauseWait(1)) {  // shutdown
        builder.Abandon();
        env_->RemoveFile(fname).IgnoreError(
            "partial merge output; orphan scavenge reclaims it");
        progress1_.active.store(false);
        return Status::OK();
      }
    }
  }
  if (s.ok()) s = merged.status();
  if (!s.ok()) {
    builder.Abandon();
    env_->RemoveFile(fname).IgnoreError(
        "failed merge output; orphan scavenge reclaims it");
    progress1_.active.store(false);
    return s;
  }

  s = builder.Finish();
  if (!s.ok()) {
    env_->RemoveFile(fname).IgnoreError(
        "failed merge output; orphan scavenge reclaims it");
    progress1_.active.store(false);
    return s;
  }
  stats_.merge1_bytes_out.fetch_add(builder.file_size(),
                                    std::memory_order_relaxed);

  ComponentPtr fresh;
  s = OpenComponent(file_number, &fresh, options_.use_bloom);
  if (!s.ok()) {
    env_->RemoveFile(fname).IgnoreError(
        "failed merge output; orphan scavenge reclaims it");
    progress1_.active.store(false);
    return s;
  }

  // Install, then decide the hand-off (promotion of C1 to C1'). The
  // manifest write (an fsync) happens after mu_ is released; the replaced
  // component is unlinked only once the new manifest is durable.
  Manifest manifest;
  uint64_t manifest_version;
  {
    util::MutexLock l(&mu_);
    c1_ = fresh;
    c1_data_bytes_.store(fresh->reader->data_bytes());

    double r = CurrentR();
    bool promote =
        c1_prime_ == nullptr &&
        (force_promote_.load() ||
         c1_data_bytes_.load() >=
             static_cast<uint64_t>(
                 r * static_cast<double>(options_.c0_target_bytes)));
    if (promote) {
      c1_prime_ = c1_;
      c1_.reset();
      c1_data_bytes_.store(0);
      force_promote_.store(false);
    }
    // Readers see the output component before the consumed memtable leaves
    // the view below (never loss); from this view on, the memtable's slot
    // hides the entries the component holds (never a second copy).
    merged_mem_ = input_mem;
    PublishView();
    manifest = BuildManifestLocked(&manifest_version);
  }
  // The consumed C0' becomes droppable only after the view containing its
  // component was published above: the drop triggers another publication
  // (via on_memtable_change), so the place a reader finds a record goes
  // "component (memtable slot hiding it)" -> "component only".
  if (!options_.snowshovel) frontend_->DropFrozen();
  s = SaveManifest(manifest, manifest_version);
  if (!s.ok()) {
    progress1_.active.store(false);
    return s;
  }
  if (old_c1 != nullptr) old_c1->obsolete.store(true);
  runner_->Notify();  // wake merge2 if we promoted

  // Truncate the log to cover exactly the surviving memtable contents. The
  // snowshovel variant first replaces C0 by its unconsumed residue
  // (reclaiming arena memory); the front-end owns the writer-exclusion /
  // durability subtleties of the restart.
  s = frontend_->TruncateToActive(/*consume=*/options_.snowshovel);
  if (s.ok()) {
    util::MutexLock l(&mu_);
    merge1_done_gen_ = std::max(merge1_done_gen_, pass_gen);
  }
  progress1_.active.store(false);
  return s;
}

Status BlsmTree::RunMerge2Pass() {
  ComponentPtr input_c1p, old_c2;
  {
    util::MutexLock l(&mu_);
    input_c1p = c1_prime_;
    old_c2 = c2_;
  }
  if (input_c1p == nullptr) return Status::OK();

  uint64_t input_total = input_c1p->reader->data_bytes() +
                         (old_c2 != nullptr ? old_c2->reader->data_bytes() : 0);
  progress2_.bytes_read.store(0);
  progress2_.input_total.store(std::max<uint64_t>(input_total, 1));
  progress2_.active.store(true);

  uint64_t file_number;
  {
    util::MutexLock l(&mu_);
    file_number = next_file_number_++;
  }
  std::string fname = Manifest::TreeFileName(dir_, file_number);
  sstree::TreeBuilderOptions bopts;
  bopts.block_size = options_.block_size;
  bopts.bloom_bits_per_key = options_.bloom_bits_per_key;
  // §3.1.2: the largest component's filter is what makes "insert if not
  // exists" seek-free; bloom_on_largest=false is the ablation.
  bopts.build_bloom = options_.use_bloom && options_.bloom_on_largest;
  // Same write-behind arrangement as the C0→C1 merge above.
  engine::TaskPipeline append_pipeline(/*max_concurrency=*/1);
  bopts.append_executor = &append_pipeline;
  sstree::TreeBuilder builder(env_, fname, bopts);
  Status s = builder.Open();
  if (!s.ok()) {
    progress2_.active.store(false);
    return s;
  }

  std::vector<std::unique_ptr<InternalIterator>> children;
  children.push_back(
      NewTreeComponentIterator(input_c1p->reader.get(), /*sequential=*/true));
  if (old_c2 != nullptr) {
    children.push_back(
        NewTreeComponentIterator(old_c2->reader.get(), /*sequential=*/true));
  }
  MergingIterator merged(std::move(children));
  merged.SeekToFirst();

  uint64_t consumed = 0;
  size_t since_check = 0;
  std::string out_ikey;
  while (merged.Valid()) {
    GroupResult group;
    s = CollapseGroup(&merged, merge_op_.get(), /*bottom=*/true, &consumed,
                      &group);
    if (!s.ok()) break;
    progress2_.bytes_read.store(
        std::min(consumed, progress2_.input_total.load()));
    if (group.emit) {
      out_ikey.clear();
      AppendInternalKey(&out_ikey, group.user_key, group.seq, group.type);
      s = builder.Add(out_ikey, group.value);
      if (!s.ok()) break;
    }
    if (++since_check >= options_.merge_batch_entries) {
      since_check = 0;
      if (!MergePauseWait(2)) {
        builder.Abandon();
        env_->RemoveFile(fname).IgnoreError(
            "partial merge output; orphan scavenge reclaims it");
        progress2_.active.store(false);
        return Status::OK();
      }
    }
  }
  if (s.ok()) s = merged.status();
  if (!s.ok()) {
    builder.Abandon();
    env_->RemoveFile(fname).IgnoreError(
        "failed merge output; orphan scavenge reclaims it");
    progress2_.active.store(false);
    return s;
  }

  s = builder.Finish();
  if (!s.ok()) {
    env_->RemoveFile(fname).IgnoreError(
        "failed merge output; orphan scavenge reclaims it");
    progress2_.active.store(false);
    return s;
  }
  stats_.merge2_bytes_out.fetch_add(builder.file_size(),
                                    std::memory_order_relaxed);

  ComponentPtr fresh;
  s = OpenComponent(file_number, &fresh, options_.use_bloom);
  if (!s.ok()) {
    env_->RemoveFile(fname).IgnoreError(
        "failed merge output; orphan scavenge reclaims it");
    progress2_.active.store(false);
    return s;
  }

  Manifest manifest;
  uint64_t manifest_version;
  {
    util::MutexLock l(&mu_);
    c2_ = fresh;
    c1_prime_.reset();
    // C1' and the old C2 are fully contained in the new C2; views pinned
    // before this store keep the replaced files alive (and readable) until
    // their last reader drops them.
    PublishView();
    manifest = BuildManifestLocked(&manifest_version);
  }
  s = SaveManifest(manifest, manifest_version);
  if (!s.ok()) {
    progress2_.active.store(false);
    return s;
  }
  // Inputs become garbage only after the manifest that drops them is
  // durable (a crash in between must still find them referenced).
  if (old_c2 != nullptr) old_c2->obsolete.store(true);
  input_c1p->obsolete.store(true);
  progress2_.active.store(false);
  runner_->Notify();
  return Status::OK();
}

Manifest BlsmTree::BuildManifestLocked(uint64_t* version) {
  Manifest manifest;
  manifest.next_file_number = next_file_number_;
  manifest.last_sequence = frontend_->LastSequence();
  if (c1_ != nullptr) {
    manifest.components.push_back(
        {Manifest::Slot::kC1, c1_->file_number});
  }
  if (c1_prime_ != nullptr) {
    manifest.components.push_back(
        {Manifest::Slot::kC1Prime, c1_prime_->file_number});
  }
  if (c2_ != nullptr) {
    manifest.components.push_back(
        {Manifest::Slot::kC2, c2_->file_number});
  }
  *version = ++manifest_build_version_;
  return manifest;
}

Status BlsmTree::SaveManifest(const Manifest& manifest, uint64_t version) {
  util::MutexLock l(&manifest_io_mu_);
  if (version <= manifest_written_version_) {
    // A newer snapshot has already been written (the other merge thread
    // installed after us but reached the file first).
    return Status::OK();
  }
  Status s = manifest.Save(env_, dir_);
  if (s.ok()) manifest_written_version_ = version;
  return s;
}

// --- maintenance entry points -------------------------------------------------

Status BlsmTree::Flush() {
  if (options_.read_only) return Status::NotSupported("engine is read-only");
  pacing_override_.fetch_add(1);
  Status s = runner_->BackgroundError();
  if (!s.ok()) {
    pacing_override_.fetch_sub(1);
    return s;
  }
  // Handshake with the merge-1 job: a pass already in flight snapshotted its
  // inputs (and its generation) before this request; only a pass that starts
  // at our generation or later is guaranteed to cover everything.
  uint64_t my_gen;
  {
    util::MutexLock l(&mu_);
    my_gen = ++merge1_request_gen_;
  }
  runner_->Notify();
  s = runner_->WaitUntil([this, my_gen] {
    util::MutexLock l(&mu_);
    return merge1_done_gen_ >= my_gen;
  });
  pacing_override_.fetch_sub(1);
  return s;
}

Status BlsmTree::CompactToBottom() {
  Status s = Flush();
  if (!s.ok()) return s;
  force_promote_.store(true);
  // A second pass performs the promotion (it may have no data to merge).
  s = Flush();
  if (!s.ok()) {
    force_promote_.store(false);
    return s;
  }
  // Wait for merge2 to drain C1'.
  pacing_override_.fetch_add(1);
  s = runner_->WaitUntil([this] {
    util::MutexLock l(&mu_);
    return c1_prime_ == nullptr && !runner_->Running("merge2");
  });
  force_promote_.store(false);
  pacing_override_.fetch_sub(1);
  return s;
}

void BlsmTree::WaitForMergeIdle() {
  if (options_.read_only) return;
  // Drain at full speed: pacing is meant to shape concurrent workloads, not
  // to make an idle wait last forever.
  pacing_override_.fetch_add(1);
  runner_->WaitUntil([this] {
        if (runner_->AnyRunning() || Merge1Pending()) return false;
        util::MutexLock l(&mu_);
        return c1_prime_ == nullptr;
      })
      .IgnoreError(
          "idle-wait cut short by shutdown or a latched error; callers "
          "observe the latter via BackgroundError()");
}

}  // namespace blsm
