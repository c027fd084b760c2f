#include "lsm/read_path.h"

#include <algorithm>

#include "lsm/merge_iterator.h"

namespace blsm {

namespace {

// How far a lookup reads: to the first base or tombstone (§3.1.1), through
// every covering run (the exhaustive ablation), or only to the newest
// version (§3.1.2's existence probe).
enum class Stop { kSettled, kNever, kFirstVersion };

// One key's versions as the fold meets them, newest first: deltas collect
// until the first base or tombstone settles the key; older ones are
// shadowed.
struct Lookup {
  bool settled = false;
  bool have_base = false;
  bool failed = false;  // the caller already holds the read error
  std::string base;
  std::vector<std::string> deltas;  // newest first

  bool Done(Stop stop) const {
    return failed || (stop == Stop::kSettled && settled) ||
           (stop == Stop::kFirstVersion && (settled || !deltas.empty()));
  }

  // Takes the next-older version; false once the key is settled.
  bool Take(RecordType type, std::string value) {
    if (settled) return false;
    switch (type) {
      case RecordType::kBase:
        base = std::move(value);
        have_base = settled = true;
        break;
      case RecordType::kTombstone:
        settled = true;
        break;
      case RecordType::kDelta:
        deltas.push_back(std::move(value));
        break;
    }
    return !settled;
  }

  // The visible value: the base with the deltas applied oldest first.
  Status Finish(const MergeOperator& op, const Slice& key,
                std::string* value) {
    if (deltas.empty()) {
      if (!have_base) return Status::NotFound(key);
      *value = std::move(base);
      return Status::OK();
    }
    std::vector<Slice> oldest_first(deltas.rbegin(), deltas.rend());
    Slice base_slice(base);
    if (!op.FullMerge(key, have_base ? &base_slice : nullptr, oldest_first,
                      value)) {
      return Status::Corruption("merge operator rejected operands");
    }
    return Status::OK();
  }
};

void TakeFromMemtable(const ReadMemtable& slot, const Slice& key, Stop stop,
                      Lookup* lookup) {
  if (lookup->Done(stop)) return;
  slot.mem->ForEachVersion(
      key,
      [&](RecordType type, const Slice& v) {
        return lookup->Take(type, v.ToString()) && !lookup->Done(stop);
      },
      slot.hide_consumed);
}

// Counts a probe of `run` for `key`; false when its Bloom filter proves the
// key absent. The exhaustive ablation reads every run unfiltered.
bool Admit(const ReadRun& run, const Slice& key, Stop stop,
           ReadStats* stats) {
  stats->run_probes.fetch_add(1, std::memory_order_relaxed);
  if (stop == Stop::kNever || !run.use_bloom || run.reader->MayContain(key)) {
    return true;
  }
  stats->bloom_skips.fetch_add(1, std::memory_order_relaxed);
  return false;
}

Status GetFromRun(const ReadRun& run, const Slice& key, Stop stop,
                  ReadStats* stats, Lookup* lookup) {
  if (lookup->Done(stop) || !Admit(run, key, stop, stats)) {
    return Status::OK();
  }
  Status io;
  auto rec = run.reader->Get(key, /*use_bloom=*/false, &io);
  if (rec.has_value()) lookup->Take(rec->type, std::move(rec->value));
  return io;
}

// The per-key fold behind Get and GetKeyExists.
Status GetFold(const ReadView& view, const Slice& key, Stop stop,
               ReadStats* stats, Lookup* lookup) {
  stats->views_pinned.fetch_add(1, std::memory_order_relaxed);
  for (const ReadMemtable& slot : view.memtables) {
    TakeFromMemtable(slot, key, stop, lookup);
  }
  for (const ReadLevel& level : view.levels) {
    if (level.sorted) {
      const ReadRun* run = level.Find(key);
      Status s = run != nullptr ? GetFromRun(*run, key, stop, stats, lookup)
                                : Status::OK();
      if (!s.ok()) return s;
      continue;
    }
    for (const ReadRun& run : level.runs) {
      if (!run.Covers(key)) continue;
      Status s = GetFromRun(run, key, stop, stats, lookup);
      if (!s.ok()) return s;
    }
  }
  return Status::OK();
}

// Probes `run` for keys[batch[*]] (ascending) in one coalesced visit.
void MultiGetFromRun(const ReadRun& run, const std::vector<Slice>& keys,
                     const std::vector<size_t>& batch, Stop stop,
                     ReadStats* stats, std::vector<Lookup>* lookups,
                     std::vector<Status>* statuses) {
  std::vector<size_t> admitted;
  std::vector<Slice> probe_keys;
  for (size_t i : batch) {
    if (!Admit(run, keys[i], stop, stats)) continue;
    admitted.push_back(i);
    probe_keys.push_back(keys[i]);
  }
  if (admitted.empty()) return;
  std::vector<Status> io;
  uint64_t coalesced = 0;
  auto recs = run.reader->MultiGet(probe_keys, &io, &coalesced);
  stats->blocks_coalesced.fetch_add(coalesced, std::memory_order_relaxed);
  for (size_t j = 0; j < admitted.size(); j++) {
    Lookup& lk = (*lookups)[admitted[j]];
    if (!io[j].ok()) {
      (*statuses)[admitted[j]] = io[j];
      lk.failed = true;
    } else if (recs[j].has_value()) {
      lk.Take(recs[j]->type, std::move(recs[j]->value));
    }
  }
}

// Collapses each user key's versions from the merged slots into one
// record: deltas applied, tombstones elided.
class ScanIterator {
 public:
  ScanIterator(std::unique_ptr<InternalIterator> iter,
               const MergeOperator* merge_op)
      : iter_(std::move(iter)), merge_op_(merge_op) {}

  bool Valid() const { return valid_; }
  void Seek(const Slice& user_key) {
    iter_->Seek(InternalLookupKey(user_key));
    CollapseCurrent();
  }
  void Next() { CollapseCurrent(); }
  Slice key() const { return key_; }
  Slice value() const { return value_; }
  Status status() const { return status_; }

 private:
  // Collapses the versions at the iterator's position into one user record
  // and advances past them; deleted keys are skipped.
  void CollapseCurrent() {
    valid_ = false;
    while (iter_->Valid()) {
      // A child iterator that died on an I/O or checksum error reports
      // through status(); stopping silently would truncate the scan.
      ParsedInternalKey parsed;
      if (!iter_->status().ok() || !ParseInternalKey(iter_->key(), &parsed)) {
        status_ = !iter_->status().ok()
                      ? iter_->status()
                      : Status::Corruption("bad internal key in scan");
        return;
      }
      key_.assign(parsed.user_key.data(), parsed.user_key.size());
      Lookup lookup;
      do {
        if (!lookup.settled) {
          lookup.Take(parsed.type, iter_->value().ToString());
        }
        iter_->Next();
        if (iter_->Valid() && !ParseInternalKey(iter_->key(), &parsed)) {
          status_ = Status::Corruption("bad internal key in scan");
          return;
        }
      } while (iter_->Valid() && parsed.user_key == Slice(key_));
      status_ = lookup.Finish(*merge_op_, key_, &value_);
      if (status_.IsNotFound()) {
        status_ = Status::OK();
        continue;  // deleted key: on to the next one
      }
      valid_ = status_.ok();
      return;
    }
    // Exhausted: a child that died on a corrupt block must not make the
    // scan look merely shorter.
    status_ = iter_->status();
  }

  std::unique_ptr<InternalIterator> iter_;
  const MergeOperator* merge_op_;
  bool valid_ = false;
  std::string key_;
  std::string value_;
  Status status_;
};

}  // namespace

const ReadRun* ReadLevel::Find(const Slice& key) const {
  auto it = std::lower_bound(runs.begin(), runs.end(), key,
                             [](const ReadRun& run, const Slice& k) {
                               return run.largest.compare(k) < 0;
                             });
  return it != runs.end() && it->Covers(key) ? &*it : nullptr;
}

ReadPath::ReadPath(std::shared_ptr<const MergeOperator> merge_op,
                   bool early_termination, ReadStats* stats)
    : merge_op_(std::move(merge_op)),
      early_termination_(early_termination),
      stats_(stats) {}

Status ReadPath::Get(const ReadView& view, const Slice& key,
                     std::string* value) const {
  stats_->gets.fetch_add(1, std::memory_order_relaxed);
  Lookup lookup;
  Status s = GetFold(view, key,
                     early_termination_ ? Stop::kSettled : Stop::kNever,
                     stats_, &lookup);
  return s.ok() ? lookup.Finish(*merge_op_, key, value) : s;
}

Status ReadPath::GetKeyExists(const ReadView& view, const Slice& key,
                              bool* exists) const {
  Lookup lookup;
  Status s = GetFold(view, key, Stop::kFirstVersion, stats_, &lookup);
  // A delta defines a value even over a tombstone or nothing (§2.3).
  *exists = lookup.have_base || !lookup.deltas.empty();
  return s;
}

std::vector<Status> ReadPath::MultiGet(const ReadView& view,
                                       const std::vector<Slice>& keys,
                                       std::vector<std::string>* values) const {
  stats_->gets.fetch_add(keys.size(), std::memory_order_relaxed);
  stats_->multiget_batches.fetch_add(1, std::memory_order_relaxed);
  stats_->views_pinned.fetch_add(1, std::memory_order_relaxed);
  const Stop stop = early_termination_ ? Stop::kSettled : Stop::kNever;
  values->assign(keys.size(), std::string());
  std::vector<Status> statuses(keys.size());
  std::vector<Lookup> lookups(keys.size());
  for (const ReadMemtable& slot : view.memtables) {
    for (size_t i = 0; i < keys.size(); i++) {
      TakeFromMemtable(slot, keys[i], stop, &lookups[i]);
    }
  }

  std::vector<size_t> order(keys.size());
  for (size_t i = 0; i < order.size(); i++) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return keys[a].compare(keys[b]) < 0;
  });
  std::vector<size_t> batch;
  auto probe = [&](const ReadRun* run) {
    if (run != nullptr && !batch.empty()) {
      MultiGetFromRun(*run, keys, batch, stop, stats_, &lookups, &statuses);
    }
    batch.clear();
  };
  for (const ReadLevel& level : view.levels) {
    if (level.sorted) {
      // Ascending keys meet the level's runs in order: hand each run the
      // consecutive keys it covers.
      const ReadRun* current = nullptr;
      for (size_t i : order) {
        if (lookups[i].Done(stop)) continue;
        const ReadRun* run = level.Find(keys[i]);
        if (run != current) probe(current);
        current = run;
        batch.push_back(i);
      }
      probe(current);
      continue;
    }
    for (const ReadRun& run : level.runs) {
      for (size_t i : order) {
        if (!lookups[i].Done(stop) && run.Covers(keys[i])) batch.push_back(i);
      }
      probe(&run);
    }
  }

  for (size_t i = 0; i < keys.size(); i++) {
    if (lookups[i].failed) continue;
    statuses[i] = lookups[i].Finish(*merge_op_, keys[i], &(*values)[i]);
  }
  return statuses;
}

Status ReadPath::Scan(const ReadView& view, const Slice& start, size_t limit,
                      std::vector<std::pair<std::string, std::string>>* out,
                      uint64_t readahead_bytes) const {
  stats_->views_pinned.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::unique_ptr<InternalIterator>> children;
  for (const ReadMemtable& slot : view.memtables) {
    children.push_back(NewMemTableIterator(slot.mem, slot.hide_consumed));
  }
  for (const ReadLevel& level : view.levels) {
    for (const ReadRun& run : level.runs) {
      children.push_back(NewTreeComponentIterator(
          run.reader, /*sequential=*/false, readahead_bytes));
    }
  }
  ScanIterator it(std::make_unique<MergingIterator>(std::move(children)),
                  merge_op_.get());
  out->clear();
  for (it.Seek(start); it.Valid() && out->size() < limit; it.Next()) {
    out->emplace_back(it.key().ToString(), it.value().ToString());
  }
  return it.status();
}

}  // namespace blsm
