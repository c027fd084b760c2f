#ifndef BLSM_MEMTABLE_MEMTABLE_H_
#define BLSM_MEMTABLE_MEMTABLE_H_

#include <atomic>
#include <functional>
#include <memory>

#include "lsm/record.h"
#include "memtable/skiplist.h"
#include "util/arena.h"

namespace blsm {

// C0: the in-memory tree component. A skiplist of encoded records in an
// arena. Writers are lock-free: Add allocates from the thread-safe arena and
// splices into the skiplist with CAS inserts, so any number of writer
// threads proceed without contending on a memtable mutex (they serialize
// only on the — group-committed — log upstream). Readers and iterators are
// lock-free too and may run concurrently with writers.
//
// The snowshovel merge (§4.2) consumes entries through an Iterator, marking
// each as consumed once it is durable downstream; CompactUnconsumed() then
// rebuilds the table with only the surviving entries (those inserted behind
// the merge cursor during the pass), reclaiming arena memory.
class MemTable {
 public:
  MemTable() : list_(&arena_) {}
  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  void Add(SequenceNumber seq, RecordType type, const Slice& user_key,
           const Slice& value);

  // Visits the stored versions of user_key newest-first. The callback
  // returns true to keep iterating older versions (it will stop receiving
  // calls after a base or tombstone anyway — nothing older can matter).
  // `skip_consumed` passes over entries a merge has marked consumed (once
  // that merge's output is readable, they live there). Returns the number
  // of versions visited.
  int ForEachVersion(
      const Slice& user_key,
      const std::function<bool(RecordType, const Slice& value)>& fn,
      bool skip_consumed = false) const;

  // Bytes of record payload currently live (inserted minus consumed).
  size_t LiveBytes() const {
    size_t in = inserted_bytes_.load(std::memory_order_relaxed);
    size_t out = consumed_bytes_.load(std::memory_order_relaxed);
    return in > out ? in - out : 0;
  }

  // Total arena footprint (monotonic until compaction).
  size_t ApproximateMemoryUsage() const { return arena_.MemoryUsage(); }

  size_t Count() const { return list_.ApproximateCount(); }
  bool Empty() const { return Count() == 0; }

  // Called by the merge when it marks entries consumed, so LiveBytes()
  // reflects reclaimable space.
  void NoteConsumed(size_t bytes) {
    consumed_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }

  // Builds a fresh MemTable containing only unconsumed entries. The caller
  // must ensure no concurrent writers (the LSM stalls writes briefly).
  std::shared_ptr<MemTable> CompactUnconsumed() const;

  class Iterator {
   public:
    explicit Iterator(const MemTable* mem) : it_(&mem->list_) {}

    bool Valid() const { return it_.Valid(); }
    void SeekToFirst() { it_.SeekToFirst(); }
    void Seek(const Slice& internal_key) { it_.Seek(internal_key); }
    void Next() { it_.Next(); }

    Slice internal_key() const;
    Slice value() const;
    // Approximate bytes this entry pins in the arena.
    size_t entry_bytes() const;

    void MarkConsumed() { it_.MarkConsumed(); }
    bool IsConsumed() const { return it_.IsConsumed(); }

   private:
    SkipList::Iterator it_;
  };

 private:
  friend class Iterator;

  Arena arena_;
  SkipList list_;
  std::atomic<size_t> inserted_bytes_{0};
  std::atomic<size_t> consumed_bytes_{0};
};

}  // namespace blsm

#endif  // BLSM_MEMTABLE_MEMTABLE_H_
