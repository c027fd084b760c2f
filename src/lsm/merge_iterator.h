#ifndef BLSM_LSM_MERGE_ITERATOR_H_
#define BLSM_LSM_MERGE_ITERATOR_H_

#include <memory>
#include <vector>

#include "lsm/record.h"
#include "memtable/memtable.h"
#include "sstree/tree_reader.h"
#include "util/slice.h"
#include "util/status.h"

namespace blsm {

// Uniform iterator over any tree component, in internal-key order.
class InternalIterator {
 public:
  virtual ~InternalIterator() = default;

  virtual bool Valid() const = 0;
  virtual void SeekToFirst() = 0;
  virtual void Seek(const Slice& internal_key) = 0;
  virtual void Next() = 0;
  virtual Slice key() const = 0;    // internal key
  virtual Slice value() const = 0;
  virtual Status status() const { return Status::OK(); }

  // Snowshovel hook (§4.2): the C0:C1 merge marks each memtable entry it
  // emits so the surviving entries can be identified afterwards. No-op for
  // on-disk components.
  virtual void MarkConsumed() {}
};

// Adapters. Each keeps its source alive via shared ownership where needed.
// `skip_consumed` passes over memtable entries a merge marked consumed.
std::unique_ptr<InternalIterator> NewMemTableIterator(
    std::shared_ptr<MemTable> mem, bool skip_consumed = false);
// `scan_readahead_bytes` caps the non-sequential iterator's hint window
// (0 = hints off, the scan default); sequential iterators ignore it.
std::unique_ptr<InternalIterator> NewTreeComponentIterator(
    const sstree::TreeReader* tree, bool sequential,
    uint64_t scan_readahead_bytes = 0);

// K-way merge of component iterators in internal-key order. Children must be
// ordered newest component first; internal keys are unique (sequence
// numbers), so ties cannot occur, but the ordering convention keeps
// collapsing logic deterministic anyway.
class MergingIterator final : public InternalIterator {
 public:
  explicit MergingIterator(
      std::vector<std::unique_ptr<InternalIterator>> children)
      : children_(std::move(children)) {}

  bool Valid() const override { return current_ != nullptr; }
  void SeekToFirst() override;
  void Seek(const Slice& internal_key) override;
  void Next() override;
  Slice key() const override { return current_->key(); }
  Slice value() const override { return current_->value(); }
  Status status() const override;
  void MarkConsumed() override { current_->MarkConsumed(); }

 private:
  void FindSmallest();

  std::vector<std::unique_ptr<InternalIterator>> children_;
  InternalIterator* current_ = nullptr;
};

}  // namespace blsm

#endif  // BLSM_LSM_MERGE_ITERATOR_H_
