#include "lsm/merge_iterator.h"

namespace blsm {

namespace {

class MemTableInternalIterator final : public InternalIterator {
 public:
  MemTableInternalIterator(std::shared_ptr<MemTable> mem, bool skip_consumed)
      : mem_(std::move(mem)), it_(mem_.get()), skip_consumed_(skip_consumed) {}

  bool Valid() const override { return it_.Valid(); }
  void SeekToFirst() override {
    it_.SeekToFirst();
    SkipConsumed();
  }
  void Seek(const Slice& ikey) override {
    it_.Seek(ikey);
    SkipConsumed();
  }
  void Next() override {
    it_.Next();
    SkipConsumed();
  }
  Slice key() const override { return it_.internal_key(); }
  Slice value() const override { return it_.value(); }

  void MarkConsumed() override {
    it_.MarkConsumed();
    mem_->NoteConsumed(it_.entry_bytes());
  }

 private:
  void SkipConsumed() {
    while (skip_consumed_ && it_.Valid() && it_.IsConsumed()) it_.Next();
  }

  std::shared_ptr<MemTable> mem_;
  MemTable::Iterator it_;
  bool skip_consumed_;
};

class TreeInternalIterator final : public InternalIterator {
 public:
  TreeInternalIterator(const sstree::TreeReader* tree, bool sequential,
                       uint64_t scan_readahead_bytes)
      : it_(tree->NewIterator(sequential, scan_readahead_bytes)) {}

  bool Valid() const override { return it_->Valid(); }
  void SeekToFirst() override { it_->SeekToFirst(); }
  void Seek(const Slice& ikey) override { it_->Seek(ikey); }
  void Next() override { it_->Next(); }
  Slice key() const override { return it_->key(); }
  Slice value() const override { return it_->value(); }
  Status status() const override { return it_->status(); }

 private:
  std::unique_ptr<sstree::TreeIterator> it_;
};

}  // namespace

std::unique_ptr<InternalIterator> NewMemTableIterator(
    std::shared_ptr<MemTable> mem, bool skip_consumed) {
  return std::make_unique<MemTableInternalIterator>(std::move(mem),
                                                    skip_consumed);
}

std::unique_ptr<InternalIterator> NewTreeComponentIterator(
    const sstree::TreeReader* tree, bool sequential,
    uint64_t scan_readahead_bytes) {
  return std::make_unique<TreeInternalIterator>(tree, sequential,
                                                scan_readahead_bytes);
}

void MergingIterator::SeekToFirst() {
  for (auto& child : children_) child->SeekToFirst();
  FindSmallest();
}

void MergingIterator::Seek(const Slice& ikey) {
  for (auto& child : children_) child->Seek(ikey);
  FindSmallest();
}

void MergingIterator::Next() {
  current_->Next();
  FindSmallest();
}

void MergingIterator::FindSmallest() {
  InternalIterator* smallest = nullptr;
  for (auto& child : children_) {
    if (!child->Valid()) continue;
    if (smallest == nullptr ||
        CompareInternalKey(child->key(), smallest->key()) < 0) {
      smallest = child.get();
    }
  }
  current_ = smallest;
}

Status MergingIterator::status() const {
  for (const auto& child : children_) {
    Status s = child->status();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

}  // namespace blsm
