#include "memtable/memtable.h"

#include <cstring>

#include "util/coding.h"

namespace blsm {

namespace {

// Parses an encoded entry (varint ikey_len | ikey | varint val_len | val).
void ParseEntry(const char* entry, Slice* ikey, Slice* value) {
  uint32_t klen;
  const char* p = GetVarint32Ptr(entry, entry + 5, &klen);
  *ikey = Slice(p, klen);
  p += klen;
  uint32_t vlen;
  p = GetVarint32Ptr(p, p + 5, &vlen);
  *value = Slice(p, vlen);
}

}  // namespace

void MemTable::Add(SequenceNumber seq, RecordType type, const Slice& user_key,
                   const Slice& value) {
  const size_t ikey_size = user_key.size() + 8;
  const size_t encoded_len = VarintLength(ikey_size) + ikey_size +
                             VarintLength(value.size()) + value.size();
  char* buf = arena_.Allocate(encoded_len);
  char* p = EncodeVarint32(buf, static_cast<uint32_t>(ikey_size));
  memcpy(p, user_key.data(), user_key.size());
  p += user_key.size();
  EncodeFixed64(p, PackSeqAndType(seq, type));
  p += 8;
  p = EncodeVarint32(p, static_cast<uint32_t>(value.size()));
  if (!value.empty()) memcpy(p, value.data(), value.size());
  list_.Insert(buf);
  inserted_bytes_.fetch_add(encoded_len, std::memory_order_relaxed);
}

int MemTable::ForEachVersion(
    const Slice& user_key,
    const std::function<bool(RecordType, const Slice& value)>& fn,
    bool skip_consumed) const {
  SkipList::Iterator it(&list_);
  std::string lookup = InternalLookupKey(user_key);
  it.Seek(lookup);
  int visited = 0;
  while (it.Valid()) {
    Slice ikey, value;
    ParseEntry(it.entry(), &ikey, &value);
    ParsedInternalKey parsed;
    if (!ParseInternalKey(ikey, &parsed)) break;
    if (parsed.user_key != user_key) break;
    if (skip_consumed && it.IsConsumed()) {
      it.Next();
      continue;
    }
    visited++;
    bool proceed = fn(parsed.type, value);
    if (!proceed || parsed.type != RecordType::kDelta) break;
    it.Next();
  }
  return visited;
}

std::shared_ptr<MemTable> MemTable::CompactUnconsumed() const {
  auto fresh = std::make_shared<MemTable>();
  SkipList::Iterator it(&list_);
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    if (it.IsConsumed()) continue;
    Slice ikey, value;
    ParseEntry(it.entry(), &ikey, &value);
    ParsedInternalKey parsed;
    if (!ParseInternalKey(ikey, &parsed)) continue;
    fresh->Add(parsed.seq, parsed.type, parsed.user_key, value);
  }
  return fresh;
}

Slice MemTable::Iterator::internal_key() const {
  Slice ikey, value;
  ParseEntry(it_.entry(), &ikey, &value);
  return ikey;
}

Slice MemTable::Iterator::value() const {
  Slice ikey, value;
  ParseEntry(it_.entry(), &ikey, &value);
  return value;
}

size_t MemTable::Iterator::entry_bytes() const {
  Slice ikey, value;
  ParseEntry(it_.entry(), &ikey, &value);
  return VarintLength(ikey.size()) + ikey.size() + VarintLength(value.size()) +
         value.size();
}

}  // namespace blsm
