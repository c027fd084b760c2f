#include "server/wire_protocol.h"

#include "util/coding.h"

namespace blsm::server {

namespace {

// Reserves the length prefix, returns its offset for patching.
size_t BeginFrame(std::string* out, OpCode op, uint64_t id) {
  size_t at = out->size();
  PutFixed32(out, 0);  // patched by EndFrame
  out->push_back(static_cast<char>(op));
  PutFixed64(out, id);
  return at;
}

void EndFrame(std::string* out, size_t at) {
  uint32_t payload = static_cast<uint32_t>(out->size() - at - 4);
  EncodeFixed32(out->data() + at, payload);
}

void PutSized(std::string* out, const Slice& s) {
  PutFixed32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

bool GetSized(Slice* in, Slice* out) {
  uint32_t len;
  if (!GetFixed32(in, &len)) return false;
  if (in->size() < len) return false;
  *out = Slice(in->data(), len);
  in->remove_prefix(len);
  return true;
}

}  // namespace

void EncodeGet(std::string* out, uint64_t id, const Slice& key) {
  size_t at = BeginFrame(out, OpCode::kGet, id);
  out->append(key.data(), key.size());
  EndFrame(out, at);
}

void EncodePut(std::string* out, uint64_t id, const Slice& key,
               const Slice& value) {
  size_t at = BeginFrame(out, OpCode::kPut, id);
  PutSized(out, key);
  out->append(value.data(), value.size());
  EndFrame(out, at);
}

void EncodeDelete(std::string* out, uint64_t id, const Slice& key) {
  size_t at = BeginFrame(out, OpCode::kDelete, id);
  out->append(key.data(), key.size());
  EndFrame(out, at);
}

void EncodeMultiGet(std::string* out, uint64_t id,
                    const std::vector<Slice>& keys) {
  size_t at = BeginFrame(out, OpCode::kMultiGet, id);
  PutFixed32(out, static_cast<uint32_t>(keys.size()));
  for (const Slice& k : keys) PutSized(out, k);
  EndFrame(out, at);
}

void EncodeWriteBatch(std::string* out, uint64_t id,
                      const std::vector<WireBatchEntry>& entries) {
  size_t at = BeginFrame(out, OpCode::kWriteBatch, id);
  PutFixed32(out, static_cast<uint32_t>(entries.size()));
  for (const WireBatchEntry& e : entries) {
    out->push_back(e.is_delete ? 1 : 0);
    PutSized(out, e.key);
    PutSized(out, e.value);
  }
  EndFrame(out, at);
}

void EncodeScan(std::string* out, uint64_t id, const Slice& start,
                uint32_t limit) {
  size_t at = BeginFrame(out, OpCode::kScan, id);
  PutFixed32(out, limit);
  out->append(start.data(), start.size());
  EndFrame(out, at);
}

void EncodeRmw(std::string* out, uint64_t id, const Slice& key,
               const Slice& value) {
  size_t at = BeginFrame(out, OpCode::kRmw, id);
  PutSized(out, key);
  out->append(value.data(), value.size());
  EndFrame(out, at);
}

void EncodeStats(std::string* out, uint64_t id) {
  size_t at = BeginFrame(out, OpCode::kStats, id);
  EndFrame(out, at);
}

namespace {

// Reads the u32 entry count that prefixes a counted body and rejects any
// count the remaining bytes cannot hold: every entry costs at least
// `min_entry_bytes`, so a forged count fails here instead of driving a
// reserve() far past the input's size.
bool GetCount(Slice* in, size_t min_entry_bytes, uint32_t* n) {
  return GetFixed32(in, n) && *n <= in->size() / min_entry_bytes;
}

}  // namespace

bool DecodeRequest(const Slice& payload, Request* request) {
  Slice in = payload;
  if (in.size() < kRequestHeaderBytes) return false;
  uint8_t op = static_cast<uint8_t>(in[0]);
  in.remove_prefix(1);
  uint64_t id;
  if (!GetFixed64(&in, &id)) return false;
  if (op < static_cast<uint8_t>(OpCode::kGet) ||
      op > static_cast<uint8_t>(OpCode::kStats)) {
    return false;
  }
  request->op = static_cast<OpCode>(op);
  request->id = id;
  request->keys.clear();
  request->entries.clear();
  request->scan_limit = 0;
  request->key = Slice();
  request->value = Slice();
  switch (request->op) {
    case OpCode::kGet:
    case OpCode::kDelete:
      if (in.empty()) return false;  // a zero-length key is not addressable
      request->key = in;
      return true;
    case OpCode::kPut:
    case OpCode::kRmw:
      if (!GetSized(&in, &request->key)) return false;
      if (request->key.empty()) return false;
      request->value = in;
      return true;
    case OpCode::kMultiGet: {
      uint32_t n;
      if (!GetCount(&in, 4, &n)) return false;  // a length prefix per key
      request->keys.reserve(n);
      for (uint32_t i = 0; i < n; i++) {
        Slice k;
        if (!GetSized(&in, &k) || k.empty()) return false;
        request->keys.push_back(k);
      }
      return in.empty();
    }
    case OpCode::kWriteBatch: {
      uint32_t n;
      if (!GetCount(&in, 9, &n)) return false;  // 1 type + 2 length prefixes
      request->entries.reserve(n);
      for (uint32_t i = 0; i < n; i++) {
        if (in.empty()) return false;
        WireBatchEntry e;
        uint8_t type = static_cast<uint8_t>(in[0]);
        if (type > 1) return false;
        e.is_delete = type == 1;
        in.remove_prefix(1);
        if (!GetSized(&in, &e.key) || e.key.empty()) return false;
        if (!GetSized(&in, &e.value)) return false;
        if (e.is_delete && !e.value.empty()) return false;
        request->entries.push_back(e);
      }
      return in.empty();
    }
    case OpCode::kScan:
      if (!GetFixed32(&in, &request->scan_limit)) return false;
      request->key = in;  // empty start scans from the beginning
      return true;
    case OpCode::kStats:
      return in.empty();
  }
  return false;
}

void EncodeResponse(std::string* out, WireStatus status, uint64_t id,
                    const Slice& body) {
  PutFixed32(out, static_cast<uint32_t>(1 + 8 + body.size()));
  out->push_back(static_cast<char>(status));
  PutFixed64(out, id);
  out->append(body.data(), body.size());
}

void BeginCountedBody(std::string* body, uint32_t n) { PutFixed32(body, n); }

void AppendMultiGetResult(std::string* body, bool found, const Slice& value) {
  body->push_back(found ? 1 : 0);
  PutSized(body, found ? value : Slice());
}

void AppendScanResult(std::string* body, const Slice& key,
                      const Slice& value) {
  PutSized(body, key);
  PutSized(body, value);
}

void AppendStatsResult(std::string* body, const Slice& key, uint64_t value) {
  PutSized(body, key);
  PutFixed64(body, value);
}

bool DecodeResponseHeader(const Slice& payload, WireStatus* status,
                          uint64_t* id, Slice* body) {
  Slice in = payload;
  if (in.size() < 9) return false;
  uint8_t st = static_cast<uint8_t>(in[0]);
  if (st > static_cast<uint8_t>(WireStatus::kBadRequest)) return false;
  in.remove_prefix(1);
  if (!GetFixed64(&in, id)) return false;
  *status = static_cast<WireStatus>(st);
  *body = in;
  return true;
}

bool DecodeMultiGetBody(const Slice& body,
                        std::vector<std::pair<bool, std::string>>* out) {
  Slice in = body;
  uint32_t n;
  if (!GetCount(&in, 5, &n)) return false;  // found flag + length prefix
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    if (in.empty()) return false;
    bool found = in[0] != 0;
    in.remove_prefix(1);
    Slice v;
    if (!GetSized(&in, &v)) return false;
    out->emplace_back(found, v.ToString());
  }
  return in.empty();
}

bool DecodeScanBody(
    const Slice& body,
    std::vector<std::pair<std::string, std::string>>* out) {
  Slice in = body;
  uint32_t n;
  if (!GetCount(&in, 8, &n)) return false;  // two length prefixes
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    Slice k, v;
    if (!GetSized(&in, &k) || !GetSized(&in, &v)) return false;
    out->emplace_back(k.ToString(), v.ToString());
  }
  return in.empty();
}

bool DecodeStatsBody(const Slice& body,
                     std::vector<std::pair<std::string, uint64_t>>* out) {
  Slice in = body;
  uint32_t n;
  if (!GetCount(&in, 12, &n)) return false;  // length prefix + u64 value
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    Slice k;
    uint64_t v;
    if (!GetSized(&in, &k) || !GetFixed64(&in, &v)) return false;
    out->emplace_back(k.ToString(), v);
  }
  return in.empty();
}

bool FrameReader::Next(Slice* payload, bool* bad_frame) {
  *bad_frame = false;
  // Compact once consumed bytes dominate, so a long-lived connection does
  // not grow its buffer without bound.
  if (consumed_ > 0 && consumed_ >= buf_.size() / 2) {
    buf_.erase(0, consumed_);
    consumed_ = 0;
  }
  if (buf_.size() - consumed_ < kFrameHeaderBytes) return false;
  uint32_t len = DecodeFixed32(buf_.data() + consumed_);
  if (len > kMaxFrameBytes) {
    *bad_frame = true;
    return false;
  }
  if (buf_.size() - consumed_ < kFrameHeaderBytes + len) return false;
  *payload = Slice(buf_.data() + consumed_ + kFrameHeaderBytes, len);
  frame_len_ = len;
  return true;
}

void FrameReader::Pop() {
  consumed_ += kFrameHeaderBytes + frame_len_;
  frame_len_ = 0;
}

const char* OpCodeName(OpCode op) {
  switch (op) {
    case OpCode::kGet: return "GET";
    case OpCode::kPut: return "PUT";
    case OpCode::kDelete: return "DELETE";
    case OpCode::kMultiGet: return "MULTIGET";
    case OpCode::kWriteBatch: return "WRITE_BATCH";
    case OpCode::kScan: return "SCAN";
    case OpCode::kRmw: return "RMW";
    case OpCode::kStats: return "STATS";
  }
  return "UNKNOWN";
}

}  // namespace blsm::server
