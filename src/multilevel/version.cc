#include "multilevel/version.h"

#include <algorithm>

#include "util/coding.h"
#include "util/crc32c.h"

namespace blsm::multilevel {

uint64_t Version::LevelBytes(int level) const {
  uint64_t total = 0;
  for (const auto& f : levels[level]) total += f->data_bytes;
  return total;
}

int Version::NumFiles() const {
  int n = 0;
  for (const auto& level : levels) n += static_cast<int>(level.size());
  return n;
}

std::vector<FileMetaPtr> Version::Overlapping(int level, const Slice& begin,
                                              const Slice& end) const {
  std::vector<FileMetaPtr> result;
  for (const auto& f : levels[level]) {
    if (Slice(f->largest).compare(begin) < 0) continue;
    if (Slice(f->smallest).compare(end) > 0) continue;
    result.push_back(f);
  }
  return result;
}

bool Version::IsBottommost(int level, const Slice& begin,
                           const Slice& end) const {
  for (int l = level + 1; l < kNumLevels; l++) {
    if (!Overlapping(l, begin, end).empty()) return false;
  }
  return true;
}

bool Version::IsBottommostExcluding(
    int from_level, const Slice& begin, const Slice& end,
    const std::vector<uint64_t>& exclude) const {
  for (int l = from_level; l < kNumLevels; l++) {
    for (const auto& f : Overlapping(l, begin, end)) {
      if (std::find(exclude.begin(), exclude.end(), f->number) ==
          exclude.end()) {
        return false;
      }
    }
  }
  return true;
}

std::shared_ptr<Version> Version::Clone() const {
  auto v = std::make_shared<Version>();
  for (int l = 0; l < kNumLevels; l++) {
    v->levels[l] = levels[l];
    v->overlapping[l] = overlapping[l];
  }
  return v;
}

namespace {

// Bumped from 0x1e5e1dba when the compaction-policy fields and the per-level
// layout bitmask joined the format: a policy-era binary must refuse a
// pre-policy manifest outright rather than misparse it.
constexpr uint32_t kManifestMagic = 0x1e5e1dbbu;

}  // namespace

std::string EncodeManifest(const ManifestData& data) {
  std::string body;
  PutFixed32(&body, kManifestMagic);
  PutVarint64(&body, data.next_file_number);
  PutVarint64(&body, data.last_sequence);
  body.push_back(static_cast<char>(data.layout));
  body.push_back(static_cast<char>(data.granularity));
  PutVarint32(&body, static_cast<uint32_t>(data.tier_runs));
  PutVarint32(&body, data.overlapping_mask);
  PutVarint32(&body, static_cast<uint32_t>(data.files.size()));
  for (const auto& f : data.files) {
    body.push_back(static_cast<char>(f.level));
    PutVarint64(&body, f.number);
    PutLengthPrefixedSlice(&body, f.smallest);
    PutLengthPrefixedSlice(&body, f.largest);
    PutVarint64(&body, f.data_bytes);
  }
  PutFixed32(&body, crc32c::Mask(crc32c::Value(body.data(), body.size())));
  return body;
}

Status DecodeManifest(const std::string& blob, ManifestData* out) {
  if (blob.size() < 8) return Status::Corruption("manifest too short");
  Slice body(blob.data(), blob.size() - 4);
  uint32_t stored = crc32c::Unmask(DecodeFixed32(blob.data() + body.size()));
  if (stored != crc32c::Value(body.data(), body.size())) {
    return Status::Corruption("manifest checksum mismatch");
  }
  uint32_t magic, tier_runs, count;
  ManifestData data;
  if (!GetFixed32(&body, &magic) || magic != kManifestMagic ||
      !GetVarint64(&body, &data.next_file_number) ||
      !GetVarint64(&body, &data.last_sequence) || body.size() < 2) {
    return Status::Corruption("bad manifest header");
  }
  data.layout = static_cast<uint8_t>(body[0]);
  data.granularity = static_cast<uint8_t>(body[1]);
  body.remove_prefix(2);
  if (!GetVarint32(&body, &tier_runs) ||
      !GetVarint32(&body, &data.overlapping_mask) ||
      !GetVarint32(&body, &count)) {
    return Status::Corruption("bad manifest header");
  }
  data.tier_runs = static_cast<int>(tier_runs);
  data.files.reserve(count);
  for (uint32_t i = 0; i < count; i++) {
    if (body.empty()) return Status::Corruption("truncated manifest");
    ManifestFileEntry entry;
    entry.level = static_cast<uint8_t>(body[0]);
    body.remove_prefix(1);
    Slice smallest, largest;
    if (entry.level >= kNumLevels || !GetVarint64(&body, &entry.number) ||
        !GetLengthPrefixedSlice(&body, &smallest) ||
        !GetLengthPrefixedSlice(&body, &largest) ||
        !GetVarint64(&body, &entry.data_bytes)) {
      return Status::Corruption("truncated manifest entry");
    }
    entry.smallest = smallest.ToString();
    entry.largest = largest.ToString();
    data.files.push_back(std::move(entry));
  }
  *out = std::move(data);
  return Status::OK();
}

}  // namespace blsm::multilevel
