#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared helpers of the repository benchmark: the one clock every layer is
// timed on, the key/value encoding the correctness checks read back, exact
// order statistics, and per-thread CPU readings.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "util/slice.h"

namespace perfbench {

// Monotonic nanoseconds. Client, engine and Env spans all use this clock, so
// intervals taken in different layers subtract exactly.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Op types as the load generator issues them.
enum Op : uint8_t { kGet = 0, kPut = 1, kScan = 2, kNumOps = 3 };
inline const char* OpName(int op) {
  static const char* kNames[] = {"get", "put", "scan"};
  return kNames[op];
}

// ---- keys and values -------------------------------------------------------

// Hashed keys: record id -> 64-bit hash -> "user" + 16 hex digits, so key
// order is uniform over the id space and both shards see the same load.
uint64_t KeyHash(uint64_t id, uint64_t seed);
constexpr size_t kKeyBytes = 20;
void EncodeKey(uint64_t h, char* out);  // writes kKeyBytes
std::string KeyString(uint64_t h);
// False if `key` is not a benchmark key.
bool DecodeKey(const blsm::Slice& key, uint64_t* h);

// Values are kValueBytes: key hash (8) | version (8) | masked crc32c of the
// rest (4) | filler derived from (hash, version). A read checks that the
// checksum holds, that the value belongs to the key it was read under, and
// that its version is one the model of acknowledged writes allows.
constexpr size_t kValueBytes = 1000;
void EncodeValue(uint64_t h, uint64_t version, std::string* out);
// False on a checksum or key mismatch; sets *version otherwise.
bool CheckValue(uint64_t h, const blsm::Slice& value, uint64_t* version);

// ---- statistics ------------------------------------------------------------

// Exact order statistic at quantile q of `v` (sorted in place): the value at
// rank ceil(q * n). Resolution is one sample, far finer than 1% for the
// sample counts the benchmark collects.
double Quantile(std::vector<double>* v, double q, bool sorted = false);

// The highest of a fixed list of percentiles that still has at least ten
// samples beyond it, or 0 when even p50 has fewer.
double SupportedPercentile(size_t n);

// ---- CPU -------------------------------------------------------------------

// CPU nanoseconds of the calling thread.
uint64_t ThreadCpuNs();
// CPU nanoseconds of the whole process (all threads, live or exited).
uint64_t ProcessCpuNs();
// CPU nanoseconds of thread `tid` of this process, from /proc; 0 if gone.
uint64_t TaskCpuNs(int tid);
// Thread ids of this process.
std::vector<int> ListTasks();
int CurrentTid();
// The current syscall number of thread `tid` (from /proc), or -1.
long TaskSyscall(int tid);

// Peak resident set (VmHWM) in KiB, and its reset.
uint64_t PeakRssKb();
void ResetPeakRss();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
