#include "common.h"

#include <dirent.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "util/coding.h"
#include "util/crc32c.h"

namespace perfbench {

namespace {

uint64_t Mix(uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

constexpr char kHex[] = "0123456789abcdef";

}  // namespace

uint64_t KeyHash(uint64_t id, uint64_t seed) {
  return Mix(id ^ Mix(seed ^ 0x5eedull));
}

void EncodeKey(uint64_t h, char* out) {
  std::memcpy(out, "user", 4);
  for (int i = 0; i < 16; i++) {
    out[4 + i] = kHex[(h >> (60 - 4 * i)) & 0xf];
  }
}

std::string KeyString(uint64_t h) {
  std::string s(kKeyBytes, '\0');
  EncodeKey(h, s.data());
  return s;
}

bool DecodeKey(const blsm::Slice& key, uint64_t* h) {
  if (key.size() != kKeyBytes || std::memcmp(key.data(), "user", 4) != 0) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = 4; i < kKeyBytes; i++) {
    char c = key.data()[i];
    uint64_t d;
    if (c >= '0' && c <= '9') {
      d = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      d = static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
    v = (v << 4) | d;
  }
  *h = v;
  return true;
}

void EncodeValue(uint64_t h, uint64_t version, std::string* out) {
  out->resize(kValueBytes);
  char* p = out->data();
  blsm::EncodeFixed64(p, h);
  blsm::EncodeFixed64(p + 8, version);
  uint64_t state = h ^ (version * 0x9E3779B97F4A7C15ull);
  for (size_t off = 20; off < kValueBytes; off += 8) {
    uint64_t w = Mix(state++);
    std::memcpy(p + off, &w, std::min<size_t>(8, kValueBytes - off));
  }
  uint32_t crc = blsm::crc32c::Extend(0, p, 16);
  crc = blsm::crc32c::Extend(crc, p + 20, kValueBytes - 20);
  blsm::EncodeFixed32(p + 16, blsm::crc32c::Mask(crc));
}

bool CheckValue(uint64_t h, const blsm::Slice& value, uint64_t* version) {
  if (value.size() != kValueBytes) return false;
  const char* p = value.data();
  if (blsm::DecodeFixed64(p) != h) return false;
  uint32_t crc = blsm::crc32c::Extend(0, p, 16);
  crc = blsm::crc32c::Extend(crc, p + 20, kValueBytes - 20);
  if (blsm::crc32c::Unmask(blsm::DecodeFixed32(p + 16)) != crc) return false;
  *version = blsm::DecodeFixed64(p + 8);
  return true;
}

double Quantile(std::vector<double>* v, double q, bool sorted) {
  if (v->empty()) return 0;
  if (!sorted) std::sort(v->begin(), v->end());
  size_t n = v->size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  return (*v)[rank - 1];
}

double SupportedPercentile(size_t n) {
  static const double kLadder[] = {99.99, 99.9, 99.5, 99, 98, 95, 90, 75, 50};
  for (double p : kLadder) {
    double beyond = static_cast<double>(n) * (1 - p / 100.0);
    if (beyond >= 10) return p;
  }
  return 0;
}

uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t TaskCpuNs(int tid) {
  // schedstat's first field is on-CPU time in ns; stat's utime+stime (clock
  // ticks) is the coarse fallback on kernels without schedstats.
  std::string base = "/proc/self/task/" + std::to_string(tid);
  std::ifstream ss(base + "/schedstat");
  uint64_t ns = 0;
  if (ss >> ns) return ns;
  std::ifstream st(base + "/stat");
  std::string line;
  if (!std::getline(st, line)) return 0;
  size_t rp = line.rfind(')');
  if (rp == std::string::npos) return 0;
  // Fields after the comm: state is field 3; utime/stime are 14 and 15.
  const char* p = line.c_str() + rp + 2;
  uint64_t utime = 0, stime = 0;
  for (int field = 3; field <= 15 && *p != '\0'; field++) {
    char* end = nullptr;
    if (field == 14) utime = std::strtoull(p, &end, 10);
    if (field == 15) stime = std::strtoull(p, &end, 10);
    const char* sp = std::strchr(p, ' ');
    if (sp == nullptr) break;
    p = sp + 1;
  }
  long hz = sysconf(_SC_CLK_TCK);
  return (utime + stime) * (1000000000ull / static_cast<uint64_t>(hz));
}

std::vector<int> ListTasks() {
  std::vector<int> out;
  DIR* d = opendir("/proc/self/task");
  if (d == nullptr) return out;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] >= '0' && e->d_name[0] <= '9') {
      out.push_back(std::atoi(e->d_name));
    }
  }
  closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

int CurrentTid() { return static_cast<int>(syscall(SYS_gettid)); }

long TaskSyscall(int tid) {
  std::ifstream f("/proc/self/task/" + std::to_string(tid) + "/syscall");
  long nr = -1;
  if (f >> nr) return nr;
  return -1;
}

uint64_t PeakRssKb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_maxrss);
}

void ResetPeakRss() {
  // "5" resets VmHWM to the current RSS (Linux >= 4.0); harmless elsewhere.
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

}  // namespace perfbench
