#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

// The load generator: one thread per connection, each running an open-loop
// schedule (requests sent at their due times, sleeping in ppoll between
// them, each timed from its due time) and, for write-ingest workloads, a
// closed loop that keeps a fixed window of PUTs in flight. Every response
// is checked against a model of acknowledged writes.

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "util/status.h"

namespace perfbench {

// The loaded records and the model of acknowledged writes. Each record id
// has one writer thread (id % threads), so its versions are totally
// ordered: a read sent after version a was acknowledged and answered
// before version s+1 was sent must return a version in [a, s].
class KeySpace {
 public:
  KeySpace(uint64_t records, uint64_t seed, int writer_threads);

  uint64_t records() const { return n_; }
  uint64_t seed() const { return seed_; }
  uint64_t hash(uint64_t id) const { return hash_[id]; }
  // Position of the first loaded key >= h in key order.
  size_t LowerBound(uint64_t h) const;
  uint64_t sorted_hash(size_t pos) const { return sorted_[pos].first; }
  uint64_t sorted_id(size_t pos) const { return sorted_[pos].second; }

  // Remaps `id` onto a record that thread `t` of `threads` writes.
  uint64_t OwnedBy(uint64_t id, int t) const;

  std::atomic<uint32_t>& sent(uint64_t id) { return sent_[id]; }
  std::atomic<uint32_t>& acked(uint64_t id) { return acked_[id]; }

 private:
  uint64_t n_;
  uint64_t seed_;
  int threads_;
  std::vector<uint64_t> hash_;
  std::vector<std::pair<uint64_t, uint64_t>> sorted_;  // (hash, id)
  std::unique_ptr<std::atomic<uint32_t>[]> sent_;
  std::unique_ptr<std::atomic<uint32_t>[]> acked_;
};

// Records per SCAN.
constexpr int kScanLen = 20;

// One planned open-loop request.
struct Planned {
  uint64_t due = 0;  // ns after the segment start
  uint64_t arg = 0;  // record id (GET/PUT) or scan start hash
  Op op = kGet;
};

// What a segment asks of one connection.
struct ThreadPlan {
  std::vector<Planned> schedule;  // sorted by due
  // Closed loop: PUTs of fresh keys kept `window` deep until the segment
  // ends. Fresh record ids are fresh_base + k * fresh_stride.
  int window = 0;
  uint64_t fresh_base = 0;
  uint64_t fresh_stride = 1;
  // If set, counts fresh keys acknowledged, across the segment's threads.
  std::atomic<uint64_t>* fresh_acked_total = nullptr;
  // Scans check exact contents when no keys are being added; with a closed
  // loop adding keys they check order, validity and loaded-key coverage.
  bool growing = false;
};

// One completed request. Times are NowNs(); latency is recv - due.
struct Sample {
  uint64_t due = 0;
  uint64_t send = 0;
  uint64_t recv = 0;
  uint64_t key = 0;  // key hash (scan: start hash)
  Op op = kGet;
  bool closed = false;  // closed-loop request (due == send)
};

struct ThreadResult {
  // A deque grows in small blocks, so resident memory follows the sample
  // count instead of jumping at each vector doubling (peak RSS is a metric).
  std::deque<Sample> samples;
  uint64_t attempted = 0;
  uint64_t wrong = 0;     // response failed the correctness check
  uint64_t errors = 0;    // kError / kBadRequest / undecodable
  uint64_t timeouts = 0;  // no response by the drain deadline
  uint64_t refused = 0;   // could not be sent (in-flight table full)
  uint64_t user_bytes = 0;  // key + value bytes of acknowledged PUTs
  uint64_t fresh_acked = 0;
  uint64_t outstanding_at_end = 0;  // due by the segment end, unanswered
  uint64_t cpu_ns = 0;
  std::vector<double> lateness_us;  // send - due of open-loop requests
  std::string fatal;                // connection-level failure
  uint64_t failed() const { return wrong + errors + timeouts + refused; }
};

// A connection to the server, owned by one thread at a time.
class Connection {
 public:
  static blsm::Status Open(uint16_t port, std::unique_ptr<Connection>* out);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  int fd() const { return fd_; }
  uint64_t NextId() { return next_id_++; }

 private:
  explicit Connection(int fd) : fd_(fd) {}
  int fd_;
  uint64_t next_id_ = 1;
};

// Runs one segment on `conn` from t0 (NowNs) for `seconds`, then waits for
// outstanding responses until `drain_ns` after the segment end.
ThreadResult RunSegment(Connection* conn, KeySpace* ks, const ThreadPlan& plan,
                        uint64_t t0, double seconds, uint64_t drain_ns);

// Loads records [begin, end) at version 1 through pipelined WRITE_BATCH
// requests; OK when every batch was acknowledged.
blsm::Status Load(Connection* conn, KeySpace* ks, uint64_t begin,
                  uint64_t end);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
