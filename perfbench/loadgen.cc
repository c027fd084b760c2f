#include "loadgen.h"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>

#include <algorithm>
#include <cerrno>

#include "io/socket.h"
#include "server/wire_protocol.h"
#include "util/coding.h"

namespace perfbench {

using blsm::Slice;
using blsm::Status;
namespace wire = blsm::server;

// ---- KeySpace ------------------------------------------------------------------

KeySpace::KeySpace(uint64_t records, uint64_t seed, int writer_threads)
    : n_(records),
      seed_(seed),
      threads_(writer_threads),
      hash_(records),
      sent_(new std::atomic<uint32_t>[records]),
      acked_(new std::atomic<uint32_t>[records]) {
  sorted_.reserve(records);
  for (uint64_t id = 0; id < records; id++) {
    hash_[id] = KeyHash(id, seed);
    sorted_.emplace_back(hash_[id], id);
    sent_[id].store(1, std::memory_order_relaxed);
    acked_[id].store(1, std::memory_order_relaxed);
  }
  std::sort(sorted_.begin(), sorted_.end());
}

size_t KeySpace::LowerBound(uint64_t h) const {
  auto it = std::lower_bound(
      sorted_.begin(), sorted_.end(), std::make_pair(h, uint64_t{0}));
  return static_cast<size_t>(it - sorted_.begin());
}

uint64_t KeySpace::OwnedBy(uint64_t id, int t) const {
  uint64_t tt = static_cast<uint64_t>(threads_);
  uint64_t out = id - id % tt + static_cast<uint64_t>(t);
  if (out >= n_) out -= tt;
  return out;
}

// ---- Connection ----------------------------------------------------------------

Status Connection::Open(uint16_t port, std::unique_ptr<Connection>* out) {
  int fd = -1;
  Status s = blsm::net::Connect("127.0.0.1", port, &fd);
  if (!s.ok()) return s;
  out->reset(new Connection(fd));
  return Status::OK();
}

Connection::~Connection() { blsm::net::CloseFd(fd_); }

namespace {

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t r = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(r);
  }
  return true;
}

// Blocks in ppoll until fd is readable or `until` (NowNs) passes.
void WaitReadable(int fd, uint64_t until) {
  uint64_t now = NowNs();
  if (until <= now) return;
  uint64_t wait = until - now;
  timespec ts{static_cast<time_t>(wait / 1000000000ull),
              static_cast<long>(wait % 1000000000ull)};
  pollfd p{fd, POLLIN, 0};
  ppoll(&p, 1, &ts, nullptr);
}

constexpr size_t kRing = 1 << 16;  // in-flight requests per connection

struct Pending {
  bool used = false;
  Op op = kGet;
  bool closed = false;
  uint64_t due = 0;
  uint64_t send = 0;
  uint64_t arg = 0;      // record id (GET/PUT) or scan start hash
  uint64_t key = 0;      // key hash
  uint32_t version = 0;  // PUT: version written; GET: lowest allowed
  size_t scan_pos = 0;   // first expected loaded key of a scan
  std::vector<uint32_t> scan_lo;  // lowest allowed versions of a scan
};

class Runner {
 public:
  Runner(Connection* conn, KeySpace* ks, const ThreadPlan& plan)
      : conn_(conn), ks_(ks), plan_(plan), ring_(kRing) {}

  ThreadResult Run(uint64_t t0, double seconds, uint64_t drain_ns) {
    // Wake at due times, not up to the default 50 us timer slack later.
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    uint64_t cpu0 = ThreadCpuNs();
    const uint64_t t_end = t0 + static_cast<uint64_t>(seconds * 1e9);
    const uint64_t deadline = t_end + drain_ns;
    res_.lateness_us.reserve(plan_.schedule.size());
    size_t next = 0;
    bool ended = false;
    WaitUntil(t0);
    while (res_.fatal.empty()) {
      uint64_t now = NowNs();
      if (!ended && now >= t_end) {
        ended = true;
        res_.outstanding_at_end = OutstandingOpenLoop(t_end);
      }
      std::string out;
      pending_sends_.clear();
      while (next < plan_.schedule.size() &&
             t0 + plan_.schedule[next].due <= now) {
        const Planned& p = plan_.schedule[next++];
        Encode(p.op, p.arg, t0 + p.due, /*closed=*/false, &out);
      }
      if (!ended) {
        while (closed_inflight_ < plan_.window) {
          uint64_t id = plan_.fresh_base + fresh_next_++ * plan_.fresh_stride;
          if (!Encode(kPut, id, 0, /*closed=*/true, &out)) break;
        }
      }
      if (!out.empty()) {
        uint64_t send = NowNs();
        for (Pending* p : pending_sends_) {
          p->send = send;
          if (p->closed) p->due = send;
          if (!p->closed) {
            res_.lateness_us.push_back(static_cast<double>(send - p->due) /
                                       1e3);
          }
        }
        if (!SendAll(conn_->fd(), out)) {
          res_.fatal = "send failed";
          break;
        }
      }
      if (ended && next >= plan_.schedule.size() && inflight_ == 0) break;
      if (now >= deadline) {
        res_.timeouts += inflight_;
        break;
      }
      uint64_t wake = deadline;
      if (next < plan_.schedule.size()) {
        wake = std::min(wake, t0 + plan_.schedule[next].due);
      }
      if (!ended) wake = std::min(wake, t_end);
      if (inflight_ > 0 || wake > now) WaitReadable(conn_->fd(), wake);
      Drain();
    }
    res_.cpu_ns = ThreadCpuNs() - cpu0;
    return std::move(res_);
  }

 private:
  static void WaitUntil(uint64_t t) {
    uint64_t now = NowNs();
    if (t <= now) return;
    uint64_t wait = t - now;
    timespec ts{static_cast<time_t>(wait / 1000000000ull),
                static_cast<long>(wait % 1000000000ull)};
    nanosleep(&ts, nullptr);
  }

  uint64_t OutstandingOpenLoop(uint64_t t_end) const {
    uint64_t n = 0;
    for (const Pending& p : ring_) {
      if (p.used && !p.closed && p.due <= t_end) n++;
    }
    return n;
  }

  // False when the in-flight table is full and the request was refused.
  bool Encode(Op op, uint64_t arg, uint64_t due, bool closed,
              std::string* out) {
    uint64_t rid = conn_->NextId();
    Pending& p = ring_[rid & (kRing - 1)];
    res_.attempted++;
    if (p.used) {
      res_.refused++;
      return false;
    }
    p.used = true;
    p.op = op;
    p.closed = closed;
    p.due = due;
    p.arg = arg;
    char key[kKeyBytes];
    switch (op) {
      case kGet: {
        p.key = ks_->hash(arg);
        p.version = ks_->acked(arg).load(std::memory_order_acquire);
        EncodeKey(p.key, key);
        wire::EncodeGet(out, rid, Slice(key, kKeyBytes));
        break;
      }
      case kPut: {
        if (closed) {
          p.key = KeyHash(arg, ks_->seed());
          p.version = 1;
        } else {
          p.key = ks_->hash(arg);
          p.version = ks_->sent(arg).load(std::memory_order_relaxed) + 1;
          ks_->sent(arg).store(p.version, std::memory_order_release);
        }
        EncodeKey(p.key, key);
        EncodeValue(p.key, p.version, &value_);
        wire::EncodePut(out, rid, Slice(key, kKeyBytes), value_);
        break;
      }
      case kScan: {
        p.key = arg;
        p.scan_pos = ks_->LowerBound(arg);
        p.scan_lo.clear();
        if (!plan_.growing) {
          size_t end = std::min<size_t>(
              p.scan_pos + static_cast<size_t>(kScanLen),
              ks_->records());
          for (size_t i = p.scan_pos; i < end; i++) {
            p.scan_lo.push_back(ks_->acked(ks_->sorted_id(i))
                                    .load(std::memory_order_acquire));
          }
        }
        EncodeKey(arg, key);
        wire::EncodeScan(out, rid, Slice(key, kKeyBytes),
                         static_cast<uint32_t>(kScanLen));
        break;
      }
      default:
        break;
    }
    pending_sends_.push_back(&p);
    inflight_++;
    if (closed) closed_inflight_++;
    return true;
  }

  void Drain() {
    char buf[256 * 1024];
    for (;;) {
      ssize_t r = ::recv(conn_->fd(), buf, sizeof(buf), MSG_DONTWAIT);
      if (r == 0) {
        res_.fatal = "server closed the connection";
        return;
      }
      if (r < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
          res_.fatal = "recv failed";
        }
        break;
      }
      reader_.Feed(buf, static_cast<size_t>(r));
      if (static_cast<size_t>(r) < sizeof(buf)) break;
    }
    uint64_t recv = NowNs();
    Slice payload;
    bool bad = false;
    while (reader_.Next(&payload, &bad)) {
      wire::WireStatus st;
      uint64_t rid = 0;
      Slice body;
      if (!wire::DecodeResponseHeader(payload, &st, &rid, &body)) {
        res_.fatal = "undecodable response";
        return;
      }
      Pending& p = ring_[rid & (kRing - 1)];
      if (!p.used) {
        res_.fatal = "response to no request";
        return;
      }
      Complete(&p, st, body, recv);
      p.used = false;
      inflight_--;
      if (p.closed) closed_inflight_--;
      reader_.Pop();
    }
    if (bad) res_.fatal = "bad response frame";
  }

  void Complete(Pending* p, wire::WireStatus st, const Slice& body,
                uint64_t recv) {
    if (st == wire::WireStatus::kError || st == wire::WireStatus::kBadRequest) {
      res_.errors++;
      return;
    }
    bool ok = false;
    switch (p->op) {
      case kGet:
        ok = st == wire::WireStatus::kOk && CheckGet(*p, body);
        break;
      case kPut:
        ok = st == wire::WireStatus::kOk;
        if (ok) {
          res_.user_bytes += kKeyBytes + kValueBytes;
          if (p->closed) {
            res_.fresh_acked++;
            if (plan_.fresh_acked_total != nullptr) {
              plan_.fresh_acked_total->fetch_add(1, std::memory_order_relaxed);
            }
          } else {
            std::atomic<uint32_t>& a = ks_->acked(p->arg);
            if (a.load(std::memory_order_relaxed) < p->version) {
              a.store(p->version, std::memory_order_release);
            }
          }
        }
        break;
      case kScan:
        ok = st == wire::WireStatus::kOk && CheckScan(*p, body);
        break;
      default:
        break;
    }
    if (!ok) {
      res_.wrong++;
      return;
    }
    Sample s;
    s.due = p->due;
    s.send = p->send;
    s.recv = recv;
    s.key = p->key;
    s.op = p->op;
    s.closed = p->closed;
    res_.samples.push_back(s);
  }

  bool CheckGet(const Pending& p, const Slice& value) const {
    uint64_t v = 0;
    if (!CheckValue(p.key, value, &v)) return false;
    uint32_t hi = ks_->sent(p.arg).load(std::memory_order_acquire);
    return v >= p.version && v <= hi;
  }

  bool CheckScan(const Pending& p, const Slice& body) const {
    std::vector<std::pair<std::string, std::string>> rows;
    if (!wire::DecodeScanBody(body, &rows)) return false;
    if (rows.size() > static_cast<size_t>(kScanLen)) return false;
    uint64_t prev = 0;
    for (size_t i = 0; i < rows.size(); i++) {
      uint64_t h = 0, v = 0;
      if (!DecodeKey(rows[i].first, &h) || !CheckValue(h, rows[i].second, &v)) {
        return false;
      }
      if (h < p.key || (i > 0 && h <= prev)) return false;
      prev = h;
      if (plan_.growing) {
        if (v != 1) return false;
        continue;
      }
      size_t pos = p.scan_pos + i;
      if (pos >= ks_->records() || ks_->sorted_hash(pos) != h) return false;
      uint32_t hi =
          ks_->sent(ks_->sorted_id(pos)).load(std::memory_order_acquire);
      if (v < p.scan_lo[i] || v > hi) return false;
    }
    if (!plan_.growing) {
      return rows.size() == p.scan_lo.size();
    }
    // Growing key set: every loaded key in the covered range must appear.
    std::vector<uint64_t> got;
    for (const auto& row : rows) {
      uint64_t h = 0;
      if (DecodeKey(row.first, &h)) got.push_back(h);
    }
    bool full = rows.size() == static_cast<size_t>(kScanLen);
    for (size_t pos = p.scan_pos; pos < ks_->records(); pos++) {
      uint64_t h = ks_->sorted_hash(pos);
      if (full && h > prev) break;
      if (!std::binary_search(got.begin(), got.end(), h)) return false;
    }
    return true;
  }

  Connection* conn_;
  KeySpace* ks_;
  const ThreadPlan& plan_;
  std::vector<Pending> ring_;
  std::vector<Pending*> pending_sends_;
  wire::FrameReader reader_;
  std::string value_;
  int inflight_ = 0;
  int closed_inflight_ = 0;
  uint64_t fresh_next_ = 0;
  ThreadResult res_;
};

}  // namespace

ThreadResult RunSegment(Connection* conn, KeySpace* ks, const ThreadPlan& plan,
                        uint64_t t0, double seconds, uint64_t drain_ns) {
  Runner r(conn, ks, plan);
  return r.Run(t0, seconds, drain_ns);
}

Status Load(Connection* conn, KeySpace* ks, uint64_t begin, uint64_t end) {
  constexpr uint64_t kBatch = 64;
  constexpr int kWindow = 8;
  wire::FrameReader reader;
  std::vector<std::string> keys(kBatch);
  std::vector<std::string> values(kBatch);
  uint64_t next = begin;
  int inflight = 0;
  char buf[64 * 1024];
  while (next < end || inflight > 0) {
    std::string out;
    while (next < end && inflight < kWindow) {
      std::vector<wire::WireBatchEntry> entries;
      uint64_t stop = std::min(end, next + kBatch);
      for (uint64_t id = next; id < stop; id++) {
        size_t i = id - next;
        keys[i] = KeyString(ks->hash(id));
        EncodeValue(ks->hash(id), 1, &values[i]);
        wire::WireBatchEntry e;
        e.key = keys[i];
        e.value = values[i];
        entries.push_back(e);
      }
      wire::EncodeWriteBatch(&out, conn->NextId(), entries);
      next = stop;
      inflight++;
    }
    if (!out.empty() && !SendAll(conn->fd(), out)) {
      return Status::IOError("load: send failed");
    }
    ssize_t r = ::recv(conn->fd(), buf, sizeof(buf), 0);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      return Status::IOError("load: connection lost");
    }
    reader.Feed(buf, static_cast<size_t>(r));
    Slice payload;
    bool bad = false;
    while (reader.Next(&payload, &bad)) {
      wire::WireStatus st;
      uint64_t rid = 0;
      Slice body;
      if (!wire::DecodeResponseHeader(payload, &st, &rid, &body) ||
          st != wire::WireStatus::kOk) {
        return Status::IOError("load: write batch failed");
      }
      inflight--;
      reader.Pop();
    }
    if (bad) return Status::IOError("load: bad frame");
  }
  return Status::OK();
}

}  // namespace perfbench
