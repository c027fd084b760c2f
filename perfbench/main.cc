// The repository benchmark's load process. It starts an in-process
// blsm_server over bLSM shards on loopback, loads and warms it, drives one
// workload from at most four client threads (one connection each), checks
// every response, and prints one JSON object with the end-to-end metrics
// and, with --trace 1, the per-layer breakdown taken from spans. run.py
// builds this binary, passes the workload's parameters from workloads.json,
// computes the tracing overhead and adds provenance.

#include <malloc.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "engine/kv.h"
#include "loadgen.h"
#include "server/server.h"
#include "trace.h"
#include "util/random.h"
#include "util/zipfian.h"

namespace perfbench {
namespace {

using blsm::Status;

const uint64_t g_process_start = NowNs();

// Shard scaling flattens at 2 shards on 4 cores, so every workload runs 2.
constexpr int kShards = 2;

// ---- configuration ---------------------------------------------------------------

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
  std::string spans_out;
  int threads = 4;
  int setups = 3;
  uint64_t records = 40000;
  size_t cache_bytes = 32 << 20;
  size_t c0_bytes = 8 << 20;
  bool sync = false;
  // Open-loop mix (fractions of the scheduled stream) and key choice.
  double get_frac = 0.95, put_frac = 0.05, scan_frac = 0;
  bool zipf = true;
  // Open loop: fixed reference rate, then the goodput ladder.
  double ref_rate = 0;
  double ref_frac = 0.4;  // share of --seconds spent at the reference rate
  double ladder_start = 0;
  double ladder_step = 1.05;
  int ladder_rungs = 0;
  double rung_seconds = 1;
  double p99_limit_us = 1000;
  // Closed loop: PUTs of fresh keys, `window` deep per connection, plus an
  // open-loop probe stream of GETs and SCANs at probe_rate.
  int window = 0;
  double probe_rate = 0;
  double probe_scan_frac = 0.5;
  // Warm-up: read every loaded key once, then run the mix this long.
  bool warm_all_keys = false;
  bool flush_after_load = false;
  double warm_seconds = 1;
};

bool ParseArgs(int argc, char** argv, Config* c) {
  std::map<std::string, std::function<void(const char*)>> flags = {
      {"--workload", [&](const char* v) { c->workload = v; }},
      {"--seed", [&](const char* v) { c->seed = std::strtoull(v, nullptr, 10); }},
      {"--seconds", [&](const char* v) { c->seconds = std::atof(v); }},
      {"--trace", [&](const char* v) { c->trace = std::atoi(v) != 0; }},
      {"--dir", [&](const char* v) { c->dir = v; }},
      {"--spans-out", [&](const char* v) { c->spans_out = v; }},
      {"--threads", [&](const char* v) { c->threads = std::atoi(v); }},
      {"--setups", [&](const char* v) { c->setups = std::atoi(v); }},
      {"--records", [&](const char* v) { c->records = std::strtoull(v, nullptr, 10); }},
      {"--cache-mb", [&](const char* v) { c->cache_bytes = static_cast<size_t>(std::atof(v) * (1 << 20)); }},
      {"--c0-mb", [&](const char* v) { c->c0_bytes = static_cast<size_t>(std::atof(v) * (1 << 20)); }},
      {"--sync", [&](const char* v) { c->sync = std::atoi(v) != 0; }},
      {"--get", [&](const char* v) { c->get_frac = std::atof(v); }},
      {"--put", [&](const char* v) { c->put_frac = std::atof(v); }},
      {"--scan", [&](const char* v) { c->scan_frac = std::atof(v); }},
      {"--zipf", [&](const char* v) { c->zipf = std::atoi(v) != 0; }},
      {"--ref-rate", [&](const char* v) { c->ref_rate = std::atof(v); }},
      {"--ref-frac", [&](const char* v) { c->ref_frac = std::atof(v); }},
      {"--ladder-start", [&](const char* v) { c->ladder_start = std::atof(v); }},
      {"--ladder-step", [&](const char* v) { c->ladder_step = std::atof(v); }},
      {"--ladder-rungs", [&](const char* v) { c->ladder_rungs = std::atoi(v); }},
      {"--rung-seconds", [&](const char* v) { c->rung_seconds = std::atof(v); }},
      {"--p99-limit-us", [&](const char* v) { c->p99_limit_us = std::atof(v); }},
      {"--window", [&](const char* v) { c->window = std::atoi(v); }},
      {"--probe-rate", [&](const char* v) { c->probe_rate = std::atof(v); }},
      {"--probe-scan", [&](const char* v) { c->probe_scan_frac = std::atof(v); }},
      {"--warm-all-keys", [&](const char* v) { c->warm_all_keys = std::atoi(v) != 0; }},
      {"--flush-after-load", [&](const char* v) { c->flush_after_load = std::atoi(v) != 0; }},
      {"--warm-seconds", [&](const char* v) { c->warm_seconds = std::atof(v); }},
  };
  for (int i = 1; i < argc; i++) {
    auto it = flags.find(argv[i]);
    if (it == flags.end() || i + 1 >= argc) {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", argv[i]);
      return false;
    }
    it->second(argv[++i]);
  }
  if (c->dir.empty() || c->threads < 1 || c->threads > 4 ||
      c->records < static_cast<uint64_t>(c->threads) || c->seconds <= 0) {
    std::fprintf(stderr, "bad configuration\n");
    return false;
  }
  return true;
}

// ---- JSON output ---------------------------------------------------------------

struct Metric {
  double value;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string MetricsJson(const Metrics& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + Num(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  return out + "}";
}

std::string MapJson(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += "\"" + k + "\": " + Num(v);
  }
  return out + "}";
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0; }

// ---- segments ------------------------------------------------------------------

// The merged result of one segment over all connections.
struct Segment {
  uint64_t start = 0, end = 0;  // NowNs of the schedule's start and end
  std::vector<Sample> samples;
  uint64_t attempted = 0, wrong = 0, errors = 0, timeouts = 0, refused = 0;
  uint64_t user_bytes = 0, fresh_acked = 0, outstanding_at_end = 0;
  uint64_t client_cpu_ns = 0;
  uint64_t peak_rss_kb = 0;  // VmHWM when the segment's threads finished
  std::vector<double> lateness_us;
  std::string fatal;
  uint64_t failed() const { return wrong + errors + timeouts + refused; }
};

class Bench {
 public:
  explicit Bench(const Config& c) : c_(c) {}

  // One pass: a set-up, the timed phase, then `setups - 1` more set-ups
  // that are only timed.
  bool RunPass(bool traced, uint64_t pass_start, Metrics* e2e,
               Metrics* layers, std::map<std::string, double>* detail);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t wrong() const { return wrong_; }
  const std::string& error() const { return error_; }

 private:
  bool Setup(bool traced, int k);
  void Teardown();
  bool Fail(const std::string& why) {
    if (error_.empty()) error_ = why;
    return false;
  }

  std::vector<ThreadPlan> OpenLoopPlans(double rate, double seconds,
                                        uint64_t stream);
  std::vector<ThreadPlan> ClosedLoopPlans(double seconds, uint64_t stream);
  Segment RunPlans(const std::vector<ThreadPlan>& plans, double seconds);
  void Account(const Segment& s) {
    attempted_ += s.attempted;
    failed_ += s.failed();
    wrong_ += s.wrong;
    if (!s.fatal.empty()) Fail(s.fatal);
  }

  std::map<std::string, uint64_t> ServerStats() const {
    return server_->Stats();
  }
  uint64_t EnvWriteBytes() const {
    const blsm::EnvIoCounters* io = blsm::Env::Default()->io_counters();
    return io != nullptr ? io->write_bytes.load() : 0;
  }
  void WaitIdle() {
    for (blsm::kv::Engine* e : OpenedShards()) {
      if (e != nullptr) e->WaitIdle();
    }
  }
  uint64_t DiskBytes() const;
  int FindLoopTid(const std::vector<int>& before) const;

  void LayerMetrics(const Segment& seg, uint64_t w0, uint64_t w1,
                    const std::map<std::string, uint64_t>& s0,
                    const std::map<std::string, uint64_t>& s1,
                    const std::map<int, uint64_t>& cpu0,
                    const std::map<int, uint64_t>& cpu1, int loop_tid,
                    int sampler_tid, double queue_depth_mean,
                    double c0_fill_mean, Metrics* layers,
                    std::map<std::string, double>* detail);

  const Config& c_;
  std::unique_ptr<blsm::Env> tracing_env_;
  std::unique_ptr<blsm::server::Server> server_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::unique_ptr<KeySpace> ks_;
  std::string pass_dir_;
  int loop_tid_ = 0;
  uint64_t load_write_bytes0_ = 0;  // Env bytes written before the load
  uint64_t attempted_ = 0, failed_ = 0, wrong_ = 0;
  std::string error_;
};

std::vector<ThreadPlan> Bench::OpenLoopPlans(double rate, double seconds,
                                             uint64_t stream) {
  const int T = c_.threads;
  std::vector<ThreadPlan> plans(static_cast<size_t>(T));
  for (int t = 0; t < T; t++) {
    ThreadPlan& p = plans[static_cast<size_t>(t)];
    p.growing = c_.window > 0;
    blsm::Random rng(c_.seed * 1000003 + stream * 131 + static_cast<uint64_t>(t));
    std::unique_ptr<blsm::ScrambledZipfianGenerator> zipf;
    if (c_.zipf) {
      zipf = std::make_unique<blsm::ScrambledZipfianGenerator>(
          c_.records, rng.Next());
    }
    auto add_stream = [&](double r, double get, double put, double scan) {
      if (r <= 0) return;
      double per_thread = r / T;
      double t_ns = 0;
      double total = get + put + scan;
      for (;;) {
        // Poisson arrivals: exponential gaps at the per-thread rate.
        double u = rng.NextDouble();
        t_ns += -std::log(1 - u) / per_thread * 1e9;
        if (t_ns >= seconds * 1e9) break;
        Planned pl;
        pl.due = static_cast<uint64_t>(t_ns);
        double x = rng.NextDouble() * total;
        if (x < get) {
          pl.op = kGet;
        } else if (x < get + put) {
          pl.op = kPut;
        } else {
          pl.op = kScan;
        }
        if (pl.op == kScan) {
          pl.arg = rng.Next();
        } else {
          uint64_t id = zipf ? zipf->Next() : rng.Uniform(c_.records);
          if (pl.op == kPut) id = ks_->OwnedBy(id, t);
          pl.arg = id;
        }
        p.schedule.push_back(pl);
      }
    };
    add_stream(rate, c_.get_frac, c_.put_frac, c_.scan_frac);
    add_stream(c_.probe_rate, 1 - c_.probe_scan_frac, 0, c_.probe_scan_frac);
    std::stable_sort(p.schedule.begin(), p.schedule.end(),
                     [](const Planned& a, const Planned& b) {
                       return a.due < b.due;
                     });
  }
  return plans;
}

std::vector<ThreadPlan> Bench::ClosedLoopPlans(double seconds,
                                               uint64_t stream) {
  std::vector<ThreadPlan> plans = OpenLoopPlans(0, seconds, stream);
  for (int t = 0; t < c_.threads; t++) {
    ThreadPlan& p = plans[static_cast<size_t>(t)];
    p.window = c_.window;
    // Fresh ids above every loaded record, disjoint per thread.
    p.fresh_base = c_.records + (stream << 36) + static_cast<uint64_t>(t);
    p.fresh_stride = static_cast<uint64_t>(c_.threads);
  }
  return plans;
}

Segment Bench::RunPlans(const std::vector<ThreadPlan>& plans,
                        double seconds) {
  Segment seg;
  seg.start = NowNs() + 2000000;  // 2 ms for the threads to reach their start
  seg.end = seg.start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<ThreadResult> results(plans.size());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < plans.size(); t++) {
    threads.emplace_back([&, t] {
      results[t] = RunSegment(conns_[t].get(), ks_.get(), plans[t], seg.start,
                              seconds, /*drain_ns=*/10000000000ull);
    });
  }
  for (auto& th : threads) th.join();
  seg.peak_rss_kb = PeakRssKb();  // before merging duplicates the samples
  size_t total = 0;
  for (const ThreadResult& r : results) total += r.samples.size();
  seg.samples.reserve(total);
  for (ThreadResult& r : results) {
    seg.samples.insert(seg.samples.end(), r.samples.begin(), r.samples.end());
    seg.lateness_us.insert(seg.lateness_us.end(), r.lateness_us.begin(),
                           r.lateness_us.end());
    seg.attempted += r.attempted;
    seg.wrong += r.wrong;
    seg.errors += r.errors;
    seg.timeouts += r.timeouts;
    seg.refused += r.refused;
    seg.user_bytes += r.user_bytes;
    seg.fresh_acked += r.fresh_acked;
    seg.outstanding_at_end += r.outstanding_at_end;
    seg.client_cpu_ns += r.cpu_ns;
    if (seg.fatal.empty()) seg.fatal = r.fatal;
  }
  return seg;
}

uint64_t Bench::DiskBytes() const {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(pass_dir_, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    // Files a merge deletes meanwhile are skipped, not counted as errors.
    std::error_code fec;
    if (!it->is_regular_file(fec)) continue;
    uint64_t size = it->file_size(fec);
    if (!fec) total += size;
  }
  return total;
}

// The server's event-loop thread: the one new thread parked in epoll_wait.
int Bench::FindLoopTid(const std::vector<int>& before) const {
  std::vector<int> after = ListTasks();
  int fallback = 0;
  for (int tid : after) {
    if (std::binary_search(before.begin(), before.end(), tid)) continue;
    long nr = TaskSyscall(tid);
#ifdef SYS_epoll_wait
    if (nr == SYS_epoll_wait) return tid;
#endif
#ifdef SYS_epoll_pwait
    if (nr == SYS_epoll_pwait) return tid;
#endif
    fallback = std::max(fallback, tid);  // created last by Server::Start
  }
  return fallback;
}

bool Bench::Setup(bool traced, int k) {
  pass_dir_ = c_.dir + (traced ? "/traced-" : "/untraced-") + std::to_string(k);
  std::error_code ec;
  std::filesystem::remove_all(pass_dir_, ec);
  std::filesystem::create_directories(pass_dir_, ec);
  if (ec) return Fail("cannot create " + pass_dir_);

  SetEngineTracing(traced);
  blsm::server::ServerOptions so;
  so.dir = pass_dir_;
  so.shards = kShards;
  so.engine_spec = "perfbench";
  so.engine.write_buffer_bytes = c_.c0_bytes;
  so.engine.block_cache_bytes = c_.cache_bytes;
  so.engine.durability =
      c_.sync ? blsm::DurabilityMode::kSync : blsm::DurabilityMode::kAsync;
  if (traced) {
    if (!tracing_env_) tracing_env_ = NewTracingEnv(blsm::Env::Default());
    so.engine.env = tracing_env_.get();
  }
  std::vector<int> before = ListTasks();
  Status s = blsm::server::Server::Start(so, &server_);
  if (!s.ok()) return Fail("server start: " + s.ToString());
  usleep(20000);  // let the event loop park in epoll_wait
  loop_tid_ = FindLoopTid(before);

  conns_.clear();
  for (int t = 0; t < c_.threads; t++) {
    std::unique_ptr<Connection> conn;
    s = Connection::Open(server_->port(), &conn);
    if (!s.ok()) return Fail("connect: " + s.ToString());
    conns_.push_back(std::move(conn));
  }
  ks_ = std::make_unique<KeySpace>(c_.records, c_.seed, c_.threads);

  // Load, split across the connections.
  load_write_bytes0_ = EnvWriteBytes();
  std::vector<Status> load(static_cast<size_t>(c_.threads));
  std::vector<std::thread> loaders;
  for (int t = 0; t < c_.threads; t++) {
    uint64_t b = c_.records * static_cast<uint64_t>(t) /
                 static_cast<uint64_t>(c_.threads);
    uint64_t e = c_.records * static_cast<uint64_t>(t + 1) /
                 static_cast<uint64_t>(c_.threads);
    loaders.emplace_back([&, t, b, e] {
      load[static_cast<size_t>(t)] =
          Load(conns_[static_cast<size_t>(t)].get(), ks_.get(), b, e);
    });
  }
  for (auto& th : loaders) th.join();
  for (const Status& ls : load) {
    if (!ls.ok()) return Fail(ls.ToString());
  }
  if (c_.flush_after_load) {
    // Push the loaded data out of C0 so reads go through the block cache.
    for (blsm::kv::Engine* e : OpenedShards()) {
      Status fs = e != nullptr ? e->Flush() : Status::OK();
      if (!fs.ok()) return Fail("flush: " + fs.ToString());
    }
  }
  WaitIdle();

  // Warm-up: every key once (cache-resident workloads), then the mix.
  if (c_.warm_all_keys) {
    std::vector<ThreadPlan> plans(static_cast<size_t>(c_.threads));
    const double warm_rate = 200000;
    for (uint64_t id = 0; id < c_.records; id++) {
      ThreadPlan& p = plans[id % static_cast<uint64_t>(c_.threads)];
      Planned pl;
      pl.due = static_cast<uint64_t>(static_cast<double>(id) / warm_rate * 1e9);
      pl.arg = id;
      pl.op = kGet;
      p.schedule.push_back(pl);
    }
    Account(RunPlans(plans, static_cast<double>(c_.records) / warm_rate));
  }
  if (c_.warm_seconds > 0) {
    // The closed loop warms with its probe stream only.
    double rate = c_.window > 0 ? 0 : c_.ref_rate;
    Account(RunPlans(OpenLoopPlans(rate, c_.warm_seconds, 1000 + k),
                     c_.warm_seconds));
  }
  return error_.empty();
}

void Bench::Teardown() {
  conns_.clear();
  if (server_) server_->Stop();
  server_.reset();
  ForgetShards();
  std::error_code ec;
  std::filesystem::remove_all(pass_dir_, ec);
}

// Tail latency that a rare stall does not swing: the segment is cut into
// up to 16 equal sub-windows by due time, each holding at least 1000
// samples (ten beyond its p99), and the interquartile mean of their
// quantiles is reported. Segments too small to cut use their whole sample.
double WindowedQuantile(const std::vector<const Sample*>& samples,
                        uint64_t start, uint64_t end, double q) {
  if (samples.empty()) return 0;
  size_t k = std::max<size_t>(1, std::min<size_t>(16, samples.size() / 1000));
  std::vector<std::vector<double>> win(k);
  double span = static_cast<double>(end - start);
  for (const Sample* s : samples) {
    double pos = static_cast<double>(s->due - std::min(s->due, start)) / span;
    size_t w = std::min(k - 1, static_cast<size_t>(pos * static_cast<double>(k)));
    win[w].push_back(static_cast<double>(s->recv - s->due) / 1e3);
  }
  std::vector<double> qs;
  for (auto& v : win) {
    if (!v.empty()) qs.push_back(Quantile(&v, q));
  }
  std::sort(qs.begin(), qs.end());
  size_t lo = qs.size() / 4, hi = qs.size() - qs.size() / 4;
  double sum = 0;
  for (size_t i = lo; i < hi; i++) sum += qs[i];
  return sum / static_cast<double>(hi - lo);
}

std::vector<const Sample*> OfOp(const std::vector<Sample>& samples, int op) {
  std::vector<const Sample*> out;
  for (const Sample& s : samples) {
    if (s.op == op) out.push_back(&s);
  }
  return out;
}

bool Bench::RunPass(bool traced, uint64_t pass_start, Metrics* e2e,
                    Metrics* layers, std::map<std::string, double>* detail) {
  // The measured set-up comes first; further set-ups after the timed phase
  // only time set-up.
  std::vector<double> setup_s;
  ResetPeakRss();
  if (!Setup(traced, 0)) return false;
  setup_s.push_back(static_cast<double>(NowNs() - pass_start) / 1e9);
  (*detail)["setup.peak_rss_mb"] = static_cast<double>(PeakRssKb()) / 1024.0;
  // Peak RSS is taken over the window alone, from a baseline without the
  // heap the load freed: how much of that the allocator kept would vary.
  malloc_trim(0);
  ResetPeakRss();
  (*detail)["window.rss0_mb"] = static_cast<double>(PeakRssKb()) / 1024.0;

  // Measurement window: the reference segment (open loop) or the whole
  // closed loop. Latency, CPU, counters and spans are taken over it.
  const bool closed = c_.window > 0;
  const double window_s = closed ? c_.seconds : c_.seconds * c_.ref_frac;
  std::vector<ThreadPlan> plans = closed ? ClosedLoopPlans(window_s, 1)
                                         : OpenLoopPlans(c_.ref_rate, window_s, 1);

  // Space amplification is sampled through the window and averaged: read
  // once at the end it depends on where in its merge cycle the tree stopped.
  // Live bytes are the loaded records plus the fresh keys acknowledged.
  std::atomic<uint64_t> fresh_acked{0};
  for (ThreadPlan& p : plans) p.fresh_acked_total = &fresh_acked;
  std::atomic<bool> space_sampling{true};
  std::vector<double> space_amps;
  std::thread space_sampler([&] {
    while (space_sampling.load()) {
      double live = static_cast<double>(c_.records + fresh_acked.load()) *
                    static_cast<double>(kKeyBytes + kValueBytes);
      space_amps.push_back(Ratio(static_cast<double>(DiskBytes()), live));
      for (int i = 0; i < 25 && space_sampling.load(); i++) usleep(20000);
    }
  });

  // Traced runs sample the server's queue depth and C0 fill meanwhile.
  std::atomic<bool> sampling{traced};
  std::atomic<int> sampler_tid{0};
  double depth_sum = 0, fill_sum = 0;
  uint64_t nsamples = 0;
  std::thread sampler;

  std::map<std::string, uint64_t> s0 = ServerStats();
  uint64_t cpu0 = ProcessCpuNs();
  std::map<int, uint64_t> tcpu0, tcpu1;
  if (traced) {
    sampler = std::thread([&] {
      sampler_tid = CurrentTid();
      while (sampling.load()) {
        std::map<std::string, uint64_t> st = ServerStats();
        depth_sum += static_cast<double>(st["server.queue_depth"]);
        fill_sum += Ratio(static_cast<double>(st["c0_live_bytes"]),
                          static_cast<double>(c_.c0_bytes) * kShards);
        nsamples++;
        usleep(10000);
      }
    });
    for (int tid : ListTasks()) tcpu0[tid] = TaskCpuNs(tid);
    Tracer::Get().Arm(true);
  }
  uint64_t window_wb0 = EnvWriteBytes();
  Segment ref = RunPlans(plans, window_s);
  uint64_t cpu1 = ProcessCpuNs();
  space_sampling = false;
  space_sampler.join();
  uint64_t window_wb1 = EnvWriteBytes();
  if (traced) {
    Tracer::Get().Arm(false);
    sampling = false;
    sampler.join();
    for (int tid : ListTasks()) tcpu1[tid] = TaskCpuNs(tid);
  }
  std::map<std::string, uint64_t> s1 = ServerStats();
  Account(ref);
  uint64_t user_bytes = ref.user_bytes;

  uint64_t completed = ref.samples.size();
  uint64_t closed_puts = 0, closed_good = 0;
  for (const Sample& s : ref.samples) {
    if (!s.closed) continue;
    closed_puts++;
    if (static_cast<double>(s.recv - s.due) / 1e3 <= c_.p99_limit_us) {
      closed_good++;
    }
  }

  // Goodput: the highest ladder rung whose p99 (windowed as above) meets
  // the limit, with no failed request and no growing backlog. Closed loop:
  // PUTs per second completed within the limit.
  double goodput = 0;
  if (closed) {
    goodput = static_cast<double>(closed_good) / window_s;
    (*detail)["ops_s"] = static_cast<double>(closed_puts) / window_s;
  } else {
    (*detail)["ops_s"] = static_cast<double>(completed) / window_s;
    double budget = c_.seconds - window_s;
    double rate = c_.ladder_start;
    for (int i = 0; i < c_.ladder_rungs && budget >= c_.rung_seconds - 1e-9;
         i++, rate *= c_.ladder_step) {
      Segment rung = RunPlans(OpenLoopPlans(rate, c_.rung_seconds, 100 + i),
                              c_.rung_seconds);
      budget -= c_.rung_seconds;
      Account(rung);
      user_bytes += rung.user_bytes;
      std::vector<const Sample*> all;
      for (const Sample& s : rung.samples) all.push_back(&s);
      double p99 = WindowedQuantile(all, rung.start, rung.end, 0.99);
      double backlog_limit = rate * c_.p99_limit_us / 1e6;
      bool pass = p99 <= c_.p99_limit_us && rung.failed() == 0 &&
                  static_cast<double>(rung.outstanding_at_end) <=
                      backlog_limit;
      std::string tag = "rung." + std::to_string(static_cast<int64_t>(rate));
      (*detail)[tag + ".p99_us"] = p99;
      (*detail)[tag + ".outstanding"] =
          static_cast<double>(rung.outstanding_at_end);
      (*detail)[tag + ".pass"] = pass ? 1 : 0;
      // Every rung that fits the run is tried: a transient stall that fails
      // a few rungs below the knee does not end the climb.
      if (pass) goodput = rate;
    }
  }
  // Latency and goodput go to the report, not the gate: on a shared VM
  // host they swing with the host's load (see README.md).
  (*detail)["goodput_ops_s"] = goodput;

  for (int op = 0; op < kNumOps; op++) {
    std::vector<const Sample*> of = OfOp(ref.samples, op);
    std::vector<double> v;
    for (const Sample* s : of) {
      v.push_back(static_cast<double>(s->recv - s->due) / 1e3);
    }
    std::sort(v.begin(), v.end());
    std::string name = OpName(op);
    (*detail)[name + ".p50_us"] = Quantile(&v, 0.5, true);
    (*detail)[name + ".p90_us"] = Quantile(&v, 0.90, true);
    (*detail)[name + ".p99_us"] =
        WindowedQuantile(of, ref.start, ref.end, 0.99);
    double sp = SupportedPercentile(v.size());
    (*detail)[name + ".samples"] = static_cast<double>(v.size());
    (*detail)[name + ".supported_percentile"] = sp;
    (*detail)[name + ".supported_percentile_us"] =
        sp > 0 ? Quantile(&v, sp / 100, true) : 0;
  }
  std::vector<double> lateness = ref.lateness_us;
  (*detail)["generator.lateness_p50_us"] = Quantile(&lateness, 0.5);
  (*detail)["generator.lateness_p99_us"] = Quantile(&lateness, 0.99, true);
  (*detail)["generator.lateness_max_us"] =
      lateness.empty() ? 0 : lateness.back();
  (*detail)["generator.outstanding_at_end"] =
      static_cast<double>(ref.outstanding_at_end);

  (*e2e)["cpu_us_per_op"] = {
      Ratio(static_cast<double>(cpu1 - cpu0) / 1e3,
            static_cast<double>(completed)),
      "us"};

  // Flush C0 and let background work settle, so that the merges the run
  // triggered are counted whole whatever their timing.
  for (blsm::kv::Engine* e : OpenedShards()) {
    Status fs = e != nullptr ? e->Flush() : Status::OK();
    if (!fs.ok()) return Fail("flush: " + fs.ToString());
  }
  WaitIdle();
  // Bytes written from the start of the measured set-up's load until the
  // tree is quiet again, per user byte written over the same span.
  uint64_t load_bytes = c_.records * (kKeyBytes + kValueBytes);
  (*e2e)["write_amp"] = {
      Ratio(static_cast<double>(EnvWriteBytes() - load_write_bytes0_),
            static_cast<double>(load_bytes + user_bytes)),
      "ratio"};
  double live = static_cast<double>(c_.records + ref.fresh_acked) *
                static_cast<double>(kKeyBytes + kValueBytes);
  double space_sum = 0;
  for (double a : space_amps) space_sum += a;
  (*e2e)["space_amp"] = {
      Ratio(space_sum, static_cast<double>(space_amps.size())), "ratio"};
  (*detail)["space_amp.samples"] = static_cast<double>(space_amps.size());
  (*detail)["space_amp.quiet_end"] =
      Ratio(static_cast<double>(DiskBytes()), live);
  // Peak over the measurement window.
  (*e2e)["peak_rss_mb"] = {static_cast<double>(ref.peak_rss_kb) / 1024.0,
                           "MB"};
  (*detail)["window_s"] = window_s;
  (*detail)["window.completed"] = static_cast<double>(completed);
  (*detail)["window.user_bytes"] = static_cast<double>(ref.user_bytes);

  if (traced) {
    uint64_t w1 = ref.end;
    for (const Sample& s : ref.samples) w1 = std::max(w1, s.recv);
    LayerMetrics(ref, ref.start, w1, s0, s1, tcpu0, tcpu1, loop_tid_,
                 sampler_tid.load(),
                 nsamples ? depth_sum / static_cast<double>(nsamples) : 0,
                 nsamples ? fill_sum / static_cast<double>(nsamples) : 0,
                 layers, detail);
    (*layers)["cpu.client_us_per_op"] = {
        Ratio(static_cast<double>(ref.client_cpu_ns) / 1e3,
              static_cast<double>(completed)),
        "us"};
    (*layers)["client.lateness_p99_us"] = {
        (*detail)["generator.lateness_p99_us"], "us"};
    // The io.*_bytes_per_user_byte shares sum to this window's write
    // amplification when the Env decorator saw every byte: check it.
    (*layers)["io.classified_write_frac"] = {
        Ratio((*detail)["io.classified_bytes"],
              static_cast<double>(window_wb1 - window_wb0)),
        "frac"};
    (*detail)["io.window_write_amp"] =
        Ratio(static_cast<double>(window_wb1 - window_wb0),
              static_cast<double>(ref.user_bytes));
  }
  Teardown();
  for (int k = 1; k < c_.setups && error_.empty(); k++) {
    uint64_t t = NowNs();
    if (!Setup(traced, k)) return false;
    setup_s.push_back(static_cast<double>(NowNs() - t) / 1e9);
    Teardown();
  }
  (*detail)["setup_s_min"] = *std::min_element(setup_s.begin(), setup_s.end());
  (*detail)["setup_s_max"] = *std::max_element(setup_s.begin(), setup_s.end());
  (*e2e)["setup_s"] = {Quantile(&setup_s, 0.5), "s"};
  return error_.empty();
}

// ---- per-layer analysis ------------------------------------------------------------

double Delta(const std::map<std::string, uint64_t>& a,
             const std::map<std::string, uint64_t>& b, const std::string& k) {
  auto ia = a.find(k);
  auto ib = b.find(k);
  double va = ia == a.end() ? 0 : static_cast<double>(ia->second);
  double vb = ib == b.end() ? 0 : static_cast<double>(ib->second);
  return vb - va;
}

// Length of the union of [start, end) intervals.
double UnionNs(std::vector<std::pair<uint64_t, uint64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0;
  uint64_t cur_s = 0, cur_e = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (!open || s > cur_e) {
      if (open) total += static_cast<double>(cur_e - cur_s);
      cur_s = s;
      cur_e = e;
      open = true;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (open) total += static_cast<double>(cur_e - cur_s);
  return total;
}

void Bench::LayerMetrics(const Segment& seg, uint64_t w0, uint64_t w1,
                         const std::map<std::string, uint64_t>& s0,
                         const std::map<std::string, uint64_t>& s1,
                         const std::map<int, uint64_t>& cpu0,
                         const std::map<int, uint64_t>& cpu1, int loop_tid,
                         int sampler_tid, double queue_depth_mean,
                         double c0_fill_mean, Metrics* L,
                         std::map<std::string, double>* detail) {
  std::vector<ThreadTrace*> threads = Tracer::Get().Threads();
  const double window_ns = static_cast<double>(w1 - w0);
  const double user_bytes = static_cast<double>(seg.user_bytes);
  auto us = [](uint64_t ns) { return static_cast<double>(ns) / 1e3; };

  std::vector<double> get_per_key, write_us, scan_us, get_self_per_key;
  double get_keys = 0, get_calls = 0, multiget_calls = 0, multiget_keys = 0;
  double write_calls = 0, write_entries = 0, scan_calls = 0, busy_ns = 0;
  std::set<int> worker_tids;
  // Per key: engine spans (GET kinds, writes, scans) in start order.
  std::unordered_map<uint64_t, std::vector<const EngineSpan*>> by_key[kNumOps];
  std::unordered_map<uint64_t, double> child_ns;  // engine span id -> Env time
  for (const ThreadTrace* t : threads) {
    for (size_t i = 0; i < t->env.size(); i++) {
      const EnvSpan& e = t->env[i];
      if (e.parent != kNoParent && e.parent != kBackground) {
        child_ns[e.parent] += static_cast<double>(e.end - e.start);
      }
    }
  }
  for (const ThreadTrace* t : threads) {
    for (size_t i = 0; i < t->engine.size(); i++) {
      const EngineSpan& s = t->engine[i];
      if (s.start < w0 || s.start >= w1) continue;
      worker_tids.insert(t->tid);
      double dur = static_cast<double>(s.end - s.start);
      busy_ns += dur;
      double child = child_ns[EngineSpanId(t->index, i)];
      int op = kGet;
      switch (s.op) {
        case EngineOp::kGet:
        case EngineOp::kMultiGet:
          for (uint32_t k = 0; k < s.nkeys; k++) {
            get_per_key.push_back(dur / s.nkeys / 1e3);
            get_self_per_key.push_back((dur - child) / s.nkeys / 1e3);
          }
          get_keys += s.nkeys;
          if (s.op == EngineOp::kGet) {
            get_calls++;
          } else {
            multiget_calls++;
            multiget_keys += s.nkeys;
          }
          op = kGet;
          break;
        case EngineOp::kWrite:
          write_us.push_back(dur / 1e3);
          write_calls++;
          write_entries += s.nkeys;
          op = kPut;
          break;
        case EngineOp::kScan:
          scan_us.push_back(dur / 1e3);
          scan_calls++;
          op = kScan;
          break;
      }
      for (uint32_t k = 0; k < s.nkeys; k++) {
        by_key[op][t->keys[s.key_off + k]].push_back(&s);
      }
    }
  }
  for (auto& m : by_key) {
    for (auto& [key, v] : m) {
      std::sort(v.begin(), v.end(),
                [](const EngineSpan* a, const EngineSpan* b) {
                  return a->start < b->start;
                });
    }
  }

  // Link each client request to the engine call(s) that served its key,
  // FIFO per key: the first unclaimed span that started after the send and
  // ended before the receive. A linked request's send <= engine start <=
  // engine end <= receive on one clock, so lateness + inbound + engine +
  // outbound is exactly its latency.
  std::vector<const Sample*> reqs;
  for (const Sample& s : seg.samples) reqs.push_back(&s);
  std::sort(reqs.begin(), reqs.end(), [](const Sample* a, const Sample* b) {
    return a->send < b->send;
  });
  std::unordered_map<uint64_t, size_t> cursor[kNumOps];
  std::vector<double> inbound, outbound;
  double linked = 0;
  const size_t scan_fan = static_cast<size_t>(kShards);
  for (const Sample* r : reqs) {
    auto it = by_key[r->op].find(r->key);
    if (it == by_key[r->op].end()) continue;
    std::vector<const EngineSpan*>& v = it->second;
    size_t& cur = cursor[r->op][r->key];
    while (cur < v.size() && v[cur]->start < r->send) cur++;
    size_t need = r->op == kScan ? scan_fan : 1;
    if (cur + need > v.size()) continue;
    uint64_t e_start = ~0ull, e_end = 0;
    for (size_t k = 0; k < need; k++) {
      e_start = std::min(e_start, v[cur + k]->start);
      e_end = std::max(e_end, v[cur + k]->end);
    }
    if (e_end > r->recv) continue;  // not this request's call
    cur += need;
    linked++;
    inbound.push_back(us(e_start - r->send));
    outbound.push_back(us(r->recv - e_end));
  }
  (*L)["trace.linked_frac"] = {Ratio(linked, static_cast<double>(reqs.size())),
                               "frac"};
  (*detail)["trace.requests"] = static_cast<double>(reqs.size());

  (*L)["server.inbound_p50_us"] = {Quantile(&inbound, 0.5), "us"};
  (*L)["server.inbound_p99_us"] = {Quantile(&inbound, 0.99, true), "us"};
  (*L)["server.outbound_p50_us"] = {Quantile(&outbound, 0.5), "us"};
  (*L)["server.get_coalesce"] = {Ratio(get_keys, get_calls + multiget_calls),
                                 "count"};
  (*L)["server.write_fold"] = {
      Ratio(Delta(s0, s1, "server.write_ops"),
            Delta(s0, s1, "server.write_batches")),
      "count"};
  (*L)["server.queue_depth_mean"] = {queue_depth_mean, "count"};

  auto task_delta = [&](int tid) -> double {
    auto a = cpu0.find(tid);
    auto b = cpu1.find(tid);
    if (a == cpu0.end() || b == cpu1.end()) return 0;
    return static_cast<double>(b->second - a->second);
  };
  double completed = static_cast<double>(seg.samples.size());
  (*L)["server.loop_cpu_us_per_op"] = {
      Ratio(task_delta(loop_tid) / 1e3, completed), "us"};

  (*L)["engine.get_p50_us"] = {Quantile(&get_per_key, 0.5), "us"};
  (*L)["engine.get_p99_us"] = {Quantile(&get_per_key, 0.99, true), "us"};
  (*L)["engine.get_self_p50_us"] = {Quantile(&get_self_per_key, 0.5), "us"};
  (*L)["engine.multiget_keys_mean"] = {Ratio(multiget_keys, multiget_calls),
                                       "count"};
  (*L)["engine.write_p50_us"] = {Quantile(&write_us, 0.5), "us"};
  (*L)["engine.write_p99_us"] = {Quantile(&write_us, 0.99, true), "us"};
  (*L)["engine.write_entries_mean"] = {Ratio(write_entries, write_calls),
                                       "count"};
  (*L)["engine.scan_p50_us"] = {Quantile(&scan_us, 0.5), "us"};
  (*L)["engine.busy_frac"] = {Ratio(busy_ns, kShards * window_ns), "frac"};
  double puts = Delta(s0, s1, "puts");
  (*L)["engine.stall_us_per_put"] = {
      Ratio(Delta(s0, s1, "write_stall_micros"), puts), "us"};
  (*L)["engine.stalls"] = {Delta(s0, s1, "write.stalls"), "count"};

  // Env spans of the window, by class and by parent.
  std::vector<double> wal_append, wal_sync, tree_read;
  double wal_syncs = 0, class_bytes[5] = {0, 0, 0, 0, 0};
  double get_reads = 0, get_read_bytes = 0, scan_read_bytes = 0;
  double multireads = 0, multiread_reqs = 0;
  std::vector<std::pair<uint64_t, uint64_t>> bg_writes;
  std::unordered_map<uint64_t, EngineOp> span_op;
  for (const ThreadTrace* t : threads) {
    for (size_t i = 0; i < t->engine.size(); i++) {
      span_op[EngineSpanId(t->index, i)] = t->engine[i].op;
    }
  }
  enum { kWalBytes, kFlushBytes, kMerge1Bytes, kCompactionBytes, kOtherBytes };
  for (const ThreadTrace* t : threads) {
    for (const EnvSpan& e : t->env) {
      if (e.start < w0 || e.start >= w1) continue;
      double dur_us = static_cast<double>(e.end - e.start) / 1e3;
      bool write = e.op == IoOp::kAppend || e.op == IoOp::kFlush ||
                   e.op == IoOp::kSync;
      if (write && e.parent == kBackground) {
        bg_writes.emplace_back(e.start, e.end);
      }
      if (e.op == IoOp::kAppend) {
        int bucket = kOtherBytes;
        if (e.cls == FileClass::kWal) {
          bucket = kWalBytes;
        } else if (e.cls == FileClass::kTree && e.priority >= 0 &&
                   e.priority <= 2) {
          bucket = kFlushBytes + e.priority;
        }
        class_bytes[bucket] += static_cast<double>(e.bytes);
      }
      if (e.cls == FileClass::kWal) {
        if (e.op == IoOp::kAppend) wal_append.push_back(dur_us);
        if (e.op == IoOp::kSync) {
          wal_sync.push_back(dur_us);
          wal_syncs++;
        }
      }
      if (e.cls == FileClass::kTree &&
          (e.op == IoOp::kRead || e.op == IoOp::kMultiRead) &&
          e.parent != kBackground) {
        tree_read.push_back(dur_us);
        if (e.op == IoOp::kMultiRead) {
          multireads++;
          multiread_reqs += e.nreq;
        }
        auto it = span_op.find(e.parent);
        if (it != span_op.end()) {
          if (it->second == EngineOp::kGet ||
              it->second == EngineOp::kMultiGet) {
            get_reads += e.op == IoOp::kMultiRead ? e.nreq : 1;
            get_read_bytes += static_cast<double>(e.bytes);
          } else if (it->second == EngineOp::kScan) {
            scan_read_bytes += static_cast<double>(e.bytes);
          }
        }
      }
    }
  }
  (*L)["wal.append_p50_us"] = {Quantile(&wal_append, 0.5), "us"};
  (*L)["wal.sync_p50_us"] = {Quantile(&wal_sync, 0.5), "us"};
  (*L)["wal.sync_p99_us"] = {Quantile(&wal_sync, 0.99, true), "us"};
  (*L)["wal.syncs_per_write"] = {Ratio(wal_syncs, write_calls), "count"};
  (*L)["wal.records_per_batch"] = {
      Ratio(Delta(s0, s1, "wal.records"), Delta(s0, s1, "wal.batches")),
      "count"};

  (*L)["lsm.merge1_passes"] = {Delta(s0, s1, "merge1_passes"), "count"};
  (*L)["lsm.merge2_passes"] = {Delta(s0, s1, "merge2_passes"), "count"};
  (*L)["lsm.merge_bytes_per_user_byte"] = {
      Ratio(Delta(s0, s1, "merge1_bytes_out") +
                Delta(s0, s1, "merge2_bytes_out"),
            user_bytes),
      "ratio"};
  // Background CPU: every thread alive across the window that is not the
  // event loop, a shard worker, the sampler or this thread.
  double bg_cpu_ns = 0;
  int self_tid = CurrentTid();
  for (const auto& [tid, v] : cpu1) {
    if (tid == loop_tid || tid == sampler_tid || tid == self_tid ||
        worker_tids.count(tid) || !cpu0.count(tid)) {
      continue;
    }
    bg_cpu_ns += task_delta(tid);
  }
  (*L)["lsm.background_cpu_us_per_put"] = {Ratio(bg_cpu_ns / 1e3, puts),
                                           "us"};
  (*L)["memtable.c0_fill_mean"] = {c0_fill_mean, "frac"};

  double gets = Delta(s0, s1, "gets");
  (*L)["bloom.skips_per_get"] = {Ratio(Delta(s0, s1, "bloom_skips"), gets),
                                 "count"};
  double hits = Delta(s0, s1, "block_cache.hits");
  double misses = Delta(s0, s1, "block_cache.misses");
  (*L)["buffer.hit_rate"] = {Ratio(hits, hits + misses), "frac"};
  (*L)["buffer.misses_per_get"] = {Ratio(misses, gets), "count"};

  (*L)["io.reads_per_get"] = {Ratio(get_reads, get_keys), "count"};
  (*L)["io.read_p50_us"] = {Quantile(&tree_read, 0.5), "us"};
  (*L)["io.read_bytes_per_get"] = {Ratio(get_read_bytes, get_keys), "B"};
  (*L)["io.read_bytes_per_scan"] = {
      Ratio(scan_read_bytes, scan_calls / static_cast<double>(scan_fan)), "B"};
  (*L)["io.multiread_batch_mean"] = {Ratio(multiread_reqs, multireads),
                                     "count"};
  (*L)["io.wal_bytes_per_user_byte"] = {
      Ratio(class_bytes[kWalBytes], user_bytes), "ratio"};
  (*L)["io.flush_bytes_per_user_byte"] = {
      Ratio(class_bytes[kFlushBytes], user_bytes), "ratio"};
  (*L)["io.merge1_bytes_per_user_byte"] = {
      Ratio(class_bytes[kMerge1Bytes], user_bytes), "ratio"};
  (*L)["io.compaction_bytes_per_user_byte"] = {
      Ratio(class_bytes[kCompactionBytes], user_bytes), "ratio"};
  (*L)["io.other_bytes_per_user_byte"] = {
      Ratio(class_bytes[kOtherBytes], user_bytes), "ratio"};
  (*L)["io.background_write_busy_frac"] = {
      Ratio(UnionNs(bg_writes), window_ns), "frac"};
  double classified = 0;
  for (double b : class_bytes) classified += b;
  (*detail)["io.classified_bytes"] = classified;
}

// ---- provenance -------------------------------------------------------------------

// Build facts; run.py adds the commit, host, seed and scale.
std::string Provenance() {
  std::string out = "{";
  out += "\"build_type\": \"" + std::string(PERFBENCH_BUILD_TYPE) + "\"";
  out += ", \"sanitize\": \"" + std::string(PERFBENCH_SANITIZE) + "\"";
  out += ", \"lock_rank_checks\": \"" + std::string(PERFBENCH_LOCK_RANK_CHECKS) + "\"";
  out += ", \"io_uring\": \"" + std::string(PERFBENCH_IO_URING) + "\"";
  out += "}";
  return out;
}

// Results from an unoptimised or instrumented build are not results.
bool OptimisedBuild(std::string* why) {
#ifndef NDEBUG
  *why = "assertions are enabled (NDEBUG unset): not an optimised build";
  return false;
#endif
  std::string bt = PERFBENCH_BUILD_TYPE;
  if (bt != "Release" && bt != "RelWithDebInfo" && bt != "MinSizeRel") {
    *why = "build type '" + bt + "' is not an optimised build";
    return false;
  }
  if (std::strlen(PERFBENCH_SANITIZE) != 0) {
    *why = "sanitizer build (" + std::string(PERFBENCH_SANITIZE) + ")";
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Config c;
  if (!ParseArgs(argc, argv, &c)) return 2;
  std::string why;
  if (!OptimisedBuild(&why)) {
    std::fprintf(stderr, "refusing to measure: %s\n", why.c_str());
    return 3;
  }
  RegisterBenchEngine();

  Bench bench(c);
  Metrics e2e, layers;
  std::map<std::string, double> detail;
  bool ok = bench.RunPass(c.trace, g_process_start, &e2e, &layers, &detail);
  if (ok && c.trace && !c.spans_out.empty() &&
      !WriteSpans(c.spans_out, Tracer::Get().Threads())) {
    std::fprintf(stderr, "warning: could not write %s\n", c.spans_out.c_str());
  }
  if (!ok) {
    std::fprintf(stderr, "benchmark failed: %s\n", bench.error().c_str());
    return 1;
  }
  std::string out = "{";
  out += "\"workload\": \"" + c.workload + "\"";
  out += ", \"provenance\": " + Provenance();
  out += ", \"attempted\": " + std::to_string(bench.attempted());
  out += ", \"failed\": " + std::to_string(bench.failed());
  out += ", \"wrong\": " + std::to_string(bench.wrong());
  out += ", \"e2e\": " + MetricsJson(e2e);
  out += ", \"detail\": " + MapJson(detail);
  if (c.trace) out += ", \"layers\": " + MetricsJson(layers);
  out += "}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
