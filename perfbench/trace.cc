#include "trace.h"

#include <cstdio>
#include <cstring>
#include <mutex>

#include "common.h"
#include "engine/io_rate_limiter.h"

namespace perfbench {

using blsm::Env;
using blsm::Slice;
using blsm::Status;
namespace kv = blsm::kv;

// ---- Tracer ----------------------------------------------------------------

namespace {

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadTrace>> threads;
};

Registry& ThreadRegistry() {
  static Registry* r = new Registry();
  return *r;
}

thread_local ThreadTrace* tls_trace = nullptr;

}  // namespace

Tracer& Tracer::Get() {
  static Tracer* t = new Tracer();
  return *t;
}

ThreadTrace* Tracer::ThisThread() {
  if (tls_trace == nullptr) {
    Registry& r = ThreadRegistry();
    std::lock_guard<std::mutex> l(r.mu);
    auto t = std::make_unique<ThreadTrace>();
    t->tid = CurrentTid();
    t->index = static_cast<uint32_t>(r.threads.size());
    tls_trace = t.get();
    r.threads.push_back(std::move(t));
  }
  return tls_trace;
}

std::vector<ThreadTrace*> Tracer::Threads() {
  Registry& r = ThreadRegistry();
  std::lock_guard<std::mutex> l(r.mu);
  std::vector<ThreadTrace*> out;
  for (auto& t : r.threads) out.push_back(t.get());
  return out;
}

// ---- engine decorator --------------------------------------------------------

namespace {

// Opens and closes one engine span around an inner engine call.
class EngineScope {
 public:
  EngineScope(EngineOp op, int shard) {
    t_ = Tracer::Get().ThisThread();
    span_.op = op;
    span_.shard = static_cast<uint8_t>(shard);
    span_.key_off = static_cast<uint32_t>(t_->keys.size());
    t_->open_engine = EngineSpanId(t_->index, t_->engine.size());
  }
  void AddKey(const Slice& key) {
    uint64_t h = 0;
    if (!DecodeKey(key, &h)) h = 0;
    t_->keys.push_back(h);
    span_.nkeys++;
  }
  void Start() { span_.start = NowNs(); }
  ~EngineScope() {
    span_.end = NowNs();
    t_->engine.push_back(span_);
    t_->open_engine = kNoParent;
  }
  EngineScope(const EngineScope&) = delete;
  EngineScope& operator=(const EngineScope&) = delete;

 private:
  ThreadTrace* t_;
  EngineSpan span_;
};

class TracedEngine final : public kv::Engine {
 public:
  TracedEngine(std::unique_ptr<kv::Engine> inner, int shard)
      : inner_(std::move(inner)), shard_(shard) {}

  std::string Name() const override { return inner_->Name(); }

  // The server issues every write through Write(); Put and Delete only
  // forward.
  Status Put(const Slice& key, const Slice& value) override {
    return inner_->Put(key, value);
  }
  Status Write(const kv::WriteBatch& batch) override {
    if (!Tracer::Get().armed()) return inner_->Write(batch);
    EngineScope scope(EngineOp::kWrite, shard_);
    for (const auto& e : batch.entries()) scope.AddKey(e.key);
    scope.Start();
    return inner_->Write(batch);
  }
  Status Get(const Slice& key, std::string* value) override {
    if (!Tracer::Get().armed()) return inner_->Get(key, value);
    EngineScope scope(EngineOp::kGet, shard_);
    scope.AddKey(key);
    scope.Start();
    return inner_->Get(key, value);
  }
  std::vector<Status> MultiGet(const std::vector<Slice>& keys,
                               std::vector<std::string>* values) override {
    if (!Tracer::Get().armed()) return inner_->MultiGet(keys, values);
    EngineScope scope(EngineOp::kMultiGet, shard_);
    for (const Slice& k : keys) scope.AddKey(k);
    scope.Start();
    return inner_->MultiGet(keys, values);
  }
  Status Delete(const Slice& key) override { return inner_->Delete(key); }
  Status InsertIfNotExists(const Slice& key, const Slice& value) override {
    return inner_->InsertIfNotExists(key, value);
  }
  Status ReadModifyWrite(
      const Slice& key,
      const std::function<std::string(const std::string&, bool)>& update)
      override {
    return inner_->ReadModifyWrite(key, update);
  }
  using kv::Engine::Scan;
  Status Scan(const kv::ReadOptions& options, const Slice& start, size_t limit,
              std::vector<std::pair<std::string, std::string>>* out) override {
    if (!Tracer::Get().armed()) return inner_->Scan(options, start, limit, out);
    EngineScope scope(EngineOp::kScan, shard_);
    scope.AddKey(start);
    scope.Start();
    return inner_->Scan(options, start, limit, out);
  }
  Status Flush() override { return inner_->Flush(); }
  void WaitIdle() override { inner_->WaitIdle(); }
  Status BackgroundError() const override { return inner_->BackgroundError(); }
  std::map<std::string, uint64_t> Stats() const override {
    return inner_->Stats();
  }

 private:
  std::unique_ptr<kv::Engine> inner_;
  int shard_;
};

struct ShardRegistry {
  std::mutex mu;
  bool traced = false;
  std::vector<kv::Engine*> shards;
};

ShardRegistry& Shards() {
  static ShardRegistry* r = new ShardRegistry();
  return *r;
}

// ShardRouter names shard directories "<dir>/shard-<i>".
int ShardIndexOf(const std::string& dir) {
  size_t p = dir.rfind("shard-");
  if (p == std::string::npos) return 0;
  return std::atoi(dir.c_str() + p + 6);
}

}  // namespace

void RegisterBenchEngine() {
  kv::RegisterEngine(
      "perfbench", [](const kv::CommonOptions& options, const std::string& dir,
                      std::unique_ptr<kv::Engine>* out) {
        std::unique_ptr<kv::Engine> inner;
        Status s = kv::Open("blsm", options, dir, &inner);
        if (!s.ok()) return s;
        int shard = ShardIndexOf(dir);
        ShardRegistry& r = Shards();
        std::lock_guard<std::mutex> l(r.mu);
        if (r.shards.size() <= static_cast<size_t>(shard)) {
          r.shards.resize(static_cast<size_t>(shard) + 1, nullptr);
        }
        r.shards[static_cast<size_t>(shard)] = inner.get();
        if (r.traced) {
          *out = std::make_unique<TracedEngine>(std::move(inner), shard);
        } else {
          *out = std::move(inner);
        }
        return Status::OK();
      });
}

void SetEngineTracing(bool on) {
  ShardRegistry& r = Shards();
  std::lock_guard<std::mutex> l(r.mu);
  r.traced = on;
}

std::vector<kv::Engine*> OpenedShards() {
  ShardRegistry& r = Shards();
  std::lock_guard<std::mutex> l(r.mu);
  return r.shards;
}

void ForgetShards() {
  ShardRegistry& r = Shards();
  std::lock_guard<std::mutex> l(r.mu);
  r.shards.clear();
}

// ---- Env decorator -------------------------------------------------------------

namespace {

FileClass ClassOf(const std::string& fname) {
  size_t slash = fname.rfind('/');
  std::string base = slash == std::string::npos ? fname : fname.substr(slash + 1);
  auto ends_with = [&](const char* suffix) {
    size_t n = std::strlen(suffix);
    return base.size() >= n && base.compare(base.size() - n, n, suffix) == 0;
  };
  // The WAL is rewritten beside itself ("<name>.log.new") and renamed over.
  if (ends_with(".log") || ends_with(".log.new")) return FileClass::kWal;
  if (ends_with(".tree")) return FileClass::kTree;
  if (base.rfind("MANIFEST", 0) == 0) return FileClass::kManifest;
  return FileClass::kOther;
}

// Times one file call and records it if the tracer is armed.
class IoScope {
 public:
  IoScope(FileClass cls, IoOp op) : armed_(Tracer::Get().armed()) {
    if (!armed_) return;
    span_.cls = cls;
    span_.op = op;
    span_.start = NowNs();
  }
  void set_bytes(uint64_t b) { span_.bytes = b; }
  void set_nreq(uint32_t n) { span_.nreq = n; }
  ~IoScope() {
    if (!armed_) return;
    span_.end = NowNs();
    ThreadTrace* t = Tracer::Get().ThisThread();
    int pri = blsm::engine::ScopedIoPriority::CurrentIndex();
    span_.priority = static_cast<int8_t>(pri);
    span_.parent = pri >= 0 ? kBackground : t->open_engine;
    t->env.push_back(span_);
  }
  IoScope(const IoScope&) = delete;
  IoScope& operator=(const IoScope&) = delete;

 private:
  bool armed_;
  EnvSpan span_;
};

class TracedSequentialFile final : public blsm::SequentialFile {
 public:
  TracedSequentialFile(std::unique_ptr<blsm::SequentialFile> base,
                       FileClass cls)
      : base_(std::move(base)), cls_(cls) {}
  Status Read(size_t n, Slice* result, char* scratch) override {
    IoScope io(cls_, IoOp::kSeqRead);
    Status s = base_->Read(n, result, scratch);
    io.set_bytes(result->size());
    return s;
  }
  Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  std::unique_ptr<blsm::SequentialFile> base_;
  FileClass cls_;
};

class TracedRandomAccessFile final : public blsm::RandomAccessFile {
 public:
  TracedRandomAccessFile(std::unique_ptr<blsm::RandomAccessFile> base,
                         FileClass cls)
      : base_(std::move(base)), cls_(cls) {}
  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    IoScope io(cls_, IoOp::kRead);
    Status s = base_->Read(offset, n, result, scratch);
    io.set_bytes(result->size());
    return s;
  }
  Status MultiRead(blsm::ReadRequest* reqs, size_t n) const override {
    IoScope io(cls_, IoOp::kMultiRead);
    Status s = base_->MultiRead(reqs, n);
    uint64_t bytes = 0;
    for (size_t i = 0; i < n; i++) bytes += reqs[i].result.size();
    io.set_bytes(bytes);
    io.set_nreq(static_cast<uint32_t>(n));
    return s;
  }
  void ReadAheadHint(uint64_t offset, uint64_t len) const override {
    base_->ReadAheadHint(offset, len);
  }

 private:
  std::unique_ptr<blsm::RandomAccessFile> base_;
  FileClass cls_;
};

class TracedWritableFile final : public blsm::WritableFile {
 public:
  TracedWritableFile(std::unique_ptr<blsm::WritableFile> base, FileClass cls)
      : base_(std::move(base)), cls_(cls) {}
  Status Append(const Slice& data) override {
    IoScope io(cls_, IoOp::kAppend);
    io.set_bytes(data.size());
    return base_->Append(data);
  }
  Status AppendV(const Slice* parts, size_t n) override {
    IoScope io(cls_, IoOp::kAppend);
    uint64_t bytes = 0;
    for (size_t i = 0; i < n; i++) bytes += parts[i].size();
    io.set_bytes(bytes);
    return base_->AppendV(parts, n);
  }
  size_t PreferredAppendAlignment() const override {
    return base_->PreferredAppendAlignment();
  }
  Status Flush() override {
    IoScope io(cls_, IoOp::kFlush);
    return base_->Flush();
  }
  Status Sync() override {
    IoScope io(cls_, IoOp::kSync);
    return base_->Sync();
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<blsm::WritableFile> base_;
  FileClass cls_;
};

class TracingEnv final : public Env {
 public:
  explicit TracingEnv(Env* base) : base_(base) {}

  Status NewSequentialFile(
      const std::string& fname,
      std::unique_ptr<blsm::SequentialFile>* result) override {
    std::unique_ptr<blsm::SequentialFile> f;
    Status s = base_->NewSequentialFile(fname, &f);
    if (s.ok()) {
      *result = std::make_unique<TracedSequentialFile>(std::move(f),
                                                       ClassOf(fname));
    }
    return s;
  }
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<blsm::RandomAccessFile>* result) override {
    std::unique_ptr<blsm::RandomAccessFile> f;
    Status s = base_->NewRandomAccessFile(fname, &f);
    if (s.ok()) {
      *result = std::make_unique<TracedRandomAccessFile>(std::move(f),
                                                         ClassOf(fname));
    }
    return s;
  }
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<blsm::WritableFile>* result) override {
    std::unique_ptr<blsm::WritableFile> f;
    Status s = base_->NewWritableFile(fname, &f);
    if (s.ok()) {
      *result =
          std::make_unique<TracedWritableFile>(std::move(f), ClassOf(fname));
    }
    return s;
  }
  Status NewRandomRWFile(const std::string& fname,
                         std::unique_ptr<blsm::RandomRWFile>* result) override {
    return base_->NewRandomRWFile(fname, result);
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  Status RemoveDir(const std::string& dirname) override {
    return base_->RemoveDir(dirname);
  }
  Status RemoveDirRecursive(const std::string& dirname) override {
    return base_->RemoveDirRecursive(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return base_->RenameFile(src, target);
  }
  uint64_t NowMicros() override { return base_->NowMicros(); }
  void SleepForMicroseconds(uint64_t micros) override {
    base_->SleepForMicroseconds(micros);
  }
  const blsm::EnvIoCounters* io_counters() const override {
    return base_->io_counters();
  }

 private:
  Env* base_;
};

}  // namespace

std::unique_ptr<Env> NewTracingEnv(Env* base) {
  return std::make_unique<TracingEnv>(base);
}

// Span file layout, all fields little-endian:
//   header  "PBSPANS1"
//   per thread: u32 tid | u64 n_engine | n_engine x engine record
//                       | u64 n_env | n_env x env record
//   engine record: u64 start_ns | u64 end_ns | u8 op | u8 shard | u32 nkeys
//                  | nkeys x u64 key hash
//   env record:    u64 start_ns | u64 end_ns | u64 bytes | u64 parent
//                  | u32 nreq | u8 file class | u8 op | i8 priority
// Parents are engine span ids (thread index << 32 | position), or
// 2^64-2 for background IO and 2^64-1 for none.
bool WriteSpans(const std::string& path,
                const std::vector<ThreadTrace*>& threads) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  auto put = [f](const void* p, size_t n) { std::fwrite(p, 1, n, f); };
  put("PBSPANS1", 8);
  for (const ThreadTrace* t : threads) {
    uint32_t tid = static_cast<uint32_t>(t->tid);
    put(&tid, 4);
    uint64_t n = t->engine.size();
    put(&n, 8);
    for (const EngineSpan& s : t->engine) {
      put(&s.start, 8);
      put(&s.end, 8);
      put(&s.op, 1);
      put(&s.shard, 1);
      put(&s.nkeys, 4);
      put(t->keys.data() + s.key_off, 8 * static_cast<size_t>(s.nkeys));
    }
    n = t->env.size();
    put(&n, 8);
    for (const EnvSpan& s : t->env) {
      put(&s.start, 8);
      put(&s.end, 8);
      put(&s.bytes, 8);
      put(&s.parent, 8);
      put(&s.nreq, 4);
      put(&s.cls, 1);
      put(&s.op, 1);
      put(&s.priority, 1);
    }
  }
  bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
