#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Spans recorded from outside the program, through seams it already has:
//
//   * an engine decorator, registered with kv::RegisterEngine under the name
//     "perfbench" and selected with ServerOptions::engine_spec, times every
//     engine call the server's shard workers make;
//   * an Env decorator, passed as CommonOptions::env, times every file call
//     and classifies it by file name (*.log is the WAL, *.tree a run,
//     MANIFEST* the manifest) and by the caller's background IO priority
//     (engine::ScopedIoPriority::CurrentIndex()).
//
// Spans go to per-thread buffers, only while the tracer is armed, and stay
// in memory until the benchmark analyses them and writes them out at exit.
// An Env span's parent is the engine span open on the same thread, or
// "background" when the thread carries an IO priority tag.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/kv.h"
#include "io/env.h"

namespace perfbench {

enum class EngineOp : uint8_t { kGet, kMultiGet, kWrite, kScan };
enum class FileClass : uint8_t { kWal, kTree, kManifest, kOther };
enum class IoOp : uint8_t { kRead, kMultiRead, kSeqRead, kAppend, kFlush,
                            kSync };

constexpr uint64_t kNoParent = ~0ull;
constexpr uint64_t kBackground = ~0ull - 1;

struct EngineSpan {
  uint64_t start = 0;
  uint64_t end = 0;
  uint32_t key_off = 0;  // into the owning ThreadTrace::keys
  uint32_t nkeys = 0;
  EngineOp op = EngineOp::kGet;
  uint8_t shard = 0;
};

struct EnvSpan {
  uint64_t start = 0;
  uint64_t end = 0;
  uint64_t bytes = 0;
  uint64_t parent = kNoParent;  // engine span id, kBackground or kNoParent
  uint32_t nreq = 1;            // requests in a MultiRead
  FileClass cls = FileClass::kOther;
  IoOp op = IoOp::kRead;
  int8_t priority = -1;  // engine::IoPriority index, -1 untagged
};

// One thread's spans. Owned by the Tracer, so they outlive the thread.
struct ThreadTrace {
  int tid = 0;
  uint32_t index = 0;
  std::vector<EngineSpan> engine;
  std::vector<uint64_t> keys;  // key hashes of engine spans
  std::vector<EnvSpan> env;
  uint64_t open_engine = kNoParent;  // id of the engine span in progress
};

// Engine span ids pack the recording thread and the span's position.
inline uint64_t EngineSpanId(uint32_t thread, size_t pos) {
  return (static_cast<uint64_t>(thread) << 32) | pos;
}

class Tracer {
 public:
  static Tracer& Get();

  void Arm(bool on) { armed_.store(on, std::memory_order_release); }
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  // The calling thread's buffer (registered on first use).
  ThreadTrace* ThisThread();
  // Every buffer; call only while no thread records.
  std::vector<ThreadTrace*> Threads();

 private:
  std::atomic<bool> armed_{false};
};

// Registers the "perfbench" engine factory. Each shard it opens is a plain
// "blsm" engine; with tracing on, it is wrapped in the timing decorator.
void RegisterBenchEngine();
void SetEngineTracing(bool on);
// The inner engines of the shards opened so far, by shard index; valid
// until the server stops.
std::vector<blsm::kv::Engine*> OpenedShards();
void ForgetShards();

// Env decorator that records EnvSpans while the tracer is armed.
std::unique_ptr<blsm::Env> NewTracingEnv(blsm::Env* base);

// Writes every span out in the binary layout documented in trace.cc; false
// on an IO error.
bool WriteSpans(const std::string& path,
                const std::vector<ThreadTrace*>& threads);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
