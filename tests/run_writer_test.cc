// The shared run writer (lsm/run_writer.h): one collapse-and-build loop for
// the bLSM merges and the multilevel flushes/compactions. Output must not
// depend on how it is built, failures and abandonment must leave nothing on
// disk, and the byte accounting must be what the engine stats report. Also
// covers the orphan scavenge both engines run at Open.

#include "lsm/run_writer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "io/fault_injection_env.h"
#include "io/mem_env.h"
#include "lsm/blsm_tree.h"
#include "memtable/memtable.h"
#include "multilevel/multilevel_tree.h"
#include "util/random.h"

namespace blsm {
namespace {

std::string Key(uint64_t i) {
  char buf[24];
  snprintf(buf, sizeof(buf), "key%08llu", static_cast<unsigned long long>(i));
  return buf;
}

// A memtable with several versions per key: overwritten bases, deltas on
// top of bases, tombstones, and delta-only chains.
std::shared_ptr<MemTable> MakeInput(uint64_t keys) {
  auto mem = std::make_shared<MemTable>();
  Random rnd(301);
  SequenceNumber seq = 1;
  for (uint64_t i = 0; i < keys; i++) {
    std::string value(50 + rnd.Uniform(100), static_cast<char>('a' + i % 26));
    switch (i % 5) {
      case 0:
        mem->Add(seq++, RecordType::kBase, Key(i), "old" + value);
        mem->Add(seq++, RecordType::kBase, Key(i), value);
        break;
      case 1:
        mem->Add(seq++, RecordType::kBase, Key(i), value);
        mem->Add(seq++, RecordType::kDelta, Key(i), "+d");
        break;
      case 2:
        mem->Add(seq++, RecordType::kBase, Key(i), value);
        mem->Add(seq++, RecordType::kTombstone, Key(i), "");
        break;
      case 3:
        mem->Add(seq++, RecordType::kDelta, Key(i), "+x");
        mem->Add(seq++, RecordType::kDelta, Key(i), "+y");
        break;
      default:
        mem->Add(seq++, RecordType::kBase, Key(i), value);
        break;
    }
  }
  return mem;
}

std::vector<std::unique_ptr<InternalIterator>> Inputs(
    const std::shared_ptr<MemTable>& mem) {
  std::vector<std::unique_ptr<InternalIterator>> inputs;
  inputs.push_back(NewMemTableIterator(mem));
  return inputs;
}

// What CollapseGroup charges for the whole input: the stats'
// compaction_bytes and the schedulers' inprogress numerator.
uint64_t InputBytes(const std::shared_ptr<MemTable>& mem) {
  uint64_t bytes = 0;
  auto it = NewMemTableIterator(mem);
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    bytes += it->key().size() + it->value().size() + 8;
  }
  return bytes;
}

std::vector<std::string> RunFiles(Env* env, const std::string& dir,
                                  const std::string& suffix) {
  std::vector<std::string> children, out;
  EXPECT_TRUE(env->GetChildren(dir, &children).ok());
  for (const std::string& name : children) {
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      out.push_back(name);
    }
  }
  return out;
}

// Every record of `run`, as "ikey=value" lines.
std::vector<std::string> Contents(const Run& run) {
  std::vector<std::string> out;
  auto it = NewTreeComponentIterator(run.reader.get(), /*sequential=*/true);
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    out.push_back(it->key().ToString() + "=" + it->value().ToString());
  }
  EXPECT_TRUE(it->status().ok());
  return out;
}

// Uncapped with write-behind is how bLSM merges write; the capped modes are
// the multilevel serial and partition-parallel builds.
struct Mode {
  const char* name;
  size_t cap;
  int threads;
  bool write_behind;
};
const Mode kModes[] = {{"uncapped", 0, 1, true},
                       {"capped-1", 8 << 10, 1, false},
                       {"capped-2", 8 << 10, 2, false}};

class RunWriterTest : public ::testing::Test {
 protected:
  // Writer options for files in `dir`, numbered from 100.
  RunWriterOptions Options(Env* env, const Mode& mode,
                           const std::string& dir = "out") {
    EXPECT_TRUE(mem_env_.CreateDir(dir).ok());
    RunWriterOptions o;
    o.env = env;
    o.new_file_number = [this] { return next_number_++; };
    o.file_name = [dir](uint64_t n) {
      return dir + "/" + std::to_string(n) + ".run";
    };
    o.block_size = 1024;
    o.merge_op = &merge_op_;
    o.file_bytes_cap = mode.cap;
    o.builder_threads = mode.threads;
    o.write_behind = mode.write_behind;
    next_number_ = 100;
    return o;
  }

  MemEnv mem_env_;
  AppendMergeOperator merge_op_;
  uint64_t next_number_ = 100;
};

TEST_F(RunWriterTest, OutputDoesNotDependOnBuildMode) {
  auto mem = MakeInput(3000);
  std::vector<std::string> all_records[3];
  std::vector<RunWriteResult> results(3);
  std::vector<std::vector<std::string>> file_bytes(3);
  for (int m = 0; m < 3; m++) {
    SCOPED_TRACE(kModes[m].name);
    RunWriteResult& r = results[m];
    ASSERT_TRUE(WriteRuns(Options(&mem_env_, kModes[m], kModes[m].name),
                          Inputs(mem), &r)
                    .ok());
    ASSERT_FALSE(r.runs.empty());
    EXPECT_FALSE(r.abandoned);
    for (const RunPtr& run : r.runs) {
      for (std::string& rec : Contents(*run)) {
        all_records[m].push_back(std::move(rec));
      }
      std::string data;
      ASSERT_TRUE(ReadFileToString(&mem_env_, run->fname, &data).ok());
      file_bytes[m].push_back(std::move(data));
    }
  }
  // Capped with one builder (streamed) and with two (buffered, built in
  // parallel) cut the same files under the same numbers, byte for byte.
  const RunWriteResult& serial = results[1];
  const RunWriteResult& parallel = results[2];
  ASSERT_GT(serial.runs.size(), 3u);
  ASSERT_EQ(serial.runs.size(), parallel.runs.size());
  for (size_t i = 0; i < serial.runs.size(); i++) {
    EXPECT_EQ(serial.runs[i]->number, 100 + i);
    EXPECT_EQ(parallel.runs[i]->number, serial.runs[i]->number);
    EXPECT_EQ(parallel.runs[i]->smallest, serial.runs[i]->smallest);
    EXPECT_EQ(parallel.runs[i]->largest, serial.runs[i]->largest);
    EXPECT_EQ(file_bytes[2][i], file_bytes[1][i]) << "file " << i;
    if (i > 0) {
      EXPECT_LT(serial.runs[i - 1]->largest, serial.runs[i]->smallest);
    }
  }
  EXPECT_EQ(serial.parallel_builds, 0u);
  EXPECT_EQ(parallel.parallel_builds, parallel.runs.size());

  // The uncapped run holds the same records over the same key range.
  const RunWriteResult& whole = results[0];
  ASSERT_EQ(whole.runs.size(), 1u);
  EXPECT_EQ(whole.runs[0]->number, 100u);
  EXPECT_EQ(whole.runs[0]->smallest, serial.runs.front()->smallest);
  EXPECT_EQ(whole.runs[0]->largest, serial.runs.back()->largest);
  EXPECT_EQ(all_records[0], all_records[1]);
  EXPECT_EQ(all_records[0], all_records[2]);
  // Non-bottom collapse keeps one record per key, tombstones included.
  EXPECT_EQ(all_records[0].size(), 3000u);
}

TEST_F(RunWriterTest, UncappedOutputNeverBuffers) {
  auto mem = MakeInput(1000);
  RunWriteResult r;
  ASSERT_TRUE(
      WriteRuns(Options(&mem_env_, {"uncapped-4", 0, 4, false}), Inputs(mem),
                &r)
          .ok());
  ASSERT_EQ(r.runs.size(), 1u);
  EXPECT_EQ(r.parallel_builds, 0u);
}

TEST_F(RunWriterTest, ByteAccountingMatchesEngineStats) {
  auto mem = MakeInput(2000);
  const uint64_t input_bytes = InputBytes(mem);
  for (const Mode& mode : kModes) {
    SCOPED_TRACE(mode.name);
    std::atomic<uint64_t> published{0};
    RunWriterOptions o = Options(&mem_env_, mode);
    o.consumed = &published;
    RunWriteResult r;
    ASSERT_TRUE(WriteRuns(o, Inputs(mem), &r).ok());
    // compaction_bytes and the schedulers' inprogress: encoded input bytes.
    EXPECT_EQ(r.bytes_consumed, input_bytes);
    EXPECT_EQ(published.load(), input_bytes);
    // merge{1,2}_bytes_out: whole files, index, Bloom filter and footer
    // included. compaction.write_bytes_l*: data blocks only.
    uint64_t file_total = 0;
    for (const RunPtr& run : r.runs) {
      uint64_t size = 0;
      ASSERT_TRUE(mem_env_.GetFileSize(run->fname, &size).ok());
      file_total += size;
      EXPECT_EQ(run->data_bytes, run->reader->data_bytes());
      EXPECT_LT(run->data_bytes, size);
    }
    EXPECT_EQ(r.bytes_written, file_total);
    for (const RunPtr& run : r.runs) run->obsolete.store(true);
  }
  EXPECT_TRUE(RunFiles(&mem_env_, "out", ".run").empty());
}

TEST_F(RunWriterTest, BottomCollapseCanEmitNothing) {
  auto mem = std::make_shared<MemTable>();
  mem->Add(2, RecordType::kTombstone, "a", "");
  mem->Add(1, RecordType::kBase, "a", "v");
  RunWriterOptions o = Options(&mem_env_, kModes[0]);
  o.bottom = true;
  RunWriteResult r;
  ASSERT_TRUE(WriteRuns(o, Inputs(mem), &r).ok());
  EXPECT_TRUE(r.runs.empty());
  EXPECT_EQ(r.bytes_written, 0u);
  EXPECT_GT(r.bytes_consumed, 0u);
  EXPECT_TRUE(RunFiles(&mem_env_, "out", ".run").empty());
}

TEST_F(RunWriterTest, AppendFailureReturnsErrorAndLeavesNoFile) {
  auto mem = MakeInput(3000);
  for (const Mode& mode : kModes) {
    SCOPED_TRACE(mode.name);
    FaultInjectionEnv fault(&mem_env_);
    FaultPolicy policy;
    policy.seed = 7;
    policy.write_error_prob = 0.3;  // several appends per mode: fails mid-run
    fault.SetPolicy(policy);
    RunWriteResult r;
    Status s = WriteRuns(Options(&fault, mode), Inputs(mem), &r);
    EXPECT_TRUE(s.IsIOError()) << s.ToString();
    EXPECT_GT(fault.faults_injected(), 0u);
    EXPECT_TRUE(r.runs.empty());
    EXPECT_EQ(r.bytes_written, 0u);
    EXPECT_TRUE(RunFiles(&mem_env_, "out", ".run").empty());
  }
}

TEST_F(RunWriterTest, YieldFalseAbandonsAndLeavesNoFile) {
  auto mem = MakeInput(3000);
  for (const Mode& mode : kModes) {
    SCOPED_TRACE(mode.name);
    RunWriterOptions o = Options(&mem_env_, mode);
    int calls = 0;
    o.yield_every = 100;
    o.yield = [&calls] { return ++calls < 20; };  // past several files
    RunWriteResult r;
    ASSERT_TRUE(WriteRuns(o, Inputs(mem), &r).ok());
    EXPECT_TRUE(r.abandoned);
    EXPECT_EQ(calls, 20);
    EXPECT_TRUE(r.runs.empty());
    EXPECT_TRUE(RunFiles(&mem_env_, "out", ".run").empty());
  }
}

TEST_F(RunWriterTest, ManifestWriterSkipsOlderSnapshots) {
  ManifestWriter writer;
  ASSERT_TRUE(writer.Save(&mem_env_, "out/M", "two", 2).ok());
  ASSERT_TRUE(writer.Save(&mem_env_, "out/M", "one", 1).ok());
  std::string body;
  ASSERT_TRUE(ReadFileToString(&mem_env_, "out/M", &body).ok());
  EXPECT_EQ(body, "two");
  ASSERT_TRUE(writer.Save(&mem_env_, "out/M", "three", 3).ok());
  ASSERT_TRUE(ReadFileToString(&mem_env_, "out/M", &body).ok());
  EXPECT_EQ(body, "three");
  EXPECT_FALSE(mem_env_.FileExists("out/M.tmp"));
}

// The engines charge what the writer reports: a bLSM merge its whole output
// file, a multilevel flush the run's data blocks.
TEST(RunWriterEngineTest, EngineStatsCountWriterBytes) {
  MemEnv env;
  {
    BlsmOptions o;
    o.env = &env;
    std::unique_ptr<BlsmTree> tree;
    ASSERT_TRUE(BlsmTree::Open(o, "b", &tree).ok());
    for (int i = 0; i < 500; i++) ASSERT_TRUE(tree->Put(Key(i), "v").ok());
    ASSERT_TRUE(tree->Flush().ok());
    std::vector<std::string> runs = RunFiles(&env, "b", ".tree");
    ASSERT_EQ(runs.size(), 1u);
    uint64_t size = 0;
    ASSERT_TRUE(env.GetFileSize("b/" + runs[0], &size).ok());
    EXPECT_EQ(tree->stats().merge1_bytes_out.load(), size);
    EXPECT_EQ(tree->stats().merge2_bytes_out.load(), 0u);
  }
  {
    multilevel::MultilevelOptions o;
    o.env = &env;
    std::unique_ptr<multilevel::MultilevelTree> tree;
    ASSERT_TRUE(multilevel::MultilevelTree::Open(o, "m", &tree).ok());
    for (int i = 0; i < 500; i++) ASSERT_TRUE(tree->Put(Key(i), "v").ok());
    ASSERT_TRUE(tree->CompactAll().ok());  // one L0 run, under the trigger
    ASSERT_EQ(tree->NumFilesAtLevel(0), 1);
    EXPECT_EQ(tree->stats().level_write_bytes[0].load(),
              tree->BytesAtLevel(0));
    EXPECT_GT(tree->stats().compaction_bytes.load(),
              tree->BytesAtLevel(0) / 2);
    EXPECT_EQ(tree->stats().parallel_output_builds.load(), 0u);
  }
}

// --- orphan scavenge at Open, both LSM engines -------------------------------

struct EngineProbe {
  const char* name;
  const char* suffix;  // run file names: <number><suffix>
  // Writes a few keys into at least one run of "db", then closes.
  std::function<void(Env*)> populate;
  // Opens "db" (read-only if asked) and reports orphans_scavenged and
  // whether a populated key still reads back.
  std::function<void(Env*, bool read_only, uint64_t* scavenged,
                     bool* readable)>
      reopen;
};

std::vector<EngineProbe> Engines() {
  EngineProbe blsm{"blsm", ".tree", nullptr, nullptr};
  blsm.populate = [](Env* env) {
    BlsmOptions o;
    o.env = env;
    std::unique_ptr<BlsmTree> tree;
    ASSERT_TRUE(BlsmTree::Open(o, "db", &tree).ok());
    for (int i = 0; i < 100; i++) ASSERT_TRUE(tree->Put(Key(i), "v").ok());
    ASSERT_TRUE(tree->Flush().ok());
  };
  blsm.reopen = [](Env* env, bool read_only, uint64_t* scavenged,
                   bool* readable) {
    BlsmOptions o;
    o.env = env;
    o.read_only = read_only;
    std::unique_ptr<BlsmTree> tree;
    ASSERT_TRUE(BlsmTree::Open(o, "db", &tree).ok());
    *scavenged = tree->stats().orphans_scavenged.load();
    std::string value;
    *readable = tree->Get(Key(0), &value).ok() && value == "v";
  };
  EngineProbe ml{"multilevel", ".run", nullptr, nullptr};
  ml.populate = [](Env* env) {
    multilevel::MultilevelOptions o;
    o.env = env;
    std::unique_ptr<multilevel::MultilevelTree> tree;
    ASSERT_TRUE(multilevel::MultilevelTree::Open(o, "db", &tree).ok());
    for (int i = 0; i < 100; i++) ASSERT_TRUE(tree->Put(Key(i), "v").ok());
    ASSERT_TRUE(tree->CompactAll().ok());
  };
  ml.reopen = [](Env* env, bool read_only, uint64_t* scavenged,
                 bool* readable) {
    multilevel::MultilevelOptions o;
    o.env = env;
    o.read_only = read_only;
    std::unique_ptr<multilevel::MultilevelTree> tree;
    ASSERT_TRUE(multilevel::MultilevelTree::Open(o, "db", &tree).ok());
    *scavenged = tree->stats().orphans_scavenged.load();
    std::string value;
    *readable = tree->Get(Key(0), &value).ok() && value == "v";
  };
  return {blsm, ml};
}

TEST(OrphanScavengeTest, OpenDeletesOnlyUnreferencedRuns) {
  for (const EngineProbe& engine : Engines()) {
    SCOPED_TRACE(engine.name);
    MemEnv env;
    engine.populate(&env);
    const std::vector<std::string> live = RunFiles(&env, "db", engine.suffix);
    ASSERT_FALSE(live.empty());

    const std::string stray = std::string("db/999999") + engine.suffix;
    ASSERT_TRUE(WriteStringToFile(&env, "leftover", stray, false).ok());
    ASSERT_TRUE(WriteStringToFile(&env, "keep", "db/notes.txt", false).ok());

    uint64_t scavenged = 0;
    bool readable = false;
    // A read-only open deletes nothing.
    engine.reopen(&env, /*read_only=*/true, &scavenged, &readable);
    EXPECT_EQ(scavenged, 0u);
    EXPECT_TRUE(readable);
    EXPECT_TRUE(env.FileExists(stray));

    engine.reopen(&env, /*read_only=*/false, &scavenged, &readable);
    EXPECT_EQ(scavenged, 1u);
    EXPECT_TRUE(readable);
    EXPECT_FALSE(env.FileExists(stray));
    EXPECT_TRUE(env.FileExists("db/notes.txt"));
    for (const std::string& name : live) {
      EXPECT_TRUE(env.FileExists("db/" + name)) << name;
    }
  }
}

}  // namespace
}  // namespace blsm
