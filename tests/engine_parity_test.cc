// Engine parity: the same randomized operation sequence, driven through the
// kv::Engine interface, must leave every registered engine — bLSM, the
// multilevel tree, and the B-tree — with identical logical contents. This is
// the contract that makes the paper's head-to-head evaluation meaningful:
// the engines may differ in cost, never in answers.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/kv.h"
#include "io/mem_env.h"
#include "util/random.h"

namespace blsm {
namespace {

constexpr uint64_t kKeySpace = 200;  // small: overwrites and deletes collide
constexpr int kOps = 4000;

std::string KeyFor(uint64_t i) {
  char buf[24];
  snprintf(buf, sizeof(buf), "key%05llu", static_cast<unsigned long long>(i));
  return buf;
}

// Applies a seeded op mix through the unified interface, mirroring every
// acknowledged effect into `model`. All engines see the identical sequence
// because the rng is re-seeded per engine.
void ApplyWorkload(kv::Engine* engine, uint64_t seed,
                   std::map<std::string, std::string>* model) {
  Random rng(seed);
  for (int op = 0; op < kOps; op++) {
    std::string key = KeyFor(rng.Uniform(kKeySpace));
    uint64_t roll = rng.Uniform(100);
    if (roll < 50) {
      std::string value = "v" + std::to_string(rng.Uniform(1000000));
      ASSERT_TRUE(engine->Put(key, value).ok());
      (*model)[key] = value;
    } else if (roll < 65) {
      ASSERT_TRUE(engine->Delete(key).ok());
      model->erase(key);
    } else if (roll < 80) {
      std::string value = "i" + std::to_string(rng.Uniform(1000000));
      Status s = engine->InsertIfNotExists(key, value);
      if (model->count(key)) {
        ASSERT_TRUE(s.IsKeyExists()) << key << ": " << s.ToString();
      } else {
        ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
        (*model)[key] = value;
      }
    } else if (roll < 90) {
      std::string appended;
      Status s = engine->ReadModifyWrite(
          key, [&](const std::string& old, bool absent) {
            appended = (absent ? std::string("rmw") : old) + "+";
            return appended;
          });
      ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
      (*model)[key] = appended;
    } else if (roll < 95) {
      std::string value;
      Status s = engine->Get(key, &value);
      if (model->count(key)) {
        ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
        ASSERT_EQ(value, (*model)[key]) << key;
      } else {
        ASSERT_TRUE(s.IsNotFound()) << key << ": " << s.ToString();
      }
    } else if (op % 2 == 0) {
      ASSERT_TRUE(engine->Flush().ok());  // force spills mid-sequence
    }
  }
}

// Point reads over the whole key space plus full and mid-space scans must
// reproduce the model exactly.
void VerifyAgainstModel(kv::Engine* engine,
                        const std::map<std::string, std::string>& model) {
  for (uint64_t i = 0; i < kKeySpace; i++) {
    std::string key = KeyFor(i);
    std::string value;
    Status s = engine->Get(key, &value);
    auto it = model.find(key);
    if (it == model.end()) {
      ASSERT_TRUE(s.IsNotFound())
          << engine->Name() << " " << key << ": " << s.ToString();
    } else {
      ASSERT_TRUE(s.ok()) << engine->Name() << " " << key << ": "
                          << s.ToString();
      ASSERT_EQ(value, it->second) << engine->Name() << " " << key;
    }
  }

  // MultiGet over the whole key space (unsorted input, one duplicate) must
  // agree with the per-key Gets above.
  std::vector<std::string> mg_keys;
  for (uint64_t i = 0; i < kKeySpace; i++) {
    mg_keys.push_back(KeyFor((i * 37 + 11) % kKeySpace));  // shuffled order
  }
  mg_keys.push_back(mg_keys.front());
  std::vector<Slice> mg_slices(mg_keys.begin(), mg_keys.end());
  std::vector<std::string> mg_values;
  std::vector<Status> mg_statuses = engine->MultiGet(mg_slices, &mg_values);
  ASSERT_EQ(mg_statuses.size(), mg_keys.size()) << engine->Name();
  ASSERT_EQ(mg_values.size(), mg_keys.size()) << engine->Name();
  for (size_t i = 0; i < mg_keys.size(); i++) {
    auto it = model.find(mg_keys[i]);
    if (it == model.end()) {
      ASSERT_TRUE(mg_statuses[i].IsNotFound())
          << engine->Name() << " " << mg_keys[i] << ": "
          << mg_statuses[i].ToString();
    } else {
      ASSERT_TRUE(mg_statuses[i].ok())
          << engine->Name() << " " << mg_keys[i] << ": "
          << mg_statuses[i].ToString();
      ASSERT_EQ(mg_values[i], it->second)
          << engine->Name() << " " << mg_keys[i];
    }
  }

  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(engine->Scan("", kKeySpace + 1, &rows).ok()) << engine->Name();
  ASSERT_EQ(rows.size(), model.size()) << engine->Name();
  auto it = model.begin();
  for (size_t i = 0; i < rows.size(); i++, ++it) {
    EXPECT_EQ(rows[i].first, it->first) << engine->Name() << " row " << i;
    EXPECT_EQ(rows[i].second, it->second) << engine->Name() << " row " << i;
  }

  // A scan starting mid-space returns the model's suffix, bounded by limit.
  std::string mid = KeyFor(kKeySpace / 2);
  rows.clear();
  ASSERT_TRUE(engine->Scan(mid, 10, &rows).ok()) << engine->Name();
  auto mit = model.lower_bound(mid);
  for (const auto& [key, value] : rows) {
    ASSERT_TRUE(mit != model.end()) << engine->Name();
    EXPECT_EQ(key, mit->first) << engine->Name();
    EXPECT_EQ(value, mit->second) << engine->Name();
    ++mit;
  }
  size_t expected = std::min<size_t>(
      10, static_cast<size_t>(std::distance(model.lower_bound(mid),
                                            model.end())));
  EXPECT_EQ(rows.size(), expected) << engine->Name();
}

class EngineParityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineParityTest, RandomizedOpsMatchModel) {
  const std::string& name = GetParam();
  MemEnv env;
  kv::CommonOptions options;
  options.env = &env;
  options.write_buffer_bytes = 32 << 10;  // small: force flushes and merges
  options.durability = DurabilityMode::kNone;

  std::unique_ptr<kv::Engine> engine;
  ASSERT_TRUE(kv::Open(name, options, "db", &engine).ok());

  std::map<std::string, std::string> model;
  ApplyWorkload(engine.get(), /*seed=*/42, &model);
  VerifyAgainstModel(engine.get(), model);

  // Push everything to its durable form and re-verify: flushes, merges, and
  // compactions must not change answers.
  ASSERT_TRUE(engine->Flush().ok());
  engine->WaitIdle();
  ASSERT_TRUE(engine->BackgroundError().ok());
  VerifyAgainstModel(engine.get(), model);

  // Stats must at least have counted the traffic. The LSM engines must
  // also prove the lock-free read path actually ran: every Get/MultiGet
  // pins a published ReadView, and the batched MultiGets above counted.
  auto stats = engine->Stats();
  EXPECT_FALSE(stats.empty()) << name;
  if (name == "blsm" || name == "multilevel") {
    ASSERT_TRUE(stats.count("read.views_pinned")) << name;
    EXPECT_GT(stats["read.views_pinned"], 0u) << name;
    ASSERT_TRUE(stats.count("read.multiget_batches")) << name;
    EXPECT_GT(stats["read.multiget_batches"], 0u) << name;
    ASSERT_TRUE(stats.count("read.blocks_coalesced")) << name;
    // Whole-keyspace MultiGets over merged runs must have reused decoded
    // blocks for adjacent sorted probes — both engines share one batched
    // read path.
    EXPECT_GT(stats["read.blocks_coalesced"], 0u) << name;
    ASSERT_TRUE(stats.count("read.run_probes")) << name;
    EXPECT_GT(stats["read.run_probes"], 0u) << name;
  }
}

// Stats() must be safe to call while writers are running: the counters it
// reads (e.g. the B-tree's num_entries/height, the LSMs' merge gauges) are
// mutated under each engine's locks, and an unguarded read is a data race
// even when the torn value "looks fine". Regression test for the unguarded
// BTree accessors; under TSan this is the lane that catches backsliding.
TEST_P(EngineParityTest, StatsConcurrentWithWriters) {
  const std::string& name = GetParam();
  MemEnv env;
  kv::CommonOptions options;
  options.env = &env;
  options.write_buffer_bytes = 32 << 10;
  options.durability = DurabilityMode::kNone;

  std::unique_ptr<kv::Engine> engine;
  ASSERT_TRUE(kv::Open(name, options, "db", &engine).ok());

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 500;
  std::atomic<bool> stop{false};
  std::atomic<int> write_failures{0};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; w++) {
    writers.emplace_back([&, w] {
      Random rng(1000 + static_cast<uint64_t>(w));
      for (int i = 0; i < kPerWriter; i++) {
        std::string key = KeyFor(rng.Uniform(kKeySpace));
        std::string value = "w" + std::to_string(w) + ":" + std::to_string(i);
        if (rng.OneIn(10)) {
          if (!engine->Delete(key).ok()) write_failures++;
        } else {
          if (!engine->Put(key, value).ok()) write_failures++;
        }
      }
    });
  }

  // Stats reader: hammers every engine's counter surface while the writers
  // run. The assertion is absence of crashes/races (TSan) and that the
  // stats map stays well-formed.
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto stats = engine->Stats();
      EXPECT_FALSE(stats.empty());
    }
  });

  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(write_failures.load(), 0);
  ASSERT_TRUE(engine->Flush().ok());
  engine->WaitIdle();
  ASSERT_TRUE(engine->BackgroundError().ok());
  auto stats = engine->Stats();
  EXPECT_FALSE(stats.empty()) << name;
}

// Every engine, same seed → byte-identical models, so transitively every
// engine agrees with every other.
INSTANTIATE_TEST_SUITE_P(AllEngines, EngineParityTest,
                         ::testing::ValuesIn(kv::EngineNames()),
                         [](const auto& info) { return info.param; });

// The registry itself: unknown names fail cleanly, all built-ins are there.
TEST(EngineRegistryTest, BuiltinsRegisteredUnknownRejected) {
  auto names = kv::EngineNames();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "blsm");
  EXPECT_EQ(names[1], "btree");
  EXPECT_EQ(names[2], "multilevel");

  MemEnv env;
  kv::CommonOptions options;
  options.env = &env;
  std::unique_ptr<kv::Engine> engine;
  Status s = kv::Open("no-such-engine", options, "x", &engine);
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
}

// "name:variant" selects a compaction policy inline; bad variants and
// variant specs on engines without the axis fail InvalidArgument.
TEST(EngineRegistryTest, VariantSyntaxSelectsCompactionPolicy) {
  MemEnv env;
  kv::CommonOptions options;
  options.env = &env;
  options.durability = DurabilityMode::kNone;

  std::unique_ptr<kv::Engine> engine;
  ASSERT_TRUE(kv::Open("multilevel:tiering", options, "db", &engine).ok());
  auto stats = engine->Stats();
  ASSERT_TRUE(stats.count("compaction.policy"));
  EXPECT_EQ(stats["compaction.policy"], 1u);  // CompactionLayout::kTiering
  engine.reset();

  Status s = kv::Open("multilevel:no-such-policy", options, "db2", &engine);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();

  // Unregistered base name still reports NotFound, not a parse error.
  s = kv::Open("bogus:tiering", options, "db3", &engine);
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();

  // Non-multilevel engines have no compaction-policy axis.
  s = kv::Open("blsm:tiering", options, "db4", &engine);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  s = kv::Open("btree:leveling", options, "db5", &engine);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();

  // A variant conflicting with an explicit options spec is rejected.
  options.compaction_policy = "leveling";
  s = kv::Open("multilevel:tiering", options, "db6", &engine);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

// Every compaction policy must answer identically: the same seeded op
// sequence against the model map, across multiple epochs each ending in a
// simulated crash (drop unsynced bytes) and recovery. kSync durability makes
// acknowledged writes the recovery contract.
class CompactionPolicyParityTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(CompactionPolicyParityTest, SeededOpsAndCrashRecoveryMatchModel) {
  const std::string spec = GetParam();
  MemEnv env;
  kv::CommonOptions options;
  options.env = &env;
  options.write_buffer_bytes = 32 << 10;  // small: force flushes and spills
  options.durability = DurabilityMode::kSync;
  options.compaction_policy = spec;

  std::map<std::string, std::string> model;
  constexpr int kEpochs = 3;
  for (int epoch = 0; epoch < kEpochs; epoch++) {
    std::unique_ptr<kv::Engine> engine;
    ASSERT_TRUE(kv::Open("multilevel", options, "db", &engine).ok())
        << spec << " epoch " << epoch;
    VerifyAgainstModel(engine.get(), model);  // recovery kept everything
    ApplyWorkload(engine.get(), /*seed=*/1000 + epoch, &model);
    ASSERT_TRUE(engine->BackgroundError().ok()) << spec;
    VerifyAgainstModel(engine.get(), model);
    // Crash: release the engine mid-shape (whatever L0 pile / tiered runs
    // exist right now), then drop everything not yet synced.
    engine.reset();
    env.DropUnsynced();
  }

  // One final reopen, fully compacted, re-verified — and the manifest must
  // still name the layout we ran.
  std::unique_ptr<kv::Engine> engine;
  ASSERT_TRUE(kv::Open("multilevel", options, "db", &engine).ok()) << spec;
  ASSERT_TRUE(engine->Flush().ok()) << spec;
  engine->WaitIdle();
  ASSERT_TRUE(engine->BackgroundError().ok()) << spec;
  VerifyAgainstModel(engine.get(), model);
  engine.reset();

  // Reopening under a different data layout is refused: a sorted-level
  // reader cannot probe tiered runs (and vice versa loses the invariant).
  kv::CommonOptions wrong = options;
  wrong.compaction_policy = spec == "tiering" ? "leveling" : "tiering";
  Status s = kv::Open("multilevel", wrong, "db", &engine);
  EXPECT_TRUE(s.IsInvalidArgument()) << spec << ": " << s.ToString();

  // A read-only open adopts the manifest's recorded config instead.
  kv::CommonOptions ro = options;
  ro.compaction_policy.clear();
  ro.read_only = true;
  ASSERT_TRUE(kv::Open("multilevel", ro, "db", &engine).ok()) << spec;
  VerifyAgainstModel(engine.get(), model);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CompactionPolicyParityTest,
                         ::testing::Values("leveling", "leveling-whole",
                                           "tiering", "lazy-leveling"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace blsm
