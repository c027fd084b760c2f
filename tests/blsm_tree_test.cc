#include "lsm/blsm_tree.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "io/counting_env.h"
#include "io/mem_env.h"
#include "util/random.h"

namespace blsm {
namespace {

std::string PaddedKey(uint64_t i) {
  char buf[24];
  snprintf(buf, sizeof(buf), "user%012llu",
           static_cast<unsigned long long>(i));
  return buf;
}

// Parameterized over the three schedulers x snowshovel on/off: the whole
// public API must behave identically; only performance differs.
struct TreeConfig {
  SchedulerKind scheduler;
  bool snowshovel;
};

class BlsmTreeTest : public ::testing::TestWithParam<TreeConfig> {
 protected:
  void SetUp() override {
    env_ = std::make_unique<MemEnv>();
    counting_ = std::make_unique<CountingEnv>(env_.get(), &stats_);
    Reopen();
  }

  void TearDown() override { tree_.reset(); }

  BlsmOptions MakeOptions() {
    BlsmOptions options;
    options.env = counting_.get();
    options.c0_target_bytes = 256 << 10;  // small: forces real merges
    options.scheduler = GetParam().scheduler;
    options.snowshovel = GetParam().snowshovel;
    options.durability = DurabilityMode::kSync;
    return options;
  }

  void Reopen() {
    tree_.reset();
    ASSERT_TRUE(BlsmTree::Open(MakeOptions(), "db", &tree_).ok());
  }

  std::unique_ptr<MemEnv> env_;
  IoStats stats_;
  std::unique_ptr<CountingEnv> counting_;
  std::unique_ptr<BlsmTree> tree_;
};

TEST_P(BlsmTreeTest, EmptyGet) {
  std::string value;
  EXPECT_TRUE(tree_->Get("missing", &value).IsNotFound());
}

TEST_P(BlsmTreeTest, PutGet) {
  ASSERT_TRUE(tree_->Put("k", "v").ok());
  std::string value;
  ASSERT_TRUE(tree_->Get("k", &value).ok());
  EXPECT_EQ(value, "v");
}

TEST_P(BlsmTreeTest, OverwriteTakesNewest) {
  ASSERT_TRUE(tree_->Put("k", "v1").ok());
  ASSERT_TRUE(tree_->Put("k", "v2").ok());
  std::string value;
  ASSERT_TRUE(tree_->Get("k", &value).ok());
  EXPECT_EQ(value, "v2");
}

TEST_P(BlsmTreeTest, DeleteHidesValue) {
  ASSERT_TRUE(tree_->Put("k", "v").ok());
  ASSERT_TRUE(tree_->Delete("k").ok());
  std::string value;
  EXPECT_TRUE(tree_->Get("k", &value).IsNotFound());
  // Re-insert after delete.
  ASSERT_TRUE(tree_->Put("k", "v2").ok());
  ASSERT_TRUE(tree_->Get("k", &value).ok());
  EXPECT_EQ(value, "v2");
}

TEST_P(BlsmTreeTest, DeltasApplyInOrder) {
  ASSERT_TRUE(tree_->Put("k", "base").ok());
  ASSERT_TRUE(tree_->WriteDelta("k", "+1").ok());
  ASSERT_TRUE(tree_->WriteDelta("k", "+2").ok());
  std::string value;
  ASSERT_TRUE(tree_->Get("k", &value).ok());
  EXPECT_EQ(value, "base+1+2");
}

TEST_P(BlsmTreeTest, DeltaWithoutBase) {
  ASSERT_TRUE(tree_->WriteDelta("k", "solo").ok());
  std::string value;
  ASSERT_TRUE(tree_->Get("k", &value).ok());
  EXPECT_EQ(value, "solo");
}

TEST_P(BlsmTreeTest, DeltaAfterDeleteStartsFresh) {
  ASSERT_TRUE(tree_->Put("k", "base").ok());
  ASSERT_TRUE(tree_->Delete("k").ok());
  ASSERT_TRUE(tree_->WriteDelta("k", "new").ok());
  std::string value;
  ASSERT_TRUE(tree_->Get("k", &value).ok());
  EXPECT_EQ(value, "new");
}

TEST_P(BlsmTreeTest, InsertIfNotExists) {
  EXPECT_TRUE(tree_->InsertIfNotExists("k", "first").ok());
  EXPECT_TRUE(tree_->InsertIfNotExists("k", "second").IsKeyExists());
  std::string value;
  ASSERT_TRUE(tree_->Get("k", &value).ok());
  EXPECT_EQ(value, "first");
  // After a delete the key is insertable again.
  ASSERT_TRUE(tree_->Delete("k").ok());
  EXPECT_TRUE(tree_->InsertIfNotExists("k", "third").ok());
  ASSERT_TRUE(tree_->Get("k", &value).ok());
  EXPECT_EQ(value, "third");
}

TEST_P(BlsmTreeTest, ReadModifyWrite) {
  ASSERT_TRUE(tree_->Put("counter", "5").ok());
  ASSERT_TRUE(tree_->ReadModifyWrite("counter",
                                     [](const std::string& old, bool absent) {
                                       EXPECT_FALSE(absent);
                                       return old + "5";
                                     })
                  .ok());
  std::string value;
  ASSERT_TRUE(tree_->Get("counter", &value).ok());
  EXPECT_EQ(value, "55");
  ASSERT_TRUE(tree_->ReadModifyWrite("fresh",
                                     [](const std::string&, bool absent) {
                                       EXPECT_TRUE(absent);
                                       return std::string("init");
                                     })
                  .ok());
  ASSERT_TRUE(tree_->Get("fresh", &value).ok());
  EXPECT_EQ(value, "init");
}

TEST_P(BlsmTreeTest, DataSurvivesFlushToC1) {
  for (uint64_t i = 0; i < 100; i++) {
    ASSERT_TRUE(tree_->Put(PaddedKey(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(tree_->Flush().ok());
  EXPECT_GT(tree_->OnDiskBytes(), 0u);
  for (uint64_t i = 0; i < 100; i++) {
    std::string value;
    ASSERT_TRUE(tree_->Get(PaddedKey(i), &value).ok()) << i;
    EXPECT_EQ(value, "v" + std::to_string(i));
  }
}

TEST_P(BlsmTreeTest, DataSurvivesCompactionToC2) {
  for (uint64_t i = 0; i < 500; i++) {
    ASSERT_TRUE(tree_->Put(PaddedKey(i), std::string(100, 'x')).ok());
  }
  ASSERT_TRUE(tree_->CompactToBottom().ok());
  for (uint64_t i = 0; i < 500; i += 13) {
    std::string value;
    ASSERT_TRUE(tree_->Get(PaddedKey(i), &value).ok()) << i;
  }
}

TEST_P(BlsmTreeTest, DeltasSurviveMergesAndCombine) {
  ASSERT_TRUE(tree_->Put("k", "base").ok());
  ASSERT_TRUE(tree_->CompactToBottom().ok());  // base now in C2
  ASSERT_TRUE(tree_->WriteDelta("k", "+1").ok());
  ASSERT_TRUE(tree_->Flush().ok());  // delta in C1
  ASSERT_TRUE(tree_->WriteDelta("k", "+2").ok());  // delta in C0
  std::string value;
  ASSERT_TRUE(tree_->Get("k", &value).ok());
  EXPECT_EQ(value, "base+1+2");
  // Merging everything to the bottom applies the deltas.
  ASSERT_TRUE(tree_->CompactToBottom().ok());
  ASSERT_TRUE(tree_->Get("k", &value).ok());
  EXPECT_EQ(value, "base+1+2");
}

TEST_P(BlsmTreeTest, TombstoneShadowsC2UntilBottomMerge) {
  ASSERT_TRUE(tree_->Put("doomed", "v").ok());
  ASSERT_TRUE(tree_->CompactToBottom().ok());
  ASSERT_TRUE(tree_->Delete("doomed").ok());
  ASSERT_TRUE(tree_->Flush().ok());  // tombstone must persist in C1
  std::string value;
  EXPECT_TRUE(tree_->Get("doomed", &value).IsNotFound());
  ASSERT_TRUE(tree_->CompactToBottom().ok());  // tombstone meets base, both die
  EXPECT_TRUE(tree_->Get("doomed", &value).IsNotFound());
}

TEST_P(BlsmTreeTest, LargeLoadAndPointReads) {
  const uint64_t kN = 3000;
  Random rnd(7);
  for (uint64_t i = 0; i < kN; i++) {
    ASSERT_TRUE(
        tree_->Put(PaddedKey(i), std::string(100 + rnd.Uniform(200), 'a')).ok());
  }
  tree_->WaitForMergeIdle();
  ASSERT_TRUE(tree_->BackgroundError().ok());
  for (uint64_t i = 0; i < kN; i += 29) {
    std::string value;
    ASSERT_TRUE(tree_->Get(PaddedKey(i), &value).ok()) << i;
  }
  EXPECT_GT(tree_->stats().merge1_passes.load(), 0u);
}

TEST_P(BlsmTreeTest, ScanReturnsSortedMergedView) {
  // Spread data across all levels.
  for (uint64_t i = 0; i < 300; i += 3) {
    ASSERT_TRUE(tree_->Put(PaddedKey(i), "c2").ok());
  }
  ASSERT_TRUE(tree_->CompactToBottom().ok());
  for (uint64_t i = 1; i < 300; i += 3) {
    ASSERT_TRUE(tree_->Put(PaddedKey(i), "c1").ok());
  }
  ASSERT_TRUE(tree_->Flush().ok());
  for (uint64_t i = 2; i < 300; i += 3) {
    ASSERT_TRUE(tree_->Put(PaddedKey(i), "c0").ok());
  }

  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(tree_->Scan(PaddedKey(0), 1000, &rows).ok());
  ASSERT_EQ(rows.size(), 300u);
  for (uint64_t i = 0; i < 300; i++) {
    EXPECT_EQ(rows[i].first, PaddedKey(i));
    const char* expected = i % 3 == 0 ? "c2" : (i % 3 == 1 ? "c1" : "c0");
    EXPECT_EQ(rows[i].second, expected) << i;
  }
}

TEST_P(BlsmTreeTest, ScanSeesNewestVersionAcrossLevels) {
  ASSERT_TRUE(tree_->Put("k", "old").ok());
  ASSERT_TRUE(tree_->CompactToBottom().ok());
  ASSERT_TRUE(tree_->Put("k", "new").ok());
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(tree_->Scan("", 10, &rows).ok());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].second, "new");
}

TEST_P(BlsmTreeTest, ScanSkipsDeleted) {
  for (uint64_t i = 0; i < 10; i++) {
    ASSERT_TRUE(tree_->Put(PaddedKey(i), "v").ok());
  }
  ASSERT_TRUE(tree_->CompactToBottom().ok());
  ASSERT_TRUE(tree_->Delete(PaddedKey(5)).ok());
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(tree_->Scan(PaddedKey(0), 100, &rows).ok());
  EXPECT_EQ(rows.size(), 9u);
  for (const auto& [k, v] : rows) EXPECT_NE(k, PaddedKey(5));
}

TEST_P(BlsmTreeTest, ScanAppliesDeltas) {
  ASSERT_TRUE(tree_->Put("k", "base").ok());
  ASSERT_TRUE(tree_->CompactToBottom().ok());
  ASSERT_TRUE(tree_->WriteDelta("k", "+d").ok());
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(tree_->Scan("", 10, &rows).ok());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].second, "base+d");
}

TEST_P(BlsmTreeTest, ScanWithLimitAndStart) {
  for (uint64_t i = 0; i < 100; i++) {
    ASSERT_TRUE(tree_->Put(PaddedKey(i), "v").ok());
  }
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(tree_->Scan(PaddedKey(50), 10, &rows).ok());
  ASSERT_EQ(rows.size(), 10u);
  EXPECT_EQ(rows[0].first, PaddedKey(50));
  EXPECT_EQ(rows[9].first, PaddedKey(59));
}

TEST_P(BlsmTreeTest, RecoveryAfterCleanClose) {
  for (uint64_t i = 0; i < 200; i++) {
    ASSERT_TRUE(tree_->Put(PaddedKey(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(tree_->Flush().ok());
  for (uint64_t i = 200; i < 250; i++) {
    ASSERT_TRUE(tree_->Put(PaddedKey(i), "v" + std::to_string(i)).ok());
  }
  Reopen();
  for (uint64_t i = 0; i < 250; i += 7) {
    std::string value;
    ASSERT_TRUE(tree_->Get(PaddedKey(i), &value).ok()) << i;
    EXPECT_EQ(value, "v" + std::to_string(i));
  }
}

TEST_P(BlsmTreeTest, RecoveryAfterCrashReplaysSyncedLog) {
  for (uint64_t i = 0; i < 50; i++) {
    ASSERT_TRUE(tree_->Put(PaddedKey(i), "pre-crash").ok());
  }
  // Simulate a crash: drop everything unsynced, then reopen. kSync mode
  // syncs the log on every write, so all writes must survive.
  tree_.reset();
  env_->DropUnsynced();
  Reopen();
  for (uint64_t i = 0; i < 50; i++) {
    std::string value;
    ASSERT_TRUE(tree_->Get(PaddedKey(i), &value).ok()) << i;
    EXPECT_EQ(value, "pre-crash");
  }
}

TEST_P(BlsmTreeTest, RecoveryPreservesDeletes) {
  ASSERT_TRUE(tree_->Put("gone", "v").ok());
  ASSERT_TRUE(tree_->Flush().ok());
  ASSERT_TRUE(tree_->Delete("gone").ok());
  Reopen();
  std::string value;
  EXPECT_TRUE(tree_->Get("gone", &value).IsNotFound());
}

TEST_P(BlsmTreeTest, SequenceNumbersMonotonicAcrossReopen) {
  ASSERT_TRUE(tree_->Put("k", "v1").ok());
  Reopen();
  ASSERT_TRUE(tree_->Put("k", "v2").ok());
  std::string value;
  ASSERT_TRUE(tree_->Get("k", &value).ok());
  EXPECT_EQ(value, "v2") << "post-reopen write must win";
}

TEST_P(BlsmTreeTest, ConcurrentWritersAndReaders) {
  const int kWriters = 4;
  const uint64_t kPerWriter = 500;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kWriters + 1);
  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back([&, w] {
      for (uint64_t i = 0; i < kPerWriter; i++) {
        uint64_t k = static_cast<uint64_t>(w) * kPerWriter + i;
        if (!tree_->Put(PaddedKey(k), std::string(100, 'x')).ok()) {
          failed.store(true);
          return;
        }
      }
    });
  }
  threads.emplace_back([&] {
    Random rnd(3);
    for (int i = 0; i < 2000; i++) {
      std::string value;
      Status s = tree_->Get(PaddedKey(rnd.Uniform(kWriters * kPerWriter)),
                            &value);
      if (!s.ok() && !s.IsNotFound()) {
        failed.store(true);
        return;
      }
    }
  });
  for (auto& t : threads) t.join();
  ASSERT_FALSE(failed.load());
  tree_->WaitForMergeIdle();
  ASSERT_TRUE(tree_->BackgroundError().ok());
  // Everything written must be readable.
  for (uint64_t k = 0; k < kWriters * kPerWriter; k += 17) {
    std::string value;
    ASSERT_TRUE(tree_->Get(PaddedKey(k), &value).ok()) << k;
  }
}

TEST_P(BlsmTreeTest, StatsAreMaintained) {
  ASSERT_TRUE(tree_->Put("a", "v").ok());
  std::string v;
  ASSERT_TRUE(tree_->Get("a", &v).ok());
  ASSERT_TRUE(tree_->Delete("a").ok());
  ASSERT_TRUE(tree_->WriteDelta("b", "+").ok());
  EXPECT_GE(tree_->stats().puts.load(), 1u);
  EXPECT_GE(tree_->stats().read.gets.load(), 1u);
  EXPECT_GE(tree_->stats().deletes.load(), 1u);
  EXPECT_GE(tree_->stats().deltas.load(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Schedulers, BlsmTreeTest,
    ::testing::Values(TreeConfig{SchedulerKind::kSpringGear, true},
                      TreeConfig{SchedulerKind::kSpringGear, false},
                      TreeConfig{SchedulerKind::kGear, false},
                      TreeConfig{SchedulerKind::kNaive, true},
                      TreeConfig{SchedulerKind::kNaive, false}),
    [](const auto& info) {
      std::string name;
      switch (info.param.scheduler) {
        case SchedulerKind::kNaive:
          name = "Naive";
          break;
        case SchedulerKind::kGear:
          name = "Gear";
          break;
        case SchedulerKind::kSpringGear:
          name = "SpringGear";
          break;
      }
      return name + (info.param.snowshovel ? "Snowshovel" : "Partitioned");
    });

// --- behaviours that are specific to one configuration -------------------------

TEST(BlsmTreeBloomTest, InsertIfNotExistsIsSeekFreeWithBloom) {
  MemEnv base;
  IoStats stats;
  CountingEnv env(&base, &stats);
  BlsmOptions options;
  options.env = &env;
  options.c0_target_bytes = 256 << 10;
  options.durability = DurabilityMode::kNone;
  std::unique_ptr<BlsmTree> tree;
  ASSERT_TRUE(BlsmTree::Open(options, "db", &tree).ok());

  for (uint64_t i = 0; i < 2000; i++) {
    ASSERT_TRUE(tree->Put(PaddedKey(i), std::string(100, 'x')).ok());
  }
  ASSERT_TRUE(tree->CompactToBottom().ok());

  auto before = stats.snapshot();
  int key_exists_errors = 0;
  for (uint64_t i = 0; i < 1000; i++) {
    Status s = tree->InsertIfNotExists("fresh-" + PaddedKey(i), "v");
    if (s.IsKeyExists()) key_exists_errors++;
    ASSERT_TRUE(s.ok() || s.IsKeyExists());
  }
  auto diff = stats.snapshot() - before;
  EXPECT_EQ(key_exists_errors, 0);
  // §3.1.2: ~1% of probes hit a false positive and pay a seek; the rest are
  // free. Allow generous margin.
  EXPECT_LT(diff.read_seeks, 100u)
      << "insert-if-not-exists should be nearly seek-free";
  EXPECT_GT(tree->stats().read.bloom_skips.load(), 0u);
}

TEST(BlsmTreeBloomTest, NoBloomOnLargestCostsSeeks) {
  MemEnv base;
  IoStats stats;
  CountingEnv env(&base, &stats);
  BlsmOptions options;
  options.env = &env;
  options.c0_target_bytes = 256 << 10;
  options.durability = DurabilityMode::kNone;
  options.bloom_on_largest = false;  // the ablation
  options.block_cache_bytes = 0;     // cold cache: count every block read
  std::unique_ptr<BlsmTree> tree;
  ASSERT_TRUE(BlsmTree::Open(options, "db", &tree).ok());

  for (uint64_t i = 0; i < 2000; i++) {
    ASSERT_TRUE(tree->Put(PaddedKey(i), std::string(100, 'x')).ok());
  }
  ASSERT_TRUE(tree->CompactToBottom().ok());

  auto before = stats.snapshot();
  for (uint64_t i = 0; i < 500; i++) {
    Status s = tree->InsertIfNotExists("fresh-" + PaddedKey(i), "v");
    ASSERT_TRUE(s.ok() || s.IsKeyExists());
  }
  auto diff = stats.snapshot() - before;
  // Without C2's filter every not-exists check must probe C2: >= ~1 seek per
  // insert until the (small) tree is fully cached. At minimum, far more
  // block reads than the bloom-enabled variant.
  EXPECT_GT(diff.read_ops, 100u);
}

TEST(BlsmTreeDurabilityTest, AsyncModeLosesUnsyncedOnCrash) {
  auto env = std::make_unique<MemEnv>();
  BlsmOptions options;
  options.env = env.get();
  options.durability = DurabilityMode::kAsync;
  std::unique_ptr<BlsmTree> tree;
  ASSERT_TRUE(BlsmTree::Open(options, "db", &tree).ok());
  ASSERT_TRUE(tree->Put("k", "v").ok());
  tree.reset();  // close flushes nothing extra in async mode before crash...
  env->DropUnsynced();
  ASSERT_TRUE(BlsmTree::Open(options, "db", &tree).ok());
  std::string value;
  // Well-defined degraded durability (§4.4.2): the write may be lost, but
  // the tree opens cleanly.
  Status s = tree->Get("k", &value);
  EXPECT_TRUE(s.ok() || s.IsNotFound());
}

TEST(BlsmTreeEarlyTerminationTest, ExhaustiveReadsSeeSameData) {
  MemEnv env;
  BlsmOptions options;
  options.env = &env;
  options.c0_target_bytes = 128 << 10;
  options.durability = DurabilityMode::kNone;
  options.early_read_termination = false;
  std::unique_ptr<BlsmTree> tree;
  ASSERT_TRUE(BlsmTree::Open(options, "db", &tree).ok());
  ASSERT_TRUE(tree->Put("k", "old").ok());
  ASSERT_TRUE(tree->CompactToBottom().ok());
  ASSERT_TRUE(tree->Put("k", "new").ok());
  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_TRUE(tree->WriteDelta("k", "+d").ok());
  std::string value;
  ASSERT_TRUE(tree->Get("k", &value).ok());
  EXPECT_EQ(value, "new+d");
}

TEST(BlsmTreeMultiGetTest, BatchedLookupsAcrossLevels) {
  MemEnv env;
  BlsmOptions options;
  options.env = &env;
  options.c0_target_bytes = 128 << 10;
  options.durability = DurabilityMode::kNone;
  std::unique_ptr<BlsmTree> tree;
  ASSERT_TRUE(BlsmTree::Open(options, "db", &tree).ok());

  // Spread data across levels: C2, C1, C0.
  ASSERT_TRUE(tree->Put("c2-key", "deep").ok());
  ASSERT_TRUE(tree->CompactToBottom().ok());
  ASSERT_TRUE(tree->Put("c1-key", "middle").ok());
  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_TRUE(tree->Put("c0-key", "fresh").ok());
  ASSERT_TRUE(tree->Delete("c2-key").ok());
  ASSERT_TRUE(tree->WriteDelta("c1-key", "+d").ok());

  std::vector<Slice> keys = {"c0-key", "c1-key", "c2-key", "absent"};
  std::vector<std::string> values;
  auto statuses = tree->MultiGet(keys, &values);
  ASSERT_EQ(statuses.size(), 4u);
  ASSERT_EQ(values.size(), 4u);
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_EQ(values[0], "fresh");
  EXPECT_TRUE(statuses[1].ok());
  EXPECT_EQ(values[1], "middle+d");
  EXPECT_TRUE(statuses[2].IsNotFound()) << "deleted key";
  EXPECT_TRUE(statuses[3].IsNotFound());
}

TEST(BlsmTreeMultiGetTest, EmptyBatchAndAgreementWithGet) {
  MemEnv env;
  BlsmOptions options;
  options.env = &env;
  options.durability = DurabilityMode::kNone;
  std::unique_ptr<BlsmTree> tree;
  ASSERT_TRUE(BlsmTree::Open(options, "db", &tree).ok());

  std::vector<std::string> values;
  EXPECT_TRUE(tree->MultiGet({}, &values).empty());
  EXPECT_TRUE(values.empty());

  Random rnd(5);
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(
        tree->Put(PaddedKey(rnd.Uniform(200)), "v" + std::to_string(i)).ok());
  }
  std::vector<std::string> key_storage;
  key_storage.reserve(300);
  std::vector<Slice> keys;
  for (int i = 0; i < 300; i++) {
    key_storage.push_back(PaddedKey(rnd.Uniform(250)));
    keys.emplace_back(key_storage.back());
  }
  auto statuses = tree->MultiGet(keys, &values);
  for (size_t i = 0; i < keys.size(); i++) {
    std::string single;
    Status s = tree->Get(keys[i], &single);
    EXPECT_EQ(s.ok(), statuses[i].ok()) << i;
    if (s.ok()) {
      EXPECT_EQ(single, values[i]) << i;
    }
  }
}

TEST(BlsmTreeMergeOpTest, Int64CounterWorkload) {
  MemEnv env;
  BlsmOptions options;
  options.env = &env;
  options.c0_target_bytes = 64 << 10;
  options.durability = DurabilityMode::kNone;
  options.merge_operator = std::make_shared<const Int64AddMergeOperator>();
  std::unique_ptr<BlsmTree> tree;
  ASSERT_TRUE(BlsmTree::Open(options, "db", &tree).ok());

  // Many counters, incremented blindly; merges must combine deltas.
  const int kCounters = 50;
  const int kIncrements = 200;
  for (int round = 0; round < kIncrements; round++) {
    for (int c = 0; c < kCounters; c++) {
      ASSERT_TRUE(tree->WriteDelta("counter-" + std::to_string(c),
                                   Int64AddMergeOperator::Encode(1))
                      .ok());
    }
  }
  tree->WaitForMergeIdle();
  ASSERT_TRUE(tree->BackgroundError().ok());
  for (int c = 0; c < kCounters; c++) {
    std::string value;
    ASSERT_TRUE(tree->Get("counter-" + std::to_string(c), &value).ok()) << c;
    int64_t n;
    ASSERT_TRUE(Int64AddMergeOperator::Decode(value, &n));
    EXPECT_EQ(n, kIncrements) << c;
  }
  // And after pushing everything to the bottom.
  ASSERT_TRUE(tree->CompactToBottom().ok());
  std::string value;
  ASSERT_TRUE(tree->Get("counter-0", &value).ok());
  int64_t n;
  ASSERT_TRUE(Int64AddMergeOperator::Decode(value, &n));
  EXPECT_EQ(n, kIncrements);
}

}  // namespace
}  // namespace blsm
