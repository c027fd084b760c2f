// Concurrent read-path correctness: reader threads run Gets, MultiGets,
// and Scans against a live tree while writers churn a disjoint key stripe
// hard enough to force memtable swaps, merges, and compactions. An
// immutable base set loaded before the readers start pins down exact
// answers: under ReadView republication a base key may legally be observed
// in two components of one view (double observation) but must never be
// missing or stale (never loss). Writers also re-read their own acked
// writes, which proves the view containing a fresh active memtable is
// published before any write into it is acknowledged. This is the read-side
// counterpart of concurrent_write_test and runs in the TSan lane.

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

constexpr int kReaders = 3;
constexpr int kWriters = 2;
constexpr uint64_t kBaseKeys = 200;
constexpr uint64_t kVolatileKeys = 120;
constexpr int kRoundsPerWriter = 5;

std::string BaseKey(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "base-%05llu",
           static_cast<unsigned long long>(i));
  return buf;
}

std::string BaseValue(uint64_t i) {
  return "stable-" + std::to_string(i * 2654435761ull);
}

std::string VolatileKey(int stripe, uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "vol-%02d-%05llu", stripe,
           static_cast<unsigned long long>(i));
  return buf;
}

class ConcurrentReadTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ConcurrentReadTest, ReadersNeverLoseBaseKeysUnderChurn) {
  const std::string& name = GetParam();
  MemEnv env;
  kv::CommonOptions options;
  options.env = &env;
  options.write_buffer_bytes = 64 << 10;  // small: swaps happen mid-run

  std::unique_ptr<kv::Engine> engine;
  ASSERT_TRUE(kv::Open(name, options, "db", &engine).ok());

  // Immutable base set: loaded up front, spread across components by an
  // explicit flush, then never written again. Every read must see it.
  for (uint64_t i = 0; i < kBaseKeys; i++) {
    ASSERT_TRUE(engine->Put(BaseKey(i), BaseValue(i)).ok());
  }
  ASSERT_TRUE(engine->Flush().ok());
  engine->WaitIdle();

  std::atomic<bool> stop_readers{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back([&, w] {
      // Monotonic versions per key: after Put acks round r, a re-read of
      // the same key must see round >= r (read-your-writes across the
      // memtable swap the write may have triggered).
      Random rng(5000 + static_cast<uint64_t>(w));
      for (int round = 0; round < kRoundsPerWriter; round++) {
        for (uint64_t i = 0; i < kVolatileKeys; i++) {
          std::string key = VolatileKey(w, i);
          std::string value =
              "r" + std::to_string(round) + "-" +
              std::string(rng.Uniform(200), 'x');
          if (!engine->Put(key, value).ok()) {
            failures.fetch_add(1);
            continue;
          }
          std::string got;
          Status s = engine->Get(key, &got);
          if (!s.ok() || got.compare(0, 2, "r" + std::to_string(round)) < 0) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }

  for (int r = 0; r < kReaders; r++) {
    threads.emplace_back([&, r] {
      Random rng(7000 + static_cast<uint64_t>(r));
      std::string value;
      std::vector<std::pair<std::string, std::string>> rows;
      while (!stop_readers.load(std::memory_order_acquire)) {
        uint64_t roll = rng.Uniform(3);
        if (roll == 0) {
          // Point Get of a base key: exact answer, always.
          uint64_t i = rng.Uniform(kBaseKeys);
          Status s = engine->Get(BaseKey(i), &value);
          EXPECT_TRUE(s.ok()) << name << " " << BaseKey(i) << ": "
                              << s.ToString();
          if (s.ok()) {
            EXPECT_EQ(value, BaseValue(i));
          }
        } else if (roll == 1) {
          // MultiGet mixing base keys (exact) with volatile keys (ok or
          // NotFound, racing the writers) and a duplicate probe.
          std::vector<std::string> keys;
          for (int k = 0; k < 6; k++) {
            keys.push_back(BaseKey(rng.Uniform(kBaseKeys)));
          }
          keys.push_back(keys.front());  // duplicate
          for (int k = 0; k < 3; k++) {
            keys.push_back(VolatileKey(static_cast<int>(rng.Uniform(kWriters)),
                                       rng.Uniform(kVolatileKeys)));
          }
          std::vector<Slice> slices(keys.begin(), keys.end());
          std::vector<std::string> values;
          std::vector<Status> statuses = engine->MultiGet(slices, &values);
          ASSERT_EQ(statuses.size(), keys.size());
          ASSERT_EQ(values.size(), keys.size());
          for (size_t k = 0; k < 7; k++) {
            EXPECT_TRUE(statuses[k].ok())
                << name << " " << keys[k] << ": " << statuses[k].ToString();
            if (statuses[k].ok()) {
              uint64_t id = std::stoull(keys[k].substr(5));
              EXPECT_EQ(values[k], BaseValue(id)) << keys[k];
            }
          }
          for (size_t k = 7; k < keys.size(); k++) {
            EXPECT_TRUE(statuses[k].ok() || statuses[k].IsNotFound())
                << statuses[k].ToString();
          }
        } else {
          // Scan inside the immutable region: one consistent view must
          // return the exact consecutive run of base keys.
          uint64_t start = rng.Uniform(kBaseKeys);
          size_t limit = 1 + rng.Uniform(16);
          rows.clear();
          Status s = engine->Scan(BaseKey(start), limit, &rows);
          EXPECT_TRUE(s.ok()) << s.ToString();
          for (size_t k = 0; k < rows.size(); k++) {
            if (start + k >= kBaseKeys) break;  // ran into the vol- region
            EXPECT_EQ(rows[k].first, BaseKey(start + k));
            EXPECT_EQ(rows[k].second, BaseValue(start + k));
          }
        }
      }
    });
  }

  for (int w = 0; w < kWriters; w++) threads[w].join();
  stop_readers.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); t++) threads[t].join();
  EXPECT_EQ(failures.load(), 0);

  // Quiesced: base keys exact, final writer rounds visible.
  ASSERT_TRUE(engine->Flush().ok());
  engine->WaitIdle();
  ASSERT_TRUE(engine->BackgroundError().ok());
  for (uint64_t i = 0; i < kBaseKeys; i++) {
    std::string value;
    ASSERT_TRUE(engine->Get(BaseKey(i), &value).ok()) << BaseKey(i);
    ASSERT_EQ(value, BaseValue(i));
  }
  std::string expect_round = "r" + std::to_string(kRoundsPerWriter - 1);
  for (int w = 0; w < kWriters; w++) {
    for (uint64_t i = 0; i < kVolatileKeys; i++) {
      std::string value;
      ASSERT_TRUE(engine->Get(VolatileKey(w, i), &value).ok());
      ASSERT_EQ(value.compare(0, expect_round.size(), expect_round), 0)
          << VolatileKey(w, i) << " = " << value.substr(0, 8);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, ConcurrentReadTest,
                         ::testing::ValuesIn(kv::EngineNames()),
                         [](const auto& info) { return info.param; });

// A record crossing from a memtable into a run must be readable from
// exactly one slot of every published view. Deltas make a second copy
// visible: a key written once with one delta reads back the delta applied
// twice if a reader's view holds both the memtable and the run built from
// it. Every key here gets exactly one kDeltaBytes delta, so any other value
// size is a double (or lost) application. Small memtables make the
// memtable-to-run crossings frequent.
constexpr int kDeltaRounds = 10;
constexpr uint64_t kDeltaWrites = 150000;
constexpr size_t kDeltaBytes = 200;
constexpr int kDeltaReaders = 2;

std::string DeltaKey(uint64_t i) {
  // Odd-multiplier scramble: a bijection on 32 bits, so keys stay fresh
  // while landing all over the key space.
  char buf[32];
  snprintf(buf, sizeof(buf), "d-%010u",
           static_cast<unsigned>(static_cast<uint32_t>(i * 2654435761ull)));
  return buf;
}

class DeltaOnceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DeltaOnceTest, EveryReadAppliesEachDeltaOnce) {
  const std::string& name = GetParam();
  const std::string delta(kDeltaBytes, 'd');
  for (int round = 0; round < kDeltaRounds; round++) {
    MemEnv env;
    kv::CommonOptions options;
    options.env = &env;
    options.write_buffer_bytes = 256 << 10;
    std::unique_ptr<kv::Engine> engine;
    ASSERT_TRUE(kv::Open(name, options, "db", &engine).ok());

    std::atomic<uint64_t> written{0};
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> bad_reads{0};
    std::atomic<uint64_t> reads{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < kDeltaReaders; r++) {
      readers.emplace_back([&, r] {
        Random rng(100 * static_cast<uint64_t>(round) + static_cast<uint64_t>(r));
        std::string value;
        std::vector<std::pair<std::string, std::string>> rows;
        auto check = [&](const Status& s, size_t size) {
          reads.fetch_add(1, std::memory_order_relaxed);
          if (!s.ok() || size != kDeltaBytes) {
            bad_reads.fetch_add(1, std::memory_order_relaxed);
          }
        };
        for (uint64_t op = 0; !stop.load(std::memory_order_acquire); op++) {
          uint64_t n = written.load(std::memory_order_acquire);
          if (n == 0) continue;
          if (op % 64 == 63) {
            rows.clear();
            Status s = engine->Scan(DeltaKey(rng.Uniform(n)), 8, &rows);
            for (const auto& row : rows) check(s, row.second.size());
          } else if (op % 16 == 15) {
            std::vector<std::string> keys;
            for (int k = 0; k < 8; k++) keys.push_back(DeltaKey(rng.Uniform(n)));
            std::vector<Slice> slices(keys.begin(), keys.end());
            std::vector<std::string> values;
            std::vector<Status> st = engine->MultiGet(slices, &values);
            for (size_t k = 0; k < keys.size(); k++) {
              check(st[k], values[k].size());
            }
          } else {
            Status s = engine->Get(DeltaKey(rng.Uniform(n)), &value);
            check(s, value.size());
          }
        }
      });
    }
    for (uint64_t i = 0; i < kDeltaWrites; i++) {
      kv::WriteBatch batch;
      batch.Merge(DeltaKey(i), delta);
      ASSERT_TRUE(engine->Write(batch).ok());
      written.store(i + 1, std::memory_order_release);
    }
    stop.store(true, std::memory_order_release);
    for (auto& t : readers) t.join();
    EXPECT_GT(reads.load(), 0u);
    ASSERT_EQ(bad_reads.load(), 0u)
        << name << " round " << round << ": " << bad_reads.load() << " of "
        << reads.load() << " reads applied a delta other than once";
  }
}

INSTANTIATE_TEST_SUITE_P(LsmEngines, DeltaOnceTest,
                         ::testing::Values("blsm", "multilevel"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace blsm
