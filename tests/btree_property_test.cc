// Property-based test for the update-in-place B+-tree: must match a
// std::map oracle under random operation sequences, across pool sizes
// (including pathologically small pools that force constant eviction and
// writeback) and across reopen.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "btree/btree.h"
#include "io/mem_env.h"
#include "util/random.h"

namespace blsm::btree {
namespace {

struct BtreeParams {
  size_t pool_pages;
  uint64_t seed;
  size_t value_size;
};

class BTreePropertyTest : public ::testing::TestWithParam<BtreeParams> {};

std::string KeyFor(uint64_t i) {
  char buf[24];
  snprintf(buf, sizeof(buf), "k%08llu", static_cast<unsigned long long>(i));
  return buf;
}

TEST_P(BTreePropertyTest, MatchesModelUnderRandomOps) {
  const BtreeParams& p = GetParam();
  MemEnv env;
  BTreeOptions options;
  options.env = &env;
  options.buffer_pool_pages = p.pool_pages;

  std::unique_ptr<BTree> tree;
  ASSERT_TRUE(BTree::Open(options, "t.db", &tree).ok());
  std::map<std::string, std::string> model;
  Random rnd(p.seed);

  const uint64_t kKeySpace = 2000;
  for (int op = 0; op < 8000; op++) {
    std::string key = KeyFor(rnd.Uniform(kKeySpace));
    switch (rnd.Uniform(8)) {
      case 0: {  // delete
        Status s = tree->Delete(key);
        if (model.erase(key) > 0) {
          ASSERT_TRUE(s.ok()) << key;
        } else {
          ASSERT_TRUE(s.IsNotFound()) << key;
        }
        break;
      }
      case 1: {  // insert-if-not-exists
        Status s = tree->InsertIfNotExists(key, "iine");
        if (model.count(key)) {
          ASSERT_TRUE(s.IsKeyExists());
        } else {
          ASSERT_TRUE(s.ok());
          model[key] = "iine";
        }
        break;
      }
      case 2: {  // point read
        std::string value;
        Status s = tree->Get(key, &value);
        auto it = model.find(key);
        if (it != model.end()) {
          ASSERT_TRUE(s.ok()) << key << " op " << op;
          ASSERT_EQ(value, it->second);
        } else {
          ASSERT_TRUE(s.IsNotFound()) << key;
        }
        break;
      }
      case 3: {  // scan
        size_t n = 1 + rnd.Uniform(30);
        std::vector<std::pair<std::string, std::string>> rows;
        ASSERT_TRUE(tree->Scan(key, n, &rows).ok());
        std::vector<std::pair<std::string, std::string>> expected;
        for (auto it = model.lower_bound(key);
             it != model.end() && expected.size() < n; ++it) {
          expected.push_back(*it);
        }
        ASSERT_EQ(rows, expected) << "scan at " << key;
        break;
      }
      case 4: {  // checkpoint occasionally
        if (rnd.OneIn(10)) {
          ASSERT_TRUE(tree->Checkpoint().ok());
        }
        break;
      }
      default: {  // upsert (majority)
        std::string value =
            "v" + std::to_string(op) + std::string(rnd.Uniform(p.value_size), 'q');
        ASSERT_TRUE(tree->Insert(key, value).ok()) << key;
        model[key] = value;
        break;
      }
    }
    ASSERT_EQ(tree->num_entries(), model.size()) << "op " << op;
  }

  // Full equivalence.
  std::vector<std::pair<std::string, std::string>> all;
  ASSERT_TRUE(tree->Scan("", kKeySpace + 1, &all).ok());
  std::vector<std::pair<std::string, std::string>> expected(model.begin(),
                                                            model.end());
  ASSERT_EQ(all, expected);

  // Reopen and recheck.
  ASSERT_TRUE(tree->Checkpoint().ok());
  tree.reset();
  ASSERT_TRUE(BTree::Open(options, "t.db", &tree).ok());
  ASSERT_TRUE(tree->Scan("", kKeySpace + 1, &all).ok());
  ASSERT_EQ(all, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BTreePropertyTest,
    ::testing::Values(BtreeParams{16, 1, 100},    // brutal eviction pressure
                      BtreeParams{64, 2, 400},
                      BtreeParams{1024, 3, 100},
                      BtreeParams{4096, 4, 1200},  // multi-entry leaves
                      BtreeParams{64, 5, 1200}),
    [](const auto& info) {
      const BtreeParams& p = info.param;
      return "Pool" + std::to_string(p.pool_pages) + "V" +
             std::to_string(p.value_size) + "Seed" + std::to_string(p.seed);
    });

}  // namespace
}  // namespace blsm::btree
