// Regenerates Table 1: seeks per operation, measured, for bLSM, the
// update-in-place B-tree, and the LevelDB-like multilevel tree, across the
// paper's operation taxonomy:
//
//   point lookup / read-modify-write / apply delta / insert-or-overwrite /
//   short scan (<= 1 page) / long scan (N pages)
//
// Expected shape (Table 1): bLSM 1 / 1 / 0 / 0 / ~2-3 / ~2-3; B-tree
// 1 / 2 / 2 / 2 / 1 / up to N; LevelDB-like O(log n) for reads and scans,
// 0 for blind writes.

#include <string>
#include <vector>

#include "harness.h"
#include "util/random.h"
#include "ycsb/generator.h"

namespace blsm::bench {
namespace {

constexpr size_t kValueSize = 1000;

struct OpCosts {
  double lookup, rmw, delta, insert, short_scan, long_scan;
};

// File-scope (NOT function-static in the template: that would give each
// lambda instantiation its own counter and re-use seeds across measures).
uint64_t g_measurement_counter = 0;

// Measures read+write seeks per op over `probes` random keys.
template <typename Fn>
double MeasureSeeks(Workspace& ws, int probes, const Fn& op,
                    const std::function<void()>& settle) {
  auto before = ws.stats()->snapshot();
  // Fresh key sequence per measurement so earlier ones can't warm ours.
  Random rnd(0xbe9c + 7919 * ++g_measurement_counter);
  for (int i = 0; i < probes; i++) op(rnd);
  if (settle) settle();
  auto diff = ws.stats()->snapshot() - before;
  if (getenv("BLSM_DEBUG_MEASURE") != nullptr) {
    fprintf(stderr, "[measure %llu] read_seeks=%llu write_seeks=%llu read_ops=%llu\n",
            (unsigned long long)g_measurement_counter,
            (unsigned long long)diff.read_seeks,
            (unsigned long long)diff.write_seeks,
            (unsigned long long)diff.read_ops);
  }
  return static_cast<double>(diff.read_seeks + diff.write_seeks) / probes;
}

void WarmIndex(const std::function<void(uint64_t)>& get, uint64_t records,
               int rounds) {
  Random rnd(0x3a3a);
  for (int i = 0; i < rounds; i++) get(rnd.Uniform(records));
}

}  // namespace
}  // namespace blsm::bench

int main() {
  using namespace blsm;
  using namespace blsm::bench;

  const uint64_t kRecords = Scaled(40000);  // ~40 MB of values
  const int kProbes = 300;

  PrintHeader("Table 1 reproduction: seeks per operation (measured)");
  printf("dataset: %" PRIu64 " records x %zu B values\n", kRecords,
         kValueSize);

  Workspace ws("table1");
  ycsb::ValueGenerator values(7);
  JsonReport report("table1_operation_seeks");

  // --- engines, loaded identically -----------------------------------------
  // Caches are sized well below the dataset (the paper's regime: data does
  // not fit in RAM), leaving room for index pages but not data pages.
  auto blsm_opts = DefaultBlsmOptions(ws.env());
  blsm_opts.block_cache_bytes = 4 << 20;
  std::unique_ptr<BlsmTree> blsm_tree;
  if (!BlsmTree::Open(blsm_opts, ws.Path("blsm"), &blsm_tree).ok()) return 1;

  auto bt_opts = DefaultBTreeOptions(ws.env());
  bt_opts.buffer_pool_pages = (4 << 20) / 4096;
  std::unique_ptr<btree::BTree> bt;
  if (!btree::BTree::Open(bt_opts, ws.Path("btree.db"), &bt).ok()) return 1;

  auto ml_opts = DefaultMultilevelOptions(ws.env());
  ml_opts.block_cache_bytes = 4 << 20;
  // At the paper's 50 GB scale every level's probe misses cache. To emulate
  // that at 40 MB, let the L0 pile grow past the block cache instead of
  // being compacted away immediately (the read-amplification structure is
  // what Table 1 prices, not the compaction cadence). The slowdown/stop
  // triggers move up with it: Open enforces trigger <= slowdown <= stop,
  // and stalling the loader below the compaction trigger would defeat the
  // point of letting the pile grow.
  ml_opts.l0_compaction_trigger = 10;
  ml_opts.l0_slowdown_trigger = 14;
  ml_opts.l0_stop_trigger = 20;
  std::unique_ptr<multilevel::MultilevelTree> ml;
  if (!multilevel::MultilevelTree::Open(ml_opts, ws.Path("ml"), &ml).ok()) {
    return 1;
  }

  for (uint64_t i = 0; i < kRecords; i++) {
    std::string key = ycsb::FormatKey(i, true);
    std::string value = values.Next(i, kValueSize);
    CheckOk(blsm_tree->Put(key, value), "load put");
    CheckOk(ml->Put(key, value), "load put");
  }
  // The B-tree gets the same random (hashed) insertion order, which
  // fragments its leaves — the state Table 1's worst-case scan column
  // describes. Keys are textually unhashed so range scans are meaningful;
  // the shuffle provides the randomness.
  {
    Random shuffle_rnd(1);
    std::vector<uint64_t> ids(kRecords);
    for (uint64_t i = 0; i < kRecords; i++) ids[i] = i;
    for (uint64_t i = kRecords - 1; i > 0; i--) {
      std::swap(ids[i], ids[shuffle_rnd.Uniform(i + 1)]);
    }
    for (uint64_t id : ids) {
      CheckOk(bt->Insert(ycsb::FormatKey(id, false),
                         values.Next(id, kValueSize)),
              "load insert");
    }
  }
  // bLSM steady state: bulk in C2, fresher slices in C1 and C0 (the
  // three-component configuration §3.3 describes).
  CheckOk(blsm_tree->CompactToBottom(), "compact to bottom");
  for (uint64_t i = 0; i < kRecords / 10; i++) {
    CheckOk(blsm_tree->Put(ycsb::FormatKey(i, true),
                           values.Next(i, kValueSize)),
            "overwrite put");
  }
  CheckOk(blsm_tree->Flush(), "flush");
  for (uint64_t i = kRecords / 10; i < kRecords / 7; i++) {
    CheckOk(blsm_tree->Put(ycsb::FormatKey(i, true),
                           values.Next(i, kValueSize)),
            "overwrite put");
  }
  // The multilevel tree keeps its natural multi-level shape (compacting it
  // fully would collapse it to one level and hide its read amplification).
  // After quiescing, repopulate L0 with a few runs — the steady state of a
  // LevelDB under write load, which is what the paper measures (left to the
  // background thread's timing, the L0 count would be 0-3 at random).
  ml->WaitForIdle();
  {
    Random refresh(9);
    uint64_t budget = 7 * (1 << 20) + (1 << 19);  // ~7 runs of 1 MiB
    uint64_t written = 0;
    while (written < budget) {
      uint64_t id = refresh.Uniform(kRecords);
      CheckOk(ml->Put(ycsb::FormatKey(id, true), values.Next(id, kValueSize)),
              "refresh put");
      written += kValueSize;
    }
    Env::Default()->SleepForMicroseconds(200000);  // let flushes finish
  }
  CheckOk(bt->Checkpoint(), "post-load checkpoint");

  // Warm index structures (the paper's read-amplification convention caches
  // bottom-level index pages, §2.1).
  WarmIndex([&](uint64_t id) {
    std::string v;
    CheckOk(blsm_tree->Get(ycsb::FormatKey(id, true), &v), "warming get");
  }, kRecords, 2000);
  WarmIndex([&](uint64_t id) {
    std::string v;
    CheckOk(ml->Get(ycsb::FormatKey(id, true), &v), "warming get");
  }, kRecords, 2000);
  WarmIndex([&](uint64_t id) {
    std::string v;
    CheckOk(bt->Get(ycsb::FormatKey(id, false), &v), "warming get");
  }, kRecords, 2000);

  auto fresh_value = [&](Random& rnd) {
    return std::string(kValueSize, static_cast<char>('a' + rnd.Uniform(26)));
  };
  std::vector<std::pair<std::string, std::string>> scan_out;

  auto run_engine = [&](const char* name, auto get, auto rmw, auto delta,
                        auto insert, auto scan,
                        std::function<void()> settle) {
    OpCosts costs;
    costs.lookup = MeasureSeeks(ws, kProbes, get, nullptr);
    costs.rmw = MeasureSeeks(ws, kProbes, rmw, settle);
    costs.delta = MeasureSeeks(ws, kProbes, delta, settle);
    costs.insert = MeasureSeeks(ws, kProbes, insert, settle);
    costs.short_scan = MeasureSeeks(
        ws, kProbes, [&](Random& rnd) { scan(rnd, 1 + rnd.Uniform(4)); },
        nullptr);
    costs.long_scan = MeasureSeeks(
        ws, kProbes, [&](Random& rnd) { scan(rnd, 100); }, nullptr);
    printf("%-14s %10.2f %10.2f %10.2f %10.2f %12.2f %12.2f\n", name,
           costs.lookup, costs.rmw, costs.delta, costs.insert,
           costs.short_scan, costs.long_scan);
    report.AddRow()
        .Str("engine", name)
        .Num("lookup_seeks_per_op", costs.lookup)
        .Num("rmw_seeks_per_op", costs.rmw)
        .Num("delta_seeks_per_op", costs.delta)
        .Num("insert_seeks_per_op", costs.insert)
        .Num("short_scan_seeks_per_op", costs.short_scan)
        .Num("long_scan_seeks_per_op", costs.long_scan);
  };

  printf("\n%-14s %10s %10s %10s %10s %12s %12s\n", "engine", "lookup", "RMW",
         "delta", "insert", "short-scan", "long-scan(100)");

  run_engine(
      "bLSM",
      [&](Random& rnd) {
        std::string v;
        CheckOk(
            blsm_tree->Get(ycsb::FormatKey(rnd.Uniform(kRecords), true), &v),
            "probe get");
      },
      [&](Random& rnd) {
        std::string nv = fresh_value(rnd);
        CheckOk(blsm_tree->ReadModifyWrite(
                    ycsb::FormatKey(rnd.Uniform(kRecords), true),
                    [&](const std::string&, bool) { return nv; }),
                "probe rmw");
      },
      [&](Random& rnd) {
        CheckOk(blsm_tree->WriteDelta(
                    ycsb::FormatKey(rnd.Uniform(kRecords), true), "+delta"),
                "probe delta");
      },
      [&](Random& rnd) {
        CheckOk(blsm_tree->Put(ycsb::FormatKey(rnd.Uniform(kRecords), true),
                               fresh_value(rnd)),
                "probe put");
      },
      [&](Random& rnd, uint64_t n) {
        CheckOk(blsm_tree->Scan(ycsb::FormatKey(rnd.Uniform(kRecords), true),
                                n, &scan_out),
                "probe scan");
      },
      [&] { blsm_tree->WaitForMergeIdle(); });

  run_engine(
      "B-Tree",
      [&](Random& rnd) {
        std::string v;
        CheckOk(bt->Get(ycsb::FormatKey(rnd.Uniform(kRecords), false), &v),
                "probe get");
      },
      [&](Random& rnd) {
        std::string nv = fresh_value(rnd);
        CheckOk(bt->ReadModifyWrite(
                    ycsb::FormatKey(rnd.Uniform(kRecords), false),
                    [&](const std::string&, bool) { return nv; }),
                "probe rmw");
      },
      [&](Random& rnd) {
        // No delta primitive: deltas require read-modify-write (Table 1
        // charges the B-tree 2 seeks for "apply delta to record").
        CheckOk(bt->ReadModifyWrite(
                    ycsb::FormatKey(rnd.Uniform(kRecords), false),
                    [&](const std::string& old, bool) {
                      return old.substr(0, kValueSize);
                    }),
                "probe delta-rmw");
      },
      [&](Random& rnd) {
        CheckOk(bt->Insert(ycsb::FormatKey(rnd.Uniform(kRecords), false),
                           fresh_value(rnd)),
                "probe insert");
      },
      [&](Random& rnd, uint64_t n) {
        CheckOk(bt->Scan(ycsb::FormatKey(rnd.Uniform(kRecords), false), n,
                         &scan_out),
                "probe scan");
      },
      [&] { CheckOk(bt->Checkpoint(), "quiesce checkpoint"); });

  run_engine(
      "LevelDB-like",
      [&](Random& rnd) {
        std::string v;
        CheckOk(ml->Get(ycsb::FormatKey(rnd.Uniform(kRecords), true), &v),
                "probe get");
      },
      [&](Random& rnd) {
        std::string nv = fresh_value(rnd);
        CheckOk(ml->ReadModifyWrite(
                    ycsb::FormatKey(rnd.Uniform(kRecords), true),
                    [&](const std::string&, bool) { return nv; }),
                "probe rmw");
      },
      [&](Random& rnd) {
        CheckOk(ml->WriteDelta(ycsb::FormatKey(rnd.Uniform(kRecords), true),
                               "+d"),
                "probe delta");
      },
      [&](Random& rnd) {
        CheckOk(ml->Put(ycsb::FormatKey(rnd.Uniform(kRecords), true),
                        fresh_value(rnd)),
                "probe put");
      },
      [&](Random& rnd, uint64_t n) {
        CheckOk(ml->Scan(ycsb::FormatKey(rnd.Uniform(kRecords), true), n,
                         &scan_out),
                "probe scan");
      },
      [&] { ml->WaitForIdle(); });

  printf("\nPaper (Table 1): bLSM 1/1/0/0/~2 vs B-Tree 1/2/2/2/1/N vs\n"
         "LevelDB O(log n) reads+scans, 0-seek blind writes, plus deferred\n"
         "merge I/O (sequential, not seeks) for both LSMs.\n");
  return 0;
}
