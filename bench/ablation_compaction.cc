// Ablation: the compaction design space on the multilevel tree.
//
// Runs the same dataset and drivers through each point of the policy space
// (leveling partitioned/whole-level, tiering, lazy-leveling) and measures
// the tradeoff the policies exist to trade: compaction write amplification
// (bytes rewritten by background merges per user byte) against read
// amplification (seeks per point lookup across the run stack).
//
// Two drivers, mirroring the paper benches the policies plug into:
//   fig8 sweep   read/blind-write mixes at 0/50/100% writes (uniform)
//   fig9 shift   uniform blind-write saturation, then Zipfian 80/20 serving
//
// Expected shape: tiering defers merges (runs stack per level), so its
// compaction write-amp is the lowest and its read-amp the highest; leveling
// is the mirror image; lazy-leveling lands between (tiered upper levels,
// one sorted run at the bottom).

#include <vector>

#include "harness.h"
#include "ycsb/workload.h"

namespace {

// Background write-bytes charged per level, summed over the tree's stats.
// Level 0 is flush; levels >= 1 are compaction rewrites.
struct LevelBytes {
  uint64_t flush = 0;
  uint64_t compaction = 0;
};

LevelBytes ReadLevelBytes(const blsm::multilevel::MultilevelTree& tree) {
  LevelBytes out;
  out.flush = tree.stats().level_write_bytes[0].load();
  for (int level = 1; level < blsm::multilevel::kNumLevels; level++) {
    out.compaction += tree.stats().level_write_bytes[level].load();
  }
  return out;
}

}  // namespace

int main() {
  using namespace blsm;
  using namespace blsm::bench;
  using namespace blsm::ycsb;

  const uint64_t kRecords = Scaled(20000);
  const uint64_t kOpsPerMix = Scaled(6000);
  const uint64_t kShiftOps = Scaled(10000);
  const size_t kValueSize = 1000;
  // Write-heavy mixes run first so the pure-read mix probes the run stack
  // each policy accumulates under write load (an idle freshly-loaded tree
  // looks the same under every policy: one cascade-merged bottom run).
  const std::vector<int> kWritePcts = {100, 50, 0};

  PrintHeader("Compaction-policy ablation: write amp vs read amp");
  printf("dataset: %" PRIu64 " records x %zu B; %" PRIu64
         " ops per fig8 mix; %" PRIu64 " ops per fig9 phase\n",
         kRecords, kValueSize, kOpsPerMix, kShiftOps);

  const std::vector<std::string> kPolicies = {
      "leveling", "leveling-whole", "tiering", "lazy-leveling"};

  struct PolicyResult {
    std::string policy;
    double compaction_write_amp = 0;  // whole run: merge bytes / user bytes
    double flush_write_amp = 0;
    double read_seeks_per_read = 0;  // absent-key probe, cache-dependent
    double read_runs_per_read = 0;   // runs probed per miss (structural)
    std::vector<double> mix_ops_per_second;
    std::vector<double> mix_read_seeks_per_op;
    std::vector<double> mix_write_bytes_per_op;
    double shift_write_ops_per_second = 0;
    double shift_serving_ops_per_second = 0;
    double shift_serving_p99_ms = 0;
  };
  std::vector<PolicyResult> results;

  JsonReport report("ablation_compaction");

  for (const std::string& policy : kPolicies) {
    Workspace ws("ablation_compaction_" + policy);
    auto options = DefaultMultilevelOptions(ws.env());
    CheckOk(engine::ParseCompactionConfig(policy, &options.compaction),
            "parse compaction policy spec");
    options.block_cache_bytes = 2 << 20;  // indexes warm, data mostly cold
    // Deeper geometry than the harness default (ratio 10 leaves only two
    // data levels at this dataset size): fanout 4 gives the policies 3-4
    // levels to differentiate on, and matches the tiered run fill so
    // tiering is the Dostoevsky T=fanout configuration.
    options.level_ratio = 4;
    options.base_level_bytes = 2 << 20;
    std::unique_ptr<multilevel::MultilevelTree> tree;
    CheckOk(multilevel::MultilevelTree::Open(options, ws.Path("db"), &tree),
            "open multilevel tree");
    auto engine = kv::WrapMultilevel(tree.get());

    PolicyResult r;
    r.policy = tree->CompactionPolicyName();

    WorkloadSpec load_spec;
    load_spec.record_count = kRecords;
    load_spec.value_size = kValueSize;
    DriverOptions dopts;
    dopts.threads = 8;
    uint64_t user_bytes = 0;
    auto level_bytes_start = ReadLevelBytes(*tree);

    RunLoad(engine.get(), load_spec, dopts, false, false);
    user_bytes += kRecords * (16 + kValueSize);
    tree->WaitForIdle();

    // fig8 sweep: uniform read/blind-write mixes. Each mix starts quiesced
    // and is charged its own deferred compactions via the trailing settle.
    for (int pct : kWritePcts) {
      auto spec = WorkloadSpec::ReadWriteMix(pct, /*blind=*/true, kRecords,
                                             Distribution::kUniform);
      spec.value_size = kValueSize;
      dopts.operations = kOpsPerMix;
      tree->WaitForIdle();
      auto before = ws.stats()->snapshot();
      auto result = RunWorkload(engine.get(), spec, dopts);
      tree->WaitForIdle();
      auto io = ws.stats()->snapshot() - before;
      user_bytes += result.ops * pct / 100 * (16 + kValueSize);
      double seeks_per_op =
          static_cast<double>(io.read_seeks) / static_cast<double>(result.ops);
      double write_bytes_per_op =
          static_cast<double>(io.write_bytes) / static_cast<double>(result.ops);
      r.mix_ops_per_second.push_back(result.OpsPerSecond());
      r.mix_read_seeks_per_op.push_back(seeks_per_op);
      r.mix_write_bytes_per_op.push_back(write_bytes_per_op);
      report.AddRow()
          .Str("policy", r.policy)
          .Str("driver", "fig8")
          .Num("write_pct", pct)
          .Num("ops_per_second", result.OpsPerSecond())
          .Num("read_seeks_per_op", seeks_per_op)
          .Num("write_bytes_per_op", write_bytes_per_op);
    }

    // Read-amplification probe. The mixes end at an arbitrary point of the
    // compaction cycle — L0 can hold 0-3 leftover runs (a +-3-seek noise
    // floor) and a tiered tree that just cascaded looks like a leveled one
    // — so first build a deterministic shape: each cycle pushes L0 to its
    // trigger (every policy then takes all L0 runs, leaving it empty) and
    // lands exactly one merged batch in L1, which tiering stacks as an
    // overlapping run and leveling folds into its sorted level. Loop until
    // L1 visibly holds a stack. Then probe absent keys: a miss must test
    // every run whose range covers the key, so seeks per miss is the run
    // stack itself.
    int junk = 0;
    for (int cycle = 0; cycle < 8 && tree->NumFilesAtLevel(1) < 3; cycle++) {
      // Anchor keys below/above the "user..." key space widen each drained
      // batch to cover every probe key, so the miss probe cannot
      // range-skip the stacked runs.
      CheckOk(engine->Put("!anchor-low", "drain"), "anchor put");
      CheckOk(engine->Put("~anchor-high", "drain"), "anchor put");
      for (int i = 0; i < options.l0_compaction_trigger; i++) {
        CheckOk(engine->Put(FormatKey(kRecords + junk++, true), "drain"),
                "L0 drain put");
        CheckOk(engine->Flush(), "L0 drain flush");
      }
      tree->WaitForIdle();
    }
    {
      const int kMissProbes = 2000;
      std::string v;
      uint64_t runs_before = tree->stats().read.run_probes.load();
      auto before = ws.stats()->snapshot();
      for (int i = 0; i < kMissProbes; i++) {
        engine->Get(FormatKey(kRecords + 1000000 + i, true), &v)
            .IgnoreError("NotFound is the point of the miss probe");
      }
      auto io = ws.stats()->snapshot() - before;
      r.read_seeks_per_read =
          static_cast<double>(io.read_seeks) / kMissProbes;
      r.read_runs_per_read =
          static_cast<double>(tree->stats().read.run_probes.load() -
                              runs_before) /
          kMissProbes;
    }

    // fig9 shift: saturate with uniform blind writes, then serve Zipfian
    // 80% reads / 20% blind writes against whatever shape the policy left.
    auto writes = WorkloadSpec::ReadWriteMix(100, true, kRecords,
                                             Distribution::kUniform);
    writes.value_size = kValueSize;
    dopts.operations = kShiftOps;
    auto phase1 = RunWorkload(engine.get(), writes, dopts);
    auto serving = WorkloadSpec::ReadWriteMix(20, true, kRecords,
                                              Distribution::kZipfian);
    serving.value_size = kValueSize;
    auto phase2 = RunWorkload(engine.get(), serving, dopts);
    tree->WaitForIdle();
    user_bytes += (kShiftOps + kShiftOps * 20 / 100) * (16 + kValueSize);
    r.shift_write_ops_per_second = phase1.OpsPerSecond();
    r.shift_serving_ops_per_second = phase2.OpsPerSecond();
    r.shift_serving_p99_ms = phase2.latency_us.Percentile(99) / 1000.0;
    report.AddRow()
        .Str("policy", r.policy)
        .Str("driver", "fig9")
        .Num("write_phase_ops_per_second", r.shift_write_ops_per_second)
        .Num("serving_phase_ops_per_second", r.shift_serving_ops_per_second)
        .Num("serving_p99_ms", r.shift_serving_p99_ms);

    auto level_bytes = ReadLevelBytes(*tree);
    r.compaction_write_amp =
        static_cast<double>(level_bytes.compaction -
                            level_bytes_start.compaction) /
        static_cast<double>(user_bytes);
    r.flush_write_amp =
        static_cast<double>(level_bytes.flush - level_bytes_start.flush) /
        static_cast<double>(user_bytes);
    report.AddRow()
        .Str("policy", r.policy)
        .Str("driver", "summary")
        .Num("compaction_write_amp", r.compaction_write_amp)
        .Num("flush_write_amp", r.flush_write_amp)
        .Num("read_seeks_per_miss", r.read_seeks_per_read)
        .Num("read_runs_per_miss", r.read_runs_per_read);

    CheckOk(tree->BackgroundError(), "background error after run");
    results.push_back(std::move(r));
  }

  printf("\n%-24s %18s %14s %12s %12s\n", "policy", "compaction-W-amp",
         "flush-W-amp", "runs/miss", "seeks/miss");
  for (const auto& r : results) {
    printf("%-24s %18.2f %14.2f %12.2f %12.2f\n", r.policy.c_str(),
           r.compaction_write_amp, r.flush_write_amp, r.read_runs_per_read,
           r.read_seeks_per_read);
  }

  printf("\n--- fig8 sweep: ops/second by write fraction\n");
  printf("%-24s", "write %:");
  for (int pct : kWritePcts) printf("%10d", pct);
  printf("\n");
  for (const auto& r : results) {
    printf("%-24s", r.policy.c_str());
    for (double v : r.mix_ops_per_second) printf("%10.0f", v);
    printf("\n");
  }

  printf("\n--- fig9 shift: ops/second per phase\n");
  printf("%-24s %14s %14s %14s\n", "policy", "write-phase", "serving",
         "serving p99 ms");
  for (const auto& r : results) {
    printf("%-24s %14.0f %14.0f %14.2f\n", r.policy.c_str(),
           r.shift_write_ops_per_second, r.shift_serving_ops_per_second,
           r.shift_serving_p99_ms);
  }

  // The tradeoff the policy space exists to trade, checked on this run.
  const PolicyResult* leveling = nullptr;
  const PolicyResult* tiering = nullptr;
  for (const auto& r : results) {
    if (r.policy == "leveling") leveling = &r;
    if (r.policy.rfind("tiering", 0) == 0) tiering = &r;
  }
  if (leveling != nullptr && tiering != nullptr) {
    bool tiering_writes_less =
        tiering->compaction_write_amp < leveling->compaction_write_amp;
    bool leveling_reads_less =
        leveling->read_runs_per_read < tiering->read_runs_per_read;
    printf("\ncheck: tiering compaction write-amp %.2f %s leveling %.2f; "
           "leveling runs/miss %.2f %s tiering %.2f\n",
           tiering->compaction_write_amp, tiering_writes_less ? "<" : ">=",
           leveling->compaction_write_amp, leveling->read_runs_per_read,
           leveling_reads_less ? "<" : ">=", tiering->read_runs_per_read);
    // Below full scale the dataset may not overflow L1 at all (zero
    // compactions on every policy), so the tradeoff is only enforced when
    // the geometry actually exercises it.
    if ((!tiering_writes_less || !leveling_reads_less) && Scale() >= 1.0) {
      printf("check FAILED: the leveling/tiering tradeoff did not hold\n");
      report.Write();
      return 1;
    }
  }

  printf("\nPaper check (design space): tiering trades read amplification\n"
         "for write amplification; leveling the reverse; lazy-leveling\n"
         "keeps tiering's write savings while its sorted last level bounds\n"
         "the probe count where most data lives.\n");
  return 0;
}
