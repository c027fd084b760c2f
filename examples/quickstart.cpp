// Quickstart: open a bLSM tree, exercise the whole public API, and peek at
// the internals the paper describes (components, merge scheduler state).
//
//   build/examples/quickstart [directory]
//
// The tree persists: run it twice and the second run finds the first run's
// data via manifest + logical-log recovery.

#include <cinttypes>
#include <cstdio>

#include "lsm/blsm_tree.h"

// Aborts on unexpected failure, keeping the example focused on the API.
static void Require(const blsm::Status& s, const char* what) {
  if (!s.ok()) {
    fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
    exit(1);
  }
}

int main(int argc, char** argv) {
  using namespace blsm;

  std::string dir = argc > 1 ? argv[1] : "/tmp/blsm_quickstart";

  // Options: the defaults match the paper's design (three levels, Bloom
  // filters everywhere, snowshoveling, spring-and-gear scheduling).
  BlsmOptions options;
  options.c0_target_bytes = 4 << 20;
  options.durability = DurabilityMode::kSync;  // fsync the log per write

  std::unique_ptr<BlsmTree> tree;
  Status s = BlsmTree::Open(options, dir, &tree);
  if (!s.ok()) {
    fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }
  printf("opened bLSM tree at %s\n", dir.c_str());

  // --- blind writes: zero seeks (Table 1) ---------------------------------
  Require(tree->Put("user:alice", "alice@example.com"), "Put");
  Require(tree->Put("user:bob", "bob@example.com"), "Put");
  Require(tree->Put("user:carol", "carol@example.com"), "Put");

  std::string value;
  s = tree->Get("user:alice", &value);
  printf("Get(user:alice) -> %s (%s)\n", value.c_str(), s.ToString().c_str());

  // --- insert-if-not-exists: seek-free existence checks (§3.1.2) ----------
  s = tree->InsertIfNotExists("user:alice", "impostor@example.com");
  printf("InsertIfNotExists(user:alice) -> %s (expected KeyExists)\n",
         s.ToString().c_str());

  // --- deltas: zero-seek partial updates (§2.3) ----------------------------
  // The default merge operator appends; reads see base + deltas applied.
  Require(tree->WriteDelta("user:alice", " +newsletter"), "WriteDelta");
  Require(tree->Get("user:alice", &value), "Get");
  printf("after delta -> %s\n", value.c_str());

  // --- deletes and re-inserts ----------------------------------------------
  Require(tree->Delete("user:bob"), "Delete");
  s = tree->Get("user:bob", &value);
  printf("Get(user:bob) after delete -> %s\n", s.ToString().c_str());

  // --- read-modify-write ----------------------------------------------------
  Require(tree->ReadModifyWrite(
              "user:carol",
              [](const std::string& old, bool absent) {
                return absent ? std::string("fresh") : old + " (verified)";
              }),
          "ReadModifyWrite");
  Require(tree->Get("user:carol", &value), "Get");
  printf("after RMW -> %s\n", value.c_str());

  // --- range scans: 2-3 seeks regardless of length (§3.3) ------------------
  std::vector<std::pair<std::string, std::string>> rows;
  Require(tree->Scan("user:", 10, &rows), "Scan");
  printf("scan from 'user:':\n");
  for (const auto& [k, v] : rows) printf("  %s = %s\n", k.c_str(), v.c_str());

  // --- force the merge pipeline and look at the tree shape -----------------
  Require(tree->Flush(), "Flush");            // C0 -> C1
  Require(tree->CompactToBottom(), "CompactToBottom");  // C1 -> C1' -> C2
  printf("on-disk bytes after compaction: %" PRIu64 "\n", tree->OnDiskBytes());

  SchedulerState sched = tree->ComputeSchedulerState();
  printf("scheduler state: c0 fill %.1f%%, merge1 %s, merge2 %s\n",
         100 * sched.c0_fill(), sched.merge1_active ? "active" : "idle",
         sched.merge2_active ? "active" : "idle");

  const BlsmStats& stats = tree->stats();
  printf("stats: %" PRIu64 " puts, %" PRIu64 " gets, %" PRIu64
         " merge passes, %" PRIu64 " bloom skips\n",
         stats.puts.load(), stats.read.gets.load(),
         stats.merge1_passes.load() + stats.merge2_passes.load(),
         stats.read.bloom_skips.load());
  printf("done. run again to see recovery pick the data back up.\n");
  return 0;
}
