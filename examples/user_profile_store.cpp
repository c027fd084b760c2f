// Serving-store example: a PNUTS-style user-profile service (§1: bLSM "is
// designed to be used as backing storage for PNUTS, our geographically-
// distributed key-value storage system").
//
// Interactive, user-facing mix: Zipfian point reads of profiles,
// read-modify-write edits, and registrations via insert-if-not-exists —
// the primitives Table 1 prices at 1, 1, and 0 seeks respectively.
//
//   build/examples/user_profile_store [users] [operations] [directory]

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "lsm/blsm_tree.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/zipfian.h"

namespace {

std::string ProfileKey(uint64_t user_id) {
  char buf[32];
  snprintf(buf, sizeof(buf), "profile:%012llu",
           static_cast<unsigned long long>(user_id));
  return buf;
}

std::string InitialProfile(uint64_t user_id) {
  char buf[128];
  snprintf(buf, sizeof(buf),
           "{\"id\":%llu,\"name\":\"user%llu\",\"logins\":0}",
           static_cast<unsigned long long>(user_id),
           static_cast<unsigned long long>(user_id));
  return buf;
}

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace blsm;

  const uint64_t users = argc > 1 ? strtoull(argv[1], nullptr, 10) : 50000;
  const uint64_t operations =
      argc > 2 ? strtoull(argv[2], nullptr, 10) : 100000;
  std::string dir = argc > 3 ? argv[3] : "/tmp/blsm_profiles";

  BlsmOptions options;
  options.c0_target_bytes = 8 << 20;
  options.durability = DurabilityMode::kSync;  // user data: no lost writes
  std::unique_ptr<BlsmTree> tree;
  Status s = BlsmTree::Open(options, dir, &tree);
  if (!s.ok()) {
    fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // Registration: insert-if-not-exists is idempotent, so re-running this
  // example never clobbers existing profiles — and thanks to the Bloom
  // filter on C2, re-registration checks are seek-free (§3.1.2).
  printf("registering %" PRIu64 " users (idempotent)...\n", users);
  uint64_t fresh = 0;
  for (uint64_t id = 0; id < users; id++) {
    Status rs = tree->InsertIfNotExists(ProfileKey(id), InitialProfile(id));
    if (rs.ok()) {
      fresh++;
    } else if (!rs.IsKeyExists()) {
      fprintf(stderr, "register failed: %s\n", rs.ToString().c_str());
      return 1;
    }
  }
  printf("  %" PRIu64 " new registrations, %" PRIu64 " already present\n",
         fresh, users - fresh);

  // Serving mix: 80% reads, 15% RMW profile edits, 5% registrations —
  // Zipfian access (hot users dominate), as in the paper's Figure 9 phase.
  printf("serving %" PRIu64 " operations (80/15/5 read/edit/register)...\n",
         operations);
  ScrambledZipfianGenerator hot(users, 42);
  Random rnd(43);
  Histogram read_lat, write_lat;
  uint64_t reads = 0, edits = 0, registrations = 0, misses = 0;
  uint64_t next_user = users;

  for (uint64_t op = 0; op < operations; op++) {
    double dice = rnd.NextDouble();
    uint64_t begin = NowMicros();
    if (dice < 0.80) {
      std::string profile;
      Status rs = tree->Get(ProfileKey(hot.Next()), &profile);
      if (rs.IsNotFound()) misses++;
      read_lat.Add(NowMicros() - begin);
      reads++;
    } else if (dice < 0.95) {
      Status rs = tree->ReadModifyWrite(
          ProfileKey(hot.Next()), [](const std::string& old, bool absent) {
            if (absent) return std::string("{\"recovered\":true}");
            // Bump the login counter in the (toy) JSON payload.
            std::string fresh_profile = old;
            size_t pos = fresh_profile.rfind(":");
            if (pos != std::string::npos) {
              fresh_profile.insert(pos + 1, " ");
            }
            return fresh_profile;
          });
      if (!rs.ok()) fprintf(stderr, "edit: %s\n", rs.ToString().c_str());
      write_lat.Add(NowMicros() - begin);
      edits++;
    } else {
      uint64_t id = next_user++;
      Status is = tree->InsertIfNotExists(ProfileKey(id), InitialProfile(id));
      if (!is.ok()) fprintf(stderr, "register: %s\n", is.ToString().c_str());
      write_lat.Add(NowMicros() - begin);
      registrations++;
    }
  }

  printf("\nresults:\n");
  printf("  reads:         %8" PRIu64 "  (misses: %" PRIu64 ")\n", reads,
         misses);
  printf("  edits (RMW):   %8" PRIu64 "\n", edits);
  printf("  registrations: %8" PRIu64 "\n", registrations);
  printf("  read latency:  %s\n", read_lat.ToString().c_str());
  printf("  write latency: %s\n", write_lat.ToString().c_str());
  printf("  bloom filter skips: %" PRIu64 " component probes avoided\n",
         tree->stats().read.bloom_skips.load());

  // Short scans power "list my friends"-style pages (§3.3).
  std::vector<std::pair<std::string, std::string>> page;
  Status ps = tree->Scan(ProfileKey(0), 4, &page);
  if (!ps.ok()) fprintf(stderr, "scan: %s\n", ps.ToString().c_str());
  printf("  sample page of %zu profiles starting at %s\n", page.size(),
         page.empty() ? "(none)" : page[0].first.c_str());
  return 0;
}
