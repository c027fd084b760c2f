#include "io/env.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <memory>

#include "io/counting_env.h"
#include "io/fault_injection_env.h"
#include "io/mem_env.h"
#include "io/unbatched_env.h"

namespace blsm {
namespace {

// Shared conformance suite run against both MemEnv and the CountingEnv
// wrapper (over MemEnv).
class EnvTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    mem_env_ = std::make_unique<MemEnv>();
    if (GetParam()) {
      counting_ = std::make_unique<CountingEnv>(mem_env_.get(), &stats_);
      env_ = counting_.get();
    } else {
      env_ = mem_env_.get();
    }
  }

  std::unique_ptr<MemEnv> mem_env_;
  std::unique_ptr<CountingEnv> counting_;
  IoStats stats_;
  Env* env_ = nullptr;
};

TEST_P(EnvTest, WriteReadRoundTrip) {
  ASSERT_TRUE(WriteStringToFile(env_, "hello world", "f", true).ok());
  std::string data;
  ASSERT_TRUE(ReadFileToString(env_, "f", &data).ok());
  EXPECT_EQ(data, "hello world");
}

TEST_P(EnvTest, FileExists) {
  EXPECT_FALSE(env_->FileExists("nope"));
  ASSERT_TRUE(WriteStringToFile(env_, "x", "yes", false).ok());
  EXPECT_TRUE(env_->FileExists("yes"));
}

TEST_P(EnvTest, GetFileSize) {
  ASSERT_TRUE(WriteStringToFile(env_, std::string(12345, 'a'), "f", false).ok());
  uint64_t size = 0;
  ASSERT_TRUE(env_->GetFileSize("f", &size).ok());
  EXPECT_EQ(size, 12345u);
}

TEST_P(EnvTest, MissingFileIsNotFound) {
  std::unique_ptr<SequentialFile> f;
  Status s = env_->NewSequentialFile("missing", &f);
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
}

TEST_P(EnvTest, RenameReplaces) {
  ASSERT_TRUE(WriteStringToFile(env_, "new", "a", false).ok());
  ASSERT_TRUE(WriteStringToFile(env_, "old", "b", false).ok());
  ASSERT_TRUE(env_->RenameFile("a", "b").ok());
  EXPECT_FALSE(env_->FileExists("a"));
  std::string data;
  ASSERT_TRUE(ReadFileToString(env_, "b", &data).ok());
  EXPECT_EQ(data, "new");
}

TEST_P(EnvTest, RemoveFile) {
  ASSERT_TRUE(WriteStringToFile(env_, "x", "f", false).ok());
  ASSERT_TRUE(env_->RemoveFile("f").ok());
  EXPECT_FALSE(env_->FileExists("f"));
  EXPECT_TRUE(env_->RemoveFile("f").IsNotFound());
}

TEST_P(EnvTest, RemoveDirRecursive) {
  ASSERT_TRUE(env_->CreateDir("d").ok());
  ASSERT_TRUE(env_->CreateDir("d/sub").ok());
  ASSERT_TRUE(WriteStringToFile(env_, "x", "d/a", false).ok());
  ASSERT_TRUE(WriteStringToFile(env_, "y", "d/sub/b", false).ok());
  ASSERT_TRUE(WriteStringToFile(env_, "z", "other", false).ok());

  ASSERT_TRUE(env_->RemoveDirRecursive("d").ok());
  EXPECT_FALSE(env_->FileExists("d/a"));
  EXPECT_FALSE(env_->FileExists("d/sub/b"));
  // Gone: either NotFound or an empty listing, depending on the env.
  std::vector<std::string> children;
  Status s = env_->GetChildren("d", &children);
  EXPECT_TRUE(s.IsNotFound() || (s.ok() && children.empty())) << s.ToString();
  // Siblings survive, and removing a missing dir is success (idempotent).
  EXPECT_TRUE(env_->FileExists("other"));
  EXPECT_TRUE(env_->RemoveDirRecursive("d").ok());
}

TEST_P(EnvTest, RandomAccessRead) {
  ASSERT_TRUE(WriteStringToFile(env_, "0123456789", "f", false).ok());
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env_->NewRandomAccessFile("f", &f).ok());
  char scratch[16];
  Slice result;
  ASSERT_TRUE(f->Read(3, 4, &result, scratch).ok());
  EXPECT_EQ(result.ToString(), "3456");
  // Read past EOF returns short/empty, not an error.
  ASSERT_TRUE(f->Read(8, 10, &result, scratch).ok());
  EXPECT_EQ(result.ToString(), "89");
  ASSERT_TRUE(f->Read(100, 4, &result, scratch).ok());
  EXPECT_TRUE(result.empty());
}

TEST_P(EnvTest, RandomRWFile) {
  std::unique_ptr<RandomRWFile> f;
  ASSERT_TRUE(env_->NewRandomRWFile("rw", &f).ok());
  ASSERT_TRUE(f->Write(0, "AAAA").ok());
  ASSERT_TRUE(f->Write(8, "BBBB").ok());  // hole at 4..7
  ASSERT_TRUE(f->Write(2, "cc").ok());    // overwrite
  char scratch[16];
  Slice result;
  ASSERT_TRUE(f->Read(0, 12, &result, scratch).ok());
  EXPECT_EQ(result.size(), 12u);
  EXPECT_EQ(result.ToString().substr(0, 4), "AAcc");
  EXPECT_EQ(result.ToString().substr(8, 4), "BBBB");
}

TEST_P(EnvTest, SequentialSkip) {
  ASSERT_TRUE(WriteStringToFile(env_, "0123456789", "f", false).ok());
  std::unique_ptr<SequentialFile> f;
  ASSERT_TRUE(env_->NewSequentialFile("f", &f).ok());
  ASSERT_TRUE(f->Skip(4).ok());
  char scratch[16];
  Slice result;
  ASSERT_TRUE(f->Read(3, &result, scratch).ok());
  EXPECT_EQ(result.ToString(), "456");
}

TEST_P(EnvTest, GetChildren) {
  ASSERT_TRUE(WriteStringToFile(env_, "x", "dir/a", false).ok());
  ASSERT_TRUE(WriteStringToFile(env_, "x", "dir/b", false).ok());
  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren("dir", &children).ok());
  EXPECT_EQ(children.size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(PlainAndCounting, EnvTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "Counting" : "Mem";
                         });

TEST(CountingEnvTest, ClassifiesSeeksAndSequentialReads) {
  MemEnv base;
  IoStats stats;
  CountingEnv env(&base, &stats);
  std::string blob(1 << 20, 'z');
  ASSERT_TRUE(WriteStringToFile(&env, blob, "f", false).ok());

  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env.NewRandomAccessFile("f", &f).ok());
  char scratch[4096];
  Slice r;
  // First read: one seek.
  ASSERT_TRUE(f->Read(0, 4096, &r, scratch).ok());
  uint64_t seeks_after_first = stats.read_seeks.load();
  // Contiguous follow-up reads: no new seeks.
  ASSERT_TRUE(f->Read(4096, 4096, &r, scratch).ok());
  ASSERT_TRUE(f->Read(8192, 4096, &r, scratch).ok());
  EXPECT_EQ(stats.read_seeks.load(), seeks_after_first);
  // A jump far away: one more seek.
  ASSERT_TRUE(f->Read(900000, 4096, &r, scratch).ok());
  EXPECT_EQ(stats.read_seeks.load(), seeks_after_first + 1);
  // Backward read: seek.
  ASSERT_TRUE(f->Read(0, 4096, &r, scratch).ok());
  EXPECT_EQ(stats.read_seeks.load(), seeks_after_first + 2);
  EXPECT_EQ(stats.read_ops.load(), 5u);
  EXPECT_EQ(stats.read_bytes.load(), 5u * 4096);
}

TEST(CountingEnvTest, CountsWritesAndSyncs) {
  MemEnv base;
  IoStats stats;
  CountingEnv env(&base, &stats);
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env.NewWritableFile("f", &f).ok());
  ASSERT_TRUE(f->Append("hello").ok());
  ASSERT_TRUE(f->Append("world").ok());
  ASSERT_TRUE(f->Sync().ok());
  EXPECT_EQ(stats.write_bytes.load(), 10u);
  EXPECT_EQ(stats.write_ops.load(), 2u);
  EXPECT_EQ(stats.syncs.load(), 1u);
  // Appends are sequential: no write seeks.
  EXPECT_EQ(stats.write_seeks.load(), 0u);
}

TEST(CountingEnvTest, RandomWritesCountAsWriteSeeks) {
  MemEnv base;
  IoStats stats;
  CountingEnv env(&base, &stats);
  std::unique_ptr<RandomRWFile> f;
  ASSERT_TRUE(env.NewRandomRWFile("f", &f).ok());
  ASSERT_TRUE(f->Write(1 << 20, "page").ok());
  ASSERT_TRUE(f->Write(0, "page").ok());
  ASSERT_TRUE(f->Write(4, "page").ok());  // contiguous with previous
  EXPECT_EQ(stats.write_seeks.load(), 2u);
}

TEST(IoStatsTest, SnapshotDifference) {
  IoStats stats;
  stats.read_seeks = 10;
  stats.read_bytes = 100;
  auto a = stats.snapshot();
  stats.read_seeks = 25;
  stats.read_bytes = 400;
  auto diff = stats.snapshot() - a;
  EXPECT_EQ(diff.read_seeks, 15u);
  EXPECT_EQ(diff.read_bytes, 300u);
}

// --- MultiRead / ReadAheadHint conformance ----------------------------------

// Builds a 4-request batch over "0123456789" exercising in-bounds reads, an
// EOF-straddling read, and a past-EOF read; asserts the Read()-equivalent
// results. Runs against whatever env the fixture parameterizes.
void CheckMultiReadContract(Env* env) {
  ASSERT_TRUE(WriteStringToFile(env, "0123456789", "mr", false).ok());
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env->NewRandomAccessFile("mr", &f).ok());
  char scratch[4][16];
  ReadRequest reqs[4];
  reqs[0] = {0, 4, scratch[0], Slice(), Status::OK()};
  reqs[1] = {6, 3, scratch[1], Slice(), Status::OK()};
  reqs[2] = {8, 10, scratch[2], Slice(), Status::OK()};   // straddles EOF
  reqs[3] = {100, 4, scratch[3], Slice(), Status::OK()};  // entirely past EOF
  ASSERT_TRUE(f->MultiRead(reqs, 4).ok());
  EXPECT_TRUE(reqs[0].status.ok());
  EXPECT_EQ(reqs[0].result.ToString(), "0123");
  EXPECT_TRUE(reqs[1].status.ok());
  EXPECT_EQ(reqs[1].result.ToString(), "678");
  // EOF matches Read(): OK with a short (or empty) result, not an error.
  EXPECT_TRUE(reqs[2].status.ok());
  EXPECT_EQ(reqs[2].result.ToString(), "89");
  EXPECT_TRUE(reqs[3].status.ok());
  EXPECT_TRUE(reqs[3].result.empty());
}

TEST_P(EnvTest, MultiReadContract) { CheckMultiReadContract(env_); }

TEST_P(EnvTest, ReadAheadHintIsHarmless) {
  ASSERT_TRUE(WriteStringToFile(env_, std::string(8192, 'x'), "ra", false).ok());
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env_->NewRandomAccessFile("ra", &f).ok());
  f->ReadAheadHint(0, 8192);
  char scratch[4096];
  Slice r;
  ASSERT_TRUE(f->Read(4096, 4096, &r, scratch).ok());
  EXPECT_EQ(r.size(), 4096u);
}

TEST(MemEnvIoCountersTest, TracksReadsWritesAndReadahead) {
  MemEnv env;
  const EnvIoCounters* io = env.io_counters();
  ASSERT_NE(io, nullptr);
  ASSERT_TRUE(WriteStringToFile(&env, std::string(1000, 'a'), "f", true).ok());
  EXPECT_EQ(io->write_bytes.load(), 1000u);
  EXPECT_EQ(io->syncs.load(), 1u);

  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env.NewRandomAccessFile("f", &f).ok());
  f->ReadAheadHint(0, 512);
  char scratch[512];
  ReadRequest reqs[2];
  reqs[0] = {0, 100, scratch, Slice(), Status::OK()};
  reqs[1] = {600, 100, scratch + 100, Slice(), Status::OK()};
  ASSERT_TRUE(f->MultiRead(reqs, 2).ok());
  EXPECT_EQ(io->multiread_batches.load(), 1u);
  EXPECT_EQ(io->multiread_requests.load(), 2u);
  EXPECT_EQ(io->read_bytes.load(), 200u);
  EXPECT_EQ(io->readahead_hints.load(), 1u);
  // First read starts inside the hinted [0, 512) range; the second does not.
  EXPECT_EQ(io->readahead_hits.load(), 1u);
}

TEST(CountingEnvTest, ForwardsMultiReadBatchAndCountsSubReads) {
  MemEnv base;
  IoStats stats;
  CountingEnv env(&base, &stats);
  CheckMultiReadContract(&env);
  // The batch reached MemEnv's terminal counters intact (not unrolled into
  // per-request Read calls above it)...
  EXPECT_EQ(base.io_counters()->multiread_batches.load(), 1u);
  EXPECT_EQ(base.io_counters()->multiread_requests.load(), 4u);
  // ...and the decorator accounted each successful sub-read.
  EXPECT_EQ(stats.read_ops.load(), 4u);
  EXPECT_EQ(stats.read_bytes.load(), 4u + 3u + 2u + 0u);
}

TEST(UnbatchedEnvTest, SerializesMultiReadIntoSingleReads) {
  MemEnv base;
  UnbatchedEnv env(&base);
  CheckMultiReadContract(&env);
  // The ablation wrapper must dismantle the batch: the terminal sees four
  // plain Reads and zero MultiRead batches.
  EXPECT_EQ(base.io_counters()->multiread_batches.load(), 0u);
  EXPECT_EQ(base.io_counters()->read_bytes.load(), 4u + 3u + 2u + 0u);
}

TEST(UnbatchedEnvTest, DropsReadAheadHints) {
  MemEnv base;
  UnbatchedEnv env(&base);
  ASSERT_TRUE(WriteStringToFile(&env, "0123456789", "f", false).ok());
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env.NewRandomAccessFile("f", &f).ok());
  f->ReadAheadHint(0, 10);
  EXPECT_EQ(base.io_counters()->readahead_hints.load(), 0u);
}

TEST(FaultInjectionMultiReadTest, FaultedSubReadFailsOnlyThatRequest) {
  MemEnv base;
  FaultInjectionEnv env(&base);
  ASSERT_TRUE(WriteStringToFile(&env, "0123456789", "f", false).ok());
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env.NewRandomAccessFile("f", &f).ok());

  env.TripAfter(2);  // first two sub-reads succeed, then the device dies
  char scratch[4][8];
  ReadRequest reqs[4];
  for (int i = 0; i < 4; i++) {
    reqs[i] = {static_cast<uint64_t>(i * 2), 2, scratch[i], Slice(),
               Status::OK()};
  }
  // Batch status stays OK; the damage is per-request.
  ASSERT_TRUE(f->MultiRead(reqs, 4).ok());
  EXPECT_TRUE(reqs[0].status.ok());
  EXPECT_EQ(reqs[0].result.ToString(), "01");
  EXPECT_TRUE(reqs[1].status.ok());
  EXPECT_EQ(reqs[1].result.ToString(), "23");
  EXPECT_TRUE(reqs[2].status.IsIOError());
  EXPECT_TRUE(reqs[3].status.IsIOError());

  // Healed, the same batch succeeds whole.
  env.Heal();
  for (int i = 0; i < 4; i++) {
    reqs[i] = {static_cast<uint64_t>(i * 2), 2, scratch[i], Slice(),
               Status::OK()};
  }
  ASSERT_TRUE(f->MultiRead(reqs, 4).ok());
  for (int i = 0; i < 4; i++) {
    EXPECT_TRUE(reqs[i].status.ok()) << i;
  }
}

// --- real-filesystem env: posix --------------------------------------------

class RealFsEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "env_test_io_" +
           std::to_string(::getpid());
    ASSERT_TRUE(Env::Default()->CreateDir(dir_).ok());
  }
  void TearDown() override {
    Env::Default()->RemoveDirRecursive(dir_).IgnoreError("test teardown");
  }
  std::string dir_;
};

TEST_F(RealFsEnvTest, PosixMultiReadContract) {
  // Posix coalesces contiguous runs into preadv; the contract must hold
  // regardless.
  Env* env = Env::Default();
  ASSERT_TRUE(
      WriteStringToFile(env, "0123456789", dir_ + "/mr", false).ok());
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env->NewRandomAccessFile(dir_ + "/mr", &f).ok());
  char scratch[3][16];
  ReadRequest reqs[3];
  reqs[0] = {0, 4, scratch[0], Slice(), Status::OK()};
  reqs[1] = {4, 4, scratch[1], Slice(), Status::OK()};  // contiguous with [0]
  reqs[2] = {8, 10, scratch[2], Slice(), Status::OK()};  // EOF-short
  ASSERT_TRUE(f->MultiRead(reqs, 3).ok());
  EXPECT_EQ(reqs[0].result.ToString(), "0123");
  EXPECT_EQ(reqs[1].result.ToString(), "4567");
  EXPECT_TRUE(reqs[2].status.ok());
  EXPECT_EQ(reqs[2].result.ToString(), "89");
}

// Every MultiRead result must equal the file's own bytes at that range:
// unaligned and overlapping probes (single preads), and a contiguous run
// longer than one preadv's iovec limit that also straddles EOF.
TEST_F(RealFsEnvTest, PosixMultiReadMatchesFileBytes) {
  Env* env = Env::Default();
  std::string blob;
  blob.reserve(300000);
  for (int i = 0; blob.size() < 300000; i++) blob += std::to_string(i);
  ASSERT_TRUE(WriteStringToFile(env, blob, dir_ + "/f", false).ok());
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env->NewRandomAccessFile(dir_ + "/f", &f).ok());
  auto expected = [&](const ReadRequest& r) {
    uint64_t off = std::min<uint64_t>(r.offset, blob.size());
    return blob.substr(off, std::min<uint64_t>(r.len, blob.size() - off));
  };
  const EnvIoCounters* io = env->io_counters();

  const uint64_t offsets[] = {0, 1, 4095, 4096, 65537, 131071, 299990};
  constexpr size_t kLen = 1000;
  std::vector<std::string> scratch(7, std::string(kLen, 0));
  ReadRequest reqs[7];
  for (int i = 0; i < 7; i++) {
    reqs[i] = {offsets[i], kLen, scratch[i].data(), Slice(), Status::OK()};
  }
  uint64_t batches = io->multiread_batches.load();
  uint64_t requests = io->multiread_requests.load();
  ASSERT_TRUE(f->MultiRead(reqs, 7).ok());
  for (int i = 0; i < 7; i++) {
    ASSERT_TRUE(reqs[i].status.ok()) << i;
    EXPECT_EQ(reqs[i].result.ToString(), expected(reqs[i]))
        << "offset " << offsets[i];
  }
  EXPECT_EQ(io->multiread_batches.load() - batches, 1u);
  EXPECT_EQ(io->multiread_requests.load() - requests, 7u);

  // 150 back-to-back requests of odd lengths from offset 1: the run splits
  // into preadvs of at most 64 requests, and its last ones pass EOF.
  constexpr size_t kRun = 150;
  std::vector<std::string> run_scratch;
  std::vector<ReadRequest> run(kRun);
  uint64_t at = 1;
  for (size_t k = 0; k < kRun; k++) {
    size_t len = 2003 + k;
    run_scratch.emplace_back(len, 0);
    run[k] = {at, len, run_scratch[k].data(), Slice(), Status::OK()};
    at += len;
  }
  ASSERT_GT(at, blob.size());
  batches = io->multiread_batches.load();
  requests = io->multiread_requests.load();
  ASSERT_TRUE(f->MultiRead(run.data(), kRun).ok());
  for (size_t k = 0; k < kRun; k++) {
    ASSERT_TRUE(run[k].status.ok()) << k;
    EXPECT_EQ(run[k].result.ToString(), expected(run[k]))
        << "request " << k << " offset " << run[k].offset;
  }
  EXPECT_EQ(io->multiread_batches.load() - batches, 1u);
  EXPECT_EQ(io->multiread_requests.load() - requests, kRun);
}

TEST(WritableFileAppendVTest, MatchesSequentialAppends) {
  MemEnv env;
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env.NewWritableFile("v", &f).ok());
  Slice parts[3] = {Slice("abc"), Slice(""), Slice("defg")};
  ASSERT_TRUE(f->AppendV(parts, 3).ok());
  ASSERT_TRUE(f->Sync().ok());
  std::string back;
  ASSERT_TRUE(ReadFileToString(&env, "v", &back).ok());
  EXPECT_EQ(back, "abcdefg");
  EXPECT_GE(f->PreferredAppendAlignment(), 1u);
}

TEST(MemEnvTest, DropUnsyncedSimulatesCrash) {
  MemEnv env;
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env.NewWritableFile("f", &f).ok());
  ASSERT_TRUE(f->Append("durable").ok());
  ASSERT_TRUE(f->Sync().ok());
  ASSERT_TRUE(f->Append("lost").ok());
  env.DropUnsynced();
  std::string data;
  ASSERT_TRUE(ReadFileToString(&env, "f", &data).ok());
  EXPECT_EQ(data, "durable");
}

}  // namespace
}  // namespace blsm
