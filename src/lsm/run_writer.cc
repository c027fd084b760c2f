#include "lsm/run_writer.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "engine/background_runner.h"
#include "lsm/collapse.h"
#include "lsm/record.h"
#include "sstree/tree_builder.h"

namespace blsm {

// --- runs --------------------------------------------------------------------

Run::~Run() {
  if (obsolete.load()) {
    // The manifest that dropped this run is already durable; a failed
    // unlink only leaks disk until the next orphan scavenge at Open.
    env->RemoveFile(fname).IgnoreError(
        "orphan scavenge reclaims the file on next open");
  }
}

Status Run::Open(Env* env, BlockCache* cache, uint64_t number,
                 std::string fname, bool verify, RunPtr* out) {
  auto run = std::make_shared<Run>();
  run->env = env;
  run->number = number;
  run->fname = std::move(fname);
  Status s =
      sstree::TreeReader::Open(env, cache, number, run->fname, &run->reader);
  if (s.ok() && verify) s = run->reader->VerifyAllBlocks();
  if (!s.ok()) return s;
  run->data_bytes = run->reader->data_bytes();
  *out = std::move(run);
  return Status::OK();
}

// --- the run writer ----------------------------------------------------------

namespace {

// A TreeBuilder, with its own write-behind appender if asked: sealed
// blocks are then appended by one ordered worker (the order the file
// format requires) while the caller seals the next block. The worker
// carries the IoPriority tag of the thread that constructs this.
class FileBuilder {
 public:
  FileBuilder(const RunWriterOptions& o, const std::string& fname,
              bool write_behind)
      : appender_(write_behind ? std::make_unique<engine::TaskPipeline>(1)
                               : nullptr),
        builder_(o.env, fname, BuilderOptions(o, appender_.get())) {}

  sstree::TreeBuilder* operator->() { return &builder_; }

 private:
  static sstree::TreeBuilderOptions BuilderOptions(
      const RunWriterOptions& o, sstree::AppendExecutor* appender) {
    sstree::TreeBuilderOptions options;
    options.block_size = o.block_size;
    options.build_bloom = o.build_bloom;
    options.bloom_bits_per_key = o.bloom_bits_per_key;
    options.append_executor = appender;
    return options;
  }

  std::unique_ptr<engine::TaskPipeline> appender_;
  sstree::TreeBuilder builder_;  // destroyed first: it drains the appender
};

// One output file: its number and key range, and either the streaming
// builder or, for a partition-parallel build, the buffered records
// waiting for a builder thread. `run` is set once the file is finished.
struct OutputFile {
  uint64_t number = 0;
  std::string fname;
  std::string smallest, largest;  // user keys
  size_t record_bytes = 0;        // internal key + value; the cap's measure
  std::vector<std::pair<std::string, std::string>> records;  // ikey, value
  std::unique_ptr<FileBuilder> builder;
  bool created = false;
  RunPtr run;
  uint64_t file_bytes = 0;
};

Status StartFile(const RunWriterOptions& o, OutputFile* f, bool write_behind) {
  f->builder = std::make_unique<FileBuilder>(o, f->fname, write_behind);
  f->created = true;
  return (*f->builder)->Open();
}

Status FinishFile(const RunWriterOptions& o, OutputFile* f) {
  Status s = (*f->builder)->Finish();
  if (!s.ok()) return s;
  f->file_bytes = (*f->builder)->file_size();
  f->builder.reset();
  s = Run::Open(o.env, o.cache, f->number, f->fname, /*verify=*/false,
                &f->run);
  if (!s.ok()) return s;
  f->run->smallest = f->smallest;
  f->run->largest = f->largest;
  return Status::OK();
}

// Runs on a builder thread: streams a full file's buffered records into
// its own builder, then releases them. The builder thread already runs
// beside the merge loop, so it appends inline.
Status BuildBufferedFile(const RunWriterOptions& o, OutputFile* f) {
  Status s = StartFile(o, f, /*write_behind=*/false);
  for (size_t i = 0; s.ok() && i < f->records.size(); i++) {
    s = (*f->builder)->Add(f->records[i].first, f->records[i].second);
  }
  std::vector<std::pair<std::string, std::string>>().swap(f->records);
  if (s.ok()) s = FinishFile(o, f);
  return s;
}

}  // namespace

Status WriteRuns(const RunWriterOptions& o,
                 std::vector<std::unique_ptr<InternalIterator>> inputs,
                 RunWriteResult* result) {
  *result = RunWriteResult{};
  const bool parallel = o.file_bytes_cap > 0 && o.builder_threads > 1;
  std::vector<std::unique_ptr<OutputFile>> files;
  // Declared after `files`, so it is drained and joined before any file a
  // build task writes is destroyed. Submit's backpressure bounds the
  // buffered records to about (builder_threads + 1) files.
  std::unique_ptr<engine::TaskPipeline> builders;
  if (parallel) {
    builders = std::make_unique<engine::TaskPipeline>(o.builder_threads);
  }

  MergingIterator input(std::move(inputs));
  input.SeekToFirst();

  OutputFile* current = nullptr;
  // Ends the current file: finishes it in place, or hands its records to a
  // builder thread. Numbers were claimed in stream order either way, so
  // both modes write the same files.
  auto close_current = [&]() -> Status {
    OutputFile* f = current;
    current = nullptr;
    if (!parallel) return FinishFile(o, f);
    return builders->Submit([&o, f] { return BuildBufferedFile(o, f); });
  };

  uint64_t consumed = 0;
  size_t since_yield = 0;
  std::string ikey;
  Status s;
  while (input.Valid()) {
    GroupResult group;
    s = CollapseGroup(&input, o.merge_op, o.bottom, &consumed, &group);
    if (!s.ok()) break;
    if (o.consumed != nullptr) {
      o.consumed->store(consumed, std::memory_order_relaxed);
    }
    if (group.emit) {
      if (current == nullptr) {
        files.push_back(std::make_unique<OutputFile>());
        current = files.back().get();
        current->number = o.new_file_number();
        current->fname = o.file_name(current->number);
        current->smallest = group.user_key;
        if (!parallel) {
          s = StartFile(o, current, o.write_behind);
          if (!s.ok()) break;
        }
      }
      ikey.clear();
      AppendInternalKey(&ikey, group.user_key, group.seq, group.type);
      current->record_bytes += ikey.size() + group.value.size();
      if (parallel) {
        current->records.emplace_back(ikey, std::move(group.value));
      } else {
        s = (*current->builder)->Add(ikey, group.value);
        if (!s.ok()) break;
      }
      current->largest = std::move(group.user_key);
      if (o.file_bytes_cap > 0 && current->record_bytes >= o.file_bytes_cap) {
        s = close_current();
        if (!s.ok()) break;
      }
    }
    if (o.yield && ++since_yield >= o.yield_every) {
      since_yield = 0;
      if (!o.yield()) {
        result->abandoned = true;
        break;
      }
    }
  }
  if (s.ok()) s = input.status();
  if (s.ok() && !result->abandoned && current != nullptr) s = close_current();
  if (builders != nullptr) {
    Status drain = builders->Drain();
    if (s.ok()) s = drain;
  }
  result->bytes_consumed = consumed;

  if (!s.ok() || result->abandoned) {
    for (const auto& f : files) {
      if (f->run != nullptr) {
        f->run->obsolete.store(true);  // unlinked as `files` drops it
        continue;
      }
      if (f->builder != nullptr) (*f->builder)->Abandon();
      if (f->created) {
        o.env->RemoveFile(f->fname).IgnoreError(
            "partial run output; orphan scavenge reclaims it");
      }
    }
    return s;
  }
  for (const auto& f : files) {
    result->runs.push_back(std::move(f->run));
    result->bytes_written += f->file_bytes;
  }
  if (parallel) result->parallel_builds = result->runs.size();
  return Status::OK();
}

// --- orphans and manifests ---------------------------------------------------

uint64_t RemoveOrphanRuns(Env* env, const std::string& dir,
                          const std::string& suffix,
                          const std::vector<uint64_t>& live) {
  std::vector<std::string> children;
  if (!env->GetChildren(dir, &children).ok()) return 0;
  uint64_t removed = 0;
  for (const std::string& name : children) {
    if (name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    uint64_t number = strtoull(name.c_str(), nullptr, 10);
    if (std::find(live.begin(), live.end(), number) != live.end()) continue;
    if (env->RemoveFile(dir + "/" + name).ok()) removed++;
  }
  return removed;
}

Status ManifestWriter::Save(Env* env, const std::string& fname,
                            const std::string& body, uint64_t version) {
  util::MutexLock l(&mu_);
  if (version <= written_version_) return Status::OK();
  std::string tmp = fname + ".tmp";
  Status s = WriteStringToFile(env, body, tmp, /*sync=*/true);
  if (s.ok()) s = env->RenameFile(tmp, fname);
  if (s.ok()) written_version_ = version;
  return s;
}

}  // namespace blsm
