// Concurrency tests for the parallel update-creation pipeline: the
// fan-out (ks::ParallelFor, base/threadpool.h), the content-addressed
// object cache (kcc/objcache.h), and the pipeline's determinism guarantee
// — parallel create runs produce bytes identical to the serial path, and
// the shared pre build is compiled exactly once. scripts/check_tsan.sh
// runs this binary under -fsanitize=thread.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/threadpool.h"
#include "corpus/corpus.h"
#include "kcc/compile.h"
#include "kcc/objcache.h"
#include "kelf/objfile.h"
#include "ksplice/create.h"

namespace {

TEST(ParallelForTest, TwoHundredIndicesOnFourJobsRunOnce) {
  std::vector<std::atomic<int>> counts(200);
  ks::ParallelFor(4, counts.size(), [&](size_t i) {
    counts[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const std::atomic<int>& count : counts) {
    EXPECT_EQ(count.load(), 1);
  }
}

TEST(ParallelForTest, StartsAtMostMinOfJobsAndIndicesThreads) {
  std::mutex mu;
  for (size_t n : {2u, 3u, 40u}) {
    std::set<std::thread::id> threads;
    ks::ParallelFor(3, n, [&](size_t) {
      std::lock_guard<std::mutex> lock(mu);
      threads.insert(std::this_thread::get_id());
    });
    EXPECT_GE(threads.size(), 1u) << "n=" << n;
    EXPECT_LE(threads.size(), std::min<size_t>(3, n)) << "n=" << n;
  }
}

TEST(ParallelForTest, EachCallReturnsAfterEveryIndexFinished) {
  std::atomic<int> finished{0};
  for (int round = 0; round < 3; ++round) {
    ks::ParallelFor(2, 10, [&](size_t i) {
      if (i % 3 == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      finished.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(finished.load(), (round + 1) * 10);
  }
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  std::vector<int> counts(57, 0);
  ks::ParallelFor(4, counts.size(), [&](size_t i) { counts[i] += 1; });
  for (int c : counts) {
    EXPECT_EQ(c, 1);
  }
}

TEST(ParallelForTest, SerialJobsRunInlineOnTheCaller) {
  std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(5);
  ks::ParallelFor(1, ids.size(),
                  [&](size_t i) { ids[i] = std::this_thread::get_id(); });
  for (const std::thread::id& id : ids) {
    EXPECT_EQ(id, caller);
  }
}

// jobs = 0 means one worker per hardware thread (the documented meaning of
// `ksplice_tool -j 0` and CompileOptions::jobs = 0), not the serial path.
TEST(ParallelForTest, ZeroJobsMeansOneWorkerPerHardwareThread) {
  std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(16);
  ks::ParallelFor(0, ids.size(),
                  [&](size_t i) { ids[i] = std::this_thread::get_id(); });
  const size_t hardware =
      std::max(1u, std::thread::hardware_concurrency());
  const bool pooled = hardware > 1;
  std::set<std::thread::id> workers;
  for (const std::thread::id& id : ids) {
    if (pooled) {
      EXPECT_NE(id, caller);
    } else {
      EXPECT_EQ(id, caller);
    }
    workers.insert(id);
  }
  EXPECT_LE(workers.size(), hardware);
}

// First compilation unit of the corpus kernel, for cache probes.
std::string FirstUnit() {
  for (const std::string& path : corpus::KernelSource().Paths()) {
    if (kcc::IsCompilationUnit(path)) {
      return path;
    }
  }
  return "";
}

TEST(ObjectCacheTest, SecondLookupIsAHit) {
  kcc::ObjectCache cache;
  kcc::CompileOptions options = corpus::RunBuildOptions();
  options.cache = &cache;
  std::string unit = FirstUnit();
  ASSERT_FALSE(unit.empty());

  ks::Result<kelf::ObjectFile> first =
      kcc::CompileUnit(corpus::KernelSource(), unit, options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);

  ks::Result<kelf::ObjectFile> second =
      kcc::CompileUnit(corpus::KernelSource(), unit, options);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(first->Serialize(), second->Serialize());
}

TEST(ObjectCacheTest, SemanticOptionsChangeTheKey) {
  kcc::ObjectCache cache;
  kcc::CompileOptions options = corpus::RunBuildOptions();
  options.cache = &cache;
  std::string unit = FirstUnit();
  ASSERT_FALSE(unit.empty());

  ASSERT_TRUE(kcc::CompileUnit(corpus::KernelSource(), unit, options).ok());
  options.inline_threshold += 1;  // changes object bytes -> new key
  ASSERT_TRUE(kcc::CompileUnit(corpus::KernelSource(), unit, options).ok());
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(ObjectCacheTest, PipelineKnobsDoNotChangeTheKey) {
  kcc::ObjectCache cache;
  kcc::CompileOptions options = corpus::RunBuildOptions();
  options.cache = &cache;
  options.jobs = 1;
  std::string unit = FirstUnit();
  ASSERT_FALSE(unit.empty());

  ASSERT_TRUE(kcc::CompileUnit(corpus::KernelSource(), unit, options).ok());
  options.jobs = 4;  // does not affect object bytes -> same key
  ASSERT_TRUE(kcc::CompileUnit(corpus::KernelSource(), unit, options).ok());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(ObjectCacheTest, ConcurrentMissesCompileExactlyOnce) {
  kcc::ObjectCache cache;
  kcc::CompileOptions options = corpus::RunBuildOptions();
  options.cache = &cache;
  std::string unit = FirstUnit();
  ASSERT_FALSE(unit.empty());

  constexpr int kThreads = 8;
  std::vector<std::vector<uint8_t>> bytes(kThreads);
  ks::ParallelFor(kThreads, kThreads, [&](size_t i) {
    ks::Result<kelf::ObjectFile> obj =
        kcc::CompileUnit(corpus::KernelSource(), unit, options);
    if (obj.ok()) {
      bytes[i] = obj->Serialize();
    }
  });

  // All threads raced on a cold entry; the per-entry monitor must have let
  // exactly one of them compile.
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), static_cast<uint64_t>(kThreads - 1));
  ASSERT_FALSE(bytes[0].empty());
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(bytes[i], bytes[0]);
  }
}

// Entries whose original fix builds a plain package (no Table-1 custom
// code, so CreateUpdate succeeds on the unamended patch).
std::vector<const corpus::Vulnerability*> PlainEntries(size_t want) {
  std::vector<const corpus::Vulnerability*> picks;
  for (const corpus::Vulnerability& vuln : corpus::Vulnerabilities()) {
    if (!vuln.needs_custom_code) {
      picks.push_back(&vuln);
    }
    if (picks.size() == want) {
      break;
    }
  }
  return picks;
}

std::vector<uint8_t> CreatePackageBytes(const corpus::Vulnerability& vuln,
                                        kcc::ObjectCache* cache, int jobs) {
  ks::Result<std::string> patch = corpus::PatchFor(vuln);
  if (!patch.ok()) {
    return {};
  }
  ksplice::CreateOptions options;
  options.compile = corpus::RunBuildOptions();
  options.compile.cache = cache;
  options.compile.jobs = jobs;
  options.id = vuln.cve;
  ks::Result<ksplice::CreateResult> created =
      ksplice::CreateUpdate(corpus::KernelSource(), *patch, options);
  if (!created.ok()) {
    return {};
  }
  return created->package.Serialize();
}

TEST(ObjectCacheTest, RepeatedCreateCompilesNothingNew) {
  std::vector<const corpus::Vulnerability*> picks = PlainEntries(1);
  ASSERT_FALSE(picks.empty());
  kcc::ObjectCache cache;

  std::vector<uint8_t> first = CreatePackageBytes(*picks[0], &cache, 1);
  ASSERT_FALSE(first.empty());
  uint64_t misses_after_first = cache.misses();
  EXPECT_GT(misses_after_first, 0u);

  // An identical second create — the same pre build and the same post
  // build — must be served entirely from the cache.
  std::vector<uint8_t> second = CreatePackageBytes(*picks[0], &cache, 1);
  ASSERT_FALSE(second.empty());
  EXPECT_EQ(cache.misses(), misses_after_first);
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_EQ(first, second);
}

TEST(ConcurrencyTest, ParallelCreatePipelinesMatchSerial) {
  std::vector<const corpus::Vulnerability*> picks = PlainEntries(6);
  ASSERT_GE(picks.size(), 4u);

  // Serial reference runs, no cache.
  std::vector<std::vector<uint8_t>> serial(picks.size());
  for (size_t i = 0; i < picks.size(); ++i) {
    serial[i] = CreatePackageBytes(*picks[i], nullptr, 1);
  }

  // >= 4 create pipelines at once against the one shared corpus tree and a
  // shared cache. Each entry is created twice so its pre/post unit keys
  // are guaranteed to collide across concurrent pipelines.
  kcc::ObjectCache cache;
  std::vector<std::vector<uint8_t>> parallel(2 * picks.size());
  ks::ParallelFor(4, parallel.size(), [&](size_t i) {
    parallel[i] = CreatePackageBytes(*picks[i % picks.size()], &cache, 1);
  });

  for (size_t i = 0; i < parallel.size(); ++i) {
    const corpus::Vulnerability& vuln = *picks[i % picks.size()];
    ASSERT_FALSE(serial[i % picks.size()].empty()) << vuln.cve;
    EXPECT_EQ(parallel[i], serial[i % picks.size()]) << vuln.cve;
  }
  // Every duplicated pipeline was served from the shared cache: each
  // distinct unit compiled once, the twin's lookups all hit.
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GE(cache.hits(), picks.size());
}

TEST(ConcurrencyTest, WorkerCountDoesNotChangePackageBytes) {
  std::vector<const corpus::Vulnerability*> picks = PlainEntries(2);
  ASSERT_EQ(picks.size(), 2u);
  for (const corpus::Vulnerability* vuln : picks) {
    std::vector<uint8_t> at_j1 = CreatePackageBytes(*vuln, nullptr, 1);
    std::vector<uint8_t> at_j4 = CreatePackageBytes(*vuln, nullptr, 4);
    ASSERT_FALSE(at_j1.empty()) << vuln->cve;
    EXPECT_EQ(at_j4, at_j1) << vuln->cve;
  }
}

TEST(ConcurrencyTest, EvaluateAllMatchesSerialEvaluate) {
  const std::vector<corpus::Vulnerability>& all = corpus::Vulnerabilities();
  ASSERT_GE(all.size(), 6u);
  std::vector<corpus::Vulnerability> subset(all.begin(), all.begin() + 6);

  corpus::SweepOptions sweep;
  sweep.jobs = 4;
  std::vector<ks::Result<corpus::EvalOutcome>> parallel =
      corpus::EvaluateAll(subset, sweep);
  ASSERT_EQ(parallel.size(), subset.size());

  for (size_t i = 0; i < subset.size(); ++i) {
    ks::Result<corpus::EvalOutcome> serial = corpus::Evaluate(subset[i]);
    ASSERT_EQ(serial.ok(), parallel[i].ok()) << subset[i].cve;
    if (!serial.ok()) {
      continue;
    }
    EXPECT_EQ(parallel[i]->cve, serial->cve);
    EXPECT_EQ(parallel[i]->Success(), serial->Success());
    EXPECT_EQ(parallel[i]->create_ok, serial->create_ok);
    EXPECT_EQ(parallel[i]->apply_ok, serial->apply_ok);
    EXPECT_EQ(parallel[i]->needed_custom_code, serial->needed_custom_code);
    EXPECT_EQ(parallel[i]->targets, serial->targets);
    EXPECT_EQ(parallel[i]->patch_lines, serial->patch_lines);
  }
}

}  // namespace
