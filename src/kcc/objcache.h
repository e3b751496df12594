// Content-addressed object cache for the update-creation pipeline.
//
// Every §6-style evaluation sweep rebuilds the same pre kernel once per
// corpus entry and recompiles unchanged units across all the post builds.
// Object bytes are a pure function of (include-closure contents, semantic
// compile options) — kcc builds are deterministic by design (compile.h) —
// so compiled units can be shared by content address: the shared pre build
// is compiled once per sweep and identical post units are never rebuilt.
//
// Thread-safe. Concurrent misses on the same key latch on a per-entry
// monitor so each distinct key is compiled exactly once.
//
// Entries hold *serialized* bytes guarded by a checksum, the way an on-disk
// cache would, and a corrupt, truncated or unreadable entry is treated as
// a miss: the unit is recompiled from source and the entry healed in
// place. A damaged cache can cost a rebuild but can never fail a create or
// feed it wrong bytes. Objects and the generic blobs below go through one
// lookup, so the claim, latch, failure caching, checksum and heal steps —
// and the "kcc.objcache.read"/"kcc.objcache.write" fault sites — are the
// same for every entry.

#ifndef KSPLICE_KCC_OBJCACHE_H_
#define KSPLICE_KCC_OBJCACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/status.h"
#include "kcc/compile.h"
#include "kdiff/diff.h"
#include "kelf/objfile.h"

namespace kcc {

class ObjectCache {
 public:
  ObjectCache() = default;
  ObjectCache(const ObjectCache&) = delete;
  ObjectCache& operator=(const ObjectCache&) = delete;

  // Returns the cached object for (closure contents of `path`, semantic
  // fields of `options`), compiling on first use. Failed compiles are
  // cached too — retrying identical input cannot succeed. When `was_hit`
  // is non-null it is set to whether the result was served from a
  // previously computed entry (per-unit cache attribution for
  // CreateReport).
  ks::Result<kelf::ObjectFile> GetOrCompile(const kdiff::SourceTree& tree,
                                            const std::string& path,
                                            const CompileOptions& options,
                                            bool* was_hit = nullptr);
  // The same lookup, under the same key, for a caller that already holds
  // the unit's closure: IncludeGraph::Closure(path) on a graph of `tree`
  // (preprocess.h). The overload above computes it with IncludeClosure.
  // A failed closure has no content to address, so the unit is compiled
  // uncached and the compiler reports its own error for the same input.
  ks::Result<kelf::ObjectFile> GetOrCompile(
      const kdiff::SourceTree& tree, const std::string& path,
      const ks::Result<std::vector<std::string>>& closure,
      const CompileOptions& options, bool* was_hit = nullptr);

  // Generic content-addressed blob store sharing the cache's lifetime,
  // monitor latching and checksum discipline. `key` must already be a
  // content address (the caller hashes every input that reaches the
  // bytes); `compute` runs at most once per distinct key across all
  // threads, and its failures are cached like failed compiles. A corrupt
  // or truncated entry (checksum mismatch) is recomputed and healed in
  // place, exactly as GetOrCompile does for objects. kanalyze keys its
  // per-function side-effect summaries here so a lint, a create --lint
  // and a rollout gate in one process summarize each function body once.
  //
  // Blob traffic is accounted separately from object traffic (the
  // blob_hits/blob_misses accessors and the "kcc.objcache.blob_*"
  // counters), so exact-count object-cache tests stay undisturbed.
  ks::Result<std::vector<uint8_t>> GetOrComputeBlob(
      const std::string& key,
      const std::function<ks::Result<std::vector<uint8_t>>()>& compute,
      bool* was_hit = nullptr);

  uint64_t blob_hits() const { return blobs_.hits.load(); }
  uint64_t blob_misses() const { return blobs_.misses.load(); }

  // Statistics. A "miss" is a compile; a "hit" is a result served from a
  // previously computed entry (including one another thread is still
  // computing — the caller blocks until it is ready). Accounting is
  // atomic, incremented exactly once per GetOrCompile inside the cache,
  // and mirrored into the global metrics registry under
  // "kcc.objcache.hits" / "kcc.objcache.misses" — callers read either
  // view instead of recomputing their own tallies.
  uint64_t hits() const { return objects_.hits.load(); }
  uint64_t misses() const { return objects_.misses.load(); }
  size_t size() const;

  void Clear();

  // Flips one bit in every ready entry's stored bytes (chaos/robustness
  // tests), returning how many entries were damaged. Each corrupted entry
  // must be detected by its checksum and served as a miss.
  size_t CorruptEntriesForTest();

 private:
  struct Entry {
    std::mutex mu;
    std::condition_variable ready_cv;
    bool claimed = false;  // a thread owns the compute (set under cache mu)
    bool ready = false;
    ks::Status error;             // cached failed compute (ok == success)
    std::vector<uint8_t> bytes;   // stored result (success only)
    uint64_t checksum = 0;        // FNV-64 over `bytes`
  };

  // One keyspace of entries and its traffic: the accessor tallies and
  // the names of the registry counters that mirror them.
  struct Keyspace {
    Keyspace(const char* hit, const char* miss)
        : hit_metric(hit), miss_metric(miss) {}
    const char* hit_metric;
    const char* miss_metric;
    std::map<std::string, std::shared_ptr<Entry>> entries;
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
  };

  // The one lookup behind both public calls. The thread that claims
  // `key` runs `produce` (a miss) and stores the bytes it returns; every
  // later caller is handed the stored bytes through `consume` (a hit).
  // A failed `produce` is cached and served as a hit. An entry whose read
  // faults, fails its checksum or is refused by `consume` is produced
  // again and healed in place (a miss, counted corrupt). Returns the
  // produced or cached status.
  ks::Status Lookup(
      Keyspace& space, const std::string& key,
      const std::function<ks::Result<std::vector<uint8_t>>()>& produce,
      const std::function<bool(const std::vector<uint8_t>&)>& consume,
      bool* was_hit);

  mutable std::mutex mu_;
  Keyspace objects_{"kcc.objcache.hits", "kcc.objcache.misses"};
  // Blob entries live in their own keyspace so a summary key can never
  // collide with a compile key.
  Keyspace blobs_{"kcc.objcache.blob_hits", "kcc.objcache.blob_misses"};
};

}  // namespace kcc

#endif  // KSPLICE_KCC_OBJCACHE_H_
