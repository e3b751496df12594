#include "kcc/objcache.h"

#include <optional>

#include "base/faultinject.h"
#include "base/hash.h"
#include "base/metrics.h"
#include "base/strings.h"
#include "kcc/preprocess.h"

namespace kcc {

namespace {

// The content address: every file whose bytes reach the object (the unit
// plus its transitive includes, in preprocess order) and every option that
// changes codegen. `jobs` and `cache` are deliberately excluded. None when
// the closure names a file `tree` does not have (a closure of another
// tree): there is no content to address.
std::optional<std::string> CacheKey(const kdiff::SourceTree& tree,
                                    const std::string& path,
                                    const std::vector<std::string>& closure,
                                    const CompileOptions& options) {
  std::string key = ks::StrPrintf(
      "fs=%d ds=%d it=%d bd=%s bt=%s |%s",
      options.function_sections ? 1 : 0, options.data_sections ? 1 : 0,
      options.inline_threshold, options.build_date.c_str(),
      options.build_time.c_str(), path.c_str());
  for (const std::string& dep : closure) {
    const std::string* contents = tree.Find(dep);
    if (contents == nullptr) {
      return std::nullopt;
    }
    key += ks::StrPrintf(
        "|%s:%016llx", dep.c_str(),
        static_cast<unsigned long long>(ks::Fnv1a64(*contents)));
  }
  return key;
}

}  // namespace

ks::Result<kelf::ObjectFile> ObjectCache::GetOrCompile(
    const kdiff::SourceTree& tree, const std::string& path,
    const CompileOptions& options, bool* was_hit) {
  return GetOrCompile(tree, path, IncludeClosure(tree, path), options,
                      was_hit);
}

ks::Result<kelf::ObjectFile> ObjectCache::GetOrCompile(
    const kdiff::SourceTree& tree, const std::string& path,
    const ks::Result<std::vector<std::string>>& closure,
    const CompileOptions& options, bool* was_hit) {
  CompileOptions uncached = options;
  uncached.cache = nullptr;
  if (was_hit != nullptr) {
    *was_hit = false;
  }
  std::optional<std::string> key =
      closure.ok() ? CacheKey(tree, path, *closure, options) : std::nullopt;
  if (!key.has_value()) {
    // Uncacheable; let the compiler produce its own error for the same
    // input.
    return CompileUnit(tree, path, uncached);
  }

  std::optional<kelf::ObjectFile> object;
  ks::Status status = Lookup(
      objects_, *key,
      [&]() -> ks::Result<std::vector<uint8_t>> {
        KS_ASSIGN_OR_RETURN(object, CompileUnit(tree, path, uncached));
        return object->Serialize();
      },
      [&](const std::vector<uint8_t>& bytes) {
        ks::Result<kelf::ObjectFile> parsed = kelf::ObjectFile::Parse(bytes);
        if (parsed.ok()) {
          object = std::move(parsed).value();
        }
        return parsed.ok();
      },
      was_hit);
  if (!status.ok()) {
    return status;
  }
  return std::move(*object);
}

ks::Result<std::vector<uint8_t>> ObjectCache::GetOrComputeBlob(
    const std::string& key,
    const std::function<ks::Result<std::vector<uint8_t>>()>& compute,
    bool* was_hit) {
  // Metric reports list blob hits from the first blob lookup on, a zero
  // included, and object hits from the first object hit on; perfbench's
  // work-counter digests hash that key set.
  static ks::Counter& blob_hit_counter =
      ks::Metrics().GetCounter(blobs_.hit_metric);
  (void)blob_hit_counter;
  std::vector<uint8_t> blob;
  ks::Status status = Lookup(
      blobs_, key,
      [&]() -> ks::Result<std::vector<uint8_t>> {
        KS_ASSIGN_OR_RETURN(blob, compute());
        return blob;
      },
      [&](const std::vector<uint8_t>& bytes) {
        blob = bytes;
        return true;
      },
      was_hit);
  if (!status.ok()) {
    return status;
  }
  return blob;
}

ks::Status ObjectCache::Lookup(
    Keyspace& space, const std::string& key,
    const std::function<ks::Result<std::vector<uint8_t>>()>& produce,
    const std::function<bool(const std::vector<uint8_t>&)>& consume,
    bool* was_hit) {
  // Hit and miss counters are registered when first counted, so a
  // metrics report lists only the traffic a process actually had.
  auto count = [](std::atomic<uint64_t>& tally, const char* metric) {
    tally.fetch_add(1);
    ks::Metrics().GetCounter(metric).Add(1);
  };
  static ks::Counter& corrupt_counter =
      ks::Metrics().GetCounter("kcc.objcache.corrupt_entries");

  if (was_hit != nullptr) {
    *was_hit = false;
  }
  std::shared_ptr<Entry> entry;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::shared_ptr<Entry>& slot = space.entries[key];
    if (slot == nullptr) {
      slot = std::make_shared<Entry>();
    }
    entry = slot;
    if (!entry->claimed) {
      entry->claimed = true;
      owner = true;
    }
  }

  if (owner) {
    count(space.misses, space.miss_metric);
    ks::Result<std::vector<uint8_t>> produced = produce();
    std::lock_guard<std::mutex> lock(entry->mu);
    if (!produced.ok()) {
      // Failures are cached too — retrying identical input cannot
      // succeed.
      entry->error = produced.status();
    } else if (ks::Faults().Check("kcc.objcache.write").ok()) {
      // Persist under a checksum, the way an on-disk cache would.
      entry->checksum = ks::Fnv1a64(*produced);
      entry->bytes = std::move(produced).value();
    } else {
      // A failed write leaves the entry empty: the next reader fails the
      // checksum, produces the bytes again and heals it.
      ks::Metrics().GetCounter("kcc.objcache.write_failures").Add(1);
    }
    entry->ready = true;
    entry->ready_cv.notify_all();
    return entry->error;
  }

  {
    std::unique_lock<std::mutex> lock(entry->mu);
    entry->ready_cv.wait(lock, [&entry] { return entry->ready; });
    // `consume` reads the stored bytes in place, so it runs under the
    // entry lock: a concurrent heal rewrites them.
    if (!entry->error.ok() ||
        (ks::Faults().Check("kcc.objcache.read").ok() &&
         entry->checksum == ks::Fnv1a64(entry->bytes) &&
         consume(entry->bytes))) {
      count(space.hits, space.hit_metric);
      if (was_hit != nullptr) {
        *was_hit = true;
      }
      return entry->error;
    }
  }
  // Corrupt, truncated, or unreadable entry: a damaged cache must cost at
  // most a recompute, never fail the lookup. Count it as a miss, produce
  // the bytes again, and heal the entry in place.
  corrupt_counter.Add(1);
  count(space.misses, space.miss_metric);
  ks::Result<std::vector<uint8_t>> produced = produce();
  if (!produced.ok()) {
    return produced.status();
  }
  std::lock_guard<std::mutex> lock(entry->mu);
  entry->checksum = ks::Fnv1a64(*produced);
  entry->bytes = std::move(produced).value();
  return ks::OkStatus();
}

size_t ObjectCache::CorruptEntriesForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  size_t corrupted = 0;
  for (Keyspace* space : {&objects_, &blobs_}) {
    for (auto& [key, entry] : space->entries) {
      std::lock_guard<std::mutex> entry_lock(entry->mu);
      if (entry->ready && entry->error.ok() && !entry->bytes.empty()) {
        entry->bytes[entry->bytes.size() / 2] ^= 0x01;
        ++corrupted;
      }
    }
  }
  return corrupted;
}

size_t ObjectCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return objects_.entries.size() + blobs_.entries.size();
}

void ObjectCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  objects_.entries.clear();
  blobs_.entries.clear();
}

}  // namespace kcc
