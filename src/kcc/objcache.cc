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
  // Registry instruments resolved once; the references stay valid for the
  // process lifetime (metrics.h).
  static ks::Counter& miss_counter =
      ks::Metrics().GetCounter("kcc.objcache.misses");

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

  std::shared_ptr<Entry> entry;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::shared_ptr<Entry>& slot = entries_[*key];
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
    misses_.fetch_add(1);
    miss_counter.Add(1);
    ks::Result<kelf::ObjectFile> compiled = CompileUnit(tree, path, uncached);
    std::lock_guard<std::mutex> lock(entry->mu);
    if (compiled.ok()) {
      // Persist the serialized object under a checksum, the way an
      // on-disk cache would. A failed write leaves the entry empty: the
      // next reader recompiles and heals it.
      ks::Status write_fault = ks::Faults().Check("kcc.objcache.write");
      if (write_fault.ok()) {
        entry->bytes = compiled->Serialize();
        entry->checksum = ks::Fnv1a64(entry->bytes);
      } else {
        static ks::Counter& write_failures =
            ks::Metrics().GetCounter("kcc.objcache.write_failures");
        write_failures.Add(1);
      }
    } else {
      // Failed compiles are cached too — retrying identical input cannot
      // succeed.
      entry->error = compiled.status();
    }
    entry->ready = true;
    entry->ready_cv.notify_all();
    return compiled;
  }

  {
    std::unique_lock<std::mutex> lock(entry->mu);
    entry->ready_cv.wait(lock, [&entry] { return entry->ready; });
  }
  return ServeEntry(*entry, tree, path, uncached, was_hit);
}

ks::Result<kelf::ObjectFile> ObjectCache::ServeEntry(
    Entry& entry, const kdiff::SourceTree& tree, const std::string& path,
    const CompileOptions& uncached, bool* was_hit) {
  static ks::Counter& hit_counter =
      ks::Metrics().GetCounter("kcc.objcache.hits");
  static ks::Counter& miss_counter =
      ks::Metrics().GetCounter("kcc.objcache.misses");
  static ks::Counter& corrupt_counter =
      ks::Metrics().GetCounter("kcc.objcache.corrupt_entries");

  {
    std::lock_guard<std::mutex> lock(entry.mu);
    if (!entry.error.ok()) {
      hits_.fetch_add(1);
      hit_counter.Add(1);
      if (was_hit != nullptr) {
        *was_hit = true;
      }
      return entry.error;
    }
    ks::Status read_fault = ks::Faults().Check("kcc.objcache.read");
    if (read_fault.ok() && !entry.bytes.empty() &&
        entry.checksum == ks::Fnv1a64(entry.bytes)) {
      ks::Result<kelf::ObjectFile> parsed = kelf::ObjectFile::Parse(entry.bytes);
      if (parsed.ok()) {
        hits_.fetch_add(1);
        hit_counter.Add(1);
        if (was_hit != nullptr) {
          *was_hit = true;
        }
        return parsed;
      }
    }
  }
  // Corrupt, truncated, or unreadable entry: a damaged cache must cost at
  // most a recompile, never fail the lookup. Count it as a miss, rebuild
  // from source, and heal the entry in place.
  corrupt_counter.Add(1);
  misses_.fetch_add(1);
  miss_counter.Add(1);
  ks::Result<kelf::ObjectFile> compiled = CompileUnit(tree, path, uncached);
  if (compiled.ok()) {
    std::lock_guard<std::mutex> lock(entry.mu);
    entry.bytes = compiled->Serialize();
    entry.checksum = ks::Fnv1a64(entry.bytes);
  }
  return compiled;
}

ks::Result<std::vector<uint8_t>> ObjectCache::GetOrComputeBlob(
    const std::string& key,
    const std::function<ks::Result<std::vector<uint8_t>>()>& compute,
    bool* was_hit) {
  static ks::Counter& hit_counter =
      ks::Metrics().GetCounter("kcc.objcache.blob_hits");
  static ks::Counter& miss_counter =
      ks::Metrics().GetCounter("kcc.objcache.blob_misses");
  static ks::Counter& corrupt_counter =
      ks::Metrics().GetCounter("kcc.objcache.corrupt_entries");

  if (was_hit != nullptr) {
    *was_hit = false;
  }

  std::shared_ptr<Entry> entry;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::shared_ptr<Entry>& slot = blob_entries_[key];
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
    blob_misses_.fetch_add(1);
    miss_counter.Add(1);
    ks::Result<std::vector<uint8_t>> computed = compute();
    std::lock_guard<std::mutex> lock(entry->mu);
    if (computed.ok()) {
      entry->bytes = *computed;
      entry->checksum = ks::Fnv1a64(entry->bytes);
    } else {
      entry->error = computed.status();
    }
    entry->ready = true;
    entry->ready_cv.notify_all();
    return computed;
  }

  {
    std::unique_lock<std::mutex> lock(entry->mu);
    entry->ready_cv.wait(lock, [&entry] { return entry->ready; });
  }
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    if (!entry->error.ok()) {
      blob_hits_.fetch_add(1);
      hit_counter.Add(1);
      if (was_hit != nullptr) {
        *was_hit = true;
      }
      return entry->error;
    }
    if (entry->checksum == ks::Fnv1a64(entry->bytes)) {
      blob_hits_.fetch_add(1);
      hit_counter.Add(1);
      if (was_hit != nullptr) {
        *was_hit = true;
      }
      return entry->bytes;
    }
  }
  // Checksum mismatch: recompute and heal, same contract as ServeEntry —
  // a damaged cache can cost a recompute but never fail the lookup.
  corrupt_counter.Add(1);
  blob_misses_.fetch_add(1);
  miss_counter.Add(1);
  ks::Result<std::vector<uint8_t>> computed = compute();
  if (computed.ok()) {
    std::lock_guard<std::mutex> lock(entry->mu);
    entry->bytes = *computed;
    entry->checksum = ks::Fnv1a64(entry->bytes);
  }
  return computed;
}

size_t ObjectCache::CorruptEntriesForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  size_t corrupted = 0;
  for (auto* map : {&entries_, &blob_entries_}) {
    for (auto& [key, entry] : *map) {
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
  return entries_.size() + blob_entries_.size();
}

void ObjectCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  blob_entries_.clear();
}

}  // namespace kcc
