#include "ksplice/quarantine.h"

#include <utility>

#include "base/hash.h"
#include "base/metrics.h"

namespace ksplice {

uint64_t PackageContentHash(const UpdatePackage& package) {
  return ks::Fnv1a64(package.Serialize());
}

void Quarantine::Add(QuarantineEntry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const QuarantineEntry& existing : entries_) {
    if (existing.package_hash == entry.package_hash) {
      return;
    }
  }
  entries_.push_back(std::move(entry));
  static ks::Counter& quarantined =
      ks::Metrics().GetCounter("ksplice.watchdog.quarantined");
  quarantined.Add(1);
}

bool Quarantine::Contains(uint64_t package_hash) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const QuarantineEntry& entry : entries_) {
    if (entry.package_hash == package_hash) {
      return true;
    }
  }
  return false;
}

std::optional<QuarantineEntry> Quarantine::Find(uint64_t package_hash) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const QuarantineEntry& entry : entries_) {
    if (entry.package_hash == package_hash) {
      return entry;
    }
  }
  return std::nullopt;
}

bool Quarantine::Remove(uint64_t package_hash) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->package_hash == package_hash) {
      entries_.erase(it);
      return true;
    }
  }
  return false;
}

std::vector<QuarantineEntry> Quarantine::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_;
}

size_t Quarantine::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace ksplice
