// Small deterministic hashes: FNV-1a (32 and 64 bit) for content ids,
// checksums and cache keys, and the SplitMix64 step behind every seeded
// choice (fault plans, backoff jitter, rollout order). Their outputs are
// persisted or user-visible — package ids (ksplice-%08x), str.h%08x
// symbols, .kspl checksums, quarantine hashes — so the constants are part
// of the format.

#ifndef KSPLICE_BASE_HASH_H_
#define KSPLICE_BASE_HASH_H_

#include <cstdint>
#include <span>
#include <string_view>

namespace ks {

inline uint32_t Fnv1a32(std::span<const uint8_t> bytes) {
  uint32_t hash = 2166136261u;
  for (uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 16777619u;
  }
  return hash;
}

inline uint64_t Fnv1a64(std::span<const uint8_t> bytes) {
  uint64_t hash = 14695981039346656037ull;
  for (uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 1099511628211ull;
  }
  return hash;
}

inline uint32_t Fnv1a32(std::string_view text) {
  return Fnv1a32({reinterpret_cast<const uint8_t*>(text.data()), text.size()});
}

inline uint64_t Fnv1a64(std::string_view text) {
  return Fnv1a64({reinterpret_cast<const uint8_t*>(text.data()), text.size()});
}

// Advances `*state` and returns the next SplitMix64 output.
inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace ks

#endif  // KSPLICE_BASE_HASH_H_
