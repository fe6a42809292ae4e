#include "service/router.h"

#include <algorithm>

#include "common/strings.h"
#include "obs/json.h"

namespace biopera::service {

uint64_t ShardSeed(uint64_t base_seed, int shard) {
  // SplitMix64 finalizer over the combined word: well-mixed, cheap, and
  // stable across platforms.
  uint64_t z = base_seed + 0x9e3779b97f4a7c15ull *
                               (static_cast<uint64_t>(shard) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

/// FNV-1a alone is a poor ring hash: sequential keys ("g1", "g2", ...)
/// differ only in trailing digit bytes and land in a handful of lumps on
/// the 64-bit circle, skewing 2-shard placement past 90/10. A SplitMix64
/// finalizer on top restores uniformity.
uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

Router::Router(int shards) {
  for (int s = 0; s < std::max(shards, 1); ++s) {
    for (int v = 0; v < kVirtualNodes; ++v) {
      uint64_t pos = Mix64(obs::Fnv1a64(StrFormat("shard-%d#%d", s, v)));
      // Collisions resolve to the lower shard id deterministically.
      ring_.emplace(pos, s);
    }
  }
}

int Router::Place(const std::string& key) const {
  uint64_t h = Mix64(obs::Fnv1a64(key));
  auto it = ring_.lower_bound(h);
  if (it == ring_.end()) it = ring_.begin();  // wrap around the ring
  return it->second;
}

}  // namespace biopera::service
