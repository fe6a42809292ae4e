#ifndef BIOPERA_SERVICE_ROUTER_H_
#define BIOPERA_SERVICE_ROUTER_H_

#include <cstdint>
#include <map>
#include <string>

namespace biopera::service {

/// Deterministic per-shard RNG stream: SplitMix64 over (base seed, shard),
/// so shard i's engine randomness is independent of — but fully determined
/// by — the service seed, and adding shards never perturbs existing ones.
uint64_t ShardSeed(uint64_t base_seed, int shard);

/// The placement half of the admission/routing front door: consistent
/// hashing over a ring of virtual nodes, so changing the shard count by
/// one moves only ~1/N of future placements instead of reshuffling the
/// whole keyspace. The service owns the authoritative instance -> shard
/// map (placements are sticky once made).
class Router {
 public:
  explicit Router(int shards);

  /// Shard for a fresh placement of `key`.
  int Place(const std::string& key) const;

 private:
  /// Ring points per shard: more points give smoother balance and a
  /// linearly slower resize.
  static constexpr int kVirtualNodes = 64;

  /// Ring position -> shard, sorted by position.
  std::map<uint64_t, int> ring_;
};

}  // namespace biopera::service

#endif  // BIOPERA_SERVICE_ROUTER_H_
