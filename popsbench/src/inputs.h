// Seeded inputs of the benchmark workloads.
//
// Everything the program routes is generated here from the workload
// seed, before any timing starts: pools of pairwise distinct
// permutations for the routing workloads and a demand stream for the
// serving workload. The same seed always gives the same inputs.
#pragma once

#include <cstdint>
#include <vector>

#include "perm/permutation.h"
#include "pops/network.h"
#include "pops/patterns.h"

namespace popsbench {

/// Which permutation families a pool mixes.
enum class PoolMix {
  /// 3/4 uniform random, 1/8 Proposition 2 group blocks (every group
  /// moves), 1/8 Proposition 3 group blocks (every group stays, every
  /// packet moves): the worst cases for the lower bound.
  kRandomAndBlocks,
  /// Half uniform random (the direct router wins), half group
  /// rotations with random in-group orders (Theorem 2 wins).
  kRandomAndRotations,
};

/// `size` pairwise distinct permutations of the topology's processors.
std::vector<pops::Permutation> make_perm_pool(const pops::Topology& topo,
                                              PoolMix mix, int size,
                                              std::uint64_t seed);

/// `count` demands of a Zipf-hot-group arrival process (group 0
/// hottest), arrival ticks open-loop from tick 0.
std::vector<pops::Demand> make_zipf_stream(const pops::Topology& topo,
                                           int count, std::uint64_t seed);

/// FNV-1a fingerprint of a pool, for determinism checks.
std::uint64_t fingerprint(const std::vector<pops::Permutation>& pool);
std::uint64_t fingerprint(const std::vector<pops::Demand>& stream);

}  // namespace popsbench
