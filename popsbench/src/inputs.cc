#include "inputs.h"

#include <unordered_set>

#include "perm/families.h"
#include "support/prng.h"

namespace popsbench {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t mix_in(std::uint64_t hash, std::uint64_t value) {
  return (hash ^ value) * kFnvPrime;
}

std::uint64_t hash_of(const pops::Permutation& pi) {
  std::uint64_t hash = kFnvOffset;
  for (int image : pi.images()) {
    hash = mix_in(hash, static_cast<std::uint64_t>(image));
  }
  return hash;
}

std::vector<pops::Permutation> random_within(int d, int g, pops::Rng& rng,
                                             bool derange) {
  std::vector<pops::Permutation> within;
  within.reserve(static_cast<std::size_t>(g));
  for (int j = 0; j < g; ++j) {
    within.push_back(derange ? pops::Permutation::random_derangement(d, rng)
                             : pops::Permutation::random(d, rng));
  }
  return within;
}

pops::Permutation draw(const pops::Topology& topo, PoolMix mix, int index,
                       pops::Rng& rng) {
  const int d = topo.d();
  const int g = topo.g();
  const int n = topo.processor_count();
  switch (mix) {
    case PoolMix::kRandomAndBlocks:
      if (index % 8 == 6) {  // Proposition 2: sigma moves every group
        return pops::group_block(
            d, g, pops::Permutation::random_derangement(g, rng),
            random_within(d, g, rng, /*derange=*/false));
      }
      if (index % 8 == 7) {  // Proposition 3: every packet stays home
        return pops::group_block(d, g, pops::Permutation::identity(g),
                                 random_within(d, g, rng, /*derange=*/true));
      }
      return pops::Permutation::random(n, rng);
    case PoolMix::kRandomAndRotations:
      if (index % 2 == 1) {
        const int shift = 1 + rng.next_below(g - 1);
        return pops::group_block(d, g, pops::cyclic_shift(g, shift),
                                 random_within(d, g, rng, /*derange=*/false));
      }
      return pops::Permutation::random(n, rng);
  }
  return pops::Permutation::identity(n);
}

}  // namespace

std::vector<pops::Permutation> make_perm_pool(const pops::Topology& topo,
                                              PoolMix mix, int size,
                                              std::uint64_t seed) {
  pops::Rng rng(seed);
  std::vector<pops::Permutation> pool;
  pool.reserve(static_cast<std::size_t>(size));
  std::unordered_set<std::uint64_t> seen;
  while (static_cast<int>(pool.size()) < size) {
    pops::Permutation pi =
        draw(topo, mix, static_cast<int>(pool.size()), rng);
    // Redraw on a repeated fingerprint: pool entries never repeat, so
    // no timed route can reuse the previous route's input.
    if (!seen.insert(hash_of(pi)).second) continue;
    pool.push_back(std::move(pi));
  }
  return pool;
}

std::vector<pops::Demand> make_zipf_stream(const pops::Topology& topo,
                                           int count, std::uint64_t seed) {
  pops::ArrivalConfig config;
  config.process = pops::ArrivalProcess::kZipfHotGroup;
  config.seed = seed;
  pops::ArrivalGenerator generator(topo, config);
  std::vector<pops::Demand> stream;
  stream.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) stream.push_back(generator.next());
  return stream;
}

std::uint64_t fingerprint(const std::vector<pops::Permutation>& pool) {
  std::uint64_t hash = kFnvOffset;
  for (const pops::Permutation& pi : pool) hash = mix_in(hash, hash_of(pi));
  return hash;
}

std::uint64_t fingerprint(const std::vector<pops::Demand>& stream) {
  std::uint64_t hash = kFnvOffset;
  for (const pops::Demand& demand : stream) {
    hash = mix_in(hash, static_cast<std::uint64_t>(demand.source));
    hash = mix_in(hash, static_cast<std::uint64_t>(demand.destination));
    hash = mix_in(hash, static_cast<std::uint64_t>(demand.payload));
    hash = mix_in(hash, demand.arrival_tick);
  }
  return hash;
}

}  // namespace popsbench
