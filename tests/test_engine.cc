// Tentpole coverage: the RoutingEngine must (a) produce schedules that
// are slot-for-slot verified across the (d, g) grid for every
// strategy and (b) perform no steady-state heap allocation — asserted
// by routing repeatedly after a warm-up call and demanding that no
// engine-owned scratch arena ever grows again.
#include "perm/families.h"
#include "pops/patterns.h"
#include "routing/engine.h"
#include "routing/verify.h"
#include "support/alloc_guard.h"
#include "support/prng.h"
#include "tests/testing.h"

namespace pops {
namespace {

POPS_TEST(EngineRoutesTheGridAtTheBound) {
  Rng rng(71);
  for (const int d : {1, 2, 3, 4, 8, 9}) {
    for (const int g : {1, 2, 3, 5, 8}) {
      const Topology topo(d, g);
      const int n = topo.processor_count();
      RoutingEngine engine(topo);
      std::vector<Permutation> cases;
      cases.push_back(Permutation::identity(n));
      cases.push_back(vector_reversal(n));
      cases.push_back(group_rotation(d, g, g > 1 ? 1 : 0));
      cases.push_back(Permutation::random(n, rng));
      for (const Permutation& pi : cases) {
        const FlatSchedule& flat = engine.route_permutation(pi);
        EXPECT_EQ(flat.slot_count(), theorem2_slots(topo));
        const VerificationResult vr = verify_schedule(topo, pi, flat);
        EXPECT_TRUE(vr.ok);
        if (!vr.ok) {
          EXPECT_EQ(vr.failure, "");  // surface the reason in the log
        }
      }
    }
  }
}

POPS_TEST(EngineDirectAndBestVerifyAtTheirSlotCounts) {
  Rng rng(73);
  for (const auto& [d, g] : {std::pair{4, 4}, {8, 2}, {2, 8}}) {
    const Topology topo(d, g);
    const int n = topo.processor_count();
    RoutingEngine engine(topo);
    for (const Permutation& pi :
         {Permutation::random(n, rng), vector_reversal(n),
          group_rotation(d, g, 1)}) {
      const FlatSchedule& direct = engine.route_direct(pi);
      EXPECT_EQ(direct.slot_count(), engine.direct_max_demand());
      EXPECT_TRUE(verify_schedule(topo, pi, direct).ok);

      const FlatSchedule& best = engine.route(pi, {RouteStrategy::kBest});
      EXPECT_EQ(engine.direct_slot_count(), engine.direct_max_demand());
      EXPECT_EQ(engine.theorem2_slot_count(), theorem2_slots(topo));
      EXPECT_EQ(best.slot_count(),
                engine.last_strategy() == RouteStrategy::kDirect
                    ? engine.direct_slot_count()
                    : engine.theorem2_slot_count());
      EXPECT_TRUE(verify_schedule(topo, pi, best).ok);
    }
  }
}

POPS_TEST(EngineSteadyStateNeverGrowsScratch) {
  // The zero-allocation contract, checked both ways: equal scratch
  // footprints before and after every call (no arena ever reallocates)
  // AND — in POPS_ALLOC_GUARD builds — a ScopedAllocationBan over the
  // whole steady loop, which additionally aborts on transient
  // allocate-free pairs that a capacity diff cannot see. Permutations
  // are generated before the ban: building a Permutation allocates by
  // design.
  Rng rng(74);
  for (const auto& [d, g] :
       {std::pair{1, 8}, {4, 4}, {8, 3}, {3, 8}, {16, 16}}) {
    const Topology topo(d, g);
    const int n = topo.processor_count();
    RoutingEngine engine(topo);
    // Warm-up: one call per strategy (kBest covers both builders,
    // plus the verification Network).
    engine.route(Permutation::random(n, rng), {RouteStrategy::kBest});
    const ScratchFootprint warm = engine.scratch_footprint();
    EXPECT_TRUE(warm.units > 0);
    std::vector<Permutation> trials;
    for (int trial = 0; trial < 8; ++trial) {
      trials.push_back(trial % 2 == 0
                           ? Permutation::random(n, rng)
                           : group_rotation(d, g, trial % g));
    }
    ScopedAllocationBan ban("test: engine steady state");
    for (const Permutation& pi : trials) {
      // EXPECT_EQ streams both footprints on mismatch (the
      // ScratchFootprint operator<<), so a regression names the sizes.
      engine.route_permutation(pi);
      EXPECT_EQ(engine.scratch_footprint(), warm);
      engine.route_direct(pi);
      EXPECT_EQ(engine.scratch_footprint(), warm);
      engine.route(pi, {RouteStrategy::kBest});
      EXPECT_EQ(engine.scratch_footprint(), warm);
    }
  }
}

POPS_TEST(EngineIntermediatesAreConsistent) {
  Rng rng(75);
  const Topology topo(4, 3);
  const Permutation pi = Permutation::random(12, rng);
  RoutingEngine engine(topo);
  const FlatSchedule& flat = engine.route_permutation(pi);
  const Span<const int> mids = engine.intermediate_of();
  EXPECT_EQ(mids.size(), std::size_t{12});
  for (std::size_t s = 0; s < mids.size(); ++s) {
    EXPECT_TRUE(mids[s] >= 0 && mids[s] < topo.processor_count());
  }
  // Within one batch (pair of slots), intermediates are distinct
  // processors and match the distribute destinations.
  for (int slot = 0; slot + 1 < flat.slot_count(); slot += 2) {
    std::vector<bool> used(as_size(topo.processor_count()), false);
    for (const Transmission& t : flat.slot(slot)) {
      EXPECT_FALSE(used[as_size(t.destination)]);
      used[as_size(t.destination)] = true;
      EXPECT_EQ(mids[as_size(t.packet)], t.destination);
    }
  }
}

}  // namespace
}  // namespace pops
