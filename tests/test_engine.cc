// Tentpole coverage: the RoutingEngine must (a) produce schedules that
// are slot-for-slot verified across the (d, g) grid for every
// strategy and (b) perform no steady-state heap allocation — asserted
// by routing repeatedly after a warm-up call and demanding that no
// engine-owned scratch arena ever grows again.
#include <algorithm>
#include <utility>

#include "perm/families.h"
#include "pops/patterns.h"
#include "routing/engine.h"
#include "routing/verify.h"
#include "support/alloc_guard.h"
#include "support/format.h"
#include "support/prng.h"
#include "tests/plan_util.h"
#include "tests/testing.h"

namespace pops {
namespace {

/// "" when every distribute slot of the Theorem 2 schedule is a fair
/// distribution in the sense of Figure 3, else the first violation.
/// Per distribute slot, each intermediate group receives at most d
/// packets, from pairwise distinct source groups and bound for
/// pairwise distinct destination groups. Also checks that
/// intermediate_of() names each packet's distribute destination.
std::string fair_distribution_violation(const Topology& topo,
                                        const Permutation& pi,
                                        const FlatSchedule& schedule,
                                        Span<const int> mids) {
  const int g = topo.g();
  // seen_source[mid_group * g + source_group] (and the same for the
  // destination group) marks a pair already used in this slot.
  std::vector<int> load(as_size(g));
  std::vector<bool> seen_source(as_size(g * g));
  std::vector<bool> seen_destination(as_size(g * g));
  for (int slot = 0; slot < schedule.slot_count(); slot += 2) {
    std::fill(load.begin(), load.end(), 0);
    std::fill(seen_source.begin(), seen_source.end(), false);
    std::fill(seen_destination.begin(), seen_destination.end(), false);
    for (const Transmission& t : schedule.slot(slot)) {
      if (mids[as_size(t.packet)] != t.destination) {
        return str_cat("slot ", slot, ": packet ", t.packet,
                       " is distributed to ", t.destination,
                       " but intermediate_of says ",
                       mids[as_size(t.packet)]);
      }
      const int mid_group = topo.group_of(t.destination);
      const int source_group = topo.group_of(t.source);
      const int destination_group = topo.group_of(pi(t.packet));
      if (++load[as_size(mid_group)] > topo.d()) {
        return str_cat("slot ", slot, ": intermediate group ", mid_group,
                       " receives more than d packets");
      }
      const int source_pair = mid_group * g + source_group;
      const int destination_pair = mid_group * g + destination_group;
      if (seen_source[as_size(source_pair)]) {
        return str_cat("slot ", slot, ": intermediate group ", mid_group,
                       " receives two packets from source group ",
                       source_group);
      }
      if (seen_destination[as_size(destination_pair)]) {
        return str_cat("slot ", slot, ": intermediate group ", mid_group,
                       " receives two packets for destination group ",
                       destination_group);
      }
      seen_source[as_size(source_pair)] = true;
      seen_destination[as_size(destination_pair)] = true;
    }
  }
  return "";
}

/// Routes pi with Theorem 2 and checks it the three ways every shape
/// must pass: exactly theorem2_slots, an independent verify_schedule
/// pass, and (d > 1) a fair distribution in every distribute slot.
void expect_theorem2_holds(const Topology& topo, RoutingEngine& engine,
                           const Permutation& pi) {
  const FlatSchedule& flat = engine.route_permutation(pi);
  EXPECT_EQ(flat.slot_count(), theorem2_slots(topo));
  const VerificationResult vr = verify_schedule(topo, pi, flat);
  EXPECT_TRUE(vr.ok);
  EXPECT_EQ(vr.failure, "");
  if (topo.d() == 1) return;
  const std::string violation = fair_distribution_violation(
      topo, pi, flat, engine.intermediate_of());
  if (!violation.empty()) {
    EXPECT_EQ(str_cat(topo.to_string(), ": ", violation), "");
  }
}

/// The pattern families of the Theorem 2 sweeps, including a random
/// permutation drawn from rng.
std::vector<Permutation> sweep_cases(const Topology& topo, Rng& rng) {
  const int d = topo.d();
  const int g = topo.g();
  std::vector<Permutation> cases;
  cases.push_back(make_pattern(topo, TrafficPattern::kIdentity));
  cases.push_back(make_pattern(topo, TrafficPattern::kGroupReversal));
  cases.push_back(make_pattern(topo, TrafficPattern::kTranspose));
  cases.push_back(Permutation::random(topo.processor_count(), rng));
  cases.push_back(group_rotation(d, g, g > 1 ? 1 + d % (g - 1) : 0));
  return cases;
}

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

POPS_TEST(EngineFairDistributionHoldsOnEveryShape) {
  // The fair distribution has three paths: d >= g (each batch color is
  // one intermediate group, possibly over several batches), d < g with
  // d | g (each color chunked into g / d groups) and d < g with
  // g mod d != 0 (chunked, then rebalanced by spread). This sweep hits
  // all three. d == 1 routes every packet
  // straight to its destination in one slot, so it only has to verify.
  // H is colored by alternating paths below d = 3g and by peeling the
  // coupler-demand matrix from there on; the second grid reaches
  // d / g = 256, so the peel's matching repair runs many times per
  // permutation on every pattern family.
  Rng rng(76);
  for (int d = 1; d <= 12; ++d) {
    for (int g = 1; g <= 24; ++g) {
      const Topology topo(d, g);
      RoutingEngine engine(topo);
      for (const Permutation& pi : sweep_cases(topo, rng)) {
        expect_theorem2_holds(topo, engine, pi);
      }
    }
  }
  for (const int d : {16, 32, 64, 256}) {
    for (const int g : {1, 2, 3, 4, 8}) {
      const Topology topo(d, g);
      RoutingEngine engine(topo);
      for (const Permutation& pi : sweep_cases(topo, rng)) {
        expect_theorem2_holds(topo, engine, pi);
      }
    }
  }
}

POPS_TEST(PeelColoringIsProperOnBothSidesOfTheThreshold) {
  // Properness sweep of both H colorings up to d = 1024 and g = 16:
  // per g, ratios d / g below the peel threshold (1, 2), at it (3) and
  // above it, over every pattern family plus a random group-block
  // permutation (Props 2/3 instances).
  Rng rng(78);
  for (const int g : {2, 3, 5, 8, 16}) {
    for (const int ratio : {1, 2, 3, 4, 7, 64}) {
      const int d = std::min(ratio * g, 1024);
      const Topology topo(d, g);
      std::vector<Permutation> cases = sweep_cases(topo, rng);
      std::vector<Permutation> within;
      for (int j = 0; j < g; ++j) within.push_back(Permutation::random(d, rng));
      cases.push_back(group_block(d, g, Permutation::random(g, rng), within));
      RoutingEngine engine(topo);
      for (const Permutation& pi : cases) {
        expect_theorem2_holds(topo, engine, pi);
      }
    }
  }
}

POPS_TEST(PeelShapesRouteTheSameTheorem2PlanThroughEitherEntry) {
  // On peel shapes route_permutation counts and buckets the coupler
  // demand itself, while kBest reuses the buckets of its own counting
  // pass. Both must feed the peel the same matrix: the Theorem 2
  // branch of kBest is bitwise the route_permutation plan, on a warm
  // engine whose last call took the direct branch.
  Rng rng(79);
  // g >= 3: with g <= 2, direct never needs more than 2 * ceil(d / g).
  for (const auto& [d, g] : {std::pair{9, 3}, {64, 4}, {30, 5}, {256, 8},
                             {48, 16}}) {
    const Topology topo(d, g);
    const int n = topo.processor_count();
    RoutingEngine reference(topo);
    RoutingEngine engine(topo);
    const Permutation direct_winner =
        make_pattern(topo, TrafficPattern::kTranspose);
    std::vector<Permutation> theorem2_winners;
    theorem2_winners.push_back(vector_reversal(n));
    theorem2_winners.push_back(group_rotation(d, g, 1));
    theorem2_winners.push_back(group_rotation(d, g, g - 1));
    for (const Permutation& pi : theorem2_winners) {
      engine.route(direct_winner, {RouteStrategy::kBest});
      EXPECT_TRUE(engine.last_strategy() == RouteStrategy::kDirect);
      const FlatSchedule& best = engine.route(pi, {RouteStrategy::kBest});
      EXPECT_TRUE(engine.last_strategy() == RouteStrategy::kTheorem2);
      const std::string difference = testing::schedule_difference(
          best, reference.route_permutation(pi));
      if (!difference.empty()) {
        EXPECT_EQ(str_cat(topo.to_string(), ": ", difference), "");
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
      EXPECT_EQ(best.slot_count(),
                engine.last_strategy() == RouteStrategy::kDirect
                    ? engine.direct_max_demand()
                    : theorem2_slots(topo));
      EXPECT_TRUE(verify_schedule(topo, pi, best).ok);
    }
  }
}

POPS_TEST(LazyPortfolioMatchesTheShorterCandidateBitwise) {
  // kBest builds only the winner once warm, picked from the two
  // lengths known up front. Differential check against a second
  // engine that builds both candidates explicitly: the portfolio plan
  // must be bitwise the shorter one (ties to direct), last_strategy()
  // must name it, and direct_max_demand() must be current even when
  // Theorem 2 won. Past the first (cold) call the winners alternate,
  // so every call's lazy branch differs from the previous one's
  // wherever the shape admits both winners.
  Rng rng(77);
  for (const auto& [d, g] : {std::pair{4, 4}, {8, 2}, {2, 8}, {16, 4},
                             {64, 4}, {3, 8}}) {
    const Topology topo(d, g);
    const int n = topo.processor_count();
    RoutingEngine reference(topo);
    std::vector<Permutation> direct_wins;
    std::vector<Permutation> theorem2_wins;
    std::vector<Permutation> cases;
    for (int k = 0; k < 4; ++k) cases.push_back(Permutation::random(n, rng));
    cases.push_back(vector_reversal(n));
    cases.push_back(group_rotation(d, g, 1));
    cases.push_back(make_pattern(topo, TrafficPattern::kTranspose));
    for (Permutation& pi : cases) {
      const int demand = reference.route(pi, {RouteStrategy::kDirect})
                             .slot_count();
      (demand <= theorem2_slots(topo) ? direct_wins : theorem2_wins)
          .push_back(std::move(pi));
    }
    std::vector<const Permutation*> order;
    for (std::size_t k = 0;
         k < std::max(direct_wins.size(), theorem2_wins.size()); ++k) {
      if (k < direct_wins.size()) order.push_back(&direct_wins[k]);
      if (k < theorem2_wins.size()) order.push_back(&theorem2_wins[k]);
    }

    RoutingEngine engine(topo);
    for (const Permutation* pi : order) {
      const FlatSchedule direct =
          reference.route(*pi, {RouteStrategy::kDirect, true});
      const FlatSchedule theorem2 =
          reference.route(*pi, {RouteStrategy::kTheorem2, true});
      const bool direct_wins_here =
          direct.slot_count() <= theorem2.slot_count();
      const FlatSchedule& best = engine.route(*pi, {RouteStrategy::kBest});
      const std::string difference = testing::schedule_difference(
          best, direct_wins_here ? direct : theorem2);
      if (!difference.empty()) {
        EXPECT_EQ(str_cat(topo.to_string(), ": ", difference), "");
      }
      EXPECT_TRUE(engine.last_strategy() ==
                  (direct_wins_here ? RouteStrategy::kDirect
                                    : RouteStrategy::kTheorem2));
      EXPECT_EQ(engine.direct_max_demand(), direct.slot_count());
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
  for (const auto& [d, g] : {std::pair{1, 8}, {4, 4}, {8, 3}, {3, 8},
                             {4, 16}, {16, 16}, {64, 4}}) {
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
