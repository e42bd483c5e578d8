#include "routing/h_relation.h"

#include <algorithm>

#include "routing/verify.h"
#include "support/alloc_guard.h"
#include "support/prng.h"
#include "tests/plan_util.h"
#include "tests/testing.h"

namespace pops {
namespace {

// The union of h random permutations: every processor sends exactly h
// and receives exactly h packets, so the relation's degree is h with
// certainty (not just w.h.p.).
std::vector<Request> union_of_permutations(const Topology& topo, int h,
                                           Rng& rng) {
  std::vector<Request> requests;
  for (int k = 0; k < h; ++k) {
    const Permutation pi =
        Permutation::random(topo.processor_count(), rng);
    for (int i = 0; i < pi.size(); ++i) {
      requests.push_back(Request{i, pi(i)});
    }
  }
  return requests;
}

// "" when the plan has the flat layout: a phase CSR over every request
// exactly once (increasing within a phase), and phase c's slots
// [c * T, (c + 1) * T) carrying only that phase's requests.
std::string layout_failure(const Topology& topo,
                           const std::vector<Request>& requests,
                           const HRelationPlan& plan) {
  const int slots_per_phase = theorem2_slots(topo);
  if (as_int(plan.phase_offsets.size()) != plan.h + 1 ||
      plan.phase_offsets.front() != 0 ||
      plan.phase_offsets.back() != as_int(requests.size()) ||
      plan.phase_requests.size() != requests.size()) {
    return "phase CSR does not cover the requests";
  }
  std::vector<int> phase_of(requests.size(), -1);
  for (int c = 0; c < plan.h; ++c) {
    for (int k = plan.phase_offsets[as_size(c)];
         k < plan.phase_offsets[as_size(c + 1)]; ++k) {
      const int e = plan.phase_requests[as_size(k)];
      if (phase_of[as_size(e)] != -1) return "request in two phases";
      if (k > plan.phase_offsets[as_size(c)] &&
          plan.phase_requests[as_size(k - 1)] >= e) {
        return "phase requests out of order";
      }
      phase_of[as_size(e)] = c;
    }
  }
  for (int s = 0; s < plan.total_slots(); ++s) {
    for (const Transmission& t : plan.schedule.slot(s)) {
      if (phase_of[as_size(t.packet)] != s / slots_per_phase) {
        return "transmission outside its phase's slots";
      }
    }
  }
  return "";
}

POPS_TEST(RoutesUnionOfPermutationsAtTheBudget) {
  Rng rng(31);
  for (const auto& [d, g] :
       {std::pair{1, 8}, {2, 2}, {4, 4}, {8, 4}, {4, 8}}) {
    const Topology topo(d, g);
    for (const int h : {1, 2, 3}) {
      const auto requests = union_of_permutations(topo, h, rng);
      const HRelationPlan plan = route_h_relation(topo, requests);
      EXPECT_EQ(plan.h, h);
      EXPECT_EQ(plan.total_slots(), h * theorem2_slots(topo));
      EXPECT_EQ(layout_failure(topo, requests, plan), "");
      EXPECT_EQ(verify_h_relation(topo, requests, plan), "");
    }
  }
}

POPS_TEST(RoutesAUnionOfTwoPermutations) {
  Rng rng(32);
  const Topology topo(4, 4);
  const auto requests = union_of_permutations(topo, 2, rng);
  const HRelationPlan plan = route_h_relation(topo, requests);
  EXPECT_EQ(plan.h, 2);
  EXPECT_EQ(verify_h_relation(topo, requests, plan), "");
}

POPS_TEST(RoutesUnbalancedRelations) {
  // A hot sender: processor 0 holds 3 packets, everyone else is idle.
  const Topology topo(2, 3);
  const std::vector<Request> hot = {{0, 1}, {0, 4}, {0, 5}};
  const HRelationPlan hot_plan = route_h_relation(topo, hot);
  EXPECT_EQ(hot_plan.h, 3);
  EXPECT_EQ(hot_plan.total_slots(), 3 * theorem2_slots(topo));
  EXPECT_EQ(verify_h_relation(topo, hot, hot_plan), "");

  // A hot receiver plus a self-request (delivered without moving).
  const std::vector<Request> mixed = {{1, 2}, {3, 2}, {5, 2}, {4, 4}};
  const HRelationPlan mixed_plan = route_h_relation(topo, mixed);
  EXPECT_EQ(mixed_plan.h, 3);
  EXPECT_EQ(verify_h_relation(topo, mixed, mixed_plan), "");
}

POPS_TEST(EmptyRelationRoutesInZeroSlots) {
  const Topology topo(4, 4);
  const std::vector<Request> none;
  const HRelationPlan plan = route_h_relation(topo, none);
  EXPECT_EQ(plan.h, 0);
  EXPECT_EQ(plan.total_slots(), 0);
  EXPECT_EQ(layout_failure(topo, none, plan), "");
  EXPECT_EQ(verify_h_relation(topo, none, plan), "");
}

// verify_h_relation is only trustworthy if it rejects broken plans.
POPS_TEST(VerifierRejectsCorruptedPlans) {
  Rng rng(33);
  const Topology topo(1, 6);  // one slot per phase: easy to corrupt
  const auto requests = union_of_permutations(topo, 2, rng);
  const HRelationPlan plan = route_h_relation(topo, requests);
  EXPECT_EQ(verify_h_relation(topo, requests, plan), "");

  // Dropping a phase strands that phase's packets at their sources.
  HRelationPlan truncated = plan;
  truncated.h = plan.h - 1;
  truncated.phase_offsets.pop_back();
  truncated.phase_requests.resize(as_size(truncated.phase_offsets.back()));
  truncated.schedule = testing::edited_schedule(
      plan.schedule, truncated.h * theorem2_slots(topo),
      [](int, std::size_t, Transmission&) {});
  EXPECT_NE(verify_h_relation(topo, requests, truncated), "");

  // Bending one transmission misdelivers (or double-books a receiver).
  HRelationPlan bent = plan;
  bent.schedule = testing::edited_schedule(
      plan.schedule, plan.total_slots(),
      [&topo](int s, std::size_t i, Transmission& t) {
        if (s == 0 && i == 0) {
          t.destination = (t.destination + 1) % topo.processor_count();
        }
      });
  EXPECT_NE(verify_h_relation(topo, requests, bent), "");

  // Naming a packet the transmitter does not hold is a model
  // violation the simulator refuses outright.
  HRelationPlan phantom = plan;
  phantom.schedule = testing::edited_schedule(
      plan.schedule, plan.total_slots(),
      [](int s, std::size_t i, Transmission& t) {
        if (s == 0 && i == 0) t.packet = -7;
      });
  EXPECT_NE(verify_h_relation(topo, requests, phantom), "");
}

// The zero-allocation contract of the router the TrafficServer serves
// through: once reserved and warmed on the two extreme window shapes
// (the whole degree cap on one processor; the request cap spread
// wide), relations of every degree from 0 through the cap route under
// a live allocation ban without growing any arena.
POPS_TEST(WarmRouterKeepsScratchFootprintFlat) {
  Rng rng(34);
  for (const auto& [d, g] : {std::pair{4, 4}, {1, 6}, {3, 5}}) {
    const Topology topo(d, g);
    const int n = topo.processor_count();
    const int cap_degree = 4;
    const int cap_requests = n * cap_degree;
    HRelationRouter router(topo);
    router.reserve(cap_requests, cap_degree);
    std::vector<Request> hot;
    for (int k = 0; k < cap_degree; ++k) hot.push_back(Request{0, k % n});
    router.route(hot);
    std::vector<Request> wide;
    for (int r = 0; r < cap_degree; ++r) {
      for (int p = 0; p < n; ++p) wide.push_back(Request{p, (p + r + 1) % n});
    }
    router.route(wide);
    const ScratchFootprint warm = router.scratch_footprint();

    // Mixed shapes, generated before the ban: the union of h random
    // permutations (degree exactly h), thinned on odd trials, and
    // skewed onto one hot sender every third trial.
    std::vector<std::vector<Request>> relations;
    for (int trial = 0; trial < 60; ++trial) {
      const int h = trial % (cap_degree + 1);
      std::vector<Request> relation;
      for (const Request& request : union_of_permutations(topo, h, rng)) {
        if (trial % 2 == 1 && rng.uniform_int(0, 3) == 0) continue;
        relation.push_back(request);
      }
      if (trial % 3 == 0 && h > 0) {
        relation.resize(std::min(relation.size(), as_size(h)));
        for (Request& request : relation) request.source = 0;
      }
      relations.push_back(std::move(relation));
    }

    std::vector<int> degrees;
    degrees.reserve(relations.size());
    {
      ScopedAllocationBan ban("test: warm h-relation router");
      for (const std::vector<Request>& relation : relations) {
        const HRelationPlan& plan = router.route(relation);
        EXPECT_EQ(router.scratch_footprint(), warm);
        EXPECT_EQ(plan.total_slots(), plan.h * theorem2_slots(topo));
        degrees.push_back(plan.h);
      }
    }
    // Every shape from h = 0 to the cap was exercised, and the last
    // plan still verifies.
    for (int h = 0; h <= cap_degree; ++h) {
      EXPECT_TRUE(std::count(degrees.begin(), degrees.end(), h) > 0);
    }
    EXPECT_EQ(verify_h_relation(topo, relations.back(), router.plan()),
              "");
  }
}

}  // namespace
}  // namespace pops
