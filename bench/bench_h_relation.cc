// Experiment E10 — h-relation routing (extension).
//
// The compositional consequence of Theorem 2: an h-relation decomposes by
// König edge coloring into h partial permutations (the decomposition uses
// the same coloring substrate as Theorem 1), so it routes in
// h * 2*ceil(d/g) slots (h when d = 1). The table verifies the budget and
// delivery across the tier's (d, g) grid and h values.
#include "bench_common.h"
#include "routing/h_relation.h"
#include "support/prng.h"
#include "support/table.h"

namespace pops::bench {
namespace {

std::vector<Request> random_relation(const Topology& topo, int h, Rng& rng) {
  std::vector<Request> requests;
  for (int k = 0; k < h; ++k) {
    const Permutation pi = Permutation::random(topo.processor_count(), rng);
    for (int i = 0; i < pi.size(); ++i) {
      requests.push_back(Request{i, pi(i)});
    }
  }
  return requests;
}

void print_tables() {
  std::cout << "=== E10: h-relation routing (slots, verified) ===\n";
  Rng rng(10);
  Table table({"topology", "h", "packets", "phases", "slots", "budget",
               "verified"});
  for (const GridPoint point : tier().grid) {
    const Topology topo(point.d, point.g);
    for (const int h : tier().h_values) {
      const auto requests = random_relation(topo, h, rng);
      const HRelationPlan plan = route_h_relation(topo, requests);
      const std::string failure = verify_h_relation(topo, requests, plan);
      POPS_CHECK(failure.empty(), "h-relation failed: " + failure);
      table.add(topo.to_string(), h, requests.size(),
                plan.h, plan.total_slots(),
                plan.h * theorem2_slots(topo), "yes");
    }
  }
  table.print(std::cout);
  std::cout << "Expected shape: slots == budget == h * theorem2_slots on\n"
               "every row (the union of h random permutations has max\n"
               "degree exactly h with overwhelming probability).\n\n";
}

void BM_RouteHRelation(benchmark::State& state) {
  const Topology topo(static_cast<int>(state.range(0)),
                      static_cast<int>(state.range(1)));
  const int h = static_cast<int>(state.range(2));
  Rng rng(56);
  const auto requests = random_relation(topo, h, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(route_h_relation(topo, requests));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(requests.size()));
  state.counters["demands_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(requests.size()),
      benchmark::Counter::kIsRate);
}

void register_tier_benches() {
  auto* route = benchmark::RegisterBenchmark("BM_RouteHRelation",
                                             BM_RouteHRelation);
  // The full grid at the middle h, plus the h sweep on the middle
  // topology: h and (d, g) scale independently, so the cross product
  // would only repeat what the two slices already show.
  const std::vector<GridPoint>& grid = tier().grid;
  const std::vector<int>& h_values = tier().h_values;
  const int mid_h = h_values[h_values.size() / 2];
  for (const GridPoint point : grid) {
    route->Args({point.d, point.g, mid_h});
  }
  const GridPoint mid = grid[grid.size() / 2];
  for (const int h : h_values) {
    if (h != mid_h) route->Args({mid.d, mid.g, h});
  }
}

}  // namespace
}  // namespace pops::bench

POPSNET_BENCH_MAIN(pops::bench::print_tables,
                   pops::bench::register_tier_benches)
