// Experiment E3 — Remark 1: the cost of computing the routing.
//
// Paper claim: the bottleneck is 1-factorizing a regular bipartite
// multigraph; O(g^3) or O(g^2 log g) when d <= g, O(dn) or O(n log d)
// when d > g, depending on the edge-coloring algorithm. We time the
// whole Theorem 2 build (RoutingEngine::route_permutation: build H,
// color it, derive the fair distribution, emit the schedule) on a
// d == g sweep and a d > g sweep at g = 8. Both sweeps are sized from
// the tier's Theorem 2 axis, and every timed schedule is verified on
// the strict simulator.
#include <algorithm>
#include <vector>

#include "bench_common.h"
#include "routing/engine.h"
#include "support/format.h"
#include "support/prng.h"
#include "support/table.h"
#include "support/timer.h"

namespace pops::bench {
namespace {

/// d == g sweep: g = 2x for every x of the tier's Theorem 2 axis.
std::vector<GridPoint> square_sweep() {
  std::vector<GridPoint> points;
  for (const int x : tier().table_axis) points.push_back({2 * x, 2 * x});
  return points;
}

/// d > g sweep at g = 8: d = 16x for every x of the same axis.
std::vector<GridPoint> deep_sweep() {
  std::vector<GridPoint> points;
  for (const int x : tier().table_axis) points.push_back({16 * x, 8});
  return points;
}

/// Best of 5 warm Theorem 2 builds of one random permutation, in
/// microseconds; the schedule is verified once.
double build_us(const Topology& topo, Rng& rng) {
  RoutingEngine engine(topo);
  const Permutation pi = Permutation::random(topo.processor_count(), rng);
  const FlatSchedule& schedule = engine.route_permutation(pi);  // warm-up
  const VerificationResult vr = verify_schedule(topo, pi, schedule);
  POPS_CHECK(vr.ok, "Remark 1 schedule failed verification: " + vr.failure);
  POPS_CHECK(schedule.slot_count() == theorem2_slots(topo),
             "Remark 1 schedule missed theorem2_slots");
  double best = 1e99;
  for (int rep = 0; rep < 5; ++rep) {
    Timer timer;
    benchmark::DoNotOptimize(&engine.route_permutation(pi));
    best = std::min(best, timer.nanos() / 1e3);
  }
  return best;
}

void print_sweep(const char* key_header, bool key_is_d,
                 const std::vector<GridPoint>& points, Rng& rng) {
  Table table({key_header, "build us"});
  for (const GridPoint point : points) {
    const Topology topo(point.d, point.g);
    table.add_row({std::to_string(key_is_d ? point.d : point.g),
                   format_double(build_us(topo, rng), 1)});
  }
  table.print(std::cout);
}

void print_tables() {
  Rng rng(3);
  std::cout << "=== E3: Theorem 2 build cost (Remark 1), d == g sweep ===\n";
  print_sweep("g (d=g)", false, square_sweep(), rng);
  std::cout << "\n=== E3b: d > g sweep (g = 8 fixed) ===\n";
  print_sweep("d (g=8)", true, deep_sweep(), rng);
  std::cout << "Expected shape: the build grows with n = d * g, the\n"
               "edge count of H, and stays within the O(dn) bound of\n"
               "Remark 1.\n\n";
}

void BM_Theorem2Build(benchmark::State& state) {
  const Topology topo(static_cast<int>(state.range(0)),
                      static_cast<int>(state.range(1)));
  RoutingEngine engine(topo);
  Rng rng(44);
  const Permutation pi = Permutation::random(topo.processor_count(), rng);
  engine.route_permutation(pi);  // warm the scratch arenas
  for (auto _ : state) {
    benchmark::DoNotOptimize(&engine.route_permutation(pi));
  }
  state.SetItemsProcessed(state.iterations());  // permutations routed
  state.counters["perms_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

void register_tier_benches() {
  auto* build =
      benchmark::RegisterBenchmark("BM_Theorem2Build", BM_Theorem2Build);
  for (const auto& sweep : {square_sweep(), deep_sweep()}) {
    for (const GridPoint point : sweep) build->Args({point.d, point.g});
  }
}

}  // namespace
}  // namespace pops::bench

POPSNET_BENCH_MAIN(pops::bench::print_tables,
                   pops::bench::register_tier_benches)
