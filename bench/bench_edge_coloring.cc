// Experiment E4 — ablation of the 1-factorization bottleneck itself.
//
// Times the alternating-path edge coloring on random Delta-regular
// bipartite multigraphs over the tier's (n, Delta) sweep, reporting
// ns/edge. This isolates the Remark 1 cost from the rest of the routing
// pipeline.
#include "bench_common.h"
#include "graph/edge_coloring.h"
#include "graph/random.h"
#include "graph/validation.h"
#include "support/format.h"
#include "support/prng.h"
#include "support/table.h"
#include "support/timer.h"

namespace pops::bench {
namespace {

BipartiteMultigraph random_regular(int n, int degree, Rng& rng) {
  return random_regular_multigraph(n, degree, rng);
}

double ns_per_edge(const BipartiteMultigraph& g) {
  // Warm reusable colorer: rep 0 sizes the flat scratch, later reps
  // measure the allocation-free steady state the engine actually runs.
  EdgeColorer colorer;
  EdgeColoring coloring;
  double best = 1e99;
  for (int rep = 0; rep < 4; ++rep) {
    Timer timer;
    colorer.color(g, ColoringAlgorithm::kAlternatingPath, coloring);
    if (rep > 0) best = std::min(best, timer.nanos());
    POPS_CHECK(is_valid_edge_coloring(g, coloring),
               "invalid coloring in benchmark");
  }
  return best / static_cast<double>(g.edge_count());
}

void print_tables() {
  Rng rng(4);
  std::cout << "=== E4: edge coloring, ns/edge on Delta-regular graphs ===\n";
  Table table({"n", "Delta", "edges", "ns/edge"});
  for (const ColoringPoint point : tier().coloring_grid) {
    const BipartiteMultigraph g =
        random_regular(point.n, point.degree, rng);
    table.add_row({std::to_string(point.n), std::to_string(point.degree),
                   std::to_string(g.edge_count()),
                   format_double(ns_per_edge(g), 0)});
  }
  table.print(std::cout);
  std::cout << "Expected shape: per-edge cost grows with n (alternating "
               "path lengths)\nand only slowly with Delta (one mask word "
               "per 64 colors).\n\n";
}

void BM_EdgeColoring(benchmark::State& state) {
  Rng rng(45);
  const BipartiteMultigraph g = random_regular(
      static_cast<int>(state.range(0)), static_cast<int>(state.range(1)),
      rng);
  // Warm reusable colorer, as held by a RoutingEngine: the loop times
  // the zero-steady-state-allocation path.
  EdgeColorer colorer;
  EdgeColoring coloring;
  colorer.color(g, ColoringAlgorithm::kAlternatingPath, coloring);
  for (auto _ : state) {
    colorer.color(g, ColoringAlgorithm::kAlternatingPath, coloring);
    benchmark::DoNotOptimize(coloring.color.data());
  }
  state.SetItemsProcessed(state.iterations() * g.edge_count());
  state.counters["edges_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * g.edge_count()),
      benchmark::Counter::kIsRate);
}

void register_tier_benches() {
  auto* coloring =
      benchmark::RegisterBenchmark("BM_EdgeColoring", BM_EdgeColoring);
  for (const ColoringPoint point : tier().coloring_grid) {
    coloring->Args({point.n, point.degree});
  }
}

}  // namespace
}  // namespace pops::bench

POPSNET_BENCH_MAIN(pops::bench::print_tables,
                   pops::bench::register_tier_benches)
