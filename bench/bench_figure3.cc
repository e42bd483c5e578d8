// Experiment E2 — reproduction of Figure 3.
//
// The paper's only worked example: POPS(3,3), packets drawn with their
// destinations "xy" (x = destination group, y = destination processor),
// and on the right the intermediate destinations chosen by the fair
// distribution. We print both sides: the initial layout and the
// intermediate assignment the RoutingEngine computes, check Figure 3's
// two distinctness properties, then execute the two slots. A second
// table repeats the check over random permutations on one shape per
// fair-distribution path of the engine.
#include <algorithm>
#include <vector>

#include "bench_common.h"
#include "pops/network.h"
#include "routing/engine.h"
#include "support/format.h"
#include "support/prng.h"
#include "support/table.h"

namespace pops::bench {
namespace {

/// Figure 3's defining properties, read from the engine's
/// intermediate_of(): in every distribute slot of a Theorem 2
/// schedule, each intermediate group receives at most d packets, from
/// pairwise distinct source groups, bound for pairwise distinct
/// destination groups. Requires d > 1 (d == 1 has no intermediates).
bool is_fair_distribution(const Topology& topo, const Permutation& pi,
                          const FlatSchedule& schedule,
                          Span<const int> intermediate_of) {
  const int g = topo.g();
  std::vector<int> load(as_size(g));
  // seen_*[mid_group * g + group]: that pair already occurs this slot.
  std::vector<char> seen_source(as_size(g * g));
  std::vector<char> seen_destination(as_size(g * g));
  for (int slot = 0; slot < schedule.slot_count(); slot += 2) {
    std::fill(load.begin(), load.end(), 0);
    std::fill(seen_source.begin(), seen_source.end(), 0);
    std::fill(seen_destination.begin(), seen_destination.end(), 0);
    for (const Transmission& t : schedule.slot(slot)) {
      const int mid = intermediate_of[as_size(t.packet)];
      if (mid != t.destination) return false;
      const int mid_group = topo.group_of(mid);
      if (++load[as_size(mid_group)] > topo.d()) return false;
      char& source_seen =
          seen_source[as_size(mid_group * g + topo.group_of(t.source))];
      char& destination_seen = seen_destination[as_size(
          mid_group * g + topo.group_of(pi(t.packet)))];
      if (source_seen != 0 || destination_seen != 0) return false;
      source_seen = 1;
      destination_seen = 1;
    }
  }
  return true;
}

void print_tables() {
  std::cout << "=== E2: Figure 3 — fair distribution on POPS(3,3) ===\n";
  const Topology topo(3, 3);
  const Permutation pi({5, 1, 7, 2, 0, 6, 3, 8, 4});
  std::cout << "Permutation: processor i -> " << "[5 1 7 2 0 6 3 8 4][i]"
            << "  (cycles " << pi.to_string() << ")\n\n";

  RoutingEngine engine(topo);
  const FlatSchedule& schedule = engine.route_permutation(pi);
  const Span<const int> intermediate_of = engine.intermediate_of();

  Table table({"processor", "packet dest 'xy'", "intermediate processor",
               "intermediate group"});
  for (int src = 0; src < topo.processor_count(); ++src) {
    const int dest = pi(src);
    const int mid = intermediate_of[as_size(src)];
    table.add(src,
              str_cat(topo.group_of(dest), dest),  // the figure's xy label
              mid, topo.group_of(mid));
  }
  table.print(std::cout);

  const bool fair = is_fair_distribution(topo, pi, schedule, intermediate_of);
  POPS_CHECK(fair, "Figure 3: the intermediates are not a fair distribution");
  std::cout << "\nfair distribution valid: yes\n";

  Network net(topo);
  net.load_permutation_traffic(pi);
  POPS_CHECK(net.execute(schedule) && net.all_delivered(),
             "Figure 3: the two-slot schedule does not deliver: " +
                 net.failure());
  std::cout << "two-slot schedule delivers: yes\n\n";

  // One shape per fair-distribution path of the engine, all built
  // around the figure's d = 3.
  std::cout << "=== E2b: Figure 3 properties on random permutations ===\n";
  struct PathShape {
    int d;
    int g;
    const char* path;
  };
  const PathShape shapes[] = {
      {3, 3, "d = g: one group per H color"},
      {6, 3, "d > g: one group per H color, two batches"},
      {3, 9, "d | g: each H color cut into g/d groups"},
      {3, 8, "g mod d != 0: cut, then spread"},
  };
  Table paths({"topology", "path", "fair + delivered permutations"});
  Rng rng(2);
  for (const PathShape& shape : shapes) {
    const Topology path_topo(shape.d, shape.g);
    RoutingEngine path_engine(path_topo);
    for (int trial = 0; trial < tier().random_trials; ++trial) {
      const Permutation random =
          Permutation::random(path_topo.processor_count(), rng);
      const FlatSchedule& routed = path_engine.route_permutation(random);
      const VerificationResult vr =
          verify_schedule(path_topo, random, routed);
      POPS_CHECK(vr.ok, "Figure 3 sweep: schedule failed verification: " +
                            vr.failure);
      POPS_CHECK(is_fair_distribution(path_topo, random, routed,
                                      path_engine.intermediate_of()),
                 "Figure 3 sweep: intermediates are not a fair "
                 "distribution on " + path_topo.to_string());
    }
    paths.add(path_topo.to_string(), shape.path, tier().random_trials);
  }
  paths.print(std::cout);
  std::cout << "A row prints only when all of its random permutations "
               "passed.\n\n";
}

void BM_Figure3Route(benchmark::State& state) {
  const Topology topo(3, 3);
  const Permutation pi({5, 1, 7, 2, 0, 6, 3, 8, 4});
  RoutingEngine engine(topo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(&engine.route_permutation(pi));
  }
  state.SetItemsProcessed(state.iterations());  // permutations routed
  state.counters["perms_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

void register_tier_benches() {
  benchmark::RegisterBenchmark("BM_Figure3Route", BM_Figure3Route);
}

}  // namespace
}  // namespace pops::bench

POPSNET_BENCH_MAIN(pops::bench::print_tables,
                   pops::bench::register_tier_benches)
