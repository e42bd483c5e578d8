// Experiment E2 — reproduction of Figure 3.
//
// The paper's only worked example: POPS(3,3), packets drawn with their
// destinations "xy" (x = destination group, y = destination processor),
// and on the right the intermediate destinations chosen by the fair
// distribution. We print both sides: the initial layout and the
// intermediate assignment our Theorem 1 implementation computes, then
// execute the two slots.
#include "bench_common.h"
#include "pops/network.h"
#include "routing/engine.h"
#include "routing/fair_distribution.h"
#include "routing/list_system.h"
#include "support/format.h"
#include "support/table.h"

namespace pops::bench {
namespace {

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

  // Validate the figure's defining property: per source group the
  // intermediate groups are distinct, and per intermediate group the
  // destination groups are distinct.
  const ListSystem ls = list_system_from_permutation(topo, pi);
  std::cout << "\nfair distribution valid: "
            << (is_fair_distribution(ls, intermediate_of) ? "yes" : "NO")
            << '\n';

  Network net(topo);
  net.load_permutation_traffic(pi);
  net.execute(schedule);
  std::cout << "two-slot schedule delivers: "
            << (net.all_delivered() ? "yes" : "NO") << "\n\n";
}

void BM_Figure3Route(benchmark::State& state) {
  const Topology topo(3, 3);
  const Permutation pi({5, 1, 7, 2, 0, 6, 3, 8, 4});
  RoutingEngine engine(topo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.route_permutation(pi));
  }
}
BENCHMARK(BM_Figure3Route);

}  // namespace
}  // namespace pops::bench

POPSNET_BENCH_MAIN(pops::bench::print_tables)
