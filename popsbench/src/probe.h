// LayerProbe: the traced run's decomposition of a route into the
// public calls of each popsnet layer.
//
// The library is not instrumented, so the probe re-runs the work of a
// route one layer at a time on the same input and records a span
// around every call:
//
//   perm                      one permutation
//     graph.build_h           BipartiteMultigraph H, one edge per packet
//     graph.color_h           EdgeColorer::color on H
//     graph.color_hq          build + color one batch H_q (per batch)
//     graph.spread            EdgeColorer::spread on H_q (per batch)
//     routing.theorem2        RoutingEngine::route_permutation
//     routing.direct          RoutingEngine::route_direct
//     pops.execute            Network reset/load/execute/all_delivered
//                             of every schedule the workload verifies
//   relation                  one h-relation (a window or a permutation)
//     graph.color_window      traffic multigraph build + color
//     routing.h_relation      route_h_relation
//     pops.verify_h_relation  verify_h_relation
//
// Each span carries the operation id it serves, so the per-layer
// metrics are span totals divided by the number of `perm` or
// `relation` spans.
#pragma once

#include <string>
#include <vector>

#include "graph/bipartite_multigraph.h"
#include "graph/edge_coloring.h"
#include "perm/permutation.h"
#include "pops/network.h"
#include "routing/engine.h"
#include "routing/h_relation.h"
#include "trace.h"

namespace popsbench {

class LayerProbe {
 public:
  LayerProbe(const pops::Topology& topo, Tracer& tracer);

  /// Decomposes routing `pi` with `strategy` (kTheorem2 or kBest) under
  /// a new `perm` span. Returns false when a schedule does not deliver
  /// pi on the simulator.
  bool route_perm(const pops::Permutation& pi, pops::RouteStrategy strategy,
                  int parent, long long op);

  /// Decomposes an h-relation under a new `relation` span. When
  /// `served` is given it is the plan to verify (the server's own
  /// window plan); otherwise the plan from route_h_relation is
  /// verified. With `route_phases`, every König phase is padded to a
  /// permutation and decomposed with route_perm, as the server does;
  /// the first kKeptPhases of them are kept in phase_perms(). Returns
  /// false on any verification failure.
  bool route_relation(const std::vector<pops::Request>& requests,
                      const pops::HRelationPlan* served, bool route_phases,
                      int parent, long long op);

  static constexpr std::size_t kKeptPhases = 256;
  const std::vector<pops::Permutation>& phase_perms() const {
    return phase_perms_;
  }

  /// Zeroes the counters below, e.g. after a warm-up.
  void reset_counts();

  long long theorem2_wins() const { return theorem2_wins_; }
  double lower_bound_sum() const { return lower_bound_sum_; }
  double slot_ratio_sum() const { return slot_ratio_sum_; }
  long long ratio_count() const { return ratio_count_; }
  double transmissions_sum() const { return transmissions_sum_; }
  double relation_degree_sum() const { return relation_degree_sum_; }

 private:
  pops::Topology topo_;
  Tracer& tracer_;
  pops::RoutingEngine engine_;
  pops::BipartiteMultigraph h_;
  pops::BipartiteMultigraph h_q_;
  pops::BipartiteMultigraph window_;
  pops::EdgeColorer colorer_;
  pops::EdgeColoring coloring_;
  pops::EdgeColoring fair_;
  pops::EdgeColoring window_coloring_;
  pops::Network net_;
  std::vector<int> image_;
  std::vector<char> destination_used_;
  std::vector<pops::Permutation> phase_perms_;

  long long theorem2_wins_ = 0;
  double lower_bound_sum_ = 0;
  double slot_ratio_sum_ = 0;
  long long ratio_count_ = 0;
  double transmissions_sum_ = 0;
  double relation_degree_sum_ = 0;
};

}  // namespace popsbench
