// The routing API for POPS(d, g) permutation traffic.
//
// Mei & Rizzi (IPDPS 2002): every permutation can be routed in one slot
// when d = 1 and in 2 * ceil(d / g) slots when d > 1. The construction
// is oblivious and two-phase:
//
//   1. Build the d-regular bipartite multigraph H on the g source
//      groups and g destination groups with one edge per packet, and
//      properly edge-color it with d colors (Remark 1 / König). The
//      engine counts each packet's coupler in one pass, which the
//      direct router and the portfolio read too. When d >= 3g it
//      colors H through those counts, H's g x g multiplicity matrix,
//      by peeling perfect matchings (Birkhoff-von Neumann); below
//      that, by alternating-path edge inserts.
//   2. Bundle the colors into ceil(d / g) batches of at most g colors.
//      Each color class is a perfect matching of g packets, so the
//      "fair distribution" comes straight from H's one coloring: every
//      intermediate group takes a chunk of one color class (floor(g/d)
//      chunks per color when d < g, one group per color otherwise;
//      when g mod d != 0, EdgeColorer::spread rebalances the
//      remainder). That names an intermediate group for every packet
//      such that, per batch, (a) the packets of one source group use
//      distinct intermediate groups and (b) the packets relayed by one
//      intermediate group use distinct destination groups.
//   3. Batch q then takes exactly two slots: slot 2q ships every
//      packet of the batch to a private processor of its intermediate
//      group, slot 2q+1 forwards it to its true destination. All
//      coupler, transmitter and receiver constraints hold by (a), (b)
//      and the properness of the coloring.
//
// One-shot callers use the single entry point
//
//   RouteResult result = route(topo, pi, RouteOptions{...});
//
// which selects a strategy (Theorem 2, the greedy direct router, or
// the verified best-of-both portfolio), optionally verifies the
// schedule on the strict simulator, and returns a FlatSchedule plus
// the strategy that produced it. Bulk callers hold a RoutingEngine
// (routing/engine.h) and call engine.route(pi, options) to reuse the
// scratch arenas; many-permutation throughput callers use
// BatchRouter::route_batch (routing/batch_router.h).
#pragma once

#include <string>

#include "graph/edge_coloring.h"
#include "perm/permutation.h"
#include "pops/network.h"

namespace pops {

/// The routing strategies of the portfolio.
enum class RouteStrategy {
  /// Greedy one-hop schedule: exactly max-demand slots. Fast on random
  /// traffic (max demand ~ d/g), degrades to d slots on adversarial
  /// group-block traffic.
  kDirect = 0,
  /// The paper's two-phase construction: a flat 2 * ceil(d / g) slots
  /// (1 slot when d = 1) for ANY permutation.
  kTheorem2 = 1,
  /// Pick the shorter of the two from their lengths, known up front
  /// (max coupler demand vs. theorem2_slots; ties go to direct), then
  /// build only that schedule and verify it on the strict simulator.
  /// Always verified, regardless of RouteOptions::verify.
  kBest = 2,
};

std::string to_string(RouteStrategy strategy);

/// What RoutingEngine::options() reports: the edge-coloring algorithm
/// of H, which has one value.
struct RouterOptions {
  ColoringAlgorithm coloring = ColoringAlgorithm::kAlternatingPath;
};

/// Options of the unified route() entry point (and of
/// RoutingEngine::route / BatchRouter::route_batch).
struct RouteOptions {
  RouteStrategy strategy = RouteStrategy::kBest;
  /// Execute the schedule on the strict simulator and abort on any
  /// model violation or misdelivery. kBest verifies the schedule it
  /// returns unconditionally; for kDirect/kTheorem2 this buys the same
  /// guarantee at the cost of one simulated execution.
  bool verify = false;
};

/// What route() returns: the schedule in the canonical flat layout,
/// the strategy that actually produced it (the concrete winner when
/// kBest was requested), and its length.
struct RouteResult {
  FlatSchedule schedule;
  RouteStrategy strategy = RouteStrategy::kTheorem2;
  int slot_count = 0;
};

/// The Theorem 2 bound: 1 when d == 1, else 2 * ceil(d / g).
int theorem2_slots(const Topology& topo);

/// One-shot unified entry point: routes pi with options.strategy and
/// returns the verified-on-request result. Constructs a transient
/// RoutingEngine per call — bulk callers hold an engine (or a
/// BatchRouter) instead.
RouteResult route(const Topology& topo, const Permutation& pi,
                  const RouteOptions& options = {});

}  // namespace pops
