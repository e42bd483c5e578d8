// h-relation routing on POPS(d, g) — the compositional consequence of
// Theorem 2.
//
// An h-relation is a set of point-to-point requests in which every
// processor sends at most h packets and receives at most h packets.
// Model the requests as a bipartite multigraph on the n processors
// (one edge per request): its maximum degree is exactly the h of the
// relation, so König edge coloring — the same substrate Theorem 1
// leans on — splits the traffic into h color classes, each a partial
// permutation. Padding each class to a full permutation and routing
// it through the Theorem 2 router gives a verified schedule of
// h * 2 * ceil(d / g) slots (h slots when d = 1).
//
// HRelationRouter is the one implementation of that pipeline. It owns
// a RoutingEngine and every per-relation intermediate (the traffic
// multigraph, its coloring, the phase buckets, the padding arrays and
// the filtered schedule) and rebuilds them in place, so a warm router
// routes with zero heap allocation. The TrafficServer routes every
// window through one; route_h_relation is the one-shot wrapper.
#pragma once

#include <vector>

#include "graph/bipartite_multigraph.h"
#include "graph/edge_coloring.h"
#include "pops/flat_plan.h"
#include "routing/engine.h"
#include "routing/router.h"
#include "support/span.h"
#include "support/thread_annotations.h"

namespace pops {

/// One packet of an h-relation: `source` must deliver one packet to
/// `destination`. The packet id is the request's index in the array
/// handed to the router.
struct Request {
  int source;
  int destination;
};

struct HRelationPlan {
  /// Degree of the relation: the largest number of packets one
  /// processor sends or receives. Equals the number of phases (König).
  int h = 0;
  /// The executable schedule, restricted to the real packets (padding
  /// transmissions are dropped) and named by request id. Phase c is
  /// the color class c routed at the Theorem 2 bound: it occupies
  /// slots [c * T, (c + 1) * T) with T = theorem2_slots(topo).
  FlatSchedule schedule;
  /// Requests delivered by each phase, as CSR: phase c delivers the
  /// request ids phase_requests[phase_offsets[c] .. phase_offsets[c+1]),
  /// in increasing order. h + 1 offsets once routed.
  std::vector<int> phase_offsets;
  std::vector<int> phase_requests;

  /// h * theorem2_slots(topo).
  int total_slots() const { return schedule.slot_count(); }
};

// Thread-compatible, not thread-safe: one router per thread, like the
// RoutingEngine it owns.
class POPS_THREAD_COMPATIBLE HRelationRouter {
 public:
  explicit HRelationRouter(const Topology& topo);

  const Topology& topology() const { return engine_.topology(); }

  /// Pre-sizes every arena for relations of at most `max_requests`
  /// requests and degree at most `max_degree`, so routing them grows
  /// as little as possible. Routing one relation of each extreme shape
  /// (all requests on one processor; max_requests spread wide) then
  /// warms the router for every relation within the caps.
  void reserve(int max_requests, int max_degree);

  /// Decomposes the relation into h partial permutations via edge
  /// coloring and routes each through the Theorem 2 router. The
  /// returned plan (also plan()) stays valid until the next route call.
  const HRelationPlan& route(Span<const Request> requests);
  const HRelationPlan& plan() const { return plan_; }

  /// Aggregate capacity of every router-owned arena, engine included.
  ScratchFootprint scratch_footprint() const;

 private:
  RoutingEngine engine_;
  BipartiteMultigraph traffic_;  // one edge per request, processors
  EdgeColorer colorer_;
  EdgeColoring coloring_;  // h-coloring of traffic_
  std::vector<int> phase_cursor_;  // counting-sort fill cursors, h
  // Padded permutation of one phase, the request each source sends in
  // it (-1 for padding), and the destinations it already uses.
  std::vector<int> image_;
  std::vector<int> request_of_source_;
  std::vector<char> destination_used_;
  HRelationPlan plan_;
};

/// One-shot wrapper: routes the relation on a transient HRelationRouter
/// and returns a copy of its plan.
HRelationPlan route_h_relation(const Topology& topo,
                               const std::vector<Request>& requests);

}  // namespace pops
