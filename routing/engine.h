// RoutingEngine: all routing strategies for one fixed Topology with
// zero steady-state heap allocation.
//
// This is the canonical routing API. One-shot callers use the free
// function route(topo, pi, RouteOptions{...}) from routing/router.h;
// bulk single-threaded callers hold a RoutingEngine and call
//
//   const FlatSchedule& plan = engine.route(pi, options);
//
// per permutation; many-permutation throughput callers use
// BatchRouter::route_batch (routing/batch_router.h), which confines
// one warm engine to each worker thread, and h-relation callers use
// HRelationRouter (routing/h_relation.h), which owns one engine.
//
// Mei & Rizzi's Theorem 2 construction is oblivious and shape-static
// for fixed (d, g): H is always d-regular on g + g vertices with
// exactly n = d * g edges, so each of its d color classes is a perfect
// matching of g edges, and the schedule always has theorem2_slots(topo)
// slots. The fair distribution of every batch comes straight from H's
// one d-coloring: each intermediate group is a chunk of one color
// class (EdgeColorer::spread only rebalances the d < g, g mod d != 0
// remainder). The engine therefore owns every intermediate object —
// the packet multigraph, the edge colorings, the fair-distribution
// scratch, the coupler queues of the direct router, the verification
// Network of the portfolio, and the emitted FlatSchedules — and
// rebuilds them in place per permutation. Routing performs no heap
// allocation at all after one warm-up call per strategy (asserted by
// tests that compare scratch_footprint() across calls): the colorer
// runs on flat slot tables and builds no transient subgraphs.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "graph/bipartite_multigraph.h"
#include "graph/edge_coloring.h"
#include "perm/permutation.h"
#include "pops/flat_plan.h"
#include "pops/network.h"
#include "routing/router.h"
#include "support/thread_annotations.h"

namespace pops {

/// Aggregate capacity of every scratch arena the engine owns. Two
/// equal footprints around a route_* call mean the call did not grow
/// (= reallocate) any engine-owned storage.
struct ScratchFootprint {
  std::size_t units = 0;
};

inline bool operator==(const ScratchFootprint& a,
                       const ScratchFootprint& b) {
  return a.units == b.units;
}
inline bool operator!=(const ScratchFootprint& a,
                       const ScratchFootprint& b) {
  return !(a == b);
}

/// "<units> units" — so EXPECT_EQ on two footprints prints both
/// values on mismatch instead of just "footprints differ".
std::string to_string(const ScratchFootprint& footprint);
std::ostream& operator<<(std::ostream& os,
                         const ScratchFootprint& footprint);

// Thread-compatible, not thread-safe: one engine per thread (the
// BatchRouter discipline); see support/thread_annotations.h.
class POPS_THREAD_COMPATIBLE RoutingEngine {
 public:
  explicit RoutingEngine(const Topology& topo);

  const Topology& topology() const { return topo_; }
  /// The coloring algorithm of H; it has one value.
  RouterOptions options() const { return {}; }

  /// Unified entry point: routes pi with options.strategy and returns
  /// the schedule. options.verify executes the schedule on the
  /// internal strict simulator and aborts on any violation (kBest
  /// always verifies the schedule it returns). The returned reference
  /// stays valid until the next route call on this engine.
  const FlatSchedule& route(const Permutation& pi,
                            const RouteOptions& options = {});

  /// Strategy that produced the last route() schedule — the concrete
  /// winner (kDirect or kTheorem2) when kBest was requested.
  RouteStrategy last_strategy() const { return last_strategy_; }

  /// Theorem 2 schedule for pi: exactly theorem2_slots(topology())
  /// slots. The returned reference (and intermediate_of()) stays valid
  /// until the next route_* call on this engine.
  const FlatSchedule& route_permutation(const Permutation& pi);

  /// Same schedule for a permutation given as its raw image array
  /// (packet of processor i goes to images[i]). The engine validates
  /// bijectivity into its own stamped scratch, so bulk callers that
  /// rebuild an image buffer per call — the traffic server's padded
  /// per-phase permutations — route with zero steady-state allocation
  /// and no Permutation construction.
  const FlatSchedule& route_permutation(Span<const int> images);

  /// Intermediate processor of each source's packet in the last
  /// route_permutation schedule (the source itself when the packet was
  /// routed directly, as in the d == 1 case).
  Span<const int> intermediate_of() const { return intermediate_of_; }

  /// Greedy direct (no-intermediate) schedule: exactly max-demand
  /// slots, where max demand is the largest number of packets sharing
  /// one coupler.
  const FlatSchedule& route_direct(const Permutation& pi);
  /// Max demand of the last direct or kBest route — set by kBest even
  /// when Theorem 2 won and no direct schedule was built.
  int direct_max_demand() const { return direct_max_demand_; }

  ScratchFootprint scratch_footprint() const;

 private:
  /// Portfolio (kBest): picks the shorter strategy from the two
  /// lengths known up front — max coupler demand for direct,
  /// theorem2_slots() for Theorem 2, ties to direct — then builds only
  /// that schedule and executes it on the engine's internal strict
  /// simulator (aborting on any violation — the engine never hands out
  /// an unverified portfolio plan). A cold engine builds both
  /// candidates, so one warm-up call sizes every arena; it too verifies
  /// only the winner.
  const FlatSchedule& route_best(const Permutation& pi);
  void build_theorem2(Span<const int> images);
  /// Per-coupler packet counts of pi into coupler_count_, and their
  /// maximum into direct_max_demand_.
  void count_coupler_demand(const Permutation& pi);
  /// Direct schedule from the counts of count_coupler_demand(pi).
  void build_direct(const Permutation& pi);
  /// Executes `schedule` on the internal simulator under permutation
  /// traffic pi; true iff every packet was delivered. Allocation-free
  /// once the simulator is warm.
  bool delivers(const FlatSchedule& schedule, const Permutation& pi);
  /// Aborts with the simulator's diagnostic, prefixed by `what`,
  /// unless `schedule` delivers pi.
  void verify_or_abort(const FlatSchedule& schedule, const Permutation& pi,
                       const char* what);
  /// Why the last delivers() returned false, for abort messages.
  std::string verification_failure() const;

  Topology topo_;

  // One warm-up call per strategy sizes that strategy's arenas; from
  // the second call on, the entry point arms a ScopedAllocationBan on
  // itself, so the steady-state contract is enforced at runtime rather
  // than inferred from footprint snapshots.
  bool warm_theorem2_ = false;
  bool warm_direct_ = false;
  bool warm_verify_ = false;

  // --- Theorem 2 scratch ---
  BipartiteMultigraph h_;  // the packet multigraph H (g x g)
  EdgeColorer colorer_;
  EdgeColoring coloring_;  // d-coloring of H
  EdgeColoring fair_;      // source -> intermediate group
  // Sources bucketed by H-color (CSR with fixed width g): color c owns
  // [c * g, (c + 1) * g); color_cursor_ is the per-color fill cursor.
  std::vector<int> source_by_color_;
  std::vector<int> color_cursor_;
  std::vector<int> used_of_group_;  // intermediates taken per group
  std::vector<int> intermediate_of_;
  FlatSchedule theorem2_schedule_;
  // Bijectivity check of the Span overload: seen[v] is valid only when
  // stamped with the current validation epoch, so no clearing pass.
  std::vector<long long> image_seen_stamp_;
  long long image_epoch_ = 0;

  // --- Direct-router scratch (CSR coupler queues) ---
  std::vector<int> coupler_count_;   // packets per coupler
  std::vector<int> coupler_offset_;  // prefix sums, coupler_count()+1
  std::vector<int> coupler_queue_;   // sources bucketed by coupler
  int direct_max_demand_ = 0;
  FlatSchedule direct_schedule_;

  // --- Portfolio scratch ---
  // Constructed on the first verifying call: the simulator's
  // per-processor buffers and stamp arrays are the engine's largest
  // arena, and the unverified theorem2/direct paths never touch them.
  std::optional<Network> net_;
  RouteStrategy last_strategy_ = RouteStrategy::kTheorem2;
};

}  // namespace pops
