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
// remainder).
//
// One counting pass over the permutation records each packet's
// coupler c(destination group, source group) and the per-coupler
// counts; a division-free counting sort then buckets the sources by
// coupler. The direct router drains these buckets, and kBest picks its
// winner from their largest count. The same counts are H's g x g
// multiplicity matrix M (M[i][j] = packets from group i to group j), so
// when d >= 3g Theorem 2 colors H by peeling M instead of inserting its
// n edges one by one: take a perfect matching of M's support, give it
// w consecutive colors (w = its smallest cell), subtract, and re-match
// only the rows whose cell emptied (Birkhoff-von Neumann, at most
// min(d, g * g - 2 * g + 2) peels). Below d = 3g, H is built and
// colored by EdgeColorer's alternating paths; the threshold
// (kPeelRatio) is where peeling wins on every measured shape.
//
// The engine owns every intermediate object — the packet multigraph,
// the edge colorings, the peel matrix, the fair-distribution scratch,
// the coupler buckets, the verification Network of the portfolio, and
// the emitted FlatSchedules — and rebuilds them in place per
// permutation. Routing performs no heap allocation at all after one
// warm-up call per strategy (asserted by tests that compare
// scratch_footprint() across calls): the colorer runs on flat slot
// tables and builds no transient subgraphs.
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
  /// Max coupler demand of the permutation of the last route_direct or
  /// kBest call — set by kBest even when Theorem 2 won and no direct
  /// schedule was built. route_permutation never changes it, although
  /// on peel shapes it counts the same coupler demand itself.
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
  /// Theorem 2 for a validated image array: on peel shapes it first
  /// counts and buckets the coupler demand, which build_theorem2 reads.
  void route_theorem2(Span<const int> images);
  /// Theorem 2 schedule. On peel shapes the coupler buckets must
  /// already hold `images` (bucket_by_coupler).
  void build_theorem2(Span<const int> images);
  /// Alternating-path path: builds H, colors it and counting-sorts the
  /// sources by color into source_by_color_.
  void color_h(Span<const int> images);
  /// Peel path: colors H through its g x g multiplicity matrix, read
  /// off the coupler buckets, straight into source_by_color_.
  void peel_coupler_matrix();
  /// Kuhn augmenting search that matches row `root` of the peel matrix
  /// to a column through nonzero cells; false iff none exists.
  bool match_row(int root);
  /// First column that `row` reaches through a nonzero cell and that
  /// no row is matched to, or -1.
  int free_column_of(int row) const;
  /// The one counting pass over the permutation: per-coupler packet
  /// counts into coupler_count_ and each source's coupler into
  /// coupler_of_source_. Returns the max coupler demand.
  int count_coupler_demand(Span<const int> images);
  /// Buckets the sources by coupler (CSR coupler_offset_ /
  /// coupler_queue_) from the last count_coupler_demand, with no
  /// division.
  void bucket_by_coupler();
  /// Direct schedule from the buckets of bucket_by_coupler().
  void build_direct(Span<const int> images);
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

  /// Theorem 2 colors H by peeling when d >= kPeelRatio * g (and
  /// d > 1); below that, alternating-path inserts are as fast or
  /// faster on some shapes.
  static constexpr int kPeelRatio = 3;

  Topology topo_;
  const bool peels_;

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

  // --- Peel scratch (peel shapes only) ---
  std::vector<int> peel_left_;      // uncolored M, row-major g x g
  std::vector<int> match_of_row_;   // column matched to each row, or -1
  std::vector<int> row_of_column_;  // row matched to each column, or -1
  std::vector<char> column_seen_;   // columns visited by one search
  std::vector<int> kuhn_row_;       // search stack: row per depth
  std::vector<int> kuhn_next_;      // search stack: next column

  // --- Coupler demand: direct router and peel (CSR coupler queues) ---
  std::vector<int> coupler_count_;      // packets per coupler
  std::vector<int> coupler_of_source_;  // coupler of each source
  std::vector<int> coupler_offset_;     // prefix sums, coupler_count()+1
  std::vector<int> coupler_queue_;      // sources bucketed by coupler
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
