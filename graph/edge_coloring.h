// Proper edge coloring of bipartite multigraphs with Delta colors.
//
// König's theorem: the chromatic index of a bipartite multigraph equals
// its maximum degree Delta. The paper's Remark 1 needs only some
// proper Delta-coloring of H; this file implements one, the
// alternating-path construction from König's proof: insert edges one
// by one, and on a color clash flip a two-colored alternating path
// (O(V * E) worst case, tiny constants). Each endpoint's lowest free
// color comes from a per-vertex used-color bitmask, one word per 64
// colors, so the lookup costs O(Delta / 64) rather than O(Delta).
//
// The coloring has exactly Delta colors for every non-empty input (0
// colors for the empty graph).
#pragma once

#include <cstdint>

#include "graph/bipartite_multigraph.h"
#include "support/thread_annotations.h"

namespace pops {

/// The edge-coloring algorithm: alternating-path is the only one.
enum class ColoringAlgorithm {
  kAlternatingPath = 0,
};

struct EdgeColoring {
  /// color[e] in [0, num_colors) for every edge id e.
  std::vector<int> color;
  int num_colors = 0;
};

/// Reusable colorer: owns all scratch for color() and spread(), so
/// repeated colorings of same-shaped graphs perform no steady-state
/// heap allocation (the RoutingEngine holds one per topology). Results
/// are written into caller-provided EdgeColoring storage, whose
/// capacity is likewise reused across calls.
///
/// The colorer runs on flat vertex-major color-slot tables, with no
/// transient subgraphs.
///
/// Thread-compatible, not thread-safe: the scratch tables make every
/// call a mutation, so use one colorer per thread (see
/// support/thread_annotations.h).
class POPS_THREAD_COMPATIBLE EdgeColorer {
 public:
  /// Properly colors `graph` with max_degree colors into `out`
  /// (out.color is resized in place). ColoringAlgorithm has one value.
  void color(const BipartiteMultigraph& graph, ColoringAlgorithm,
             EdgeColoring& out);

  /// In-place fair distribution: rebalances `coloring` (a proper
  /// coloring of `graph`) onto num_classes classes (num_classes >=
  /// coloring.num_colors) so that class sizes differ by at most one,
  /// using alternating-path swaps that preserve properness. When
  /// num_classes divides the edge count, every class ends up with
  /// exactly edge_count / num_classes edges. The RoutingEngine builds
  /// its fair distribution directly from H's d-coloring and calls this
  /// only when d < g and g mod d != 0, to fill the g mod d groups that
  /// chunking the color classes leaves empty.
  void spread(const BipartiteMultigraph& graph, int num_classes,
              EdgeColoring& coloring);

  /// Capacity snapshot for the zero-allocation tests.
  std::size_t scratch_capacity() const;

 private:
  void insert_edge(const BipartiteMultigraph& graph, int delta, int e,
                   EdgeColoring& out);
  void flip_path(const BipartiteMultigraph& graph, int delta, int v,
                 int alpha, int beta, EdgeColoring& out);
  /// Colors edge e (u, v) with c, a color free at both ends: slots
  /// and used-color masks.
  void assign_color(int delta, int e, int u, int v, int c,
                    EdgeColoring& out);
  /// The slot-table half of assign_color; flip_path updates the masks
  /// of the path's two ends itself.
  void set_slots(int delta, int e, int u, int v, int c,
                 EdgeColoring& out);

  // color() scratch. The slot arrays are vertex-major flat
  // tables: slot[vertex * delta + color] is the edge with that color
  // at that vertex, or -1. The used-color masks mirror them one bit
  // per slot, mask_words_ = ceil(delta / 64) words per vertex, so the
  // lowest free color is a count-trailing-zeros instead of a scan.
  std::vector<int> left_slot_;
  std::vector<int> right_slot_;
  int mask_words_ = 0;
  std::vector<std::uint64_t> left_used_;
  std::vector<std::uint64_t> right_used_;
  std::vector<int> path_;
  // spread() scratch.
  std::vector<int> sizes_;
  std::vector<int> slot_a_;
  std::vector<int> slot_b_;
  std::vector<char> walked_;
  std::vector<int> spread_path_;
};

}  // namespace pops
