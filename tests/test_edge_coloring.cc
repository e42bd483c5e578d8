// Unit coverage for EdgeColorer::color on random Delta-regular
// multigraphs (validity + exactly Delta colors) and on degenerate
// shapes (Delta = 1, n = 1, empty graph), and for EdgeColorer::spread.
#include "graph/edge_coloring.h"
#include "graph/validation.h"
#include "support/prng.h"
#include "tests/graph_util.h"
#include "tests/testing.h"

namespace pops {
namespace {

using testing::random_regular;

POPS_TEST(ColorsRegularGraphsWithDeltaColors) {
  Rng rng(21);
  EdgeColorer colorer;
  for (const int n : {2, 5, 8, 16, 32}) {
    // 63..130 cross the 64-color word boundaries of the used-color
    // masks.
    for (const int degree : {1, 2, 3, 4, 7, 8, 13, 63, 64, 65, 128, 130}) {
      const BipartiteMultigraph g = random_regular(n, degree, rng);
      EdgeColoring coloring;
      colorer.color(g, ColoringAlgorithm::kAlternatingPath, coloring);
      EXPECT_EQ(coloring.num_colors, degree);
      EXPECT_TRUE(is_valid_edge_coloring(g, coloring));
    }
  }
}

POPS_TEST(ColorsParallelCopiesOfAMatching) {
  // d = 256 parallel copies of a perfect matching on 8 + 8 vertices:
  // the H of group rotation on POPS(256, 8). Every vertex sees all 256
  // colors, four mask words each, and a linear free-color scan would
  // be quadratic in d here.
  BipartiteMultigraph g(8, 8);
  for (int copy = 0; copy < 256; ++copy) {
    for (int v = 0; v < 8; ++v) g.add_edge(v, (v + 1) % 8);
  }
  EdgeColorer colorer;
  EdgeColoring coloring;
  colorer.color(g, ColoringAlgorithm::kAlternatingPath, coloring);
  EXPECT_EQ(coloring.num_colors, 256);
  EXPECT_TRUE(is_valid_edge_coloring(g, coloring));
}

POPS_TEST(HandlesDegenerateShapes) {
  EdgeColorer colorer;
  // Empty graph: zero colors.
  const BipartiteMultigraph empty(3, 4);
  EdgeColoring none;
  colorer.color(empty, ColoringAlgorithm::kAlternatingPath, none);
  EXPECT_EQ(none.num_colors, 0);
  EXPECT_TRUE(is_valid_edge_coloring(empty, none));

  // n = 1 with Delta parallel edges: every edge its own color.
  BipartiteMultigraph bundle(1, 1);
  for (int k = 0; k < 5; ++k) bundle.add_edge(0, 0);
  EdgeColoring rainbow;
  colorer.color(bundle, ColoringAlgorithm::kAlternatingPath, rainbow);
  EXPECT_EQ(rainbow.num_colors, 5);
  EXPECT_TRUE(is_valid_edge_coloring(bundle, rainbow));

  // Delta = 1 (a partial matching): one color.
  BipartiteMultigraph matching(4, 4);
  matching.add_edge(0, 2);
  matching.add_edge(3, 1);
  EdgeColoring mono;
  colorer.color(matching, ColoringAlgorithm::kAlternatingPath, mono);
  EXPECT_EQ(mono.num_colors, 1);
  EXPECT_TRUE(is_valid_edge_coloring(matching, mono));
}

POPS_TEST(ColorsIrregularGraphs) {
  // Irregular bipartite multigraphs still get exactly Delta colors.
  Rng rng(22);
  EdgeColorer colorer;
  for (int trial = 0; trial < 10; ++trial) {
    BipartiteMultigraph g(6, 9);
    const int edges = 5 + rng.next_below(30);
    for (int e = 0; e < edges; ++e) {
      g.add_edge(rng.next_below(6), rng.next_below(9));
    }
    EdgeColoring coloring;
    colorer.color(g, ColoringAlgorithm::kAlternatingPath, coloring);
    EXPECT_EQ(coloring.num_colors, g.max_degree());
    EXPECT_TRUE(is_valid_edge_coloring(g, coloring));
  }
}

POPS_TEST(HasFlatScratchAcrossSameShapedGraphs) {
  // The flatness contract: after one warm-up coloring, repeated
  // colorings of same-shaped graphs never grow any colorer-owned
  // scratch. The Delta = 100 shape needs two used-color mask words per
  // vertex.
  struct Shape {
    int n;
    int degree;
    int trials;
  };
  for (const Shape shape : {Shape{12, 6, 1000}, Shape{12, 100, 50}}) {
    Rng rng(31);
    EdgeColorer colorer;
    EdgeColoring out;
    {
      const BipartiteMultigraph warm_up =
          random_regular(shape.n, shape.degree, rng);
      colorer.color(warm_up, ColoringAlgorithm::kAlternatingPath, out);
    }
    const std::size_t warm = colorer.scratch_capacity();
    EXPECT_TRUE(warm > 0);
    for (int trial = 0; trial < shape.trials; ++trial) {
      const BipartiteMultigraph g =
          random_regular(shape.n, shape.degree, rng);
      colorer.color(g, ColoringAlgorithm::kAlternatingPath, out);
      EXPECT_EQ(colorer.scratch_capacity(), warm);
    }
    // The soak is about capacities; spot-check validity once at the
    // end so a silently-broken colorer cannot pass as "flat".
    const BipartiteMultigraph last =
        random_regular(shape.n, shape.degree, rng);
    colorer.color(last, ColoringAlgorithm::kAlternatingPath, out);
    EXPECT_TRUE(is_valid_edge_coloring(last, out));
    EXPECT_EQ(colorer.scratch_capacity(), warm);
  }
}

POPS_TEST(ValidationRejectsBrokenColorings) {
  BipartiteMultigraph g(2, 2);
  g.add_edge(0, 0);
  g.add_edge(0, 1);
  EdgeColoring ok{{0, 1}, 2};
  EXPECT_TRUE(is_valid_edge_coloring(g, ok));

  EdgeColoring clash{{0, 0}, 2};  // both edges at left 0 share a color
  EXPECT_FALSE(is_valid_edge_coloring(g, clash));

  BipartiteMultigraph right_shared(2, 2);
  right_shared.add_edge(0, 1);
  right_shared.add_edge(1, 1);
  EXPECT_TRUE(is_valid_edge_coloring(right_shared, EdgeColoring{{0, 1}, 2}));
  // Both edges at right 1 share a color.
  EXPECT_FALSE(
      is_valid_edge_coloring(right_shared, EdgeColoring{{1, 1}, 2}));

  BipartiteMultigraph parallel(2, 2);
  parallel.add_edge(1, 0);
  parallel.add_edge(1, 0);
  EXPECT_TRUE(is_valid_edge_coloring(parallel, EdgeColoring{{1, 0}, 2}));
  // Two parallel edges with the same color.
  EXPECT_FALSE(is_valid_edge_coloring(parallel, EdgeColoring{{0, 0}, 2}));

  EdgeColoring out_of_range{{0, 2}, 2};
  EXPECT_FALSE(is_valid_edge_coloring(g, out_of_range));

  EdgeColoring wrong_size{{0}, 2};
  EXPECT_FALSE(is_valid_edge_coloring(g, wrong_size));
}

POPS_TEST(SpreadColorsBalancesClassSizes) {
  Rng rng(23);
  EdgeColorer colorer;
  // d-regular on g+g vertices spread onto g classes of exactly d edges
  // each — the router's fair-distribution shape (d < g).
  for (const auto& [n, degree] : {std::pair{8, 3}, {16, 5}, {9, 9}}) {
    const BipartiteMultigraph g = random_regular(n, degree, rng);
    EdgeColoring spread;
    colorer.color(g, ColoringAlgorithm::kAlternatingPath, spread);
    colorer.spread(g, n, spread);
    EXPECT_EQ(spread.num_colors, n);
    EXPECT_TRUE(is_valid_edge_coloring(g, spread));
    std::vector<int> sizes(as_size(n), 0);
    for (const int c : spread.color) ++sizes[as_size(c)];
    for (const int size : sizes) {
      EXPECT_EQ(size, degree);
    }
  }
}

POPS_TEST(SpreadColorsHandlesMoreClassesThanEdges) {
  // num_classes larger than the edge count: balance means every class
  // holds at most one edge (some classes stay empty).
  BipartiteMultigraph g(3, 3);
  g.add_edge(0, 0);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  EdgeColorer colorer;
  EdgeColoring spread;
  colorer.color(g, ColoringAlgorithm::kAlternatingPath, spread);
  EXPECT_EQ(spread.num_colors, 2);
  colorer.spread(g, 7, spread);
  EXPECT_EQ(spread.num_colors, 7);
  EXPECT_TRUE(is_valid_edge_coloring(g, spread));
  std::vector<int> sizes(as_size(7), 0);
  for (const int c : spread.color) ++sizes[as_size(c)];
  for (const int size : sizes) {
    EXPECT_TRUE(size <= 1);
  }

  // Degenerate corner: more classes than edges on an empty graph.
  const BipartiteMultigraph empty(2, 2);
  EdgeColoring none;
  colorer.color(empty, ColoringAlgorithm::kAlternatingPath, none);
  colorer.spread(empty, 3, none);
  EXPECT_EQ(none.num_colors, 3);
  EXPECT_TRUE(none.color.empty());
}

POPS_TEST(SpreadColorsKeepsAlreadyBalancedColorings) {
  Rng rng(24);
  const BipartiteMultigraph g = random_regular(8, 8, rng);
  EdgeColorer colorer;
  EdgeColoring spread;
  colorer.color(g, ColoringAlgorithm::kAlternatingPath, spread);
  colorer.spread(g, 8, spread);
  EXPECT_TRUE(is_valid_edge_coloring(g, spread));
  std::vector<int> sizes(as_size(8), 0);
  for (const int c : spread.color) ++sizes[as_size(c)];
  for (const int size : sizes) {
    EXPECT_EQ(size, 8);
  }
}

}  // namespace
}  // namespace pops
