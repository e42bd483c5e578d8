#include "graph/validation.h"

#include <vector>

namespace pops {

bool is_valid_edge_coloring(const BipartiteMultigraph& graph,
                            const EdgeColoring& coloring) {
  if (static_cast<int>(coloring.color.size()) != graph.edge_count()) {
    return false;
  }
  for (const int c : coloring.color) {
    if (c < 0 || c >= coloring.num_colors) return false;
  }
  // used[vertex * num_colors + c] marks color c as taken at a vertex;
  // right vertices follow the left ones.
  const std::size_t colors = as_size(coloring.num_colors);
  std::vector<char> used(
      as_size(graph.left_count() + graph.right_count()) * colors, 0);
  const auto take = [&](int vertex, int c) {
    char& slot = used[as_size(vertex) * colors + as_size(c)];
    if (slot != 0) return false;
    slot = 1;
    return true;
  };
  for (int e = 0; e < graph.edge_count(); ++e) {
    const Edge& edge = graph.edge(e);
    const int c = coloring.color[as_size(e)];
    if (!take(edge.left, c) || !take(graph.left_count() + edge.right, c)) {
      return false;
    }
  }
  return true;
}

}  // namespace pops
