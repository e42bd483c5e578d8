#include "graph/edge_coloring.h"

#include <algorithm>
#include <cstdint>

namespace pops {

void EdgeColorer::color(const BipartiteMultigraph& graph,
                        ColoringAlgorithm, EdgeColoring& out) {
  const int delta = graph.max_degree();
  out.num_colors = delta;
  out.color.assign(as_size(graph.edge_count()), -1);
  if (delta == 0) return;
  left_slot_.assign(as_size(graph.left_count()) * as_size(delta), -1);
  right_slot_.assign(as_size(graph.right_count()) * as_size(delta), -1);
  mask_words_ = (delta + 63) / 64;
  left_used_.assign(as_size(graph.left_count()) * as_size(mask_words_), 0);
  right_used_.assign(as_size(graph.right_count()) * as_size(mask_words_),
                     0);
  // An alternating path visits each vertex at most once.
  path_.reserve(as_size(graph.left_count() + graph.right_count()));
  for (int e = 0; e < graph.edge_count(); ++e) {
    insert_edge(graph, delta, e, out);
  }
}

namespace {

// Lowest color whose bit is clear in the vertex's used-color mask.
// Bits at and past delta are never set, so a result >= delta means
// every color is taken.
inline int free_color_in(const std::vector<std::uint64_t>& used,
                         int vertex, int words, int delta) {
  const std::uint64_t* mask =
      used.data() + as_size(vertex) * as_size(words);
  int c = delta;
  for (int w = 0; w < words; ++w) {
    const std::uint64_t free = ~mask[w];
    if (free != 0) {
      c = w * 64 + __builtin_ctzll(free);
      break;
    }
  }
  POPS_CHECK(c < delta, "no free color at a vertex with degree < Delta");
  return c;
}

// Flips color c's bit in the vertex's used-color mask.
inline void toggle_color_bit(std::vector<std::uint64_t>& used, int vertex,
                             int words, int c) {
  used[as_size(vertex * words + c / 64)] ^= std::uint64_t{1} << (c % 64);
}

}  // namespace

void EdgeColorer::insert_edge(const BipartiteMultigraph& graph,
                              int delta, int e, EdgeColoring& out) {
  const int u = graph.edge(e).left;
  const int v = graph.edge(e).right;
  const int alpha = free_color_in(left_used_, u, mask_words_, delta);
  const int beta = free_color_in(right_used_, v, mask_words_, delta);
  if (alpha != beta &&
      right_slot_[as_size(v) * as_size(delta) + as_size(alpha)] >= 0) {
    flip_path(graph, delta, v, alpha, beta, out);
  }
  // alpha is now free at both endpoints: at u it always was, and at v
  // either it already was or the flipped path freed it (the path
  // cannot reach u — it would have to arrive there on an alpha edge,
  // which u does not have, and parity rules out arriving on beta).
  assign_color(delta, e, u, v, alpha, out);
}

// Flips the maximal alpha/beta alternating path that starts at right
// vertex v with its alpha edge.
void EdgeColorer::flip_path(const BipartiteMultigraph& graph, int delta,
                            int v, int alpha, int beta,
                            EdgeColoring& out) {
  path_.clear();
  bool on_right = true;
  int vertex = v;
  int want = alpha;
  while (true) {
    const auto& slots = on_right ? right_slot_ : left_slot_;
    const int e = slots[as_size(vertex) * as_size(delta) + as_size(want)];
    if (e < 0) break;
    path_.push_back(e);
    vertex = on_right ? graph.edge(e).left : graph.edge(e).right;
    on_right = !on_right;
    want = want == alpha ? beta : alpha;
  }
  for (const int e : path_) {
    const int c = out.color[as_size(e)];
    left_slot_[as_size(graph.edge(e).left) * as_size(delta) +
               as_size(c)] = -1;
    right_slot_[as_size(graph.edge(e).right) * as_size(delta) +
                as_size(c)] = -1;
  }
  for (const int e : path_) {
    const int c = out.color[as_size(e)] == alpha ? beta : alpha;
    set_slots(delta, e, graph.edge(e).left, graph.edge(e).right, c, out);
  }
  // Every interior vertex of the path keeps one alpha and one beta
  // edge, so only the two ends change their used colors: v and the
  // far end (vertex, on the side on_right names) each swap one of
  // alpha/beta for the other.
  auto& far_used = on_right ? right_used_ : left_used_;
  for (const int c : {alpha, beta}) {
    toggle_color_bit(right_used_, v, mask_words_, c);
    toggle_color_bit(far_used, vertex, mask_words_, c);
  }
}

void EdgeColorer::assign_color(int delta, int e, int u, int v, int c,
                               EdgeColoring& out) {
  set_slots(delta, e, u, v, c, out);
  toggle_color_bit(left_used_, u, mask_words_, c);
  toggle_color_bit(right_used_, v, mask_words_, c);
}

void EdgeColorer::set_slots(int delta, int e, int u, int v, int c,
                            EdgeColoring& out) {
  const std::size_t left_index = as_size(u) * as_size(delta) + as_size(c);
  const std::size_t right_index =
      as_size(v) * as_size(delta) + as_size(c);
  POPS_CHECK(left_slot_[left_index] < 0 && right_slot_[right_index] < 0,
             "alternating-path: color slot already taken");
  out.color[as_size(e)] = c;
  left_slot_[left_index] = e;
  right_slot_[right_index] = e;
}

void EdgeColorer::spread(const BipartiteMultigraph& graph,
                         int num_classes, EdgeColoring& coloring) {
  POPS_CHECK(num_classes >= std::max(1, coloring.num_colors),
             "EdgeColorer::spread: fewer classes than existing colors");
  coloring.num_colors = num_classes;
  const int edge_count = graph.edge_count();
  sizes_.assign(as_size(num_classes), 0);
  for (const int c : coloring.color) ++sizes_[as_size(c)];

  const int vertex_count = graph.left_count() + graph.right_count();
  slot_a_.resize(as_size(vertex_count));
  slot_b_.resize(as_size(vertex_count));
  spread_path_.reserve(as_size(edge_count));

  // Each pass moves one edge from a largest class to a smallest class
  // by flipping an alternating path, so the spread shrinks steadily;
  // the iteration bound is a safety net, not a tuning knob.
  const long long limit =
      2LL * static_cast<long long>(edge_count) * num_classes + 16;
  for (long long iteration = 0;; ++iteration) {
    POPS_CHECK(iteration <= limit, "EdgeColorer::spread failed to converge");
    const int a = static_cast<int>(
        std::max_element(sizes_.begin(), sizes_.end()) - sizes_.begin());
    const int b = static_cast<int>(
        std::min_element(sizes_.begin(), sizes_.end()) - sizes_.begin());
    if (sizes_[as_size(a)] - sizes_[as_size(b)] <= 1) break;

    // Build the a/b two-colored subgraph: at most one edge of each
    // class per vertex, so components are paths and even cycles.
    std::fill(slot_a_.begin(), slot_a_.end(), -1);
    std::fill(slot_b_.begin(), slot_b_.end(), -1);
    for (int e = 0; e < edge_count; ++e) {
      const int c = coloring.color[as_size(e)];
      if (c != a && c != b) continue;
      const int u = graph.edge(e).left;
      const int v = graph.left_count() + graph.edge(e).right;
      auto& slots = c == a ? slot_a_ : slot_b_;
      slots[as_size(u)] = e;
      slots[as_size(v)] = e;
    }

    // Cycles carry equally many a- and b-edges, so some PATH has one
    // more a-edge than b-edges. The a/b components are vertex-disjoint,
    // so we can flip several such paths in one scan — up to gap/2 of
    // them, which leaves the pair balanced instead of paying a full
    // subgraph rebuild per single edge moved.
    int flips_left = (sizes_[as_size(a)] - sizes_[as_size(b)]) / 2;
    bool flipped = false;
    walked_.assign(as_size(edge_count), 0);
    for (int start = 0; start < vertex_count && flips_left > 0;
         ++start) {
      const bool has_a = slot_a_[as_size(start)] >= 0;
      const bool has_b = slot_b_[as_size(start)] >= 0;
      if (has_a == has_b) continue;  // not a path endpoint
      if (!has_a) continue;  // paths with extra a-edges start on a
      if (walked_[as_size(slot_a_[as_size(start)])] != 0) continue;
      int vertex = start;
      int want_a = 1;
      spread_path_.clear();
      while (true) {
        const auto& slots = want_a ? slot_a_ : slot_b_;
        const int e = slots[as_size(vertex)];
        if (e < 0) break;
        if (!spread_path_.empty() && e == spread_path_.back()) break;
        spread_path_.push_back(e);
        walked_[as_size(e)] = 1;
        const int u = graph.edge(e).left;
        const int v = graph.left_count() + graph.edge(e).right;
        vertex = vertex == u ? v : u;
        want_a = 1 - want_a;
      }
      if (spread_path_.size() % 2 == 0) continue;  // balanced path
      for (const int e : spread_path_) {
        coloring.color[as_size(e)] =
            coloring.color[as_size(e)] == a ? b : a;
      }
      sizes_[as_size(a)] -= 1;
      sizes_[as_size(b)] += 1;
      --flips_left;
      flipped = true;
    }
    POPS_CHECK(flipped, "EdgeColorer::spread: no augmenting path found");
  }
}

std::size_t EdgeColorer::scratch_capacity() const {
  return left_slot_.capacity() + right_slot_.capacity() +
         left_used_.capacity() + right_used_.capacity() +
         path_.capacity() + sizes_.capacity() + slot_a_.capacity() +
         slot_b_.capacity() + walked_.capacity() +
         spread_path_.capacity();
}

}  // namespace pops
