#include "graph/edge_coloring.h"

#include <algorithm>
#include <cstdint>

namespace pops {

std::string to_string(ColoringAlgorithm algorithm) {
  switch (algorithm) {
    case ColoringAlgorithm::kAlternatingPath:
      return "alternating-path";
    case ColoringAlgorithm::kEulerSplit:
      return "euler-split";
    case ColoringAlgorithm::kMatchingPeel:
      return "matching-peel";
    case ColoringAlgorithm::kCircuitPeel:
      return "circuit-peel";
  }
  POPS_CHECK(false, "unknown ColoringAlgorithm");
  return "";
}

void EdgeColorer::color(const BipartiteMultigraph& graph,
                        ColoringAlgorithm algorithm, EdgeColoring& out) {
  const int delta = graph.max_degree();
  if (delta == 0) {
    out.color.clear();
    out.num_colors = 0;
    return;
  }
  switch (algorithm) {
    case ColoringAlgorithm::kAlternatingPath:
      color_alternating(graph, delta, out);
      return;
    case ColoringAlgorithm::kEulerSplit:
      color_dnc(graph, delta, /*bottom_degree=*/1, out);
      return;
    case ColoringAlgorithm::kMatchingPeel:
      color_matching_peel(graph, delta, out);
      return;
    case ColoringAlgorithm::kCircuitPeel:
      color_dnc(graph, delta, /*bottom_degree=*/2, out);
      return;
  }
  POPS_CHECK(false, "unknown ColoringAlgorithm");
}

// ---------------------------------------------------------------------
// Divide-and-conquer backends on flat scratch.
//
// setup_regular pads the input to a delta-regular multigraph on
// max(L, R) + max(L, R) vertices inside dc_edges_ (original edge ids
// preserved, dummy edges get ids >= edge_count). From then on every
// step works on a range [lo, hi) of dc_work_, a permutation of padded
// edge ids: Euler splits partition a range in place, matching peels
// compact it, and an explicit DncRange stack replaces the recursion.
// ---------------------------------------------------------------------

int EdgeColorer::setup_regular(const BipartiteMultigraph& graph,
                               int delta) {
  const int n = std::max(graph.left_count(), graph.right_count());
  const int m = graph.edge_count();
  const int m_pad = delta * n;
  regular_n_ = n;
  dc_edges_.resize(as_size(m_pad));
  dc_deg_left_.assign(as_size(n), 0);
  dc_deg_right_.assign(as_size(n), 0);
  const Edge* src = graph.edges().data();
  Edge* edges = dc_edges_.data();
  int* deg_left = dc_deg_left_.data();
  int* deg_right = dc_deg_right_.data();
  for (int e = 0; e < m; ++e) {
    edges[e] = src[e];
    ++deg_left[src[e].left];
    ++deg_right[src[e].right];
  }
  int next_id = m;
  int right = 0;
  for (int left = 0; left < n; ++left) {
    while (deg_left[left] < delta) {
      while (right < n && deg_right[right] >= delta) ++right;
      POPS_CHECK(right < n,
                 "regularize: right side has no deficit left");
      edges[next_id++] = Edge{left, right};
      ++deg_left[left];
      ++deg_right[right];
    }
  }
  POPS_CHECK(next_id == m_pad, "regularize: padded edge count mismatch");
  dc_color_.assign(as_size(m_pad), -1);
  dc_work_.resize(as_size(m_pad));
  for (int e = 0; e < m_pad; ++e) dc_work_[as_size(e)] = e;
  dc_aux_.resize(as_size(m_pad));
  dc_side_.resize(as_size(m_pad));
  return m_pad;
}

void EdgeColorer::build_range_view(int lo, int hi) {
  dc_adj_.build_subset(
      Span<const int>(dc_work_.data() + lo, as_size(hi - lo)),
      Span<const Edge>(dc_edges_), regular_n_, regular_n_);
}

// Euler-splits the range's edges, writing dc_side_[edge id] for every
// edge in [lo, hi).
void EdgeColorer::split_range(int lo, int hi) {
  build_range_view(lo, hi);
  dc_euler_.split(dc_adj_, Span<const Edge>(dc_edges_),
                  Span<int>(dc_side_));
}

// Peels one perfect matching off the range (a regular bipartite
// multigraph always has one), colors the matched edges, compacts the
// rest to the front, and returns the new range end.
int EdgeColorer::peel_matching(int lo, int hi, int color_value) {
  build_range_view(lo, hi);
  const int size =
      dc_matching_.match(dc_adj_, Span<const Edge>(dc_edges_));
  POPS_CHECK(size == regular_n_,
             "regular multigraph without a perfect matching");
  const int* match_left = dc_matching_.left_edges().data();
  const Edge* edges = dc_edges_.data();
  int* color = dc_color_.data();
  int* work = dc_work_.data();
  int write = lo;
  for (int i = lo; i < hi; ++i) {
    const int e = work[i];
    if (match_left[edges[e].left] == e) {
      color[e] = color_value;
    } else {
      work[write++] = e;
    }
  }
  return write;
}

void EdgeColorer::color_dnc(const BipartiteMultigraph& graph, int delta,
                            int bottom_degree, EdgeColoring& out) {
  const int m_pad = setup_regular(graph, delta);
  dc_stack_.reserve(64);
  dc_stack_.clear();
  if (m_pad > 0) dc_stack_.push_back(DncRange{0, m_pad, delta, 0});
  int* color = dc_color_.data();
  int* work = dc_work_.data();
  const int* side = dc_side_.data();
  while (!dc_stack_.empty()) {
    const DncRange range = dc_stack_.back();
    dc_stack_.pop_back();
    if (range.lo >= range.hi) continue;
    if (range.delta == 1) {
      for (int i = range.lo; i < range.hi; ++i) {
        color[work[i]] = range.base;
      }
      continue;
    }
    if (range.delta == 2 && bottom_degree == 2) {
      // 2-regular components are even circuits; alternation along each
      // circuit is a proper 2-coloring.
      split_range(range.lo, range.hi);
      for (int i = range.lo; i < range.hi; ++i) {
        const int e = work[i];
        color[e] = range.base + side[e];
      }
      continue;
    }
    if (range.delta % 2 == 1) {
      // Peel one perfect matching, then continue on the even-degree
      // remainder.
      const int new_hi = peel_matching(range.lo, range.hi,
                                       range.base + range.delta - 1);
      dc_stack_.push_back(
          DncRange{range.lo, new_hi, range.delta - 1, range.base});
      continue;
    }
    // Even degree: Euler split into two exactly (delta/2)-regular
    // halves; stable-partition the work range by side (side 0 compacts
    // in place, side 1 spills through dc_aux_).
    split_range(range.lo, range.hi);
    int* aux = dc_aux_.data();
    int write = range.lo;
    int spill = 0;
    for (int i = range.lo; i < range.hi; ++i) {
      const int e = work[i];
      if (side[e] == 0) {
        work[write++] = e;
      } else {
        aux[spill++] = e;
      }
    }
    std::copy(aux, aux + spill, work + write);
    const int mid = write;
    POPS_CHECK(mid - range.lo == (range.hi - range.lo) / 2,
               "euler split: uneven halves of a regular range");
    dc_stack_.push_back(DncRange{mid, range.hi, range.delta / 2,
                                 range.base + range.delta / 2});
    dc_stack_.push_back(
        DncRange{range.lo, mid, range.delta / 2, range.base});
  }
  finish_dnc(graph, delta, out);
}

void EdgeColorer::color_matching_peel(const BipartiteMultigraph& graph,
                                      int delta, EdgeColoring& out) {
  int hi = setup_regular(graph, delta);
  for (int round = 0; round < delta; ++round) {
    hi = peel_matching(0, hi, round);
  }
  POPS_CHECK(hi == 0, "matching peel left uncolored edges");
  finish_dnc(graph, delta, out);
}

// Drops the dummy padding edges (their ids come after the real ones).
void EdgeColorer::finish_dnc(const BipartiteMultigraph& graph, int delta,
                             EdgeColoring& out) {
  out.color.assign(dc_color_.begin(),
                   dc_color_.begin() + graph.edge_count());
  out.num_colors = delta;
}

// ---------------------------------------------------------------------
// Alternating-path backend (constructive König proof) on reusable flat
// scratch, plus the fair-distribution rebalancer.
// ---------------------------------------------------------------------

void EdgeColorer::color_alternating(const BipartiteMultigraph& graph,
                                    int delta, EdgeColoring& out) {
  out.num_colors = delta;
  out.color.assign(as_size(graph.edge_count()), -1);
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
             "spread_colors: fewer classes than existing colors");
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
    POPS_CHECK(iteration <= limit, "spread_colors failed to converge");
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
    POPS_CHECK(flipped, "spread_colors: no augmenting path found");
  }
}

std::size_t EdgeColorer::scratch_capacity() const {
  return left_slot_.capacity() + right_slot_.capacity() +
         left_used_.capacity() + right_used_.capacity() +
         path_.capacity() + sizes_.capacity() + slot_a_.capacity() +
         slot_b_.capacity() + walked_.capacity() +
         spread_path_.capacity() + dc_edges_.capacity() +
         dc_color_.capacity() + dc_work_.capacity() +
         dc_aux_.capacity() + dc_side_.capacity() +
         dc_deg_left_.capacity() + dc_deg_right_.capacity() +
         dc_stack_.capacity() + dc_adj_.scratch_capacity() +
         dc_euler_.scratch_capacity() + dc_matching_.scratch_capacity();
}

EdgeColoring color_edges(const BipartiteMultigraph& graph,
                         ColoringAlgorithm algorithm) {
  EdgeColorer colorer;
  EdgeColoring out;
  colorer.color(graph, algorithm, out);
  return out;
}

EdgeColoring spread_colors(const BipartiteMultigraph& graph,
                           const EdgeColoring& coloring,
                           int num_classes) {
  EdgeColorer colorer;
  EdgeColoring result = coloring;
  colorer.spread(graph, num_classes, result);
  return result;
}

}  // namespace pops
