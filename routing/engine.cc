#include "routing/engine.h"

#include <algorithm>

#include "support/alloc_guard.h"

#include <ostream>

namespace pops {

std::string to_string(const ScratchFootprint& footprint) {
  return str_cat(footprint.units, " units");
}

std::ostream& operator<<(std::ostream& os,
                         const ScratchFootprint& footprint) {
  return os << footprint.units << " units";
}

RoutingEngine::RoutingEngine(const Topology& topo)
    : topo_(topo),
      peels_(topo.d() > 1 && topo.d() >= kPeelRatio * topo.g()),
      h_(topo.g(), topo.g()) {
  const int n = topo_.processor_count();
  // Pre-size everything whose final size is known from (d, g) alone,
  // so even the first route call grows as little as possible and the
  // steady state cannot grow at all.
  intermediate_of_.reserve(as_size(n));
  source_by_color_.reserve(as_size(n));
  color_cursor_.reserve(as_size(topo_.d()));
  fair_.color.reserve(as_size(n));
  used_of_group_.reserve(as_size(topo_.g()));
  theorem2_schedule_.reserve(2 * n, theorem2_slots(topo_));
  // Direct schedules: n transmissions over at most d slots.
  direct_schedule_.reserve(n, topo_.d() + 1);
  coupler_count_.reserve(as_size(topo_.coupler_count()));
  coupler_offset_.reserve(as_size(topo_.coupler_count() + 1));
  coupler_queue_.reserve(as_size(n));
  coupler_of_source_.reserve(as_size(n));
  if (peels_) {
    const int g = topo_.g();
    peel_left_.reserve(as_size(g * g));
    match_of_row_.reserve(as_size(g));
    row_of_column_.reserve(as_size(g));
    column_seen_.reserve(as_size(g));
    kuhn_row_.reserve(as_size(g));
    kuhn_next_.reserve(as_size(g));
  }
  image_seen_stamp_.assign(as_size(n), 0);
}

const FlatSchedule& RoutingEngine::route(const Permutation& pi,
                                         const RouteOptions& options) {
  switch (options.strategy) {
    case RouteStrategy::kDirect: {
      const FlatSchedule& schedule = route_direct(pi);
      last_strategy_ = RouteStrategy::kDirect;
      if (options.verify) verify_or_abort(schedule, pi, "route: direct");
      return schedule;
    }
    case RouteStrategy::kTheorem2: {
      const FlatSchedule& schedule = route_permutation(pi);
      last_strategy_ = RouteStrategy::kTheorem2;
      if (options.verify) verify_or_abort(schedule, pi, "route: theorem2");
      return schedule;
    }
    case RouteStrategy::kBest: {
      // route_best executes the winner on the internal simulator
      // unconditionally (and records it in last_strategy_), so
      // options.verify adds nothing here.
      return route_best(pi);
    }
  }
  POPS_CHECK(false, "route: unknown RouteStrategy");
  return theorem2_schedule_;  // unreachable
}

void RoutingEngine::verify_or_abort(const FlatSchedule& schedule,
                                    const Permutation& pi,
                                    const char* what) {
  if (delivers(schedule, pi)) return;
  // Cold failure path: composing the diagnostic allocates, and the
  // abort must name the broken schedule, not trip the guard.
  ScopedAllocationAllow allow;
  POPS_CHECK(false, str_cat(what, " schedule failed verification: ",
                            verification_failure()));
}

const FlatSchedule& RoutingEngine::route_permutation(
    const Permutation& pi) {
  ScopedAllocationBan ban("RoutingEngine::route_permutation",
                          warm_theorem2_);
  // The Permutation constructor already validated bijectivity.
  route_theorem2(Span<const int>(pi.images()));
  return theorem2_schedule_;
}

const FlatSchedule& RoutingEngine::route_permutation(
    Span<const int> images) {
  ScopedAllocationBan ban("RoutingEngine::route_permutation",
                          warm_theorem2_);
  const int n = topo_.processor_count();
  POPS_CHECK(images.count() == n,
             "route_permutation: image array does not fit the topology");
  ++image_epoch_;
  for (int i = 0; i < n; ++i) {
    const int v = images[as_size(i)];
    POPS_CHECK(v >= 0 && v < n,
               "route_permutation: image out of range");
    POPS_CHECK(image_seen_stamp_[as_size(v)] != image_epoch_,
               "route_permutation: image array is not a permutation");
    image_seen_stamp_[as_size(v)] = image_epoch_;
  }
  route_theorem2(images);
  return theorem2_schedule_;
}

void RoutingEngine::route_theorem2(Span<const int> images) {
  if (peels_) {
    count_coupler_demand(images);
    bucket_by_coupler();
  }
  build_theorem2(images);
}

void RoutingEngine::build_theorem2(Span<const int> images) {
  const auto pi = [&images](int i) { return images[as_size(i)]; };
  POPS_CHECK(images.count() == topo_.processor_count(),
             "route_permutation: permutation does not fit the topology");
  const int d = topo_.d();
  const int g = topo_.g();
  const int n = topo_.processor_count();
  theorem2_schedule_.clear();
  intermediate_of_.assign(as_size(n), -1);

  if (d == 1) {
    // One slot: processor == group, so sources and destinations of the
    // n transmissions are pairwise distinct and every coupler carries
    // at most one packet.
    theorem2_schedule_.begin_slot();
    for (int source = 0; source < n; ++source) {
      theorem2_schedule_.push(Transmission{source, pi(source), source});
      intermediate_of_[as_size(source)] = source;
    }
    warm_theorem2_ = true;
    return;
  }

  if (peels_) {
    peel_coupler_matrix();
  } else {
    color_h(images);
  }

  // Fair distribution straight from the coloring: batch q takes colors
  // [q * g, (q + 1) * g), and the rank-r packet of color c goes to
  // intermediate group (c - q * g) * p + min(r / d, p - 1). Every group
  // is a subset of one color class, i.e. a matching, so its packets
  // come from distinct source groups and go to distinct destination
  // groups (Figure 3's two distinctness properties). With d >= g
  // (p = 1) each batch color is one group of g <= d packets; with
  // d < g and d | g the g groups hold exactly d packets each.
  const int p = std::max(1, g / d);
  fair_.color.resize(as_size(n));
  for (int c = 0; c < d; ++c) {
    const int base = (c % g) * p;
    for (int r = 0; r < g; ++r) {
      const int source = source_by_color_[as_size(c * g + r)];
      fair_.color[as_size(source)] = base + std::min(r / d, p - 1);
    }
  }
  if (d < g && g % d != 0) {
    // One batch (H_q = H), but the last chunk of every color holds
    // d + g mod d packets and g mod d groups are empty: a proper
    // g-coloring of H that spread() balances to exactly d per group,
    // moving only the d * (g mod d) surplus packets.
    fair_.num_colors = g;
    colorer_.spread(h_, g, fair_);
  }

  const int batches = (d + g - 1) / g;
  for (int q = 0; q < batches; ++q) {
    const int begin = q * g * g;
    const int end = std::min((q + 1) * g, d) * g;
    used_of_group_.assign(as_size(g), 0);
    theorem2_schedule_.begin_slot();  // distribute: slot 2q
    for (int k = begin; k < end; ++k) {
      const int source = source_by_color_[as_size(k)];
      const int mid_group = fair_.color[as_size(source)];
      const int mid_index = used_of_group_[as_size(mid_group)]++;
      POPS_CHECK(mid_index < d,
                 "fair distribution overfilled an intermediate group");
      const int mid = topo_.processor(mid_group, mid_index);
      intermediate_of_[as_size(source)] = mid;
      theorem2_schedule_.push(Transmission{source, mid, source});
    }
    theorem2_schedule_.begin_slot();  // deliver: slot 2q + 1
    for (int k = begin; k < end; ++k) {
      const int source = source_by_color_[as_size(k)];
      theorem2_schedule_.push(Transmission{
          intermediate_of_[as_size(source)], pi(source), source});
    }
  }

  POPS_CHECK(theorem2_schedule_.slot_count() == theorem2_slots(topo_),
             "Theorem 2 schedule has the wrong number of slots");
  warm_theorem2_ = true;
}

void RoutingEngine::color_h(Span<const int> images) {
  const auto pi = [&images](int i) { return images[as_size(i)]; };
  const int d = topo_.d();
  const int g = topo_.g();
  const int n = topo_.processor_count();
  // H: one edge per packet, source group -> destination group. Edge id
  // == source processor id because sources are added in order and each
  // holds exactly one packet.
  h_.reset(g, g);
  for (int source = 0; source < n; ++source) {
    h_.add_edge(topo_.group_of(source), topo_.group_of(pi(source)));
  }
  colorer_.color(h_, ColoringAlgorithm::kAlternatingPath, coloring_);
  POPS_CHECK(coloring_.num_colors == d,
             "Theorem 2: H must be d-edge-colorable");

  // Bucket the sources by H-color (stable counting sort). H is
  // d-regular on g + g vertices, so every color class is a perfect
  // matching: color c owns exactly the g slots [c * g, (c + 1) * g) of
  // source_by_color_, and a source's offset in its bucket is its rank.
  color_cursor_.resize(as_size(d));
  for (int c = 0; c < d; ++c) color_cursor_[as_size(c)] = c * g;
  source_by_color_.resize(as_size(n));
  for (int source = 0; source < n; ++source) {
    const int c = coloring_.color[as_size(source)];
    const int slot = color_cursor_[as_size(c)]++;
    POPS_CHECK(slot < (c + 1) * g,
               "Theorem 2: an H color class is not a perfect matching");
    source_by_color_[as_size(slot)] = source;
  }
}

void RoutingEngine::peel_coupler_matrix() {
  const int d = topo_.d();
  const int g = topo_.g();
  // peel_left_ is the multiplicity matrix M of H, row-major: cell
  // (i, j) counts the still uncolored packets from source group i to
  // destination group j, i.e. the unconsumed tail of coupler
  // c(j, i)'s bucket. Every row and column of M sums to d.
  peel_left_.resize(as_size(g * g));
  for (int i = 0; i < g; ++i) {
    for (int j = 0; j < g; ++j) {
      peel_left_[as_size(i * g + j)] =
          coupler_count_[as_size(topo_.coupler(j, i))];
    }
  }
  match_of_row_.assign(as_size(g), -1);
  row_of_column_.assign(as_size(g), -1);
  column_seen_.resize(as_size(g));
  kuhn_row_.resize(as_size(g));
  kuhn_next_.resize(as_size(g));
  source_by_color_.resize(as_size(topo_.processor_count()));

  // Birkhoff-von Neumann peel. The uncolored rest of M stays regular
  // (every row and column sums to the number of colors left), so its
  // support always holds a perfect matching (König/Hall). With w its
  // smallest cell, the matching is w consecutive color classes: color
  // c takes from row i the next packet of cell (i, match_of_row_[i]).
  // Subtracting w empties at least one cell, so there are at most
  // min(d, g * g - 2 * g + 2) peels, and only the rows whose cell
  // emptied need a new partner.
  int color = 0;
  while (true) {
    for (int i = 0; i < g; ++i) {
      if (match_of_row_[as_size(i)] >= 0) continue;
      POPS_CHECK(match_row(i),
                 "Theorem 2: the coupler-demand matrix has no perfect "
                 "matching");
    }
    int w = d - color;
    for (int i = 0; i < g; ++i) {
      w = std::min(w, peel_left_[as_size(i * g + match_of_row_[as_size(i)])]);
    }
    for (int i = 0; i < g; ++i) {
      const int j = match_of_row_[as_size(i)];
      int& left = peel_left_[as_size(i * g + j)];
      // The cell's uncolored packets are the last `left` of its bucket;
      // take them in source order.
      const int end = coupler_offset_[as_size(topo_.coupler(j, i) + 1)];
      for (int c = color; c < color + w; ++c) {
        source_by_color_[as_size(c * g + i)] =
            coupler_queue_[as_size(end - left--)];
      }
      if (left == 0) {
        match_of_row_[as_size(i)] = -1;
        row_of_column_[as_size(j)] = -1;
      }
    }
    color += w;
    if (color == d) break;
  }
}

int RoutingEngine::free_column_of(int row) const {
  const int g = topo_.g();
  for (int j = 0; j < g; ++j) {
    if (peel_left_[as_size(row * g + j)] > 0 &&
        row_of_column_[as_size(j)] < 0) {
      return j;
    }
  }
  return -1;
}

bool RoutingEngine::match_row(int root) {
  const int g = topo_.g();
  // Iterative Kuhn search for an augmenting path from the unmatched
  // row `root` over the nonzero cells of peel_left_. kuhn_row_[k] is
  // the row at depth k (each deeper row owns the column its parent
  // just tried); kuhn_next_[k] is that row's next column to try. Each
  // row first looks for a free column among its own cells, so a repair
  // after one emptied cell is usually a single swap, not a deep
  // descent.
  std::fill(column_seen_.begin(), column_seen_.end(), 0);
  int depth = 0;
  kuhn_row_[0] = root;
  kuhn_next_[0] = 0;
  int free_column = free_column_of(root);
  while (free_column < 0) {
    const int row = kuhn_row_[as_size(depth)];
    int j = kuhn_next_[as_size(depth)];
    while (j < g && (peel_left_[as_size(row * g + j)] == 0 ||
                     column_seen_[as_size(j)] != 0)) {
      ++j;
    }
    if (j == g) {
      if (--depth < 0) return false;
      continue;
    }
    kuhn_next_[as_size(depth)] = j + 1;
    column_seen_[as_size(j)] = 1;
    // Matched: the look-ahead of this row would have taken j if free.
    const int owner = row_of_column_[as_size(j)];
    ++depth;
    kuhn_row_[as_size(depth)] = owner;
    kuhn_next_[as_size(depth)] = 0;
    free_column = free_column_of(owner);
  }
  // Augment: the top row takes the free column, and every row below it
  // takes the column that led to the row above it, handing its old
  // column down to its parent.
  int column = free_column;
  for (int k = depth; k >= 0; --k) {
    const int r = kuhn_row_[as_size(k)];
    const int previous = match_of_row_[as_size(r)];
    match_of_row_[as_size(r)] = column;
    row_of_column_[as_size(column)] = r;
    column = previous;
  }
  return true;
}

const FlatSchedule& RoutingEngine::route_direct(const Permutation& pi) {
  ScopedAllocationBan ban("RoutingEngine::route_direct", warm_direct_);
  const Span<const int> images(pi.images());
  direct_max_demand_ = count_coupler_demand(images);
  bucket_by_coupler();
  build_direct(images);
  return direct_schedule_;
}

int RoutingEngine::count_coupler_demand(Span<const int> images) {
  POPS_CHECK(images.count() == topo_.processor_count(),
             "count_coupler_demand: permutation does not fit the topology");
  const int d = topo_.d();
  const int g = topo_.g();
  coupler_count_.assign(as_size(topo_.coupler_count()), 0);
  coupler_of_source_.resize(as_size(topo_.processor_count()));
  int max_demand = 0;
  for (int source_group = 0; source_group < g; ++source_group) {
    for (int source = source_group * d; source < (source_group + 1) * d;
         ++source) {
      const int coupler = topo_.coupler(
          topo_.group_of(images[as_size(source)]), source_group);
      coupler_of_source_[as_size(source)] = coupler;
      max_demand =
          std::max(max_demand, ++coupler_count_[as_size(coupler)]);
    }
  }
  return max_demand;
}

void RoutingEngine::bucket_by_coupler() {
  const int n = topo_.processor_count();
  const int couplers = topo_.coupler_count();
  // Counting sort of the sources by coupler (CSR). coupler_offset_[c +
  // 1] starts at the first position of bucket c and is bumped per
  // packet placed, so after the fill it is the end of bucket c: the
  // offsets double as the fill cursors. Sources are placed in order,
  // so each bucket lists its packets by source id.
  coupler_offset_.assign(as_size(couplers + 1), 0);
  for (int c = 1; c < couplers; ++c) {
    coupler_offset_[as_size(c + 1)] =
        coupler_offset_[as_size(c)] + coupler_count_[as_size(c - 1)];
  }
  coupler_queue_.resize(as_size(n));
  for (int source = 0; source < n; ++source) {
    const int coupler = coupler_of_source_[as_size(source)];
    coupler_queue_[as_size(coupler_offset_[as_size(coupler + 1)]++)] =
        source;
  }
}

void RoutingEngine::build_direct(Span<const int> images) {
  const int couplers = topo_.coupler_count();
  // Slot t drains the t-th packet of every non-empty bucket. Distinct
  // couplers per slot by construction; distinct transmitters and
  // receivers because pi is a permutation and each source appears in
  // exactly one bucket position.
  direct_schedule_.clear();
  for (int slot = 0; slot < direct_max_demand_; ++slot) {
    direct_schedule_.begin_slot();
    for (int c = 0; c < couplers; ++c) {
      const int begin = coupler_offset_[as_size(c)];
      const int end = coupler_offset_[as_size(c + 1)];
      if (end - begin <= slot) continue;
      const int source = coupler_queue_[as_size(begin + slot)];
      direct_schedule_.push(
          Transmission{source, images[as_size(source)], source});
    }
  }
  warm_direct_ = true;
}

const FlatSchedule& RoutingEngine::route_best(const Permutation& pi) {
  const bool warm = warm_direct_ && warm_theorem2_ && warm_verify_;
  ScopedAllocationBan ban("RoutingEngine::route_best", warm);
  // Both lengths are known before either schedule exists: direct
  // drains the fullest coupler one packet per slot, and Theorem 2 is
  // shape-static. Direct wins ties: same length, one hop per packet
  // and no relay buffering.
  const Span<const int> images(pi.images());
  direct_max_demand_ = count_coupler_demand(images);
  const bool direct_wins = direct_max_demand_ <= theorem2_slots(topo_);
  // A cold engine builds both candidates, so this one call sizes every
  // arena and later calls may take either branch under the armed ban.
  // Only the winner is verified: the simulator is sized at
  // construction, so executing the loser would size nothing. Both
  // direct and the Theorem 2 peel read the same coupler buckets, so
  // one counting pass and one bucketing serve either winner.
  const bool build_direct_now = direct_wins || !warm;
  const bool build_theorem2_now = !direct_wins || !warm;
  if (build_direct_now || (build_theorem2_now && peels_)) {
    bucket_by_coupler();
  }
  if (build_direct_now) build_direct(images);
  if (build_theorem2_now) build_theorem2(images);
  if (direct_wins) {
    verify_or_abort(direct_schedule_, pi, "route_best: direct candidate");
    last_strategy_ = RouteStrategy::kDirect;
    return direct_schedule_;
  }
  verify_or_abort(theorem2_schedule_, pi, "route_best: Theorem 2 candidate");
  last_strategy_ = RouteStrategy::kTheorem2;
  return theorem2_schedule_;
}

bool RoutingEngine::delivers(const FlatSchedule& schedule,
                             const Permutation& pi) {
  if (!net_.has_value()) {
    // Constructing the simulator is the one allocating step of the
    // portfolio path; it happens exactly once, on the (unbanned)
    // warm-up call.
    ScopedAllocationAllow allow;
    net_.emplace(topo_);
  }
  net_->reset();
  net_->load_permutation_traffic(pi);
  const bool delivered = net_->execute(schedule) && net_->all_delivered();
  warm_verify_ = true;
  net_->ban_steady_allocations(true);
  return delivered;
}

std::string RoutingEngine::verification_failure() const {
  if (!net_.has_value()) return "verification never ran";
  return net_->failure().empty()
             ? "schedule executed but left packets undelivered"
             : net_->failure();
}

ScratchFootprint RoutingEngine::scratch_footprint() const {
  ScratchFootprint footprint;
  footprint.units =
      h_.scratch_capacity() + colorer_.scratch_capacity() +
      coloring_.color.capacity() + fair_.color.capacity() +
      source_by_color_.capacity() + color_cursor_.capacity() +
      used_of_group_.capacity() + intermediate_of_.capacity() +
      theorem2_schedule_.transmission_capacity() +
      theorem2_schedule_.offset_capacity() +
      coupler_count_.capacity() + coupler_offset_.capacity() +
      coupler_queue_.capacity() + coupler_of_source_.capacity() +
      peel_left_.capacity() + match_of_row_.capacity() +
      row_of_column_.capacity() + column_seen_.capacity() +
      kuhn_row_.capacity() + kuhn_next_.capacity() +
      image_seen_stamp_.capacity() +
      direct_schedule_.transmission_capacity() +
      direct_schedule_.offset_capacity() +
      (net_.has_value() ? net_->scratch_capacity() : 0);
  return footprint;
}

}  // namespace pops
