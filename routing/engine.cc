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
    : topo_(topo), h_(topo.g(), topo.g()) {
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
  build_theorem2(Span<const int>(pi.images()));
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
  build_theorem2(images);
  return theorem2_schedule_;
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

const FlatSchedule& RoutingEngine::route_direct(const Permutation& pi) {
  ScopedAllocationBan ban("RoutingEngine::route_direct", warm_direct_);
  count_coupler_demand(pi);
  build_direct(pi);
  return direct_schedule_;
}

void RoutingEngine::count_coupler_demand(const Permutation& pi) {
  POPS_CHECK(pi.size() == topo_.processor_count(),
             "route_direct: permutation does not fit the topology");
  const int n = topo_.processor_count();
  coupler_count_.assign(as_size(topo_.coupler_count()), 0);
  direct_max_demand_ = 0;
  for (int source = 0; source < n; ++source) {
    const int coupler = topo_.coupler(topo_.group_of(pi(source)),
                                      topo_.group_of(source));
    direct_max_demand_ =
        std::max(direct_max_demand_, ++coupler_count_[as_size(coupler)]);
  }
}

void RoutingEngine::build_direct(const Permutation& pi) {
  const int n = topo_.processor_count();
  const int couplers = topo_.coupler_count();

  // Bucket the packets per coupler (CSR) from the counts. Sources are
  // enumerated in order, so each bucket lists its packets by source id.
  coupler_offset_.assign(as_size(couplers + 1), 0);
  for (int c = 0; c < couplers; ++c) {
    coupler_offset_[as_size(c + 1)] =
        coupler_offset_[as_size(c)] + coupler_count_[as_size(c)];
  }
  coupler_queue_.resize(as_size(n));
  // Reuse coupler_count_ as the per-coupler fill cursor.
  for (int c = 0; c < couplers; ++c) {
    coupler_count_[as_size(c)] = coupler_offset_[as_size(c)];
  }
  for (int source = 0; source < n; ++source) {
    const int coupler = topo_.coupler(topo_.group_of(pi(source)),
                                      topo_.group_of(source));
    coupler_queue_[as_size(coupler_count_[as_size(coupler)]++)] = source;
  }

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
      direct_schedule_.push(Transmission{source, pi(source), source});
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
  count_coupler_demand(pi);
  const bool direct_wins = direct_max_demand_ <= theorem2_slots(topo_);
  // A cold engine builds both candidates, so this one call sizes every
  // arena and later calls may take either branch under the armed ban.
  // Only the winner is verified: the simulator is sized at
  // construction, so executing the loser would size nothing.
  if (direct_wins || !warm) build_direct(pi);
  if (!direct_wins || !warm) build_theorem2(Span<const int>(pi.images()));
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
      coupler_queue_.capacity() + image_seen_stamp_.capacity() +
      direct_schedule_.transmission_capacity() +
      direct_schedule_.offset_capacity() +
      (net_.has_value() ? net_->scratch_capacity() : 0);
  return footprint;
}

}  // namespace pops
