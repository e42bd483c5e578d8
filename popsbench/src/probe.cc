#include "probe.h"

#include <algorithm>

#include "routing/bounds.h"
#include "routing/verify.h"

namespace popsbench {

LayerProbe::LayerProbe(const pops::Topology& topo, Tracer& tracer)
    : topo_(topo),
      tracer_(tracer),
      engine_(topo),
      h_(topo.g(), topo.g()),
      h_q_(topo.g(), topo.g()),
      window_(topo.processor_count(), topo.processor_count()),
      net_(topo),
      image_(static_cast<std::size_t>(topo.processor_count())),
      destination_used_(static_cast<std::size_t>(topo.processor_count())) {}

void LayerProbe::reset_counts() {
  theorem2_wins_ = 0;
  lower_bound_sum_ = 0;
  slot_ratio_sum_ = 0;
  ratio_count_ = 0;
  transmissions_sum_ = 0;
  relation_degree_sum_ = 0;
}

bool LayerProbe::route_perm(const pops::Permutation& pi,
                            pops::RouteStrategy strategy, int parent,
                            long long op) {
  const ScopedSpan perm(tracer_, "perm", parent, op);
  const int d = topo_.d();
  const int g = topo_.g();
  const int n = topo_.processor_count();
  const pops::ColoringAlgorithm algorithm = engine_.options().coloring;
  {
    const ScopedSpan span(tracer_, "graph.build_h", perm.id(), op);
    h_.reset(g, g);
    for (int source = 0; source < n; ++source) {
      h_.add_edge(topo_.group_of(source), topo_.group_of(pi(source)));
    }
  }
  {
    const ScopedSpan span(tracer_, "graph.color_h", perm.id(), op);
    colorer_.color(h_, algorithm, coloring_);
  }
  for (int color_lo = 0; color_lo < d; color_lo += g) {
    const int color_hi = std::min(color_lo + g, d);
    {
      const ScopedSpan span(tracer_, "graph.color_hq", perm.id(), op);
      h_q_.reset(g, g);
      for (int source = 0; source < n; ++source) {
        const int c = coloring_.color[static_cast<std::size_t>(source)];
        if (c < color_lo || c >= color_hi) continue;
        h_q_.add_edge(topo_.group_of(source), topo_.group_of(pi(source)));
      }
      colorer_.color(h_q_, algorithm, fair_);
    }
    const ScopedSpan span(tracer_, "graph.spread", perm.id(), op);
    colorer_.spread(h_q_, g, fair_);
  }

  const pops::FlatSchedule* theorem2 = nullptr;
  {
    const ScopedSpan span(tracer_, "routing.theorem2", perm.id(), op);
    theorem2 = &engine_.route_permutation(pi);
  }
  const pops::FlatSchedule* direct = nullptr;
  {
    const ScopedSpan span(tracer_, "routing.direct", perm.id(), op);
    direct = &engine_.route_direct(pi);
  }

  // The workload verifies Theorem 2 schedules, and under kBest the
  // direct candidate too (the portfolio executes both).
  const bool best = strategy == pops::RouteStrategy::kBest;
  bool delivered = true;
  {
    const ScopedSpan span(tracer_, "pops.execute", perm.id(), op);
    net_.reset();
    net_.load_permutation_traffic(pi);
    delivered = net_.execute(*theorem2) && net_.all_delivered();
    if (best) {
      net_.reset();
      net_.load_permutation_traffic(pi);
      delivered = delivered && net_.execute(*direct) && net_.all_delivered();
    }
  }

  // Direct wins ties, as in RoutingEngine::route_best.
  const bool theorem2_chosen =
      !best || theorem2->slot_count() < direct->slot_count();
  const pops::FlatSchedule& chosen = theorem2_chosen ? *theorem2 : *direct;
  const int lower_bound = pops::lower_bound_slots(topo_, pi);
  theorem2_wins_ += theorem2_chosen;
  lower_bound_sum_ += lower_bound;
  transmissions_sum_ += chosen.transmission_count();
  if (lower_bound > 0) {
    slot_ratio_sum_ +=
        static_cast<double>(chosen.slot_count()) / lower_bound;
    ++ratio_count_;
  }
  return delivered && chosen.slot_count() >= lower_bound;
}

bool LayerProbe::route_relation(const std::vector<pops::Request>& requests,
                                const pops::HRelationPlan* served,
                                bool route_phases, int parent,
                                long long op) {
  const ScopedSpan relation(tracer_, "relation", parent, op);
  const int n = topo_.processor_count();
  {
    const ScopedSpan span(tracer_, "graph.color_window", relation.id(), op);
    window_.reset(n, n);
    for (const pops::Request& request : requests) {
      window_.add_edge(request.source, request.destination);
    }
    colorer_.color(window_, engine_.options().coloring, window_coloring_);
  }
  const int h = window_coloring_.num_colors;
  relation_degree_sum_ += h;

  bool ok = true;
  if (route_phases) {
    // Each color class is a partial permutation; pad idle sources onto
    // unused destinations in order, as the TrafficServer does.
    for (int c = 0; c < h; ++c) {
      std::fill(image_.begin(), image_.end(), -1);
      std::fill(destination_used_.begin(), destination_used_.end(), 0);
      for (std::size_t e = 0; e < requests.size(); ++e) {
        if (window_coloring_.color[e] != c) continue;
        image_[static_cast<std::size_t>(requests[e].source)] =
            requests[e].destination;
        destination_used_[static_cast<std::size_t>(requests[e].destination)] =
            1;
      }
      std::size_t next_free = 0;
      for (int& image : image_) {
        if (image != -1) continue;
        while (destination_used_[next_free] != 0) ++next_free;
        image = static_cast<int>(next_free);
        destination_used_[next_free] = 1;
      }
      pops::Permutation phase(image_);
      ok = route_perm(phase, pops::RouteStrategy::kTheorem2, relation.id(),
                      op) &&
           ok;
      if (phase_perms_.size() < kKeptPhases) {
        phase_perms_.push_back(std::move(phase));
      }
    }
  }

  pops::HRelationPlan plan;
  {
    const ScopedSpan span(tracer_, "routing.h_relation", relation.id(), op);
    plan = pops::route_h_relation(topo_, requests);
  }
  std::string failure;
  {
    const ScopedSpan span(tracer_, "pops.verify_h_relation", relation.id(),
                          op);
    failure = pops::verify_h_relation(topo_, requests,
                                      served != nullptr ? *served : plan);
  }
  return ok && failure.empty() && plan.h == h;
}

}  // namespace popsbench
