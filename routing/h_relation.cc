#include "routing/h_relation.h"

#include <algorithm>

namespace pops {

HRelationRouter::HRelationRouter(const Topology& topo)
    : engine_(topo),
      traffic_(topo.processor_count(), topo.processor_count()) {
  const int n = topo.processor_count();
  image_.assign(as_size(n), -1);
  request_of_source_.assign(as_size(n), -1);
  destination_used_.assign(as_size(n), 0);
  plan_.phase_offsets.assign(1, 0);
}

void HRelationRouter::reserve(int max_requests, int max_degree) {
  const int n = topology().processor_count();
  // The traffic graph never holds more edges than requests, nor more
  // than n per unit of degree; the coloring never needs a larger color
  // array.
  traffic_.reserve_edges(static_cast<int>(std::min<long long>(
      max_requests, static_cast<long long>(n) * max_degree)));
  coloring_.color.reserve(as_size(max_requests));
  phase_cursor_.reserve(as_size(max_degree));
  plan_.phase_offsets.reserve(as_size(max_degree + 1));
  plan_.phase_requests.reserve(as_size(max_requests));
  // h phases filter h Theorem 2 schedules of at most 2n transmissions.
  plan_.schedule.reserve(2 * n * max_degree,
                         max_degree * theorem2_slots(topology()));
}

const HRelationPlan& HRelationRouter::route(Span<const Request> requests) {
  const int n = topology().processor_count();
  const int request_count = requests.count();

  // The traffic multigraph: one edge per request, processor to
  // processor, so the edge id is the request id.
  traffic_.reset(n, n);
  for (const Request& request : requests) {
    POPS_CHECK(request.source >= 0 && request.source < n,
               "route_h_relation: request source out of range");
    POPS_CHECK(request.destination >= 0 && request.destination < n,
               "route_h_relation: request destination out of range");
    traffic_.add_edge(request.source, request.destination);
  }
  const int h = traffic_.max_degree();
  plan_.h = h;
  plan_.schedule.clear();
  plan_.phase_offsets.assign(as_size(h + 1), 0);
  plan_.phase_requests.resize(as_size(request_count));
  if (h == 0) return plan_;

  colorer_.color(traffic_, ColoringAlgorithm::kAlternatingPath,
                 coloring_);
  POPS_CHECK(coloring_.num_colors == h,
             "König: an h-relation must be h-edge-colorable");

  // Bucket the requests per phase (counting sort into CSR; stable, so
  // each phase lists its requests in increasing id order).
  std::vector<int>& offsets = plan_.phase_offsets;
  for (int e = 0; e < request_count; ++e) {
    ++offsets[as_size(coloring_.color[as_size(e)] + 1)];
  }
  for (int c = 0; c < h; ++c) {
    offsets[as_size(c + 1)] += offsets[as_size(c)];
  }
  phase_cursor_.assign(offsets.begin(), offsets.end() - 1);
  for (int e = 0; e < request_count; ++e) {
    const int c = coloring_.color[as_size(e)];
    plan_.phase_requests[as_size(phase_cursor_[as_size(c)]++)] = e;
  }

  for (int c = 0; c < h; ++c) {
    // By properness, the class is a partial permutation: each
    // processor sends at most one of its packets and receives at most
    // one.
    std::fill(image_.begin(), image_.end(), -1);
    std::fill(request_of_source_.begin(), request_of_source_.end(), -1);
    std::fill(destination_used_.begin(), destination_used_.end(), 0);
    for (int k = offsets[as_size(c)]; k < offsets[as_size(c + 1)]; ++k) {
      const int e = plan_.phase_requests[as_size(k)];
      const Request& request = requests[as_size(e)];
      image_[as_size(request.source)] = request.destination;
      request_of_source_[as_size(request.source)] = e;
      destination_used_[as_size(request.destination)] = 1;
    }

    // Pad to a full permutation (idle sources -> unused destinations,
    // in order) so the Theorem 2 router applies as-is.
    int next_free = 0;
    for (int p = 0; p < n; ++p) {
      if (image_[as_size(p)] != -1) continue;
      while (destination_used_[as_size(next_free)] != 0) ++next_free;
      image_[as_size(p)] = next_free;
      destination_used_[as_size(next_free)] = 1;
    }

    // Dropping the padding transmissions only relaxes the optical
    // constraints, so the filtered schedule stays valid. Each kept
    // transmission is renamed from the engine's packet id (the phase
    // source) to the request id the simulator tracks.
    const FlatSchedule& padded =
        engine_.route_permutation(Span<const int>(image_));
    for (int s = 0; s < padded.slot_count(); ++s) {
      plan_.schedule.begin_slot();
      for (const Transmission& t : padded.slot(s)) {
        const int e = request_of_source_[as_size(t.packet)];
        if (e == -1) continue;
        plan_.schedule.push(Transmission{t.source, t.destination, e});
      }
    }
  }
  return plan_;
}

ScratchFootprint HRelationRouter::scratch_footprint() const {
  ScratchFootprint footprint = engine_.scratch_footprint();
  footprint.units +=
      traffic_.scratch_capacity() + colorer_.scratch_capacity() +
      coloring_.color.capacity() + phase_cursor_.capacity() +
      image_.capacity() + request_of_source_.capacity() +
      destination_used_.capacity() +
      plan_.schedule.transmission_capacity() +
      plan_.schedule.offset_capacity() + plan_.phase_offsets.capacity() +
      plan_.phase_requests.capacity();
  return footprint;
}

HRelationPlan route_h_relation(const Topology& topo,
                               const std::vector<Request>& requests) {
  HRelationRouter router(topo);
  return router.route(requests);
}

}  // namespace pops
