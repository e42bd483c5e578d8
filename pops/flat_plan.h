// Schedule representations for the POPS(d, g) slot model.
//
// FlatSchedule is the one schedule layout: the RoutingEngine and the
// HRelationRouter emit it, and the simulator, verifier and benches
// consume it. It is one contiguous Transmission array plus CSR-style
// slot offsets; rebuilding a schedule in place (clear + begin_slot +
// push) reuses the arrays, so bulk routing performs no steady-state
// heap allocation. SlotPlan holds a single hand-built slot (one-to-all
// broadcasts, hand-written test slots) for Network::execute_slot.
#pragma once

#include <vector>

#include "support/check.h"
#include "support/span.h"

namespace pops {

/// One optical transmission: `source` drives the coupler
/// c(group(destination), group(source)) with packet `packet`, and
/// `destination` tunes its receiver to that coupler.
struct Transmission {
  int source;
  int destination;
  int packet;
};

/// All transmissions of one hand-built time slot.
struct SlotPlan {
  std::vector<Transmission> transmissions;
};

/// CSR-style schedule: transmissions of slot s are the contiguous
/// range [offsets_[s], offsets_[s + 1]) of one flat array.
class FlatSchedule {
 public:
  FlatSchedule() { clear(); }

  /// Drops all slots but keeps the array capacities (the point of the
  /// flat layout: rebuild in place, allocation-free once warm).
  void clear() {
    transmissions_.clear();
    offsets_.clear();
    offsets_.push_back(0);
  }

  /// Opens a new (initially empty) slot; push() appends to it.
  void begin_slot() { offsets_.push_back(as_int(transmissions_.size())); }

  /// Appends a transmission to the currently open slot. By value: a
  /// Transmission is three ints, cheaper in registers than behind a
  /// pointer.
  void push(Transmission transmission) {
    POPS_CHECK(slot_count() > 0, "FlatSchedule::push without a slot");
    transmissions_.push_back(transmission);
    offsets_.back() = as_int(transmissions_.size());
  }

  int slot_count() const { return as_int(offsets_.size()) - 1; }
  int transmission_count() const { return as_int(transmissions_.size()); }

  Span<const Transmission> slot(int s) const {
    POPS_CHECK(s >= 0 && s < slot_count(),
               "FlatSchedule::slot out of range");
    const int lo = offsets_[as_size(s)];
    const int hi = offsets_[as_size(s + 1)];
    return Span<const Transmission>(transmissions_.data() + lo,
                                    as_size(hi - lo));
  }
  Span<const Transmission> transmissions() const { return transmissions_; }

  /// Pre-sizes the arrays so a subsequent rebuild cannot reallocate.
  void reserve(int transmissions, int slots) {
    transmissions_.reserve(as_size(transmissions));
    offsets_.reserve(as_size(slots + 1));
  }

  /// Capacity snapshot for the zero-allocation tests.
  std::size_t transmission_capacity() const {
    return transmissions_.capacity();
  }
  std::size_t offset_capacity() const { return offsets_.capacity(); }

 private:
  std::vector<Transmission> transmissions_;
  std::vector<int> offsets_;  // slot_count() + 1 entries, offsets_[0] == 0
};

}  // namespace pops
