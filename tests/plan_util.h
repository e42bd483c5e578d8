// Shared FlatSchedule / HRelationPlan helpers for the test suite:
// doctoring a routed plan for the verifier's negative paths, and
// bitwise plan comparison for differential checks.
#pragma once

#include <cstddef>
#include <string>

#include "routing/h_relation.h"
#include "support/format.h"

namespace pops::testing {

/// Copy of the first `slots` slots of `schedule`, with
/// `edit(slot, index, transmission)` applied to every copied
/// transmission (FlatSchedule has no in-place mutation).
template <typename Edit>
FlatSchedule edited_schedule(const FlatSchedule& schedule, int slots,
                             Edit edit) {
  FlatSchedule out;
  for (int s = 0; s < slots; ++s) {
    out.begin_slot();
    const Span<const Transmission> slot = schedule.slot(s);
    for (std::size_t i = 0; i < slot.size(); ++i) {
      Transmission t = slot[i];
      edit(s, i, t);
      out.push(t);
    }
  }
  return out;
}

/// "" when the schedules are bitwise equal (every transmission of
/// every slot), else the first difference.
inline std::string schedule_difference(const FlatSchedule& a,
                                       const FlatSchedule& b) {
  if (a.slot_count() != b.slot_count()) {
    return str_cat("slot count ", a.slot_count(), " vs ", b.slot_count());
  }
  for (int s = 0; s < a.slot_count(); ++s) {
    const Span<const Transmission> x = a.slot(s);
    const Span<const Transmission> y = b.slot(s);
    if (x.size() != y.size()) return str_cat("slot ", s, " width differs");
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i].source != y[i].source ||
          x[i].destination != y[i].destination ||
          x[i].packet != y[i].packet) {
        return str_cat("slot ", s, " transmission ", i, " differs");
      }
    }
  }
  return "";
}

/// "" when the plans are bitwise equal (h, phase CSR, schedule), else
/// the first difference.
inline std::string plan_difference(const HRelationPlan& a,
                                   const HRelationPlan& b) {
  if (a.h != b.h) return str_cat("h ", a.h, " vs ", b.h);
  if (a.phase_offsets != b.phase_offsets) return "phase offsets differ";
  if (a.phase_requests != b.phase_requests) return "phase requests differ";
  return schedule_difference(a.schedule, b.schedule);
}

}  // namespace pops::testing
