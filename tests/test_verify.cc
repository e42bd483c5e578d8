// Negative-path coverage for verify_schedule and the strict
// simulator. A schedule that oversubscribes a coupler and one that
// misdelivers a packet must both fail verification with a useful
// failure string, and every single-field mutant of a verified engine
// plan must be rejected. Hand-built schedules use the FlatSchedule
// layout.
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "perm/families.h"
#include "pops/patterns.h"
#include "routing/engine.h"
#include "routing/router.h"
#include "routing/verify.h"
#include "support/format.h"
#include "support/prng.h"
#include "tests/plan_util.h"
#include "tests/testing.h"

namespace pops {
namespace {

POPS_TEST(AcceptsACorrectSchedule) {
  const Topology topo(2, 2);
  const Permutation pi = vector_reversal(4);
  const RouteResult result = route(topo, pi, {RouteStrategy::kTheorem2});
  const VerificationResult vr = verify_schedule(topo, pi, result.schedule);
  EXPECT_TRUE(vr.ok);
  EXPECT_EQ(vr.failure, "");
}

POPS_TEST(RejectsCouplerOversubscription) {
  // POPS(2, 2), reversal: packets 0 (0 -> 3) and 1 (1 -> 2) both cross
  // from group 0 to group 1, so sending them in the same slot drives
  // coupler c(1, 0) twice.
  const Topology topo(2, 2);
  const Permutation pi = vector_reversal(4);
  FlatSchedule schedule;
  schedule.begin_slot();
  schedule.push(Transmission{0, 3, 0});
  schedule.push(Transmission{1, 2, 1});
  const VerificationResult vr = verify_schedule(topo, pi, schedule);
  EXPECT_FALSE(vr.ok);
  EXPECT_TRUE(vr.failure.find("coupler") != std::string::npos);
  EXPECT_TRUE(vr.failure.find("oversubscribed") != std::string::npos);
}

POPS_TEST(RejectsMisdelivery) {
  // A schedule whose every slot obeys the optical model but which
  // parks packets 1 and 2 at the wrong processors.
  const Topology topo(2, 2);
  const Permutation pi = vector_reversal(4);  // 0->3 1->2 2->1 3->0
  FlatSchedule schedule;
  schedule.begin_slot();  // valid slot, wrong drops:
  schedule.push(Transmission{2, 0, 2});  // 2 wants 1
  schedule.push(Transmission{1, 3, 1});  // 1 wants 2
  schedule.begin_slot();  // deliver packets 0 and 3 correctly
  schedule.push(Transmission{0, 3, 0});
  schedule.push(Transmission{3, 0, 3});
  const VerificationResult vr = verify_schedule(topo, pi, schedule);
  EXPECT_FALSE(vr.ok);
  EXPECT_TRUE(vr.failure.find("packet") != std::string::npos);
  EXPECT_TRUE(vr.failure.find("stranded") != std::string::npos);
}

POPS_TEST(RejectsUndeliveredPackets) {
  // An empty schedule delivers nothing (except fixed points).
  const Topology topo(2, 2);
  const Permutation pi = vector_reversal(4);
  const VerificationResult vr = verify_schedule(topo, pi, FlatSchedule{});
  EXPECT_FALSE(vr.ok);
  EXPECT_TRUE(vr.failure.find("stranded") != std::string::npos);
}

POPS_TEST(RejectsPhantomSend) {
  const Topology topo(2, 2);
  const Permutation pi = Permutation::identity(4);
  FlatSchedule schedule;
  schedule.begin_slot();
  schedule.push(Transmission{0, 1, 3});  // 0 holds 0, not 3
  const VerificationResult vr = verify_schedule(topo, pi, schedule);
  EXPECT_FALSE(vr.ok);
  EXPECT_TRUE(vr.failure.find("does not hold packet") !=
              std::string::npos);
}

POPS_TEST(RejectsScheduleForTheWrongPermutation) {
  // Route pi2 but verify against pi: delivery completes somewhere else.
  Rng rng(31);
  const Topology topo(4, 4);
  const Permutation pi = Permutation::random_derangement(16, rng);
  const Permutation pi2 = Permutation::random_derangement(16, rng);
  EXPECT_FALSE(pi.images() == pi2.images());
  const RouteResult result = route(topo, pi2, {RouteStrategy::kTheorem2});
  EXPECT_TRUE(verify_schedule(topo, pi2, result.schedule).ok);
  const VerificationResult vr = verify_schedule(topo, pi, result.schedule);
  EXPECT_FALSE(vr.ok);
  EXPECT_FALSE(vr.failure.empty());
}

POPS_TEST(RejectsSizeMismatch) {
  const VerificationResult vr = verify_schedule(
      Topology(2, 2), Permutation::identity(3), FlatSchedule{});
  EXPECT_FALSE(vr.ok);
  EXPECT_TRUE(vr.failure.find("does not fit") != std::string::npos);
}

// Where in a schedule a mutant lands, and which field it changes.
enum class SlotKind { kDistribute, kDeliver };
enum class Field { kSource, kDestination, kPacket };

const char* to_string(SlotKind kind) {
  return kind == SlotKind::kDistribute ? "distribute" : "deliver";
}

const char* to_string(Field field) {
  return field == Field::kSource        ? "source"
         : field == Field::kDestination ? "destination"
                                        : "packet";
}

int& field_of(Transmission& t, Field field) {
  return field == Field::kSource        ? t.source
         : field == Field::kDestination ? t.destination
                                        : t.packet;
}

/// A value for `field` other than `old`: in [0, n) when in_range,
/// else outside it. Packet -1 ("any") is never drawn: sending "any"
/// from a one-packet buffer is legal and delivers the same packet.
int mutant_value(Field field, int old, int n, bool in_range, Rng& rng) {
  if (in_range) {
    const int value = rng.next_below(n - 1);
    return value >= old ? value + 1 : value;
  }
  const int lowest = field == Field::kPacket ? -2 : -1;
  return rng.next_below(2) == 0 ? n + rng.next_below(n)
                                : lowest - rng.next_below(n);
}

/// Runs seeded single-field mutants of the verified `plan` of pi —
/// each of the three fields, in-range and out-of-range, in a random
/// transmission of each slot kind the plan has — and appends one line
/// per mutant to `verdicts`: where it landed, then execute()'s failure
/// string, "all_delivered: false", or "ACCEPTED".
void run_mutants(const Topology& topo, const Permutation& pi,
                 const FlatSchedule& plan, const std::string& label,
                 bool has_distribute, Network& net, Rng& rng,
                 std::vector<std::string>& verdicts) {
  const int n = topo.processor_count();
  for (const SlotKind kind : {SlotKind::kDistribute, SlotKind::kDeliver}) {
    // With distribute slots the plan alternates distribute, deliver.
    std::vector<std::pair<int, std::size_t>> sites;
    for (int s = 0; s < plan.slot_count(); ++s) {
      const bool distribute = has_distribute && s % 2 == 0;
      if (distribute != (kind == SlotKind::kDistribute)) continue;
      for (std::size_t i = 0; i < plan.slot(s).size(); ++i) {
        sites.emplace_back(s, i);
      }
    }
    if (sites.empty()) continue;
    for (const Field field :
         {Field::kSource, Field::kDestination, Field::kPacket}) {
      for (const bool in_range : {true, false}) {
        if (in_range && n == 1) continue;  // no other processor or id
        const auto [slot, index] =
            sites[as_size(rng.next_below(as_int(sites.size())))];
        Transmission original = plan.slot(slot)[index];
        const int old = field_of(original, field);
        const int value = mutant_value(field, old, n, in_range, rng);
        const FlatSchedule mutant = testing::edited_schedule(
            plan, plan.slot_count(),
            [&](int s, std::size_t i, Transmission& t) {
              if (s == slot && i == index) field_of(t, field) = value;
            });
        net.reset();
        net.load_permutation_traffic(pi);
        std::string verdict;
        if (!net.execute(mutant)) {
          verdict = "execute: " + net.failure();
        } else if (!net.all_delivered()) {
          verdict = "all_delivered: false";
        } else {
          verdict = "ACCEPTED";
        }
        verdicts.push_back(str_cat(label, " ", to_string(kind), " slot ",
                                   slot, " tx ", index, " ",
                                   to_string(field), " ", old, " -> ",
                                   value, ": ", verdict));
      }
    }
  }
}

POPS_TEST(SingleFieldMutantsOfVerifiedPlansAreRejected) {
  // Mutation sweep over every shape and pattern of
  // EngineFairDistributionHoldsOnEveryShape (same seed, so the same
  // random permutations), on both the Theorem 2 and the direct plan.
  // Every mutant must be rejected, and every slot rule must be the
  // reason for some rejection: a simulator that dropped a rule would
  // still reject most mutants through a later check. Set
  // POPS_MUTATION_DUMP=<file> to write every mutant's verdict and
  // failure string, one per line, to diff two simulator builds.
  Rng rng(76);
  Rng mutation_rng(77);
  const char* const pattern_names[] = {"identity", "group_reversal",
                                       "transpose", "random",
                                       "group_rotation"};
  std::vector<std::string> verdicts;
  for (int d = 1; d <= 12; ++d) {
    for (int g = 1; g <= 24; ++g) {
      const Topology topo(d, g);
      const int n = topo.processor_count();
      std::vector<Permutation> cases;
      cases.push_back(make_pattern(topo, TrafficPattern::kIdentity));
      cases.push_back(make_pattern(topo, TrafficPattern::kGroupReversal));
      cases.push_back(make_pattern(topo, TrafficPattern::kTranspose));
      cases.push_back(Permutation::random(n, rng));
      cases.push_back(group_rotation(d, g, g > 1 ? 1 + d % (g - 1) : 0));
      RoutingEngine engine(topo);
      Network net(topo);
      for (std::size_t c = 0; c < cases.size(); ++c) {
        const Permutation& pi = cases[c];
        const std::string label =
            str_cat(topo.to_string(), " ", pattern_names[c]);
        // Copies: the engine rebuilds its schedules in place.
        const FlatSchedule theorem2 = engine.route_permutation(pi);
        const FlatSchedule direct = engine.route_direct(pi);
        EXPECT_TRUE(verify_schedule(topo, pi, theorem2).ok);
        EXPECT_TRUE(verify_schedule(topo, pi, direct).ok);
        run_mutants(topo, pi, theorem2, label + " theorem2", d > 1, net,
                    mutation_rng, verdicts);
        run_mutants(topo, pi, direct, label + " direct", false, net,
                    mutation_rng, verdicts);
      }
    }
  }
  for (const std::string& verdict : verdicts) {
    if (verdict.find("ACCEPTED") != std::string::npos) {
      EXPECT_EQ(verdict, "rejected");
    }
  }
  for (const char* reason :
       {"source processor", "destination processor",
        "transmits two different packets", "oversubscribed",
        "tunes to more than one coupler", "does not hold packet",
        "all_delivered: false"}) {
    int hits = 0;
    for (const std::string& verdict : verdicts) {
      hits += verdict.find(reason) != std::string::npos ? 1 : 0;
    }
    if (hits == 0) EXPECT_EQ(str_cat("no mutant rejected for: ", reason), "");
  }
  if (const char* dump_path = std::getenv("POPS_MUTATION_DUMP")) {
    std::ofstream dump(dump_path);
    for (const std::string& verdict : verdicts) dump << verdict << "\n";
  }
}

}  // namespace
}  // namespace pops
