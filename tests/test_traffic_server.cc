// Tests for serve/: window-close edge cases, verification of the
// server's routed windows through the independent verify_h_relation
// checker (including a corrupted-window negative path), a differential
// check against route_h_relation, and the zero-steady-state-allocation
// soak contract.
#include "serve/traffic_server.h"

#include <limits>
#include <vector>

#include "pops/patterns.h"
#include "routing/bounds.h"
#include "routing/verify.h"
#include "support/alloc_guard.h"
#include "tests/plan_util.h"
#include "tests/testing.h"

namespace pops {
namespace {

Demand make_demand(int source, int destination,
                   std::uint64_t arrival_tick = 0, int payload = 1) {
  Demand demand;
  demand.source = source;
  demand.destination = destination;
  demand.payload = payload;
  demand.arrival_tick = arrival_tick;
  return demand;
}

POPS_TEST(EmptyFlushIsNoOp) {
  TrafficServer server(Topology(4, 4));
  server.flush();
  server.flush();
  EXPECT_EQ(server.stats().windows_routed, 0);
  EXPECT_EQ(server.pending_demands(), 0);
  EXPECT_EQ(server.now(), std::uint64_t{0});
}

POPS_TEST(SingleDemandWindow) {
  const Topology topo(4, 4);
  TrafficServer server(topo);
  server.submit(make_demand(0, 5, 3));
  EXPECT_EQ(server.pending_demands(), 1);
  EXPECT_EQ(server.pending_degree(), 1);
  server.flush();
  const ServerStats& stats = server.stats();
  EXPECT_EQ(stats.windows_routed, 1);
  EXPECT_EQ(stats.demands_routed, 1);
  EXPECT_EQ(server.last_window_degree(), 1);
  // One-phase window: exactly the Theorem 2 slot count.
  EXPECT_EQ(server.last_window_slots(), theorem2_slots(topo));
  EXPECT_EQ(stats.slots_executed,
            static_cast<long long>(theorem2_slots(topo)));
  EXPECT_EQ(stats.budget_slots, static_cast<long long>(
                                    h_relation_budget(topo, 1)));
  // Window executes at max(clock=0, arrival=3) and takes its slots.
  EXPECT_EQ(server.now(),
            std::uint64_t{3} +
                static_cast<std::uint64_t>(theorem2_slots(topo)));
  EXPECT_EQ(stats.queueing_delay.count, 1);
}

POPS_TEST(ExactlyHDegreeClosesOnBreach) {
  // Degree cap 2: two demands from the same source fill the window;
  // the third from that source must close it first.
  ServerConfig config;
  config.max_window_degree = 2;
  TrafficServer server(Topology(4, 4), config);
  server.submit(make_demand(0, 5));
  server.submit(make_demand(0, 6));
  EXPECT_EQ(server.pending_demands(), 2);
  EXPECT_EQ(server.pending_degree(), 2);
  EXPECT_EQ(server.stats().windows_routed, 0);
  server.submit(make_demand(0, 7));
  EXPECT_EQ(server.stats().windows_routed, 1);
  EXPECT_EQ(server.last_window_degree(), 2);
  EXPECT_EQ(server.pending_demands(), 1);
  server.flush();
  EXPECT_EQ(server.stats().windows_routed, 2);
  EXPECT_EQ(server.last_window_degree(), 1);
}

POPS_TEST(ReceiveDegreeAlsoCloses) {
  ServerConfig config;
  config.max_window_degree = 2;
  TrafficServer server(Topology(4, 4), config);
  server.submit(make_demand(1, 9));
  server.submit(make_demand(2, 9));
  server.submit(make_demand(3, 9));  // third receiver hit on 9
  EXPECT_EQ(server.stats().windows_routed, 1);
  EXPECT_EQ(server.pending_demands(), 1);
}

POPS_TEST(CountCapClosesWindow) {
  ServerConfig config;
  config.max_window_demands = 3;
  TrafficServer server(Topology(2, 4), config);
  server.submit(make_demand(0, 4));
  server.submit(make_demand(1, 5));
  EXPECT_EQ(server.stats().windows_routed, 0);
  server.submit(make_demand(2, 6));
  EXPECT_EQ(server.stats().windows_routed, 1);
  EXPECT_EQ(server.pending_demands(), 0);
}

POPS_TEST(LastWindowPassesVerifyHRelation) {
  // The server's last-window debug accessors reconstruct the
  // routing/h_relation types; the independent checker must accept the
  // plan for every arrival process and a couple of topologies.
  for (const auto& [d, g] : {std::pair{4, 4}, {8, 4}, {1, 8}}) {
    const Topology topo(d, g);
    for (const ArrivalProcess process : kAllArrivalProcesses) {
      ServerConfig config;
      config.max_window_degree = 3;
      config.max_window_demands = 64;
      TrafficServer server(topo, config);
      ArrivalConfig arrivals;
      arrivals.process = process;
      arrivals.seed = 21;
      ArrivalGenerator generator(topo, arrivals);
      while (server.stats().windows_routed < 3) {
        server.submit(generator.next());
      }
      const std::vector<Request> requests = server.last_window_requests();
      const HRelationPlan plan = server.last_window_plan();
      EXPECT_EQ(plan.h, server.last_window_degree());
      EXPECT_EQ(plan.total_slots(), server.last_window_slots());
      EXPECT_EQ(verify_h_relation(topo, requests, plan), std::string());
    }
  }
}

POPS_TEST(CorruptedWindowFailsVerification) {
  const Topology topo(4, 4);
  ServerConfig config;
  config.max_window_degree = 3;
  TrafficServer server(topo, config);
  ArrivalConfig arrivals;
  arrivals.seed = 5;
  ArrivalGenerator generator(topo, arrivals);
  while (server.stats().windows_routed < 1) {
    server.submit(generator.next());
  }
  const std::vector<Request> requests = server.last_window_requests();
  HRelationPlan plan = server.last_window_plan();
  EXPECT_EQ(verify_h_relation(topo, requests, plan), std::string());

  // Redirect the first routed transmission to a wrong receiver: the
  // strict checker must reject the doctored plan (the packet is either
  // misdelivered or the slot now violates the receiver rules).
  EXPECT_TRUE(plan.schedule.transmission_count() > 0);
  bool corrupted = false;
  plan.schedule = testing::edited_schedule(
      plan.schedule, plan.total_slots(),
      [&](int, std::size_t, Transmission& tx) {
        if (corrupted) return;
        tx.destination = (tx.destination + 1) % topo.processor_count();
        corrupted = true;
      });
  EXPECT_TRUE(corrupted);
  EXPECT_NE(verify_h_relation(topo, requests, plan), std::string());

  // Dropping the last phase (its requests and slots) strands that
  // phase's packets, which must also fail.
  HRelationPlan truncated = server.last_window_plan();
  EXPECT_TRUE(truncated.h > 0);
  truncated.h -= 1;
  truncated.phase_offsets.pop_back();
  truncated.phase_requests.resize(as_size(truncated.phase_offsets.back()));
  truncated.schedule = testing::edited_schedule(
      truncated.schedule, truncated.h * theorem2_slots(topo),
      [](int, std::size_t, Transmission&) {});
  EXPECT_NE(verify_h_relation(topo, requests, truncated), std::string());
}

// The server routes its windows through the same HRelationRouter
// pipeline as route_h_relation, so every window's plan must equal the
// one-shot plan of its requests bit for bit: h, phase requests, and
// every transmission.
POPS_TEST(EveryWindowMatchesRouteHRelation) {
  for (const auto& [d, g] :
       {std::pair{4, 4}, {16, 8}, {8, 2}, {1, 6}, {3, 5}}) {
    const Topology topo(d, g);
    for (const ArrivalProcess process : kAllArrivalProcesses) {
      ServerConfig config;
      config.max_window_degree = 4;
      config.max_window_demands = 48;
      TrafficServer server(topo, config);
      ArrivalConfig arrivals;
      arrivals.process = process;
      arrivals.seed = 41;
      ArrivalGenerator generator(topo, arrivals);
      constexpr int kDemands = 3500;
      long long checked = 0;
      for (int k = 0; k < kDemands; ++k) {
        const long long before = server.stats().windows_routed;
        server.submit(generator.next());
        if (k == kDemands - 1) server.flush();
        if (server.stats().windows_routed == before) continue;
        const std::vector<Request> requests = server.last_window_requests();
        const std::string difference = testing::plan_difference(
            server.last_window_plan(), route_h_relation(topo, requests));
        EXPECT_EQ(difference, std::string());
        ++checked;
      }
      EXPECT_TRUE(checked > 0);
    }
  }
}

POPS_TEST(SubmitRejectsBadDemands) {
  // A malformed demand gets kInvalid and leaves the server as it was:
  // the open window, the clock and every counter but demands_rejected.
  ServerConfig config;
  config.max_window_degree = 1;
  config.max_window_demands = 2;
  TrafficServer server(Topology(2, 2), config);
  EXPECT_TRUE(server.submit(make_demand(0, 1, 5)) == SubmitStatus::kOk);
  const ServerStats before = server.stats();
  const std::uint64_t clock = server.now();
  long long rejected = 0;
  // Each would close the degree-1, two-demand window if admitted.
  for (const Demand& bad :
       {make_demand(-1, 0), make_demand(0, 4), make_demand(4, 1),
        make_demand(1, -1), make_demand(0, 1, 0, -1)}) {
    EXPECT_TRUE(server.submit(bad) == SubmitStatus::kInvalid);
    ++rejected;
    const ServerStats after = server.stats();
    EXPECT_EQ(after.demands_rejected, before.demands_rejected + rejected);
    EXPECT_EQ(after.windows_routed, before.windows_routed);
    EXPECT_EQ(after.demands_routed, before.demands_routed);
    EXPECT_EQ(after.payload_flits_delivered,
              before.payload_flits_delivered);
    EXPECT_EQ(after.slots_executed, before.slots_executed);
    EXPECT_EQ(after.budget_slots, before.budget_slots);
    EXPECT_EQ(after.max_window_degree, before.max_window_degree);
    EXPECT_EQ(after.queueing_delay.count, before.queueing_delay.count);
    EXPECT_EQ(server.now(), clock);
    EXPECT_EQ(server.pending_demands(), 1);
    EXPECT_EQ(server.pending_degree(), 1);
  }
  // The window still closes on the next valid demand's admission.
  EXPECT_TRUE(server.submit(make_demand(0, 1)) == SubmitStatus::kOk);
  EXPECT_EQ(server.stats().windows_routed, before.windows_routed + 1);
  EXPECT_EQ(server.stats().demands_rejected, rejected);
}

POPS_TEST(ServerRejectsBadConfig) {
  ServerConfig degree;
  degree.max_window_degree = 0;
  EXPECT_ABORTS(TrafficServer(Topology(2, 2), degree));
  ServerConfig count;
  count.max_window_demands = 0;
  EXPECT_ABORTS(TrafficServer(Topology(2, 2), count));
}

POPS_TEST(ClockAdvancesMonotonically) {
  const Topology topo(4, 4);
  TrafficServer server(topo);
  std::uint64_t previous = server.now();
  ArrivalConfig arrivals;
  arrivals.process = ArrivalProcess::kBurstyOnOff;
  arrivals.seed = 33;
  ArrivalGenerator generator(topo, arrivals);
  for (int window = 0; window < 20; ++window) {
    while (server.stats().windows_routed < window + 1) {
      server.submit(generator.next());
    }
    EXPECT_TRUE(server.now() > previous);
    previous = server.now();
  }
}

POPS_TEST(SoakKeepsScratchFootprintFlat) {
  // The zero-allocation contract at system scale: after a warm-up,
  // 1000+ further windows must not grow a single server-owned arena.
  const Topology topo(4, 4);
  ServerConfig config;
  config.max_window_degree = 4;
  config.max_window_demands = 128;
  TrafficServer server(topo, config);
  // The constructor primes every arena at the window caps, so the
  // footprint is flat from birth — not merely after a lucky warm-up.
  const ScratchFootprint birth = server.scratch_footprint();
  ArrivalConfig arrivals;
  arrivals.seed = 77;
  ArrivalGenerator generator(topo, arrivals);
  while (server.stats().windows_routed < 50) {
    server.submit(generator.next());
  }
  const ScratchFootprint warm = server.scratch_footprint();
  EXPECT_TRUE(warm.units > 0);
  EXPECT_EQ(warm.units, birth.units);
  {
    // The 1000+-window steady stretch also runs inside an explicit
    // allocation ban: in POPS_ALLOC_GUARD builds any heap activity in
    // the generator, admission control, routing, or simulation aborts
    // outright — transient allocations included, which the capacity
    // comparison below cannot see.
    ScopedAllocationBan ban("test: traffic soak steady state");
    while (server.stats().windows_routed < 1100) {
      server.submit(generator.next());
    }
    server.flush();
  }
  EXPECT_EQ(server.scratch_footprint().units, warm.units);
  EXPECT_TRUE(server.stats().windows_routed >= 1100);
  EXPECT_EQ(server.stats().slots_executed, server.stats().budget_slots);
}

POPS_TEST(DelayHistogramPercentiles) {
  DelayHistogram histogram;
  EXPECT_EQ(histogram.percentile(0.5), std::uint64_t{0});
  for (int i = 0; i < 90; ++i) histogram.record(0);
  for (int i = 0; i < 9; ++i) histogram.record(5);   // bucket [4, 8)
  histogram.record(100);                             // bucket [64, 128)
  EXPECT_EQ(histogram.count, 100);
  EXPECT_EQ(histogram.max, std::uint64_t{100});
  EXPECT_EQ(histogram.percentile(0.50), std::uint64_t{0});
  EXPECT_EQ(histogram.percentile(0.95), std::uint64_t{7});
  EXPECT_EQ(histogram.percentile(1.0), std::uint64_t{127});
}

POPS_TEST(DelayHistogramTopBucketCoversTheFullRange) {
  // Delays in [2^63, 2^64) land in the top bucket, whose upper bound is
  // the largest representable delay.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 63;
  DelayHistogram histogram;
  histogram.record(kMax);
  EXPECT_EQ(histogram.count, 1);
  EXPECT_EQ(histogram.max, kMax);
  EXPECT_EQ(histogram.buckets.back(), 1);
  EXPECT_EQ(histogram.percentile(0.5), kMax);
  histogram.record(kHalf);
  histogram.record(kHalf - 1);  // bucket 63: [2^62, 2^63)
  EXPECT_EQ(histogram.buckets.back(), 2);
  EXPECT_EQ(histogram.percentile(0.0), kHalf - 1);
  EXPECT_EQ(histogram.percentile(1.0), kMax);
}

POPS_TEST(ServesAWindowWithArrivals2To63Apart) {
  // Two demands of one window whose arrival ticks lie 2^63 apart: the
  // early one waits 2^63 ticks, which the delay histogram must record
  // in its top bucket.
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 63;
  const Topology topo(4, 4);
  TrafficServer server(topo);
  server.submit(make_demand(0, 5, 0));
  server.submit(make_demand(1, 6, kHalf));
  server.flush();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.windows_routed, 1);
  EXPECT_EQ(stats.queueing_delay.count, 2);
  EXPECT_EQ(stats.queueing_delay.max, kHalf);
  EXPECT_EQ(stats.queueing_delay.percentile(1.0),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(server.now(),
            kHalf + static_cast<std::uint64_t>(theorem2_slots(topo)));
}

}  // namespace
}  // namespace pops
