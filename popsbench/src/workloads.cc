#include "workloads.h"

#include <chrono>
#include <optional>

#include "inputs.h"
#include "probe.h"
#include "routing/batch_router.h"
#include "routing/bounds.h"
#include "routing/engine.h"
#include "routing/verify.h"
#include "serve/traffic_server.h"
#include "trace.h"

namespace popsbench {
namespace {

using Clock = std::chrono::steady_clock;
using pops::Permutation;
using pops::RouteOptions;
using pops::RouteStrategy;
using pops::Topology;

/// Set-ups timed before timing starts, and again at the start of every
/// later slice so that they see the same host states as the timed work;
/// setup_s is the median of them all.
constexpr int kSetupReps = 21;
constexpr int kSliceSetupReps = 3;
/// Span capacity of the traced run (40 bytes each).
constexpr std::size_t kSpanCapacity = std::size_t{1} << 20;
/// Spans one traced operation may add at most (a full serve pass).
constexpr std::size_t kSpanHeadroom = std::size_t{1} << 18;
constexpr int kTailPermille = 990;
/// Equal time slices of a timed stretch; see Stretch.
constexpr int kSlices = 10;
/// The traced run: half the time untraced, 2/5 traced layer by layer,
/// and 1/20 each for the batch layer's engine and BatchRouter passes.
constexpr double kUntracedShare = 0.5;
constexpr double kLayerShare = 0.4;
constexpr double kBatchShare = 0.05;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Times `reps` runs of `setup`, appending the seconds to `times`.
template <typename Setup>
void time_setups(int reps, Setup&& setup, std::vector<double>& times) {
  for (int k = 0; k < reps; ++k) {
    const auto start = Clock::now();
    setup();
    times.push_back(seconds_between(start, Clock::now()));
  }
}

template <typename Setup>
double median_setup_s(Setup&& setup) {
  std::vector<double> times;
  time_setups(kSetupReps, setup, times);
  return median(times);
}

/// Index of the slice that `at_s` seconds into a stretch fall in.
int slice_at(double at_s, double seconds) {
  return static_cast<int>(at_s / seconds * kSlices);
}

/// One caller, each call issued when the previous one returned, until
/// `seconds` have passed. `call(k)` returns the ops it completed, or a
/// negative number to stop early. With `record`, every call's latency
/// is kept. `on_slice()` runs between calls once every new slice.
template <typename Call, typename OnSlice>
Stretch closed_loop(double seconds, bool record, Call&& call,
                    OnSlice&& on_slice) {
  Stretch stretch(seconds, kSlices);
  const auto start = Clock::now();
  int slice = 0;
  for (long long k = 0;; ++k) {
    const auto before = Clock::now();
    const long long ops = call(k);
    const auto after = Clock::now();
    if (ops < 0) break;
    const double at_s = seconds_between(start, after);
    stretch.add_ops(at_s, ops);
    if (record) stretch.add_call(at_s, 1e6 * seconds_between(before, after));
    if (at_s >= seconds) break;
    if (slice_at(at_s, seconds) > slice) {
      slice = slice_at(at_s, seconds);
      on_slice();
    }
  }
  stretch.set_wall_s(seconds_between(start, Clock::now()));
  return stretch;
}

void add(RunResult& result, const std::string& name, double value,
         const std::string& unit) {
  if (!result.report.add(name, value, unit)) {
    result.correct = false;
    result.summary += "invalid metric " + name + "\n";
  }
}

double mean(const std::vector<int>& values) {
  double sum = 0;
  for (int value : values) sum += value;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

void report_end_to_end(const Stretch& stretch, double slots_per_op,
                       double setup_s, RunResult& result) {
  const long long fewest = stretch.min_slice_samples();
  result.summary += "call latency samples: " +
                    std::to_string(stretch.call_samples()) + " in " +
                    std::to_string(kSlices) + " slices, fewest " +
                    std::to_string(fewest) + " (" +
                    std::to_string(samples_beyond(fewest, kTailPermille)) +
                    " beyond p99)\n";
  if (!stretch.tail_resolved(kTailPermille)) {
    result.correct = false;
    result.summary += "too few samples to resolve p99 in every slice\n";
    return;
  }
  const auto list = [](const std::vector<double>& values) {
    std::string out;
    for (double value : values) out += " " + std::to_string(value);
    return out + "\n";
  };
  result.summary += "slice ops/s:" + list(stretch.slice_rates()) +
                    "slice p50 us:" + list(stretch.slice_percentiles(500)) +
                    "slice p99 us:" +
                    list(stretch.slice_percentiles(kTailPermille));
  add(result, "ops_per_s", stretch.rate(), "1/s");
  add(result, "call_p50_us", stretch.slice_percentile(500), "us");
  add(result, "call_p99_us", stretch.slice_percentile(kTailPermille), "us");
  add(result, "slots_per_op", slots_per_op, "slots");
  add(result, "setup_s", setup_s, "s");
}

/// Construction plus warm-up of one RoutingEngine, the engine every
/// workload routes through (directly, per worker, or in the server).
double engine_setup_s(const Topology& topo, const Permutation& warm) {
  return median_setup_s([&] {
    pops::RoutingEngine engine(topo);
    engine.route(warm, RouteOptions{RouteStrategy::kBest, true});
  });
}

std::vector<pops::Request> requests_of(const Permutation& pi) {
  std::vector<pops::Request> requests;
  requests.reserve(static_cast<std::size_t>(pi.size()));
  for (int source = 0; source < pi.size(); ++source) {
    requests.push_back(pops::Request{source, pi(source)});
  }
  return requests;
}

/// The traced half of a run: a tracer and a probe warmed on `warm`.
struct TracedRun {
  TracedRun(const Topology& topo, const Permutation& warm)
      : tracer(kSpanCapacity), probe(topo, tracer) {
    probe.route_perm(warm, RouteStrategy::kBest, -1, -1);
    probe.route_relation(requests_of(warm), nullptr, false, -1, -1);
    tracer.clear();
    probe.reset_counts();
  }

  Tracer tracer;
  LayerProbe probe;
};

/// What the traced run measures of routing/batch_router.
struct BatchLayer {
  long long engine_perms = 0;
  long long batch_perms = 0;
  double setup_s = 0;
};

/// The batch layer on the workload's own permutations: whole passes
/// over `perms` on one engine, then through a two-worker BatchRouter,
/// each for `seconds`, under the spans batch.engine_pass and
/// batch.route_batch. Every batch result must have the slot count the
/// engine gave the same permutation.
BatchLayer trace_batch_layer(const Topology& topo,
                             const std::vector<Permutation>& perms,
                             RouteStrategy strategy, double seconds,
                             Tracer& tracer, RunResult& result) {
  const RouteOptions options{strategy, /*verify=*/true};
  BatchLayer layer;
  pops::RoutingEngine engine(topo);
  std::vector<int> slots;
  for (const Permutation& pi : perms) {
    slots.push_back(engine.route(pi, options).slot_count());
  }
  long long op = 0;
  auto start = Clock::now();
  do {
    const ScopedSpan span(tracer, "batch.engine_pass", -1, op++);
    for (const Permutation& pi : perms) engine.route(pi, options);
    layer.engine_perms += static_cast<long long>(perms.size());
  } while (seconds_between(start, Clock::now()) < seconds);

  pops::BatchRouterConfig config;
  config.threads = 2;
  std::vector<pops::FlatSchedule> results(perms.size());
  const std::size_t warm = std::min<std::size_t>(8, perms.size());
  std::optional<pops::BatchRouter> router;
  layer.setup_s = median_setup_s([&] {
    router.emplace(topo, config);
    router->route_batch(pops::Span<const Permutation>(perms.data(), warm),
                        pops::Span<pops::FlatSchedule>(results.data(), warm),
                        options);
  });
  start = Clock::now();
  do {
    {
      const ScopedSpan span(tracer, "batch.route_batch", -1, op++);
      router->route_batch(perms, results, options);
    }
    for (std::size_t i = 0; i < perms.size(); ++i) {
      if (results[i].slot_count() != slots[i]) ++result.failed;
    }
    layer.batch_perms += static_cast<long long>(perms.size());
  } while (seconds_between(start, Clock::now()) < seconds);
  result.attempted += layer.engine_perms + layer.batch_perms;
  return layer;
}

/// Per-layer metrics of a traced run (see README.md for each one).
void report_per_layer(const TracedRun& traced, const Stretch& untraced,
                      const Stretch& traced_phase, double engine_setup,
                      const BatchLayer& batch, const RunConfig& config,
                      RunResult& result) {
  const Tracer& tracer = traced.tracer;
  const LayerProbe& probe = traced.probe;
  const double perms = static_cast<double>(tracer.count("perm"));
  const double relations = static_cast<double>(tracer.count("relation"));
  if (perms == 0 || relations == 0 || untraced.total_calls() == 0 ||
      traced_phase.total_ops() == 0 || probe.ratio_count() == 0 ||
      batch.engine_perms == 0 || batch.batch_perms == 0) {
    result.correct = false;
    result.summary += "traced run recorded no operation\n";
    return;
  }
  const auto per_perm = [&](const char* span) {
    return tracer.total_us(span) / perms;
  };
  const auto per_relation = [&](const char* span) {
    return tracer.total_us(span) / relations;
  };
  add(result, "graph.build_h_us", per_perm("graph.build_h"), "us");
  add(result, "graph.color_h_us", per_perm("graph.color_h"), "us");
  add(result, "graph.color_hq_us", per_perm("graph.color_hq"), "us");
  add(result, "graph.spread_us", per_perm("graph.spread"), "us");
  add(result, "graph.color_window_us", per_relation("graph.color_window"),
      "us");
  add(result, "routing.theorem2_us", per_perm("routing.theorem2"), "us");
  add(result, "routing.direct_us", per_perm("routing.direct"), "us");
  add(result, "routing.h_relation_us", per_relation("routing.h_relation"),
      "us");
  add(result, "routing.theorem2_win_share",
      static_cast<double>(probe.theorem2_wins()) / perms, "ratio");
  add(result, "routing.lower_bound_slots", probe.lower_bound_sum() / perms,
      "slots");
  add(result, "routing.slot_ratio_lb",
      probe.slot_ratio_sum() / static_cast<double>(probe.ratio_count()),
      "ratio");
  add(result, "routing.engine_setup_us", 1e6 * engine_setup, "us");
  add(result, "pops.execute_us", per_perm("pops.execute"), "us");
  add(result, "pops.transmissions_per_perm",
      probe.transmissions_sum() / perms, "count");
  add(result, "pops.verify_h_relation_us",
      per_relation("pops.verify_h_relation"), "us");
  const double batch_us =
      tracer.total_us("batch.route_batch") /
      static_cast<double>(batch.batch_perms);
  add(result, "batch.route_batch_us", batch_us, "us");
  add(result, "batch.scaling_eff",
      tracer.total_us("batch.engine_pass") /
          static_cast<double>(batch.engine_perms) / (2 * batch_us),
      "ratio");
  add(result, "batch.setup_ms", 1e3 * batch.setup_s, "ms");
  add(result, "front.call_samples",
      static_cast<double>(untraced.call_samples()), "count");
  add(result, "front.ops_per_call",
      static_cast<double>(untraced.total_ops()) /
          static_cast<double>(untraced.total_calls()),
      "count");
  add(result, "front.relation_degree",
      probe.relation_degree_sum() / relations, "count");
  add(result, "trace.overhead",
      (traced_phase.wall_s() / static_cast<double>(traced_phase.total_ops())) /
          (untraced.wall_s() / static_cast<double>(untraced.total_ops())),
      "x");
  result.summary += "spans: " + std::to_string(tracer.spans().size()) + "\n";
  if (!config.trace_path.empty() && !tracer.write_csv(config.trace_path)) {
    result.correct = false;
    result.summary += "could not write " + config.trace_path + "\n";
  }
}

/// Verifies one routed schedule independently of the router and
/// returns its slot count. Counts the attempt, and a failure when the
/// schedule does not deliver pi, beats the lower bound, or (`exact`)
/// misses the Theorem 2 slot count.
int check_schedule(const Topology& topo, const Permutation& pi,
                   const pops::FlatSchedule& schedule, bool exact,
                   RunResult& result) {
  const int slots = schedule.slot_count();
  const bool ok = pops::verify_schedule(topo, pi, schedule).ok &&
                  slots >= pops::lower_bound_slots(topo, pi) &&
                  (!exact || slots == pops::theorem2_slots(topo));
  ++result.attempted;
  if (!ok) ++result.failed;
  return slots;
}

// --- perm_wide, perm_deep: one warm RoutingEngine, one caller --------

struct EngineSpec {
  int d;
  int g;
  PoolMix mix;
  int pool_size;
  RouteStrategy strategy;
  /// Every schedule must have exactly theorem2_slots slots.
  bool exact_theorem2;
};

void run_engine(const RunConfig& config, const EngineSpec& spec,
                RunResult& result) {
  const Topology topo(spec.d, spec.g);
  const std::vector<Permutation> pool =
      make_perm_pool(topo, spec.mix, spec.pool_size, config.seed);
  const RouteOptions options{spec.strategy, /*verify=*/true};

  // The first set-ups build the engine the run uses; later ones build
  // a spare.
  std::optional<pops::RoutingEngine> engine;
  std::optional<pops::RoutingEngine> spare;
  const auto set_up = [&](std::optional<pops::RoutingEngine>& slot) {
    slot.emplace(topo);
    slot->route(pool[0], options);
  };
  std::vector<double> setup_times;
  time_setups(kSetupReps, [&] { set_up(engine); }, setup_times);

  std::vector<int> slots;
  for (const Permutation& pi : pool) {
    slots.push_back(check_schedule(topo, pi, engine->route(pi, options),
                                   spec.exact_theorem2, result));
  }
  const auto route_one = [&](long long k) -> long long {
    const std::size_t i = static_cast<std::size_t>(k) % pool.size();
    if (engine->route(pool[i], options).slot_count() != slots[i]) {
      ++result.failed;
    }
    return 1;
  };
  result.summary += "pool fingerprint: " + std::to_string(fingerprint(pool)) +
                    "\n";

  if (!config.trace) {
    const Stretch stretch =
        closed_loop(config.seconds, true, route_one, [&] {
          time_setups(kSliceSetupReps, [&] { set_up(spare); }, setup_times);
        });
    result.attempted += stretch.total_ops();
    report_end_to_end(stretch, mean(slots), median(setup_times), result);
    return;
  }
  const Stretch untraced =
      closed_loop(kUntracedShare * config.seconds, true, route_one, [] {});
  result.attempted += untraced.total_ops();
  const double engine_setup = engine_setup_s(topo, pool[0]);
  TracedRun traced(topo, pool[0]);
  const auto traced_op = [&](long long k) -> long long {
    if (traced.tracer.nearly_full(kSpanHeadroom)) return -1;
    const std::size_t i = static_cast<std::size_t>(k) % pool.size();
    const int op = traced.tracer.open("op", -1, k);
    {
      const ScopedSpan call(traced.tracer, "front.call", op, k);
      route_one(k);
    }
    const bool ok =
        traced.probe.route_perm(pool[i], spec.strategy, op, k) &&
        traced.probe.route_relation(requests_of(pool[i]), nullptr, false,
                                    op, k);
    traced.tracer.close(op);
    if (!ok) ++result.failed;
    return 1;
  };
  const Stretch traced_phase =
      closed_loop(kLayerShare * config.seconds, false, traced_op, [] {});
  result.attempted += traced_phase.total_ops();
  const BatchLayer batch =
      trace_batch_layer(topo, pool, spec.strategy,
                        kBatchShare * config.seconds, traced.tracer, result);
  report_per_layer(traced, untraced, traced_phase, engine_setup, batch,
                   config, result);
}

// --- serve_zipf: TrafficServer fed a Zipf stream by one submitter ----

struct PassCounts {
  long long windows;
  long long demands;
  long long slots;
  long long budget;

  bool operator!=(const PassCounts& other) const {
    return windows != other.windows || demands != other.demands ||
           slots != other.slots || budget != other.budget;
  }
};

PassCounts counts_between(const pops::ServerStats& before,
                          const pops::ServerStats& after) {
  return PassCounts{after.windows_routed - before.windows_routed,
                    after.demands_routed - before.demands_routed,
                    after.slots_executed - before.slots_executed,
                    after.budget_slots - before.budget_slots};
}

void run_serve(const RunConfig& config, RunResult& result) {
  const Topology topo(16, 8);
  constexpr int kStreamLength = 1 << 18;
  pops::ServerConfig server_config;
  server_config.max_window_degree = 8;
  server_config.max_window_demands = 256;
  const std::vector<pops::Demand> stream =
      make_zipf_stream(topo, kStreamLength, config.seed);

  // The first set-ups build the server the run uses; later ones build
  // a spare.
  std::optional<pops::TrafficServer> server;
  std::optional<pops::TrafficServer> spare;
  std::vector<double> setup_times;
  time_setups(kSetupReps, [&] { server.emplace(topo, server_config); },
              setup_times);

  // One pass submits the whole stream, its arrival ticks shifted to the
  // server clock so every pass replays the same open-loop timeline,
  // then flushes. `on_submit(after)` runs after every call, and
  // `on_window(before, after)` after every call that closed a window,
  // with the call's start and end.
  const auto pass = [&](auto&& on_submit, auto&& on_window) {
    const std::uint64_t offset = server->now();
    int pending = 0;
    for (const pops::Demand& demand : stream) {
      pops::Demand shifted = demand;
      shifted.arrival_tick += offset;
      const auto before = Clock::now();
      server->submit(shifted);
      const auto after = Clock::now();
      on_submit(after);
      const int now_pending = server->pending_demands();
      if (now_pending <= pending) on_window(before, after);
      pending = now_pending;
    }
    if (pending > 0) {
      const auto before = Clock::now();
      server->flush();
      on_window(before, Clock::now());
    }
  };

  // Checked pass: every window's plan is verified independently, and
  // the window slots must meet the h-relation budget exactly.
  pass([](Clock::time_point) {}, [&](Clock::time_point, Clock::time_point) {
    const std::vector<pops::Request> requests = server->last_window_requests();
    if (!pops::verify_h_relation(topo, requests, server->last_window_plan())
             .empty()) {
      result.failed += static_cast<long long>(requests.size());
    }
  });
  result.attempted += kStreamLength;
  const pops::ServerStats first_stats = server->stats();
  const PassCounts first = counts_between(pops::ServerStats{}, first_stats);
  if (first.demands != kStreamLength || first.slots != first.budget) {
    result.failed += kStreamLength;
  }
  const auto queue_p99 = first_stats.queueing_delay.percentile(0.99);

  // Timed passes: whole passes only, so every pass can be checked
  // against the first one's counters.
  const auto timed_passes = [&](double seconds, bool record, Tracer* tracer,
                                auto&& on_window, auto&& on_slice) {
    Stretch stretch(seconds, kSlices);
    long long windows = 0;
    int slice = 0;
    const auto start = Clock::now();
    do {
      const pops::ServerStats before = server->stats();
      pass(
          [&](Clock::time_point at) {
            stretch.add_ops(seconds_between(start, at), 1);
          },
          [&](Clock::time_point call_start, Clock::time_point call_end) {
            if (record) {
              stretch.add_call(seconds_between(start, call_end),
                               1e6 * seconds_between(call_start, call_end));
            }
            on_window(call_start, call_end, windows++);
            const double at_s = seconds_between(start, call_end);
            if (at_s < seconds && slice_at(at_s, seconds) > slice) {
              slice = slice_at(at_s, seconds);
              on_slice();
            }
          });
      if (counts_between(before, server->stats()) != first) {
        result.failed += kStreamLength;
      }
    } while (seconds_between(start, Clock::now()) < seconds &&
             (tracer == nullptr || !tracer->nearly_full(kSpanHeadroom)));
    stretch.set_wall_s(seconds_between(start, Clock::now()));
    result.attempted += stretch.total_ops();
    return stretch;
  };
  const auto no_trace = [](Clock::time_point, Clock::time_point, long long) {};

  const auto finish_summary = [&] {
    const pops::ServerStats stats = server->stats();
    if (stats.queueing_delay.percentile(0.99) != queue_p99) ++result.failed;
    result.summary +=
        "stream fingerprint: " + std::to_string(fingerprint(stream)) +
        "\nwindows per pass: " + std::to_string(first.windows) +
        "\nslots per pass: " + std::to_string(first.slots) +
        " (budget " + std::to_string(first.budget) + ")" +
        "\nqueue_delay_p99_ticks: " + std::to_string(queue_p99) + "\n";
  };

  if (!config.trace) {
    const Stretch stretch =
        timed_passes(config.seconds, true, nullptr, no_trace, [&] {
          time_setups(kSliceSetupReps,
                      [&] { spare.emplace(topo, server_config); },
                      setup_times);
        });
    finish_summary();
    report_end_to_end(stretch,
                      static_cast<double>(first.slots) /
                          static_cast<double>(first.demands),
                      median(setup_times), result);
    return;
  }
  const Stretch untraced =
      timed_passes(kUntracedShare * config.seconds, true, nullptr, no_trace,
                   [] {});
  const Permutation warm = Permutation::identity(topo.processor_count());
  const double engine_setup = engine_setup_s(topo, warm);
  TracedRun traced(topo, warm);
  const Stretch traced_phase = timed_passes(
      kLayerShare * config.seconds, false, &traced.tracer,
      [&](Clock::time_point call_start, Clock::time_point call_end,
          long long k) {
        Tracer& tracer = traced.tracer;
        const int op =
            tracer.record("op", -1, k, tracer.ns_of(call_start), -1);
        tracer.record("front.call", op, k, tracer.ns_of(call_start),
                      tracer.ns_of(call_end));
        const pops::HRelationPlan plan = server->last_window_plan();
        if (!traced.probe.route_relation(server->last_window_requests(), &plan,
                                         true, op, k)) {
          ++result.failed;
        }
        tracer.close(op);
      },
      [] {});
  finish_summary();
  // The batch layer routes the padded phase permutations the traced
  // windows produced.
  const BatchLayer batch = trace_batch_layer(
      topo, traced.probe.phase_perms(), RouteStrategy::kTheorem2,
      kBatchShare * config.seconds, traced.tracer, result);
  report_per_layer(traced, untraced, traced_phase, engine_setup, batch,
                   config, result);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"perm_wide", "perm_deep",
                                                 "serve_zipf"};
  return names;
}

bool run_workload(const RunConfig& config, RunResult& result) {
  if (config.workload == "perm_wide") {
    run_engine(config,
               EngineSpec{8, 64, PoolMix::kRandomAndBlocks, 1024,
                          RouteStrategy::kTheorem2, true},
               result);
  } else if (config.workload == "perm_deep") {
    run_engine(config,
               EngineSpec{256, 8, PoolMix::kRandomAndRotations, 256,
                          RouteStrategy::kBest, false},
               result);
  } else if (config.workload == "serve_zipf") {
    run_serve(config, result);
  } else {
    return false;
  }
  result.correct = result.correct && result.failed == 0;
  return true;
}

}  // namespace popsbench
