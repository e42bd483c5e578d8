#include "routing/batch_router.h"

#include "support/check.h"

namespace pops {

BatchRouter::BatchRouter(const Topology& topo,
                         const BatchRouterConfig& config)
    : topo_(topo) {
  POPS_CHECK(config.threads >= 1, "BatchRouter needs at least one thread");
  POPS_CHECK(config.queue_capacity >= 1,
             "BatchRouter needs a positive queue capacity");
  engines_.reserve(as_size(config.threads));
  // Warm every engine on the launching thread, before any worker
  // exists: the cold kBest call builds both candidates and verifies
  // the winner, so all arenas reach their steady-state shapes (which depend only
  // on the topology, not on the permutation) and each engine arms its
  // own allocation ban. Workers then inherit engines that never
  // allocate again.
  const Permutation warm_up = Permutation::identity(topo.processor_count());
  for (int i = 0; i < config.threads; ++i) {
    engines_.emplace_back(topo_);
    engines_.back().route(warm_up, {RouteStrategy::kBest});
  }
  ring_.resize(as_size(config.queue_capacity));
  workers_.reserve(as_size(config.threads));
  for (int i = 0; i < config.threads; ++i) {
    workers_.emplace_back(&BatchRouter::worker_loop, this, i);
  }
}

BatchRouter::~BatchRouter() {
  {
    MutexLock lock(&mu_);
    stopping_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void BatchRouter::copy_schedule(const FlatSchedule& from,
                                FlatSchedule* to) {
  // Rebuild in place: once the destination's arrays have grown to the
  // topology's steady-state shape, later copies are allocation-free.
  to->clear();
  for (int s = 0; s < from.slot_count(); ++s) {
    to->begin_slot();
    for (const Transmission& transmission : from.slot(s)) {
      to->push(transmission);
    }
  }
}

void BatchRouter::worker_loop(int id) {
  RoutingEngine& engine = engines_[as_size(id)];
  for (;;) {
    Job job;
    bool have_batch = false;
    {
      MutexLock lock(&mu_);
      while (!stopping_ && ring_size_ == 0 && !has_batch_work()) {
        cv_work_.wait(mu_);
      }
      if (has_batch_work()) {
        have_batch = true;
        ++batch_workers_;
      } else if (ring_size_ > 0) {
        job = ring_[as_size(ring_head_)];
        ring_head_ = (ring_head_ + 1) % as_int(ring_.size());
        --ring_size_;
        cv_space_.notify_one();
      } else {
        return;  // stopping_, and nothing left to do
      }
    }
    if (have_batch) {
      // Snapshot the published batch. The plain fields were written
      // under mu_ before the workers were woken, and this worker just
      // released mu_, so the reads are ordered; route_batch does not
      // reuse them until batch_workers_ drops back to zero.
      const Permutation* perms = batch_perms_;
      FlatSchedule* results = batch_results_;
      const RouteOptions options = batch_options_;
      const int count = batch_count_.load(std::memory_order_relaxed);
      for (;;) {
        const int i = batch_next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) break;
        copy_schedule(engine.route(perms[as_size(i)], options),
                      &results[as_size(i)]);
        batch_done_.fetch_add(1, std::memory_order_release);
      }
      {
        MutexLock lock(&mu_);
        --batch_workers_;
        if (batch_workers_ == 0 &&
            batch_done_.load(std::memory_order_acquire) ==
                batch_count_.load(std::memory_order_relaxed)) {
          cv_done_.notify_all();
        }
      }
      continue;
    }
    // Streaming job, processed outside the lock.
    copy_schedule(engine.route(*job.pi, job.options), job.out);
    {
      MutexLock lock(&mu_);
      ++completed_;
      if (completed_ == submitted_) cv_done_.notify_all();
    }
  }
}

void BatchRouter::route_batch(Span<const Permutation> perms,
                              Span<FlatSchedule> results,
                              const RouteOptions& options) {
  POPS_CHECK(perms.size() == results.size(),
             "route_batch: one result slot per permutation");
  const int count = perms.count();
  if (count == 0) return;
  // One bulk batch at a time; concurrent bulk callers queue here
  // without touching the workers' lock.
  MutexLock client(&client_mu_);
  {
    MutexLock lock(&mu_);
    POPS_CHECK(!stopping_, "route_batch on a stopping BatchRouter");
    batch_perms_ = perms.data();
    batch_results_ = results.data();
    batch_options_ = options;
    batch_done_.store(0, std::memory_order_relaxed);
    batch_next_.store(0, std::memory_order_relaxed);
    batch_count_.store(count, std::memory_order_relaxed);
  }
  cv_work_.notify_all();
  {
    MutexLock lock(&mu_);
    // Wait for all results AND for every claimer to leave the claim
    // loop: a straggler may still bump batch_next_ after the last
    // result lands, and the counters must not be recycled under it.
    while (batch_done_.load(std::memory_order_acquire) < count ||
           batch_workers_ > 0) {
      cv_done_.wait(mu_);
    }
    batch_count_.store(0, std::memory_order_relaxed);
    batch_next_.store(0, std::memory_order_relaxed);
    batch_perms_ = nullptr;
    batch_results_ = nullptr;
  }
}

void BatchRouter::submit(const Permutation* pi, FlatSchedule* result,
                         const RouteOptions& options) {
  POPS_CHECK(pi != nullptr && result != nullptr,
             "submit needs a permutation and a result slot");
  {
    MutexLock lock(&mu_);
    POPS_CHECK(!stopping_, "submit on a stopping BatchRouter");
    while (ring_size_ == as_int(ring_.size())) cv_space_.wait(mu_);
    const int tail = (ring_head_ + ring_size_) % as_int(ring_.size());
    ring_[as_size(tail)] = Job{pi, result, options};
    ++ring_size_;
    ++submitted_;
  }
  cv_work_.notify_one();
}

void BatchRouter::drain() {
  MutexLock lock(&mu_);
  while (completed_ < submitted_) cv_done_.wait(mu_);
}

ScratchFootprint BatchRouter::scratch_footprint() const {
  ScratchFootprint footprint;
  for (const RoutingEngine& engine : engines_) {
    footprint.units += engine.scratch_footprint().units;
  }
  MutexLock lock(&mu_);
  footprint.units += ring_.capacity();
  return footprint;
}

}  // namespace pops
