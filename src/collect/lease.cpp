#include "collect/lease.hpp"

#include <atomic>
#include <utility>

#include "htm/stats.hpp"
#include "memory/pool.hpp"
#include "obs/trace.hpp"
#include "sched/checkpoint.hpp"

namespace dc::collect {

namespace {

// Monotonic lease clock. Orphan detection rests on the liveness token, not
// on stamp age (a validated timeout over wall time would be racy under a
// scheduler); the stamp exists for diagnostics and ordering.
std::atomic<uint64_t> g_lease_clock{0};

}  // namespace

CrashTolerantCollect::CrashTolerantCollect(
    std::unique_ptr<DynamicCollect> inner)
    : inner_(std::move(inner)),
      name_(std::string("CrashTolerant(") + inner_->name() + ")") {}

void CrashTolerantCollect::stamp_lease(Handle h) {
  // The stamp/bind race window: the inner operation has committed but the
  // lease does not exist (or carries the stale stamp) yet. Checkpoint
  // before taking the table mutex — never inside it, or a preempted
  // holder would wedge every other logical thread on an OS mutex.
  sched::checkpoint(sched::Kind::kLeaseStamp);
  const htm::crash::Token me = htm::crash::self_token();
  const uint64_t stamp =
      g_lease_clock.fetch_add(1, std::memory_order_relaxed) + 1;
  std::lock_guard lock(mu_);
  Lease& l = leases_[h];
  l.owner = me;
  l.stamp = stamp;
  l.claimed = false;
}

Handle CrashTolerantCollect::register_handle(Value v) {
  // Inner first, lease second: if the thread dies inside the inner
  // Register, no handle was claimed (the claiming transaction did not
  // commit) and no lease exists — nothing to reap, at most a leaked
  // private allocation, which is what death costs.
  Handle h = inner_->register_handle(v);
  stamp_lease(h);
  return h;
}

void CrashTolerantCollect::update(Handle h, Value v) {
  // Inner first, refresh second: a death inside the inner Update leaves
  // the old lease in place, and the dead owner's lease is reaped either
  // way.
  inner_->update(h, v);
  stamp_lease(h);
}

void CrashTolerantCollect::deregister(Handle h) {
  // Inner first, erase second. A death inside the inner DeRegister leaves
  // the lease in place with a now-dead owner: the reaper re-runs the inner
  // deregister from scratch, which is sound because the claiming
  // transaction did not commit (see lease.hpp). Once the inner call
  // returns, no crash point separates it from the erase — but h is free,
  // so another thread may already have registered it again and stamped a
  // lease of its own, which must survive: erase only our own.
  inner_->deregister(h);
  const htm::crash::Token me = htm::crash::self_token();
  std::lock_guard lock(mu_);
  const auto it = leases_.find(h);
  if (it != leases_.end() && it->second.owner == me) leases_.erase(it);
}

void CrashTolerantCollect::collect(std::vector<Value>& out) {
  inner_->collect(out);
}

std::size_t CrashTolerantCollect::footprint_bytes() const {
  std::size_t lease_bytes;
  {
    std::lock_guard lock(mu_);
    lease_bytes = leases_.size() * (sizeof(Handle) + sizeof(Lease));
  }
  return inner_->footprint_bytes() + lease_bytes;
}

std::size_t CrashTolerantCollect::reap_orphans() {
  sched::checkpoint(sched::Kind::kLeaseReap);
  const htm::crash::Token me = htm::crash::self_token();
  // Claim phase: under the mutex, mark every unclaimed orphan as ours.
  // Claims held by a claimant that later died are re-claimable, so a
  // reaper crashing mid-batch never strands the remainder.
  std::vector<Handle> victims;
  std::vector<uint32_t> victim_tids;
  {
    std::lock_guard lock(mu_);
    for (auto& [h, l] : leases_) {
      if (!htm::crash::token_orphaned(l.owner)) continue;
      if (l.claimed && !htm::crash::token_orphaned(l.claimant)) continue;
      l.claimed = true;
      l.claimant = me;
      victims.push_back(h);
      victim_tids.push_back(l.owner.tid);
    }
  }
  // Reap phase: per handle, run the inner DeRegister (the dead thread's
  // half-done one restarts from scratch; see lease.hpp) and erase the
  // lease immediately after, so our own death between handles leaves every
  // remaining claim re-claimable and no handle double-deregistered.
  // Claim/reap phase boundary: a second reaper racing in here must skip
  // every claimed lease (its claimant is alive) or the handle would be
  // deregistered twice.
  sched::checkpoint(sched::Kind::kLeaseReap);
  std::size_t reaped = 0;
  for (std::size_t i = 0; i < victims.size(); ++i) {
    inner_->deregister(victims[i]);
    {
      // As in deregister(): a lease stamped by a fresh Register of the
      // now-free handle is not ours to erase.
      std::lock_guard lock(mu_);
      const auto it = leases_.find(victims[i]);
      if (it != leases_.end() && it->second.claimed &&
          it->second.claimant == me) {
        leases_.erase(it);
      }
    }
    ++reaped;
    htm::local_stats().orphans_reaped++;
    obs::trace_orphan_reap(1, victim_tids[i]);
  }
  // Capacity phase: dead threads strand more than their handles — their
  // thread-local pool caches hold freed-but-unreachable blocks (up to a
  // cache depth per size class per death, a real leak under --crash-rate).
  // The same survivor-run sweep that recovers handles recovers that
  // capacity; it also feeds the reclaim probe, so atomic blocks parked in
  // the kAllocFailed wait see the reap as progress.
  mem::pool_reap_stranded_caches();
  return reaped;
}

std::size_t CrashTolerantCollect::lease_count() const {
  std::lock_guard lock(mu_);
  return leases_.size();
}

std::size_t CrashTolerantCollect::orphan_count() const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const auto& [h, l] : leases_) {
    if (htm::crash::token_orphaned(l.owner)) ++n;
  }
  return n;
}

}  // namespace dc::collect
