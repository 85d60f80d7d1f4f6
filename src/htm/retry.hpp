// Contention management for htm::atomic(): cause-aware retry (abort
// cause triage), and per-call-site abort-storm degradation.
//
// Rock-era TLE software had to answer one question after every failed
// transaction: retry now, retry later, or give up and take the lock? The
// right answer depends on *why* the attempt died (paper §6; Dice et al.,
// ASPLOS'09 report exactly this cause triage for Rock):
//
//   cause            transient?   action
//   ---------------  -----------  ------------------------------------------
//   interrupt        yes          retry immediately
//   tlb-miss         yes          retry immediately
//   save-restore     yes          retry immediately
//   conflict         contention   jittered capped backoff
//   explicit         algorithmic  jittered capped backoff
//   illegal-access   transient*   jittered capped backoff
//   overflow         no           escalate straight to TLE
//   alloc-failed     resource     wait for reclamation, then give up (below)
//
//   (* illegal-access means the transaction read freed memory; the retry
//      re-reads fresh pointers, so it behaves like a conflict.)
//
// alloc-failed is the one cause the TLE lock cannot cure: serializing the
// block re-runs the same allocation against the same exhausted pool, so
// escalation would convert an out-of-memory condition into a livelock under
// the lock. Instead the controller backs off waiting for *reclamation
// progress* — any block returned to circulation, observed through the
// reclaim probe the pool registers at startup (set_reclaim_probe; the htm
// layer never links dc_memory). Progress resets the wait budget;
// Config::mem.alloc_retry_limit consecutive failures with no progress
// escalate to a caller-visible TxnOutOfMemory (htm/abort.hpp) instead of
// TLE.
//
// Every abort — spurious included — counts toward the Config::
// tle_after_aborts backstop, so even a 100% injected fault storm cannot
// livelock a block: it escalates and completes under the lock.
//
// Storm mode: each atomic() call-site owns a StormState (a function-local
// static in the template, so every distinct lambda gets its own). Conflict
// aborts add 2 to its score, commits drain 1; crossing
// Config::storm_enter_score flips the site into a *sticky* serialized mode
// where every block runs under the TLE lock immediately — no speculative
// attempts feeding the storm — until commits drain the score back to
// Config::storm_exit_score (hysteresis: enter high, exit low, so the site
// does not flap at the boundary). The stats surface the transitions
// (storm_entries/storm_exits) and the starvation high-water mark
// (max_consec_aborts).
#pragma once

#include <atomic>
#include <cstdint>

#include "htm/config.hpp"
#include "htm/crash.hpp"
#include "htm/fault.hpp"
#include "htm/stats.hpp"
#include "htm/txn.hpp"
#include "obs/retry_stats.hpp"
#include "obs/trace.hpp"
#include "util/backoff.hpp"

namespace dc::htm {

// Reclamation-progress probe for the kAllocFailed wait policy. The pool
// registers a function returning a monotone counter of blocks returned to
// circulation (frees + stranded-cache reaps); the retry controller compares
// successive readings to tell "memory is coming back, keep waiting" from
// "nothing is moving, give up". Registered once at pool startup — the
// dependency points memory -> htm, never the reverse (same inversion as the
// obs counter providers). reclaim_progress() returns 0 while no probe is
// registered.
using ReclaimProbe = uint64_t (*)();
void set_reclaim_probe(ReclaimProbe probe) noexcept;
uint64_t reclaim_progress() noexcept;

namespace detail {

// Sticky per-call-site contention state. Constructed as a function-local
// static inside the atomic() template — one per distinct body lambda — and
// registered globally so tests can reset all sites between cases
// (reset_storm_sites()).
class StormState {
 public:
  StormState() noexcept { register_site(this); }
  StormState(const StormState&) = delete;
  StormState& operator=(const StormState&) = delete;

  static constexpr uint32_t kAbortWeight = 2;

  // A speculative attempt at this site aborted on a conflict.
  void note_abort(uint32_t enter_score) noexcept {
    const uint32_t s =
        score_.fetch_add(kAbortWeight, std::memory_order_relaxed) +
        kAbortWeight;
    if (s >= enter_score && !serialized_.load(std::memory_order_relaxed)) {
      bool expected = false;
      if (serialized_.compare_exchange_strong(expected, true,
                                              std::memory_order_relaxed)) {
        local_stats().storm_entries++;
        obs::trace_storm(true, s);
      }
    }
    // Cap the score so a long storm cannot push the exit arbitrarily far
    // into the recovery: once commits return, the site leaves serialized
    // mode within ~2*enter_score of them.
    uint32_t cur = s;
    while (cur > 2 * enter_score &&
           !score_.compare_exchange_weak(cur, 2 * enter_score,
                                         std::memory_order_relaxed)) {
    }
  }

  // A block at this site committed (speculatively or under the lock).
  void note_commit(uint32_t exit_score) noexcept {
    uint32_t s = score_.load(std::memory_order_relaxed);
    // Fast path: an uncontended site keeps score 0 — one relaxed load.
    while (s > 0 &&
           !score_.compare_exchange_weak(s, s - 1,
                                         std::memory_order_relaxed)) {
    }
    const uint32_t after = s > 0 ? s - 1 : 0;
    if (after <= exit_score && serialized_.load(std::memory_order_relaxed)) {
      bool expected = true;
      if (serialized_.compare_exchange_strong(expected, false,
                                              std::memory_order_relaxed)) {
        local_stats().storm_exits++;
        obs::trace_storm(false, after);
      }
    }
  }

  bool serialized() const noexcept {
    return serialized_.load(std::memory_order_relaxed);
  }

  uint32_t score() const noexcept {
    return score_.load(std::memory_order_relaxed);
  }

  void reset() noexcept {
    score_.store(0, std::memory_order_relaxed);
    serialized_.store(false, std::memory_order_relaxed);
  }

 private:
  static void register_site(StormState* s);  // retry.cpp

  std::atomic<uint32_t> score_{0};
  std::atomic<bool> serialized_{false};
};

// Drives one atomic block's retry sequence. Constructed per atomic() call;
// snapshots the config and the fault-injection switch once so the loop's
// per-attempt cost is a handful of predictable branches.
class RetryController {
 public:
  RetryController(const Config& cfg, StormState& storm) noexcept
      : cfg_(cfg),
        storm_(storm),
        backoff_(4, 2048),
        fault_on_(fault::injection_enabled()),
        block_(fault_on_ ? fault::begin_block() : 0),
        storm_on_(cfg.storm_detection && cfg.tle_after_aborts != 0 &&
                  !cfg.serialize_all) {
    if (crash::injection_enabled()) [[unlikely]] {
      crash::heartbeat();  // liveness signal for lock-recovery waiters
      crash_plan_ = crash::plan(crash::begin_block());
    }
  }

  uint32_t attempt() const noexcept { return attempt_; }

  // True when the next attempt must run under the fallback lock. Counts the
  // block's tle_entries the first time an *escalation* (not serialize_all)
  // reaches the lock.
  bool use_lock() noexcept {
    // A kLockHeld crash plan forces the block onto the fallback lock so the
    // thread deterministically dies while holding it.
    const bool force_lock =
        crash_plan_.fire && crash_plan_.point == crash::Point::kLockHeld;
    const bool lock = cfg_.serialize_all || escalated_ || force_lock ||
                      (storm_on_ && storm_.serialized());
    if (lock && !cfg_.serialize_all && !counted_entry_) {
      counted_entry_ = true;
      local_stats().tle_entries++;
    }
    return lock;
  }

  // Arms `txn` with this attempt's planned fault, if injection decides so.
  void arm_fault(Txn& txn) noexcept {
    if (fault_on_) [[unlikely]] {
      const fault::Decision d = fault::plan(block_, attempt_);
      if (d.fire) txn.arm_fault(d.code, d.after_ops);
    }
  }

  // Arms `txn` with this block's planned crash, if any. Called on both the
  // speculative and lock-mode paths: unlike faults, a crash can strike a
  // TLE holder (that case is the recoverable lock's whole reason to exist).
  void arm_crash(Txn& txn) noexcept {
    if (crash_plan_.fire) [[unlikely]] {
      txn.arm_crash(crash_plan_.point, crash_plan_.after_ops);
    }
  }

  // A speculative attempt aborted with `code`. Throws TxnOutOfMemory (and
  // only that) when a kAllocFailed streak exhausts its reclamation-wait
  // budget — the one exit from the retry loop that is not a commit.
  void on_abort(AbortCode code) {
    obs::record_retry(static_cast<uint8_t>(code), attempt_);
    ++attempt_;
    if (code == AbortCode::kAllocFailed) {
      on_alloc_failed();
      return;
    }
    if (code == AbortCode::kConflict && storm_on_) {
      storm_.note_abort(cfg_.storm_enter_score);
    }
    const bool tle = cfg_.tle_after_aborts != 0;
    if (is_spurious(code)) {
      // Transient: re-execute now. Still counts toward the backstop so a
      // sustained fault storm escalates instead of spinning forever.
      if (tle && attempt_ >= cfg_.tle_after_aborts) escalated_ = true;
      return;
    }
    if (code == AbortCode::kOverflow && tle) {
      // Deterministic: the same body re-executed will overflow again.
      escalated_ = true;
      return;
    }
    if (tle && attempt_ >= cfg_.tle_after_aborts) {
      escalated_ = true;
      return;
    }
    backoff_.pause();
  }

  // An attempt under the lock aborted (an explicit abort, or a commit whose
  // reads a strong-atomicity store changed); the block stays in lock mode and retries after a pause. Allocation can fail
  // under the lock too (the lock cannot conjure memory), so kAllocFailed
  // takes the same bounded-wait/escalate path as in speculative mode.
  void on_lock_abort(AbortCode code) {
    obs::record_retry(static_cast<uint8_t>(code), attempt_);
    ++attempt_;
    if (code == AbortCode::kAllocFailed) {
      on_alloc_failed();
      return;
    }
    backoff_.pause();
  }

  // The block committed (either mode). Updates the storm score, the
  // starvation high-water mark, and re-arms the backoff window (satellite
  // contract: one contended episode must not tax the caller's next block —
  // collect algorithms reuse long-lived Backoffs the same way).
  void on_commit() noexcept {
    if (storm_on_) storm_.note_commit(cfg_.storm_exit_score);
    if (attempt_ != 0) {
      TxnStats& st = local_stats();
      if (attempt_ > st.max_consec_aborts) st.max_consec_aborts = attempt_;
      backoff_.reset();
    }
  }

 private:
  // Bounded wait for reclamation: the streak counts consecutive alloc
  // failures that saw *no* probe movement; any progress re-arms the budget.
  // Never sets escalated_ — TLE is not an answer to an empty pool.
  void on_alloc_failed() {
    const uint64_t progress = reclaim_progress();
    if (alloc_fail_streak_ == 0 || progress != reclaim_snapshot_) {
      reclaim_snapshot_ = progress;
      alloc_fail_streak_ = 1;
    } else if (++alloc_fail_streak_ > cfg_.mem.alloc_retry_limit) {
      throw TxnOutOfMemory{};
    }
    backoff_.pause();
  }

  const Config& cfg_;
  StormState& storm_;
  util::Backoff backoff_;
  uint32_t attempt_ = 0;
  const bool fault_on_;
  const uint64_t block_;
  const bool storm_on_;
  crash::Decision crash_plan_{};
  bool escalated_ = false;
  bool counted_entry_ = false;
  uint64_t reclaim_snapshot_ = 0;
  uint32_t alloc_fail_streak_ = 0;
};

}  // namespace detail

// Resets every call-site's storm state (score and serialized flag). Tests
// call it between cases: the states are function-local statics, so a
// parameterized suite reusing one call-site would otherwise leak storm mode
// from one param to the next. Quiescent-only.
void reset_storm_sites() noexcept;

// Number of call-sites currently in the sticky serialized mode
// (diagnostics).
std::size_t storm_serialized_sites() noexcept;

}  // namespace dc::htm
