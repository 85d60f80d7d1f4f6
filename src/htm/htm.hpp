// Public API of the simulated hardware transactional memory.
//
//   htm::atomic([&](htm::Txn& txn) { ... });   // the paper's `atomic {}`
//
// The body runs speculatively; on conflict/overflow it is re-executed after
// backoff. If Config::tle_after_aborts consecutive attempts fail, the block
// runs under a global fallback lock (Transactional Lock Elision, paper §6).
// The body must therefore be written to be re-executable: no side effects
// outside txn.load/txn.store except on memory it owns exclusively, and any
// transaction-private accumulation (e.g. a Collect result set) must be reset
// at the top of the body or managed by the caller.
//
// Strong atomicity (paper §6): nontxn_store makes a non-transactional store
// that conflicts correctly with concurrent transactions; nontxn_load is a
// plain atomic load (single-word, may observe "flickering" values, which is
// exactly the latitude the Dynamic Collect spec grants).
#pragma once

#include <optional>
#include <type_traits>
#include <utility>

#include "htm/abort.hpp"
#include "htm/clock.hpp"
#include "htm/config.hpp"
#include "htm/crash.hpp"
#include "htm/retry.hpp"
#include "htm/stats.hpp"
#include "htm/txn.hpp"
#include "obs/histogram.hpp"
#include "util/backoff.hpp"
#include "util/cycles.hpp"
#include "util/thread_id.hpp"

namespace dc::htm {

namespace detail {

// The TLE fallback lock word. Transactions read it (transactionally) at
// begin; the acquirer bumps its orec, which dooms every in-flight
// transaction, then waits for in-flight write-backs to drain.
uint64_t* tle_lock_word() noexcept;
void tle_acquire() noexcept;
void tle_release() noexcept;

}  // namespace detail

// Non-transactional (strong-atomicity) store: acquires the word's ownership
// record, stores, and releases it at a fresh version, so concurrent
// transactions that read the word abort rather than miss the update.
template <TxnWord T>
void nontxn_store(T* addr, T value) noexcept {
  Orec& o = orec_for(addr);
  const OrecValue mine = make_locked(~0ULL >> 1);  // anonymous owner token
  util::Backoff backoff(2, 64);
  OrecValue cur = o.value.load(std::memory_order_relaxed);
  for (;;) {
    if (!orec_is_locked(cur) &&
        o.value.compare_exchange_weak(cur, mine, std::memory_order_acq_rel)) {
      break;
    }
    backoff.pause();
    cur = o.value.load(std::memory_order_relaxed);
  }
  detail::atomic_word_store(addr, value);
  // Release at a policy-stamped fresh version: under GV1 this is the
  // classic fetch_add; under GV5 the store stays off the shared clock and
  // stamps past the replaced version instead.
  const ClockStamp stamp =
      writer_stamp(config().clock_policy, orec_version(cur),
                   orec_version(cur), util::thread_id() + 1);
  o.value.store(make_version(stamp.wv), std::memory_order_release);
  local_stats().nontxn_stores++;
}

// Non-transactional compare-and-swap with the same conflict visibility as
// nontxn_store. Used by the TLE lock and by non-HTM baseline algorithms
// that share data with transactions.
template <TxnWord T>
bool nontxn_cas(T* addr, T expected, T desired) noexcept {
  Orec& o = orec_for(addr);
  const OrecValue mine = make_locked(~0ULL >> 1);
  util::Backoff backoff(2, 64);
  OrecValue cur = o.value.load(std::memory_order_relaxed);
  for (;;) {
    if (!orec_is_locked(cur) &&
        o.value.compare_exchange_weak(cur, mine, std::memory_order_acq_rel)) {
      break;
    }
    backoff.pause();
    cur = o.value.load(std::memory_order_relaxed);
  }
  const T observed = detail::atomic_word_load(addr);
  if (observed != expected) {
    // Failed CAS: memory unchanged, orec restored.
    o.value.store(cur, std::memory_order_release);
    return false;
  }
  detail::atomic_word_store(addr, desired);
  const ClockStamp stamp =
      writer_stamp(config().clock_policy, orec_version(cur),
                   orec_version(cur), util::thread_id() + 1);
  o.value.store(make_version(stamp.wv), std::memory_order_release);
  return true;
}

// Non-transactional load. Single-word atomic; values written by an
// in-flight commit may be observed the instant they are written back.
template <TxnWord T>
T nontxn_load(const T* addr) noexcept {
  return detail::atomic_word_load(addr);
}

// Dooms any in-flight transaction that has read a word in [p, p+bytes) by
// advancing the covering ownership records. The pool allocator calls this
// on deallocation — it is the mechanism behind the sandboxing guarantee
// that a transaction dereferencing freed memory aborts instead of faulting.
//
// When `poison` is true, each fully-covered 8-byte word is overwritten with
// 0xDD bytes *under its ownership-record lock*, so the poisoning itself is
// correctly versioned: a transaction either reads the pre-free value at a
// read version that predates the free (and is serialized before it), or
// observes the version bump and aborts. Poison lets tests catch
// non-transactional use-after-free, which the orec mechanism cannot see.
void invalidate_range(void* p, std::size_t bytes, bool poison = false) noexcept;

inline constexpr uint64_t kPoisonWord = 0xDDDDDDDDDDDDDDDDULL;

// Exclusive, non-speculative execution section: acquires the global
// fallback lock, dooms in-flight transactions, and blocks new ones from
// committing until destruction. The §6 escape hatch for operations that
// cannot make progress speculatively (e.g. a FastCollect traversal starved
// by deregister churn): inside the section, shared state may be read with
// nontxn_load at full fidelity. It is also the lock every lock-mode attempt
// of atomic()/try_once() runs under.
class SerialSection {
 public:
  SerialSection() { detail::tle_acquire(); }
  // A thread killed by the crash injector abandons, not releases, the lock
  // (survivors steal it via the recoverable-lock protocol); releasing here
  // would hand the thief's ownership away.
  ~SerialSection() {
    if (!crash::self_dead()) detail::tle_release();
  }
  SerialSection(const SerialSection&) = delete;
  SerialSection& operator=(const SerialSection&) = delete;
};

// Outcome of a single transaction attempt (for callers that drive their own
// retry policy, e.g. the adaptive telescoping controller of §3.4).
struct TryResult {
  bool committed;
  AbortCode code;  // kNone when committed
};

namespace detail {

// Runs `body` as one attempt, in the mode the controller hands out, and
// returns kNone if it committed or the abort code if it did not. This is
// the only place a block body runs, so it is the one begin and the one
// abort site of every atomic block (Rock's `chkpt <fail-pc>`, paper §6):
//   - a lock-mode attempt holds the fallback lock for the attempt only, so
//     an abort under the lock releases it before the controller's pause;
//   - a non-TxnAbort exception escaping the body dooms the attempt (orec
//     locks released, buffered stores discarded, abort hooks run) and
//     propagates without reaching the controller: no retry;
//   - a crash::ThreadCrash is a dying thread, not a doomed attempt: it
//     passes through with no abort ledger, abandoning a held lock.
// The attempt's Txn is destroyed (abort hooks returning in-txn
// allocations) before the controller sees the outcome.
template <class F>
AbortCode run_attempt(RetryController& rc, F& body) {
  const bool lock = rc.use_lock();
  AbortCode code = AbortCode::kNone;
  {
    std::optional<SerialSection> serial;
    if (lock) serial.emplace();
    Txn txn(lock);
    try {
      rc.begin(txn);
      // A speculative attempt reads the lock word, so a lock acquisition
      // anywhere dooms it.
      if (!lock && txn.load(tle_lock_word()) != 0) {
        txn.abort(AbortCode::kConflict);
      }
      body(txn);
#if defined(DC_TRACE)
      // Commit-duration histogram: committing speculative attempts only (a
      // validation failure unwinds past the sample).
      const uint64_t c0 = util::rdcycles();
      txn.commit();
      if (!lock && obs::timing_enabled()) {
        obs::record_op(obs::OpKind::kCommit, util::rdcycles() - c0);
      }
#else
      txn.commit();
#endif
    } catch (const TxnAbort& a) {
      code = a.code;
    } catch (const crash::ThreadCrash&) {
      throw;
    } catch (...) {
      txn.doom();
      throw;
    }
  }
  if (code == AbortCode::kNone) {
    rc.on_commit();
  } else {
    rc.on_abort(code);
  }
  return code;
}

}  // namespace detail

// Runs `body` as exactly one transaction attempt (no retry, no TLE).
// `body` must be void(Txn&). Callers drive their own retry loops, so the
// fault injector treats each call as a one-attempt block, and a non-TxnAbort
// exception escaping the body dooms the attempt before propagating. Under
// Config::serialize_all the attempt runs under the fallback lock.
template <class F>
TryResult try_once(F&& body) {
  const Config& cfg = config();
  if (!cfg.serialize_all && nontxn_load(detail::tle_lock_word()) != 0) {
    // The fallback lock is held: a transaction begun now would abort at
    // its read of the lock word. Report that without beginning one (and
    // without drawing this block's injection plans).
    TxnStats& st = local_stats();
    st.aborts++;
    st.aborts_by_code[static_cast<std::size_t>(AbortCode::kConflict)]++;
    return TryResult{false, AbortCode::kConflict};
  }
  detail::RetryController rc(cfg, nullptr);
  const AbortCode code = detail::run_attempt(rc, body);
  return TryResult{code == AbortCode::kNone, code};
}

// Runs `body` atomically, retrying until it commits. How each failed
// attempt is retried — immediately, after jittered backoff, or escalated to
// the fallback lock — is decided by the cause-aware retry controller
// (htm/retry.hpp).
// Each call-site additionally owns a sticky abort-storm state: under
// sustained conflict the whole site degrades to serialized (TLE) execution
// and recovers once commits return. Returns the body's return value. This
// is the `atomic { ... }` of the paper's pseudocode.
//
// A non-TxnAbort exception thrown by the body dooms the attempt (orec locks
// released, buffered stores discarded, abort hooks run) and then propagates
// to the caller — the block is NOT retried; rethrowing out of an atomic
// block is the supported way to bail out with a user error.
template <class F>
decltype(auto) atomic(F&& body) {
  using Result = std::invoke_result_t<F&, Txn&>;
  // One storm state per call-site: each distinct body lambda instantiates
  // its own copy of this template, so the static is per-source-location.
  static detail::StormState storm;
  detail::RetryController rc(config(), &storm);
  if constexpr (std::is_void_v<Result>) {
    while (detail::run_attempt(rc, body) != AbortCode::kNone) {
    }
  } else {
    // Every attempt refills the slot; the committed one's value is returned.
    std::optional<Result> result;
    auto fill = [&](Txn& txn) { result.emplace(body(txn)); };
    while (detail::run_attempt(rc, fill) != AbortCode::kNone) {
    }
    return Result(std::move(*result));
  }
}

}  // namespace dc::htm
