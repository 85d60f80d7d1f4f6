// Per-thread transaction-lifecycle event trace.
//
// Each thread records into its own fixed-capacity ring buffer (kRingSize
// events, overwriting the oldest), so a long run keeps the *most recent*
// window — the part that matters when diagnosing an abort storm after the
// fact. Events are 24-byte PODs stamped with the TSC; the exporter
// (export.hpp) pairs begin/end events into Chrome trace-event "complete"
// spans loadable in Perfetto / chrome://tracing.
//
// Emission is through the inline wrappers at the bottom of this header;
// they compile to nothing unless the build defines DC_TRACE (see obs.hpp
// for the gating story). The wrappers are what the instrumented layers
// (htm/, collect/telescope.hpp, memory/pool.cpp) call; detail::emit is the
// always-compiled core that tests drive directly.
//
// Threading contract: a ring is written only by its owning thread.
// snapshot_events()/clear_trace() read/write all rings and must run while
// recording threads are quiescent (benchmarks join workers first).
#pragma once

#include <cstdint>
#include <vector>

#include "obs/obs.hpp"

namespace dc::obs {

enum class EventKind : uint8_t {
  kTxnBegin = 0,   // a = 1 if lock-mode (TLE/serial) attempt
  kTxnCommit,      // a = read-set size, b = write-set size, c = attempt #
  kTxnAbort,       // code = AbortCode, a/b/c as for kTxnCommit
  kTleFallback,    // a = attempt # at which the block fell back to the lock
  kStepChange,     // code = StepChange reason, a = old step, b = new step
  kPoolAlloc,      // a = block bytes (size class)
  kPoolRecycle,    // a = block bytes (size class)
  kClockResample,  // a = old read version (low 32 bits), b = new read
                   // version (low 32 bits), c = read-set size revalidated
  kFaultInjected,  // code = injected AbortCode, a = attempt #, b = ops
                   // survived before the abort fired
  kStormEnter,     // a = contention score at entry (htm/retry.hpp)
  kStormExit,      // a = contention score at exit
  kCrashInjected,  // code = crash::Point, a = ops survived, b = 1 if the
                   // dying attempt held the TLE lock
  kLockRecovery,   // a = dead owner's dense tid, b = owner epoch (low 32)
  kOrphanReap,     // a = handles reaped, b = dead owner's dense tid
  kNumKinds,
};

const char* to_string(EventKind kind) noexcept;

// Reasons carried in TraceEvent::code for kStepChange events.
enum class StepChange : uint8_t {
  kSet = 0,  // explicit set_step (benchmark configuration)
  kGrow,     // adaptive doubling (§3.4: counter > grow_threshold)
  kShrink,   // adaptive halving (§3.4: counter < shrink_threshold)
};

struct TraceEvent {
  uint64_t tsc;    // util::rdcycles() at emission
  uint32_t a = 0;  // payload, per EventKind above
  uint32_t b = 0;
  uint32_t c = 0;
  EventKind kind = EventKind::kTxnBegin;
  uint8_t code = 0;  // AbortCode / StepChange reason
  uint16_t tid = 0;  // util::thread_id() of the recording thread
};
static_assert(sizeof(TraceEvent) == 24);

// Events retained per thread (ring capacity). 2^15 events = 768 KiB per
// recording thread; at benchmark op rates this is the last ~10-100 ms of
// activity, which comfortably covers an abort storm's onset.
inline constexpr std::size_t kRingSizeLog2 = 15;
inline constexpr std::size_t kRingSize = std::size_t{1} << kRingSizeLog2;

namespace detail {

// Records one event into the calling thread's ring (always compiled; the
// DC_TRACE gate lives in the inline wrappers below). Does not check
// tracing_enabled() — callers gate first so the closed-switch path stays
// a load and a branch.
void emit(EventKind kind, uint8_t code, uint32_t a, uint32_t b,
          uint32_t c) noexcept;

}  // namespace detail

// All retained events across all threads (including exited ones), in
// per-ring emission order, merged by timestamp. Quiescent-only.
std::vector<TraceEvent> snapshot_events();

// Total events ever emitted (monotonic; exceeds the snapshot size once any
// ring has wrapped). Quiescent-only.
uint64_t events_emitted() noexcept;

// Discards all retained events and zeroes the emission counter.
// Quiescent-only.
void clear_trace() noexcept;

// ---- DC_TRACE-gated emission wrappers (the substrate's call sites) ----
//
// Each compiles to nothing without DC_TRACE; with it, the closed-switch
// cost is tracing_enabled() + branch.

inline void trace_txn_begin([[maybe_unused]] bool lock_mode) noexcept {
#if defined(DC_TRACE)
  if (tracing_enabled()) {
    detail::emit(EventKind::kTxnBegin, 0, lock_mode ? 1u : 0u, 0, 0);
  }
#endif
}

inline void trace_txn_commit([[maybe_unused]] uint32_t read_set,
                             [[maybe_unused]] uint32_t write_set,
                             [[maybe_unused]] uint32_t attempt) noexcept {
#if defined(DC_TRACE)
  if (tracing_enabled()) {
    detail::emit(EventKind::kTxnCommit, 0, read_set, write_set, attempt);
  }
#endif
}

inline void trace_txn_abort([[maybe_unused]] uint8_t abort_code,
                            [[maybe_unused]] uint32_t read_set,
                            [[maybe_unused]] uint32_t write_set,
                            [[maybe_unused]] uint32_t attempt) noexcept {
#if defined(DC_TRACE)
  if (tracing_enabled()) {
    detail::emit(EventKind::kTxnAbort, abort_code, read_set, write_set,
                 attempt);
  }
#endif
}

inline void trace_tle_fallback([[maybe_unused]] uint32_t attempt) noexcept {
#if defined(DC_TRACE)
  if (tracing_enabled()) {
    detail::emit(EventKind::kTleFallback, 0, attempt, 0, 0);
  }
#endif
}

inline void trace_step_change([[maybe_unused]] StepChange reason,
                              [[maybe_unused]] uint32_t old_step,
                              [[maybe_unused]] uint32_t new_step) noexcept {
#if defined(DC_TRACE)
  if (tracing_enabled()) {
    detail::emit(EventKind::kStepChange, static_cast<uint8_t>(reason),
                 old_step, new_step, 0);
  }
#endif
}

// A load observed a version ahead of the snapshot and the transaction
// re-sampled + revalidated instead of aborting (GV5's absorb path; TL2
// timestamp extension under GV1).
inline void trace_clock_resample([[maybe_unused]] uint32_t old_rv,
                                 [[maybe_unused]] uint32_t new_rv,
                                 [[maybe_unused]] uint32_t read_set) noexcept {
#if defined(DC_TRACE)
  if (tracing_enabled()) {
    detail::emit(EventKind::kClockResample, 0, old_rv, new_rv, read_set);
  }
#endif
}

// The fault injector (htm/fault.hpp) hit this attempt with a spurious abort
// `code` after it had issued `ops_survived` transactional loads/stores.
inline void trace_fault_injected([[maybe_unused]] uint8_t code,
                                 [[maybe_unused]] uint32_t attempt,
                                 [[maybe_unused]] uint32_t ops_survived)
    noexcept {
#if defined(DC_TRACE)
  if (tracing_enabled()) {
    detail::emit(EventKind::kFaultInjected, code, attempt, ops_survived, 0);
  }
#endif
}

// An atomic call-site crossed the abort-storm detector's hysteresis band
// (htm/retry.hpp): entered the sticky serialized mode (enter=true) or left
// it after commits drained the contention score.
inline void trace_storm([[maybe_unused]] bool enter,
                        [[maybe_unused]] uint32_t score) noexcept {
#if defined(DC_TRACE)
  if (tracing_enabled()) {
    detail::emit(enter ? EventKind::kStormEnter : EventKind::kStormExit, 0,
                 score, 0, 0);
  }
#endif
}

// The crash injector (htm/crash.hpp) killed this thread: `point` is the
// crash::Point, `ops_survived` how many transactional ops the dying attempt
// issued, `lock_held` whether it died holding the TLE fallback lock.
inline void trace_crash_injected([[maybe_unused]] uint8_t point,
                                 [[maybe_unused]] uint32_t ops_survived,
                                 [[maybe_unused]] bool lock_held) noexcept {
#if defined(DC_TRACE)
  if (tracing_enabled()) {
    detail::emit(EventKind::kCrashInjected, point, ops_survived,
                 lock_held ? 1u : 0u, 0);
  }
#endif
}

// A waiter stole the TLE fallback lock from a dead owner after a validated
// timeout (htm/htm.cpp recoverable-lock protocol).
inline void trace_lock_recovery([[maybe_unused]] uint32_t owner_tid,
                                [[maybe_unused]] uint64_t owner_epoch)
    noexcept {
#if defined(DC_TRACE)
  if (tracing_enabled()) {
    detail::emit(EventKind::kLockRecovery, 0, owner_tid,
                 static_cast<uint32_t>(owner_epoch), 0);
  }
#endif
}

// A survivor-run reaper DeRegistered `count` orphaned handles left by the
// dead incarnation of dense thread `owner_tid` (collect/lease.hpp).
inline void trace_orphan_reap([[maybe_unused]] uint32_t count,
                              [[maybe_unused]] uint32_t owner_tid) noexcept {
#if defined(DC_TRACE)
  if (tracing_enabled()) {
    detail::emit(EventKind::kOrphanReap, 0, count, owner_tid, 0);
  }
#endif
}

inline void trace_pool_event([[maybe_unused]] bool is_alloc,
                             [[maybe_unused]] uint32_t bytes) noexcept {
#if defined(DC_TRACE)
  if (tracing_enabled()) {
    detail::emit(is_alloc ? EventKind::kPoolAlloc : EventKind::kPoolRecycle,
                 0, bytes, 0, 0);
  }
#endif
}

}  // namespace dc::obs
