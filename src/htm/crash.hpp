// Deterministic thread-death injection and the liveness registry that lets
// survivors recover from it.
//
// PR 4's fault model (htm/fault.hpp) covers *aborting* threads: the attempt
// dies, the retry loop re-executes, and no state escapes. This layer covers
// *dying* threads — the hardest failure mode the paper's thesis speaks to
// (§1, §3: strong atomicity keeps reclamation safe even when participants
// misbehave). A crash kills the simulated thread at an arbitrary point by
// abandoning its state without cleanup: mid-transaction, at commit entry,
// or while holding the TLE fallback lock. The substrate's job is that none
// of this corrupts survivors:
//
//  * A crash always fires *before* commit write-back, so the enclosing
//    atomic block never commits — hardware rollback discards the buffered
//    write set and every single-transaction operation stays all-or-nothing.
//  * The TLE lock word is owner-stamped ((epoch << 16) | (tid + 1)); waiters
//    that observe a dead owner across a validated timeout steal the lock
//    (htm/htm.cpp, `lock_recoveries`).
//  * A dead thread's registered Collect handles are reaped by survivors via
//    the lease layer (collect/lease.hpp, `orphans_reaped`).
//
// Injection modes mirror fault.hpp and are combinable:
//
//  * Rate-based: Config::crash.rate is the per-atomic-block probability that
//    the block's owning thread dies inside it, drawn from a per-thread
//    stream seeded with Config::crash.seed mixed with the dense thread id.
//  * Scripted: set_script() installs explicit schedules ("kill thread t in
//    its n-th block at point p after m ops").
//  * Self-scheduled: schedule_self() arms a one-shot kill for the calling
//    thread only — the deterministic trigger tests use to die at an exact
//    point (e.g. while holding the TLE lock) without touching other threads.
//
// Only threads that opted in — by running inside run_victim() or calling
// enable_self() — are ever killed by rate or scripted draws. This keeps the
// test harness's main thread and a benchmark's measuring threads immortal
// under a global DC_CRASH rate.
//
// The crash itself is a crash::ThreadCrash exception thrown from inside the
// armed transaction. It is deliberately *not* derived from TxnAbort or
// std::exception: the substrate's wrappers rethrow it untouched (a crash is
// not an abort — no retry, no abort accounting), and run_victim() is the
// only intended catcher. Once a thread has crashed it is marked dead in the
// liveness registry and must not run further Collect operations.
#pragma once

#include <cstdint>
#include <vector>

namespace dc::htm::crash {

// Matches any thread / any block / any worker in a ScriptedCrash.
inline constexpr uint32_t kAnyThread = ~0u;
inline constexpr uint64_t kAnyBlock = ~0ull;
inline constexpr uint32_t kAnyWorker = ~0u;

// Where inside the atomic block the thread dies.
enum class Point : uint8_t {
  // From a transactional load/store after `after_ops` ops (or at commit
  // entry if the body issues fewer) — the mid-transaction death.
  kTxnOp = 0,
  // At commit() entry: the body ran to completion but the commit never
  // starts. Under the TLE lock this dies with the write set still buffered,
  // which is exactly the state a lock steal must be able to discard.
  kCommitEntry,
  // Force the block onto the TLE fallback lock first, then die inside it:
  // the thread is killed *while holding the lock*. Waiters must detect the
  // dead owner and steal the lock.
  kLockHeld,
};

const char* to_string(Point p) noexcept;

// The simulated thread death. Intentionally not a TxnAbort and not a
// std::exception: nothing in the substrate may absorb it by accident.
struct ThreadCrash {
  Point point = Point::kTxnOp;
};

// One scripted kill: crash the `block`-th atomic block begun on thread
// `tid` (counted from the last reset_thread() there) at `point`, after the
// block has issued `after_ops` transactional ops. Matches opted-in
// (run_victim/enable_self) threads only.
//
// `worker` addresses the kill by *logical worker index* instead of (or in
// addition to) the dense thread id: a service worker pool binds each
// member to a stable index via bind_worker(), and that binding survives the
// OS thread being respawned after a death — so "kill worker 3" stays
// meaningful across incarnations, which raw thread ids (recycled at thread
// exit) cannot promise. kAnyWorker (the default) keeps the pre-existing
// tid/block addressing semantics unchanged.
struct ScriptedCrash {
  uint32_t tid = kAnyThread;
  uint64_t block = kAnyBlock;
  Point point = Point::kTxnOp;
  uint32_t after_ops = 0;
  uint32_t worker = kAnyWorker;
};

// What plan() decided for one atomic block.
struct Decision {
  bool fire = false;
  Point point = Point::kTxnOp;
  uint32_t after_ops = 0;
};

// Identifies one incarnation of a dense thread id. The epoch disambiguates
// id recycling: a new OS thread that inherits a dead thread's dense id
// bumps the slot's epoch, so stale tokens (lease entries, the stamped TLE
// lock word) remain recognizably orphaned.
struct Token {
  uint32_t tid = 0;
  uint64_t epoch = 0;
  friend bool operator==(const Token&, const Token&) = default;
};

// True when any injection source is active (rate > 0, a script installed,
// a pending self-schedule, or a dead thread whose mess may still need
// recovery). Snapshotted once per block / lock acquisition so the
// injection-off hot path costs one predictable branch.
bool injection_enabled() noexcept;

// Returns the calling thread's crash-block index (post-incrementing the
// per-thread counter, separate from fault::begin_block's).
uint64_t begin_block() noexcept;

// Decides whether the calling thread dies in this block. Self-schedules
// match first, then scripted entries, then the rate draw; scripted and
// rate kills hit opted-in threads only.
Decision plan(uint64_t block) noexcept;

// Installs (replaces) the scripted schedule. Quiescent-only, like
// fault::set_script. An empty vector clears the script.
void set_script(std::vector<ScriptedCrash> script);
void clear_script();

// Arms a one-shot kill for the calling thread: die at `point` in the
// atomic block begun `blocks_from_now` blocks from now (0 = the next
// block), after `after_ops` transactional ops. Implies opt-in for that one
// kill even outside run_victim().
void schedule_self(Point point, uint64_t blocks_from_now = 0,
                   uint32_t after_ops = 0) noexcept;

// Marks the calling thread kill-eligible for rate/scripted draws until it
// dies or reset_thread() runs.
void enable_self() noexcept;

// ----- Worker addressing + runtime kill mailbox ----------------------------
// set_script() is quiescent-only, which is fine for tests but useless to a
// chaos orchestrator that wants to kill a worker *while the service runs*.
// The mailbox is the runtime-safe alternative: one atomic slot per logical
// worker index, armed by any thread at any time and consumed by the bound
// worker at its next atomic block. Pending kills turn injection_enabled()
// on, so an otherwise-injection-free run still takes the instrumented path
// the moment a kill is requested.

// Binds the calling thread to logical worker index `widx` (< kMaxWorkers)
// AND marks it kill-eligible — the pool-construction-time opt-in: call once
// when the worker starts instead of threading run_victim's per-call opt-in
// through every operation. The binding is thread-local and cleared by
// reset_thread(); a respawned worker re-binds the same index.
inline constexpr uint32_t kMaxWorkers = 256;
void bind_worker(uint32_t widx) noexcept;

// The calling thread's bound worker index, or kAnyWorker if unbound.
uint32_t bound_worker() noexcept;

// Arms a one-shot kill for whichever opted-in thread is currently bound to
// `widx`: it fires at that worker's next atomic block, at `point`, after
// `after_ops` transactional ops. `after_blocks` defers the death: the
// consuming block converts the kill into a self-schedule that fires that
// many atomic blocks later (an idle worker consumes the mailbox on its
// next session's first block — admission — where death orphans nothing;
// a small deferral lands the kill mid-session with a lease held). Both
// counts are truncated to 16 bits. Safe from any thread while the victim
// runs (one relaxed exchange on the victim's slot). Re-arming an already
// armed slot overwrites the pending kill. Returns false for an
// out-of-range index.
bool request_worker_kill(uint32_t widx, Point point = Point::kTxnOp,
                         uint32_t after_ops = 0,
                         uint32_t after_blocks = 0) noexcept;

// Number of armed worker kills not yet consumed.
uint32_t worker_kills_pending() noexcept;

// Runs `body` on the calling thread with kill-eligibility enabled and
// absorbs a ThreadCrash: returns true if the body completed, false if it
// crashed. After a crash the thread is dead (self_dead()) and must not run
// further Collect operations; locks it abandoned are recoverable by
// survivors.
template <typename Body>
bool run_victim(Body&& body) {
  enable_self();
  try {
    body();
    return true;
  } catch (const ThreadCrash&) {
    return false;
  }
}

// ----- Liveness registry ---------------------------------------------------
// One padded slot per dense thread id: a heartbeat the thread bumps while
// injection is enabled, the incarnation epoch, and the authoritative dead
// flag set when a crash fires (the simulator knows death exactly, like a
// robust futex's owner-died bit; the heartbeat exists so waiters validate a
// timeout instead of trusting a single racy read).

// Bumps the calling thread's heartbeat (registering its slot on first use).
void heartbeat() noexcept;

// Current heartbeat / epoch of a dense thread id.
uint64_t heartbeat_of(uint32_t tid) noexcept;
uint64_t epoch_of(uint32_t tid) noexcept;

// The calling thread's (tid, epoch) token.
Token self_token() noexcept;

// True if the incarnation named by the token is gone: its dead flag is set,
// or its slot's epoch moved on (the id was recycled by a new thread).
bool token_orphaned(Token t) noexcept;

// True if the incarnation currently holding dense id `tid` is dead.
bool is_dead(uint32_t tid) noexcept;

// Marks the calling thread dead. Called by the crash machinery; exposed for
// tests that simulate death without a transaction in flight.
void mark_dead() noexcept;

// True if the calling thread has crashed.
bool self_dead() noexcept;

// Rezeroes the calling thread's block counter, re-seeds its draw stream,
// clears any pending self-schedule, and revives the thread (fresh epoch).
// Tests call it so scripts address blocks relative to the test's start.
void reset_thread() noexcept;

// Clears the script and revives every slot (fresh epochs, dead flags
// cleared, dead-count zeroed). Quiescent-only; tests call it between runs.
void reset_all() noexcept;

}  // namespace dc::htm::crash
