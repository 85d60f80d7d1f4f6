#include "htm/htm.hpp"

#include "htm/clock.hpp"
#include "htm/crash.hpp"
#include "util/backoff.hpp"
#include "util/padded.hpp"
#include "util/thread_id.hpp"

namespace dc::htm {

namespace detail {

uint64_t* tle_lock_word() noexcept {
  alignas(dc::util::kCacheLine) static uint64_t word = 0;
  return &word;
}

namespace {

// Owner-stamped lock encoding: free = 0, held = (epoch << 16) | (tid + 1).
// Every pre-existing "lock word != 0" check keeps working; the stamp names
// the holder so waiters can interrogate its liveness. tid + 1 keeps the
// word nonzero even for dense id 0 (kMaxThreads = 256 fits comfortably in
// 16 bits), and the incarnation epoch makes a stamp left by a dead thread
// recognizably orphaned even after the dense id is recycled.
uint64_t make_owner_word(crash::Token t) noexcept {
  return (t.epoch << 16) | (static_cast<uint64_t>(t.tid) + 1);
}

crash::Token owner_of(uint64_t word) noexcept {
  return crash::Token{static_cast<uint32_t>((word & 0xffffu) - 1),
                      word >> 16};
}

// Backoff rounds a waiter must observe an unchanged (stamp, heartbeat)
// pair before it treats the timeout as validated and consults the
// authoritative dead flag. Small: the flag check makes a premature timeout
// harmless, the rounds only exist so waiters do not hammer the registry.
constexpr uint32_t kRecoveryRounds = 4;

// Backoff rounds with a nonzero, unchanged lock word after which a waiter
// arms recovery even though every injection source reads quiet. An
// orphaned stamp can outlive the global dead count: the dead holder's
// dense id — and with it its liveness slot — may be recycled by a fresh
// thread before any waiter looks, and re-registration clears the slot's
// dead flag. The stamp on the word is then the only remaining evidence,
// so a validated stall must be allowed to arm the orphan check by itself.
// Large enough that ordinary handoff never trips it; tripping is harmless
// anyway (token_orphaned refuses to steal from the living).
constexpr uint32_t kSelfArmRounds = 64;

}  // namespace

void tle_acquire() noexcept {
  sched::checkpoint(sched::Kind::kLockAcquire);
  // Acquire the word with full conflict visibility (nontxn_cas bumps the
  // orec and global clock), then wait for in-flight commit write-backs to
  // drain. After the bump, no transaction can begin a new write-back:
  //  - transactions begun after the bump read the lock word as nonzero at
  //    begin and abort;
  //  - transactions begun before have the lock word's orec in their read
  //    set at a version now older than the bump, so commit validation (and
  //    load-time extension) fails.
  //
  // Recovery (htm/crash.hpp): when crash injection is (or recently was)
  // active, a waiter that watches the same owner stamp with an unmoving
  // heartbeat across kRecoveryRounds jittered-backoff rounds — a validated
  // timeout — checks the owner's authoritative dead flag and, if the owner
  // is gone, steals the lock by CASing the dead stamp back to 0. The dead
  // owner's buffered write set needs no undo: a crash always fires before
  // commit write-back, so nothing of it ever reached memory — discarding
  // it is exactly the hardware-checkpoint rollback the paper's substrate
  // provides. The steal CAS is ABA-safe: a dead incarnation can never
  // re-acquire (acquisition stamps a live token and death is permanent for
  // an epoch), so a word still equal to the orphaned stamp *is* the
  // abandoned lock.
  // Re-armed inside the loop, not latched at entry: a waiter that starts
  // spinning before the process's first crash (rate 0, no scripted deaths
  // yet) would otherwise never consult the dead flag, and a holder that
  // dies mid-hold would wedge it forever.
  bool recovery = crash::injection_enabled();
  const uint64_t mine = make_owner_word(crash::self_token());
  util::Backoff backoff(8, 1024);
  uint64_t watched = 0;       // owner stamp under observation
  uint64_t watched_hb = 0;    // its heartbeat when observation began
  uint32_t rounds_same = 0;   // backoff rounds with no movement
  for (;;) {
    if (nontxn_cas(tle_lock_word(), uint64_t{0}, mine)) break;
    if (!recovery) {
      recovery = crash::injection_enabled();
      if (!recovery) {
        // Quiet-world stall detection (see kSelfArmRounds).
        const uint64_t cur = nontxn_load(tle_lock_word());
        if (cur != 0 && cur == watched) {
          if (++rounds_same >= kSelfArmRounds) {
            recovery = true;
            watched = 0;
            rounds_same = 0;
          }
        } else {
          watched = cur;
          rounds_same = 0;
        }
      }
    }
    if (recovery) [[unlikely]] {
      crash::heartbeat();  // waiters stay visibly alive while spinning
      const uint64_t cur = nontxn_load(tle_lock_word());
      if (cur == 0) continue;  // freed under us: re-contend immediately
      const crash::Token owner = owner_of(cur);
      // An epoch-mismatched stamp can never become live again (epochs only
      // advance), and its slot's heartbeat now belongs to a *different*
      // incarnation — possibly this very waiter, if it inherited the dead
      // holder's recycled dense id. Treat such a stamp as frozen rather
      // than letting the new incarnation's pulse mask the orphan.
      const uint64_t hb =
          crash::token_orphaned(owner) ? 0 : crash::heartbeat_of(owner.tid);
      if (cur != watched || hb != watched_hb) {
        watched = cur;
        watched_hb = hb;
        rounds_same = 0;
      } else if (++rounds_same >= kRecoveryRounds) {
        rounds_same = 0;
        if (crash::token_orphaned(owner) &&
            nontxn_cas(tle_lock_word(), cur, uint64_t{0})) {
          // Decision point right after a successful steal: a replayed
          // schedule re-interleaves the thief's re-contention against
          // other waiters exactly.
          sched::checkpoint(sched::Kind::kLockSteal);
          local_stats().lock_recoveries++;
          obs::trace_lock_recovery(owner.tid, owner.epoch);
          continue;  // stolen back to free: re-contend immediately
        }
      }
    }
    backoff.pause();
  }
  backoff.reset();
  while (writeback_count().load(std::memory_order_acquire) != 0) {
    backoff.pause();
  }
}

void tle_release() noexcept {
  // Checkpoint *before* the CAS: the window where the holder has decided
  // to release but the word still carries its stamp is exactly where a
  // waiter's recovery logic must prove it cannot steal from the living.
  sched::checkpoint(sched::Kind::kLockRelease);
  // CAS of our own stamp rather than a blind store of 0: if a waiter stole
  // the lock (only possible when the holder is dead — and dead threads
  // skip release), a blind store would stomp the thief's ownership.
  const uint64_t mine = make_owner_word(crash::self_token());
  (void)nontxn_cas(tle_lock_word(), mine, uint64_t{0});
}

}  // namespace detail

void invalidate_range(void* p, std::size_t bytes, bool poison) noexcept {
  // Advance every ownership record covering the range, one at a time (never
  // holding two orec locks, so this cannot deadlock against a committing
  // transaction that locks its write set in sorted order).
  const auto start = reinterpret_cast<uintptr_t>(p) & ~uintptr_t{7};
  const auto end = reinterpret_cast<uintptr_t>(p) + bytes;
  const OrecValue mine = make_locked(~0ULL >> 1);
  const ClockPolicy policy = config().clock_policy;
  const uint64_t stride = util::thread_id() + 1;
  for (uintptr_t word = start; word < end; word += 8) {
    Orec& o = orec_for(reinterpret_cast<const void*>(word));
    util::Backoff backoff(2, 64);
    OrecValue cur = o.value.load(std::memory_order_relaxed);
    for (;;) {
      if (!orec_is_locked(cur) &&
          o.value.compare_exchange_weak(cur, mine,
                                        std::memory_order_acq_rel)) {
        break;
      }
      backoff.pause();
      cur = o.value.load(std::memory_order_relaxed);
    }
    if (poison && word >= reinterpret_cast<uintptr_t>(p) && word + 8 <= end) {
      detail::atomic_word_store(reinterpret_cast<uint64_t*>(word),
                                kPoisonWord);
    }
    const ClockStamp stamp =
        writer_stamp(policy, orec_version(cur), orec_version(cur), stride);
    o.value.store(make_version(stamp.wv), std::memory_order_release);
  }
}

}  // namespace dc::htm
