#include "htm/txn.hpp"

#include <bit>
#include <thread>

#include "htm/clock.hpp"
#include "htm/stats.hpp"
#include "obs/conflict_map.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "util/backoff.hpp"
#include "util/cycles.hpp"
#include "util/thread_id.hpp"

namespace dc::htm {

namespace {

thread_local bool t_in_transaction = false;

}  // namespace

bool in_transaction() noexcept { return t_in_transaction; }

void Txn::yield_now() {
  // Under the deterministic scheduler an OS yield is meaningless (no
  // other logical thread is runnable); hand the decision to the policy.
  if (sched::active()) {
    sched::checkpoint(sched::Kind::kYield);
    return;
  }
  std::this_thread::yield();
}

namespace detail {
void set_in_transaction(bool v) noexcept { t_in_transaction = v; }
}  // namespace detail

Txn::Scratch& Txn::Scratch::get() noexcept {
  thread_local Scratch s;
  return s;
}

Txn::Txn(bool lock_mode) : Txn(lock_mode, config(), Scratch::get()) {}

Txn::Txn(bool lock_mode, const Config& cfg, Scratch& s)
    : rv_(global_clock().load(std::memory_order_acquire)),
      // The token is the orec lock-owner id and the GV5 stamp stride;
      // both only need uniqueness among concurrently running threads.
      // Under the deterministic scheduler the run-local logical index is
      // used instead of the dense thread id, whose assignment depends on
      // process history — with it, GV5's tid-striped sloppy stamps would
      // differ between a recording and its replay.
      my_token_(sched::active()
                    ? static_cast<uint64_t>(sched::self_index()) + 1
                    : static_cast<uint64_t>(util::thread_id()) + 1),
      orec_table_(orec_table()),
      store_capacity_(cfg.store_buffer_capacity),
      yield_every_(cfg.txn_yield_every_loads),
      granularity_log2_(cfg.conflict_granularity_log2),
      clock_policy_(cfg.clock_policy),
      extension_enabled_(cfg.enable_extension),
      coalesce_(cfg.enable_write_coalescing &&
                std::endian::native == std::endian::little),
      lock_mode_(lock_mode),
      s_(s),
      epoch_(++s.epoch) {
  assert(!t_in_transaction && "nested atomic blocks are not supported");
  t_in_transaction = true;
  s_.read_set.clear();
  s_.write_set.clear();
  s_.locked.clear();
  s_.abort_hooks.clear();
  if (lock_mode) s_.lock_reads.clear();
  obs::trace_txn_begin(lock_mode);
}

Txn::~Txn() {
  // Leave the transaction context first: abort hooks (e.g. a TM-aware
  // allocator returning a block) are entitled to use the allocator.
  t_in_transaction = false;
  TxnStats& st = local_stats();
  if (s_.read_set.size() > st.max_read_set) st.max_read_set = s_.read_set.size();
  if (s_.write_set.size() > st.max_write_set) {
    st.max_write_set = s_.write_set.size();
  }
  if (committed_) {
    obs::trace_txn_commit(read_set_size(), write_set_size(), trace_attempt_);
  } else {
    obs::trace_txn_abort(static_cast<uint8_t>(last_abort_), read_set_size(),
                         write_set_size(), trace_attempt_);
#if defined(DC_TRACE)
    // Conflict attribution: charge the abort to the culprit orec under the
    // recording thread's context (the benchmark driver labels it with the
    // running Collect algorithm).
    if (last_abort_ == AbortCode::kConflict && conflict_orec_ != nullptr &&
        obs::conflicts_enabled()) {
      obs::record_conflict(
          static_cast<uint64_t>(conflict_orec_ - orec_table_));
    }
#endif
    for (const AbortHook& h : s_.abort_hooks) h.fn(h.p, h.bytes);
  }
  s_.abort_hooks.clear();
}

void Txn::on_abort(void (*fn)(void*, std::size_t), void* p,
                   std::size_t bytes) {
  s_.abort_hooks.push_back(AbortHook{fn, p, bytes});
}

void Txn::abort(AbortCode code) {
  last_abort_ = code;
  rollback_locks();
  throw TxnAbort{code};
}

void Txn::fire_fault() {
  // A schedule decision point: the injected abort is part of the recorded
  // interleaving, so a replayed schedule re-fires it at the same step.
  sched::checkpoint(sched::Kind::kFaultFire);
  // The armed spurious abort strikes: disarm first (abort() must not
  // re-enter), account it, and unwind like any other abort.
  fault_armed_ = false;
  local_stats().faults_injected++;
  obs::trace_fault_injected(static_cast<uint8_t>(fault_code_),
                            trace_attempt_, fault_ops_done_);
  abort(fault_code_);
}

void Txn::fire_crash() {
  sched::checkpoint(sched::Kind::kCrashFire);
  // The thread dies here: no commit, no retry. Deliberately *not* counted
  // as an abort (aborts/aborts_by_code stay the retry loop's ledger); the
  // destructor still runs — modelling the hardware discarding the
  // checkpoint — so buffered stores vanish and abort hooks return in-txn
  // allocations that were never published.
  crash_armed_ = false;
  last_abort_ = AbortCode::kExplicit;  // forensics: attempt did not commit
  local_stats().crashes_injected++;
  obs::trace_crash_injected(static_cast<uint8_t>(crash_point_),
                            crash_ops_done_, lock_mode_);
  crash::mark_dead();
  throw crash::ThreadCrash{crash_point_};
}

void Txn::doom() noexcept {
  // A user exception is unwinding through the wrapper: release held orec
  // locks (a commit-time validation failure may have left none, but the
  // body could also have been interrupted mid-acquire in a future
  // refactor — rollback_locks is idempotent) and record the attempt as an
  // explicit abort so the destructor's trace/abort-hook path runs and the
  // aborts_by_code sum stays equal to aborts.
  rollback_locks();
  last_abort_ = AbortCode::kExplicit;
  TxnStats& st = local_stats();
  st.aborts++;
  st.aborts_by_code[static_cast<std::size_t>(AbortCode::kExplicit)]++;
}

bool Txn::try_extend(uint64_t observed) noexcept {
  if (!extension_enabled_) return false;
  // Re-sample rule: raise the shared clock to cover the observed version
  // (GV5 sloppy stamps run ahead of it) before this snapshot may adopt it.
  const uint64_t new_rv = resample_clock(observed);
  // Extension is sound only if nothing already read has changed since it
  // was read: the walk runs at the OLD rv_ (not yet advanced), so it also
  // catches a writer whose sloppy stamp new_rv is about to absorb.
  if (validate_reads() != nullptr) return false;
  local_stats().clock_resamples++;
  obs::trace_clock_resample(static_cast<uint32_t>(rv_),
                            static_cast<uint32_t>(new_rv),
                            read_set_size());
  rv_ = new_rv;
  return true;
}

Orec* Txn::validate_read_set() const noexcept {
  const OrecValue mine = make_locked(my_token_);
  for (Orec* o : s_.read_set) {
    const OrecValue v = o->value.load(std::memory_order_acquire);
    if (v == mine) {
      // Read-write overlap: this transaction holds the lock, so the live
      // value cannot be compared; validate the version captured when the
      // lock was acquired instead. (Skipping this check would let a commit
      // that slipped in between our read and our lock acquisition be
      // silently overwritten — a lost update.)
      const OrecValue before = pre_lock_version(o);
      if (orec_version(before) > rv_) return o;
      continue;
    }
    if (orec_is_locked(v) || orec_version(v) > rv_) return o;
  }
  return nullptr;
}

Orec* Txn::validate_reads() const noexcept {
#if defined(DC_TRACE)
  // Per-validation latency probe, same gate and bucket schema as the commit
  // histogram.
  if (obs::timing_enabled()) {
    const uint64_t c0 = util::rdcycles();
    Orec* const bad = validate_read_set();
    obs::record_op(obs::OpKind::kValidate, util::rdcycles() - c0);
    return bad;
  }
#endif
  return validate_read_set();
}

OrecValue Txn::pre_lock_version(const Orec* o) const noexcept {
  // s_.locked is sorted by orec pointer (maintained by note_write_orec).
  auto lo = s_.locked.begin();
  auto hi = s_.locked.end();
  while (lo < hi) {
    auto mid = lo + (hi - lo) / 2;
    if (mid->orec < o) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == s_.locked.end() || lo->orec != o) {
    // Cannot happen (every orec locked with my token is in s_.locked), but
    // fail safe by reporting an impossible version so validation aborts.
    assert(false && "orec locked by this txn missing from lock list");
    return make_version(~0ULL >> 1);
  }
  return lo->previous;
}

void Txn::acquire_write_locks() {
  // s_.locked already holds the distinct orecs covering the write set in a
  // global order (table address, maintained at store() time), so concurrent
  // committers cannot deadlock and no commit-time sort is needed.
  const OrecValue mine = make_locked(my_token_);
  max_prev_ = 0;
  for (std::size_t i = 0; i < s_.locked.size(); ++i) {
    Orec* o = s_.locked[i].orec;
    util::Backoff backoff(2, 64);
    for (int spin = 0;; ++spin) {
      OrecValue cur = o->value.load(std::memory_order_relaxed);
      if (!orec_is_locked(cur)) {
        if (o->value.compare_exchange_weak(cur, mine,
                                           std::memory_order_acq_rel)) {
          s_.locked[i].previous = cur;
          if (orec_version(cur) > max_prev_) max_prev_ = orec_version(cur);
          break;
        }
        continue;
      }
      if (spin >= 128) {
        // Give up rather than wait on another committer: best-effort HTM
        // resolves conflicts by aborting, not blocking.
        for (std::size_t j = 0; j < i; ++j) {
          s_.locked[j].orec->value.store(s_.locked[j].previous,
                                         std::memory_order_release);
        }
        locks_held_ = 0;
        last_abort_ = AbortCode::kConflict;
        conflict_orec_ = o;
        throw TxnAbort{AbortCode::kConflict};
      }
      backoff.pause();
    }
  }
  locks_held_ = static_cast<uint32_t>(s_.locked.size());
}

void Txn::rollback_locks() noexcept {
  for (uint32_t i = 0; i < locks_held_; ++i) {
    s_.locked[i].orec->value.store(s_.locked[i].previous,
                                   std::memory_order_release);
  }
  locks_held_ = 0;
}

void Txn::release_locks_to(uint64_t version) noexcept {
  const OrecValue v = make_version(version);
  for (uint32_t i = 0; i < locks_held_; ++i) {
    s_.locked[i].orec->value.store(v, std::memory_order_release);
  }
  locks_held_ = 0;
}

std::size_t Txn::coalesce_run(std::size_t i, uint64_t* packed) const
    noexcept {
  // The write set is sorted by address and duplicate-free, so a run of
  // sub-word entries that exactly tiles one aligned 8-byte word — and
  // therefore shares that word's ownership record — is contiguous here.
  // Only exact tiling coalesces: a gap would force a read-modify-write of
  // bytes this transaction never stored.
  const WriteEntry& first = s_.write_set[i];
  if (first.size == 8) return 1;
  const uintptr_t word = first.addr & ~uintptr_t{7};
  if (first.addr != word) return 1;
  uint64_t value = 0;
  uintptr_t next = word;
  std::size_t j = i;
  while (j < s_.write_set.size() && s_.write_set[j].addr == next &&
         next + s_.write_set[j].size <= word + 8) {
    // to_bits zero-fills past the entry's size, so packing is a shift-or
    // (little-endian byte order; coalesce_ is off on big-endian hosts).
    value |= s_.write_set[j].value << ((next - word) * 8);
    next += s_.write_set[j].size;
    ++j;
  }
  if (next != word + 8 || j - i < 2) return 1;
  *packed = value;
  return j - i;
}

void Txn::write_back() noexcept {
  TxnStats& st = local_stats();
  for (std::size_t i = 0; i < s_.write_set.size();) {
    if (coalesce_) {
      uint64_t packed;
      const std::size_t run = coalesce_run(i, &packed);
      if (run > 1) {
        detail::atomic_word_store(
            reinterpret_cast<uint64_t*>(s_.write_set[i].addr), packed);
        st.coalesced_stores += run - 1;
        i += run;
        continue;
      }
    }
    const WriteEntry& w = s_.write_set[i++];
    void* p = reinterpret_cast<void*>(w.addr);
    switch (w.size) {
      case 1:
        detail::atomic_word_store(static_cast<uint8_t*>(p),
                                  static_cast<uint8_t>(w.value));
        break;
      case 2:
        detail::atomic_word_store(static_cast<uint16_t*>(p),
                                  static_cast<uint16_t>(w.value));
        break;
      case 4:
        detail::atomic_word_store(static_cast<uint32_t*>(p),
                                  static_cast<uint32_t>(w.value));
        break;
      default:
        detail::atomic_word_store(static_cast<uint64_t*>(p), w.value);
        break;
    }
  }
}

uint64_t Txn::load_bits(uintptr_t addr, uint32_t size) noexcept {
  const void* p = reinterpret_cast<const void*>(addr);
  switch (size) {
    case 1:
      return detail::atomic_word_load(static_cast<const uint8_t*>(p));
    case 2:
      return detail::atomic_word_load(static_cast<const uint16_t*>(p));
    case 4:
      return detail::atomic_word_load(static_cast<const uint32_t*>(p));
    default:
      return detail::atomic_word_load(static_cast<const uint64_t*>(p));
  }
}

bool Txn::writes_unchanged() const noexcept {
  for (std::size_t i = 0; i < s_.write_set.size();) {
    if (coalesce_) {
      // One 8-byte load checks a whole tiled run (same single version check
      // granularity as the coalesced write-back).
      uint64_t packed;
      const std::size_t run = coalesce_run(i, &packed);
      if (run > 1) {
        if (detail::atomic_word_load(reinterpret_cast<const uint64_t*>(
                s_.write_set[i].addr)) != packed) {
          return false;
        }
        i += run;
        continue;
      }
    }
    const WriteEntry& w = s_.write_set[i++];
    if (load_bits(w.addr, w.size) != w.value) return false;
  }
  return true;
}

void Txn::commit() {
  // Commit entry is the interleaving that matters most for conflict
  // detection — the window between the body's last access and the
  // write-lock acquisition — and was unreachable by the old
  // load-only yield points.
  sched::checkpoint(sched::Kind::kCommitEntry);
  if (crash_armed_) {
    // The body issued fewer ops than the crash's countdown (or the plan was
    // kCommitEntry): the thread dies at the commit instruction, before any
    // write-back — under the TLE lock this abandons the lock with the write
    // set still buffered, the state the recoverable lock must discard.
    fire_crash();
  }
  if (fault_armed_) {
    // The body issued fewer ops than the fault's countdown: the spurious
    // abort lands between the last access and the commit instruction.
    fire_fault();
  }
  if (s_.write_set.empty()) {
    // Read-only transactions are already serializable at rv_: every load
    // validated its orec against rv_ at read time (lock mode reads memory
    // directly under exclusion). No lock, no clock bump.
    committed_ = true;
    return;
  }
  if (lock_mode_) {
    commit_lock_mode();
    committed_ = true;
    return;
  }
  // Announce the lock/write-back window so the TLE fallback can drain it.
  struct WritebackScope {
    WritebackScope() {
      writeback_count().fetch_add(1, std::memory_order_acq_rel);
    }
    ~WritebackScope() {
      writeback_count().fetch_sub(1, std::memory_order_acq_rel);
    }
  } scope;
  acquire_write_locks();
  if (writes_unchanged()) {
    // Every buffered store would write back the value already in memory, so
    // the write-back is invisible to concurrent readers and the commit is
    // observably read-only. Serialize it at this instant — all written words
    // are locked with their values in place, and the reads are consistent
    // here iff nothing read changed since rv_ — and skip the clock stamp
    // entirely. Under GV1 an unchanged clock proves the read set unchanged
    // (every visible write bumps it); under GV5 sloppy stamps advance
    // versions invisibly to the clock, so the silent path always validates.
    const uint64_t now = global_clock().load(std::memory_order_acquire);
    const bool provably_unchanged = clock_policy_ == ClockPolicy::kGv1 &&
                                    now == rv_ && max_prev_ <= rv_;
    Orec* const bad = provably_unchanged ? nullptr : validate_reads();
    if (bad == nullptr) {
      rollback_locks();  // restore pre-lock orec versions; nothing changed
      committed_ = true;
      return;
    }
    rollback_locks();
    last_abort_ = AbortCode::kConflict;
    conflict_orec_ = bad;
    throw TxnAbort{AbortCode::kConflict};
  }
  // GV1: one shared fetch_add, with TL2's wv == rv+1 validation skip.
  // GV5: no shared-clock write at all — stamp past everything this commit
  // can see (clock sample, snapshot, replaced versions), and always
  // validate, because sloppy stamps make the clock blind to recent writes.
  const ClockStamp stamp =
      writer_stamp(clock_policy_, rv_, max_prev_, my_token_);
  if (!stamp.read_set_unchanged) {
    if (Orec* const bad = validate_reads()) {
      rollback_locks();
      last_abort_ = AbortCode::kConflict;
      conflict_orec_ = bad;
      throw TxnAbort{AbortCode::kConflict};
    }
  }
  write_back();
  release_locks_to(stamp.wv);
  local_stats().writer_commits++;
  committed_ = true;
}

void Txn::commit_lock_mode() {
  // The TLE lock keeps every other transaction out, so only strong-
  // atomicity stores (nontxn_store/nontxn_cas, range invalidation) can race
  // this block. Lock the written orecs first: from here on none of the
  // written words can change, and a read word that still holds the value
  // this block saw makes the commit serializable at this instant (value
  // validation, as in NOrec). A changed read aborts; the block retries
  // under the lock.
  acquire_write_locks();
  for (const LockRead& r : s_.lock_reads) {
    if (load_bits(r.addr, r.size) != r.value) {
      rollback_locks();
      last_abort_ = AbortCode::kConflict;
      conflict_orec_ = &orec_table_[orec_index(r.addr, granularity_log2_)];
      throw TxnAbort{AbortCode::kConflict};
    }
  }
  write_back();
  // Releasing at a fresh version dooms speculative readers that sampled
  // the written words before the lock was taken.
  release_locks_to(
      writer_stamp(clock_policy_, rv_, max_prev_, my_token_).wv);
}

}  // namespace dc::htm
