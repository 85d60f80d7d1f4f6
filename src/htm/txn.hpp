// Txn: one attempt of a hardware transaction, simulated in software.
//
// The execution model follows TL2 (Dice, Shalev, Shavit, DISC'06) at word
// granularity, with two deviations chosen to mimic Rock-style best-effort
// HTM as the paper's algorithms experience it:
//
//  * Eager per-load validation plus timestamp extension gives *opacity*: a
//    transaction never acts on an inconsistent view. Combined with the
//    never-unmapping pool allocator (src/memory) whose deallocate bumps the
//    freed words' orecs, this reproduces Rock's "sandboxing": dereferencing
//    a pointer whose referent was freed aborts the transaction instead of
//    faulting (paper footnote 1).
//
//  * The write set is bounded by Config::store_buffer_capacity (default 32,
//    Rock's store-buffer size); exceeding it aborts with kOverflow. Stores
//    to transaction-private memory (e.g. recording a value into a Collect
//    result set) also occupied Rock's store buffer — the paper's reason
//    telescoping step sizes cap at 32 — so algorithms account for them via
//    charge_store().
//
// Hot-path structure (see DESIGN.md "HTM hot-path design"):
//  * config() fields and the orec table pointer are snapshotted once per
//    attempt, so load()/store() never call through to the out-of-line
//    config()/orec_table() accessors.
//  * The read set is deduplicated at load time through a direct-mapped
//    per-thread filter of (orec, attempt-epoch) pairs: N loads of one hot
//    word cost one read-set entry, so try_extend()/validate_read_set() stay
//    proportional to the *distinct* words read.
//  * store() resolves and caches the covering Orec* in the WriteEntry and
//    maintains the commit lock list sorted and deduplicated incrementally,
//    so acquire_write_locks() is a straight walk — no orec_for
//    recomputation, no sort, no unique at commit time. The write set itself
//    is kept sorted by address, so commit can coalesce runs of adjacent
//    sub-word stores that tile one aligned word into a single write-back
//    (Config::enable_write_coalescing), and read-own-writes is a binary
//    search.
//  * The global-clock interaction is behind Config::clock_policy
//    (htm/clock.hpp): GV1 pays one fetch_add per visible writing commit;
//    GV5 stamps sloppily and commits perform no shared-clock write at all,
//    with readers absorbing ahead-of-clock versions via the re-sample rule
//    in try_extend().
//  * All scratch buffers use inline small-buffer storage sized to the
//    32-entry store buffer (util/small_vector.hpp).
//
// Usage: via htm::atomic() / htm::try_once() in htm/htm.hpp; Txn is not
// created directly by algorithm code.
#pragma once

#include <atomic>
#include <cassert>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "htm/abort.hpp"
#include "htm/config.hpp"
#include "sched/checkpoint.hpp"
#include "htm/crash.hpp"
#include "htm/orec.hpp"
#include "util/asan.hpp"
#include "util/small_vector.hpp"

namespace dc::htm {

// Types that may be read/written transactionally: word-sized or smaller,
// trivially copyable, power-of-two size (so a value never straddles two
// 8-byte-aligned words when naturally aligned).
template <class T>
concept TxnWord =
    std::is_trivially_copyable_v<T> && (sizeof(T) == 1 || sizeof(T) == 2 ||
                                        sizeof(T) == 4 || sizeof(T) == 8);

namespace detail {

// The substrate's word-access primitives are exempt from ASan
// (DC_NO_SANITIZE_ADDRESS): with pool poisoning enabled, a transactional
// load can race a concurrent free and touch a just-poisoned word between
// its two orec samples — defined behaviour here (the v2 recheck or the
// version bump dooms the reader; that is the sandboxing guarantee), so it
// must not be reported. Raw accesses that bypass these primitives remain
// fully instrumented. The bodies use the __atomic builtins rather than
// std::atomic_ref: the attribute does not strip instrumentation from code
// *inlined into* the exempt function, and atomic_ref::load carries an
// instrumented read.
template <TxnWord T>
DC_NO_SANITIZE_ADDRESS T atomic_word_load(const T* addr) noexcept {
  T value;
  __atomic_load(addr, &value, __ATOMIC_ACQUIRE);
  return value;
}

template <TxnWord T>
DC_NO_SANITIZE_ADDRESS void atomic_word_store(T* addr, T value) noexcept {
  __atomic_store(addr, &value, __ATOMIC_RELEASE);
}

template <TxnWord T>
uint64_t to_bits(T value) noexcept {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(T));
  return bits;
}

template <TxnWord T>
T from_bits(uint64_t bits) noexcept {
  T value;
  std::memcpy(&value, &bits, sizeof(T));
  return value;
}

}  // namespace detail

class Txn {
 public:
  // Begun by htm::atomic()/try_once(). `lock_mode` is the TLE fallback path:
  // loads go straight to memory and stores become strong-atomicity stores.
  explicit Txn(bool lock_mode = false);
  ~Txn();

  Txn(const Txn&) = delete;
  Txn& operator=(const Txn&) = delete;

  bool in_lock_mode() const noexcept { return lock_mode_; }

  // Transactional load. Validates against the read version; may extend the
  // read version; aborts (throws TxnAbort) on conflict.
  template <TxnWord T>
  T load(const T* addr) {
    // A real multicore can interleave another thread's commit anywhere
    // relative to this load; under the deterministic scheduler this is
    // where that interleaving gets decided.
    sched::checkpoint(sched::Kind::kTxnLoad);
    maybe_crash();  // fires in lock mode too (a TLE holder can die)
    if (lock_mode_) {
      // Lock-mode stores stay buffered until commit (so an explicit abort
      // or a user exception can still discard them), so read-own-writes
      // must consult the write set here too — a raw memory load would
      // return the pre-store value of a word this block already wrote.
      const auto a = reinterpret_cast<uintptr_t>(addr);
      const std::size_t i = write_lower_bound(a);
      if (i < s_.write_set.size() && s_.write_set[i].addr == a) {
        return detail::from_bits<T>(s_.write_set[i].value);
      }
      // The TLE lock excludes other transactions but not strong-atomicity
      // stores; remember the value so a writing commit can check that none
      // landed on it in between (commit_lock_mode).
      const T value = detail::atomic_word_load(addr);
      s_.lock_reads.push_back(
          LockRead{a, detail::to_bits(value), static_cast<uint32_t>(sizeof(T))});
      return value;
    }
    maybe_fault();
    maybe_yield();
    const auto a = reinterpret_cast<uintptr_t>(addr);
    // Read-own-writes: the write set is kept sorted by address (for commit
    // coalescing), so the buffered value is a binary search away.
    {
      const std::size_t i = write_lower_bound(a);
      if (i < s_.write_set.size() && s_.write_set[i].addr == a) {
        return detail::from_bits<T>(s_.write_set[i].value);
      }
    }
    Orec& o = orec_table_[orec_index(a, granularity_log2_)];
    for (int tries = 0; tries < kLoadRetries; ++tries) {
      OrecValue v1 = o.value.load(std::memory_order_acquire);
      if (orec_is_locked(v1)) {
        // A commit's write-back or a strong-atomicity store is in flight.
        abort_load(o, addr);
      }
      if (orec_version(v1) > rv_) {
        // The version is ahead of this transaction's snapshot. Under GV1
        // that means a commit since begin; under GV5 it may simply be a
        // sloppy stamp the shared clock has not caught up with. Either way:
        // re-sample the clock and revalidate instead of aborting.
        if (!try_extend(orec_version(v1))) abort_load(o, addr);
        continue;  // re-examine the orec under the extended read version
      }
      const T value = detail::atomic_word_load(addr);
      const OrecValue v2 = o.value.load(std::memory_order_acquire);
      if (v1 == v2) {
        note_read(&o);
        return value;
      }
      // The word changed between the two orec samples; retry the sandwich.
    }
    abort_load(o, addr);
  }

  // Non-mutating overload so `txn.load(&count)` works on non-const lvalues.
  template <TxnWord T>
  T load(T* addr) {
    return load(const_cast<const T*>(addr));
  }

  // Transactional store: buffered until commit. Aborts with kOverflow when
  // the store budget is exhausted (speculative mode only: the lock-mode
  // fallback runs non-speculatively, so the store buffer does not apply,
  // but stores stay buffered so an explicit abort still discards them).
  // Stores to *overlapping* byte ranges at distinct addresses (e.g. a
  // uint64 store over a uint8 store) have unspecified write-back order —
  // the write set is applied in address order, not program order.
  template <TxnWord T>
  void store(T* addr, T value) {
    sched::checkpoint(sched::Kind::kTxnStore);
    maybe_crash();  // fires in lock mode too (a TLE holder can die)
    maybe_fault();  // armed only on speculative attempts (fault.hpp)
    const auto a = reinterpret_cast<uintptr_t>(addr);
    const uint64_t bits = detail::to_bits(value);
    const std::size_t i = write_lower_bound(a);
    if (i < s_.write_set.size() && s_.write_set[i].addr == a) {
      assert(s_.write_set[i].size == sizeof(T) &&
             "mixed-size stores to one address");
      s_.write_set[i].value = bits;
      return;
    }
    if (!lock_mode_ && stores_used() >= store_capacity_) {
      abort(AbortCode::kOverflow);
    }
    Orec* o = &orec_table_[orec_index(a, granularity_log2_)];
    s_.write_set.insert_at(
        i, WriteEntry{a, bits, o, static_cast<uint32_t>(sizeof(T))});
    note_write_orec(o);
  }

  // Accounts for `n` stores to transaction-private memory (result-set
  // recording). They consume store-buffer budget but need no write-back.
  void charge_store(uint32_t n = 1) {
    if (lock_mode_) return;
    if (stores_used() + n > store_capacity_) {
      abort(AbortCode::kOverflow);
    }
    charged_stores_ += n;
  }

  // Remaining store budget; telescoped Collect uses it to clamp step size.
  uint32_t store_budget_left() const noexcept {
    const uint32_t used = stores_used();
    return store_capacity_ > used ? store_capacity_ - used : 0;
  }

  // Registers a cleanup to run iff this attempt aborts (after the
  // transaction context is torn down, so the callback may use the
  // allocator). This is what a TM-aware allocator needs (paper §6: the
  // algorithms were "complicated somewhat by our efforts to avoid memory
  // allocation within transactions" — a non-fundamental Rock limitation):
  // an allocation made inside the transaction registers its own release
  // here and is handed over cleanly on commit.
  void on_abort(void (*fn)(void*, std::size_t), void* p, std::size_t bytes);

  // Request an abort of this attempt (retried by htm::atomic()).
  [[noreturn]] void abort(AbortCode code);

  // Fault injection (htm/fault.hpp): dooms this speculative attempt to
  // raise a spurious abort of cause `code` after `after_ops` further
  // transactional loads/stores — or at commit() entry, if the body issues
  // fewer. Called by the atomic()/try_once() wrappers before the body runs;
  // never on lock-mode attempts.
  void arm_fault(AbortCode code, uint32_t after_ops) noexcept {
    fault_code_ = code;
    fault_ops_left_ = after_ops;
    fault_armed_ = true;
  }

  // Thread-death injection (htm/crash.hpp): dooms this attempt to kill its
  // thread from the (`after_ops`+1)-th further transactional load/store — or
  // at commit() entry, if the body issues fewer. Unlike arm_fault this also
  // arms lock-mode attempts: dying while holding the TLE lock is precisely
  // the failure the recoverable lock exists for. The crash always fires
  // before commit write-back, so the enclosing block never commits.
  void arm_crash(crash::Point point, uint32_t after_ops) noexcept {
    crash_point_ = point;
    crash_ops_left_ = after_ops;
    crash_armed_ = true;
  }

  // A non-TxnAbort exception escaped the body: release any held orec locks
  // and mark the attempt aborted (counted as kExplicit — the body, not the
  // substrate, terminated it) so the destructor runs the abort hooks and
  // the buffered stores are discarded. The wrappers call this before
  // rethrowing the user's exception.
  void doom() noexcept;

  // Attempts to commit; called by the htm::atomic()/try_once() wrappers.
  // Throws TxnAbort on validation failure.
  void commit();

  // --- Observability surface (src/obs, tests) ---
  // The snapshot this attempt currently validates reads against (TL2 read
  // version; advances on successful re-sample).
  uint64_t read_version() const noexcept { return rv_; }
  // Distinct orecs read / words written so far this attempt (post-dedup).
  uint32_t read_set_size() const noexcept {
    return static_cast<uint32_t>(s_.read_set.size());
  }
  uint32_t write_set_size() const noexcept {
    return static_cast<uint32_t>(s_.write_set.size());
  }
  // Retry index of this attempt within its atomic block, stamped into the
  // lifecycle trace events by the htm::atomic() wrapper (DC_TRACE builds).
  void set_trace_attempt(uint32_t attempt) noexcept {
    trace_attempt_ = attempt;
  }

 private:
  struct WriteEntry {
    uintptr_t addr;
    uint64_t value;
    Orec* orec;  // resolved at store() time; commit never recomputes it
    uint32_t size;
  };
  struct LockedOrec {
    Orec* orec;
    OrecValue previous;
  };
  struct AbortHook {
    void (*fn)(void*, std::size_t);
    void* p;
    std::size_t bytes;
  };
  struct LockRead {
    uintptr_t addr;
    uint64_t value;
    uint32_t size;
  };

  // Per-thread scratch reused across attempts: the read/write/lock buffers
  // (inline small-buffer storage; no allocation in the steady state) and the
  // read-set dedup filter. The filter is direct-mapped by orec address and
  // stamped with a per-attempt epoch, so "clearing" it per attempt is one
  // counter increment; a collision merely costs a duplicate read-set entry.
  struct Scratch {
    static constexpr std::size_t kFilterSizeLog2 = 8;
    static constexpr std::size_t kFilterSize = std::size_t{1}
                                               << kFilterSizeLog2;
    struct FilterSlot {
      const Orec* orec;
      uint64_t epoch;
    };

    util::SmallVector<Orec*, 128> read_set;
    util::SmallVector<WriteEntry, 40> write_set;
    // Distinct orecs covering the write set, kept sorted by table address
    // (the deadlock-free global lock order) and deduplicated as stores are
    // inserted; `previous` is filled in by acquire_write_locks().
    util::SmallVector<LockedOrec, 40> locked;
    util::SmallVector<AbortHook, 8> abort_hooks;
    // Values lock-mode loads returned (lock mode only).
    util::SmallVector<LockRead, 32> lock_reads;
    FilterSlot filter[kFilterSize] = {};
    uint64_t epoch = 0;

    static Scratch& get() noexcept;  // thread-local (txn.cpp)
  };

  static constexpr int kLoadRetries = 64;

  Txn(bool lock_mode, const Config& cfg, Scratch& s);

  uint32_t stores_used() const noexcept {
    return static_cast<uint32_t>(s_.write_set.size()) + charged_stores_;
  }

  // Records `o` in the read set unless this attempt already did.
  void note_read(Orec* o) {
    Scratch::FilterSlot& slot =
        s_.filter[(reinterpret_cast<uintptr_t>(o) / sizeof(Orec)) &
                  (Scratch::kFilterSize - 1)];
    if (slot.orec == o && slot.epoch == epoch_) return;
    slot.orec = o;
    slot.epoch = epoch_;
    s_.read_set.push_back(o);
  }

  // Index of the first write-set entry with address >= a (the write set is
  // kept sorted by address; see store()).
  std::size_t write_lower_bound(uintptr_t a) const noexcept {
    std::size_t lo = 0, hi = s_.write_set.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (s_.write_set[mid].addr < a) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  // Inserts `o` into the sorted, deduplicated commit lock list.
  void note_write_orec(Orec* o) {
    std::size_t lo = 0, hi = s_.locked.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (s_.locked[mid].orec < o) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < s_.locked.size() && s_.locked[lo].orec == o) return;
    s_.locked.insert_at(lo, LockedOrec{o, 0});
  }

  // Injected-fault countdown: one predictable not-taken branch per
  // transactional op when no fault is armed (the common case even during
  // injection runs — most attempts draw no fault).
  void maybe_fault() {
    if (fault_armed_) [[unlikely]] {
      if (fault_ops_left_ == 0) fire_fault();
      --fault_ops_left_;
      ++fault_ops_done_;
    }
  }
  [[noreturn]] void fire_fault();  // txn.cpp: stats + trace + abort

  // Injected-crash countdown, same shape as maybe_fault: one predictable
  // not-taken branch per transactional op when no crash is armed.
  void maybe_crash() {
    if (crash_armed_) [[unlikely]] {
      if (crash_ops_left_ == 0) fire_crash();
      --crash_ops_left_;
      ++crash_ops_done_;
    }
  }
  // txn.cpp: stats + trace + mark dead + throw crash::ThreadCrash. The
  // thrown crash is not a TxnAbort: wrappers rethrow it untouched.
  [[noreturn]] void fire_crash();

  // See Config::txn_yield_every_loads (txn.cpp; out of line so the hot path
  // stays a counter bump and a predictable branch).
  void maybe_yield() {
    if (yield_every_ != 0 && ++loads_since_yield_ >= yield_every_) {
      loads_since_yield_ = 0;
      yield_now();
    }
  }
  static void yield_now();

  // Re-sample: revalidates the read set at the current rv_ and, on success,
  // advances rv_ to cover both the shared clock and `observed` (a version
  // seen ahead of the snapshot; under GV5 the clock is CAS-maxed up to it
  // first — see clock.hpp rule 2).
  bool try_extend(uint64_t observed) noexcept;

  // Conflict abort that remembers the culprit orec, so the destructor can
  // attribute the abort (obs/conflict_map) in DC_TRACE builds.
  [[noreturn]] void abort_conflict(Orec& o) {
    conflict_orec_ = &o;
    abort(AbortCode::kConflict);
  }

  // Doomed-load abort: when the allocator's ASan poison identifies the
  // target as freed memory, the abort gets the paper's distinct
  // illegal-access tag (footnote 1's sandboxed dereference of a reclaimed
  // block) instead of a generic conflict. Abort-path only — the check
  // costs nothing on successful loads and is constant-false without ASan.
  [[noreturn]] void abort_load(Orec& o, const void* addr) {
    if (util::asan_is_poisoned(addr)) abort(AbortCode::kIllegalAccess);
    abort_conflict(o);
  }

  // Commit helpers (txn.cpp). acquire_write_locks also records the highest
  // pre-lock version into max_prev_ (the stamp's monotonicity floor).
  void acquire_write_locks();
  void release_locks_to(uint64_t version) noexcept;
  void rollback_locks() noexcept;
  void write_back() noexcept;
  bool writes_unchanged() const noexcept;
  // The current contents of the `size`-byte word at `addr`, zero-extended.
  static uint64_t load_bits(uintptr_t addr, uint32_t size) noexcept;
  // Length of the coalescable run starting at write-set index i (entries
  // exactly tiling one aligned 8-byte word), with the packed word value in
  // *packed; 1 when no coalescing applies.
  std::size_t coalesce_run(std::size_t i, uint64_t* packed) const noexcept;
  // nullptr when the read set validates; otherwise the first orec whose
  // version check failed (the conflict culprit).
  Orec* validate_read_set() const noexcept;
  OrecValue pre_lock_version(const Orec* o) const noexcept;

  // validate_read_set() wrapped with the kValidate latency probe in
  // DC_TRACE builds. Used by commit() and try_extend().
  Orec* validate_reads() const noexcept;

  // Lock-mode commit of a non-empty write set: locks the written orecs,
  // aborts with kConflict if a strong-atomicity store changed a value this
  // block read, then writes back and releases like a speculative commit.
  void commit_lock_mode();

  uint64_t rv_;              // read version (TL2)
  const uint64_t my_token_;  // lock ownership token
  // Per-attempt snapshots: load()/store() must not call through to the
  // out-of-line config()/orec_table() accessors (config changes mid-
  // transaction are documented as unsupported, so snapshotting is sound).
  Orec* const orec_table_;
  const uint32_t store_capacity_;
  const uint32_t yield_every_;
  const uint32_t granularity_log2_;
  const ClockPolicy clock_policy_;
  const bool extension_enabled_;
  const bool coalesce_;
  const bool lock_mode_;
  bool committed_ = false;
  // Abort forensics, read by the destructor's obs hooks: the code of the
  // abort in flight, the orec it conflicted on (conflict aborts only), and
  // the retry index assigned by the atomic() wrapper.
  AbortCode last_abort_ = AbortCode::kNone;
  Orec* conflict_orec_ = nullptr;
  uint32_t trace_attempt_ = 0;
  uint32_t charged_stores_ = 0;
  uint32_t loads_since_yield_ = 0;
  // Injected-fault arming (arm_fault/maybe_fault/fire_fault).
  bool fault_armed_ = false;
  AbortCode fault_code_ = AbortCode::kNone;
  uint32_t fault_ops_left_ = 0;
  uint32_t fault_ops_done_ = 0;  // ops survived, for the trace event
  // Injected-crash arming (arm_crash/maybe_crash/fire_crash).
  bool crash_armed_ = false;
  crash::Point crash_point_ = crash::Point::kTxnOp;
  uint32_t crash_ops_left_ = 0;
  uint32_t crash_ops_done_ = 0;  // ops survived, for the trace event
  // Highest pre-lock version among the locked orecs (acquire_write_locks);
  // the commit stamp must exceed it so per-orec versions stay monotone.
  uint64_t max_prev_ = 0;
  // Number of entries of s_.locked actually holding their orec lock; only
  // the prefix [0, locks_held_) may be released on rollback.
  uint32_t locks_held_ = 0;
  Scratch& s_;
  const uint64_t epoch_;  // this attempt's read-set dedup epoch
};

// True while the calling thread is inside an atomic block (used to reject
// nesting and to assert the allocator is not called transactionally).
bool in_transaction() noexcept;

namespace detail {
void set_in_transaction(bool) noexcept;
}

}  // namespace dc::htm
