// Runtime configuration of the simulated HTM.
//
// Defaults model Sun's Rock prototype as described in the paper and in
// [Dice et al., ASPLOS'09]: a 32-entry store buffer bounds transactional
// stores, transactions are sandboxed, and there is no guarantee that any
// transaction eventually commits (hence the optional TLE fallback, §6).
#pragma once

#include <atomic>
#include <cstdint>

namespace dc::htm {

// Global-version-clock policy (TL2 "GV" variants).
//
//   kGv1  The textbook shared counter: every visible writing commit (and
//         every strong-atomicity store) performs one fetch_add on the global
//         clock. Simple, totally ordered, and the reference against which
//         the sloppy clock is validated — but that fetch_add is the last
//         shared write left on the commit fast path.
//
//   kGv5  Sloppy clock: a committing writer never writes the shared counter.
//         It stamps its orecs with
//             max(clock sample, snapshot, released orecs' versions) + stride
//         where stride is the thread's nonzero dense id, so stamps run
//         *ahead* of the shared clock. A reader that observes a version
//         ahead of its snapshot does not abort: it advances the shared clock
//         to the observed version (CAS-max; the only shared-clock write this
//         policy performs, proportional to real data freshness rather than
//         to commit rate), revalidates its read set, and adopts the new
//         snapshot. See DESIGN.md §7 for the safety argument.
enum class ClockPolicy : uint8_t {
  kGv1 = 0,
  kGv5,
};

const char* to_string(ClockPolicy policy) noexcept;

// Parses "gv1"/"gv5" (case-sensitive). Returns false on anything else.
bool parse_clock_policy(const char* name, ClockPolicy& out) noexcept;

// Process default: ClockPolicy::kGv5, overridable by the DC_CLOCK
// environment variable ("gv1" or "gv5"; read once, at first use).
ClockPolicy default_clock_policy() noexcept;

// The retry policy of htm::atomic() (cause-aware; htm/retry.hpp) and the
// conflict-validation backend (exact read-set walk; htm/txn.hpp). Each has a
// single value: they survive only as names for perfbench's `policies` meta
// line, the one remaining reader, which a later benchmark-only change drops.
enum class RetryPolicy : uint8_t { kCauseAware = 0 };
enum class ValidationPolicy : uint8_t { kExact = 0 };

const char* to_string(RetryPolicy policy) noexcept;
const char* to_string(ValidationPolicy policy) noexcept;

// Fault-injection knobs (htm/fault.hpp). Defaults: injection off.
struct FaultConfig {
  // Probability in [0, 1] that one speculative attempt is hit by a spurious
  // abort (drawn per attempt from a seeded per-thread stream, so a given
  // (seed, thread, attempt sequence) always faults at the same points).
  double rate = 0.0;
  // Seed of the injector's random stream; mixed with the dense thread id so
  // threads draw independently but reproducibly.
  uint64_t seed = 0x5eedfau;
};

// Process default: injection off, overridable by the DC_FAULT environment
// variable ("RATE" or "RATE:SEED", e.g. "0.1" or "0.1:42"; read once).
FaultConfig default_fault_config() noexcept;

// Thread-death injection knobs (htm/crash.hpp). Defaults: injection off.
struct CrashConfig {
  // Probability in [0, 1] that one atomic block kills its (opted-in) thread,
  // drawn per block from a seeded per-thread stream. Which crash point fires
  // (mid-transaction / commit entry / holding the TLE lock) is drawn from
  // the same stream.
  double rate = 0.0;
  // Seed of the injector's random stream; mixed with the dense thread id.
  uint64_t seed = 0xdeadf0u;
};

// Process default: injection off, overridable by the DC_CRASH environment
// variable ("RATE" or "RATE:SEED", e.g. "0.02" or "0.02:7"; read once).
CrashConfig default_crash_config() noexcept;

// Memory-pressure knobs (memory/pool.hpp, DESIGN.md §15). Defaults: the
// pool is unbounded and allocation-fault injection is off — the PR-1
// never-fail contract, byte for byte.
struct MemConfig {
  // Bounded-capacity mode: the pool refuses to map new slabs once its OS
  // footprint would exceed this many bytes (0 = unbounded). Recycled blocks
  // keep flowing at the cap, so denial is transient backpressure, not a
  // verdict. Chaos squeezes tighten the cap at runtime via
  // mem::pool_set_limit_override without touching this value.
  uint64_t limit_bytes = 0;

  // Probability in [0, 1] that one pool allocation attempt is denied by the
  // injector (drawn per attempt from a seeded per-thread stream, mixed with
  // the sched run seed so injected failures replay with a recorded
  // schedule). Scripted denials (mem::pool_set_alloc_fault_script) are
  // configured separately and fire regardless of the rate.
  double alloc_fault_rate = 0.0;

  // Seed of the injector's random stream; mixed with the dense thread id.
  uint64_t alloc_fault_seed = 0xa110cu;

  // kAllocFailed retry budget (htm/retry.hpp): how many consecutive failed
  // allocation attempts *without reclamation progress* a block tolerates
  // before the retry loop escalates to TxnOutOfMemory. Progress (any free
  // or stranded-cache reap, observed through the reclaim probe) resets the
  // streak — a waiting block never gives up while memory is coming back.
  uint32_t alloc_retry_limit = 16;
};

// Process default: unbounded / injection off, overridable by the DC_MEM
// environment variable ("BYTES", e.g. "67108864") and DC_ALLOC_FAULT
// ("RATE" or "RATE:SEED", same grammar as DC_FAULT; both read once).
MemConfig default_mem_config() noexcept;

struct Config {
  // Maximum number of transactional stores per transaction (unique words
  // written plus explicit charges for stores to private memory, which Rock's
  // store buffer also held). Exceeding it aborts with AbortCode::kOverflow.
  uint32_t store_buffer_capacity = 32;

  // Transactional Lock Elision fallback (§6): after this many consecutive
  // aborts of one atomic block, acquire the global fallback lock and run the
  // block non-speculatively. 0 disables TLE (pure best-effort HTM, as on
  // Rock without software mitigation).
  uint32_t tle_after_aborts = 64;

  // Timestamp extension: when a load observes a version newer than the
  // transaction's read version, revalidate the read set and advance instead
  // of aborting. Disabling this models a plainer HTM conflict response and
  // is an ablation knob for the benchmarks.
  bool enable_extension = true;

  // Run every atomic block under the global fallback lock (no speculation
  // at all): the "coarse global lock" baseline that transactional memory is
  // classically compared against. Ablation knob; default off.
  bool serialize_all = false;

  // Conflict-detection granularity: log2 of the bytes covered by one
  // ownership record. 3 (default) = 8-byte word; 6 = 64-byte cache line,
  // which is how real HTMs (Rock included) actually detect conflicts —
  // adjacent data false-shares. Change only while no transactions run.
  uint32_t conflict_granularity_log2 = 3;

  // Which global-clock policy commits and strong-atomicity stores use; see
  // ClockPolicy above. Change only while no transactions run (each attempt
  // snapshots it; mixing policies across *runs* is safe because both stamp
  // rules enforce per-orec version monotonicity).
  ClockPolicy clock_policy = default_clock_policy();

  // Commit-time write coalescing: runs of buffered stores that exactly tile
  // one aligned 8-byte word (they necessarily share an ownership record) are
  // written back — and pre-checked by the silent-commit scan — as a single
  // 8-byte access instead of one access per entry. Keeps the write-back of a
  // field-by-field struct update atomic at word grain even for sub-word
  // fields. Little-endian hosts only (disabled automatically elsewhere).
  bool enable_write_coalescing = true;

  // Fixed policies, named for perfbench's meta line only (see RetryPolicy
  // above); nothing can set them.
  static constexpr RetryPolicy retry_policy = RetryPolicy::kCauseAware;
  static constexpr ValidationPolicy validation = ValidationPolicy::kExact;

  // Spurious-abort injection; see FaultConfig and htm/fault.hpp. Scripted
  // schedules (fault::set_script) are configured separately and override
  // the rate for matching attempts.
  FaultConfig fault = default_fault_config();

  // Thread-death injection; see CrashConfig and htm/crash.hpp. Scripted
  // schedules (crash::set_script) and per-thread one-shots
  // (crash::schedule_self) are configured separately.
  CrashConfig crash = default_crash_config();

  // Memory-pressure model: pool capacity bound, allocation-fault injection,
  // and the kAllocFailed retry budget; see MemConfig and memory/pool.hpp.
  MemConfig mem = default_mem_config();

  // Abort-storm graceful degradation (htm/retry.hpp): each atomic call-site
  // keeps a contention score (+2 per conflict abort, -1 per commit, capped).
  // When the score reaches storm_enter_score the site enters a sticky
  // serialized (TLE) mode — every block at that site runs under the
  // fallback lock — and it leaves the mode once commits drain the score to
  // storm_exit_score (hysteresis, so the site does not flap at the
  // boundary). Requires TLE (tle_after_aborts != 0); disabled under
  // serialize_all (everything is already serial).
  bool storm_detection = true;
  uint32_t storm_enter_score = 32;
  uint32_t storm_exit_score = 8;

  // Single-core fidelity knob: yield to the scheduler every N transactional
  // loads (0 = never). On the paper's 16-core machine a transaction's whole
  // window is exposed to concurrently *running* writers; on a single-core
  // host the OS timeslice hides that overlap, collapsing conflict rates.
  // Yielding mid-transaction restores the exposure window (longer
  // transactions yield more, so larger telescoping steps see more conflicts
  // — the very tradeoff Figures 5/6 measure). Benchmarks enable this; tests
  // leave it off.
  uint32_t txn_yield_every_loads = 0;
};

// Process-global configuration. Benchmarks/tests set it between runs while
// no transactions execute; it is not meant to be flipped mid-transaction.
Config& config() noexcept;

}  // namespace dc::htm
