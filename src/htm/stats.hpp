// Per-thread transaction statistics.
//
// The paper's evaluation reports abort behaviour indirectly (step-size
// adaptation, Figure 5/6) and we additionally surface commit/abort counts in
// every benchmark for diagnosis. Counters are thread-local and aggregated on
// demand, so the hot path is a plain increment.
//
// Counters are util::RelaxedCounter (single-writer cells with race-free
// relaxed reads): each cell is written only by its owning thread, which
// keeps the increment a plain add, while the continuous-telemetry sampler
// (obs/timeline.hpp) may call aggregate_stats() every few milliseconds with
// writers hot. Sums taken while threads run are per-cell-consistent, not
// cross-cell-consistent (a sampler may see a commit whose aborts_by_code
// entry lands in the next sample); window deltas absorb that skew.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "htm/abort.hpp"
#include "util/relaxed.hpp"

namespace dc::htm {

using Counter = util::RelaxedCounter;

struct TxnStats {
  Counter commits = 0;
  Counter aborts = 0;
  std::array<Counter, static_cast<std::size_t>(AbortCode::kNumCodes)>
      aborts_by_code{};
  Counter lock_fallbacks = 0;  // atomic blocks completed under the TLE lock
  Counter nontxn_stores = 0;   // strong-atomicity stores
  // Shared-clock fetch_adds performed by this thread (GV1 writing commits,
  // lock-mode/strong-atomicity stores, range invalidations). Read-only and
  // unchanged-value commits never bump the clock, and under
  // ClockPolicy::kGv5 neither do writing commits (they stamp sloppily; see
  // sloppy_stamps), so this counter makes the commit fast paths — and the
  // shared-write reduction the sloppy clock exists for — observable.
  Counter clock_bumps = 0;
  // Commits whose write-back changed memory (the transactions that pay a
  // clock bump under GV1). clock_bumps / writer_commits is the shared-write
  // cost per visible writing commit: ~1 under GV1, 0 under GV5.
  Counter writer_commits = 0;
  // GV5 stamps taken without touching the shared clock (writing commits,
  // lock-mode/strong-atomicity stores, range invalidations under kGv5).
  Counter sloppy_stamps = 0;
  // Successful read-version re-samples: loads that observed a version ahead
  // of the transaction's snapshot, revalidated the read set, and continued
  // instead of aborting (TL2 timestamp extension; under GV5 this is the
  // normal way readers absorb sloppy stamps).
  Counter clock_resamples = 0;
  // Re-samples that had to advance the shared clock to the observed sloppy
  // version (CAS-max). The only shared-clock *write* GV5 performs — counted
  // separately from clock_bumps so the zero-shared-write commit property
  // stays assertable.
  Counter clock_catchups = 0;
  // Write-back stores saved by commit-time coalescing of adjacent sub-word
  // runs (a run of k entries tiling one aligned word costs 1 store, saving
  // k-1).
  Counter coalesced_stores = 0;
  // Spurious aborts raised by the fault injector (htm/fault.hpp). Included
  // in aborts/aborts_by_code too; kept separately so "injection off" is a
  // checkable invariant (faults_injected must be 0).
  Counter faults_injected = 0;
  // Atomic blocks the retry controller escalated to the TLE lock (retry
  // backstop, overflow, storm mode or a kLockHeld crash plan), counted once
  // per block at its first lock-mode attempt. serialize_all blocks — which
  // never intended to speculate — and try_once attempts do not count.
  // lock_fallbacks, by contrast, counts lock-mode *attempts*, committed or
  // not, serialize_all ones included.
  Counter tle_entries = 0;
  // Abort-storm detector transitions (htm/retry.hpp): call-sites entering /
  // leaving the sticky serialized mode.
  Counter storm_entries = 0;
  Counter storm_exits = 0;
  // Thread deaths raised by the crash injector (htm/crash.hpp). A crash is
  // *not* an abort: the enclosing block never commits and never retries, so
  // crashes appear in no other counter. "Injection off" stays a checkable
  // invariant (crashes_injected must be 0).
  Counter crashes_injected = 0;
  // TLE fallback locks stolen from a dead owner after a validated timeout
  // (htm/htm.cpp): the recoverable-lock protocol's success count.
  Counter lock_recoveries = 0;
  // Orphaned Collect handles of dead threads DeRegistered by a survivor-run
  // reaper (collect/lease.hpp).
  Counter orphans_reaped = 0;
  // Starvation accounting: the largest number of consecutive aborts any one
  // atomic block on this thread suffered before finally committing
  // (high-water mark; aggregated by max).
  Counter max_consec_aborts = 0;
  // High-water marks of per-attempt read-set / write-set entries *after*
  // dedup (a repeated load or store of one word counts once). These expose
  // the load-time read-set dedup and store-time write dedup directly.
  Counter max_read_set = 0;
  Counter max_write_set = 0;

  TxnStats& operator+=(const TxnStats& o) noexcept {
    commits += o.commits;
    aborts += o.aborts;
    for (std::size_t i = 0; i < aborts_by_code.size(); ++i)
      aborts_by_code[i] += o.aborts_by_code[i];
    lock_fallbacks += o.lock_fallbacks;
    nontxn_stores += o.nontxn_stores;
    clock_bumps += o.clock_bumps;
    writer_commits += o.writer_commits;
    sloppy_stamps += o.sloppy_stamps;
    clock_resamples += o.clock_resamples;
    clock_catchups += o.clock_catchups;
    coalesced_stores += o.coalesced_stores;
    faults_injected += o.faults_injected;
    tle_entries += o.tle_entries;
    storm_entries += o.storm_entries;
    storm_exits += o.storm_exits;
    crashes_injected += o.crashes_injected;
    lock_recoveries += o.lock_recoveries;
    orphans_reaped += o.orphans_reaped;
    if (o.max_consec_aborts > max_consec_aborts) {
      max_consec_aborts = o.max_consec_aborts;
    }
    if (o.max_read_set > max_read_set) max_read_set = o.max_read_set;
    if (o.max_write_set > max_write_set) max_write_set = o.max_write_set;
    return *this;
  }

  double abort_rate() const noexcept {
    const uint64_t attempts = commits + aborts;
    return attempts == 0
               ? 0.0
               : static_cast<double>(aborts) / static_cast<double>(attempts);
  }
};

// The calling thread's counters (registered in a global registry on first
// use so aggregate_stats can sum across threads, including exited ones).
//
// Registry retention contract: each thread's block is heap-allocated on the
// thread's first transaction and *retained for the process lifetime* — it
// is deliberately never freed when the thread exits. This is what lets
// benchmarks join their workers and then read aggregate_stats() without a
// torn sum, and it means:
//   * registered_thread_count() grows monotonically (thread-id recycling
//     does not reclaim blocks: a reused util::thread_id registers a fresh
//     block for the new thread);
//   * memory grows by sizeof(TxnStats) per distinct thread ever running a
//     transaction — bounded in practice, but do not spawn unbounded
//     short-lived transactional threads expecting the registry to shrink;
//   * reset_stats() ZEROES every block, including exited threads', and
//     frees none of them.
TxnStats& local_stats() noexcept;

// Sum of all threads' counters since the last reset.
TxnStats aggregate_stats() noexcept;

// Zeroes all threads' counters (exited threads' blocks included — see the
// retention contract above). Call only while no transactions run.
void reset_stats() noexcept;

// Number of per-thread blocks ever registered (live + exited threads).
// Monotonic; exposed so tests and diagnostics can observe the retention
// contract.
std::size_t registered_thread_count() noexcept;

}  // namespace dc::htm
