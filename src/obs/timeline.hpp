// Continuous telemetry: windowed time-series sampler + anomaly annotations.
//
// Everything else in the obs layer is post-mortem — counters and histograms
// merged once, quiescently, after the workers join. That collapses a run's
// *timeline*: a 10-second bench that spends 200 ms in a TLE storm and 9.8 s
// healthy reports the same aggregate as one that degrades uniformly. This
// module adds the always-on, low-overhead discipline SMR evaluations use to
// separate steady-state from reclamation-stall phases: a background sampler
// thread that, every interval_ms, takes race-free snapshots of the
// substrate counters (htm::TxnStats cells are single-writer
// util::RelaxedCounters — see stats.hpp) and of the per-operation latency
// histograms (LogHistogram::interval_since differences two monotonic
// snapshots), and turns the deltas into tumbling-window records:
//
//   Window = { t_start..t_end, per-window counter deltas,
//              per-op interval count + p50/p90/p99/p999 }
//
// stored in a bounded ring (oldest windows overwritten; drops counted). On
// top of the deltas a phase detector emits annotated timeline events —
// storm onset/exit, lock recovery, orphan-reap bursts, injected thread
// deaths, shedding and memory-pressure edges — whose per-kind value sums
// equal the run's cumulative counters (each annotation carries the
// window's delta), so the timeline is an exact decomposition of the
// post-mortem numbers, not a lossy sketch. SLO targets (obs/slo.hpp) are evaluated per window
// as they close.
//
// Layering: obs deliberately does not depend on htm, so the sampler pulls
// counters through a CounterProvider callback the embedder registers
// (bench_common.hpp adapts htm::aggregate_stats; tests feed synthetic
// providers). Histograms are read directly — they live in this library.
//
// Zero-cost when off: start() is the only thing that spawns the thread; a
// run that never calls it has no sampler thread, no ring allocation, and
// unchanged counters (the RelaxedCounter cells compile to the same plain
// adds either way).
//
// Threading: start/stop manage one background thread. The accessors copy
// state under the sampler mutex and are safe at any time; for exact
// end-of-run numbers call stop() first (it closes the final partial window
// so the last deltas are never lost).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/slo.hpp"

namespace dc::obs::timeline {

// The substrate counters the sampler tracks per window. A provider returns
// the *cumulative* values since process start / last reset; the sampler
// differences consecutive samples itself.
struct CounterSample {
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t lock_fallbacks = 0;
  uint64_t tle_entries = 0;
  uint64_t faults_injected = 0;
  uint64_t crashes_injected = 0;
  uint64_t storm_entries = 0;
  uint64_t storm_exits = 0;
  uint64_t lock_recoveries = 0;
  uint64_t orphans_reaped = 0;
  // Service-tier counters (src/service). Zero outside service runs: the
  // default htm-only provider never sets them, so closed-loop reports stay
  // byte-identical in shape and the validator can enforce all-zero when no
  // "service" section is present.
  uint64_t sessions_shed = 0;
  uint64_t chaos_phases = 0;
  // Memory-pressure counters (src/memory pool, PR 10). All monotone —
  // pool_os_bytes grows only (the pool never unmaps), so it differences
  // like any other cumulative counter and a window's delta is the bytes
  // newly mapped inside it. Zero on clean runs (no --mem-limit /
  // --alloc-fault-rate and no crashes): the validator enforces the
  // zero-overhead guard both directions.
  uint64_t pool_allocations = 0;
  uint64_t pool_deallocations = 0;
  uint64_t pool_os_bytes = 0;
  uint64_t alloc_failures = 0;
  uint64_t alloc_faults_injected = 0;
  uint64_t pool_caches_reaped = 0;
  uint64_t mem_pressure_onsets = 0;
  uint64_t mem_pressure_exits = 0;
  uint64_t sessions_shed_mem = 0;  // service tier, like sessions_shed
};

using CounterProvider = CounterSample (*)();

// One operation's interval latency digest inside a window.
struct OpWindow {
  uint64_t count = 0;
  float p50_ns = 0.0f;
  float p90_ns = 0.0f;
  float p99_ns = 0.0f;
  float p999_ns = 0.0f;
};

inline constexpr std::size_t kNumOps =
    static_cast<std::size_t>(OpKind::kNumOps);

struct Window {
  uint64_t index = 0;       // monotonic window number (survives ring wrap)
  double t_start_ms = 0.0;  // since sampler start
  double t_end_ms = 0.0;
  CounterSample delta;      // counter increments inside this window
  OpWindow ops[kNumOps];    // per-op interval latency digests
};

// Anomaly kinds the phase detector annotates windows with. Each event's
// `value` is the window's delta of the kind's counter, so the per-kind sum
// over all events equals the cumulative counter (storm_onset ->
// storm_entries, storm_exit -> storm_exits, lock_recovery ->
// lock_recoveries, orphan_reap -> orphans_reaped, thread_crash ->
// crashes_injected, shed_onset ->
// sessions_shed, chaos_phase -> chaos_phases) whenever no events were
// dropped.
enum class Annotation : uint8_t {
  kStormOnset = 0,
  kStormExit,
  kLockRecovery,
  kOrphanReap,
  kThreadCrash,
  kShedOnset,
  kChaosPhase,
  // Memory-pressure episode edges (mem_pressure_onset -> the pool's
  // mem_pressure_onsets counter, mem_pressure_exit -> mem_pressure_exits,
  // mem_shed_onset -> sessions_shed_mem, alloc_fault_burst ->
  // alloc_failures) — same exact-decomposition contract as above.
  kMemPressureOnset,
  kMemPressureExit,
  kMemShedOnset,
  kAllocFaultBurst,
  kNumKinds,
};

const char* to_string(Annotation kind) noexcept;

struct Event {
  double t_ms = 0.0;    // window end time
  uint64_t window = 0;  // Window::index the anomaly was detected in
  Annotation kind = Annotation::kStormOnset;
  uint64_t value = 0;   // the window's counter delta for this kind
};

struct SamplerConfig {
  double interval_ms = 10.0;        // tumbling-window width
  std::size_t window_capacity = 4096;   // ring: oldest overwritten
  std::size_t event_capacity = 65536;   // annotation buffer: excess dropped
  CounterProvider provider = nullptr;   // required
  std::vector<slo::Target> slo;         // evaluated as each window closes
};

// Spawns the sampler thread. Returns false (no thread) if one is already
// running, the provider is null, or interval_ms <= 0.
bool start(const SamplerConfig& cfg);

// Closes the final partial window, joins the thread. Idempotent; retained
// windows/annotations/SLO state stay readable until reset().
void stop() noexcept;

bool running() noexcept;

// Retained windows, oldest first. Safe at any time (copied under lock).
std::vector<Window> windows();
std::vector<Event> annotations();

uint64_t windows_total() noexcept;    // produced, including overwritten
uint64_t windows_dropped() noexcept;  // overwritten by ring wrap
uint64_t events_dropped() noexcept;

// Per-kind event-value sums (annotation conservation; cheap, no copy).
uint64_t annotation_sum(Annotation kind) noexcept;

// The interval the last (or current) sampler ran at; 0 if none ever ran.
double interval_ms() noexcept;

// TSC at sampler start — lets exporters place windows on the same time
// axis as trace events. 0 if the sampler never ran.
uint64_t start_cycles() noexcept;

// The counter sample taken at start(): windows decompose the counters
// accumulated AFTER this baseline (nonzero if the embedder ran work before
// starting the sampler).
CounterSample baseline();

// SLO evaluation state (one entry per configured target, config order).
std::vector<slo::TargetState> slo_results();
uint64_t slo_violations_total() noexcept;

// One contiguous run of SLO-violating windows. Episodes make *recovery*
// first-class: a chaos phase that pushes latency over target opens an
// episode at the first violating window, and the episode closes — the SLO
// is re-attained — at the first later window that was evaluated (had op
// samples for at least one target) and violated nothing. MTTR for a phase
// is then t_end_ms of its episode minus the phase onset. An episode still
// open at stop() has recovered == false and t_end_ms/end_window frozen at
// the last violating window seen.
struct SloEpisode {
  uint64_t start_window = 0;  // Window::index of the first violation
  double t_start_ms = 0.0;    // that window's t_end_ms (detection time)
  uint64_t end_window = 0;    // first clean evaluated window (if recovered)
  double t_end_ms = 0.0;      // re-attainment time; last-violation if not
  bool recovered = false;
  uint64_t violating_windows = 0;
};

// All episodes, oldest first (copied under lock; safe at any time).
std::vector<SloEpisode> slo_episodes();

// Number of closed (recovered) episodes.
uint64_t slo_reattainments() noexcept;

// True if `w` violates any of `targets` — the same per-window test the
// sampler applies, exposed so embedders (the chaos orchestrator's MTTR
// computation) can re-run it over retained windows without duplicating the
// quantile-picking logic. A window with no samples for a target does not
// violate it.
bool window_violates_slo(const Window& w,
                         const std::vector<slo::Target>& targets);

// Prometheus-style text exposition of the end-of-run state: cumulative
// substrate counters, per-op latency quantiles, annotation totals, window
// bookkeeping, and SLO verdicts. Call after stop(). Returns false (with a
// message on stderr) if the file cannot be written.
bool export_prometheus(const std::string& path);

// Drops all retained state (windows, annotations, SLO accumulators,
// baseline). Quiescent-only; refuses (returning false) while running.
bool reset() noexcept;

}  // namespace dc::obs::timeline
