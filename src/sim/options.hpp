// Command-line options shared by the benchmark binaries.
//
// Every bench runs with sane quick defaults (so `for b in build/bench/*; do
// $b; done` completes in minutes on a small host) and accepts:
//   --csv             machine-readable output
//   --json PATH       additionally write a JSON report to PATH (bench_common)
//   --duration-ms N   measurement window per point (default 50)
//   --repeats N       repetitions averaged per point (default 3)
//   --max-threads N   cap on swept thread counts (default: min(16, 4x cores))
//   --full            paper-scale durations (10 runs, 200 ms windows)
//   --hist            record per-operation latency histograms (obs layer);
//                     p50/p90/p99 appear in the diagnostics and --json
//   --trace PATH      enable the full obs layer (event trace + conflict
//                     attribution + histograms) and write a Chrome/Perfetto
//                     trace to PATH on exit; the event trace itself needs a
//                     -DDC_TRACE=ON build
//   --clock POLICY    global-clock policy: gv5 (sloppy, default) or gv1
//                     (shared fetch_add reference)
//   --fault-rate P    inject Rock-style spurious aborts into a fraction P of
//                     transaction attempts (0..1, default 0 = off); benches
//                     use this to demonstrate graceful degradation, never
//                     for the published figures
//   --crash-rate P    kill a fraction P of atomic blocks mid-flight by
//                     abandoning the simulated thread without cleanup (0..1,
//                     default 0 = off); exercises the recoverable TLE lock
//                     and the lease reaper, never the published figures
//   --mem-limit BYTES bound the pool's OS footprint: past the limit,
//                     allocations fail recoverably (PoolExhausted /
//                     kAllocFailed) instead of growing; 0 (default) =
//                     unbounded. Suffixes k/m/g accepted
//   --alloc-fault-rate P  deny a fraction P of pool allocation attempts
//                     from a seeded per-thread stream (0..1, default 0 =
//                     off); the memory tier of the fault/crash injection
//                     family, never the published figures
//   --sample-interval MS  run the continuous-telemetry sampler
//                     (obs/timeline.hpp) with tumbling windows of MS
//                     milliseconds; 0 (the default) spawns no sampler
//                     thread at all. Implied at 10 ms by --slo or
//                     --metrics-out when not given explicitly
//   --slo SPEC        latency SLO targets evaluated per window, e.g.
//                     "commit_p99<50us,update_p999<1ms" (obs/slo.hpp);
//                     any violated window makes the bench exit 3
//   --metrics-out PATH  write a Prometheus-style text exposition of the
//                     end-of-run counters/quantiles/annotations to PATH
//   --slo-observe     report SLO violations without failing: the run exits 0
//                     even when windows violated a --slo target (the JSON /
//                     table still carry violations, episodes and MTTR).
//                     Chaos runs use this to measure recovery time under
//                     deliberately-unmeetable targets
//
// Service-harness options (bench_service only; other benches reject them):
//   --arrival-rate R  open-loop session arrivals per second (default 0 =
//                     the bench's own default)
//   --burstiness B    MMPP burst factor in [0,1): 0 = pure Poisson, larger
//                     values alternate hot/cold phases around the same mean
//   --chaos PATH      timed chaos script (see src/service/chaos.hpp for the
//                     grammar) driving fault storms, worker kills and rate
//                     spikes
//   --workers N       service worker-pool size (default 0 = bench default)
//   --queue-capacity N  bounded accept-queue depth; arrivals that find it
//                     full are shed (counted, never silently dropped)
//   --longtail FRAC:DWELL  session mix: a fraction FRAC of arrivals are
//                     persistent sessions issuing DWELL requests before
//                     deregistering (the rest are short-lived churn)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dc::sim {

struct Options {
  bool csv = false;
  std::string json_path;   // empty = no JSON report
  std::string trace_path;  // empty = no Chrome trace dump
  std::string clock;       // empty = keep the process default (gv5/DC_CLOCK)
  double fault_rate = -1.0;  // negative = keep the process default (DC_FAULT)
  double crash_rate = -1.0;  // negative = keep the process default (DC_CRASH)
  // ~0 = keep the process default (DC_MEM); 0 = explicitly unbounded.
  uint64_t mem_limit = ~0ull;
  double alloc_fault_rate = -1.0;  // negative = default (DC_ALLOC_FAULT)
  double sample_interval_ms = 0.0;  // 0 = sampler off (no thread spawned)
  std::string slo;          // empty = no SLO targets
  std::string metrics_path; // empty = no Prometheus exposition
  bool slo_observe = false; // report SLO verdicts but always exit 0
  double arrival_rate = 0.0;   // sessions/s; 0 = bench default
  double burstiness = 0.0;     // [0,1); 0 = pure Poisson
  std::string chaos_path;      // empty = no chaos script
  uint32_t workers = 0;        // service pool size; 0 = bench default
  uint32_t queue_capacity = 0; // accept-queue depth; 0 = bench default
  double longtail_fraction = -1.0;  // negative = bench default
  uint32_t longtail_requests = 0;   // 0 = bench default
  bool hist = false;       // per-operation latency histograms
  double duration_ms = 50.0;
  int repeats = 3;
  uint32_t max_threads = 16;  // parse() lowers this on small hosts

  static Options parse(int argc, char** argv);
  static void print_help(const char* prog);
};

// Thread counts swept in the paper's figures (1..16), capped by the option.
std::vector<uint32_t> thread_sweep(const Options& opts);

}  // namespace dc::sim
