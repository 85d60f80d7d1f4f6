// Helpers shared by the figure-reproduction benchmark binaries.
#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "collect/registry.hpp"
#include "htm/config.hpp"
#include "htm/stats.hpp"
#include "memory/pool.hpp"
#include "obs/conflict_map.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "obs/retry_stats.hpp"
#include "obs/slo.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "sim/options.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace dc::bench {

// Construction parameters sized for a workload with `total_slots` handles
// spread over `worker_threads` registering threads (the static baseline's
// per-thread regions must fit the largest per-thread share).
inline collect::MakeParams params_for(uint32_t total_slots,
                                      uint32_t worker_threads) {
  collect::MakeParams p;
  const uint32_t per = (total_slots + worker_threads - 1) / worker_threads;
  p.static_capacity = static_cast<int32_t>(per * worker_threads);
  p.max_threads = worker_threads;
  p.min_size = 16;
  return p;
}

inline const collect::AlgoInfo& algo(const std::string& name) {
  for (const auto& info : collect::all_algorithms()) {
    if (info.name == name) return info;
  }
  std::fprintf(stderr, "unknown algorithm %s\n", name.c_str());
  std::abort();
}

namespace detail {

// Adapts the substrate's per-thread counters to the timeline sampler's
// layering-neutral CounterSample (obs must not depend on htm, so the
// sampler pulls through this callback). Safe while workers are hot:
// TxnStats cells are single-writer RelaxedCounters.
inline obs::timeline::CounterSample htm_counter_sample() {
  const htm::TxnStats s = htm::aggregate_stats();
  obs::timeline::CounterSample c;
  c.commits = s.commits;
  c.aborts = s.aborts;
  c.lock_fallbacks = s.lock_fallbacks;
  c.tle_entries = s.tle_entries;
  c.faults_injected = s.faults_injected;
  c.crashes_injected = s.crashes_injected;
  c.storm_entries = s.storm_entries;
  c.storm_exits = s.storm_exits;
  c.lock_recoveries = s.lock_recoveries;
  c.orphans_reaped = s.orphans_reaped;
  // Pool counters ride the same sample so memory-pressure onsets land on
  // the same timeline axis as commits/aborts (all monotone; os_bytes never
  // shrinks by construction — the never-unmapping contract).
  const mem::PoolStats ps = mem::pool_stats();
  c.pool_allocations = ps.allocations;
  c.pool_deallocations = ps.deallocations;
  c.pool_os_bytes = ps.os_bytes;
  c.alloc_failures = ps.alloc_failures;
  c.alloc_faults_injected = ps.alloc_faults_injected;
  c.pool_caches_reaped = ps.cache_blocks_reaped;
  c.mem_pressure_onsets = ps.mem_pressure_onsets;
  c.mem_pressure_exits = ps.mem_pressure_exits;
  return c;
}

}  // namespace detail

// Applies the obs-layer runtime switches implied by the options for the
// lifetime of one benchmark run, and exports the Chrome trace on exit.
// Declare one at the top of every bench main, after Options::parse:
//   --trace PATH  opens every switch (event trace + conflict attribution +
//                 latency timing) and writes PATH at the end;
//   --hist        opens only the latency-timing switch;
//   --clock P     selects the global-clock policy before any worker starts;
//   --fault-rate  arms the spurious-abort injector before any worker starts;
//   --crash-rate  arms the thread-death injector before any worker starts
//                 (worker bodies must run under crash::run_victim to opt in);
//   --sample-interval MS  starts the continuous-telemetry sampler
//                 (obs/timeline.hpp) before any worker starts, with the
//                 latency-timing switch opened so windows carry op
//                 percentiles; --slo SPEC arms per-window SLO targets and
//                 --metrics-out PATH writes the Prometheus exposition at
//                 teardown. With the interval at 0 (the default) no
//                 sampler thread is ever spawned — the zero-overhead
//                 guard tests and the validator both check this.
class ObsSession {
 public:
  // `provider` feeds the timeline sampler; benches with harness-level
  // counters of their own (bench_service merges sessions_shed/chaos_phases
  // into the substrate sample) pass a merged provider, everyone else takes
  // the default htm-only one.
  explicit ObsSession(const sim::Options& opts,
                      obs::timeline::CounterProvider provider =
                          &detail::htm_counter_sample)
      : opts_(opts), provider_(provider) {
    if (!opts_.clock.empty()) {
      htm::ClockPolicy policy = htm::config().clock_policy;
      if (!htm::parse_clock_policy(opts_.clock.c_str(), policy)) {
        std::fprintf(stderr, "--clock: unknown policy '%s' (gv1|gv5)\n",
                     opts_.clock.c_str());
        std::exit(2);
      }
      htm::config().clock_policy = policy;
    }
    if (opts_.fault_rate >= 0.0) {
      htm::config().fault.rate = opts_.fault_rate > 1.0 ? 1.0
                                                        : opts_.fault_rate;
    }
    if (opts_.crash_rate >= 0.0) {
      htm::config().crash.rate = opts_.crash_rate > 1.0 ? 1.0
                                                        : opts_.crash_rate;
    }
    if (opts_.mem_limit != ~0ull) {
      htm::config().mem.limit_bytes = opts_.mem_limit;
    }
    if (opts_.alloc_fault_rate >= 0.0) {
      htm::config().mem.alloc_fault_rate =
          opts_.alloc_fault_rate > 1.0 ? 1.0 : opts_.alloc_fault_rate;
    }
    if (!opts_.trace_path.empty()) {
      obs::set_all(true);
      if (!obs::kTraceCompiled) {
        std::fprintf(stderr,
                     "# --trace: event-trace hooks are compiled out; rebuild "
                     "with -DDC_TRACE=ON for transaction events (the trace "
                     "file will still be valid, but sparse; the JSON "
                     "report records trace.enabled=false)\n");
      }
    } else if (opts_.hist) {
      obs::set_timing(true);
    }
    if (opts_.sample_interval_ms > 0.0) {
      obs::timeline::SamplerConfig cfg;
      cfg.interval_ms = opts_.sample_interval_ms;
      cfg.provider = provider_;
      if (!opts_.slo.empty()) {
        std::string err;
        if (!obs::slo::parse(opts_.slo, &cfg.slo, &err)) {
          std::fprintf(stderr, "--slo: %s\n", err.c_str());
          std::exit(2);
        }
      }
      // Windows carry per-op latency percentiles only if the driver-level
      // timers record; sampling implies the timing switch.
      obs::set_timing(true);
      if (!obs::timeline::start(cfg)) {
        std::fprintf(stderr,
                     "--sample-interval: sampler failed to start (already "
                     "running?)\n");
        std::exit(2);
      }
      sampling_ = true;
    }
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  ~ObsSession() {
    // Close the final telemetry window before any exporter reads it
    // (idempotent: bench::report already stopped the sampler on the
    // normal path; this covers benches that exit without reporting).
    obs::timeline::stop();
    if (!opts_.metrics_path.empty()) {
      if (obs::timeline::export_prometheus(opts_.metrics_path)) {
        std::fprintf(stderr, "# metrics written to %s\n",
                     opts_.metrics_path.c_str());
      }
    }
    if (!opts_.trace_path.empty()) {
      if (obs::export_chrome_trace(opts_.trace_path)) {
        std::fprintf(stderr, "# trace written to %s (%llu events retained)\n",
                     opts_.trace_path.c_str(),
                     static_cast<unsigned long long>(
                         obs::snapshot_events().size()));
      }
      obs::set_all(false);
    } else if (opts_.hist) {
      obs::set_timing(false);
    }
    if (sampling_) obs::set_timing(false);
  }

 private:
  sim::Options opts_;
  obs::timeline::CounterProvider provider_;
  bool sampling_ = false;
};

// google-benchmark rejects flags it does not know, so the two benches built
// on it peel the obs options out of argv before benchmark::Initialize sees
// it. Returns an Options carrying only trace_path/hist; argc/argv are
// rewritten in place without the consumed arguments.
inline sim::Options extract_obs_options(int& argc, char** argv) {
  sim::Options opts;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) {
      opts.trace_path = argv[++i];
    } else if (arg == "--clock" && i + 1 < argc) {
      opts.clock = argv[++i];
    } else if (arg == "--fault-rate" && i + 1 < argc) {
      opts.fault_rate = std::atof(argv[++i]);
    } else if (arg == "--crash-rate" && i + 1 < argc) {
      opts.crash_rate = std::atof(argv[++i]);
    } else if (arg == "--mem-limit" && i + 1 < argc) {
      const char* v = argv[++i];
      char* end = nullptr;
      unsigned long long bytes = std::strtoull(v, &end, 0);
      if (*end == 'k' || *end == 'K') bytes <<= 10;
      else if (*end == 'm' || *end == 'M') bytes <<= 20;
      else if (*end == 'g' || *end == 'G') bytes <<= 30;
      opts.mem_limit = bytes;
    } else if (arg == "--alloc-fault-rate" && i + 1 < argc) {
      opts.alloc_fault_rate = std::atof(argv[++i]);
    } else if (arg == "--sample-interval" && i + 1 < argc) {
      opts.sample_interval_ms = std::atof(argv[++i]);
    } else if (arg == "--slo" && i + 1 < argc) {
      opts.slo = argv[++i];
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      opts.metrics_path = argv[++i];
    } else if (arg == "--hist") {
      opts.hist = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  argv[argc] = nullptr;
  // Same implication sim::Options::parse applies: SLOs / the Prometheus
  // exposition need the sampler, so default it to 10 ms windows.
  if (opts.sample_interval_ms == 0.0 &&
      (!opts.slo.empty() || !opts.metrics_path.empty())) {
    opts.sample_interval_ms = 10.0;
  }
  return opts;
}

// Prints the HTM substrate's commit/abort counters accumulated since the
// last reset — the diagnostics behind the figures' abort-rate narratives.
inline void print_htm_diagnostics() {
  const htm::TxnStats s = htm::aggregate_stats();
  std::printf(
      "\n[htm] commits=%llu aborts=%llu (conflict=%llu overflow=%llu "
      "explicit=%llu) abort-rate=%.1f%% tle-fallbacks=%llu\n"
      "[htm] clock=%s writer-commits=%llu clock-bumps=%llu "
      "sloppy-stamps=%llu resamples=%llu catchups=%llu\n"
      "[htm] coalesced-stores=%llu read-set-hwm=%llu write-set-hwm=%llu\n",
      static_cast<unsigned long long>(s.commits),
      static_cast<unsigned long long>(s.aborts),
      static_cast<unsigned long long>(
          s.aborts_by_code[static_cast<int>(htm::AbortCode::kConflict)]),
      static_cast<unsigned long long>(
          s.aborts_by_code[static_cast<int>(htm::AbortCode::kOverflow)]),
      static_cast<unsigned long long>(
          s.aborts_by_code[static_cast<int>(htm::AbortCode::kExplicit)]),
      100.0 * s.abort_rate(),
      static_cast<unsigned long long>(s.lock_fallbacks),
      htm::to_string(htm::config().clock_policy),
      static_cast<unsigned long long>(s.writer_commits),
      static_cast<unsigned long long>(s.clock_bumps),
      static_cast<unsigned long long>(s.sloppy_stamps),
      static_cast<unsigned long long>(s.clock_resamples),
      static_cast<unsigned long long>(s.clock_catchups),
      static_cast<unsigned long long>(s.coalesced_stores),
      static_cast<unsigned long long>(s.max_read_set),
      static_cast<unsigned long long>(s.max_write_set));
  std::printf(
      "[htm] faults-injected=%llu tle-entries=%llu "
      "storm-enter/exit=%llu/%llu max-consec-aborts=%llu\n",
      static_cast<unsigned long long>(s.faults_injected),
      static_cast<unsigned long long>(s.tle_entries),
      static_cast<unsigned long long>(s.storm_entries),
      static_cast<unsigned long long>(s.storm_exits),
      static_cast<unsigned long long>(s.max_consec_aborts));
  if (s.crashes_injected != 0 || s.lock_recoveries != 0 ||
      s.orphans_reaped != 0) {
    std::printf(
        "[htm] crashes-injected=%llu lock-recoveries=%llu "
        "orphans-reaped=%llu\n",
        static_cast<unsigned long long>(s.crashes_injected),
        static_cast<unsigned long long>(s.lock_recoveries),
        static_cast<unsigned long long>(s.orphans_reaped));
  }
  // Memory-pressure diagnostics — only interesting when bounded mode,
  // allocation-fault injection, or a stranded-cache reap actually fired.
  const mem::PoolStats ps = mem::pool_stats();
  if (ps.limit_bytes != 0 || ps.alloc_failures != 0 ||
      ps.cache_blocks_stranded != 0) {
    std::printf(
        "[mem] limit=%llu os-bytes=%llu live-blocks=%llu "
        "alloc-failures=%llu (injected=%llu) pressure-onsets/exits=%llu/%llu "
        "caches-stranded/reaped=%llu/%llu\n",
        static_cast<unsigned long long>(ps.limit_bytes),
        static_cast<unsigned long long>(ps.os_bytes),
        static_cast<unsigned long long>(ps.live_blocks),
        static_cast<unsigned long long>(ps.alloc_failures),
        static_cast<unsigned long long>(ps.alloc_faults_injected),
        static_cast<unsigned long long>(ps.mem_pressure_onsets),
        static_cast<unsigned long long>(ps.mem_pressure_exits),
        static_cast<unsigned long long>(ps.cache_blocks_stranded),
        static_cast<unsigned long long>(ps.cache_blocks_reaped));
  }
  // Per-cause retry depth quantiles — which abort attempt number each cause
  // was recorded at (attempt 0 = first try); populated whenever aborts occur.
  for (std::size_t c = 0; c < obs::kNumRetryCauses; ++c) {
    const obs::RetrySummary rs = obs::summarize_retries(c);
    if (rs.count == 0) continue;
    std::printf(
        "[obs] retry %-12s n=%-9llu p50-attempt=%.0f p99-attempt=%.0f "
        "max-attempt=%llu\n",
        obs::retry_cause_name(static_cast<uint8_t>(c)),
        static_cast<unsigned long long>(rs.count), rs.p50_attempt,
        rs.p99_attempt, static_cast<unsigned long long>(rs.max_attempt));
  }
  // Per-operation latency quantiles — populated only on --hist/--trace runs
  // (or in DC_TRACE builds for the commit path).
  for (int op = 0; op < static_cast<int>(obs::OpKind::kNumOps); ++op) {
    const auto kind = static_cast<obs::OpKind>(op);
    const obs::OpSummary lat = obs::summarize_op(kind);
    if (lat.count == 0) continue;
    std::printf(
        "[obs] %-10s n=%-9llu p50=%.0fns p90=%.0fns p99=%.0fns max=%.0fns\n",
        obs::to_string(kind), static_cast<unsigned long long>(lat.count),
        lat.p50_ns, lat.p90_ns, lat.p99_ns, lat.max_ns);
  }
  // Conflict attribution — populated only when the conflict switch was open
  // in a DC_TRACE build (or when tests feed the table directly).
  const std::vector<obs::ConflictEntry> hot = obs::top_conflicts(5);
  if (!hot.empty()) {
    std::printf("[obs] hottest orecs by conflict aborts:\n");
    for (const obs::ConflictEntry& e : hot) {
      std::size_t dominant = 0;
      for (std::size_t c = 1; c < e.by_context.size(); ++c) {
        if (e.by_context[c] > e.by_context[dominant]) dominant = c;
      }
      std::printf("[obs]   orec %-10llu aborts=%-8llu top-algo=%s\n",
                  static_cast<unsigned long long>(e.orec_index),
                  static_cast<unsigned long long>(e.count),
                  obs::context_name(static_cast<uint8_t>(dominant)).c_str());
    }
  }
}

namespace detail {

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
        break;
    }
  }
  return out;
}

// Table cells are produced by util::Table::fmt, so most are plain numbers;
// emit those unquoted so consumers get JSON numbers, not strings.
inline bool is_json_number(const std::string& s) {
  if (s.empty()) return false;
  char* end = nullptr;
  std::strtod(s.c_str(), &end);
  return end != nullptr && *end == '\0';
}

inline void write_json_cell(std::FILE* f, const std::string& cell) {
  if (is_json_number(cell)) {
    std::fprintf(f, "%s", cell.c_str());
  } else {
    std::fprintf(f, "\"%s\"", json_escape(cell).c_str());
  }
}

// Emits a CounterSample as the body of a JSON object (no braces): the same
// twenty-one keys for the baseline and for every window's deltas, so
// validators can difference them uniformly. The two service-tier keys are
// all-zero outside service runs (validator-enforced against the presence
// of the "service" section); the memory-tier keys are all-zero unless a
// capacity bound / allocation-fault injection is configured (enforced the
// same way against options.mem_limit / options.alloc_fault_rate), except
// pool_allocations/pool_deallocations/pool_os_bytes which track the
// always-on pool.
inline void write_counter_fields(std::FILE* f,
                                 const obs::timeline::CounterSample& c) {
  std::fprintf(
      f,
      "\"commits\": %llu, \"aborts\": %llu, \"lock_fallbacks\": %llu, "
      "\"tle_entries\": %llu, \"faults_injected\": %llu, "
      "\"crashes_injected\": %llu, \"storm_entries\": %llu, "
      "\"storm_exits\": %llu, \"lock_recoveries\": %llu, "
      "\"orphans_reaped\": %llu, \"sessions_shed\": %llu, \"chaos_phases\": %llu, "
      "\"pool_allocations\": %llu, \"pool_deallocations\": %llu, "
      "\"pool_os_bytes\": %llu, \"alloc_failures\": %llu, "
      "\"alloc_faults_injected\": %llu, \"pool_caches_reaped\": %llu, "
      "\"mem_pressure_onsets\": %llu, \"mem_pressure_exits\": %llu, "
      "\"sessions_shed_mem\": %llu",
      static_cast<unsigned long long>(c.commits),
      static_cast<unsigned long long>(c.aborts),
      static_cast<unsigned long long>(c.lock_fallbacks),
      static_cast<unsigned long long>(c.tle_entries),
      static_cast<unsigned long long>(c.faults_injected),
      static_cast<unsigned long long>(c.crashes_injected),
      static_cast<unsigned long long>(c.storm_entries),
      static_cast<unsigned long long>(c.storm_exits),
      static_cast<unsigned long long>(c.lock_recoveries),
      static_cast<unsigned long long>(c.orphans_reaped),
      static_cast<unsigned long long>(c.sessions_shed),
      static_cast<unsigned long long>(c.chaos_phases),
      static_cast<unsigned long long>(c.pool_allocations),
      static_cast<unsigned long long>(c.pool_deallocations),
      static_cast<unsigned long long>(c.pool_os_bytes),
      static_cast<unsigned long long>(c.alloc_failures),
      static_cast<unsigned long long>(c.alloc_faults_injected),
      static_cast<unsigned long long>(c.pool_caches_reaped),
      static_cast<unsigned long long>(c.mem_pressure_onsets),
      static_cast<unsigned long long>(c.mem_pressure_exits),
      static_cast<unsigned long long>(c.sessions_shed_mem));
}

// The "mem" section of the v9 report: global pool accounting plus the
// per-thread ledgers, always present so the validator can re-prove the
// conservation laws offline (sum of thread ledgers == globals;
// allocations - deallocations == live_blocks; reaped <= stranded) and
// enforce the zero-overhead guard (failure/injection/pressure counters all
// zero whenever bounded mode, injection and crash injection are off).
inline void write_mem_section(std::FILE* f) {
  const mem::PoolStats ps = mem::pool_stats();
  std::fprintf(
      f,
      "  \"mem\": {\"limit_bytes\": %llu, \"alloc_fault_rate\": %g, "
      "\"os_bytes\": %llu, \"live_bytes\": %llu, \"live_blocks\": %llu, "
      "\"allocations\": %llu, \"deallocations\": %llu, "
      "\"alloc_failures\": %llu, \"alloc_faults_injected\": %llu, "
      "\"cache_blocks_stranded\": %llu, \"cache_blocks_reaped\": %llu, "
      "\"mem_pressure_onsets\": %llu, \"mem_pressure_exits\": %llu,\n"
      "    \"threads\": [",
      static_cast<unsigned long long>(ps.limit_bytes),
      htm::config().mem.alloc_fault_rate,
      static_cast<unsigned long long>(ps.os_bytes),
      static_cast<unsigned long long>(ps.live_bytes),
      static_cast<unsigned long long>(ps.live_blocks),
      static_cast<unsigned long long>(ps.allocations),
      static_cast<unsigned long long>(ps.deallocations),
      static_cast<unsigned long long>(ps.alloc_failures),
      static_cast<unsigned long long>(ps.alloc_faults_injected),
      static_cast<unsigned long long>(ps.cache_blocks_stranded),
      static_cast<unsigned long long>(ps.cache_blocks_reaped),
      static_cast<unsigned long long>(ps.mem_pressure_onsets),
      static_cast<unsigned long long>(ps.mem_pressure_exits));
  const std::vector<mem::PoolThreadStats> threads = mem::pool_thread_stats();
  for (std::size_t i = 0; i < threads.size(); ++i) {
    const mem::PoolThreadStats& t = threads[i];
    std::fprintf(f,
                 "%s\n      {\"tid\": %u, \"allocations\": %llu, "
                 "\"deallocations\": %llu, \"alloc_failures\": %llu, "
                 "\"alloc_faults_injected\": %llu}",
                 i == 0 ? "" : ",", t.tid,
                 static_cast<unsigned long long>(t.allocations),
                 static_cast<unsigned long long>(t.deallocations),
                 static_cast<unsigned long long>(t.alloc_failures),
                 static_cast<unsigned long long>(t.alloc_faults_injected));
  }
  std::fprintf(f, "%s]},\n", threads.empty() ? "" : "\n    ");
}

// The "timeline" section of the v7 report. Absent entirely when the sampler
// never ran — its presence is itself the zero-overhead signal the validator
// keys on. Call only after obs::timeline::stop() (bench::report does) so
// the final partial window is included.
inline void write_timeline_section(std::FILE* f) {
  namespace tl = obs::timeline;
  if (tl::interval_ms() <= 0.0) return;
  const std::vector<tl::Window> wins = tl::windows();
  const std::vector<tl::Event> events = tl::annotations();
  std::fprintf(f,
               "  \"timeline\": {\"sample_interval_ms\": %g, "
               "\"windows_total\": %llu, \"windows_dropped\": %llu, "
               "\"events_dropped\": %llu,\n",
               tl::interval_ms(),
               static_cast<unsigned long long>(tl::windows_total()),
               static_cast<unsigned long long>(tl::windows_dropped()),
               static_cast<unsigned long long>(tl::events_dropped()));
  std::fprintf(f, "    \"baseline\": {");
  write_counter_fields(f, tl::baseline());
  std::fprintf(f, "},\n");
  std::fprintf(f, "    \"windows\": [");
  for (std::size_t i = 0; i < wins.size(); ++i) {
    const tl::Window& w = wins[i];
    std::fprintf(f,
                 "%s\n      {\"i\": %llu, \"t_start_ms\": %.3f, "
                 "\"t_end_ms\": %.3f, ",
                 i == 0 ? "" : ",", static_cast<unsigned long long>(w.index),
                 w.t_start_ms, w.t_end_ms);
    write_counter_fields(f, w.delta);
    std::fprintf(f, ", \"ops\": {");
    bool first_op = true;
    for (std::size_t op = 0; op < tl::kNumOps; ++op) {
      const tl::OpWindow& ow = w.ops[op];
      if (ow.count == 0) continue;  // quiet ops omitted: windows stay small
      std::fprintf(f,
                   "%s\"%s\": {\"count\": %llu, \"p50_ns\": %.1f, "
                   "\"p90_ns\": %.1f, \"p99_ns\": %.1f, \"p999_ns\": %.1f}",
                   first_op ? "" : ", ",
                   obs::to_string(static_cast<obs::OpKind>(op)),
                   static_cast<unsigned long long>(ow.count), ow.p50_ns,
                   ow.p90_ns, ow.p99_ns, ow.p999_ns);
      first_op = false;
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "%s],\n", wins.empty() ? "" : "\n    ");
  std::fprintf(f, "    \"annotations\": [");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const tl::Event& e = events[i];
    std::fprintf(f,
                 "%s\n      {\"t_ms\": %.3f, \"window\": %llu, "
                 "\"kind\": \"%s\", \"value\": %llu}",
                 i == 0 ? "" : ",", e.t_ms,
                 static_cast<unsigned long long>(e.window),
                 tl::to_string(e.kind),
                 static_cast<unsigned long long>(e.value));
  }
  std::fprintf(f, "%s],\n", events.empty() ? "" : "\n    ");
  std::fprintf(f, "    \"annotation_totals\": {");
  for (int k = 0; k < static_cast<int>(tl::Annotation::kNumKinds); ++k) {
    std::fprintf(f, "%s\"%s\": %llu", k == 0 ? "" : ", ",
                 tl::to_string(static_cast<tl::Annotation>(k)),
                 static_cast<unsigned long long>(
                     tl::annotation_sum(static_cast<tl::Annotation>(k))));
  }
  std::fprintf(f, "},\n");
  const std::vector<obs::slo::TargetState> slo = tl::slo_results();
  std::fprintf(f,
               "    \"slo\": {\"violations_total\": %llu, "
               "\"reattainments\": %llu, \"targets\": [",
               static_cast<unsigned long long>(tl::slo_violations_total()),
               static_cast<unsigned long long>(tl::slo_reattainments()));
  for (std::size_t i = 0; i < slo.size(); ++i) {
    const obs::slo::TargetState& ts = slo[i];
    std::fprintf(f,
                 "%s\n      {\"spec\": \"%s\", \"op\": \"%s\", "
                 "\"quantile\": \"%s\", \"bound_ns\": %.1f, "
                 "\"windows_evaluated\": %llu, \"violations\": %llu, "
                 "\"worst_ns\": %.1f}",
                 i == 0 ? "" : ",", json_escape(ts.target.spec).c_str(),
                 obs::to_string(ts.target.op),
                 obs::slo::to_string(ts.target.quantile), ts.target.bound_ns,
                 static_cast<unsigned long long>(ts.windows_evaluated),
                 static_cast<unsigned long long>(ts.violations),
                 ts.worst_ns);
  }
  std::fprintf(f, "%s],\n", slo.empty() ? "" : "\n    ");
  // Violation episodes: contiguous runs of violating windows and whether
  // (and when) the SLO was re-attained — the raw material for MTTR.
  const std::vector<tl::SloEpisode> eps = tl::slo_episodes();
  std::fprintf(f, "    \"episodes\": [");
  for (std::size_t i = 0; i < eps.size(); ++i) {
    const tl::SloEpisode& e = eps[i];
    std::fprintf(f,
                 "%s\n      {\"start_window\": %llu, \"t_start_ms\": %.3f, "
                 "\"end_window\": %llu, \"t_end_ms\": %.3f, "
                 "\"recovered\": %s, \"violating_windows\": %llu}",
                 i == 0 ? "" : ",",
                 static_cast<unsigned long long>(e.start_window),
                 e.t_start_ms, static_cast<unsigned long long>(e.end_window),
                 e.t_end_ms, e.recovered ? "true" : "false",
                 static_cast<unsigned long long>(e.violating_windows));
  }
  std::fprintf(f, "%s]}},\n", eps.empty() ? "" : "\n    ");
}

}  // namespace detail

// Writes one benchmark's results as a JSON report (--json PATH): the swept
// table, the run options, the HTM substrate counters accumulated over the
// run, and the obs layer's latency/conflict/trace summaries. The versioned
// schema lets successive PRs track the performance trajectory (e.g.
// BENCH_fig3.json at the repo root) without scraping the human tables.
//
// schema_version history:
//   1  bench/generated_utc/options/htm/columns/rows (implicit, pre-field)
//   2  adds "schema_version", htm.aborts_by_code, op_latency_ns, conflicts,
//      trace sections
//   3  adds options.clock (active clock policy) and the clock/coalescing
//      counters htm.writer_commits, htm.sloppy_stamps, htm.clock_resamples,
//      htm.clock_catchups, htm.coalesced_stores
//   4  adds options.retry + options.fault_rate, the robustness counters
//      htm.faults_injected, htm.tle_entries, htm.storm_entries,
//      htm.storm_exits, htm.max_consec_aborts, the three spurious
//      aborts_by_code entries (interrupt/tlb-miss/save-restore), and a
//      top-level "retry" section with per-cause attempt-depth quantiles
//   5  adds options.crash_rate and the crash-tolerance counters
//      htm.crashes_injected, htm.lock_recoveries, htm.orphans_reaped
//      (all three must be 0 when crash_rate is 0 — the zero-overhead
//      guard scripts/validate_report.py enforces)
//   6  adds options.validation (active validation backend), the signature
//      counters htm.sig_validations, htm.sig_false_aborts,
//      htm.sig_ring_overflows (all three must be 0 when validation is
//      "exact" — same zero-overhead guard), and the "validate" entry in
//      op_latency_ns
//   7  adds options.sample_interval_ms + options.slo, splits the trace
//      section into requested/enabled/compiled (so "--trace without
//      -DDC_TRACE" is distinguishable from "no events"), and — only when
//      the continuous-telemetry sampler ran — a "timeline" section:
//      tumbling windows (counter deltas + per-op interval percentiles),
//      anomaly annotations whose per-kind value sums decompose the
//      cumulative counters exactly, the baseline sample, and per-window
//      SLO verdicts. With --sample-interval 0 the section is absent and
//      the report is the v6 shape plus the three new scalar fields — the
//      zero-overhead guard scripts/validate_report.py enforces
//   8  adds options.slo_observe, two service-tier keys to every counter
//      block (sessions_shed, chaos_phases — all-zero outside service
//      runs), the shed_onset/chaos_phase annotation kinds, the slo
//      section's reattainments count + episodes list (violation episodes
//      and whether the SLO was re-attained — the raw material for MTTR),
//      and — only for the service harness (bench_service) — a "service"
//      section: session accounting (conservation-checked: generated ==
//      accepted + shed, accepted == completed + killed), harness config,
//      and per-chaos-phase recovery reports. Non-service reports must not
//      have the key — the same both-directions zero guard as every other
//      schema tier
//   9  adds options.mem_limit + options.alloc_fault_rate, the "alloc-failed"
//      aborts_by_code entry and retry cause, nine memory-tier keys to every
//      counter block (pool_allocations/pool_deallocations/pool_os_bytes
//      always live; alloc_failures, alloc_faults_injected,
//      pool_caches_reaped, mem_pressure_onsets, mem_pressure_exits,
//      sessions_shed_mem all-zero unless bounded mode / injection / crashes
//      are on — validator-enforced both directions), the
//      mem_pressure_onset/mem_pressure_exit/mem_shed_onset/alloc_fault_burst
//      annotation kinds, an always-present "mem" section (global pool
//      accounting + per-thread ledgers, conservation-checked offline), the
//      service section's shed_mem/oom counters and its v9 conservation laws
//      (generated == accepted + shed + shed_mem; accepted == completed +
//      killed + oom), and the mem-squeeze chaos phase kind
//  10  drops what schema 4 and 6 added for the since-removed retry and
//      validation policies: options.retry, options.validation,
//      retry.policy, the three htm.sig_* counters (also gone from every
//      counter block) and the sig_saturation annotation kind
//
// `extra_section` (may be null) is invoked where optional sections live —
// after the timeline section, before "columns" — and must emit either
// nothing or one complete `  "key": {...},\n` entry; bench_service uses it
// for the "service" section.
inline void write_json_report(
    const std::string& path, const std::string& bench_name,
    const util::Table& table, const sim::Options& opts,
    const std::function<void(std::FILE*)>& extra_section = nullptr) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write JSON report to %s\n", path.c_str());
    return;
  }
  char stamp[32] = "unknown";
  const std::time_t now = std::time(nullptr);
  if (struct tm tmv; gmtime_r(&now, &tmv) != nullptr) {
    std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &tmv);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema_version\": 10,\n");
  std::fprintf(f, "  \"bench\": \"%s\",\n",
               detail::json_escape(bench_name).c_str());
  std::fprintf(f, "  \"generated_utc\": \"%s\",\n", stamp);
  std::fprintf(f,
               "  \"options\": {\"duration_ms\": %g, \"repeats\": %d, "
               "\"max_threads\": %u, \"hist\": %s, \"trace\": %s, "
               "\"clock\": \"%s\", \"fault_rate\": %g, \"crash_rate\": %g, "
               "\"mem_limit\": %llu, \"alloc_fault_rate\": %g, "
               "\"sample_interval_ms\": %g, \"slo\": \"%s\", "
               "\"slo_observe\": %s},\n",
               opts.duration_ms, opts.repeats, opts.max_threads,
               opts.hist ? "true" : "false",
               opts.trace_path.empty() ? "false" : "true",
               htm::to_string(htm::config().clock_policy),
               htm::config().fault.rate, htm::config().crash.rate,
               static_cast<unsigned long long>(
                   htm::config().mem.limit_bytes),
               htm::config().mem.alloc_fault_rate,
               opts.sample_interval_ms,
               detail::json_escape(opts.slo).c_str(),
               opts.slo_observe ? "true" : "false");
  const htm::TxnStats s = htm::aggregate_stats();
  std::fprintf(
      f,
      "  \"htm\": {\"commits\": %llu, \"aborts\": %llu, "
      "\"abort_rate\": %.4f, \"lock_fallbacks\": %llu, "
      "\"nontxn_stores\": %llu, \"clock_bumps\": %llu, "
      "\"writer_commits\": %llu, \"sloppy_stamps\": %llu, "
      "\"clock_resamples\": %llu, \"clock_catchups\": %llu, "
      "\"coalesced_stores\": %llu, "
      "\"max_read_set\": %llu, \"max_write_set\": %llu, "
      "\"faults_injected\": %llu, \"tle_entries\": %llu, "
      "\"storm_entries\": %llu, \"storm_exits\": %llu, "
      "\"max_consec_aborts\": %llu, "
      "\"crashes_injected\": %llu, \"lock_recoveries\": %llu, "
      "\"orphans_reaped\": %llu,\n"
      "    \"aborts_by_code\": {",
      static_cast<unsigned long long>(s.commits),
      static_cast<unsigned long long>(s.aborts), s.abort_rate(),
      static_cast<unsigned long long>(s.lock_fallbacks),
      static_cast<unsigned long long>(s.nontxn_stores),
      static_cast<unsigned long long>(s.clock_bumps),
      static_cast<unsigned long long>(s.writer_commits),
      static_cast<unsigned long long>(s.sloppy_stamps),
      static_cast<unsigned long long>(s.clock_resamples),
      static_cast<unsigned long long>(s.clock_catchups),
      static_cast<unsigned long long>(s.coalesced_stores),
      static_cast<unsigned long long>(s.max_read_set),
      static_cast<unsigned long long>(s.max_write_set),
      static_cast<unsigned long long>(s.faults_injected),
      static_cast<unsigned long long>(s.tle_entries),
      static_cast<unsigned long long>(s.storm_entries),
      static_cast<unsigned long long>(s.storm_exits),
      static_cast<unsigned long long>(s.max_consec_aborts),
      static_cast<unsigned long long>(s.crashes_injected),
      static_cast<unsigned long long>(s.lock_recoveries),
      static_cast<unsigned long long>(s.orphans_reaped));
  for (int c = 0; c < static_cast<int>(htm::AbortCode::kNumCodes); ++c) {
    std::fprintf(f, "%s\"%s\": %llu", c == 0 ? "" : ", ",
                 htm::to_string(static_cast<htm::AbortCode>(c)),
                 static_cast<unsigned long long>(s.aborts_by_code[c]));
  }
  std::fprintf(f, "}},\n");
  // Per-cause retry depth: at which attempt index each abort cause struck.
  std::fprintf(f, "  \"retry\": {\"by_cause\": {\n");
  for (std::size_t c = 0; c < obs::kNumRetryCauses; ++c) {
    const obs::RetrySummary rs = obs::summarize_retries(static_cast<uint8_t>(c));
    std::fprintf(f,
                 "    \"%s\": {\"count\": %llu, \"p50_attempt\": %.1f, "
                 "\"p99_attempt\": %.1f, \"max_attempt\": %llu}%s\n",
                 obs::retry_cause_name(static_cast<uint8_t>(c)),
                 static_cast<unsigned long long>(rs.count), rs.p50_attempt,
                 rs.p99_attempt,
                 static_cast<unsigned long long>(rs.max_attempt),
                 c + 1 == obs::kNumRetryCauses ? "" : ",");
  }
  std::fprintf(f, "  }},\n");
  // Per-operation latency quantiles (empty histograms report count 0).
  std::fprintf(f, "  \"op_latency_ns\": {\n");
  for (int op = 0; op < static_cast<int>(obs::OpKind::kNumOps); ++op) {
    const auto kind = static_cast<obs::OpKind>(op);
    const obs::OpSummary lat = obs::summarize_op(kind);
    std::fprintf(f,
                 "    \"%s\": {\"count\": %llu, \"p50\": %.1f, \"p90\": %.1f, "
                 "\"p99\": %.1f, \"max\": %.1f, \"mean\": %.1f}%s\n",
                 obs::to_string(kind),
                 static_cast<unsigned long long>(lat.count), lat.p50_ns,
                 lat.p90_ns, lat.p99_ns, lat.max_ns, lat.mean_ns,
                 op + 1 == static_cast<int>(obs::OpKind::kNumOps) ? "" : ",");
  }
  std::fprintf(f, "  },\n");
  // Conflict attribution: the hottest orecs and the algorithm that owned
  // the aborting transactions.
  const std::vector<obs::ConflictEntry> hot = obs::top_conflicts(5);
  std::fprintf(f,
               "  \"conflicts\": {\"recorded\": %llu, \"dropped\": %llu, "
               "\"top\": [",
               static_cast<unsigned long long>(obs::conflicts_recorded()),
               static_cast<unsigned long long>(obs::conflicts_dropped()));
  for (std::size_t i = 0; i < hot.size(); ++i) {
    const obs::ConflictEntry& e = hot[i];
    std::fprintf(f, "%s\n    {\"orec\": %llu, \"count\": %llu, \"by_algo\": {",
                 i == 0 ? "" : ",",
                 static_cast<unsigned long long>(e.orec_index),
                 static_cast<unsigned long long>(e.count));
    bool first = true;
    for (std::size_t c = 0; c < e.by_context.size(); ++c) {
      if (e.by_context[c] == 0) continue;
      std::fprintf(f, "%s\"%s\": %llu", first ? "" : ", ",
                   detail::json_escape(
                       obs::context_name(static_cast<uint8_t>(c)))
                       .c_str(),
                   static_cast<unsigned long long>(e.by_context[c]));
      first = false;
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "%s]},\n", hot.empty() ? "" : "\n  ");
  // --trace without -DDC_TRACE used to only warn on stderr; requested vs
  // enabled vs compiled lets the validator distinguish "no events because
  // nothing was asked for" from "asked for but compiled out".
  const bool trace_requested = obs::tracing_enabled();
  std::fprintf(f,
               "  \"trace\": {\"compiled\": %s, \"requested\": %s, "
               "\"enabled\": %s, \"events_emitted\": %llu},\n",
               obs::kTraceCompiled ? "true" : "false",
               trace_requested ? "true" : "false",
               trace_requested && obs::kTraceCompiled ? "true" : "false",
               static_cast<unsigned long long>(obs::events_emitted()));
  detail::write_mem_section(f);
  detail::write_timeline_section(f);
  if (extra_section) extra_section(f);
  std::fprintf(f, "  \"columns\": [");
  const auto& headers = table.headers();
  for (std::size_t i = 0; i < headers.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ",
                 detail::json_escape(headers[i]).c_str());
  }
  std::fprintf(f, "],\n");
  std::fprintf(f, "  \"rows\": [\n");
  const auto& rows = table.rows();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::fprintf(f, "    [");
    for (std::size_t c = 0; c < rows[r].size(); ++c) {
      if (c != 0) std::fprintf(f, ", ");
      detail::write_json_cell(f, rows[r][c]);
    }
    std::fprintf(f, "]%s\n", r + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

// Human diagnostics for the telemetry timeline: window/annotation tallies
// and per-target SLO verdicts. No-op when the sampler never ran.
inline void print_timeline_summary() {
  namespace tl = obs::timeline;
  if (tl::interval_ms() <= 0.0) return;
  std::printf(
      "[obs] timeline: %llu windows of %gms (%llu dropped), "
      "%llu annotations%s\n",
      static_cast<unsigned long long>(tl::windows_total()), tl::interval_ms(),
      static_cast<unsigned long long>(tl::windows_dropped()),
      static_cast<unsigned long long>(tl::annotations().size()),
      tl::events_dropped() != 0 ? " (some dropped)" : "");
  for (int k = 0; k < static_cast<int>(tl::Annotation::kNumKinds); ++k) {
    const auto kind = static_cast<tl::Annotation>(k);
    const uint64_t sum = tl::annotation_sum(kind);
    if (sum == 0) continue;
    std::printf("[obs]   %-14s total=%llu\n", tl::to_string(kind),
                static_cast<unsigned long long>(sum));
  }
  for (const obs::slo::TargetState& ts : tl::slo_results()) {
    std::printf(
        "[obs]   slo %-24s windows=%-6llu violations=%-6llu worst=%.0fns "
        "-> %s\n",
        ts.target.spec.c_str(),
        static_cast<unsigned long long>(ts.windows_evaluated),
        static_cast<unsigned long long>(ts.violations), ts.worst_ns,
        ts.violations == 0 ? "PASS" : "FAIL");
  }
  const std::vector<tl::SloEpisode> eps = tl::slo_episodes();
  if (!eps.empty()) {
    std::printf("[obs]   slo episodes=%zu re-attained=%llu\n", eps.size(),
                static_cast<unsigned long long>(tl::slo_reattainments()));
    for (const tl::SloEpisode& e : eps) {
      std::printf(
          "[obs]     episode @%.1fms %s after %.1fms (%llu bad windows)\n",
          e.t_start_ms, e.recovered ? "re-attained" : "NOT re-attained",
          e.t_end_ms - e.t_start_ms,
          static_cast<unsigned long long>(e.violating_windows));
    }
  }
}

// Shared tail of every table-driven figure benchmark: stop the telemetry
// sampler (closing its final partial window), print (CSV or aligned +
// diagnostics), drop the JSON report when requested, and return the
// process exit code (obs::slo::exit_code: 0 clean, 3 when any configured
// SLO target was violated — unless --slo-observe turned violations into
// report-only facts). Bench mains `return bench::report(...)`;
// `extra_section` flows through to write_json_report.
inline int report(
    const util::Table& table, const sim::Options& opts,
    const std::string& bench_name,
    const std::function<void(std::FILE*)>& extra_section = nullptr) {
  obs::timeline::stop();
  if (opts.csv) {
    table.print_csv();
  } else {
    table.print();
    print_htm_diagnostics();
    print_timeline_summary();
  }
  if (!opts.json_path.empty()) {
    write_json_report(opts.json_path, bench_name, table, opts,
                      extra_section);
  }
  if (opts.slo_observe) return 0;
  return obs::slo::exit_code(obs::timeline::slo_violations_total());
}

inline void print_host_caveat() {
  std::printf(
      "# NOTE: software-simulated HTM (TL2-style, 32-entry store buffer,\n"
      "# sandboxing via orec bump on free). The paper ran on a 16-core Rock\n"
      "# CPU; absolute numbers and scalability slopes are not comparable —\n"
      "# compare the relative ordering of the series (see EXPERIMENTS.md).\n");
}

}  // namespace dc::bench
