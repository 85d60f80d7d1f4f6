#include "obs/timeline.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

#include "util/cycles.hpp"

namespace dc::obs::timeline {

namespace {

CounterSample diff(const CounterSample& cur, const CounterSample& prev) {
  auto sub = [](uint64_t a, uint64_t b) { return a > b ? a - b : 0; };
  CounterSample d;
  d.commits = sub(cur.commits, prev.commits);
  d.aborts = sub(cur.aborts, prev.aborts);
  d.lock_fallbacks = sub(cur.lock_fallbacks, prev.lock_fallbacks);
  d.tle_entries = sub(cur.tle_entries, prev.tle_entries);
  d.faults_injected = sub(cur.faults_injected, prev.faults_injected);
  d.crashes_injected = sub(cur.crashes_injected, prev.crashes_injected);
  d.storm_entries = sub(cur.storm_entries, prev.storm_entries);
  d.storm_exits = sub(cur.storm_exits, prev.storm_exits);
  d.lock_recoveries = sub(cur.lock_recoveries, prev.lock_recoveries);
  d.orphans_reaped = sub(cur.orphans_reaped, prev.orphans_reaped);
  d.sessions_shed = sub(cur.sessions_shed, prev.sessions_shed);
  d.chaos_phases = sub(cur.chaos_phases, prev.chaos_phases);
  d.pool_allocations = sub(cur.pool_allocations, prev.pool_allocations);
  d.pool_deallocations =
      sub(cur.pool_deallocations, prev.pool_deallocations);
  d.pool_os_bytes = sub(cur.pool_os_bytes, prev.pool_os_bytes);
  d.alloc_failures = sub(cur.alloc_failures, prev.alloc_failures);
  d.alloc_faults_injected =
      sub(cur.alloc_faults_injected, prev.alloc_faults_injected);
  d.pool_caches_reaped = sub(cur.pool_caches_reaped, prev.pool_caches_reaped);
  d.mem_pressure_onsets =
      sub(cur.mem_pressure_onsets, prev.mem_pressure_onsets);
  d.mem_pressure_exits = sub(cur.mem_pressure_exits, prev.mem_pressure_exits);
  d.sessions_shed_mem = sub(cur.sessions_shed_mem, prev.sessions_shed_mem);
  return d;
}

double quantile_ns(const LogHistogram& h, double p) {
  return util::cycles_to_ns(h.percentile(p));
}

struct State {
  std::mutex mu;  // guards everything below plus the retained data
  std::condition_variable cv;
  std::thread thread;
  bool thread_active = false;  // a sampler thread exists (running())
  bool stop_requested = false;
  SamplerConfig cfg;

  // Retained results. Written by the sampler thread (tick) under mu;
  // accessors copy under mu, so they are safe while the sampler runs.
  std::vector<Window> ring;  // capacity cfg.window_capacity, oldest first
  std::size_t head = 0;      // ring slot the NEXT window lands in
  uint64_t total_windows = 0;
  uint64_t dropped_windows = 0;
  std::vector<Event> events;
  uint64_t dropped_events = 0;
  uint64_t kind_sums[static_cast<std::size_t>(Annotation::kNumKinds)] = {};
  std::vector<slo::TargetState> slo;
  uint64_t slo_violations = 0;
  std::vector<SloEpisode> episodes;  // back() is open iff episode_open
  bool episode_open = false;
  uint64_t reattainments = 0;

  // Sampler-thread-only cursor state (no lock needed).
  CounterSample base;      // sample at start()
  CounterSample last;      // previous tick's sample
  LogHistogram last_hist[kNumOps];
  double last_t_ms = 0.0;
  uint64_t t0_cycles = 0;
  double effective_interval_ms = 0.0;  // sticky: survives stop()
};

State& state() noexcept {
  static State* s = new State;
  return *s;
}

void annotate(State& s, const Window& w) {
  struct Rule {
    Annotation kind;
    uint64_t value;
  };
  const Rule rules[] = {
      {Annotation::kStormOnset, w.delta.storm_entries},
      {Annotation::kStormExit, w.delta.storm_exits},
      {Annotation::kLockRecovery, w.delta.lock_recoveries},
      {Annotation::kOrphanReap, w.delta.orphans_reaped},
      {Annotation::kThreadCrash, w.delta.crashes_injected},
      {Annotation::kShedOnset, w.delta.sessions_shed},
      {Annotation::kChaosPhase, w.delta.chaos_phases},
      {Annotation::kMemPressureOnset, w.delta.mem_pressure_onsets},
      {Annotation::kMemPressureExit, w.delta.mem_pressure_exits},
      {Annotation::kMemShedOnset, w.delta.sessions_shed_mem},
      {Annotation::kAllocFaultBurst, w.delta.alloc_failures},
  };
  for (const Rule& r : rules) {
    if (r.value == 0) continue;
    s.kind_sums[static_cast<std::size_t>(r.kind)] += r.value;
    if (s.events.size() >= s.cfg.event_capacity) {
      ++s.dropped_events;
      continue;
    }
    s.events.push_back(Event{w.t_end_ms, w.index, r.kind, r.value});
  }
}

// The window's quantile for one target; false when the target's op had no
// samples in the window (the vacuous case — it neither violates nor counts
// as evaluated).
bool target_quantile_ns(const Window& w, const slo::Target& t,
                        double* q_out) {
  const OpWindow& op = w.ops[static_cast<std::size_t>(t.op)];
  if (op.count == 0) return false;
  switch (t.quantile) {
    case slo::Quantile::kP50:
      *q_out = op.p50_ns;
      break;
    case slo::Quantile::kP90:
      *q_out = op.p90_ns;
      break;
    case slo::Quantile::kP99:
      *q_out = op.p99_ns;
      break;
    case slo::Quantile::kP999:
      *q_out = op.p999_ns;
      break;
  }
  return true;
}

void evaluate_slo(State& s, const Window& w) {
  bool evaluated = false;  // >= 1 target had samples this window
  bool violating = false;
  for (slo::TargetState& ts : s.slo) {
    double q = 0.0;
    if (!target_quantile_ns(w, ts.target, &q)) continue;
    evaluated = true;
    ++ts.windows_evaluated;
    if (q > ts.worst_ns) ts.worst_ns = q;
    if (slo::violated(ts.target, q)) {
      violating = true;
      ++ts.violations;
      ++s.slo_violations;
    }
  }
  // Episode tracking: a violating window opens (or extends) an episode; the
  // first *evaluated* clean window after it closes the episode — that close
  // is the re-attainment MTTR measures against. Windows with no samples at
  // all are skipped: an idle gap proves nothing about recovery.
  if (violating) {
    if (!s.episode_open) {
      SloEpisode e;
      e.start_window = w.index;
      e.t_start_ms = w.t_end_ms;
      s.episodes.push_back(e);
      s.episode_open = true;
    }
    SloEpisode& e = s.episodes.back();
    e.end_window = w.index;  // last violation so far (frozen if never clean)
    e.t_end_ms = w.t_end_ms;
    ++e.violating_windows;
  } else if (evaluated && s.episode_open) {
    SloEpisode& e = s.episodes.back();
    e.end_window = w.index;
    e.t_end_ms = w.t_end_ms;
    e.recovered = true;
    s.episode_open = false;
    ++s.reattainments;
  }
}

// Closes one tumbling window ending now. Called from the sampler thread
// with s.mu held (the cursor fields are thread-private, but the retained
// ring/events/slo state must be consistent for concurrent accessors).
void tick(State& s) {
  const double now_ms =
      util::cycles_to_ns(util::rdcycles() - s.t0_cycles) / 1e6;
  Window w;
  w.index = s.total_windows;
  w.t_start_ms = s.last_t_ms;
  w.t_end_ms = now_ms;
  const CounterSample cur = s.cfg.provider();
  w.delta = diff(cur, s.last);
  for (std::size_t op = 0; op < kNumOps; ++op) {
    const LogHistogram cum = aggregate_histogram(static_cast<OpKind>(op));
    const LogHistogram d = cum.interval_since(s.last_hist[op]);
    OpWindow& ow = w.ops[op];
    ow.count = d.count();
    if (ow.count > 0) {
      ow.p50_ns = static_cast<float>(quantile_ns(d, 0.50));
      ow.p90_ns = static_cast<float>(quantile_ns(d, 0.90));
      ow.p99_ns = static_cast<float>(quantile_ns(d, 0.99));
      ow.p999_ns = static_cast<float>(quantile_ns(d, 0.999));
    }
    s.last_hist[op] = cum;
  }
  s.last = cur;
  s.last_t_ms = now_ms;

  annotate(s, w);
  evaluate_slo(s, w);

  if (s.ring.size() < s.cfg.window_capacity) {
    s.ring.push_back(w);
  } else {
    s.ring[s.head] = w;
    s.head = (s.head + 1) % s.cfg.window_capacity;
    ++s.dropped_windows;
  }
  ++s.total_windows;
}

void sampler_main() {
  State& s = state();
  std::unique_lock lock(s.mu);
  const auto interval = std::chrono::duration<double, std::milli>(
      s.cfg.interval_ms);
  while (!s.stop_requested) {
    // Window width is wall-clock driven; a late wakeup just widens the
    // window (t_end is measured, not assumed).
    s.cv.wait_for(lock, interval, [&] { return s.stop_requested; });
    if (s.stop_requested) break;
    tick(s);
  }
  // Final partial window: the deltas since the last full window must not
  // be lost, or the annotation sums would undercount the run's tail.
  tick(s);
}

}  // namespace

const char* to_string(Annotation kind) noexcept {
  switch (kind) {
    case Annotation::kStormOnset:
      return "storm_onset";
    case Annotation::kStormExit:
      return "storm_exit";
    case Annotation::kLockRecovery:
      return "lock_recovery";
    case Annotation::kOrphanReap:
      return "orphan_reap";
    case Annotation::kThreadCrash:
      return "thread_crash";
    case Annotation::kShedOnset:
      return "shed_onset";
    case Annotation::kChaosPhase:
      return "chaos_phase";
    case Annotation::kMemPressureOnset:
      return "mem_pressure_onset";
    case Annotation::kMemPressureExit:
      return "mem_pressure_exit";
    case Annotation::kMemShedOnset:
      return "mem_shed_onset";
    case Annotation::kAllocFaultBurst:
      return "alloc_fault_burst";
    case Annotation::kNumKinds:
      break;
  }
  return "?";
}

bool start(const SamplerConfig& cfg) {
  if (cfg.provider == nullptr || cfg.interval_ms <= 0.0 ||
      cfg.window_capacity == 0) {
    return false;
  }
  State& s = state();
  std::lock_guard lock(s.mu);
  if (s.thread_active) return false;
  s.cfg = cfg;
  s.effective_interval_ms = cfg.interval_ms;
  s.ring.clear();
  s.ring.reserve(cfg.window_capacity);
  s.head = 0;
  s.total_windows = 0;
  s.dropped_windows = 0;
  s.events.clear();
  s.dropped_events = 0;
  for (uint64_t& k : s.kind_sums) k = 0;
  s.slo.clear();
  for (const slo::Target& t : cfg.slo) s.slo.push_back(slo::TargetState{t});
  s.slo_violations = 0;
  s.episodes.clear();
  s.episode_open = false;
  s.reattainments = 0;
  s.base = cfg.provider();
  s.last = s.base;
  for (std::size_t op = 0; op < kNumOps; ++op) {
    s.last_hist[op] = aggregate_histogram(static_cast<OpKind>(op));
  }
  s.t0_cycles = util::rdcycles();
  s.last_t_ms = 0.0;
  s.stop_requested = false;
  s.thread_active = true;
  s.thread = std::thread(sampler_main);
  return true;
}

void stop() noexcept {
  // Callers are the session teardown path (bench report + ObsSession
  // destructor, same thread) — sequential re-stops are no-ops; concurrent
  // stops from distinct threads are not a supported use.
  State& s = state();
  {
    std::lock_guard lock(s.mu);
    if (!s.thread_active || s.stop_requested) return;
    s.stop_requested = true;
  }
  s.cv.notify_all();
  s.thread.join();
  std::lock_guard lock(s.mu);
  s.thread_active = false;
}

bool running() noexcept {
  State& s = state();
  std::lock_guard lock(s.mu);
  return s.thread_active;
}

std::vector<Window> windows() {
  State& s = state();
  std::lock_guard lock(s.mu);
  std::vector<Window> out;
  out.reserve(s.ring.size());
  // Ring order: slots head..end are the oldest retained windows.
  for (std::size_t i = 0; i < s.ring.size(); ++i) {
    out.push_back(s.ring[(s.head + i) % s.ring.size()]);
  }
  return out;
}

std::vector<Event> annotations() {
  State& s = state();
  std::lock_guard lock(s.mu);
  return s.events;
}

uint64_t windows_total() noexcept {
  State& s = state();
  std::lock_guard lock(s.mu);
  return s.total_windows;
}

uint64_t windows_dropped() noexcept {
  State& s = state();
  std::lock_guard lock(s.mu);
  return s.dropped_windows;
}

uint64_t events_dropped() noexcept {
  State& s = state();
  std::lock_guard lock(s.mu);
  return s.dropped_events;
}

uint64_t annotation_sum(Annotation kind) noexcept {
  State& s = state();
  std::lock_guard lock(s.mu);
  return s.kind_sums[static_cast<std::size_t>(kind)];
}

double interval_ms() noexcept {
  State& s = state();
  std::lock_guard lock(s.mu);
  return s.effective_interval_ms;
}

uint64_t start_cycles() noexcept {
  State& s = state();
  std::lock_guard lock(s.mu);
  return s.effective_interval_ms > 0.0 ? s.t0_cycles : 0;
}

CounterSample baseline() {
  State& s = state();
  std::lock_guard lock(s.mu);
  return s.base;
}

std::vector<slo::TargetState> slo_results() {
  State& s = state();
  std::lock_guard lock(s.mu);
  return s.slo;
}

uint64_t slo_violations_total() noexcept {
  State& s = state();
  std::lock_guard lock(s.mu);
  return s.slo_violations;
}

std::vector<SloEpisode> slo_episodes() {
  State& s = state();
  std::lock_guard lock(s.mu);
  return s.episodes;
}

uint64_t slo_reattainments() noexcept {
  State& s = state();
  std::lock_guard lock(s.mu);
  return s.reattainments;
}

bool window_violates_slo(const Window& w,
                         const std::vector<slo::Target>& targets) {
  for (const slo::Target& t : targets) {
    double q = 0.0;
    if (target_quantile_ns(w, t, &q) && slo::violated(t, q)) return true;
  }
  return false;
}

bool reset() noexcept {
  State& s = state();
  std::lock_guard lock(s.mu);
  if (s.thread_active) return false;
  s.ring.clear();
  s.head = 0;
  s.total_windows = 0;
  s.dropped_windows = 0;
  s.events.clear();
  s.dropped_events = 0;
  for (uint64_t& k : s.kind_sums) k = 0;
  s.slo.clear();
  s.slo_violations = 0;
  s.episodes.clear();
  s.episode_open = false;
  s.reattainments = 0;
  s.base = CounterSample{};
  s.last = CounterSample{};
  s.effective_interval_ms = 0.0;
  s.t0_cycles = 0;
  return true;
}

bool export_prometheus(const std::string& path) {
  State& s = state();
  std::lock_guard lock(s.mu);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot write metrics to %s\n", path.c_str());
    return false;
  }
  // Cumulative substrate counters (counter type). Prefer the sampler's
  // last sample; if it never ran but a provider is known, sample now.
  CounterSample c = s.last;
  if (s.effective_interval_ms == 0.0 && s.cfg.provider != nullptr) {
    c = s.cfg.provider();
  }
  struct Row {
    const char* name;
    const char* help;
    uint64_t value;
  };
  const Row counters[] = {
      {"dc_commits_total", "Committed atomic blocks", c.commits},
      {"dc_aborts_total", "Aborted transaction attempts", c.aborts},
      {"dc_lock_fallbacks_total", "Lock-mode attempts (TLE)",
       c.lock_fallbacks},
      {"dc_tle_entries_total", "Blocks escalated to the TLE lock",
       c.tle_entries},
      {"dc_faults_injected_total", "Injected spurious aborts",
       c.faults_injected},
      {"dc_crashes_injected_total", "Injected thread deaths",
       c.crashes_injected},
      {"dc_storm_entries_total", "Abort-storm mode entries",
       c.storm_entries},
      {"dc_storm_exits_total", "Abort-storm mode exits", c.storm_exits},
      {"dc_lock_recoveries_total", "TLE locks stolen from dead owners",
       c.lock_recoveries},
      {"dc_orphans_reaped_total", "Orphaned handles reaped",
       c.orphans_reaped},
      {"dc_sessions_shed_total", "Service sessions shed at admission",
       c.sessions_shed},
      {"dc_chaos_phases_total", "Chaos phases applied", c.chaos_phases},
      {"dc_pool_allocations_total", "Pool blocks handed out",
       c.pool_allocations},
      {"dc_pool_deallocations_total", "Pool blocks returned",
       c.pool_deallocations},
      {"dc_pool_os_bytes", "Bytes mapped from the OS for slabs",
       c.pool_os_bytes},
      {"dc_alloc_failures_total", "Failed pool allocation attempts",
       c.alloc_failures},
      {"dc_alloc_faults_injected_total", "Injected allocation faults",
       c.alloc_faults_injected},
      {"dc_pool_caches_reaped_total",
       "Blocks recovered from dead threads' caches", c.pool_caches_reaped},
      {"dc_mem_pressure_onsets_total", "Memory-pressure episodes opened",
       c.mem_pressure_onsets},
      {"dc_mem_pressure_exits_total", "Memory-pressure episodes closed",
       c.mem_pressure_exits},
      {"dc_sessions_shed_mem_total",
       "Service sessions shed on the pool-utilization watermark",
       c.sessions_shed_mem},
  };
  for (const Row& r : counters) {
    std::fprintf(f, "# HELP %s %s\n# TYPE %s counter\n%s %llu\n", r.name,
                 r.help, r.name, r.name,
                 static_cast<unsigned long long>(r.value));
  }
  std::fprintf(f,
               "# HELP dc_timeline_windows_total Tumbling windows produced\n"
               "# TYPE dc_timeline_windows_total counter\n"
               "dc_timeline_windows_total %llu\n",
               static_cast<unsigned long long>(s.total_windows));
  std::fprintf(f,
               "# HELP dc_timeline_windows_dropped_total Windows lost to "
               "ring wrap\n"
               "# TYPE dc_timeline_windows_dropped_total counter\n"
               "dc_timeline_windows_dropped_total %llu\n",
               static_cast<unsigned long long>(s.dropped_windows));
  std::fprintf(f,
               "# HELP dc_timeline_annotations_total Anomaly annotations "
               "by kind (sum of per-window delta values)\n"
               "# TYPE dc_timeline_annotations_total counter\n");
  for (std::size_t k = 0;
       k < static_cast<std::size_t>(Annotation::kNumKinds); ++k) {
    std::fprintf(f, "dc_timeline_annotations_total{kind=\"%s\"} %llu\n",
                 to_string(static_cast<Annotation>(k)),
                 static_cast<unsigned long long>(s.kind_sums[k]));
  }
  std::fprintf(f,
               "# HELP dc_op_latency_ns Cumulative per-operation latency "
               "quantiles\n"
               "# TYPE dc_op_latency_ns gauge\n");
  for (std::size_t op = 0; op < kNumOps; ++op) {
    const auto kind = static_cast<OpKind>(op);
    const LogHistogram h = aggregate_histogram(kind);
    if (h.count() == 0) continue;
    const struct {
      const char* q;
      double p;
    } qs[] = {{"0.5", 0.50}, {"0.9", 0.90}, {"0.99", 0.99},
              {"0.999", 0.999}};
    for (const auto& q : qs) {
      std::fprintf(f, "dc_op_latency_ns{op=\"%s\",quantile=\"%s\"} %.1f\n",
                   obs::to_string(kind), q.q,
                   util::cycles_to_ns(h.percentile(q.p)));
    }
    std::fprintf(f, "dc_op_latency_ns_count{op=\"%s\"} %llu\n",
                 obs::to_string(kind),
                 static_cast<unsigned long long>(h.count()));
  }
  std::fprintf(f,
               "# HELP dc_slo_violations_total SLO violations by target\n"
               "# TYPE dc_slo_violations_total counter\n");
  for (const slo::TargetState& ts : s.slo) {
    std::fprintf(f, "dc_slo_violations_total{target=\"%s\"} %llu\n",
                 ts.target.spec.c_str(),
                 static_cast<unsigned long long>(ts.violations));
  }
  std::fprintf(f,
               "# HELP dc_slo_reattainments_total Violation episodes that "
               "closed with a clean window\n"
               "# TYPE dc_slo_reattainments_total counter\n"
               "dc_slo_reattainments_total %llu\n",
               static_cast<unsigned long long>(s.reattainments));
  std::fclose(f);
  return true;
}

}  // namespace dc::obs::timeline
