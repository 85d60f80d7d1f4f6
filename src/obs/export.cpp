#include "obs/export.hpp"

#include <cstdio>
#include <vector>

#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "util/cycles.hpp"

namespace dc::obs {

namespace {

// Mirror of htm::AbortCode (obs deliberately does not depend on htm; the
// trace stores the raw code byte). Keep in sync with htm/abort.hpp.
const char* abort_code_name(uint8_t code) noexcept {
  switch (code) {
    case 0:
      return "none";
    case 1:
      return "conflict";
    case 2:
      return "overflow";
    case 3:
      return "explicit";
    case 4:
      return "illegal-access";
    case 5:
      return "interrupt";
    case 6:
      return "tlb-miss";
    case 7:
      return "save-restore";
    default:
      return "?";
  }
}

const char* step_change_name(uint8_t code) noexcept {
  switch (static_cast<StepChange>(code)) {
    case StepChange::kSet:
      return "set";
    case StepChange::kGrow:
      return "grow";
    case StepChange::kShrink:
      return "shrink";
  }
  return "?";
}

// Mirror of htm::crash::Point (same raw-byte contract as abort_code_name).
// Keep in sync with htm/crash.hpp.
const char* crash_point_name(uint8_t point) noexcept {
  switch (point) {
    case 0:
      return "txn-op";
    case 1:
      return "commit-entry";
    case 2:
      return "lock-held";
    default:
      return "?";
  }
}

double to_us(uint64_t tsc, uint64_t t0) noexcept {
  return util::cycles_to_ns(tsc - t0) / 1000.0;
}

}  // namespace

OpSummary summarize_op(OpKind op) noexcept {
  const LogHistogram h = aggregate_histogram(op);
  OpSummary s;
  s.count = h.count();
  if (s.count == 0) return s;
  s.p50_ns = util::cycles_to_ns(h.percentile(0.50));
  s.p90_ns = util::cycles_to_ns(h.percentile(0.90));
  s.p99_ns = util::cycles_to_ns(h.percentile(0.99));
  s.max_ns = util::cycles_to_ns(h.max());
  s.mean_ns = h.mean() / util::cycles_per_ns();
  return s;
}

bool export_chrome_trace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot write trace to %s\n", path.c_str());
    return false;
  }
  const std::vector<TraceEvent> events = snapshot_events();
  uint64_t t0 = ~uint64_t{0};
  for (const TraceEvent& e : events) {
    if (e.tsc < t0) t0 = e.tsc;
  }
  // Timeline windows share the axis: their TSC origin is start_cycles(),
  // so fold it into t0 and everything lines up in Perfetto.
  const uint64_t tl_start = timeline::start_cycles();
  if (tl_start != 0 && tl_start < t0) t0 = tl_start;
  if (t0 == ~uint64_t{0}) t0 = 0;

  // Per-tid pending transaction begin, so a begin..commit/abort pair folds
  // into one "X" complete event (transactions never nest, txn.hpp).
  struct Pending {
    bool active = false;
    uint64_t tsc = 0;
    bool lock_mode = false;
  };
  std::vector<Pending> pending;

  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  bool first = true;
  auto sep = [&] {
    std::fprintf(f, "%s", first ? "  " : ",\n  ");
    first = false;
  };
  for (const TraceEvent& e : events) {
    if (e.tid >= pending.size()) pending.resize(e.tid + 1);
    Pending& p = pending[e.tid];
    switch (e.kind) {
      case EventKind::kTxnBegin:
        // An unpaired earlier begin (ring wrap ate its end) is dropped.
        p.active = true;
        p.tsc = e.tsc;
        p.lock_mode = e.a != 0;
        break;
      case EventKind::kTxnCommit:
      case EventKind::kTxnAbort: {
        const bool committed = e.kind == EventKind::kTxnCommit;
        if (p.active) {
          sep();
          std::fprintf(
              f,
              "{\"name\": \"%s\", \"cat\": \"htm\", \"ph\": \"X\", "
              "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 0, \"tid\": %u, "
              "\"args\": {\"outcome\": \"%s\", \"abort\": \"%s\", "
              "\"read_set\": %u, \"write_set\": %u, \"attempt\": %u, "
              "\"lock_mode\": %s}}",
              committed ? "txn" : "txn(abort)", to_us(p.tsc, t0),
              to_us(e.tsc, t0) - to_us(p.tsc, t0), e.tid,
              committed ? "commit" : "abort", abort_code_name(e.code), e.a,
              e.b, e.c, p.lock_mode ? "true" : "false");
          p.active = false;
        } else {
          // End without a retained begin (ring wrap): emit an instant so
          // the outcome is still visible.
          sep();
          std::fprintf(f,
                       "{\"name\": \"%s\", \"cat\": \"htm\", \"ph\": \"i\", "
                       "\"s\": \"t\", \"ts\": %.3f, \"pid\": 0, \"tid\": %u, "
                       "\"args\": {\"abort\": \"%s\", \"read_set\": %u, "
                       "\"write_set\": %u, \"attempt\": %u}}",
                       committed ? "txn_commit" : "txn_abort", to_us(e.tsc, t0),
                       e.tid, abort_code_name(e.code), e.a, e.b, e.c);
        }
        break;
      }
      case EventKind::kTleFallback:
        sep();
        std::fprintf(f,
                     "{\"name\": \"tle_fallback\", \"cat\": \"htm\", "
                     "\"ph\": \"i\", \"s\": \"t\", \"ts\": %.3f, \"pid\": 0, "
                     "\"tid\": %u, \"args\": {\"attempt\": %u}}",
                     to_us(e.tsc, t0), e.tid, e.a);
        break;
      case EventKind::kStepChange:
        sep();
        std::fprintf(f,
                     "{\"name\": \"step_change\", \"cat\": \"collect\", "
                     "\"ph\": \"i\", \"s\": \"t\", \"ts\": %.3f, \"pid\": 0, "
                     "\"tid\": %u, \"args\": {\"reason\": \"%s\", "
                     "\"from\": %u, \"to\": %u}}",
                     to_us(e.tsc, t0), e.tid, step_change_name(e.code), e.a,
                     e.b);
        break;
      case EventKind::kClockResample:
        sep();
        std::fprintf(f,
                     "{\"name\": \"clock_resample\", \"cat\": \"htm\", "
                     "\"ph\": \"i\", \"s\": \"t\", \"ts\": %.3f, \"pid\": 0, "
                     "\"tid\": %u, \"args\": {\"from_rv\": %u, \"to_rv\": %u, "
                     "\"read_set\": %u}}",
                     to_us(e.tsc, t0), e.tid, e.a, e.b, e.c);
        break;
      case EventKind::kFaultInjected:
        sep();
        std::fprintf(f,
                     "{\"name\": \"fault_injected\", \"cat\": \"htm\", "
                     "\"ph\": \"i\", \"s\": \"t\", \"ts\": %.3f, \"pid\": 0, "
                     "\"tid\": %u, \"args\": {\"cause\": \"%s\", "
                     "\"attempt\": %u, \"ops_survived\": %u}}",
                     to_us(e.tsc, t0), e.tid, abort_code_name(e.code), e.a,
                     e.b);
        break;
      case EventKind::kStormEnter:
      case EventKind::kStormExit:
        sep();
        std::fprintf(f,
                     "{\"name\": \"%s\", \"cat\": \"htm\", \"ph\": \"i\", "
                     "\"s\": \"t\", \"ts\": %.3f, \"pid\": 0, \"tid\": %u, "
                     "\"args\": {\"score\": %u}}",
                     e.kind == EventKind::kStormEnter ? "storm_enter"
                                                      : "storm_exit",
                     to_us(e.tsc, t0), e.tid, e.a);
        break;
      case EventKind::kCrashInjected:
        sep();
        std::fprintf(f,
                     "{\"name\": \"crash_injected\", \"cat\": \"htm\", "
                     "\"ph\": \"i\", \"s\": \"t\", \"ts\": %.3f, \"pid\": 0, "
                     "\"tid\": %u, \"args\": {\"point\": \"%s\", "
                     "\"ops_survived\": %u, \"lock_held\": %u}}",
                     to_us(e.tsc, t0), e.tid, crash_point_name(e.code), e.a,
                     e.b);
        break;
      case EventKind::kLockRecovery:
        sep();
        std::fprintf(f,
                     "{\"name\": \"lock_recovery\", \"cat\": \"htm\", "
                     "\"ph\": \"i\", \"s\": \"t\", \"ts\": %.3f, \"pid\": 0, "
                     "\"tid\": %u, \"args\": {\"owner_tid\": %u, "
                     "\"owner_epoch\": %u}}",
                     to_us(e.tsc, t0), e.tid, e.a, e.b);
        break;
      case EventKind::kOrphanReap:
        sep();
        std::fprintf(f,
                     "{\"name\": \"orphan_reap\", \"cat\": \"collect\", "
                     "\"ph\": \"i\", \"s\": \"t\", \"ts\": %.3f, \"pid\": 0, "
                     "\"tid\": %u, \"args\": {\"count\": %u, "
                     "\"owner_tid\": %u}}",
                     to_us(e.tsc, t0), e.tid, e.a, e.b);
        break;
      case EventKind::kPoolAlloc:
      case EventKind::kPoolRecycle:
        sep();
        std::fprintf(f,
                     "{\"name\": \"%s\", \"cat\": \"pool\", \"ph\": \"i\", "
                     "\"s\": \"t\", \"ts\": %.3f, \"pid\": 0, \"tid\": %u, "
                     "\"args\": {\"bytes\": %u}}",
                     e.kind == EventKind::kPoolAlloc ? "pool_alloc"
                                                     : "pool_recycle",
                     to_us(e.tsc, t0), e.tid, e.a);
        break;
      case EventKind::kNumKinds:
        break;
    }
  }
  // Telemetry overlay (only when the sampler ran): per-window counter
  // tracks ("C" phase — Perfetto renders them as stepped area charts above
  // the transaction slices) and the anomaly annotations as global instants.
  if (tl_start != 0) {
    const double base_us = to_us(tl_start, t0);
    for (const timeline::Window& w : timeline::windows()) {
      const double ts = base_us + w.t_end_ms * 1000.0;
      sep();
      std::fprintf(f,
                   "{\"name\": \"txn/window\", \"cat\": \"timeline\", "
                   "\"ph\": \"C\", \"ts\": %.3f, \"pid\": 0, "
                   "\"args\": {\"commits\": %llu, \"aborts\": %llu}}",
                   ts, static_cast<unsigned long long>(w.delta.commits),
                   static_cast<unsigned long long>(w.delta.aborts));
      sep();
      std::fprintf(
          f,
          "{\"name\": \"degradation/window\", \"cat\": \"timeline\", "
          "\"ph\": \"C\", \"ts\": %.3f, \"pid\": 0, "
          "\"args\": {\"lock_fallbacks\": %llu, \"faults\": %llu, "
          "\"crashes\": %llu}}",
          ts, static_cast<unsigned long long>(w.delta.lock_fallbacks),
          static_cast<unsigned long long>(w.delta.faults_injected),
          static_cast<unsigned long long>(w.delta.crashes_injected));
      bool any_op = false;
      for (std::size_t op = 0; op < timeline::kNumOps; ++op) {
        if (w.ops[op].count != 0) any_op = true;
      }
      if (any_op) {
        sep();
        std::fprintf(f,
                     "{\"name\": \"p99_ns\", \"cat\": \"timeline\", "
                     "\"ph\": \"C\", \"ts\": %.3f, \"pid\": 0, \"args\": {",
                     ts);
        bool first_op = true;
        for (std::size_t op = 0; op < timeline::kNumOps; ++op) {
          if (w.ops[op].count == 0) continue;
          std::fprintf(f, "%s\"%s\": %.1f", first_op ? "" : ", ",
                       to_string(static_cast<OpKind>(op)), w.ops[op].p99_ns);
          first_op = false;
        }
        std::fprintf(f, "}}");
      }
    }
    for (const timeline::Event& e : timeline::annotations()) {
      sep();
      std::fprintf(f,
                   "{\"name\": \"%s\", \"cat\": \"timeline\", \"ph\": \"i\", "
                   "\"s\": \"g\", \"ts\": %.3f, \"pid\": 0, \"tid\": 0, "
                   "\"args\": {\"window\": %llu, \"value\": %llu}}",
                   timeline::to_string(e.kind), base_us + e.t_ms * 1000.0,
                   static_cast<unsigned long long>(e.window),
                   static_cast<unsigned long long>(e.value));
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
  return true;
}

}  // namespace dc::obs
