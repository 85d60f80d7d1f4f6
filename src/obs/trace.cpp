#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "util/cycles.hpp"
#include "util/thread_id.hpp"

namespace dc::obs {

namespace {

std::atomic<bool> g_tracing{false};
std::atomic<bool> g_timing{false};
std::atomic<bool> g_conflicts{false};

// One ring per recording thread. Rings are heap-allocated and retained
// after thread exit (same contract as htm::stats blocks): a joined worker's
// events stay visible to snapshot_events().
struct Ring {
  std::vector<TraceEvent> events;  // capacity kRingSize, sized lazily
  uint64_t next = 0;               // monotonic; index = next & (kRingSize-1)
  uint16_t tid = 0;

  Ring() : tid(static_cast<uint16_t>(util::thread_id())) {
    events.resize(kRingSize);
  }
};

struct RingRegistry {
  std::mutex mu;
  std::vector<Ring*> rings;
};

RingRegistry& registry() noexcept {
  static RingRegistry* r = new RingRegistry;
  return *r;
}

Ring& local_ring() noexcept {
  thread_local Ring* ring = [] {
    auto* r = new Ring;
    RingRegistry& reg = registry();
    std::lock_guard lock(reg.mu);
    reg.rings.push_back(r);
    return r;
  }();
  return *ring;
}

}  // namespace

bool tracing_enabled() noexcept {
  return g_tracing.load(std::memory_order_relaxed);
}
void set_tracing(bool on) noexcept {
  g_tracing.store(on, std::memory_order_relaxed);
}

bool timing_enabled() noexcept {
  return g_timing.load(std::memory_order_relaxed);
}
void set_timing(bool on) noexcept {
  g_timing.store(on, std::memory_order_relaxed);
}

bool conflicts_enabled() noexcept {
  return g_conflicts.load(std::memory_order_relaxed);
}
void set_conflicts(bool on) noexcept {
  g_conflicts.store(on, std::memory_order_relaxed);
}

void set_all(bool on) noexcept {
  set_tracing(on);
  set_timing(on);
  set_conflicts(on);
}

namespace detail {

void emit(EventKind kind, uint8_t code, uint32_t a, uint32_t b,
          uint32_t c) noexcept {
  Ring& r = local_ring();
  TraceEvent& e = r.events[r.next & (kRingSize - 1)];
  e.tsc = util::rdcycles();
  e.a = a;
  e.b = b;
  e.c = c;
  e.kind = kind;
  e.code = code;
  e.tid = r.tid;
  ++r.next;
}

}  // namespace detail

std::vector<TraceEvent> snapshot_events() {
  std::vector<TraceEvent> out;
  RingRegistry& reg = registry();
  std::lock_guard lock(reg.mu);
  for (const Ring* r : reg.rings) {
    const uint64_t kept = r->next < kRingSize ? r->next : kRingSize;
    const uint64_t oldest = r->next - kept;
    for (uint64_t i = oldest; i < r->next; ++i) {
      out.push_back(r->events[i & (kRingSize - 1)]);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& x, const TraceEvent& y) {
                     return x.tsc < y.tsc;
                   });
  return out;
}

uint64_t events_emitted() noexcept {
  uint64_t total = 0;
  RingRegistry& reg = registry();
  std::lock_guard lock(reg.mu);
  for (const Ring* r : reg.rings) total += r->next;
  return total;
}

void clear_trace() noexcept {
  RingRegistry& reg = registry();
  std::lock_guard lock(reg.mu);
  for (Ring* r : reg.rings) r->next = 0;
}

const char* to_string(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kTxnBegin:
      return "txn_begin";
    case EventKind::kTxnCommit:
      return "txn_commit";
    case EventKind::kTxnAbort:
      return "txn_abort";
    case EventKind::kTleFallback:
      return "tle_fallback";
    case EventKind::kStepChange:
      return "step_change";
    case EventKind::kPoolAlloc:
      return "pool_alloc";
    case EventKind::kPoolRecycle:
      return "pool_recycle";
    case EventKind::kClockResample:
      return "clock_resample";
    case EventKind::kFaultInjected:
      return "fault_injected";
    case EventKind::kStormEnter:
      return "storm_enter";
    case EventKind::kStormExit:
      return "storm_exit";
    case EventKind::kCrashInjected:
      return "crash_injected";
    case EventKind::kLockRecovery:
      return "lock_recovery";
    case EventKind::kOrphanReap:
      return "orphan_reap";
    case EventKind::kNumKinds:
      break;
  }
  return "?";
}

}  // namespace dc::obs
