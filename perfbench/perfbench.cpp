// perfbench — the measuring program of the repository benchmark.
//
// Runs one workload on the repository's libraries, through their public
// functions only, and prints one JSON object on stdout. run.py builds this
// program, runs it, and turns that object into the benchmark's result line;
// README.md in this directory documents the workloads and metrics.
//
//   perfbench --workload W --seed N --seconds S [--trace PATH]
//             [--setup-only] [--update-delay-ns NS]
//
// Without --trace the whole window is one untraced measured phase (the
// end-to-end numbers). With --trace the window is split: an untraced half
// (the overhead baseline), a traced half that records a span around every
// call into a library layer and diffs the layer counters (the per-layer
// numbers), then a single-threaded primitive-cost probe. Spans are kept in
// memory and written to PATH as Chrome/Perfetto JSON at exit.
//
// Every workload runs kWorkers closed-loop worker threads while the main
// thread sleeps; the host has 4 vCPUs. Throughput is sampled every
// kWindowMs and reported as the median window, which keeps a run's figure
// steady when the host's speed changes for seconds at a time.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <time.h>

#include "collect/collect.hpp"
#include "collect/registry.hpp"
#include "htm/config.hpp"
#include "htm/htm.hpp"
#include "htm/stats.hpp"
#include "memory/pool.hpp"
#include "obs/histogram.hpp"
#include "queue/htm_queue.hpp"
#include "queue/ms_queue.hpp"
#include "queue/ms_queue_hp.hpp"
#include "queue/ms_queue_rop.hpp"
#include "util/cycles.hpp"
#include "util/padded.hpp"
#include "util/rng.hpp"

namespace {

using namespace dc;
using Clock = std::chrono::steady_clock;

constexpr uint32_t kWorkers = 3;
constexpr uint32_t kHandlesPerThread = 32;  // fixed Collect population
constexpr uint32_t kCollectStep = 32;
constexpr uint32_t kQueuePrefill = 256;
constexpr double kWindowMs = 100.0;
// Windows ending this early in a phase are left out of the median: the
// first few hundred ms of a phase run up to 3x slower on this host (caches,
// page first-touch, vCPU wake-up), which is not the steady state measured.
constexpr double kWarmupMs = 1000.0;
constexpr std::size_t kSpansPerThread = 5000;

enum class Workload { kCollectRead, kCollectChurn, kQueueHtm, kQueueMs,
                      kQueueRop, kQueueHp };

struct Options {
  Workload workload = Workload::kCollectRead;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;
  bool setup_only = false;
  uint64_t update_delay_ns = 0;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "collect-read|collect-churn|queue-htm|queue-ms|queue-rop|"
               "queue-hp --seed N --seconds S [--trace PATH] [--setup-only] "
               "[--update-delay-ns NS]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload_name = value();
      static const std::pair<const char*, Workload> kNames[] = {
          {"collect-read", Workload::kCollectRead},
          {"collect-churn", Workload::kCollectChurn},
          {"queue-htm", Workload::kQueueHtm},
          {"queue-ms", Workload::kQueueMs},
          {"queue-rop", Workload::kQueueRop},
          {"queue-hp", Workload::kQueueHp}};
      for (const auto& [name, w] : kNames) {
        if (o.workload_name == name) {
          o.workload = w;
          have_workload = true;
        }
      }
      if (!have_workload) usage("unknown workload");
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
      if (!(o.seconds > 0.0 && o.seconds <= 600.0)) usage("bad --seconds");
    } else if (a == "--trace") {
      o.trace = true;
      o.trace_path = value();
    } else if (a == "--setup-only") {
      o.setup_only = true;
    } else if (a == "--update-delay-ns") {
      o.update_delay_ns = std::strtoull(value().c_str(), nullptr, 10);
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

// CPU time the calling thread has consumed (excludes time it waited or
// was descheduled).
int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Tracing: spans around the calls into the layers, plus per-call latency
// histograms. One Recorder per worker thread, written only by its owner and
// read by the main thread once the workers have parked after the phase.

enum Kind : uint8_t {
  kOp,
  kCollect,
  kUpdate,
  kRegister,
  kDeregister,
  kEnqueue,
  kDequeue,
  kNumKinds
};
constexpr const char* kKindName[kNumKinds] = {
    "op",           "collect.collect",    "collect.update",
    "collect.register", "collect.deregister", "queue.enqueue",
    "queue.dequeue"};

struct Span {
  uint64_t start;  // cycles
  uint64_t end;
  uint64_t id;
  uint64_t parent;  // 0 = root
  uint64_t req;     // request id shared by the spans of one operation
  Kind kind;
};

struct Recorder {
  uint32_t tid = 0;
  uint64_t next = 1;
  uint64_t dropped = 0;
  std::vector<Span> spans;
  std::array<obs::LogHistogram, kNumKinds> hist{};

  uint64_t new_id() { return (uint64_t{tid} << 40) | next++; }

  void reset() {
    next = 1;
    dropped = 0;
    spans.clear();
    spans.reserve(kSpansPerThread);
    for (auto& h : hist) h.reset();
  }

  void add(Kind k, uint64_t t0, uint64_t t1, uint64_t id, uint64_t parent,
           uint64_t req) {
    hist[k].record(t1 - t0);
    if (spans.size() < kSpansPerThread) {
      spans.push_back({t0, t1, id, parent, req, k});
    } else {
      ++dropped;
    }
  }
};

// Times one call into a layer as a child span of the current operation.
// Compiles to the bare call when the phase is untraced.
template <bool kTraced, class F>
inline void call(Recorder& rec, Kind k, uint64_t op_id, F&& f) {
  if constexpr (kTraced) {
    const uint64_t t0 = util::rdcycles();
    f();
    const uint64_t t1 = util::rdcycles();
    rec.add(k, t0, t1, rec.new_id(), op_id, op_id);
  } else {
    f();
  }
}

// ---------------------------------------------------------------------------
// Workers. Each provides setup() (runs on its own thread before the first
// measured operation), step<kTraced>(rec, op_id) (one closed-loop
// operation; returns how many operations it counts as), and teardown().

// Value layout: owner thread (8 bits) | slot (8 bits) | sequence (48 bits).
// Unique per binding, so the quiescent oracle can tell the latest value of
// a handle from any stale or deregistered one.
constexpr uint64_t tag(uint32_t thread, uint32_t slot, uint64_t seq) {
  return (uint64_t{thread + 1} << 56) | (uint64_t{slot} << 48) |
         (seq & ((uint64_t{1} << 48) - 1));
}

struct CollectShared {
  std::unique_ptr<collect::DynamicCollect> obj;
  uint32_t collect_pct = 90;
  uint32_t update_pct = 10;  // remainder: churn steps
  uint64_t update_delay_cycles = 0;
  // Serializes the workers' initial registrations, so the array grows
  // through the same sizes and the pool maps the same slabs in every run.
  std::mutex setup_mutex;
};

class CollectWorker {
 public:
  CollectWorker(CollectShared& s, uint32_t index, uint64_t seed)
      : s_(s), index_(index), rng_(seed) {}

  void setup() {
    const std::lock_guard<std::mutex> lock(s_.setup_mutex);
    for (uint32_t k = 0; k < kHandlesPerThread; ++k) {
      latest_[k] = tag(index_, k, ++seq_);
      handle_[k] = s_.obj->register_handle(latest_[k]);
    }
  }

  template <bool kTraced>
  uint32_t step(Recorder& rec, uint64_t op_id) {
    const uint64_t r = rng_.next_below(100);
    const uint32_t k = static_cast<uint32_t>(rng_.next_below(kHandlesPerThread));
    if (r < s_.collect_pct) {
      call<kTraced>(rec, kCollect, op_id, [&] { s_.obj->collect(out_); });
      if constexpr (kTraced) {
        values_ += out_.size();
        ++collects_;
      }
    } else if (r < s_.collect_pct + s_.update_pct) {
      if (s_.update_delay_cycles != 0) {
        util::spin_until(util::rdcycles(), s_.update_delay_cycles);
      }
      const collect::Value v = tag(index_, k, ++seq_);
      call<kTraced>(rec, kUpdate, op_id, [&] { s_.obj->update(handle_[k], v); });
      latest_[k] = v;
    } else {
      call<kTraced>(rec, kDeregister, op_id,
                    [&] { s_.obj->deregister(handle_[k]); });
      const collect::Value v = tag(index_, k, ++seq_);
      call<kTraced>(rec, kRegister, op_id,
                    [&] { handle_[k] = s_.obj->register_handle(v); });
      latest_[k] = v;
    }
    return 1;
  }

  void teardown() {
    for (auto* h : handle_) s_.obj->deregister(h);
  }

  const std::array<collect::Value, kHandlesPerThread>& latest() const {
    return latest_;
  }
  uint64_t values() const { return values_; }
  uint64_t collects() const { return collects_; }

 private:
  CollectShared& s_;
  const uint32_t index_;
  util::Xoshiro256 rng_;
  uint64_t seq_ = 0;
  std::array<collect::Handle, kHandlesPerThread> handle_{};
  std::array<collect::Value, kHandlesPerThread> latest_{};
  std::vector<collect::Value> out_;
  uint64_t values_ = 0;
  uint64_t collects_ = 0;
};

// Producer ids: 0 is the main thread (prefill), workers are 1..kWorkers.
constexpr uint32_t kProducers = kWorkers + 1;

struct QueueLedger {
  uint64_t enqueued = 0;
  uint64_t dequeued = 0;
  uint64_t empty = 0;     // dequeue found the prefilled queue empty
  uint64_t reordered = 0; // a producer's values came out of order
};

// Checks FIFO per producer: one consumer must see each producer's
// sequence numbers strictly increasing.
struct FifoCheck {
  std::array<uint64_t, kProducers> last{};
  bool accept(uint64_t v) {
    const uint32_t p = static_cast<uint32_t>(v >> 56) - 1;
    const uint64_t seq = v & ((uint64_t{1} << 48) - 1);
    if (p >= kProducers || seq <= last[p]) return false;
    last[p] = seq;
    return true;
  }
};

template <class Q>
class QueueWorker {
 public:
  // The seed picks where each producer's sequence numbers start.
  QueueWorker(Q& q, uint32_t index, uint64_t seed)
      : q_(q),
        producer_(index + 1),
        seq_(util::Xoshiro256(seed).next_below(uint64_t{1} << 40)) {}

  void setup() {}

  template <bool kTraced>
  uint32_t step(Recorder& rec, uint64_t op_id) {
    const queue::Value v = tag(producer_, 0, ++seq_);
    call<kTraced>(rec, kEnqueue, op_id, [&] { q_.enqueue(v); });
    ++ledger_.enqueued;
    queue::Value out = 0;
    bool got = false;
    call<kTraced>(rec, kDequeue, op_id, [&] { got = q_.dequeue(&out); });
    if (!got) {
      ++ledger_.empty;
    } else {
      ++ledger_.dequeued;
      if (!fifo_.accept(out)) ++ledger_.reordered;
    }
    return 2;
  }

  void teardown() {}

  const QueueLedger& ledger() const { return ledger_; }

 private:
  Q& q_;
  const uint32_t producer_;
  uint64_t seq_;
  QueueLedger ledger_;
  FifoCheck fifo_;
};

// ---------------------------------------------------------------------------
// Team: kWorkers persistent threads driven through phases by the main
// thread. Between phases the workers park (spinning with yields, so no
// vCPU goes idle and a phase starts without wake-up latency) and the main
// thread can reset and read the layer counters while no transaction runs.

enum class Phase { kUntraced, kTraced, kExit };

struct PhaseResult {
  std::vector<double> window_ops_per_us;
  uint64_t ops = 0;
  uint64_t failed = 0;  // operations that threw
  double median_ops_per_us() const { return median(window_ops_per_us); }
};

template <class Worker>
class Team {
 public:
  template <class Make>
  explicit Team(Make&& make) {
    for (uint32_t t = 0; t < kWorkers; ++t) {
      workers_.push_back(make(t));
      recs_.push_back(std::make_unique<Recorder>());
    }
    try {
      for (uint32_t t = 0; t < kWorkers; ++t) {
        threads_.emplace_back([this, t] { main_loop(t); });
      }
    } catch (...) {
      release(Phase::kExit);
      for (auto& th : threads_) th.join();
      throw;
    }
    wait_parked();  // every worker finished setup()
  }

  ~Team() {
    release(Phase::kExit);
    for (auto& th : threads_) th.join();
  }

  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  // Runs one measured phase of `seconds`. `setup_cpu_ns`, when given,
  // receives the CPU time spent before the workers were released: the
  // main thread's since exec plus each worker's in setup().
  PhaseResult run(Phase phase, double seconds,
                  int64_t* setup_cpu_ns = nullptr) {
    for (auto& c : ops_) c.value.store(0, std::memory_order_relaxed);
    stop_.store(false, std::memory_order_relaxed);
    const int64_t main_cpu = thread_cpu_ns();
    release(phase);
    const auto start = Clock::now();
    if (setup_cpu_ns != nullptr) {
      *setup_cpu_ns = main_cpu;
      for (const auto& c : setup_cpu_) *setup_cpu_ns += c.value;
    }
    PhaseResult r;
    const auto window = std::chrono::duration<double, std::milli>(kWindowMs);
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    auto prev_t = start;
    uint64_t prev_ops = 0;
    for (int k = 1;; ++k) {
      auto due = start + std::chrono::duration_cast<Clock::duration>(window * k);
      if (due > end) due = end;
      std::this_thread::sleep_until(due);
      const auto now = Clock::now();
      const uint64_t ops = total_ops();
      const double us =
          std::chrono::duration<double, std::micro>(now - prev_t).count();
      // A short tail window is too noisy to stand beside full ones.
      const double since_start =
          std::chrono::duration<double, std::milli>(now - start).count();
      const bool warm = since_start > kWarmupMs || seconds * 1000.0 < 2 * kWarmupMs;
      if (warm && us >= 0.5 * kWindowMs * 1000.0) {
        r.window_ops_per_us.push_back(static_cast<double>(ops - prev_ops) / us);
      }
      prev_t = now;
      prev_ops = ops;
      if (now >= end) break;
    }
    stop_.store(true, std::memory_order_relaxed);
    wait_parked();
    r.ops = total_ops();
    for (auto& f : failed_) r.failed += f.value;
    for (auto& f : failed_) f.value = 0;
    return r;
  }

  std::vector<std::unique_ptr<Worker>>& workers() { return workers_; }
  std::vector<std::unique_ptr<Recorder>>& recorders() { return recs_; }

 private:
  uint64_t total_ops() const {
    uint64_t n = 0;
    for (const auto& c : ops_) n += c.value.load(std::memory_order_relaxed);
    return n;
  }

  // Starts the next phase: the workers leave their park loops.
  void release(Phase phase) {
    parked_.store(0, std::memory_order_relaxed);
    phase_.store(phase, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
  }

  // Blocks without spinning, so the main thread's CPU time (part of
  // setup_s) does not count the wait.
  void wait_parked() {
    for (;;) {
      const uint32_t n = parked_.load(std::memory_order_acquire);
      if (n == kWorkers) return;
      parked_.wait(n, std::memory_order_acquire);
    }
  }

  // Runs f, counting an exception as a failed operation of worker t.
  template <class F>
  bool guarded(uint32_t t, F&& f) {
    try {
      f();
      return true;
    } catch (const std::exception& e) {
      if (failed_[t].value++ == 0) {
        std::fprintf(stderr, "perfbench: worker %u: %s\n", t, e.what());
      }
      return false;
    }
  }

  void main_loop(uint32_t t) {
    Worker& w = *workers_[t];
    Recorder& rec = *recs_[t];
    rec.tid = t + 1;
    // A worker whose setup failed still parks and exits with the team, so
    // the failure is reported instead of hanging the run.
    const bool ready = guarded(t, [&] { w.setup(); });
    setup_cpu_[t].value = thread_cpu_ns();
    for (uint32_t seen = 0;;) {
      parked_.fetch_add(1, std::memory_order_acq_rel);
      parked_.notify_all();
      while (epoch_.load(std::memory_order_acquire) == seen) {
        std::this_thread::yield();
      }
      ++seen;
      const Phase phase = phase_.load(std::memory_order_relaxed);
      if (phase == Phase::kExit) break;
      if (!ready) continue;
      if (phase == Phase::kTraced) {
        loop<true>(t, w, rec);
      } else {
        loop<false>(t, w, rec);
      }
    }
    if (ready) guarded(t, [&] { w.teardown(); });
  }

  template <bool kTraced>
  void loop(uint32_t t, Worker& w, Recorder& rec) {
    uint64_t n = 0;
    auto& counter = ops_[t].value;
    while (!stop_.load(std::memory_order_relaxed)) {
      guarded(t, [&] {
        if constexpr (kTraced) {
          const uint64_t id = rec.new_id();
          const uint64_t t0 = util::rdcycles();
          n += w.template step<true>(rec, id);
          rec.add(kOp, t0, util::rdcycles(), id, 0, id);
        } else {
          n += w.template step<false>(rec, 0);
        }
      });
      counter.store(n, std::memory_order_relaxed);
    }
  }

  std::atomic<uint32_t> epoch_{0};   // bumped by the main thread per phase
  std::atomic<uint32_t> parked_{0};  // workers done with the current phase
  std::atomic<Phase> phase_{Phase::kUntraced};
  std::atomic<bool> stop_{false};
  std::array<util::Padded<std::atomic<uint64_t>>, kWorkers> ops_{};
  std::array<util::Padded<uint64_t>, kWorkers> failed_{};
  std::array<util::Padded<int64_t>, kWorkers> setup_cpu_{};
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::unique_ptr<Recorder>> recs_;
  std::vector<std::thread> threads_;  // last: joined before the rest goes
};

// ---------------------------------------------------------------------------
// Output: one JSON object; every metric carries its unit.

struct Metric {
  std::string name;
  const char* unit;
  double value;
};

struct Result {
  int64_t setup_cpu_ns = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // failed correctness checks
  std::vector<Metric> metrics;
  uint64_t spans = 0;
  uint64_t spans_dropped = 0;

  void put(const std::string& name, const char* unit, double v) {
    metrics.push_back({name, unit, v});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) {
      errors.push_back(what);
      ++failed;
    }
  }
};

void print_json_string(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (const char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    if (static_cast<unsigned char>(c) >= 0x20) std::fputc(c, f);
  }
  std::fputc('"', f);
}

void print_result(const Options& o, const Result& r) {
  const htm::Config& cfg = htm::config();
  std::printf("{\"workload\": ");
  print_json_string(stdout, o.workload_name);
  std::printf(", \"seed\": %llu, \"setup_cpu_ns\": %lld",
              static_cast<unsigned long long>(o.seed),
              static_cast<long long>(r.setup_cpu_ns));
  std::printf(", \"attempted\": %llu, \"failed\": %llu",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  std::printf(", \"spans\": %llu, \"spans_dropped\": %llu",
              static_cast<unsigned long long>(r.spans),
              static_cast<unsigned long long>(r.spans_dropped));
  std::printf(", \"errors\": [");
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    if (i) std::printf(", ");
    print_json_string(stdout, r.errors[i]);
  }
  std::printf("], \"policies\": {\"clock\": \"%s\", \"retry\": \"%s\", "
              "\"validation\": \"%s\", \"fault_rate\": %.17g, "
              "\"crash_rate\": %.17g, \"mem_limit_bytes\": %llu, "
              "\"alloc_fault_rate\": %.17g, \"txn_yield_every_loads\": %u, "
              "\"tle_after_aborts\": %u, \"trace_compiled\": %s}",
              htm::to_string(cfg.clock_policy), htm::to_string(cfg.retry_policy),
              htm::to_string(cfg.validation), cfg.fault.rate, cfg.crash.rate,
              static_cast<unsigned long long>(cfg.mem.limit_bytes),
              cfg.mem.alloc_fault_rate, cfg.txn_yield_every_loads,
              cfg.tle_after_aborts, obs::kTraceCompiled ? "true" : "false");
  std::printf(", \"metrics\": {");
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    if (i) std::printf(", ");
    print_json_string(stdout, r.metrics[i].name);
    std::printf(": {\"value\": %.17g, \"unit\": \"%s\"}", r.metrics[i].value,
                r.metrics[i].unit);
  }
  std::printf("}}\n");
}

// ---------------------------------------------------------------------------
// Primitive-cost probe: single-threaded, uncontended, public calls only.
// Each figure is the median over batches of the per-iteration time.

template <class F>
double ns_per_iter(F&& f) {
  constexpr int kBatches = 11;
  constexpr int kIters = 10000;
  std::vector<double> per;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kIters; ++i) f();
    const auto t1 = Clock::now();
    per.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() /
                  kIters);
  }
  return median(per);
}

struct ProbeCosts {
  double empty_txn_ns = 0.0;
  double load_marginal_ns = 0.0;
};

ProbeCosts probe(Result& r) {
  constexpr int kWords = 32;
  uint64_t* w = mem::create_array<uint64_t>(kWords);
  uint64_t v = 1;
  volatile uint64_t sink = 0;
  ProbeCosts c;
  c.empty_txn_ns = ns_per_iter([] { htm::atomic([](htm::Txn&) {}); });
  const double load32 = ns_per_iter([&] {
    sink = htm::atomic([&](htm::Txn& t) {
      uint64_t s = 0;
      for (int i = 0; i < kWords; ++i) s += t.load(&w[i]);
      return s;
    });
  });
  c.load_marginal_ns = std::max(0.0, (load32 - c.empty_txn_ns) / kWords);
  r.put("htm.empty_txn_ns", "ns", c.empty_txn_ns);
  r.put("htm.load_ns", "ns", load32 / kWords);
  for (const int k : {1, 8, 32}) {
    r.put("htm.store_commit_ns." + std::to_string(k), "ns", ns_per_iter([&] {
            ++v;
            htm::atomic([&](htm::Txn& t) {
              for (int i = 0; i < k; ++i) t.store(&w[i], v);
            });
          }));
  }
  r.put("htm.nontxn_store_ns", "ns",
        ns_per_iter([&] { htm::nontxn_store(&w[0], ++v); }));
  r.put("memory.alloc_free_ns", "ns", ns_per_iter([] {
          void* p = mem::pool_allocate(32);
          mem::pool_deallocate(p, 32);
        }));
  mem::destroy_array(w, kWords);
  return c;
}

// ---------------------------------------------------------------------------
// Trace file: Chrome/Perfetto JSON, one complete ("X") event per span.

void write_trace(const std::string& path,
                 const std::vector<std::unique_ptr<Recorder>>& recs,
                 uint64_t origin) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  bool first = true;
  for (const auto& rec : recs) {
    for (const Span& s : rec->spans) {
      const double ts = util::cycles_to_ns(s.start - origin) / 1000.0;
      const double dur = util::cycles_to_ns(s.end - s.start) / 1000.0;
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %llu, \"parent\": %llu, \"req\": %llu}}",
                   first ? "" : ",\n", kKindName[s.kind], rec->tid, ts, dur,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.req));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// The phases every workload shares: the untraced window, or the untraced
// half + traced half of a traced run, and the per-layer figures of the
// traced half.

struct Measured {
  PhaseResult untraced;
  PhaseResult traced;
  mem::PoolStats pool_before_traced{};
  uint64_t traced_origin = 0;
};

template <class W>
Measured measure(const Options& o, Team<W>& team, Result& r) {
  Measured m;
  if (o.setup_only) {
    m.untraced = team.run(Phase::kUntraced, 0.001, &r.setup_cpu_ns);
    return m;
  }
  if (!o.trace) {
    m.untraced = team.run(Phase::kUntraced, o.seconds, &r.setup_cpu_ns);
    r.attempted += m.untraced.ops;
    r.failed += m.untraced.failed;
    return m;
  }
  m.untraced = team.run(Phase::kUntraced, o.seconds / 2, &r.setup_cpu_ns);
  htm::reset_stats();
  for (auto& rec : team.recorders()) rec->reset();
  m.pool_before_traced = mem::pool_stats();
  m.traced_origin = util::rdcycles();
  m.traced = team.run(Phase::kTraced, o.seconds / 2);
  r.attempted += m.untraced.ops + m.traced.ops;
  r.failed += m.untraced.failed + m.traced.failed;
  return m;
}

void put_end_to_end(Result& r, const Measured& m) {
  r.put("ops_per_us", "1/us", m.untraced.median_ops_per_us());
  r.put("pool_os_bytes", "bytes",
        static_cast<double>(mem::pool_stats().os_bytes));
}

double cycles_to_us(uint64_t c) { return util::cycles_to_ns(c) / 1000.0; }

// Figures a workload measures outside the spans; a layer it bypasses
// keeps the zero.
struct LayerFigures {
  double values_per_collect = 0.0;
  double quiescent_bytes = 0.0;
  double retired_pending = 0.0;
};

// Every per-layer metric except the probe's. Histograms of calls a
// workload never makes are empty and report 0, as do the htm counters on
// workloads that run no transactions, so every traced run reports the same
// names. htm::reset_stats() at the start of the traced half makes the
// aggregate a delta (and restarts its high-water marks); the pool keeps
// cumulative counters, so those are differenced. Returns the median
// Collect time in µs (0 when the workload makes no Collect).
template <class W>
double put_layers(const Options& o, Team<W>& team, const Measured& m,
                const LayerFigures& f, Result& r) {
  std::array<obs::LogHistogram, kNumKinds> h{};
  for (const auto& rec : team.recorders()) {
    for (int k = 0; k < kNumKinds; ++k) h[k].merge(rec->hist[k]);
    r.spans += rec->spans.size();
    r.spans_dropped += rec->dropped;
  }
  auto latency = [&](const std::string& prefix, Kind k) {
    r.put(prefix + ".p50", "us", cycles_to_us(h[k].percentile(0.50)));
    r.put(prefix + ".p99", "us", cycles_to_us(h[k].percentile(0.99)));
  };
  latency("collect.collect_us", kCollect);
  latency("collect.update_us", kUpdate);
  latency("collect.register_us", kRegister);
  latency("collect.deregister_us", kDeregister);
  r.put("collect.values_per_collect", "count", f.values_per_collect);
  latency("queue.enqueue_us", kEnqueue);
  latency("queue.dequeue_us", kDequeue);
  r.put("reclaim.hp.retired_pending", "count", f.retired_pending);

  const htm::TxnStats s = htm::aggregate_stats();
  const mem::PoolStats before = m.pool_before_traced;
  const mem::PoolStats after = mem::pool_stats();
  const double n = m.traced.ops ? static_cast<double>(m.traced.ops) : 1.0;
  const uint64_t attempts = s.commits + s.aborts;
  auto count = [&](const char* name, uint64_t v) {
    r.put(name, "count", static_cast<double>(v));
  };
  auto code = [&](htm::AbortCode c) {
    return s.aborts_by_code[static_cast<std::size_t>(c)].load();
  };
  r.put("htm.attempts_per_op", "1/op", static_cast<double>(attempts) / n);
  r.put("htm.commit_ratio", "ratio",
        attempts ? static_cast<double>(s.commits) / attempts : 0.0);
  count("htm.aborts.conflict", code(htm::AbortCode::kConflict));
  count("htm.aborts.overflow", code(htm::AbortCode::kOverflow));
  count("htm.tle_entries", s.tle_entries);
  count("htm.lock_fallbacks", s.lock_fallbacks);
  count("htm.clock_resamples", s.clock_resamples);
  count("htm.clock_catchups", s.clock_catchups);
  count("htm.nontxn_stores", s.nontxn_stores);
  count("htm.max_consec_aborts", s.max_consec_aborts);
  count("htm.max_read_set", s.max_read_set);
  r.put("memory.allocs_per_op", "1/op",
        static_cast<double>(after.allocations - before.allocations) / n);
  r.put("memory.frees_per_op", "1/op",
        static_cast<double>(after.deallocations - before.deallocations) / n);
  r.put("memory.live_bytes_end", "bytes", static_cast<double>(after.live_bytes));
  r.put("memory.quiescent_bytes", "bytes", f.quiescent_bytes);

  const double base = m.untraced.median_ops_per_us();
  const double traced = m.traced.median_ops_per_us();
  r.put("trace.ops_per_us", "1/us", traced);
  r.put("trace.overhead_ratio", "ratio", base > 0 ? traced / base : 0.0);
  write_trace(o.trace_path, team.recorders(), m.traced_origin);
  return cycles_to_us(h[kCollect].percentile(0.50));
}

// The probe, and the cost-ledger check built on it: a Collect of n values
// with step kCollectStep runs ceil(n / step) transactions of three loads
// per value (count, array pointer, value); predict its time from the
// probed costs and divide by the measured median. Runs after teardown, so
// no worker competes with it.
void put_probe(Result& r, double values_per_collect, double collect_p50_us) {
  const ProbeCosts c = probe(r);
  const double txns = std::ceil(values_per_collect / kCollectStep);
  const double predicted_us =
      (txns * c.empty_txn_ns + 3.0 * values_per_collect * c.load_marginal_ns) /
      1000.0;
  r.put("collect.model_ratio", "ratio",
        collect_p50_us > 0 ? predicted_us / collect_p50_us : 0.0);
}

// ---------------------------------------------------------------------------
// Collect workloads.

Result run_collect(const Options& o) {
  Result r;
  mem::pool_flush_thread_cache();
  const uint64_t live_before = mem::pool_stats().live_blocks;
  CollectShared shared;
  shared.obj = collect::make_algorithm("ArrayDynAppendDereg");
  if (!shared.obj) usage("ArrayDynAppendDereg is not registered");
  shared.obj->set_step_size(kCollectStep);
  if (o.workload == Workload::kCollectChurn) {
    shared.collect_pct = 40;
    shared.update_pct = 20;
  }
  if (o.update_delay_ns != 0) {
    shared.update_delay_cycles = util::ns_to_cycles(o.update_delay_ns);
  }
  LayerFigures f;
  double collect_p50_us = 0.0;
  {
    Team<CollectWorker> team([&](uint32_t t) {
      return std::make_unique<CollectWorker>(
          shared, t, o.seed * 0x9E3779B97F4A7C15ULL + t + 1);
    });
    const Measured m = measure(o, team, r);

    // Oracle: at quiescence one Collect returns exactly the latest value
    // of every live handle (duplicates allowed), and nothing else.
    std::vector<collect::Value> out;
    shared.obj->collect(out);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    std::vector<collect::Value> expect;
    for (const auto& w : team.workers()) {
      expect.insert(expect.end(), w->latest().begin(), w->latest().end());
    }
    std::sort(expect.begin(), expect.end());
    r.check(out == expect,
            "quiescent Collect returned " + std::to_string(out.size()) +
                " distinct values, expected the " +
                std::to_string(expect.size()) + " latest bindings");

    if (!o.trace) {
      put_end_to_end(r, m);
    } else {
      uint64_t values = 0, collects = 0;
      for (const auto& w : team.workers()) {
        values += w->values();
        collects += w->collects();
      }
      f.values_per_collect =
          collects ? static_cast<double>(values) / collects : 0.0;
      collect_p50_us = put_layers(o, team, m, f, r);
    }
  }  // workers deregister their handles and exit
  shared.obj.reset();
  mem::pool_flush_thread_cache();
  const uint64_t live_after = mem::pool_stats().live_blocks;
  r.check(live_after == live_before,
          "pool live blocks " + std::to_string(live_after) +
              " after teardown, " + std::to_string(live_before) + " before");
  if (o.trace) put_probe(r, f.values_per_collect, collect_p50_us);
  return r;
}

// ---------------------------------------------------------------------------
// Queue workloads (Figure 1): enqueue/dequeue pairs on a prefilled queue.

template <class Q>
Result run_queue(const Options& o) {
  Result r;
  mem::pool_flush_thread_cache();
  const mem::PoolStats base = mem::pool_stats();
  {
    Q q;
    uint64_t prefill_seq = util::Xoshiro256(o.seed).next_below(uint64_t{1} << 40);
    for (uint32_t i = 0; i < kQueuePrefill; ++i) {
      q.enqueue(tag(0, 0, ++prefill_seq));
    }
    QueueLedger total;
    std::unique_ptr<Team<QueueWorker<Q>>> team =
        std::make_unique<Team<QueueWorker<Q>>>([&](uint32_t t) {
          return std::make_unique<QueueWorker<Q>>(q, t, o.seed);
        });
    const Measured m = measure(o, *team, r);
    for (const auto& w : team->workers()) {
      total.enqueued += w->ledger().enqueued;
      total.dequeued += w->ledger().dequeued;
      total.empty += w->ledger().empty;
      total.reordered += w->ledger().reordered;
    }
    r.failed += total.empty;
    r.check(total.reordered == 0,
            std::to_string(total.reordered) +
                " dequeues broke a producer's FIFO order");

    // Drain on the main thread: still FIFO per producer, and every value
    // enqueued comes out exactly once.
    FifoCheck fifo;
    uint64_t drained = 0, drain_reordered = 0;
    queue::Value v = 0;
    while (q.dequeue(&v)) {
      ++drained;
      if (!fifo.accept(v)) ++drain_reordered;
    }
    const uint64_t enqueued = kQueuePrefill + total.enqueued;
    r.check(drain_reordered == 0, "drain broke a producer's FIFO order");
    r.check(enqueued == total.dequeued + drained,
            "enqueued " + std::to_string(enqueued) + " != dequeued " +
                std::to_string(total.dequeued) + " + drained " +
                std::to_string(drained));

    if (!o.trace) {
      put_end_to_end(r, m);
    } else {
      // Quiescent footprint: what the drained queue still holds, before
      // any explicit reclamation pass (hazard-pointer retirements pending).
      LayerFigures f;
      f.quiescent_bytes =
          static_cast<double>(mem::pool_stats().live_bytes - base.live_bytes);
      if constexpr (std::is_same_v<Q, queue::MsQueueHp>) {
        f.retired_pending = static_cast<double>(q.deferred_nodes());
      }
      put_layers(o, *team, m, f, r);
    }
    team.reset();
    if constexpr (requires { q.quiesce(); }) q.quiesce();
  }  // ~Q frees every remaining node, pooled or retired
  mem::pool_flush_thread_cache();
  const uint64_t live_after = mem::pool_stats().live_blocks;
  r.check(live_after == base.live_blocks,
          "pool live blocks " + std::to_string(live_after) +
              " after teardown, " + std::to_string(base.live_blocks) +
              " before");
  if (o.trace) put_probe(r, 0.0, 0.0);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  Result r;
  try {
    switch (o.workload) {
      case Workload::kCollectRead:
      case Workload::kCollectChurn:
        r = run_collect(o);
        break;
      case Workload::kQueueHtm:
        r = run_queue<queue::HtmQueue>(o);
        break;
      case Workload::kQueueMs:
        r = run_queue<queue::MsQueue>(o);
        break;
      case Workload::kQueueRop:
        r = run_queue<queue::MsQueueRop>(o);
        break;
      case Workload::kQueueHp:
        r = run_queue<queue::MsQueueHp>(o);
        break;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  print_result(o, r);
  return 0;
}
