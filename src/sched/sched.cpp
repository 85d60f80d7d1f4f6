#include "sched/sched.hpp"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <semaphore>
#include <stdexcept>
#include <thread>

namespace dc::sched {
namespace detail {

// dc_sched sits below dc_util in the link order (so util::Backoff can
// checkpoint), which means it cannot use util's RNGs; SplitMix64 is
// four lines and statistically plenty for scheduling decisions.
struct Rng {
  uint64_t s;
  uint64_t next() noexcept {
    uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t below(uint64_t n) noexcept { return n != 0 ? next() % n : 0; }
};

class Engine;

struct LogicalContext {
  Engine* engine = nullptr;
  uint32_t index = 0;
};

class Engine {
 public:
  Engine(const Options& opts, std::vector<std::function<void()>> bodies)
      : opts_(opts), bodies_(std::move(bodies)), n_(static_cast<uint32_t>(bodies_.size())),
        rng_{opts.seed ^ 0xdcdcdcdc5c4ed000ull} {
    slots_.reserve(n_);
    for (uint32_t i = 0; i < n_; ++i) {
      slots_.push_back(std::make_unique<Slot>());
      slots_[i]->ctx = LogicalContext{this, i};
    }
    trace_.name = opts_.name;
    trace_.seed = opts_.seed;
    trace_.policy = to_string(opts_.policy);
    trace_.threads = n_;
    if (opts_.policy == Policy::kPct) init_pct();
  }

  RunResult run_all();
  void on_checkpoint(uint32_t self, Kind k);
  uint64_t seed() const noexcept { return opts_.seed; }

 private:
  struct Slot {
    std::binary_semaphore go{0};
    std::thread os;
    LogicalContext ctx{};
    bool done = false;
    std::exception_ptr error;
  };

  void worker_main(uint32_t idx);
  uint32_t on_exit(uint32_t self);
  void build_ready();
  uint32_t pick(uint32_t self, Kind k, uint64_t seen);
  uint32_t pick_random(uint32_t self);
  uint32_t pick_pct(uint32_t self, Kind k);
  uint32_t pick_replay(uint32_t self, Kind k);
  uint32_t next_ready_after(uint32_t self);
  void init_pct();
  void demote(uint32_t t) { priority_[t] = --pct_floor_; }
  void mark_diverged() {
    if (!diverged_) {
      diverged_ = true;
      divergence_step_ = steps_;
    }
  }
  void record(uint32_t self, Kind k, uint32_t next) {
    if (trace_.steps.size() < opts_.max_trace_steps) {
      trace_.steps.push_back(TraceStep{self, k, next});
    } else {
      trace_.truncated = true;
    }
  }
  void handoff(uint32_t self, uint32_t next) {
    slots_[next]->go.release();
    slots_[self]->go.acquire();
  }
  [[noreturn]] void hard_abort(uint32_t self, Kind k);

  Options opts_;
  std::vector<std::function<void()>> bodies_;
  uint32_t n_;
  Rng rng_;
  std::vector<std::unique_ptr<Slot>> slots_;
  // A finished worker hands the baton to the main thread, which joins it
  // before waking `exit_next_` (see run_all).
  std::binary_semaphore main_go_{0};
  uint32_t exited_ = 0;
  uint32_t exit_next_ = 0;
  Trace trace_;
  uint64_t steps_ = 0;
  bool exhausted_ = false;
  bool diverged_ = false;
  uint64_t divergence_step_ = 0;
  uint64_t replay_idx_ = 0;
  uint64_t seen_[kMaxLogicalThreads][static_cast<size_t>(Kind::kNumKinds)] = {};
  uint32_t ready_[kMaxLogicalThreads];
  uint32_t ready_count_ = 0;
  int64_t priority_[kMaxLogicalThreads] = {};
  int64_t pct_floor_ = 0;
  std::vector<uint64_t> change_points_;
  size_t change_idx_ = 0;
};

thread_local LogicalContext* t_ctx = nullptr;

namespace {
std::atomic<Engine*> g_current{nullptr};

bool throw_safe(Kind k) noexcept {
  // Kinds reached only from contexts the htm wrappers unwind correctly
  // (Txn::load/store/commit propagate through `catch (...) { doom();
  // throw; }`) or from plain test-body code (kYield). Everything else
  // — backoff, the noexcept lock protocol — must never see a throw.
  return k == Kind::kTxnLoad || k == Kind::kTxnStore ||
         k == Kind::kCommitEntry || k == Kind::kYield;
}
}  // namespace

void Engine::init_pct() {
  // Distinct initial priorities: a random permutation of [1, n].
  uint32_t order[kMaxLogicalThreads];
  for (uint32_t i = 0; i < n_; ++i) order[i] = i;
  for (uint32_t i = n_; i > 1; --i) {
    std::swap(order[i - 1], order[rng_.below(i)]);
  }
  for (uint32_t i = 0; i < n_; ++i) priority_[order[i]] = static_cast<int64_t>(i) + 1;
  change_points_.reserve(opts_.pct_depth);
  for (uint32_t i = 0; i < opts_.pct_depth; ++i) {
    change_points_.push_back(1 + rng_.below(opts_.pct_horizon));
  }
  std::sort(change_points_.begin(), change_points_.end());
}

void Engine::build_ready() {
  ready_count_ = 0;
  for (uint32_t i = 0; i < n_; ++i) {
    if (!slots_[i]->done) ready_[ready_count_++] = i;
  }
}

uint32_t Engine::next_ready_after(uint32_t self) {
  for (uint32_t d = 1; d <= n_; ++d) {
    const uint32_t i = (self + d) % n_;
    if (!slots_[i]->done) return i;
  }
  return kNoThread;
}

uint32_t Engine::pick_random(uint32_t self) {
  const bool stayable = !slots_[self]->done;
  if (stayable && opts_.switch_denom > 1 &&
      rng_.below(opts_.switch_denom) != 0) {
    return self;
  }
  return ready_[rng_.below(ready_count_)];
}

uint32_t Engine::pick_pct(uint32_t self, Kind k) {
  if (!slots_[self]->done) {
    if (k == Kind::kBackoff || k == Kind::kYield) {
      // A spinner is waiting on someone else's progress; letting it keep
      // its priority would starve the thread it waits on forever.
      demote(self);
    } else if (change_idx_ < change_points_.size() &&
               steps_ >= change_points_[change_idx_]) {
      ++change_idx_;
      demote(self);
    }
  }
  uint32_t best = ready_[0];
  for (uint32_t i = 1; i < ready_count_; ++i) {
    if (priority_[ready_[i]] > priority_[best]) best = ready_[i];
  }
  return best;
}

uint32_t Engine::pick_replay(uint32_t self, Kind k) {
  const Trace* t = opts_.replay;
  if (!diverged_ && t != nullptr) {
    if (replay_idx_ < t->steps.size()) {
      const TraceStep& ts = t->steps[replay_idx_];
      if (ts.thread == self && ts.kind == k) {
        ++replay_idx_;
        const uint32_t nx = ts.next;
        if (nx == self && !slots_[self]->done) return self;
        if (nx < n_ && nx != self && !slots_[nx]->done) return nx;
        if (ready_count_ == 0) return self;  // recorded no-choice step
        mark_diverged();  // recorded next is no longer schedulable
      } else {
        mark_diverged();
      }
    } else if (!t->truncated) {
      // Ran past a complete recording: this run takes more steps than
      // the original did, so the interleaving already differs.
      mark_diverged();
    }
  }
  if (ready_count_ == 0) return self;
  return pick_random(self);
}

uint32_t Engine::pick(uint32_t self, Kind k, uint64_t seen) {
  build_ready();
  if (opts_.policy == Policy::kReplay) return pick_replay(self, k);
  if (ready_count_ == 0) return self;
  switch (opts_.policy) {
    case Policy::kRandomWalk:
      return pick_random(self);
    case Policy::kPct:
      return pick_pct(self, k);
    case Policy::kCallback: {
      const bool exiting = slots_[self]->done;
      // For exit decisions the ready list already excludes self.
      Decision d{self, k, steps_, seen, ready_, ready_count_};
      const int32_t r = opts_.controller ? opts_.controller(d) : kStay;
      if (r != kStay) {
        const uint32_t u = static_cast<uint32_t>(r);
        if (u < n_ && !slots_[u]->done) return u;
      }
      return exiting ? ready_[0] : self;
    }
    case Policy::kReplay:
      break;  // handled above
  }
  return self;
}

void Engine::on_checkpoint(uint32_t self, Kind k) {
  ++steps_;
  const uint64_t seen = ++seen_[self][static_cast<size_t>(k)];
  if (!exhausted_ && steps_ > opts_.max_steps) exhausted_ = true;
  uint32_t next;
  if (exhausted_) {
    if (throw_safe(k)) throw BudgetExceeded{};
    // Hard backstop: if round-robin draining cannot finish the run
    // (every thread wedged at a noexcept checkpoint), dump and abort
    // rather than hang CI.
    if (steps_ > opts_.max_steps * 16 + 100000) hard_abort(self, k);
    next = next_ready_after(self);
    if (next == kNoThread) next = self;
  } else {
    next = pick(self, k, seen);
  }
  record(self, k, next);
  if (next != self) handoff(self, next);
}

uint32_t Engine::on_exit(uint32_t self) {
  slots_[self]->done = true;
  ++steps_;
  const uint64_t seen = ++seen_[self][static_cast<size_t>(Kind::kThreadExit)];
  uint32_t next;
  if (exhausted_) {
    next = next_ready_after(self);
  } else {
    next = pick(self, Kind::kThreadExit, seen);
  }
  if (next == self || next == kNoThread || slots_[next]->done) {
    next = kNoThread;
  }
  record(self, Kind::kThreadExit, next == kNoThread ? self : next);
  return next;
}

void Engine::worker_main(uint32_t idx) {
  Slot& me = *slots_[idx];
  me.go.acquire();
  t_ctx = &me.ctx;
  try {
    on_checkpoint(idx, Kind::kThreadStart);
    bodies_[idx]();
  } catch (const BudgetExceeded&) {
    // Livelock containment: the body was unwound mid-flight; fine.
  } catch (...) {
    me.error = std::current_exception();
  }
  t_ctx = nullptr;
  exit_next_ = on_exit(idx);
  exited_ = idx;
  main_go_.release();
}

void Engine::hard_abort(uint32_t self, Kind k) {
  std::fprintf(stderr,
               "[sched] FATAL: schedule wedged after budget exhaustion "
               "(thread %u at %s, %" PRIu64 " steps); trace tail:\n",
               self, to_string(k), steps_);
  const size_t tail = std::min<size_t>(trace_.steps.size(), 200);
  for (size_t i = trace_.steps.size() - tail; i < trace_.steps.size(); ++i) {
    const TraceStep& s = trace_.steps[i];
    std::fprintf(stderr, "  %u %c %u\n", s.thread, kind_code(s.kind), s.next);
  }
  std::abort();
}

RunResult Engine::run_all() {
  Engine* expected = nullptr;
  if (!g_current.compare_exchange_strong(expected, this)) {
    throw std::logic_error("sched::run: runs must not nest");
  }
  for (uint32_t i = 0; i < n_; ++i) {
    slots_[i]->os = std::thread([this, i] { worker_main(i); });
  }
  // The baton passes through this thread at every worker exit: joining the
  // finished worker first means its thread_local destructors (the dense
  // thread id release among them) have all run before the next worker
  // takes a step, instead of racing it on the host's timing. Whether a dead
  // worker's id is free when its successor claims one decides whether the
  // successor still sees a crash in the world, and so which checkpoints it
  // reaches.
  slots_[0]->go.release();
  for (;;) {
    main_go_.acquire();
    slots_[exited_]->os.join();
    if (exit_next_ == kNoThread) break;
    slots_[exit_next_]->go.release();
  }
  for (uint32_t i = 0; i < n_; ++i) {
    if (slots_[i]->os.joinable()) slots_[i]->os.join();
  }
  g_current.store(nullptr);
  for (uint32_t i = 0; i < n_; ++i) {
    if (slots_[i]->error) std::rethrow_exception(slots_[i]->error);
  }
  RunResult r;
  r.steps = steps_;
  r.budget_exhausted = exhausted_;
  r.replay_diverged = diverged_;
  r.divergence_step = divergence_step_;
  r.trace = std::move(trace_);
  return r;
}

void checkpoint_slow(Kind k) {
  LogicalContext* c = t_ctx;
  c->engine->on_checkpoint(c->index, k);
}

}  // namespace detail

const char* to_string(Policy p) noexcept {
  switch (p) {
    case Policy::kRandomWalk: return "random";
    case Policy::kPct: return "pct";
    case Policy::kReplay: return "replay";
    case Policy::kCallback: return "callback";
  }
  return "?";
}

uint64_t run_seed() noexcept {
  const detail::LogicalContext* c = detail::t_ctx;
  return c != nullptr ? c->engine->seed() : 0;
}

uint32_t self_index() noexcept {
  const detail::LogicalContext* c = detail::t_ctx;
  return c != nullptr ? c->index : kNoThread;
}

RunResult run(const Options& opts, std::vector<std::function<void()>> bodies) {
  if (bodies.empty() || bodies.size() > kMaxLogicalThreads) {
    throw std::invalid_argument("sched::run: need 1..64 bodies");
  }
  detail::Engine engine(opts, std::move(bodies));
  return engine.run_all();
}

}  // namespace dc::sched
