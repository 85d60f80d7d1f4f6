// The schedule-exploration battery and its CI hooks:
//
//  * a K-seed PCT sweep over the interleaving-sensitive protocols — TLE
//    lock steal, lease stamp/reap, and read-set validation under the GV1
//    and GV5 clocks — asserting the protocol invariants on every explored schedule (DC_SCHED_SEEDS widens
//    the sweep; the CI sched-sweep leg and its nightly-scale input);
//  * proof the sweep has teeth: a deliberately reintroduced PR 4-class
//    dirty-read bug must be found within the CI seed budget, and the
//    recorded failing schedule must replay to the same wrong answer;
//  * a regression leg replaying the checked-in known-bad schedules under
//    tests/schedules/ against the current code (plus the recorder that
//    regenerates them, gated on DC_SCHED_RECORD_DIR).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "collect/lease.hpp"
#include "collect/registry.hpp"
#include "htm/crash.hpp"
#include "htm/htm.hpp"
#include "htm/retry.hpp"
#include "htm/stats.hpp"
#include "memory/pool.hpp"
#include "sched/sched.hpp"
#include "sched/trace.hpp"
#include "tests/support/sched_harness.hpp"
#include "util/rng.hpp"

namespace dc::sched {
namespace {

class SchedSweep : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = htm::config();
    reset_world();
  }
  void TearDown() override {
    htm::config() = saved_;
    htm::crash::reset_all();
  }
  // Every swept schedule starts from the same substrate state.
  void reset_world() {
    htm::config() = saved_;
    htm::crash::reset_all();
    htm::reset_stats();
    htm::reset_storm_sites();
  }
  htm::Config saved_;
};

// ---------------------------------------------------------------------------
// The four protocol workloads. Each runs one seeded schedule and asserts
// the protocol's invariant; state is static so addresses — and therefore
// orec indices — are stable across schedules within a process.
// ---------------------------------------------------------------------------

void run_tle_steal(Options o) {
  // A victim dies holding the TLE lock; two survivors must steal it and
  // finish their increments on every schedule.
  htm::config().tle_after_aborts = 2;
  static uint64_t cell;
  static uint64_t counter;
  cell = 0;
  counter = 0;
  std::atomic<bool> victim_survived{true};
  std::vector<std::function<void()>> bodies;
  bodies.push_back([&] {
    htm::crash::schedule_self(htm::crash::Point::kLockHeld);
    victim_survived = htm::crash::run_victim(
        [] { htm::atomic([](htm::Txn& txn) { txn.store(&cell, uint64_t{1}); }); });
  });
  for (uint64_t t = 1; t <= 2; ++t) {
    bodies.push_back([t] {
      for (int i = 0; i < 5; ++i) {
        htm::atomic(
            [&](htm::Txn& txn) { txn.store(&counter, txn.load(&counter) + t); });
      }
    });
  }
  schedtest::run_scheduled(o, std::move(bodies));
  EXPECT_FALSE(victim_survived.load());
  EXPECT_EQ(counter, 5u * (1 + 2));
  EXPECT_EQ(cell, 0u);  // the abandoned block never committed
  EXPECT_EQ(htm::nontxn_load(htm::detail::tle_lock_word()), 0u);
  const htm::TxnStats agg = htm::aggregate_stats();
  EXPECT_EQ(agg.crashes_injected, 1u);
  EXPECT_GE(agg.lock_recoveries, 1u);
}

void run_lease_churn(Options o) {
  // A victim churns registers/deregisters until it dies; a reaper runs
  // concurrently with the churn; a live owner keeps refreshing its own
  // lease throughout. Invariant: after the final reap, exactly the live
  // owner's handle remains. The owner verifies that from *inside* its
  // still-registered body and only then deregisters: once its thread
  // exits, its dense id — and thus its lease — is fair game for recycling
  // and reaping, which is the lease contract, not a violation of it.
  collect::MakeParams params;
  params.static_capacity = 1024;
  params.max_threads = 16;
  auto col = std::make_unique<collect::CrashTolerantCollect>(
      collect::make_algorithm("ListFastCollect", params));
  std::atomic<bool> victim_done{false};
  std::atomic<bool> reaper_done{false};
  std::size_t live_leases = 0, live_orphans = 99;
  std::vector<collect::Value> live_values;
  std::vector<std::function<void()>> bodies;
  bodies.push_back([&] {
    htm::crash::run_victim([&] {
      col->register_handle(1);
      col->register_handle(2);
      htm::crash::schedule_self(htm::crash::Point::kTxnOp,
                                /*blocks_from_now=*/2, /*after_ops=*/0);
      for (uint64_t i = 0;; ++i) {
        collect::Handle t = col->register_handle(100 + i);
        col->deregister(t);
      }
    });
    victim_done = true;
  });
  bodies.push_back([&] {
    while (!victim_done.load()) {
      col->reap_orphans();
      yield();
    }
    col->reap_orphans();
    reaper_done = true;
  });
  bodies.push_back([&] {
    collect::Handle h = col->register_handle(50);
    for (uint64_t i = 1; i <= 3; ++i) col->update(h, 50 + i);
    while (!reaper_done.load()) yield();
    live_leases = col->lease_count();
    live_orphans = col->orphan_count();
    col->collect(live_values);
    col->deregister(h);
  });
  schedtest::run_scheduled(o, std::move(bodies));
  EXPECT_EQ(live_leases, 1u);
  EXPECT_EQ(live_orphans, 0u);
  ASSERT_EQ(live_values.size(), 1u);
  EXPECT_EQ(live_values[0], 53u);
  EXPECT_EQ(col->lease_count(), 0u);
  EXPECT_GE(htm::aggregate_stats().orphans_reaped, 2u);
}

// Shared invariant-pair body for the two validation workloads: x and y move
// together inside transactions, churn words add unrelated writers, and a
// read-only txn audits x == y. Deterministic per (seed,
// thread), single fixed addresses only.
void validation_stress(Options o, uint64_t* out_x, uint64_t* out_pairs) {
  static uint64_t x, y, churn[8];
  x = y = 0;
  for (uint64_t& c : churn) c = 0;
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> pair_ops{0};
  std::vector<std::function<void()>> bodies;
  for (uint64_t t = 0; t < 3; ++t) {
    bodies.push_back([&, t, seed = o.seed] {
      util::SplitMix64 rng(seed * 1000003 + t);
      for (int i = 0; i < 30; ++i) {
        const uint64_t dice = rng.next() % 4;
        if (dice < 2) {
          htm::atomic([&](htm::Txn& txn) {
            const uint64_t vx = txn.load(&x);
            const uint64_t vy = txn.load(&y);
            if (vx != vy) mismatches.fetch_add(1);
            txn.store(&x, vx + 1);
            txn.store(&y, vy + 1);
          });
          pair_ops.fetch_add(1);
        } else if (dice == 2) {
          const uint64_t j = rng.next() % 8;
          htm::atomic([&](htm::Txn& txn) {
            txn.store(&churn[j], txn.load(&churn[j]) + 1);
          });
        } else {
          htm::atomic([&](htm::Txn& txn) {
            const uint64_t vx = txn.load(&x);
            const uint64_t vy = txn.load(&y);
            if (vx != vy) mismatches.fetch_add(1);
          });
        }
      }
    });
  }
  schedtest::run_scheduled(o, std::move(bodies));
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(x, y);
  EXPECT_EQ(x, pair_ops.load());
  *out_x = x;
  *out_pairs = pair_ops.load();
}

void run_validation_gv1(Options o) {
  // GV1: every visible commit bumps the shared clock, so a reader's commit
  // may skip validation only when the clock proves nothing changed.
  htm::config().clock_policy = htm::ClockPolicy::kGv1;
  uint64_t x = 0, pairs = 0;
  validation_stress(std::move(o), &x, &pairs);
  EXPECT_GT(htm::aggregate_stats().clock_bumps, 0u) << "GV1 never bumped";
}

void run_validation_gv5(Options o) {
  // GV5 catch-up: sloppy stamps run ahead of the shared clock, and the
  // readers' re-sample plus read-set walk must still never admit a stale
  // read set.
  htm::config().clock_policy = htm::ClockPolicy::kGv5;
  uint64_t x = 0, pairs = 0;
  validation_stress(std::move(o), &x, &pairs);
  EXPECT_GT(htm::aggregate_stats().sloppy_stamps, 0u)
      << "GV5 never took a sloppy stamp";
}

TEST_F(SchedSweep, PctSeedBatteryHoldsProtocolInvariants) {
  struct Protocol {
    const char* name;
    void (*run)(Options);
  };
  const Protocol protocols[] = {
      {"sweep_tle_steal", run_tle_steal},
      {"sweep_lease_churn", run_lease_churn},
      {"sweep_validation_gv1", run_validation_gv1},
      {"sweep_validation_gv5", run_validation_gv5},
  };
  const uint64_t seeds = schedtest::sweep_seed_count(4);
  RecordProperty("sweep_seeds", static_cast<int>(seeds));
  for (const Protocol& p : protocols) {
    for (uint64_t seed = 1; seed <= seeds; ++seed) {
      reset_world();
      Options o;
      o.seed = seed;
      o.policy = Policy::kPct;
      o.name = p.name;
      SCOPED_TRACE(std::string(p.name) + " seed=" + std::to_string(seed));
      p.run(o);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST_F(SchedSweep, ReintroducedDirtyReadBugIsFoundAndReplays) {
  // The PR 4-class bug, reintroduced in a test-local fixture: read the
  // counter OUTSIDE the transaction, then store the incremented value
  // inside one. The kTxnStore/kCommitEntry preemption points let a PCT
  // schedule slide another thread's whole block into the read→commit
  // window, losing an update. The sweep must find such a schedule within
  // the CI budget, and the recorded schedule must replay to the very same
  // wrong total.
  static uint64_t counter;
  auto buggy_bodies = [] {
    std::vector<std::function<void()>> bodies;
    for (int t = 0; t < 2; ++t) {
      bodies.push_back([] {
        for (int i = 0; i < 4; ++i) {
          const uint64_t v = counter;  // dirty read — the bug
          htm::atomic([&](htm::Txn& txn) { txn.store(&counter, v + 1); });
        }
      });
    }
    return bodies;
  };
  const uint64_t expected = 2 * 4;
  const uint64_t budget = 200;  // seeds; found in the first few in practice
  bool found = false;
  uint64_t bad_seed = 0, bad_total = 0, seeds_tried = 0;
  Trace bad;
  for (uint64_t seed = 1; seed <= budget && !found; ++seed) {
    ++seeds_tried;
    counter = 0;
    Options o;
    o.seed = seed;
    o.policy = Policy::kPct;
    o.name = "dirty_read_bug";
    RunResult r = schedtest::run_scheduled(o, buggy_bodies());
    if (counter != expected) {
      found = true;
      bad_seed = seed;
      bad_total = counter;
      bad = r.trace;
    }
  }
  RecordProperty("seeds_to_find_bug", static_cast<int>(seeds_tried));
  ASSERT_TRUE(found) << "sweep missed the planted bug in " << budget
                     << " seeds";
  EXPECT_LT(bad_total, expected);

  // The recorded schedule is a complete repro: replaying it loses the
  // same updates again.
  counter = 0;
  Options rep;
  rep.policy = Policy::kReplay;
  rep.replay = &bad;
  rep.seed = bad.seed;
  rep.name = "dirty_read_bug";
  RunResult r = schedtest::run_scheduled(rep, buggy_bodies());
  EXPECT_FALSE(r.replay_diverged)
      << "seed " << bad_seed << " diverged at step " << r.divergence_step;
  EXPECT_EQ(counter, bad_total);
}

// ---------------------------------------------------------------------------
// Checked-in known-bad schedules (tests/schedules/*.trace): interleavings
// that once exposed PR 4/PR 5-class bugs, replayed against the current
// code on every CI run. The trace's `name` field selects the workload.
// ---------------------------------------------------------------------------

RunResult run_regression_workload(const std::string& name, Options o) {
  o.name = name;
  if (name == "regress_conservation_gv1" ||
      name == "regress_conservation_gv5") {
    htm::config().clock_policy = name == "regress_conservation_gv1"
                                     ? htm::ClockPolicy::kGv1
                                     : htm::ClockPolicy::kGv5;
    static uint64_t counter;
    counter = 0;
    std::vector<std::function<void()>> bodies;
    for (uint64_t t = 0; t < 3; ++t) {
      bodies.push_back([t] {
        for (int i = 0; i < 15; ++i) {
          htm::atomic([&](htm::Txn& txn) {
            txn.store(&counter, txn.load(&counter) + (t + 1));
          });
        }
      });
    }
    RunResult r = schedtest::run_scheduled(std::move(o), std::move(bodies));
    EXPECT_EQ(counter, 15u * (1 + 2 + 3));
    return r;
  }
  if (name == "regress_alloc_fault_register") {
    // Scripted allocation denial on each thread's first Register. The
    // Register allocates its node before the publish transaction (the paper
    // splits allocation out of atomic blocks), so the denial surfaces as
    // PoolExhausted and the caller retries — the service-worker pattern.
    // The kAllocFault checkpoint sits on the denial, so the recorded
    // schedule replays the failure at the same step; the retried Registers
    // must commit exactly once and the deregisters must leave the Collect
    // empty, on whatever schedule is played.
    collect::MakeParams params;
    params.static_capacity = 256;
    params.max_threads = 8;
    static std::unique_ptr<collect::CrashTolerantCollect> col;
    col = std::make_unique<collect::CrashTolerantCollect>(
        collect::make_algorithm("ListFastCollect", params));
    const auto pool_before = mem::pool_stats();
    mem::pool_set_alloc_fault_script({{mem::kAnyThread, 0}});
    auto register_retrying = [](collect::Value v) {
      for (;;) {
        try {
          return col->register_handle(v);
        } catch (const std::bad_alloc&) {
        }
      }
    };
    std::vector<std::function<void()>> bodies;
    bodies.push_back([register_retrying] {
      collect::Handle h = register_retrying(7);
      col->update(h, 8);
      col->deregister(h);
    });
    bodies.push_back([register_retrying] {
      collect::Handle h = register_retrying(9);
      col->deregister(h);
    });
    RunResult r = schedtest::run_scheduled(std::move(o), std::move(bodies));
    mem::pool_clear_alloc_fault_script();
    EXPECT_EQ(mem::pool_stats().alloc_faults_injected,
              pool_before.alloc_faults_injected + 2);
    std::vector<collect::Value> out;
    col->collect(out);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(col->lease_count(), 0u);
    col.reset();
    return r;
  }
  if (name == "regress_dead_holder") {
    htm::config().tle_after_aborts = 2;
    static uint64_t cell;
    static uint64_t counter;
    cell = 0;
    counter = 0;
    std::atomic<bool> victim_survived{true};
    std::vector<std::function<void()>> bodies;
    bodies.push_back([&] {
      htm::crash::schedule_self(htm::crash::Point::kLockHeld);
      victim_survived = htm::crash::run_victim(
          [] { htm::atomic([](htm::Txn& txn) { txn.store(&cell, uint64_t{1}); }); });
    });
    bodies.push_back([] {
      for (int i = 0; i < 5; ++i) {
        htm::atomic(
            [](htm::Txn& txn) { txn.store(&counter, txn.load(&counter) + 1); });
      }
    });
    RunResult r = schedtest::run_scheduled(std::move(o), std::move(bodies));
    EXPECT_FALSE(victim_survived.load());
    EXPECT_EQ(counter, 5u);
    EXPECT_EQ(cell, 0u);
    EXPECT_EQ(htm::nontxn_load(htm::detail::tle_lock_word()), 0u);
    EXPECT_GE(htm::aggregate_stats().lock_recoveries, 1u);
    return r;
  }
  ADD_FAILURE() << "unknown regression workload: " << name;
  return RunResult{};
}

TEST_F(SchedSweep, KnownBadSchedulesStayFixed) {
  namespace fs = std::filesystem;
  const fs::path dir = DC_SCHED_SCHEDULE_DIR;
  ASSERT_TRUE(fs::is_directory(dir)) << dir;
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".trace") files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty()) << "no checked-in schedules under " << dir;
  for (const fs::path& f : files) {
    SCOPED_TRACE(f.string());
    Trace t;
    ASSERT_TRUE(Trace::read_file(f.string(), &t));
    reset_world();
    Options o;
    o.policy = Policy::kReplay;
    o.replay = &t;
    o.seed = t.seed;
    RunResult r = run_regression_workload(t.name, std::move(o));
    EXPECT_FALSE(r.replay_diverged)
        << "checked-in schedule no longer matches the code's checkpoint "
           "sequence (diverged at step "
        << r.divergence_step << ")";
  }
}

TEST_F(SchedSweep, RecordRegressionSchedules) {
  // Regenerates tests/schedules/*.trace. Not part of the normal run: set
  // DC_SCHED_RECORD_DIR (usually to tests/schedules) after changing a
  // workload or the checkpoint taxonomy, then commit the new traces.
  const char* dir = std::getenv("DC_SCHED_RECORD_DIR");
  if (dir == nullptr) {
    GTEST_SKIP() << "set DC_SCHED_RECORD_DIR to regenerate the checked-in "
                    "schedules";
  }
  struct Spec {
    const char* name;
    uint64_t seed;
  };
  const Spec specs[] = {
      {"regress_conservation_gv1", 3},
      {"regress_conservation_gv5", 5},
      {"regress_dead_holder", 7},
      {"regress_alloc_fault_register", 11},
  };
  std::filesystem::create_directories(dir);
  for (const Spec& s : specs) {
    reset_world();
    Options o;
    o.seed = s.seed;
    o.policy = Policy::kPct;
    RunResult r = run_regression_workload(s.name, std::move(o));
    const std::string path = std::string(dir) + "/" + s.name + ".trace";
    ASSERT_TRUE(r.trace.write_file(path)) << path;
  }
}

}  // namespace
}  // namespace dc::sched
