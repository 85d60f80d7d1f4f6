// Clock-correctness battery for the pluggable global-clock policies
// (Config::clock_policy, htm/clock.hpp). The properties pinned here are the
// three rules of the GV5 safety contract:
//  * a transaction never returns from a load of a location whose version
//    exceeds its (possibly re-sampled) snapshot — the absorb path extends
//    the snapshot, it never widens the validation window;
//  * read-only and silent-write commits perform zero shared-clock writes
//    under both policies (asserted through TxnStats::clock_bumps and the
//    clock value itself);
//  * per-orec versions are strictly monotone across visible writes, even
//    when the policy is switched between runs.
// Plus the cost model the policies exist for: GV1 pays one fetch_add per
// visible writing commit, GV5 pays none — and, under the deterministic
// scheduler, the two policies admit identical effects.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "htm/clock.hpp"
#include "htm/htm.hpp"

#if defined(DC_SCHED)
#include <functional>

#include "sched/sched.hpp"
#include "tests/support/sched_harness.hpp"
#include "util/rng.hpp"
#endif

namespace dc::htm {
namespace {

TEST(ClockPolicyNames, ParseAndFormatRoundTrip) {
  EXPECT_STREQ(to_string(ClockPolicy::kGv1), "gv1");
  EXPECT_STREQ(to_string(ClockPolicy::kGv5), "gv5");
  ClockPolicy p = ClockPolicy::kGv1;
  EXPECT_TRUE(parse_clock_policy("gv5", p));
  EXPECT_EQ(p, ClockPolicy::kGv5);
  EXPECT_TRUE(parse_clock_policy("gv1", p));
  EXPECT_EQ(p, ClockPolicy::kGv1);
  EXPECT_FALSE(parse_clock_policy("gv2", p));
  EXPECT_FALSE(parse_clock_policy("", p));
  EXPECT_FALSE(parse_clock_policy(nullptr, p));
  EXPECT_EQ(p, ClockPolicy::kGv1);  // unchanged on failed parse
}

TEST(WriterStamp, ExceedsEveryInputEitherPolicy) {
  // Rule 1's floor: the stamp must exceed the highest version it replaces,
  // whatever the relative order of clock, snapshot, and prev_max.
  const uint64_t gv = global_clock().load(std::memory_order_acquire);
  const ClockStamp sloppy = writer_stamp(ClockPolicy::kGv5, gv, gv + 100, 3);
  EXPECT_GT(sloppy.wv, gv + 100);
  EXPECT_FALSE(sloppy.read_set_unchanged);
  const ClockStamp bumped = writer_stamp(ClockPolicy::kGv1, gv, gv + 200, 1);
  EXPECT_GT(bumped.wv, gv + 200);
  // A stale prev_max above the snapshot disproves "nothing committed since".
  EXPECT_FALSE(bumped.read_set_unchanged);
}

TEST(ClockPolicyGv5, ResampleAbsorbsSloppyVersionAheadOfClock) {
  // Deterministic single-thread reproduction of the absorb path: a sloppy
  // stamp leaves an orec version the shared clock has not covered; a reader
  // that trips over it must re-sample and succeed instead of aborting. The
  // store lands after the transaction begins, so the absorb happens
  // mid-transaction.
  const Config saved = config();
  config().clock_policy = ClockPolicy::kGv5;
  reset_stats();
  uint64_t w = 0;
  {
    Txn txn;
    nontxn_store(&w, uint64_t{41});
    const uint64_t gv_before = global_clock().load(std::memory_order_acquire);
    const uint64_t stamped =
        orec_version(orec_for(&w).value.load(std::memory_order_acquire));
    ASSERT_GT(stamped, gv_before);  // the premise: version ahead of the clock
    EXPECT_LT(txn.read_version(), stamped);
    EXPECT_EQ(txn.load(&w), 41u);  // absorbed, not aborted
    // No-stale-read rule: a returned load is covered by the snapshot.
    EXPECT_GE(txn.read_version(), stamped);
    txn.commit();
    // Rule 2: the clock was raised to the observed stamp before adoption.
    EXPECT_GE(global_clock().load(std::memory_order_acquire), stamped);
  }
  const TxnStats s = aggregate_stats();
  EXPECT_GE(s.clock_resamples, 1u);
  EXPECT_GE(s.clock_catchups, 1u);
  config() = saved;
}

class ClockPolicyTest : public ::testing::TestWithParam<ClockPolicy> {
 protected:
  void SetUp() override {
    saved_ = config();
    config().clock_policy = GetParam();
    reset_stats();
  }
  void TearDown() override { config() = saved_; }
  Config saved_;
};

TEST_P(ClockPolicyTest, ReadOnlyAndSilentCommitsNeverWriteSharedClock) {
  uint64_t w = 7;
  atomic([&](Txn& t) { t.store(&w, uint64_t{8}); });  // a settled version
  atomic([&](Txn& t) { (void)t.load(&w); });  // absorb any sloppy stamp
  const uint64_t gv_before = global_clock().load(std::memory_order_acquire);
  const uint64_t bumps_before = aggregate_stats().clock_bumps;
  atomic([&](Txn& t) { (void)t.load(&w); });         // read-only
  atomic([&](Txn& t) { t.store(&w, t.load(&w)); });  // silent write
  EXPECT_EQ(aggregate_stats().clock_bumps, bumps_before);
  EXPECT_EQ(global_clock().load(std::memory_order_acquire), gv_before);
  EXPECT_EQ(aggregate_stats().commits, 4u);
}

TEST_P(ClockPolicyTest, WriterCommitClockCostMatchesPolicy) {
  // The cost model behind the policies: GV1 pays exactly one shared-clock
  // fetch_add per visible writing commit, GV5 pays exactly zero (its
  // stamps are thread-local arithmetic).
  constexpr uint64_t kWrites = 10;
  uint64_t w = 0;
  for (uint64_t i = 0; i < kWrites; ++i) {
    atomic([&](Txn& t) { t.store(&w, t.load(&w) + 1); });
  }
  const TxnStats s = aggregate_stats();
  EXPECT_EQ(s.writer_commits, kWrites);
  if (GetParam() == ClockPolicy::kGv1) {
    EXPECT_EQ(s.clock_bumps, kWrites);
    EXPECT_EQ(s.sloppy_stamps, 0u);
  } else {
    EXPECT_EQ(s.clock_bumps, 0u);
    EXPECT_EQ(s.sloppy_stamps, kWrites);
  }
}

TEST_P(ClockPolicyTest, OrecVersionsMonotoneIncludingPolicySwitch) {
  uint64_t w = 0;
  const Orec& o = orec_for(&w);
  uint64_t last = orec_version(o.value.load(std::memory_order_acquire));
  for (int i = 1; i <= 8; ++i) {
    atomic([&](Txn& t) { t.store(&w, uint64_t(i)); });
    const uint64_t v = orec_version(o.value.load(std::memory_order_acquire));
    EXPECT_GT(v, last);
    last = v;
  }
  // Switching policies between runs must not step versions backwards: the
  // stamp floor (clock.hpp rule 1) covers sloppy residue under GV1 and the
  // clock sample under GV5.
  config().clock_policy = GetParam() == ClockPolicy::kGv1 ? ClockPolicy::kGv5
                                                          : ClockPolicy::kGv1;
  atomic([&](Txn& t) { t.store(&w, uint64_t{99}); });
  EXPECT_GT(orec_version(o.value.load(std::memory_order_acquire)), last);
}

TEST_P(ClockPolicyTest, StrongAtomicityCasDoomsInFlightReader) {
  // The TLE lock is taken with nontxn_cas; under GV5 its sloppy stamp must
  // still doom a transaction that read the word, or lock-mode exclusivity
  // (and strong atomicity generally) breaks.
  uint64_t w = 1, z = 0;
  bool aborted = false;
  try {
    Txn txn;
    EXPECT_EQ(txn.load(&w), 1u);
    ASSERT_TRUE(nontxn_cas(&w, uint64_t{1}, uint64_t{2}));
    txn.store(&z, uint64_t{1});
    txn.commit();
  } catch (const TxnAbort& e) {
    aborted = true;
    EXPECT_EQ(e.code, AbortCode::kConflict);
  }
  EXPECT_TRUE(aborted);
  EXPECT_EQ(z, 0u);  // the buffered store was discarded
}

TEST_P(ClockPolicyTest, InvariantPreservedUnderConcurrentWriters) {
  // Serializability stress with exact final counts: every committed
  // increment of x is matched by one of y, and no validated load pair ever
  // observes x != y — under GV5 that means the absorb path never admits a
  // half-committed writer.
  constexpr int kThreads = 4;
  constexpr int kOps = 1200;
  uint64_t x = 0, y = 0;
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kOps; ++i) {
        atomic([&](Txn& txn) {
          const uint64_t vx = txn.load(&x);
          const uint64_t vy = txn.load(&y);
          if (vx != vy) mismatches.fetch_add(1, std::memory_order_relaxed);
          txn.store(&x, vx + 1);
          txn.store(&y, vy + 1);
        });
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(x, uint64_t{kThreads} * kOps);
  EXPECT_EQ(y, uint64_t{kThreads} * kOps);
  if (GetParam() == ClockPolicy::kGv5) {
    EXPECT_EQ(aggregate_stats().clock_bumps, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ClockPolicyTest,
    ::testing::Values(ClockPolicy::kGv1, ClockPolicy::kGv5),
    [](const ::testing::TestParamInfo<ClockPolicy>& info) {
      return std::string(to_string(info.param));
    });

#if defined(DC_SCHED)

// Invariant-pair stress on fixed static words (stable orec indices across
// runs): x and y move together, a churn array adds unrelated writers, and
// read-only blocks audit x == y. Every op retries to commit, so the final
// state is a pure function of the operation streams.
struct PairState {
  uint64_t x = 0;
  uint64_t y = 0;
  uint64_t churn[512] = {};
  uint64_t mismatches = 0;
};

void pair_op(PairState& st, util::Xoshiro256& rng) {
  const uint64_t dice = rng.next_below(10);
  if (dice < 5) {
    atomic([&](Txn& t) {
      const uint64_t vx = t.load(&st.x);
      const uint64_t vy = t.load(&st.y);
      if (vx != vy) ++st.mismatches;
      t.store(&st.x, vx + 1);
      t.store(&st.y, vy + 1);
    });
  } else if (dice < 8) {
    const uint64_t i = rng.next_below(512);
    atomic([&](Txn& t) { t.store(&st.churn[i], t.load(&st.churn[i]) + 1); });
  } else {
    atomic([&](Txn& t) {
      if (t.load(&st.x) != t.load(&st.y)) ++st.mismatches;
    });
  }
}

TEST(ClockPolicyScheduled, Gv1AndGv5AdmitIdenticalEffects) {
  // Same operation streams under both clocks: schedules differ (checkpoint
  // sequences depend on the abort pattern), admitted effects must not.
  static PairState st;
  const Config saved = config();
  uint64_t x[2] = {};
  const ClockPolicy clocks[2] = {ClockPolicy::kGv1, ClockPolicy::kGv5};
  for (int c = 0; c < 2; ++c) {
    SCOPED_TRACE(to_string(clocks[c]));
    config() = saved;
    config().clock_policy = clocks[c];
    reset_stats();
    reset_storm_sites();
    st = PairState{};
    std::vector<std::function<void()>> bodies;
    for (uint64_t t = 0; t < 3; ++t) {
      bodies.push_back([t] {
        util::Xoshiro256 rng(5 * 1000003 + t * 7919 + 101);
        for (int op = 0; op < 25; ++op) pair_op(st, rng);
      });
    }
    sched::Options o;
    o.seed = 5;
    o.policy = sched::Policy::kPct;
    o.name = "clock_differential";
    schedtest::run_scheduled(std::move(o), std::move(bodies));
    EXPECT_EQ(st.mismatches, 0u);
    EXPECT_EQ(st.x, st.y);
    x[c] = st.x;
  }
  EXPECT_EQ(x[0], x[1]) << "clock policy changed the admitted effects";
  config() = saved;
  reset_storm_sites();
}

#endif  // DC_SCHED

}  // namespace
}  // namespace dc::htm
