// Transactional Lock Elision fallback (paper §6): when transactions fail
// repeatedly, the block runs under a global lock, preserving atomicity.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "htm/htm.hpp"

namespace dc::htm {
namespace {

class Tle : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = config(); }
  void TearDown() override { config() = saved_; }
  Config saved_;
};

TEST_F(Tle, OverflowingBlockCompletesViaLock) {
  // A block that always overflows the store buffer can never commit
  // speculatively; with TLE it must still complete.
  config().store_buffer_capacity = 4;
  config().tle_after_aborts = 3;
  std::vector<uint64_t> words(16, 0);
  atomic([&](Txn& txn) {
    for (auto& w : words) txn.store(&w, uint64_t{1});
  });
  for (const uint64_t w : words) EXPECT_EQ(w, 1u);
  EXPECT_GE(aggregate_stats().lock_fallbacks, 1u);
}

TEST_F(Tle, LockFallbackRecordsAborts) {
  // Explicit aborts back off and count toward the threshold (overflows
  // would escalate after one; see retry_policy_test), so a body that
  // aborts every speculative attempt burns exactly tle_after_aborts of
  // them, then completes in one lock-mode attempt.
  config().tle_after_aborts = 5;
  reset_stats();
  reset_storm_sites();
  std::vector<uint64_t> words(8, 0);
  atomic([&](Txn& txn) {
    for (auto& w : words) txn.store(&w, uint64_t{2});
    if (!txn.in_lock_mode()) txn.abort(AbortCode::kExplicit);
  });
  for (const uint64_t w : words) EXPECT_EQ(w, 2u);
  const TxnStats s = aggregate_stats();
  EXPECT_EQ(s.aborts_by_code[static_cast<int>(AbortCode::kExplicit)], 5u);
  EXPECT_EQ(s.aborts, 5u);
  EXPECT_EQ(s.tle_entries, 1u);
  EXPECT_EQ(s.lock_fallbacks, 1u);
}

TEST_F(Tle, AtomicityPreservedAcrossLockAndSpeculativePaths) {
  // Mix: some threads run small (speculative) increments, others run
  // blocks that exceed the store buffer and must take the lock. The
  // counter total must still be exact — lock-mode and speculative
  // executions must be mutually atomic.
  config().store_buffer_capacity = 4;
  config().tle_after_aborts = 2;
  uint64_t counter = 0;
  std::vector<uint64_t> wide(8, 0);
  constexpr int kSmallOps = 2000;
  constexpr int kWideOps = 300;
  std::thread small_thread([&] {
    for (int i = 0; i < kSmallOps; ++i) {
      atomic([&](Txn& txn) { txn.store(&counter, txn.load(&counter) + 1); });
    }
  });
  std::thread wide_thread([&] {
    for (int i = 0; i < kWideOps; ++i) {
      atomic([&](Txn& txn) {
        // Exceeds the 4-entry store buffer: 8 stores + the counter.
        const uint64_t c = txn.load(&counter);
        for (auto& w : wide) txn.store(&w, c);
        txn.store(&counter, c + 1);
      });
    }
  });
  small_thread.join();
  wide_thread.join();
  EXPECT_EQ(counter, uint64_t{kSmallOps} + kWideOps);
  // All wide words carry the same snapshot value (written atomically).
  for (const uint64_t w : wide) EXPECT_EQ(w, wide[0]);
}

TEST_F(Tle, ReadersNeverSeePartialLockModeWrites) {
  config().store_buffer_capacity = 4;
  config().tle_after_aborts = 1;
  uint64_t x = 0, y = 0;
  std::vector<uint64_t> filler(8, 0);
  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  std::thread writer([&] {
    uint64_t v = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ++v;
      atomic([&](Txn& txn) {
        txn.store(&x, v);
        for (auto& f : filler) txn.store(&f, v);  // forces lock fallback
        txn.store(&y, v);
      });
    }
  });
  for (int i = 0; i < 10000; ++i) {
    atomic([&](Txn& txn) {
      const uint64_t a = txn.load(&x);
      const uint64_t b = txn.load(&y);
      if (a != b) torn.store(true);
    });
  }
  stop.store(true);
  writer.join();
  EXPECT_FALSE(torn.load());
}

TEST_F(Tle, DisabledTleNeverTakesLock) {
  config().tle_after_aborts = 0;
  reset_stats();
  uint64_t x = 0;
  for (int i = 0; i < 100; ++i) {
    atomic([&](Txn& txn) { txn.store(&x, txn.load(&x) + 1); });
  }
  EXPECT_EQ(aggregate_stats().lock_fallbacks, 0u);
}

TEST_F(Tle, LockModeCommitCatchesInterveningStrongAtomicityStore) {
  // The TLE lock keeps transactions out but not nontxn_cas: a lock-mode
  // read-modify-write whose read word is CASed before commit must retry
  // instead of overwriting the CAS (a lost update).
  config().serialize_all = true;  // every attempt runs in lock mode
  uint64_t counter = 5;
  int attempts = 0;
  atomic([&](Txn& txn) {
    ++attempts;
    const uint64_t v = txn.load(&counter);
    if (attempts == 1) {
      EXPECT_TRUE(nontxn_cas(&counter, uint64_t{5}, uint64_t{6}));
    }
    txn.store(&counter, v + 1);
  });
  EXPECT_EQ(counter, 7u);
  EXPECT_EQ(attempts, 2);
}

TEST_F(Tle, ExplicitAbortUnderLockRetries) {
  config().tle_after_aborts = 1;
  config().store_buffer_capacity = 1;
  int calls = 0;
  uint64_t a = 0, b = 0;
  atomic([&](Txn& txn) {
    ++calls;
    txn.store(&a, uint64_t{1});
    txn.store(&b, uint64_t{1});  // overflows (capacity 1) when speculative
    if (calls < 4) txn.abort(AbortCode::kExplicit);  // also abort under lock
  });
  EXPECT_GE(calls, 4);
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 1u);
}

}  // namespace
}  // namespace dc::htm
