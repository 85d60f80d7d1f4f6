// A non-TxnAbort exception thrown by an atomic body must doom the attempt
// (orec locks released, buffered stores discarded) and propagate to the
// caller without retrying — and must leave the substrate healthy enough for
// the next transaction.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "htm/htm.hpp"

namespace dc::htm {
namespace {

class UserException : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = config();
    reset_stats();
    reset_storm_sites();
  }
  void TearDown() override {
    config() = saved_;
    reset_storm_sites();
  }
  Config saved_;
};

TEST_F(UserException, PropagatesWithoutCommittingOrRetrying) {
  uint64_t word = 0;
  int body_runs = 0;
  EXPECT_THROW(atomic([&](Txn& txn) {
                 ++body_runs;
                 txn.store(&word, uint64_t{99});
                 throw std::runtime_error("user bailout");
               }),
               std::runtime_error);
  EXPECT_EQ(body_runs, 1) << "a user exception must not be retried";
  EXPECT_EQ(word, 0u) << "buffered stores must be discarded";
  EXPECT_EQ(aggregate_stats().commits, 0u);
}

TEST_F(UserException, SubstrateStaysUsableAfterUnwind) {
  // The doomed attempt held the orec commit locks at no point (lazy
  // versioning), but the unwind path still must leave no locked orecs and
  // no held TLE lock: a fresh transaction on the same words must commit.
  uint64_t word = 0;
  EXPECT_THROW(atomic([&](Txn& txn) {
                 txn.store(&word, uint64_t{1});
                 throw std::runtime_error("boom");
               }),
               std::runtime_error);
  atomic([&](Txn& txn) { txn.store(&word, txn.load(&word) + 5); });
  EXPECT_EQ(word, 5u);
}

TEST_F(UserException, LockModeUnwindReleasesTheFallbackLock) {
  config().serialize_all = true;
  uint64_t word = 0;
  EXPECT_THROW(atomic([&](Txn& txn) {
                 txn.store(&word, uint64_t{1});
                 throw std::runtime_error("boom under lock");
               }),
               std::runtime_error);
  EXPECT_EQ(word, 0u) << "lock-mode stores drain through the same doom path";
  // Deadlock check: the TLE lock must have been released by the unwind.
  atomic([&](Txn& txn) { txn.store(&word, uint64_t{2}); });
  EXPECT_EQ(word, 2u);
}

TEST_F(UserException, TryOncePropagatesAndDooms) {
  // Speculative, then under serialize_all, where the controller hands the
  // one attempt the fallback lock.
  for (const bool serialize : {false, true}) {
    SCOPED_TRACE(serialize ? "serialize_all" : "speculative");
    config().serialize_all = serialize;
    uint64_t word = 0;
    EXPECT_THROW(try_once([&](Txn& txn) {
                   txn.store(&word, uint64_t{1});
                   throw std::logic_error("boom");
                 }),
                 std::logic_error);
    EXPECT_EQ(word, 0u);
    EXPECT_EQ(nontxn_load(detail::tle_lock_word()), 0u)
        << "the user exception must leave the fallback lock free";
    const uint64_t fallbacks = aggregate_stats().lock_fallbacks;
    const TryResult r =
        try_once([&](Txn& txn) { txn.store(&word, uint64_t{3}); });
    EXPECT_TRUE(r.committed);
    EXPECT_EQ(word, 3u);
    EXPECT_EQ(aggregate_stats().lock_fallbacks - fallbacks, serialize ? 1u : 0u)
        << "the commit runs under the lock exactly when serialize_all is set";
    EXPECT_EQ(aggregate_stats().tle_entries, 0u)
        << "serialize_all is not an escalation";
  }
}

TEST_F(UserException, TxnAbortIsNotTreatedAsUserError) {
  // txn.abort() must keep flowing to the retry loop, not the doom path: the
  // block retries and eventually commits.
  uint64_t word = 0;
  int remaining = 2;
  atomic([&](Txn& txn) {
    txn.store(&word, txn.load(&word) + 1);
    if (remaining > 0) {
      --remaining;
      txn.abort(AbortCode::kExplicit);
    }
  });
  EXPECT_EQ(word, 1u);
  EXPECT_EQ(aggregate_stats().commits, 1u);
  EXPECT_EQ(aggregate_stats()
                .aborts_by_code[static_cast<int>(AbortCode::kExplicit)],
            2u);
}

}  // namespace
}  // namespace dc::htm
