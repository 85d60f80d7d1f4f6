// Cause-aware retry policy (htm/retry.hpp): overflow escalates straight to
// the lock, spurious aborts retry immediately, conflicts back off, and
// sustained conflict storms flip the call-site into sticky serialized mode
// with hysteresis on the way out.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "htm/fault.hpp"
#include "htm/htm.hpp"

namespace dc::htm {
namespace {

class RetryPolicyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = config();
    fault::clear_script();
    reset_stats();
    reset_storm_sites();
    fault::reset_thread();
  }
  void TearDown() override {
    fault::clear_script();
    config() = saved_;
    reset_storm_sites();
  }
  Config saved_;
};

// Nothing parses the policy names any more: the options that took them went
// with the fixed retry policy and signature validation. The names remain
// for perfbench's `policies` meta line, which prints the configured ones.
TEST_F(RetryPolicyTest, ParseAndNames) {
  EXPECT_STREQ(to_string(RetryPolicy::kCauseAware), "cause");
  EXPECT_STREQ(to_string(config().retry_policy), "cause");
}

TEST(ValidationPolicyNames, ParseAndFormatRoundTrip) {
  EXPECT_STREQ(to_string(ValidationPolicy::kExact), "exact");
  EXPECT_STREQ(to_string(config().validation), "exact");
}

TEST_F(RetryPolicyTest, OverflowEscalatesAfterOneAbortUnderCauseAware) {
  // A body that overflows the store buffer is deterministic: re-executing
  // it speculatively can only overflow again. The cause-aware policy takes
  // the lock after the first overflow instead of burning the whole
  // tle_after_aborts budget.
  config().store_buffer_capacity = 2;
  config().tle_after_aborts = 64;
  std::vector<uint64_t> words(8, 0);
  atomic([&](Txn& txn) {
    for (auto& w : words) txn.store(&w, uint64_t{1});
  });
  for (const uint64_t w : words) EXPECT_EQ(w, 1u);
  const TxnStats s = aggregate_stats();
  EXPECT_EQ(s.aborts_by_code[static_cast<int>(AbortCode::kOverflow)], 1u);
  EXPECT_EQ(s.tle_entries, 1u);
  EXPECT_EQ(s.lock_fallbacks, 1u);
}

TEST_F(RetryPolicyTest, SpuriousAbortsRetrySpeculativelyWithoutEscalating) {
  // Three scripted transient faults, then a clean attempt: the cause-aware
  // policy must keep the block speculative (the budget is generous) and
  // never touch the lock.
  config().tle_after_aborts = 64;
  fault::set_script({
      {fault::kAnyThread, 0, 0, AbortCode::kInterrupt, 0},
      {fault::kAnyThread, 0, 1, AbortCode::kTlbMiss, 0},
      {fault::kAnyThread, 0, 2, AbortCode::kSaveRestore, 0},
  });
  fault::reset_thread();
  uint64_t word = 0;
  atomic([&](Txn& txn) { txn.store(&word, uint64_t{5}); });
  EXPECT_EQ(word, 5u);
  const TxnStats s = aggregate_stats();
  EXPECT_EQ(s.faults_injected, 3u);
  EXPECT_EQ(s.lock_fallbacks, 0u);
  EXPECT_EQ(s.tle_entries, 0u);
  EXPECT_EQ(s.commits, 1u);
  EXPECT_EQ(s.max_consec_aborts, 3u);
}

TEST_F(RetryPolicyTest, StormEntersStickySerializedModeAndRecovers) {
  config().tle_after_aborts = 1000;  // keep plain escalation out of the way
  config().storm_enter_score = 8;
  config().storm_exit_score = 2;
  int fail_remaining = 6;
  uint64_t word = 0;
  auto body = [&](Txn& txn) {
    txn.store(&word, txn.load(&word) + 1);
    if (fail_remaining > 0) {
      --fail_remaining;
      txn.abort(AbortCode::kConflict);
    }
  };
  // One call suffers 6 conflict aborts. Abort weight 2 crosses the enter
  // score of 8 on the 4th; the remaining attempts (and the final commit)
  // run under the lock.
  atomic(body);
  EXPECT_EQ(word, 1u);
  TxnStats s = aggregate_stats();
  EXPECT_EQ(s.storm_entries, 1u);
  EXPECT_EQ(s.storm_exits, 0u);
  EXPECT_GE(s.lock_fallbacks, 1u);
  EXPECT_EQ(storm_serialized_sites(), 1u);
  // Sticky: the next blocks at this site run serialized even though they
  // would commit first-try speculatively. Commits drain the score by 1
  // each; with the score at 8 after entry and exit at <= 2, the 6th commit
  // (the 7th block overall) leaves serialized mode.
  const uint64_t fallbacks_after_entry = s.lock_fallbacks;
  for (int i = 0; i < 10; ++i) atomic(body);
  EXPECT_EQ(word, 11u);
  s = aggregate_stats();
  EXPECT_EQ(s.storm_entries, 1u);
  EXPECT_EQ(s.storm_exits, 1u);
  EXPECT_EQ(storm_serialized_sites(), 0u);
  // Some of the 10 recovery blocks ran under the lock, but not all: the
  // site left serialized mode mid-sequence.
  const uint64_t recovery_fallbacks = s.lock_fallbacks - fallbacks_after_entry;
  EXPECT_GE(recovery_fallbacks, 1u);
  EXPECT_LT(recovery_fallbacks, 10u);
}

TEST_F(RetryPolicyTest, StormDetectionCanBeDisabled) {
  config().tle_after_aborts = 1000;
  config().storm_detection = false;
  config().storm_enter_score = 2;  // would trip instantly if enabled
  int fail_remaining = 8;
  uint64_t word = 0;
  atomic([&](Txn& txn) {
    txn.store(&word, txn.load(&word) + 1);
    if (fail_remaining > 0) {
      --fail_remaining;
      txn.abort(AbortCode::kConflict);
    }
  });
  EXPECT_EQ(word, 1u);
  const TxnStats s = aggregate_stats();
  EXPECT_EQ(s.storm_entries, 0u);
  EXPECT_EQ(s.lock_fallbacks, 0u);
  EXPECT_EQ(storm_serialized_sites(), 0u);
}

TEST_F(RetryPolicyTest, MaxConsecAbortsTracksTheWorstBlock) {
  config().tle_after_aborts = 0;  // never escalate; pure retry
  config().storm_detection = false;
  uint64_t word = 0;
  auto run_with_aborts = [&](int aborts) {
    int remaining = aborts;
    atomic([&](Txn& txn) {
      txn.store(&word, txn.load(&word) + 1);
      if (remaining > 0) {
        --remaining;
        txn.abort(AbortCode::kExplicit);
      }
    });
  };
  run_with_aborts(2);
  run_with_aborts(7);  // the high-water mark
  run_with_aborts(4);
  EXPECT_EQ(aggregate_stats().max_consec_aborts, 7u);
}

}  // namespace
}  // namespace dc::htm
