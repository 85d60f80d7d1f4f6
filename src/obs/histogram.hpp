// Log-bucketed latency histograms (HDR-style).
//
// Values (CPU cycles; callers convert to ns at report time) are bucketed by
// order of magnitude with kSubBits linear sub-buckets per octave, so the
// relative quantile error is bounded by 2^-kSubBits ≈ 6% across the whole
// range — the shape needed to report p50/p90/p99/max of distributions whose
// tails span several orders of magnitude (the paper's §5.1 update-latency
// claims are exactly such distributional facts).
//
// Recording is a bucket-index computation and one increment; no allocation,
// no locking. Per-operation recorders are thread-local.
//
// Concurrency contract (tightened for the continuous-telemetry sampler,
// obs/timeline.hpp): every cell is a util::RelaxedCounter — written only by
// the recorder's owning thread, readable by any thread at any time with
// relaxed loads. That makes aggregate_histogram() and snapshots safe while
// recorders are HOT: a concurrent reader sees each bucket's value at some
// recent instant (bucket counts are monotonic between resets), though the
// cross-cell view may be skewed by in-flight samples (count_ can briefly
// disagree with the bucket sum by the samples being recorded). Quantile
// queries tolerate that skew — percentile() falls back to max_ when the
// rank overruns the buckets — and interval_since() recomputes its count
// from the delta buckets, so window percentiles are internally consistent.
//
// reset() is the one remaining cross-thread WRITE and keeps the
// quiescent-only contract: zeroing another thread's hot recorder would race
// its unordered stores (a sample could straddle the wipe and resurrect a
// stale count). The registry-level reset_histograms() enforces this at
// runtime by refusing to run while the timeline sampler is live; samplers
// never reset — they difference monotonic snapshots via interval_since().
#pragma once

#include <bit>
#include <cstdint>

#include "obs/obs.hpp"
#include "util/cycles.hpp"
#include "util/relaxed.hpp"

namespace dc::obs {

class LogHistogram {
 public:
  static constexpr uint32_t kSubBits = 4;
  static constexpr uint32_t kSub = 1u << kSubBits;  // sub-buckets per octave
  // Highest representable exponent: values up to 2^44 cycles (~90 min at
  // 3 GHz) land in a real bucket; larger ones clamp into the last.
  static constexpr uint32_t kMaxExp = 44;
  static constexpr uint32_t kBuckets = (kMaxExp - kSubBits + 2) * kSub;

  void record(uint64_t v) noexcept {
    ++counts_[index_of(v)];
    ++count_;
    sum_ += v;
    if (v > max_) max_ = v;
    if (count_ == 1 || v < min_) min_ = v;
  }

  void merge(const LogHistogram& o) noexcept {
    for (uint32_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    if (o.count_ > 0) {
      if (count_ == 0 || o.min_ < min_) min_ = o.min_;
      if (o.max_ > max_) max_ = o.max_;
    }
    count_ += o.count_;
    sum_ += o.sum_;
  }

  // Owner-or-quiescent only — see the concurrency contract above.
  void reset() noexcept { *this = LogHistogram{}; }

  // The samples recorded since `prev` was copied from this (or an equal)
  // histogram — the tumbling-window primitive. Both operands are plain
  // value snapshots (LogHistogram copies relaxed-load every cell, so
  // copying a hot recorder is safe). The interval's count/sum/min/max are
  // recomputed from the delta buckets: count is exactly the bucket-sum
  // (internally consistent for percentile()), min/max are the containing
  // buckets' bounds (≈6% error, same as every other quantile). Subtraction
  // saturates at 0 so a racing reset degrades to an empty window instead
  // of underflowing.
  LogHistogram interval_since(const LogHistogram& prev) const noexcept {
    LogHistogram d;
    uint64_t total = 0;
    uint32_t lo = kBuckets;
    uint32_t hi = 0;
    for (uint32_t i = 0; i < kBuckets; ++i) {
      const uint64_t cur = counts_[i];
      const uint64_t old = prev.counts_[i];
      const uint64_t delta = cur > old ? cur - old : 0;
      if (delta == 0) continue;
      d.counts_[i] = delta;
      total += delta;
      if (i < lo) lo = i;
      hi = i;
    }
    d.count_ = total;
    if (total > 0) {
      const uint64_t cs = sum_;
      const uint64_t ps = prev.sum_;
      d.sum_ = cs > ps ? cs - ps : 0;
      d.min_ = bucket_low(lo);
      d.max_ = bucket_mid(hi);
    }
    return d;
  }

  uint64_t count() const noexcept { return count_; }
  uint64_t max() const noexcept { return max_; }
  uint64_t min() const noexcept { return count_ == 0 ? 0 : min_.load(); }
  double mean() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }

  // Value at or below which `p` (in [0,1]) of recorded values fall,
  // estimated as the midpoint of the containing bucket (exact max for
  // p = 1). 0 when empty.
  uint64_t percentile(double p) const noexcept {
    if (count_ == 0) return 0;
    if (p >= 1.0) return max_;
    if (p < 0.0) p = 0.0;
    // Rank of the target value, 1-based; ceil so p=0.5 of 2 values is the
    // first, matching the "at or below" reading.
    uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(count_));
    if (rank < 1) rank = 1;
    uint64_t seen = 0;
    for (uint32_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) return bucket_mid(i);
    }
    return max_;
  }

  // Bucketing scheme, exposed for tests: values below kSub map to
  // themselves; above, the top kSubBits+1 significant bits select the
  // bucket.
  static uint32_t index_of(uint64_t v) noexcept {
    if (v < kSub) return static_cast<uint32_t>(v);
    uint32_t e = static_cast<uint32_t>(std::bit_width(v)) - 1;
    if (e > kMaxExp) {
      e = kMaxExp;
      v = uint64_t{1} << kMaxExp;  // clamp into the last octave
    }
    const uint32_t sub =
        static_cast<uint32_t>((v >> (e - kSubBits)) & (kSub - 1));
    return (e - kSubBits + 1) * kSub + sub;
  }

  static uint64_t bucket_low(uint32_t idx) noexcept {
    if (idx < kSub) return idx;
    const uint32_t e = idx / kSub + kSubBits - 1;
    const uint32_t sub = idx % kSub;
    return (uint64_t{1} << e) + (static_cast<uint64_t>(sub) << (e - kSubBits));
  }

  static uint64_t bucket_mid(uint32_t idx) noexcept {
    if (idx < kSub) return idx;
    const uint32_t e = idx / kSub + kSubBits - 1;
    return bucket_low(idx) + (uint64_t{1} << (e - kSubBits)) / 2;
  }

 private:
  util::RelaxedCounter counts_[kBuckets] = {};
  util::RelaxedCounter count_ = 0;
  util::RelaxedCounter sum_ = 0;
  util::RelaxedCounter min_ = 0;
  util::RelaxedCounter max_ = 0;
};

// The operations the obs layer keeps per-operation latency histograms for.
// The first four are timed at driver level (whole DynamicCollect calls,
// including retries); kCommit is the Txn::commit duration of committing
// speculative attempts, and kValidate one read-set validation (commit-time
// or extension). Both DC_TRACE builds only.
enum class OpKind : uint8_t {
  kRegister = 0,
  kUpdate,
  kDeRegister,
  kCollect,
  kCommit,
  kValidate,
  kNumOps,
};

const char* to_string(OpKind op) noexcept;

// Records one latency sample (in cycles) into the calling thread's
// histogram for `op`. Callers gate on timing_enabled().
void record_op(OpKind op, uint64_t cycles) noexcept;

// Merged histogram for `op` across all threads (including exited ones)
// since the last reset. Safe while recorders are hot (see the concurrency
// contract at the top): the timeline sampler calls this every tick; the
// merged cross-cell view may be skewed by in-flight samples.
LogHistogram aggregate_histogram(OpKind op) noexcept;

// Zeroes all threads' histograms. Quiescent-only — a hot recorder's owner
// could resurrect pre-reset counts — and ENFORCED against the one
// background reader we own: aborts (with a message) if the timeline
// sampler is running. Samplers must difference snapshots via
// interval_since() instead of resetting.
void reset_histograms() noexcept;

// RAII sample: times its scope and records into `op` iff timing was enabled
// at construction. ~40 cycles of rdtsc overhead per timed scope.
class ScopedOpTimer {
 public:
  explicit ScopedOpTimer(OpKind op) noexcept
      : op_(op), start_(timing_enabled() ? util::rdcycles() : 0) {}
  ~ScopedOpTimer() {
    if (start_ != 0) record_op(op_, util::rdcycles() - start_);
  }
  ScopedOpTimer(const ScopedOpTimer&) = delete;
  ScopedOpTimer& operator=(const ScopedOpTimer&) = delete;

 private:
  OpKind op_;
  uint64_t start_;
};

}  // namespace dc::obs
