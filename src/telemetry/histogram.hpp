/// \file histogram.hpp
/// \brief Fixed-footprint log-bucketed latency/size histograms.
///
/// The counter layer (counters.hpp) answers "how much work happened";
/// it cannot answer "how was that work *distributed*" — and the batch
/// engine's scaling questions (ROADMAP item 1) are distribution
/// questions: p99 job latency, steal-search tail, queue-depth swings.
/// This header adds HDR-style histograms with:
///
///  * **log-linear buckets** — exact buckets for values < 2^kSubBits,
///    then kSub (= 2^kSubBits) sub-buckets per power of two, giving a
///    bounded relative error of 1/kSub (6.25%) over the full uint64
///    range in a fixed kNumBuckets-slot array.  No allocation, ever.
///  * **wait-free record()** — three relaxed fetch_adds (bucket, sum,
///    count).  Any thread may record concurrently; there is no ordering
///    to protect, only final sums (same contract as GlobalCounters).
///  * **lossless merge()** — bucket-wise addition, so per-batch
///    histograms fold into the process-global ones without resampling.
///  * **deterministic quantiles** — quantile(q) is a pure function of
///    the bucket counts (rank = ceil(q*count), walk, return the bucket's
///    upper bound), so identical recorded multisets yield identical
///    p50/p90/p99 regardless of recording order or thread count.
///  * **Prometheus exposition** — classic `_bucket`/`_sum`/`_count`
///    histogram families (cumulative `le` labels, only non-empty
///    boundaries plus `+Inf`), appended to `bddmin_cli stats`.
///
/// Compiled out by `-DBDDMIN_TELEMETRY=OFF` (BDDMIN_NO_TELEMETRY):
/// record() becomes an empty inline no-op and snapshots are all-zero,
/// so downstream consumers (reports, the bench JSON) compile
/// unconditionally.  The bucket arithmetic stays available in both
/// builds — it is pure and the tests pin its boundaries exactly.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>

namespace bddmin::telemetry {

#if defined(BDDMIN_NO_TELEMETRY)
inline constexpr bool kHistogramsEnabled = false;
#else
inline constexpr bool kHistogramsEnabled = true;
#endif

/// Sub-bucket resolution: 2^kSubBits sub-buckets per octave.
inline constexpr unsigned kHistogramSubBits = 4;
inline constexpr std::uint64_t kHistogramSub = 1ull << kHistogramSubBits;
/// Exact buckets [0, kSub) + kSub sub-buckets for each of the
/// (64 - kSubBits) remaining octave groups.
inline constexpr std::size_t kNumHistogramBuckets =
    (64 - kHistogramSubBits) * kHistogramSub + kHistogramSub;

/// Bucket index of \p v.  Values below kHistogramSub map exactly
/// (index == value); above, the top kSubBits bits after the leading one
/// select the sub-bucket.  Monotone in v.
[[nodiscard]] constexpr std::size_t histogram_bucket_index(
    std::uint64_t v) noexcept {
  if (v < kHistogramSub) return static_cast<std::size_t>(v);
  const unsigned msb = 63u - static_cast<unsigned>(std::countl_zero(v));
  const unsigned shift = msb - kHistogramSubBits;
  const std::uint64_t sub = (v >> shift) - kHistogramSub;
  return static_cast<std::size_t>((shift + 1) * kHistogramSub + sub);
}

/// Largest value mapping to bucket \p i (inclusive upper bound).  The
/// quantile extractor reports this bound, so quantiles over-estimate by
/// at most the bucket's relative width (1/kSub).
[[nodiscard]] constexpr std::uint64_t histogram_bucket_upper(
    std::size_t i) noexcept {
  if (i < kHistogramSub) return static_cast<std::uint64_t>(i);
  const unsigned shift = static_cast<unsigned>(i / kHistogramSub) - 1;
  const std::uint64_t sub = i % kHistogramSub;
  // Wraps to UINT64_MAX for the last bucket (2^64 - 1), which is exact.
  return ((kHistogramSub + sub + 1) << shift) - 1;
}

/// Value copy of one histogram: plain counts, mergeable, deterministic
/// quantile extraction.  Always a real struct (all zeros when telemetry
/// is compiled out).
struct HistogramSnapshot {
  std::array<std::uint64_t, kNumHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  /// Upper bound of the bucket holding the rank-ceil(q*count) value
  /// (q clamped to [0, 1]).  0 when the histogram is empty.  Pure
  /// function of the counts: independent of record order and threads.
  [[nodiscard]] std::uint64_t quantile(double q) const noexcept;
  /// Upper bound of the highest non-empty bucket (0 when empty).
  [[nodiscard]] std::uint64_t max_bound() const noexcept;
  /// sum / count (0 when empty).
  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }

  HistogramSnapshot& operator+=(const HistogramSnapshot& o) noexcept {
    for (std::size_t i = 0; i < kNumHistogramBuckets; ++i) {
      buckets[i] += o.buckets[i];
    }
    count += o.count;
    sum += o.sum;
    return *this;
  }
  [[nodiscard]] bool operator==(const HistogramSnapshot&) const noexcept =
      default;
};

#if defined(BDDMIN_NO_TELEMETRY)

/// Compiled-out histogram: record/merge are empty inline no-ops and the
/// snapshot is all zeros, so the instrumentation sites cost nothing.
class Histogram {
 public:
  void record(std::uint64_t) noexcept {}
  void merge(const HistogramSnapshot&) noexcept {}
  void reset() noexcept {}
  [[nodiscard]] HistogramSnapshot snapshot() const noexcept { return {}; }
};

#else

/// Concurrent fixed-footprint histogram.  Safe to record from any
/// thread; a snapshot concurrent with record() may observe a torn *set*
/// (sum without its bucket), acceptable for monitoring output — the
/// deterministic consumers (bench percentiles) snapshot after joining.
class Histogram {
 public:
  void record(std::uint64_t v) noexcept {
    buckets_[histogram_bucket_index(v)].fetch_add(1,
                                                  std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }
  /// Lossless bucket-wise addition of \p s into this histogram.
  void merge(const HistogramSnapshot& s) noexcept {
    for (std::size_t i = 0; i < kNumHistogramBuckets; ++i) {
      if (s.buckets[i] != 0) {
        buckets_[i].fetch_add(s.buckets[i], std::memory_order_relaxed);
      }
    }
    count_.fetch_add(s.count, std::memory_order_relaxed);
    sum_.fetch_add(s.sum, std::memory_order_relaxed);
  }
  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }
  [[nodiscard]] HistogramSnapshot snapshot() const noexcept {
    HistogramSnapshot s;
    for (std::size_t i = 0; i < kNumHistogramBuckets; ++i) {
      s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    s.count = count_.load(std::memory_order_relaxed);
    s.sum = sum_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kNumHistogramBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

#endif  // BDDMIN_NO_TELEMETRY

// ---- Well-known process-global histograms -------------------------------

/// Outcome classes of the job-latency family.  Mirrors
/// engine::JobStatus (telemetry keeps its own label table so the
/// dependency stays one-way; test_telemetry pins the two in sync).
inline constexpr std::size_t kNumOutcomeClasses = 5;
inline constexpr const char* kOutcomeLabels[kNumOutcomeClasses] = {
    "ok", "timeout", "cancelled", "error", "resource-limit"};

/// The process-wide histogram bank the batch engine records into
/// (analogous to GlobalCounters): per-job wall latency by outcome class,
/// per-job governor steps, steal-search latency and the
/// sampled run-queue depth.  Never destroyed.
class GlobalHistograms {
 public:
  /// Job latency (ns) for \p outcome (engine::JobStatus cast; clamped).
  [[nodiscard]] Histogram& job_latency(std::size_t outcome) noexcept {
    return job_latency_[std::min(outcome, kNumOutcomeClasses - 1)];
  }
  [[nodiscard]] const Histogram& job_latency(std::size_t outcome) const
      noexcept {
    return job_latency_[std::min(outcome, kNumOutcomeClasses - 1)];
  }
  /// Governor steps charged per job (deterministic per payload).
  [[nodiscard]] Histogram& job_steps() noexcept { return job_steps_; }
  [[nodiscard]] const Histogram& job_steps() const noexcept {
    return job_steps_;
  }
  /// Nanoseconds a worker spent hunting for work after missing its own
  /// deque (successful and failed steal sweeps alike).
  [[nodiscard]] Histogram& steal_search_ns() noexcept { return steal_search_; }
  [[nodiscard]] const Histogram& steal_search_ns() const noexcept {
    return steal_search_;
  }
  /// Sampled total run-queue depth (jobs waiting across all deques).
  [[nodiscard]] Histogram& queue_depth() noexcept { return queue_depth_; }
  [[nodiscard]] const Histogram& queue_depth() const noexcept {
    return queue_depth_;
  }
  /// Jobs packed into each shard by the batch engine's cost model.
  [[nodiscard]] Histogram& shard_jobs() noexcept { return shard_jobs_; }
  [[nodiscard]] const Histogram& shard_jobs() const noexcept {
    return shard_jobs_;
  }
  /// Estimated cost units per shard (see engine/shard.hpp).
  [[nodiscard]] Histogram& shard_cost() noexcept { return shard_cost_; }
  [[nodiscard]] const Histogram& shard_cost() const noexcept {
    return shard_cost_;
  }

  void reset() noexcept {
    for (Histogram& h : job_latency_) h.reset();
    job_steps_.reset();
    steal_search_.reset();
    queue_depth_.reset();
    shard_jobs_.reset();
    shard_cost_.reset();
  }

 private:
  Histogram job_latency_[kNumOutcomeClasses];
  Histogram job_steps_;
  Histogram steal_search_;
  Histogram queue_depth_;
  Histogram shard_jobs_;
  Histogram shard_cost_;
};

/// The process-global histogram bank (never destroyed).
[[nodiscard]] GlobalHistograms& histograms() noexcept;

/// Append one Prometheus histogram series (`_bucket`/`_sum`/`_count`)
/// for \p s under \p family with an optional `{label="..."}` set
/// (\p labels is the raw `key="value",...` body, empty for none).
/// Emits cumulative buckets only at boundaries where the count changes,
/// plus the mandatory `+Inf`.  The `# HELP`/`# TYPE` header is the
/// caller's job (labelled families share one header).
void append_histogram_series(std::string* out, const std::string& family,
                             const std::string& labels,
                             const HistogramSnapshot& s);

/// Prometheus text exposition of every well-known global histogram:
/// `bddmin_job_latency_ns{status=...}` (non-empty series
/// only), `bddmin_job_steps`, `bddmin_steal_search_ns`,
/// `bddmin_queue_depth` (always emitted, so scrapers see the families
/// even before the first batch).
[[nodiscard]] std::string histogram_prometheus_text(const GlobalHistograms& g);

}  // namespace bddmin::telemetry
