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
///  * **single-writer record()** — plain increments (bucket, sum,
///    count).  A histogram has one owner; concurrent producers each
///    record into their own and the owner merges after joining them.
///  * **lossless merge** — bucket-wise addition (`+=`), so per-worker
///    histograms fold into the batch's without resampling.
///  * **deterministic quantiles** — quantile(q) is a pure function of
///    the bucket counts (rank = ceil(q*count), walk, return the bucket's
///    upper bound), so identical recorded multisets yield identical
///    p50/p90/p99 regardless of recording order or thread count.
///  * **Prometheus exposition** — classic `_bucket`/`_sum`/`_count`
///    histogram families (cumulative `le` labels, only non-empty
///    boundaries plus `+Inf`), rendered by `bddmin_cli stats`.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <string>

namespace bddmin::telemetry {

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

/// One histogram as plain counts: single-writer record(), lossless
/// merge, deterministic quantile extraction.
struct HistogramSnapshot {
  std::array<std::uint64_t, kNumHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  void record(std::uint64_t v) noexcept {
    ++buckets[histogram_bucket_index(v)];
    ++count;
    sum += v;
  }

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

/// The accumulator spelling of HistogramSnapshot: merge() folds a
/// snapshot in, snapshot() copies the sum out.
struct Histogram : HistogramSnapshot {
  void merge(const HistogramSnapshot& s) noexcept { *this += s; }
  [[nodiscard]] HistogramSnapshot snapshot() const noexcept { return *this; }
};

/// Append one Prometheus histogram family for \p s: the `# HELP` and
/// `# TYPE` header, then cumulative `_bucket` samples only at boundaries
/// where the count changes, the mandatory `le="+Inf"` bucket, `_sum` and
/// `_count`.
void append_histogram_family(std::string* out, const char* family,
                             const char* help, const HistogramSnapshot& s);

}  // namespace bddmin::telemetry
