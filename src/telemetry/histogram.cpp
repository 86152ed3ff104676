#include "telemetry/histogram.hpp"

#include <cmath>
#include <sstream>

namespace bddmin::telemetry {

std::uint64_t HistogramSnapshot::quantile(double q) const noexcept {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // 1-based rank of the requested order statistic; ceil so that q = 0.5
  // over two samples picks the first, matching "nearest-rank" quantiles.
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count)));
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kNumHistogramBuckets; ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) return histogram_bucket_upper(i);
  }
  // Unreachable while count equals the bucket total.
  return histogram_bucket_upper(kNumHistogramBuckets - 1);
}

std::uint64_t HistogramSnapshot::max_bound() const noexcept {
  for (std::size_t i = kNumHistogramBuckets; i-- > 0;) {
    if (buckets[i] != 0) return histogram_bucket_upper(i);
  }
  return 0;
}

void append_histogram_family(std::string* out, const char* family,
                             const char* help, const HistogramSnapshot& s) {
  std::ostringstream os;
  os << "# HELP " << family << ' ' << help << "\n# TYPE " << family
     << " histogram\n";
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kNumHistogramBuckets; ++i) {
    if (s.buckets[i] == 0) continue;
    cumulative += s.buckets[i];
    os << family << "_bucket{le=\"" << histogram_bucket_upper(i) << "\"} "
       << cumulative << '\n';
  }
  os << family << "_bucket{le=\"+Inf\"} " << s.count << '\n';
  os << family << "_sum " << s.sum << '\n';
  os << family << "_count " << s.count << '\n';
  *out += os.str();
}

}  // namespace bddmin::telemetry
