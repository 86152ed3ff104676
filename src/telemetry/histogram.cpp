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
  // Unreachable when count equals the bucket total; tolerate a torn
  // concurrent snapshot by reporting the largest representable bound.
  return histogram_bucket_upper(kNumHistogramBuckets - 1);
}

std::uint64_t HistogramSnapshot::max_bound() const noexcept {
  for (std::size_t i = kNumHistogramBuckets; i-- > 0;) {
    if (buckets[i] != 0) return histogram_bucket_upper(i);
  }
  return 0;
}

GlobalHistograms& histograms() noexcept {
  static GlobalHistograms* instance = new GlobalHistograms();  // never destroyed
  return *instance;
}

void append_histogram_series(std::string* out, const std::string& family,
                             const std::string& labels,
                             const HistogramSnapshot& s) {
  std::ostringstream os;
  const std::string prefix = labels.empty() ? "{" : "{" + labels + ",";
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kNumHistogramBuckets; ++i) {
    if (s.buckets[i] == 0) continue;
    cumulative += s.buckets[i];
    os << family << "_bucket" << prefix << "le=\""
       << histogram_bucket_upper(i) << "\"} " << cumulative << '\n';
  }
  os << family << "_bucket" << prefix << "le=\"+Inf\"} " << s.count << '\n';
  os << family << "_sum" << (labels.empty() ? "" : "{" + labels + "}") << ' '
     << s.sum << '\n';
  os << family << "_count" << (labels.empty() ? "" : "{" + labels + "}") << ' '
     << s.count << '\n';
  *out += os.str();
}

std::string histogram_prometheus_text(const GlobalHistograms& g) {
  std::string out;
  out +=
      "# HELP bddmin_job_latency_ns Per-job wall latency by outcome class\n"
      "# TYPE bddmin_job_latency_ns histogram\n";
  for (std::size_t o = 0; o < kNumOutcomeClasses; ++o) {
    const HistogramSnapshot s = g.job_latency(o).snapshot();
    if (s.count == 0) continue;  // skip empty labelled series
    append_histogram_series(&out, "bddmin_job_latency_ns",
                            std::string("status=\"") + kOutcomeLabels[o] + '"',
                            s);
  }
  const auto plain = [&out](const char* family, const char* help,
                            const HistogramSnapshot& s) {
    out += "# HELP ";
    out += family;
    out += ' ';
    out += help;
    out += "\n# TYPE ";
    out += family;
    out += " histogram\n";
    append_histogram_series(&out, family, "", s);
  };
  plain("bddmin_job_steps", "Governor steps charged per batch job",
        g.job_steps().snapshot());
  plain("bddmin_steal_search_ns",
        "Worker steal-search latency after missing its own deque",
        g.steal_search_ns().snapshot());
  plain("bddmin_queue_depth", "Sampled total run-queue depth",
        g.queue_depth().snapshot());
  plain("bddmin_shard_jobs", "Jobs packed per scheduler shard",
        g.shard_jobs().snapshot());
  plain("bddmin_shard_cost", "Estimated cost units per scheduler shard",
        g.shard_cost().snapshot());
  return out;
}

}  // namespace bddmin::telemetry
