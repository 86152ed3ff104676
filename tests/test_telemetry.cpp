/// \file test_telemetry.cpp
/// \brief Telemetry subsystem: counter semantics against known workloads,
/// per-phase profiles, the counter CSV columns' thread-count determinism,
/// and the Prometheus exposition.
#include "telemetry/counters.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <random>
#include <sstream>

#include "analysis/audit.hpp"
#include "analysis/mutate.hpp"
#include "bdd/bdd.hpp"
#include "bdd/ops.hpp"
#include "engine/engine.hpp"
#include "engine/shard.hpp"
#include "minimize/registry.hpp"
#include "minimize/sibling.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/profile.hpp"
#include "workload/instances.hpp"

namespace bddmin::telemetry {
namespace {

using Counter = telemetry::Counter;

TEST(Counters, SnapshotArithmetic) {
  CounterSnapshot a;
  a.values[static_cast<std::size_t>(Counter::kIteCacheHits)] = 5;
  a.values[static_cast<std::size_t>(Counter::kUserCacheHits)] = 2;
  a.values[static_cast<std::size_t>(Counter::kIteCacheMisses)] = 7;
  CounterSnapshot b = a;
  b.values[static_cast<std::size_t>(Counter::kIteCacheHits)] = 11;
  EXPECT_EQ(a.total_cache_hits(), 7u);
  EXPECT_EQ(a.total_cache_misses(), 7u);
  const CounterSnapshot d = b - a;
  EXPECT_EQ(d.value(Counter::kIteCacheHits), 6u);
  EXPECT_EQ(d.value(Counter::kUserCacheHits), 0u);
  CounterSnapshot sum = a;
  sum += d;
  EXPECT_EQ(sum, b);
}

TEST(Counters, RepeatedIteIsExactlyOneCacheHit) {
  Manager mgr(4);
  const Edge a = mgr.var_edge(0);
  const Edge b = mgr.var_edge(1);
  const Edge c = mgr.var_edge(2);
  (void)mgr.ite(a, b, c);  // populate the cache
  const CounterSnapshot before = mgr.telemetry();
  (void)mgr.ite(a, b, c);  // identical call: resolved at the top level
  const CounterSnapshot delta = mgr.telemetry() - before;
  EXPECT_EQ(delta.value(Counter::kIteCacheHits), 1u);
  EXPECT_EQ(delta.value(Counter::kIteCacheMisses), 0u);
  EXPECT_EQ(delta.value(Counter::kUniqueInserts), 0u);
  EXPECT_EQ(delta.value(Counter::kUniqueHits), 0u);

  (void)mgr.and_(a, c);
  const CounterSnapshot before_and = mgr.telemetry();
  (void)mgr.and_(a, c);  // identical AND: served from the computed cache
  const CounterSnapshot and_delta = mgr.telemetry() - before_and;
  EXPECT_EQ(and_delta.value(Counter::kAndCacheMisses), 0u);
}

TEST(Counters, UniqueTableInsertThenHit) {
  Manager mgr(4);
  const Edge v1 = mgr.var_edge(1);
  const CounterSnapshot s0 = mgr.telemetry();
  const Edge n1 = mgr.make_node(0, v1, kZero);
  const CounterSnapshot after_insert = mgr.telemetry() - s0;
  EXPECT_EQ(after_insert.value(Counter::kUniqueInserts), 1u);
  EXPECT_EQ(after_insert.value(Counter::kUniqueHits), 0u);
  const CounterSnapshot s1 = mgr.telemetry();
  const Edge n2 = mgr.make_node(0, v1, kZero);  // same triple: chain hit
  const CounterSnapshot after_hit = mgr.telemetry() - s1;
  EXPECT_EQ(n1, n2);
  EXPECT_EQ(after_hit.value(Counter::kUniqueInserts), 0u);
  EXPECT_EQ(after_hit.value(Counter::kUniqueHits), 1u);
}

TEST(Counters, GcRunsAndReclaimedMatchReturnValue) {
  Manager mgr(8);
  // Unpinned intermediate results become dead nodes.
  Edge f = mgr.var_edge(0);
  for (unsigned v = 1; v < 8; ++v) f = mgr.xor_(f, mgr.var_edge(v));
  const CounterSnapshot before = mgr.telemetry();
  const std::size_t freed = mgr.garbage_collect();
  const CounterSnapshot delta = mgr.telemetry() - before;
  EXPECT_GT(freed, 0u);
  EXPECT_EQ(delta.value(Counter::kGcRuns), 1u);
  EXPECT_EQ(delta.value(Counter::kGcNodesReclaimed), freed);
}

TEST(Counters, SiftSwapsAreCounted) {
  Manager mgr(8);
  // An interleaved conjunction of pair-ANDs whose optimal order differs
  // from the initial one, so sifting has swaps to perform.
  Edge f = kOne;
  for (unsigned k = 0; k < 4; ++k) {
    f = mgr.and_(f, mgr.and_(mgr.var_edge(k), mgr.var_edge(7 - k)));
  }
  const Bdd pin(mgr, f);
  const CounterSnapshot before = mgr.telemetry();
  (void)mgr.reorder_sift();
  const CounterSnapshot delta = mgr.telemetry() - before;
  EXPECT_GT(delta.value(Counter::kSiftSwaps), 0u);
}

TEST(Counters, GovernorStepsMeterWithoutAnInstalledLimit) {
  Manager mgr(8);
  const CounterSnapshot before = mgr.telemetry();
  Edge f = mgr.var_edge(0);
  for (unsigned v = 1; v < 8; ++v) f = mgr.xor_(f, mgr.var_edge(v));
  const CounterSnapshot delta = mgr.telemetry() - before;
  // No limits installed: steps_used() stays 0, yet the counter meters.
  EXPECT_EQ(mgr.governor().steps_used(), 0u);
  EXPECT_GT(delta.value(Counter::kGovernorSteps), 0u);
}

TEST(Counters, GovernorStepsAgreeWithStepsUsedUnderALimit) {
  Manager mgr(8);
  ResourceLimits limits;
  limits.step_limit = 1'000'000;  // high enough to never trip
  mgr.governor().set_limits(limits);
  const std::uint64_t steps0 = mgr.governor().steps_used();
  const CounterSnapshot before = mgr.telemetry();
  Edge f = mgr.var_edge(0);
  for (unsigned v = 1; v < 8; ++v) f = mgr.xor_(f, mgr.var_edge(v));
  const CounterSnapshot delta = mgr.telemetry() - before;
  EXPECT_EQ(delta.value(Counter::kGovernorSteps),
            mgr.governor().steps_used() - steps0);
  EXPECT_GT(delta.value(Counter::kGovernorSteps), 0u);
  mgr.governor().clear();
}

TEST(Profile, CollectorSplitsStepsAcrossPhases) {
  Manager mgr(8);
  std::mt19937_64 rng(7);
  const minimize::IncSpec spec = workload::random_instance(mgr, 8, 0.4, rng);
  const Bdd f_pin(mgr, spec.f);
  const Bdd c_pin(mgr, spec.c);
  const CounterSnapshot before = mgr.telemetry();
  PhaseProfile profile;
  {
    const ProfileCollector collect(mgr, &profile);
    (void)minimize::osm_td(mgr, spec.f, spec.c);
  }
  const CounterSnapshot delta = mgr.telemetry() - before;
  // Every governor step lands in exactly one phase.
  EXPECT_EQ(profile.total_steps(), delta.value(Counter::kGovernorSteps));
  // The osm criterion runs ITEs inside matches() → matching work exists,
  // and the traversal itself builds the result → cover-build work exists.
  EXPECT_GT(profile[Phase::kMatching].cache_misses +
                profile[Phase::kMatching].cache_hits,
            0u);
  EXPECT_GT(profile[Phase::kCoverBuild].steps, 0u);
  EXPECT_EQ(profile[Phase::kValidation].steps, 0u);
}

TEST(Profile, WithProfileWrapperAccumulates) {
  Manager mgr(8);
  std::mt19937_64 rng(11);
  const minimize::IncSpec spec = workload::random_instance(mgr, 8, 0.4, rng);
  const Bdd f_pin(mgr, spec.f);
  const Bdd c_pin(mgr, spec.c);
  PhaseProfile profile;
  const minimize::Heuristic h = minimize::with_profile(
      {"osm_td",
       [](Manager& m, Edge f, Edge c) { return minimize::osm_td(m, f, c); }},
      &profile);
  (void)h.run(mgr, spec.f, spec.c);
  const std::uint64_t first = profile.total_steps();
  EXPECT_GT(first, 0u);
  mgr.garbage_collect();  // flush caches so the rerun repeats the work
  (void)h.run(mgr, spec.f, spec.c);
  EXPECT_GT(profile.total_steps(), first);  // calls accumulate
}

TEST(Engine, CounterColumnsAreByteIdenticalAcrossThreadCounts) {
  const std::vector<engine::Job> jobs = engine::random_jobs(12, 7, 0.3, 42);
  std::string baseline;
  for (const unsigned threads : {1u, 2u, 8u}) {
    engine::EngineOptions opts;
    opts.num_threads = threads;
    const engine::BatchReport report = engine::run_batch(jobs, opts);
    EXPECT_EQ(report.count(engine::JobStatus::kOk), jobs.size());
    const std::string csv =
        engine::report_csv(report, /*include_timings=*/false,
                           /*include_counters=*/true);
    if (baseline.empty()) {
      baseline = csv;
      EXPECT_NE(csv.find(",ut_inserts,ut_hits,cache_hits,cache_misses,"
                         "gc_runs,gc_reclaimed,steps"),
                std::string::npos);
      EXPECT_NE(csv.find(",steps_match_const,steps_build_const,"
                         "steps_valid_const"),
                std::string::npos);
    } else {
      EXPECT_EQ(csv, baseline) << "thread count " << threads;
    }
  }
}

TEST(Audit, TelemetryCrossCheckBalancesOnABusyManager) {
  Manager mgr(8);
  std::mt19937_64 rng(5);
  const minimize::IncSpec spec = workload::random_instance(mgr, 8, 0.4, rng);
  const Bdd f_pin(mgr, spec.f);
  const Bdd c_pin(mgr, spec.c);
  const Bdd g_pin(mgr, minimize::osm_td(mgr, spec.f, spec.c));
  mgr.garbage_collect();
  (void)mgr.reorder_sift();
  const analysis::AuditReport report = analysis::audit_manager(mgr);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Audit, TelemetryCrossCheckDetectsAnUnlinkedNode) {
  Manager mgr(8);
  const Bdd pin(mgr, mgr.and_(mgr.var_edge(0),
                              mgr.or_(mgr.var_edge(1), mgr.var_edge(2))));
  const analysis::MutationResult injected =
      analysis::inject(mgr, analysis::Mutation::kSubtableUnlink);
  ASSERT_TRUE(injected.applied);
  const analysis::AuditReport report = analysis::audit_manager(mgr);
  EXPECT_TRUE(report.has(analysis::Category::kAccounting));
  bool telemetry_finding = false;
  for (const auto& finding : report.findings) {
    if (finding.message.find("telemetry") != std::string::npos) {
      telemetry_finding = true;
    }
  }
  EXPECT_TRUE(telemetry_finding) << report.summary();
}

TEST(Prometheus, ExpositionListsEveryFamily) {
  CounterSnapshot s;
  s.values[static_cast<std::size_t>(Counter::kUniqueInserts)] = 3;
  const std::string text = prometheus_text(s);
  for (const char* needle :
       {"bddmin_unique_inserts_total 3", "bddmin_unique_hits_total",
        "bddmin_cache_lookups_total{op=\"ite\",outcome=\"hit\"}",
        "bddmin_cache_lookups_total{op=\"quantify\",outcome=\"miss\"}",
        "bddmin_gc_runs_total", "bddmin_gc_nodes_reclaimed_total",
        "bddmin_reorder_nodes_freed_total", "bddmin_sift_swaps_total",
        "bddmin_governor_steps_total", "# HELP", "# TYPE"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

// ---- Histogram layer ----------------------------------------------------

TEST(Histogram, BucketBoundariesAreExactBelowSubAndMonotoneAbove) {
  // Values below kHistogramSub land in exact buckets: index == value,
  // upper bound == value.
  for (std::uint64_t v = 0; v < kHistogramSub; ++v) {
    EXPECT_EQ(histogram_bucket_index(v), v);
    EXPECT_EQ(histogram_bucket_upper(v), v);
  }
  // First log-linear bucket: [16, 16] (one sub-bucket per value still).
  EXPECT_EQ(histogram_bucket_index(16), 16u);
  EXPECT_EQ(histogram_bucket_upper(16), 16u);
  // A power-of-two boundary: 2^10 starts a fresh octave whose 16
  // sub-buckets are 64 wide.
  const std::size_t k1024 = histogram_bucket_index(1024);
  EXPECT_EQ(histogram_bucket_index(1023) + 1, k1024);
  EXPECT_EQ(histogram_bucket_upper(k1024), 1024u + 63u);
  EXPECT_EQ(histogram_bucket_index(1024 + 63), k1024);
  EXPECT_EQ(histogram_bucket_index(1024 + 64), k1024 + 1);
  // Every bucket's upper bound maps back to the bucket, the next value
  // maps one past it, and the bounds are strictly increasing.
  for (std::size_t i = 0; i + 1 < kNumHistogramBuckets; ++i) {
    const std::uint64_t upper = histogram_bucket_upper(i);
    EXPECT_EQ(histogram_bucket_index(upper), i) << "bucket " << i;
    EXPECT_EQ(histogram_bucket_index(upper + 1), i + 1) << "bucket " << i;
    EXPECT_LT(upper, histogram_bucket_upper(i + 1)) << "bucket " << i;
  }
  // The last bucket absorbs everything up to UINT64_MAX exactly.
  EXPECT_EQ(histogram_bucket_upper(kNumHistogramBuckets - 1), UINT64_MAX);
  EXPECT_EQ(histogram_bucket_index(UINT64_MAX), kNumHistogramBuckets - 1);
  // Relative error bound: the bucket width never exceeds value / kSub.
  for (const std::uint64_t v : {100ull, 12345ull, 1ull << 33, (1ull << 52) + 9}) {
    const std::size_t i = histogram_bucket_index(v);
    const std::uint64_t lower = i == 0 ? 0 : histogram_bucket_upper(i - 1) + 1;
    EXPECT_LE(histogram_bucket_upper(i) - lower + 1, v / kHistogramSub + 1)
        << v;
  }
}

TEST(Histogram, QuantilesAreNearestRankOverBucketBounds) {
  HistogramSnapshot s;
  // Values < 16 are in exact buckets, so quantiles are exact order
  // statistics: {1, 2, 3, 4}.
  for (const std::uint64_t v : {1, 2, 3, 4}) s.record(v);
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 10u);
  EXPECT_EQ(s.quantile(0.0), 1u);    // rank clamps to 1
  EXPECT_EQ(s.quantile(0.50), 2u);   // ceil(0.5 * 4) = rank 2
  EXPECT_EQ(s.quantile(0.51), 3u);   // ceil -> rank 3
  EXPECT_EQ(s.quantile(0.75), 3u);
  EXPECT_EQ(s.quantile(1.0), 4u);
  EXPECT_EQ(s.max_bound(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_EQ(HistogramSnapshot{}.quantile(0.5), 0u);  // empty -> 0
}

TEST(Histogram, RecordOrderDoesNotChangeCountsOrQuantiles) {
  // One fixed multiset, recorded forward, in reverse and in a strided
  // order; the histograms and their quantiles must be identical.
  std::vector<std::uint64_t> values;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 4096; ++i) {
    x ^= x << 13; x ^= x >> 7; x ^= x << 17;  // xorshift, fixed seed
    values.push_back(x >> (x % 48));
  }
  HistogramSnapshot forward;
  for (const std::uint64_t v : values) forward.record(v);
  HistogramSnapshot reverse;
  for (auto it = values.rbegin(); it != values.rend(); ++it) reverse.record(*it);
  HistogramSnapshot strided;
  constexpr std::size_t kStride = 8;
  for (std::size_t start = 0; start < kStride; ++start) {
    for (std::size_t i = start; i < values.size(); i += kStride) {
      strided.record(values[i]);
    }
  }
  EXPECT_EQ(forward.count, values.size());
  EXPECT_EQ(forward, reverse);
  EXPECT_EQ(forward, strided);
  for (const double q : {0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(forward.quantile(q), strided.quantile(q)) << q;
  }
  // Merging is lossless: two half-histograms fold into the whole.
  HistogramSnapshot left;
  HistogramSnapshot right;
  for (std::size_t i = 0; i < values.size(); ++i) {
    (i % 2 ? left : right).record(values[i]);
  }
  HistogramSnapshot whole;
  whole += left;
  whole += right;
  EXPECT_EQ(whole, forward);
}

TEST(Histogram, PrometheusFamilyRendering) {
  HistogramSnapshot s;
  for (const std::uint64_t v : {3, 3, 5, 900}) s.record(v);
  std::string out;
  append_histogram_family(&out, "t_ns", "A test family", s);
  EXPECT_EQ(out.rfind("# HELP t_ns A test family\n# TYPE t_ns histogram\n", 0),
            0u)
      << out;
  // Cumulative counts at the non-empty boundaries, then +Inf == count.
  EXPECT_NE(out.find("t_ns_bucket{le=\"3\"} 2"), std::string::npos) << out;
  EXPECT_NE(out.find("t_ns_bucket{le=\"5\"} 3"), std::string::npos);
  const std::uint64_t b900 =
      histogram_bucket_upper(histogram_bucket_index(900));
  EXPECT_NE(out.find("t_ns_bucket{le=\"" + std::to_string(b900) + "\"} 4"),
            std::string::npos);
  EXPECT_NE(out.find("t_ns_bucket{le=\"+Inf\"} 4"), std::string::npos);
  EXPECT_NE(out.find("t_ns_sum 911"), std::string::npos);
  EXPECT_NE(out.find("t_ns_count 4"), std::string::npos);
}

TEST(Prometheus, BatchExpositionIsWellFormed) {
  const std::vector<engine::Job> jobs = engine::random_jobs(8, 6, 0.3, 11);
  engine::EngineOptions opts;
  opts.num_threads = 2;
  opts.shard_cost = engine::kDefaultShardCost;
  const engine::BatchReport report = engine::run_batch(jobs, opts);
  const std::string text = engine::prometheus_text(report.metrics);

  // The counter block is exactly the exposition of the summed per-job
  // counters, and it comes first.
  CounterSnapshot summed;
  for (const engine::JobOutcome& o : report.outcomes) summed += o.counters;
  ASSERT_EQ(report.duplicate_jobs, 0u);
  const std::string counters = prometheus_text(summed);
  EXPECT_EQ(text.compare(0, counters.size(), counters), 0) << text;
  for (const char* family :
       {"bddmin_unique_inserts_total", "bddmin_unique_hits_total",
        "bddmin_cache_lookups_total", "bddmin_gc_runs_total",
        "bddmin_gc_nodes_reclaimed_total", "bddmin_reorder_nodes_freed_total",
        "bddmin_sift_swaps_total", "bddmin_governor_steps_total",
        "bddmin_cache_growths_total"}) {
    EXPECT_NE(text.find(std::string("# TYPE ") + family + " counter\n"),
              std::string::npos)
        << family;
  }

  // Every histogram family is present; within each series the
  // cumulative `_bucket` counts never decrease, and the `+Inf` bucket
  // equals the `_count` sample.
  const std::vector<std::string> histograms = {
      "bddmin_job_latency_ns", "bddmin_job_steps",  "bddmin_steal_search_ns",
      "bddmin_queue_depth",    "bddmin_shard_jobs", "bddmin_shard_cost"};
  std::map<std::string, std::uint64_t> last_bucket;
  std::map<std::string, std::uint64_t> inf_bucket;
  std::map<std::string, std::uint64_t> count;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string key = line.substr(0, space);
    const std::uint64_t value = std::stoull(line.substr(space + 1));
    const std::size_t bucket = key.find("_bucket{le=\"");
    if (bucket != std::string::npos) {
      const std::string family = key.substr(0, bucket);
      EXPECT_GE(value, last_bucket[family]) << line;
      last_bucket[family] = value;
      if (key.find("le=\"+Inf\"") != std::string::npos) {
        inf_bucket[family] = value;
      }
    } else if (key.size() > 6 && key.ends_with("_count")) {
      count[key.substr(0, key.size() - 6)] = value;
    }
  }
  for (const std::string& family : histograms) {
    EXPECT_NE(text.find("# TYPE " + family + " histogram\n"),
              std::string::npos)
        << family;
    ASSERT_TRUE(count.contains(family)) << family;
    ASSERT_TRUE(inf_bucket.contains(family)) << family;
    EXPECT_EQ(inf_bucket[family], count[family]) << family;
  }
  EXPECT_EQ(count.size(), histograms.size());
  EXPECT_EQ(count["bddmin_job_latency_ns"], jobs.size());
  EXPECT_EQ(count["bddmin_job_steps"], jobs.size());
  EXPECT_EQ(count["bddmin_shard_jobs"], report.metrics.shards);
}

}  // namespace
}  // namespace bddmin::telemetry
