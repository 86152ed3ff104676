/// \file test_telemetry.cpp
/// \brief Telemetry subsystem: counter semantics against known workloads,
/// span-trace round trips, per-phase profiles, the counter CSV columns'
/// thread-count determinism, and the Prometheus exposition.
#include "telemetry/counters.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

#include "analysis/audit.hpp"
#include "analysis/mutate.hpp"
#include "bdd/bdd.hpp"
#include "bdd/ops.hpp"
#include "engine/engine.hpp"
#include "minimize/registry.hpp"
#include "minimize/sibling.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/profile.hpp"
#include "telemetry/trace.hpp"
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
  if (!kCountersEnabled) GTEST_SKIP() << "telemetry compiled out";
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
}

TEST(Counters, UniqueTableInsertThenHit) {
  if (!kCountersEnabled) GTEST_SKIP() << "telemetry compiled out";
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
  if (!kCountersEnabled) GTEST_SKIP() << "telemetry compiled out";
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
  if (!kCountersEnabled) GTEST_SKIP() << "telemetry compiled out";
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
  if (!kCountersEnabled) GTEST_SKIP() << "telemetry compiled out";
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
  if (!kCountersEnabled) GTEST_SKIP() << "telemetry compiled out";
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
  if (!kCountersEnabled) GTEST_SKIP() << "telemetry compiled out";
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
  if (!kCountersEnabled) GTEST_SKIP() << "telemetry compiled out";
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

TEST(Trace, RoundTripIsValidAndThreadAware) {
  const std::string path = testing::TempDir() + "bddmin_trace_test.json";
  ASSERT_TRUE(Tracer::start(path));
  Tracer::set_thread_name("test-main");
  {
    const TraceScope outer("outer", "test");
    {
      const TraceScope inner("inner", "test");
    }
    trace_instant("tick", "test");
  }
  std::thread worker([] {
    Tracer::set_thread_name("test-worker");
    const TraceScope s("worker-span", "test");
  });
  worker.join();
  ASSERT_EQ(Tracer::stop(), path);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_EQ(validate_trace(json), "");
  for (const char* needle : {"test-main", "test-worker", "outer", "inner",
                             "tick", "worker-span", "displayTimeUnit"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
}

TEST(Trace, RestartWhileWorkersEmitSpansIsRaceFree) {
  // Regression: Tracer::Impl::generation used to be a plain uint64 read
  // unlocked by log_for_this_thread() (the cached-log validity check)
  // while start() incremented it under a different mutex — a data race
  // TSan flags on any stop()/start() cycle concurrent with tracing
  // threads.  generation is atomic now; this test drives exactly that
  // interleaving and must stay clean under -DBDDMIN_SANITIZE=thread.
  const std::string base = testing::TempDir() + "bddmin_trace_restart";
  std::atomic<bool> done{false};
  std::thread worker([&done] {
    while (!done.load(std::memory_order_relaxed)) {
      const TraceScope s("restart-span", "test");
      trace_instant("restart-tick", "test");
    }
  });
  for (int round = 0; round < 50; ++round) {
    const std::string path = base + std::to_string(round) + ".json";
    if (Tracer::start(path)) {
      // A couple of spans on this thread force fresh log registration
      // against the bumped generation.
      const TraceScope s("main-span", "test");
      (void)Tracer::stop();
    }
  }
  done.store(true, std::memory_order_relaxed);
  worker.join();
}

TEST(Trace, ValidatorRejectsGarbageAndOverlaps) {
  EXPECT_NE(validate_trace("not json"), "");
  EXPECT_NE(validate_trace("{\"traceEvents\":42}"), "");
  // Two complete events on one tid overlapping without nesting.
  const std::string overlapping =
      "{\"traceEvents\":["
      "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0,\"dur\":10,"
      "\"cat\":\"t\",\"name\":\"a\"},"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":5,\"dur\":10,"
      "\"cat\":\"t\",\"name\":\"b\"}]}";
  EXPECT_NE(validate_trace(overlapping), "");
  // The same two spans properly nested are fine.
  const std::string nested =
      "{\"traceEvents\":["
      "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0,\"dur\":10,"
      "\"cat\":\"t\",\"name\":\"a\"},"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":2,\"dur\":5,"
      "\"cat\":\"t\",\"name\":\"b\"}]}";
  EXPECT_EQ(validate_trace(nested), "");
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
  if (!kCountersEnabled) GTEST_SKIP() << "telemetry compiled out";
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
  if (!kHistogramsEnabled) GTEST_SKIP() << "telemetry compiled out";
  Histogram h;
  // Values < 16 are in exact buckets, so quantiles are exact order
  // statistics: {1, 2, 3, 4}.
  for (const std::uint64_t v : {1, 2, 3, 4}) h.record(v);
  const HistogramSnapshot s = h.snapshot();
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

TEST(Histogram, RecordMergeQuantilesDeterministicAcrossInterleavings) {
  if (!kHistogramsEnabled) GTEST_SKIP() << "telemetry compiled out";
  // One fixed multiset, recorded under 1-, 2- and 8-thread
  // interleavings; snapshots and quantiles must be identical.
  std::vector<std::uint64_t> values;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 4096; ++i) {
    x ^= x << 13; x ^= x >> 7; x ^= x << 17;  // xorshift, fixed seed
    values.push_back(x >> (x % 48));
  }
  HistogramSnapshot snapshots[3];
  const unsigned counts[3] = {1, 2, 8};
  for (int run = 0; run < 3; ++run) {
    Histogram h;
    const unsigned n = counts[run];
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < n; ++t) {
      threads.emplace_back([&h, &values, t, n] {
        for (std::size_t i = t; i < values.size(); i += n) {
          h.record(values[i]);
        }
      });
    }
    for (std::thread& th : threads) th.join();
    snapshots[run] = h.snapshot();
  }
  EXPECT_EQ(snapshots[0], snapshots[1]);
  EXPECT_EQ(snapshots[0], snapshots[2]);
  for (const double q : {0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(snapshots[0].quantile(q), snapshots[2].quantile(q)) << q;
  }
  // merge() is lossless: two half-histograms fold into the whole.
  Histogram left;
  Histogram right;
  for (std::size_t i = 0; i < values.size(); ++i) {
    (i % 2 ? left : right).record(values[i]);
  }
  Histogram whole;
  whole.merge(left.snapshot());
  whole.merge(right.snapshot());
  EXPECT_EQ(whole.snapshot(), snapshots[0]);
}

TEST(Histogram, PrometheusFamilyRendering) {
  if (!kHistogramsEnabled) GTEST_SKIP() << "telemetry compiled out";
  Histogram h;
  for (const std::uint64_t v : {3, 3, 5, 900}) h.record(v);
  std::string out;
  append_histogram_series(&out, "t_ns", "k=\"v\"", h.snapshot());
  // Cumulative counts at the non-empty boundaries, then +Inf == count.
  EXPECT_NE(out.find("t_ns_bucket{k=\"v\",le=\"3\"} 2"), std::string::npos)
      << out;
  EXPECT_NE(out.find("t_ns_bucket{k=\"v\",le=\"5\"} 3"), std::string::npos);
  const std::uint64_t b900 =
      histogram_bucket_upper(histogram_bucket_index(900));
  EXPECT_NE(out.find("t_ns_bucket{k=\"v\",le=\"" + std::to_string(b900) +
                     "\"} 4"),
            std::string::npos);
  EXPECT_NE(out.find("t_ns_bucket{k=\"v\",le=\"+Inf\"} 4"),
            std::string::npos);
  EXPECT_NE(out.find("t_ns_sum{k=\"v\"} 911"), std::string::npos);
  EXPECT_NE(out.find("t_ns_count{k=\"v\"} 4"), std::string::npos);
  // The global exposition names every well-known family even when empty.
  GlobalHistograms bank;
  const std::string families = histogram_prometheus_text(bank);
  for (const char* needle :
       {"# TYPE bddmin_job_latency_ns histogram", "bddmin_job_steps_bucket",
        "bddmin_steal_search_ns_count", "bddmin_queue_depth_sum"}) {
    EXPECT_NE(families.find(needle), std::string::npos) << needle;
  }
  // Labelled latency series appear once recorded into.
  bank.job_latency(0).record(42);
  bank.job_latency(7).record(7);  // out-of-range outcome clamps to the last
  const std::string after = histogram_prometheus_text(bank);
  const std::uint64_t b42 = histogram_bucket_upper(histogram_bucket_index(42));
  EXPECT_NE(after.find("bddmin_job_latency_ns_bucket{status=\"ok\",le=\"" +
                       std::to_string(b42) + "\"} 1"),
            std::string::npos)
      << after;
  EXPECT_NE(after.find("bddmin_job_latency_ns_count{status=\"resource-limit\"} 1"),
            std::string::npos)
      << after;
  EXPECT_EQ(after.find("attempt="), std::string::npos);
}

TEST(Histogram, CompileOutIsANoOp) {
  // Meaningful in the -DBDDMIN_TELEMETRY=OFF build: record() must keep
  // the snapshot all-zero.  In the ON build it checks the opposite.
  Histogram h;
  h.record(7);
  h.record(1 << 20);
  const HistogramSnapshot s = h.snapshot();
  if (kHistogramsEnabled) {
    EXPECT_EQ(s.count, 2u);
  } else {
    EXPECT_EQ(s.count, 0u);
    EXPECT_EQ(s.sum, 0u);
    EXPECT_EQ(s, HistogramSnapshot{});
  }
  // The bucket arithmetic stays available either way (used by tools and
  // tests); spot-check one value.
  EXPECT_EQ(histogram_bucket_index(3), 3u);
}

TEST(Histogram, OutcomeLabelTableMatchesEngineStatusNames) {
  // telemetry keeps its own copy of the outcome labels so the
  // dependency stays one-way; this is the pin that keeps them in sync.
  EXPECT_EQ(kNumOutcomeClasses,
            static_cast<std::size_t>(engine::JobStatus::kResourceLimit) + 1);
  for (std::size_t s = 0; s < kNumOutcomeClasses; ++s) {
    EXPECT_STREQ(kOutcomeLabels[s],
                 engine::job_status_name(static_cast<engine::JobStatus>(s)))
        << "outcome class " << s;
  }
}

TEST(Global, ProcessWideHistogramsAccumulateBatchLatencies) {
  if (!kHistogramsEnabled) GTEST_SKIP() << "telemetry compiled out";
  histograms().reset();
  const std::vector<engine::Job> jobs = engine::random_jobs(6, 6, 0.3, 11);
  engine::EngineOptions opts;
  opts.num_threads = 2;
  const engine::BatchReport report = engine::run_batch(jobs, opts);
  // Every final outcome records one latency sample into the global bank
  // (all ok on this tiny clean batch) and one governor-steps sample.
  const HistogramSnapshot latency = histograms().job_latency(0).snapshot();
  EXPECT_EQ(latency.count, report.outcomes.size() - report.duplicate_jobs);
  EXPECT_EQ(histograms().job_steps().snapshot().count, latency.count);
  // The per-run metrics block carries the same distributions.
  EXPECT_EQ(report.metrics.job_latency_ns.count, latency.count);
  EXPECT_GE(report.metrics.queue_depth.count, 1u);  // seeded-backlog anchor
}

TEST(Global, ProcessWideCountersAccumulateBatchWork) {
  if (!kCountersEnabled) GTEST_SKIP() << "telemetry compiled out";
  global().reset();
  const std::vector<engine::Job> jobs = engine::random_jobs(4, 6, 0.3, 9);
  engine::EngineOptions opts;
  opts.num_threads = 2;
  const engine::BatchReport report = engine::run_batch(jobs, opts);
  CounterSnapshot expected;
  for (const engine::JobOutcome& o : report.outcomes) expected += o.counters;
  const CounterSnapshot seen = global().snapshot();
  EXPECT_EQ(seen, expected);
  EXPECT_GT(seen.value(Counter::kUniqueInserts), 0u);
}

}  // namespace
}  // namespace bddmin::telemetry
