/// \file test_shard.cpp
/// \brief Shard packing and the sharded engine's determinism contract:
/// same stream → same shards at any thread count, default CSV
/// byte-identical with sharding on or off, and the warm-manager escape
/// hatches (quota, watermark, mid-shard failure) forcing clean cold
/// continuations.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/job.hpp"
#include "engine/shard.hpp"
#include "workload/generators.hpp"

namespace bddmin {
namespace {

using engine::EngineOptions;
using engine::Job;
using engine::pack_shards;
using engine::Shard;
using engine::ShardPlan;

std::vector<std::size_t> identity_run(std::size_t n) {
  std::vector<std::size_t> run(n);
  std::iota(run.begin(), run.end(), std::size_t{0});
  return run;
}

/// The packing invariants every plan must satisfy: shards tile the run
/// list contiguously in order, and each shard's cost is the sum of its
/// jobs' estimates.
void check_plan(const ShardPlan& plan, const std::vector<Job>& jobs,
                const std::vector<std::size_t>& run) {
  std::size_t next = 0;
  std::uint64_t total = 0;
  for (const Shard& s : plan.shards) {
    EXPECT_EQ(s.first, next);
    ASSERT_GT(s.count, 0u);
    std::uint64_t cost = 0;
    for (std::uint32_t j = 0; j < s.count; ++j) {
      cost += engine::estimate_job_cost(jobs[run[s.first + j]]);
    }
    EXPECT_EQ(s.cost, cost);
    next += s.count;
    total += cost;
  }
  EXPECT_EQ(next, run.size());
  EXPECT_EQ(plan.total_cost, total);
}

TEST(ShardPacking, CostModelIsPureAndPositive) {
  const Job tt = engine::make_tt_job("t", 0x6u, 0xFu, 6);
  // kJobFixedCost + two 2^6-bit tables = 64 + 16 bytes.
  EXPECT_EQ(engine::estimate_job_cost(tt), engine::kJobFixedCost + 16);
  Job forest;
  forest.kind = engine::PayloadKind::kForest;
  forest.forest = std::string(100, 'x');
  EXPECT_EQ(engine::estimate_job_cost(forest), engine::kJobFixedCost + 100);
  EXPECT_EQ(engine::estimate_job_cost(tt), engine::estimate_job_cost(tt));
}

TEST(ShardPacking, CoversRunListInOrderDeterministically) {
  const std::vector<Job> jobs = engine::random_jobs(40, 8, 0.5, 7);
  const std::vector<std::size_t> run = identity_run(jobs.size());
  const ShardPlan a = pack_shards(jobs, run, engine::kDefaultShardCost);
  check_plan(a, jobs, run);
  EXPECT_GT(a.size(), 0u);
  EXPECT_LT(a.size(), jobs.size());  // something actually coalesced
  // Pure function of (jobs, run, budget): repacking yields the same plan.
  const ShardPlan b = pack_shards(jobs, run, engine::kDefaultShardCost);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.shards[i].first, b.shards[i].first);
    EXPECT_EQ(a.shards[i].count, b.shards[i].count);
    EXPECT_EQ(a.shards[i].cost, b.shards[i].cost);
  }
}

TEST(ShardPacking, BudgetZeroIsOneJobPerShard) {
  const std::vector<Job> jobs = engine::random_jobs(9, 6, 0.5, 3);
  const std::vector<std::size_t> run = identity_run(jobs.size());
  const ShardPlan plan = pack_shards(jobs, run, 0);
  check_plan(plan, jobs, run);
  ASSERT_EQ(plan.size(), jobs.size());
  for (const Shard& s : plan.shards) EXPECT_EQ(s.count, 1u);
}

TEST(ShardPacking, OversizedJobStillGetsASingletonShard) {
  std::vector<Job> jobs;
  jobs.push_back(engine::make_tt_job("small", 0x6u, 0xFu, 4));
  Job huge;
  huge.name = "huge";
  huge.num_vars = 8;
  huge.kind = engine::PayloadKind::kForest;
  huge.forest = std::string(10'000, 'n');  // cost far above the budget
  jobs.push_back(huge);
  jobs.push_back(engine::make_tt_job("small2", 0x9u, 0xFu, 4));
  const std::vector<std::size_t> run = identity_run(jobs.size());
  const ShardPlan plan = pack_shards(jobs, run, /*cost_budget=*/256);
  check_plan(plan, jobs, run);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.shards[1].count, 1u);
  EXPECT_GT(plan.shards[1].cost, 256u);
}

TEST(ShardPacking, MaxShardJobsCapBoundsTinyJobStreams) {
  // 2-var truth tables cost kJobFixedCost + 1 each: a huge budget would
  // otherwise swallow all 600 into one shard.
  std::vector<Job> jobs;
  for (int i = 0; i < 600; ++i) {
    jobs.push_back(engine::make_tt_job("t" + std::to_string(i),
                                       static_cast<std::uint64_t>(i & 0xF),
                                       0xFu, 2));
  }
  const std::vector<std::size_t> run = identity_run(jobs.size());
  const ShardPlan plan = pack_shards(jobs, run, /*cost_budget=*/1u << 30);
  check_plan(plan, jobs, run);
  EXPECT_EQ(plan.max_shard_jobs, engine::kMaxShardJobs);
  EXPECT_EQ(plan.size(), (600 + engine::kMaxShardJobs - 1) /
                             engine::kMaxShardJobs);
}

// ---- The engine under sharding -----------------------------------------

TEST(ShardEngine, SameStreamSameShardsAndCsvAtAnyThreadCount) {
  const std::vector<Job> jobs = engine::random_jobs(24, 8, 0.5, 21);
  std::string baseline;
  std::string counters_baseline;
  std::uint64_t shards = 0;
  std::uint64_t warm = 0;
  for (const unsigned threads : {1u, 2u, 8u}) {
    EngineOptions opts;
    opts.num_threads = threads;
    opts.shard_cost = engine::kDefaultShardCost;
    const engine::BatchReport report = engine::run_batch(jobs, opts);
    const std::string csv = engine::report_csv(report);
    const std::string counters_csv = engine::report_csv(
        report, /*include_timings=*/false, /*include_counters=*/true);
    if (baseline.empty()) {
      baseline = csv;
      counters_baseline = counters_csv;
      shards = report.metrics.shards;
      warm = report.metrics.warm_jobs;
      EXPECT_GT(shards, 0u);
    } else {
      // The packing — and hence even the warm/cold split and the
      // cache-sensitive counters block — is a pure function of the
      // submission stream, not of the worker count.
      EXPECT_EQ(csv, baseline) << threads;
      EXPECT_EQ(counters_csv, counters_baseline) << threads;
      EXPECT_EQ(report.metrics.shards, shards) << threads;
      EXPECT_EQ(report.metrics.warm_jobs, warm) << threads;
    }
  }
}

TEST(ShardEngine, DefaultCsvIsByteIdenticalShardOnVsOff) {
  const std::vector<Job> jobs = engine::random_jobs(24, 8, 0.5, 5);
  EngineOptions off;
  off.num_threads = 2;
  const engine::BatchReport cold = engine::run_batch(jobs, off);
  EXPECT_EQ(cold.metrics.warm_jobs, 0u);

  EngineOptions on = off;
  on.shard_cost = engine::kDefaultShardCost;
  const engine::BatchReport sharded = engine::run_batch(jobs, on);
  EXPECT_GT(sharded.metrics.warm_jobs, 0u);  // reuse actually happened
  EXPECT_LT(sharded.metrics.shards, cold.metrics.shards);
  EXPECT_EQ(engine::report_csv(sharded), engine::report_csv(cold));
}

TEST(ShardEngine, QuotaConfiguredForcesEveryJobColdAndStillMatches) {
  // Node quotas are an escape hatch: warm tables would change *when* a
  // quota trips, so configuring one disables warm reuse entirely — and
  // the mid-shard degrade must leave the rest of the shard intact.
  const std::vector<Job> jobs = engine::random_jobs(16, 10, 0.5, 13);
  EngineOptions off;
  off.num_threads = 2;
  // Small enough to trip on some 10-var jobs: 64 trips on 2 of the 16.
  // Pair checks through agree() and the signature filter build few
  // nodes, so from about 80 up the quota never trips.
  off.node_limit = 64;
  const engine::BatchReport cold = engine::run_batch(jobs, off);

  EngineOptions on = off;
  on.shard_cost = engine::kDefaultShardCost;
  const engine::BatchReport sharded = engine::run_batch(jobs, on);
  EXPECT_EQ(sharded.metrics.warm_jobs, 0u);
  EXPECT_EQ(sharded.metrics.cold_jobs, cold.metrics.cold_jobs);
  EXPECT_EQ(engine::report_csv(sharded), engine::report_csv(cold));
  // The quota must actually have fired for the escape hatch to matter,
  // and a degrade is not a batch failure.
  EXPECT_GT(sharded.count(engine::JobStatus::kResourceLimit), 0u);
  EXPECT_EQ(sharded.count(engine::JobStatus::kError), 0u);
  EXPECT_EQ(sharded.count(engine::JobStatus::kOk) +
                sharded.count(engine::JobStatus::kResourceLimit),
            jobs.size());
}

TEST(ShardEngine, NodeWatermarkForcesMidShardResets) {
  const std::vector<Job> jobs = engine::random_jobs(16, 8, 0.5, 17);
  EngineOptions opts;
  opts.num_threads = 1;
  opts.shard_cost = engine::kDefaultShardCost;
  opts.shard_node_watermark = 1;  // any allocation exceeds it
  const engine::BatchReport pinned = engine::run_batch(jobs, opts);
  EXPECT_EQ(pinned.metrics.warm_jobs, 0u);

  EngineOptions plain;
  plain.num_threads = 1;
  const engine::BatchReport cold = engine::run_batch(jobs, plain);
  EXPECT_EQ(engine::report_csv(pinned), engine::report_csv(cold));
}

TEST(ShardEngine, MidShardDecodeFailureContinuesColdAndClean) {
  // A throwing job drops the pooled manager; the next job in the same
  // shard must start cold and succeed as if nothing happened.
  std::vector<Job> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(engine::make_tt_job("good" + std::to_string(i),
                                       0x96u + i, 0xFFu, 3));
  }
  Job bad;
  bad.name = "bad";
  bad.num_vars = 3;
  bad.kind = engine::PayloadKind::kForest;
  bad.forest = "this is not a serialized forest";
  jobs.insert(jobs.begin() + 3, bad);

  EngineOptions opts;
  opts.num_threads = 1;
  opts.shard_cost = engine::kDefaultShardCost;
  opts.dedup_jobs = false;
  const engine::BatchReport report = engine::run_batch(jobs, opts);
  ASSERT_EQ(report.outcomes.size(), jobs.size());
  EXPECT_EQ(report.outcomes[3].status, engine::JobStatus::kError);
  for (const std::size_t i : {0u, 1u, 2u, 4u, 5u, 6u}) {
    EXPECT_EQ(report.outcomes[i].status, engine::JobStatus::kOk) << i;
  }

  EngineOptions off = opts;
  off.shard_cost = 0;
  EXPECT_EQ(engine::report_csv(report),
            engine::report_csv(engine::run_batch(jobs, off)));
}

TEST(ShardEngine, HeavyTierGeneratorIsDeterministicAndSized) {
  const std::vector<Job> a = workload::heavy_tier_jobs(1, 0x5eed);
  const std::vector<Job> b = workload::heavy_tier_jobs(1, 0x5eed);
  ASSERT_EQ(a.size(), 616u);  // 600 tt + 16 forest per unit of scale
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].f_tt, b[i].f_tt);
    EXPECT_EQ(a[i].forest, b[i].forest);
  }
  EXPECT_NE(workload::heavy_tier_jobs(1, 0x0dd).back().forest,
            a.back().forest);
}

}  // namespace
}  // namespace bddmin
