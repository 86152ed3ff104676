/// \file test_engine.cpp
/// \brief Batch engine: work-stealing queue integrity, the determinism
/// contract (byte-identical CSV for any thread count), per-job timeout,
/// cancellation atomicity, and containment of worker crashes.
#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <random>
#include <set>
#include <thread>

#include "analysis/check.hpp"
#include "bdd/ops.hpp"
#include "bdd/truth_table.hpp"
#include "engine/queue.hpp"
#include "engine/shard.hpp"
#include "minimize/sibling.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/histogram.hpp"
#include "workload/instances.hpp"

namespace bddmin::engine {
namespace {

std::vector<Job> mixed_jobs() {
  // Truth-table payloads (6 vars) and forest payloads (9 vars) together.
  std::vector<Job> jobs = random_jobs(12, 6, 0.4, 1100);
  for (Job& j : random_jobs(6, 9, 0.25, 2200)) jobs.push_back(std::move(j));
  for (Job& j : random_jobs(6, 9, 0.9, 3300)) jobs.push_back(std::move(j));
  return jobs;
}

TEST(WorkStealingQueue, EveryItemPoppedExactlyOnceUnderContention) {
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kItems = 2000;
  WorkStealingQueue queue(kWorkers);
  // Lopsided seeding: everything on worker 0, so 1-3 must steal.
  for (std::size_t i = 0; i < kItems; ++i) queue.push(0, i);
  std::vector<std::vector<std::size_t>> popped(kWorkers);
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    pool.emplace_back([&queue, &popped, w] {
      std::size_t item = 0;
      while (queue.try_pop(w, &item)) popped[w].push_back(item);
    });
  }
  for (std::thread& t : pool) t.join();
  std::multiset<std::size_t> all;
  for (const auto& v : popped) all.insert(v.begin(), v.end());
  ASSERT_EQ(all.size(), kItems);
  std::size_t expected = 0;
  for (const std::size_t item : all) EXPECT_EQ(item, expected++);
}

TEST(Job, ForestPayloadRoundTripsAcrossManagers) {
  Manager src(9, 12);
  const minimize::IncSpec spec = workload::random_instance(src, 9, 0.35, 77u);
  const Job job = make_job(src, "roundtrip", spec);
  EXPECT_EQ(job.kind, PayloadKind::kForest);

  Manager dst(9, 12);
  const minimize::IncSpec back = decode_job(dst, job);
  std::mt19937_64 rng(5);
  std::vector<bool> assignment(9);
  for (int round = 0; round < 200; ++round) {
    for (std::size_t v = 0; v < assignment.size(); ++v) {
      assignment[v] = (rng() & 1) != 0;
    }
    EXPECT_EQ(eval(src, spec.f, assignment), eval(dst, back.f, assignment));
    EXPECT_EQ(eval(src, spec.c, assignment), eval(dst, back.c, assignment));
  }
}

TEST(Job, SmallSupportTravelsAsTruthTable) {
  Manager src(5, 12);
  const minimize::IncSpec spec = workload::random_instance(src, 5, 0.5, 31u);
  const Job job = make_job(src, "tt", spec);
  EXPECT_EQ(job.kind, PayloadKind::kTruthTable);
  EXPECT_EQ(job.f_tt, to_tt(src, spec.f, 5));
  EXPECT_EQ(job.c_tt, to_tt(src, spec.c, 5));

  Manager dst(5, 12);
  const minimize::IncSpec back = decode_job(dst, job);
  EXPECT_EQ(to_tt(dst, back.f, 5), job.f_tt);
  EXPECT_EQ(to_tt(dst, back.c, 5), job.c_tt);
}

TEST(BatchEngine, ByteIdenticalCsvAcrossThreadCounts) {
  const std::vector<Job> jobs = mixed_jobs();
  std::string baseline;
  for (const unsigned threads : {1u, 2u, 8u}) {
    EngineOptions opts;
    opts.num_threads = threads;
    opts.lower_bound_cubes = 100;
    const BatchReport report = run_batch(jobs, opts);
    EXPECT_EQ(report.count(JobStatus::kOk), jobs.size());
    const std::string csv = report_csv(report);
    if (baseline.empty()) {
      baseline = csv;
    } else {
      EXPECT_EQ(csv, baseline) << "thread count " << threads
                               << " changed the deterministic report";
    }
  }
  // The report body mentions every job by name, in submission order.
  for (const Job& job : jobs) {
    EXPECT_NE(baseline.find(job.name), std::string::npos);
  }
}

TEST(BatchEngine, AuditLevelStillDeterministicAndClean) {
  const std::vector<Job> jobs = random_jobs(6, 6, 0.5, 4400);
  std::string baseline;
  for (const unsigned threads : {1u, 4u}) {
    EngineOptions opts;
    opts.num_threads = threads;
    opts.audit_level = analysis::AuditLevel::kCover;
    const BatchReport report = run_batch(jobs, opts);
    EXPECT_EQ(report.count(JobStatus::kOk), jobs.size());
    for (const JobOutcome& o : report.outcomes) {
      EXPECT_EQ(o.audit_findings, 0u) << o.name;
    }
    const std::string csv = report_csv(report);
    if (baseline.empty()) {
      baseline = csv;
    } else {
      EXPECT_EQ(csv, baseline);
    }
  }
}

TEST(BatchEngine, TimeoutExpiresJobsWithoutRunningHeuristics) {
  const std::vector<Job> jobs = random_jobs(5, 6, 0.4, 5500);
  EngineOptions opts;
  opts.num_threads = 2;
  // Decoding alone takes longer than a picosecond, so every job expires
  // at the first between-heuristics deadline check.
  opts.job_timeout_seconds = 1e-12;
  const BatchReport report = run_batch(jobs, opts);
  ASSERT_EQ(report.outcomes.size(), jobs.size());
  for (const JobOutcome& o : report.outcomes) {
    EXPECT_EQ(o.status, JobStatus::kTimeout) << o.name;
    EXPECT_EQ(o.min_size, 0u);
    for (const HeuristicResult& r : o.results) EXPECT_EQ(r.size, 0u);
  }
  // The CSV still reports one complete row per job.
  const std::string csv = report_csv(report);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 1 + 5);
  EXPECT_NE(csv.find("timeout"), std::string::npos);
}

TEST(BatchEngine, PreCancelledBatchReportsEveryJobCancelled) {
  const std::vector<Job> jobs = random_jobs(8, 6, 0.4, 6600);
  EngineOptions opts;
  opts.num_threads = 4;
  opts.cancel = std::make_shared<std::atomic<bool>>(true);
  const BatchReport report = run_batch(jobs, opts);
  ASSERT_EQ(report.outcomes.size(), jobs.size());
  EXPECT_EQ(report.count(JobStatus::kCancelled), jobs.size());
}

TEST(BatchEngine, MidRunCancellationKeepsJobsAtomic) {
  // Per-job scheduling, then shards of several jobs: a shard is not a
  // cancellation unit, so a queued job in a half-drained shard still
  // reports kCancelled and nothing is lost or run twice.
  const std::vector<Job> jobs = random_jobs(40, 8, 0.4, 7700);
  for (const std::uint64_t shard_cost : {std::uint64_t{0},
                                         kDefaultShardCost}) {
    EngineOptions opts;
    opts.num_threads = 2;
    opts.shard_cost = shard_cost;
    opts.cancel = std::make_shared<std::atomic<bool>>(false);
    std::thread trigger([cancel = opts.cancel] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      cancel->store(true);
    });
    const BatchReport report = run_batch(jobs, opts);
    trigger.join();
    ASSERT_EQ(report.outcomes.size(), jobs.size());
    if (shard_cost > 0) {
      EXPECT_LT(report.metrics.shards, jobs.size());
    }
    for (const JobOutcome& o : report.outcomes) {
      // Jobs are atomic: fully processed or never started — no torn state.
      if (o.status == JobStatus::kOk) {
        EXPECT_GT(o.min_size, 0u) << o.name;
      } else {
        ASSERT_EQ(o.status, JobStatus::kCancelled) << o.name;
        EXPECT_EQ(o.min_size, 0u) << o.name;
      }
    }
  }
}

TEST(BatchEngine, ThrownCheckIsContainedToItsJob) {
  // Job 2 carries f == 1; the faulty heuristic trips a BDDMIN_CHECK on it.
  std::vector<Job> jobs = random_jobs(4, 5, 0.5, 8800);
  jobs.insert(jobs.begin() + 2,
              make_tt_job("poison", tt_mask(5), 0x0F0Full, 5));
  EngineOptions opts;
  opts.num_threads = 2;
  opts.heuristics.push_back(
      {"restr", [](Manager& m, Edge f, Edge c) {
         return minimize::restrict_dc(m, f, c);
       }});
  opts.heuristics.push_back({"boom", [](Manager& m, Edge f, Edge c) {
                               BDDMIN_CHECK(f != kOne);
                               return minimize::constrain(m, f, c);
                             }});
  const BatchReport report = run_batch(jobs, opts);
  ASSERT_EQ(report.outcomes.size(), jobs.size());
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    const JobOutcome& o = report.outcomes[i];
    if (i == 2) {
      EXPECT_EQ(o.status, JobStatus::kError);
      EXPECT_NE(o.error.find("boom"), std::string::npos);
      EXPECT_NE(o.error.find("BDDMIN_CHECK"), std::string::npos);
      // The heuristic before the crash still reported its cover.
      EXPECT_GT(o.results[0].size, 0u);
      EXPECT_EQ(o.results[1].size, 0u);
    } else {
      EXPECT_EQ(o.status, JobStatus::kOk) << o.name;
    }
  }
}

TEST(BatchEngine, MalformedPayloadIsContainedToItsJob) {
  std::vector<Job> jobs = random_jobs(3, 6, 0.4, 9900);
  Job bad;
  bad.name = "garbage";
  bad.num_vars = 6;
  bad.kind = PayloadKind::kForest;
  bad.forest = "not a forest";
  jobs.push_back(bad);
  EngineOptions opts;
  opts.num_threads = 2;
  const BatchReport report = run_batch(jobs, opts);
  EXPECT_EQ(report.count(JobStatus::kOk), 3u);
  const JobOutcome& o = report.outcomes.back();
  EXPECT_EQ(o.status, JobStatus::kError);
  EXPECT_NE(o.error.find("decode"), std::string::npos);
}

TEST(BatchEngine, NonCoverHeuristicIsRejected) {
  const std::vector<Job> jobs = random_jobs(2, 5, 0.6, 1234);
  EngineOptions opts;
  opts.num_threads = 1;
  opts.heuristics.push_back(
      {"liar", [](Manager&, Edge f, Edge) { return !f; }});
  const BatchReport report = run_batch(jobs, opts);
  for (const JobOutcome& o : report.outcomes) {
    EXPECT_EQ(o.status, JobStatus::kError) << o.name;
    EXPECT_NE(o.error.find("non-cover"), std::string::npos);
  }
}

TEST(BatchEngine, SingleHeuristicSelectionByName) {
  const std::vector<Job> jobs = random_jobs(4, 6, 0.3, 4321);
  EngineOptions opts;
  opts.num_threads = 2;
  opts.heuristics = {
      minimize::heuristic_by_name(minimize::all_heuristics(), "osm_td")};
  const BatchReport report = run_batch(jobs, opts);
  ASSERT_EQ(report.names.size(), 1u);
  EXPECT_EQ(report.names[0], "osm_td");
  EXPECT_EQ(report.count(JobStatus::kOk), jobs.size());
}

TEST(BatchEngine, DedupReplicatesDuplicateOutcomesUnderTheirOwnNames) {
  // Four distinct payloads, each duplicated under fresh names.
  std::vector<Job> jobs = random_jobs(4, 6, 0.4, 8800);
  const std::size_t distinct = jobs.size();
  for (std::size_t i = 0; i < distinct; ++i) {
    Job dup = jobs[i];
    dup.name = "dup_" + dup.name;
    jobs.push_back(std::move(dup));
  }
  std::string baseline;
  for (const unsigned threads : {1u, 2u, 8u}) {
    EngineOptions opts;
    opts.num_threads = threads;
    const BatchReport report = run_batch(jobs, opts);
    EXPECT_EQ(report.duplicate_jobs, distinct);
    EXPECT_EQ(report.count(JobStatus::kOk), jobs.size());
    const std::string csv =
        report_csv(report, /*include_timings=*/false, /*include_counters=*/true);
    if (baseline.empty()) {
      baseline = csv;
    } else {
      EXPECT_EQ(csv, baseline) << "thread count " << threads
                               << " changed the deduplicated report";
    }
  }
  // Every duplicate appears under its own name.
  for (const Job& job : jobs) {
    EXPECT_NE(baseline.find(job.name), std::string::npos) << job.name;
  }
}

TEST(BatchEngine, DedupOffProducesTheSameReport) {
  std::vector<Job> jobs = random_jobs(3, 6, 0.4, 9900);
  for (std::size_t i = 0; i < 3; ++i) {
    Job dup = jobs[i];
    dup.name = "again_" + dup.name;
    jobs.push_back(std::move(dup));
  }
  EngineOptions on;
  on.num_threads = 2;
  EngineOptions off = on;
  off.dedup_jobs = false;
  const BatchReport rep_on = run_batch(jobs, on);
  const BatchReport rep_off = run_batch(jobs, off);
  EXPECT_EQ(rep_on.duplicate_jobs, 3u);
  EXPECT_EQ(rep_off.duplicate_jobs, 0u);
  // Outcomes are pure functions of the payload: the deterministic CSV
  // (counters included) is identical whether or not duplicates reran.
  EXPECT_EQ(report_csv(rep_on, false, /*include_counters=*/true),
            report_csv(rep_off, false, /*include_counters=*/true));
}

TEST(BatchMetricsTable, DuplicatesAreNotCountedTwice) {
  // Five distinct payloads, the first three duplicated.  The duplicates
  // copy their representative's outcome (seconds and counters included)
  // but no worker runs them, so the batch sums must cover only the five.
  std::vector<Job> jobs = random_jobs(5, 6, 0.4, 4242);
  const std::size_t distinct = jobs.size();
  for (std::size_t i = 0; i < 3; ++i) {
    Job dup = jobs[i];
    dup.name = "dup_" + dup.name;
    jobs.push_back(std::move(dup));
  }
  EngineOptions opts;
  opts.num_threads = 2;
  const BatchReport report = run_batch(jobs, opts);
  ASSERT_EQ(report.duplicate_jobs, 3u);
  telemetry::CounterSnapshot rep_counters;
  double rep_seconds = 0.0;
  telemetry::CounterSnapshot all_counters;
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    const JobOutcome& o = report.outcomes[i];
    all_counters += o.counters;
    if (i >= distinct) continue;
    rep_counters += o.counters;
    for (const HeuristicResult& r : o.results) rep_seconds += r.seconds;
  }
  EXPECT_EQ(report.metrics.counters, rep_counters);
  EXPECT_DOUBLE_EQ(report.metrics.heuristic_seconds, rep_seconds);
  EXPECT_NE(report.metrics.counters, all_counters);
  EXPECT_EQ(report.metrics.job_latency_ns.count, distinct);
  EXPECT_EQ(report.metrics.job_steps.sum,
            rep_counters.value(telemetry::Counter::kGovernorSteps));
}

TEST(BatchEngine, PooledManagersKeepCsvByteIdenticalAcrossThreadCounts) {
  // Many more jobs than workers, so every pooled manager is reset and
  // reused repeatedly; counters in the CSV must still match a run where
  // each job had the manager to itself (1 thread).
  const std::vector<Job> jobs = mixed_jobs();
  std::string baseline;
  for (const unsigned threads : {1u, 2u, 8u}) {
    EngineOptions opts;
    opts.num_threads = threads;
    opts.dedup_jobs = false;  // isolate the pooling effect
    const BatchReport report = run_batch(jobs, opts);
    const std::string csv =
        report_csv(report, /*include_timings=*/false, /*include_counters=*/true);
    if (baseline.empty()) {
      baseline = csv;
    } else {
      EXPECT_EQ(csv, baseline) << "thread count " << threads;
    }
  }
}

TEST(BatchMetricsTable, UtilizationTotalsMatchWallTimePerWorker) {
  const std::vector<Job> jobs = mixed_jobs();
  EngineOptions opts;
  opts.num_threads = 4;
  const BatchReport report = run_batch(jobs, opts);
  ASSERT_EQ(report.metrics.workers.size(), 4u);
  std::uint64_t total_jobs = 0;
  for (const WorkerUtilization& w : report.metrics.workers) {
    // idle is defined as max(0, wall - busy - steal - sink), so the four
    // states always tile exactly max(wall, busy + steal + sink).
    const double active = w.busy_seconds + w.steal_seconds + w.sink_seconds;
    const double sum = active + w.idle_seconds;
    EXPECT_NEAR(sum, std::max(report.wall_seconds, active),
                1e-9 * std::max(1.0, sum))
        << "worker " << w.worker;
    EXPECT_GE(w.busy_seconds, 0.0);
    EXPECT_GE(w.idle_seconds, 0.0);
    EXPECT_GE(w.steal_attempts, w.steals) << "worker " << w.worker;
    total_jobs += w.jobs;
  }
  // Every non-duplicate job was finished by exactly one worker.
  EXPECT_EQ(total_jobs, report.outcomes.size() - report.duplicate_jobs);
  EXPECT_EQ(report.metrics.job_latency_ns.count, total_jobs);
  EXPECT_EQ(report.metrics.job_steps.count, total_jobs);
  // The seeded-backlog anchor guarantees at least one depth sample.
  EXPECT_GE(report.metrics.queue_depth.count, 1u);
  EXPECT_GE(report.metrics.job_latency_ns.quantile(0.99),
            report.metrics.job_latency_ns.quantile(0.50));
}

TEST(BatchMetricsTable, SingleThreadNeverSteals) {
  EngineOptions opts;
  opts.num_threads = 1;
  const BatchReport report = run_batch(random_jobs(4, 6, 0.4, 777), opts);
  ASSERT_EQ(report.metrics.workers.size(), 1u);
  EXPECT_EQ(report.metrics.steals, 0u);
  EXPECT_EQ(report.metrics.workers[0].steals, 0u);
  EXPECT_EQ(report.metrics.workers[0].jobs, report.outcomes.size());
}

TEST(BatchEngine, ProgressLineNeverTouchesStdoutOrCsv) {
  const std::vector<Job> jobs = random_jobs(5, 6, 0.4, 1357);
  EngineOptions opts;
  opts.num_threads = 2;
  opts.progress = true;  // force on, bypassing the CLI's TTY gate
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const BatchReport report = run_batch(jobs, opts);
  const std::string csv =
      report_csv(report, /*include_timings=*/false, /*include_counters=*/true);
  const std::string out = testing::internal::GetCapturedStdout();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_TRUE(out.empty()) << "progress leaked to stdout: " << out;
  EXPECT_NE(err.find("[batch] 5/5"), std::string::npos) << err;
  EXPECT_NE(err.find("done in"), std::string::npos) << err;
  EXPECT_EQ(csv.find("[batch]"), std::string::npos);
  EXPECT_EQ(csv.find('\r'), std::string::npos);
  // Byte-identical to a run with the reporter off: progress is pure
  // side-channel.
  opts.progress = false;
  EXPECT_EQ(csv, report_csv(run_batch(jobs, opts), false,
                            /*include_counters=*/true));
}

TEST(BatchEngine, TimingColumnsAreOptIn) {
  const std::vector<Job> jobs = random_jobs(2, 5, 0.5, 2468);
  const BatchReport report = run_batch(jobs, {});
  const std::string plain = report_csv(report);
  const std::string timed = report_csv(report, /*include_timings=*/true);
  EXPECT_EQ(plain.find("sec_"), std::string::npos);
  EXPECT_NE(timed.find("sec_"), std::string::npos);
  EXPECT_NE(timed.find("job_seconds,worker"), std::string::npos);
}

}  // namespace
}  // namespace bddmin::engine
