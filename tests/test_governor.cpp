/// \file test_governor.cpp
/// \brief Resource governance: each limit class trips mid-operation, the
/// abort leaves the manager audit-clean and reusable (strong guarantee),
/// re-running with a larger budget reproduces the untripped result, and the
/// batch engine degrades gracefully — kResourceLimit with a valid fallback
/// cover, deterministic CSV, optional retry on a cheaper heuristic.
#include "bdd/governor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "analysis/audit.hpp"
#include "bdd/bdd.hpp"
#include "bdd/ops.hpp"
#include "bdd/truth_table.hpp"
#include "engine/engine.hpp"
#include "engine/job.hpp"
#include "minimize/registry.hpp"
#include "workload/instances.hpp"

namespace bddmin {
namespace {

// A moderately busy 6-var workload: enough distinct nodes to trip small
// quotas, small enough to compare by truth table.
Edge busy_build(Manager& mgr) {
  Edge f = from_tt(mgr, 0x5b93'c2a7'0f1e'6d48ull, 6);
  const Edge g = from_tt(mgr, 0x1234'5678'9abc'def0ull, 6);
  const Edge h = from_tt(mgr, 0xfedc'ba98'7654'3210ull, 6);
  f = mgr.xor_(f, mgr.and_(g, h));
  return mgr.or_(f, mgr.xnor_(g, mgr.var_edge(3)));
}

TEST(Governor, LimitClassNamesAndHierarchy) {
  EXPECT_STREQ(limit_class_name(LimitClass::kNodeLimit), "node-limit");
  EXPECT_STREQ(limit_class_name(LimitClass::kStepLimit), "step-limit");
  EXPECT_STREQ(limit_class_name(LimitClass::kDeadline), "deadline");
  EXPECT_STREQ(limit_class_name(LimitClass::kOutOfMemory), "out-of-memory");

  const NodeLimit nl(100, 64);
  EXPECT_EQ(nl.limit_class(), LimitClass::kNodeLimit);
  EXPECT_NE(std::string(nl.what()).find("64"), std::string::npos);
  const StepLimit sl(7);
  EXPECT_EQ(sl.limit_class(), LimitClass::kStepLimit);
  const Deadline dl(0.5);
  EXPECT_EQ(dl.limit_class(), LimitClass::kDeadline);
  const OutOfMemory oom("node table", 4096);
  EXPECT_EQ(oom.limit_class(), LimitClass::kOutOfMemory);
  EXPECT_EQ(oom.requested_bytes(), 4096u);
  EXPECT_NE(std::string(oom.what()).find("node table"), std::string::npos);

  // All four are catchable as the base class.
  EXPECT_THROW(throw NodeLimit(2, 1), ResourceExhausted);
  EXPECT_THROW(throw OutOfMemory("x", 1), ResourceExhausted);
}

TEST(Governor, OversizedCacheRequestThrowsOutOfMemory) {
  // 2^40 cache slots can never be satisfied; the constructor must refuse
  // with the typed exception (not a raw bad_alloc / length_error).
  try {
    Manager mgr(4, 40);
    FAIL() << "constructor accepted a 2^40-slot cache";
  } catch (const OutOfMemory& e) {
    EXPECT_GT(e.requested_bytes(), std::size_t{1} << 40);
  }
  // A sane request still works afterwards.
  Manager ok(4, 10);
  EXPECT_EQ(ok.xor_(ok.var_edge(0), ok.var_edge(0)), kZero);
}

TEST(Governor, HardNodeQuotaTripsAndManagerRecovers) {
  Manager mgr(6);
  const std::size_t base = mgr.allocated_nodes();
  ResourceLimits lim;
  lim.hard_node_limit = base + 6;
  mgr.governor().set_limits(lim);
  EXPECT_THROW((void)busy_build(mgr), NodeLimit);
  mgr.governor().clear();

  // Strong guarantee: the surviving manager passes the structural and
  // ref-count audit tiers, the aborted partials are dead, and GC reclaims
  // them completely.
  analysis::AuditOptions aopts;
  aopts.level = analysis::AuditLevel::kRefcount;
  const analysis::AuditReport report = analysis::audit_manager(mgr, aopts);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(mgr.dead_nodes(), 0u);
  mgr.garbage_collect();
  EXPECT_EQ(mgr.dead_nodes(), 0u);

  // Reuse: re-running unlimited in the *same* manager yields exactly what a
  // fresh manager computes.
  const Edge g = busy_build(mgr);
  Manager fresh(6);
  EXPECT_EQ(to_tt(mgr, g, 6), to_tt(fresh, busy_build(fresh), 6));
}

TEST(Governor, StepLimitIsDeterministic) {
  // Measure the untripped step count, then show limit = used succeeds while
  // limit = used - 1 trips — the budget is an exact, repeatable work meter.
  Manager probe(6);
  ResourceLimits watch;
  watch.step_limit = ~std::uint64_t{0};
  probe.governor().set_limits(watch);
  (void)busy_build(probe);
  const std::uint64_t used = probe.governor().steps_used();
  ASSERT_GT(used, 1u);

  Manager exact(6);
  ResourceLimits lim;
  lim.step_limit = used;
  exact.governor().set_limits(lim);
  EXPECT_NO_THROW((void)busy_build(exact));
  EXPECT_EQ(exact.governor().steps_used(), used);

  Manager tight(6);
  lim.step_limit = used - 1;
  tight.governor().set_limits(lim);
  EXPECT_THROW((void)busy_build(tight), StepLimit);
}

TEST(Governor, ExpiredDeadlineTripsOnFirstStep) {
  Manager mgr(6);
  ResourceLimits lim;
  lim.deadline_seconds = 1e-12;  // expired before the operation starts
  mgr.governor().set_limits(lim);
  // The poll fires at steps % interval == 1, i.e. on the very first
  // memoization miss — no need to burn thousands of steps first.
  EXPECT_THROW((void)mgr.and_(mgr.var_edge(0), mgr.var_edge(1)), Deadline);
  mgr.governor().clear();
  EXPECT_EQ(mgr.and_(mgr.var_edge(0), kOne), mgr.var_edge(0));
}

TEST(Governor, PeakLiveNodeTrackingSurvivesGc) {
  Manager mgr(6);
  std::size_t peak_seen = 0;
  {
    const Bdd pinned(mgr, busy_build(mgr));
    peak_seen = mgr.governor().peak_live_nodes();
    EXPECT_GE(peak_seen, mgr.live_nodes());
    EXPECT_GT(peak_seen, 1u);
  }
  mgr.garbage_collect();
  // Telemetry is a high-water mark: collection cannot lower it.
  EXPECT_EQ(mgr.governor().peak_live_nodes(), peak_seen);
}

TEST(Governor, RunBudgetedRestoresOuterLimits) {
  Manager mgr(6);
  // Pinned: the trip's recovery garbage-collects.
  const Bdd f(mgr, busy_build(mgr));
  const Bdd c(mgr, mgr.var_edge(2));

  ResourceLimits outer;
  outer.hard_node_limit = std::size_t{1} << 20;
  mgr.governor().set_limits(outer);

  const minimize::Heuristic osm =
      minimize::heuristic_by_name(minimize::all_heuristics(), "osm_td");
  ResourceLimits inner;
  inner.step_limit = 1;
  EXPECT_THROW((void)minimize::run_budgeted(mgr, osm, inner, f.edge(), c.edge()),
               StepLimit);
  // The outer scope's limits are back on the throw path, and the trip's
  // partial results were reclaimed.
  EXPECT_EQ(mgr.governor().limits().hard_node_limit, outer.hard_node_limit);
  EXPECT_EQ(mgr.governor().limits().step_limit, 0u);
  EXPECT_EQ(mgr.dead_nodes(), 0u);

  // ... and on the normal path.
  inner.step_limit = 0;
  const Edge g = minimize::run_budgeted(mgr, osm, inner, f.edge(), c.edge());
  EXPECT_TRUE(minimize::is_cover(mgr, g, {f.edge(), c.edge()}));
  EXPECT_EQ(mgr.governor().limits().hard_node_limit, outer.hard_node_limit);
}

// ---- Batch engine degradation -------------------------------------------

/// An instance whose minimization must blow through a 10k-node quota: the
/// bit-by-bit equality a == b under the interleaving-hostile order
/// a0..a(n-1) b0..b(n-1) needs ~2^n nodes at the block boundary.
engine::Job adversarial_job(unsigned half) {
  Manager src(2 * half, 16);
  Edge f = kOne;
  for (unsigned i = 0; i < half; ++i) {
    f = src.and_(f, src.xnor_(src.var_edge(i), src.var_edge(half + i)));
  }
  Edge c = kZero;
  for (unsigned i = 0; i < half; ++i) c = src.xor_(c, src.var_edge(i));
  return engine::make_job(src, "eq" + std::to_string(half),
                          minimize::IncSpec{f, c});
}

TEST(GovernorEngine, AdversarialJobDegradesToResourceLimit) {
  const std::vector<engine::Job> jobs = {adversarial_job(13)};
  engine::EngineOptions opts;
  opts.num_threads = 1;
  opts.node_limit = 10'000;
  opts.cache_log2 = 14;
  opts.audit_level = analysis::AuditLevel::kRefcount;  // tier 2 after abort

  std::string baseline;
  for (const unsigned threads : {1u, 2u, 8u}) {
    opts.num_threads = threads;
    const engine::BatchReport report = engine::run_batch(jobs, opts);
    ASSERT_EQ(report.outcomes.size(), 1u);
    const engine::JobOutcome& o = report.outcomes.front();
    // Degraded, not failed: every cover is validated, so kResourceLimit also
    // certifies every reported cover satisfies f·c <= g <= f + c̄.
    EXPECT_EQ(o.status, engine::JobStatus::kResourceLimit) << o.error;
    EXPECT_TRUE(o.error.empty()) << o.error;
    EXPECT_NE(o.detail.find("node-limit"), std::string::npos) << o.detail;
    // The manager passed the tier-2 audit after the aborts.
    EXPECT_EQ(o.audit_findings, 0u);
    EXPECT_GT(o.peak_live, 0u);
    EXPECT_GE(o.min_size, 1u);
    const std::string csv = engine::report_csv(report);
    EXPECT_NE(csv.find("resource-limit"), std::string::npos);
    if (baseline.empty()) {
      baseline = csv;
    } else {
      EXPECT_EQ(csv, baseline) << "CSV diverged at " << threads << " threads";
    }
  }
}

TEST(GovernorEngine, AdversarialJobsUnderATinyDeadline) {
  // A job deadline swept from 1 us to 10 ms: a job may finish, time out
  // between heuristics, or degrade on the in-flight deadline — nothing
  // else, and a degraded manager must still audit clean.  Which of the
  // three happens is wall-clock dependent, so none of them is required.
  std::vector<engine::Job> jobs;
  for (unsigned half = 6; half <= 13; ++half) {
    jobs.push_back(adversarial_job(half));
  }
  engine::EngineOptions opts;
  opts.num_threads = 2;
  opts.heuristics = {
      minimize::heuristic_by_name(minimize::all_heuristics(), "osm_td")};
  opts.audit_level = analysis::AuditLevel::kRefcount;
  for (const double timeout : {1e-6, 1e-5, 1e-4, 1e-3, 1e-2}) {
    opts.job_timeout_seconds = timeout;
    const engine::BatchReport report = engine::run_batch(jobs, opts);
    ASSERT_EQ(report.outcomes.size(), jobs.size());
    const std::string csv = engine::report_csv(report);
    // The header plus one row per job.
    const auto rows = std::count(csv.begin(), csv.end(), '\n');
    EXPECT_EQ(static_cast<std::size_t>(rows), jobs.size() + 1) << csv;
    for (const engine::JobOutcome& o : report.outcomes) {
      EXPECT_TRUE(o.status == engine::JobStatus::kOk ||
                  o.status == engine::JobStatus::kTimeout ||
                  o.status == engine::JobStatus::kResourceLimit)
          << o.name << " at " << timeout << " s: "
          << engine::job_status_name(o.status) << " " << o.error;
      if (o.status == engine::JobStatus::kResourceLimit) {
        EXPECT_NE(o.detail.find("deadline"), std::string::npos) << o.detail;
      }
      EXPECT_EQ(o.audit_findings, 0u) << o.name << " at " << timeout << " s";
    }
  }
}

TEST(GovernorEngine, BudgetExhaustionRetriesOnFallbackHeuristic) {
  Manager src(6, 12);
  const minimize::IncSpec spec = workload::random_instance(src, 6, 0.4, 99u);
  const std::vector<engine::Job> jobs = {
      engine::make_job(src, "fallback", spec)};

  engine::EngineOptions opts;
  opts.num_threads = 1;
  opts.step_limit = 2;  // every real heuristic trips almost immediately
  opts.heuristics = {
      minimize::heuristic_by_name(minimize::all_heuristics(), "osm_td")};
  // f_orig takes zero steps: it always fits the budget.
  opts.fallback_heuristic =
      minimize::heuristic_by_name(minimize::all_heuristics(), "f_orig");
  const engine::BatchReport report = engine::run_batch(jobs, opts);
  ASSERT_EQ(report.outcomes.size(), 1u);
  const engine::JobOutcome& o = report.outcomes.front();
  EXPECT_EQ(o.status, engine::JobStatus::kResourceLimit) << o.error;
  EXPECT_NE(o.detail.find("osm_td: step-limit"), std::string::npos)
      << o.detail;
  EXPECT_NE(o.detail.find("retried on f_orig"), std::string::npos)
      << o.detail;
  // f_orig returns f itself, so the degraded slot reports |f|.
  ASSERT_EQ(o.results.size(), 1u);
  EXPECT_EQ(o.results.front().size, o.f_size);
}

TEST(GovernorEngine, TinyQuotaBatchNeverReportsErrors) {
  const std::vector<engine::Job> jobs = engine::random_jobs(10, 6, 0.35, 510);
  engine::EngineOptions opts;
  opts.num_threads = 2;
  opts.node_limit = 48;  // most heuristics trip; some trivial ones fit
  opts.audit_level = analysis::AuditLevel::kRefcount;
  const engine::BatchReport report = engine::run_batch(jobs, opts);
  for (const engine::JobOutcome& o : report.outcomes) {
    EXPECT_TRUE(o.status == engine::JobStatus::kOk ||
                o.status == engine::JobStatus::kResourceLimit)
        << o.name << ": " << engine::job_status_name(o.status) << " "
        << o.error;
    EXPECT_EQ(o.audit_findings, 0u) << o.name;
  }
  EXPECT_EQ(report.count(engine::JobStatus::kError), 0u);
}

TEST(Governor, ReorderUnderHardNodeQuotaKeepsTableConsistent) {
  // Regression for the mid-swap tear, also pinned as a walk schedule by
  // StressWalk.QuotaTearScheduleStaysClean: NodeLimit used to fire
  // from unique_insert inside swap_adjacent_levels *after* the order maps
  // had flipped, tearing the table ("hi child at or above parent level"
  // audit findings).  Quotas are now suspended for the duration of a swap
  // (NodeQuotaSuspension) and re-enforced between swaps, so sifting under
  // a quota either finishes or aborts at a consistent boundary.
  Manager mgr(6, 10);
  const std::uint64_t tt_f = 0x6996'9669'9669'6996ull;  // parity: all vars
  const std::uint64_t tt_g = 0x5b93'c2a7'0f1e'6d48ull;  // interact
  const Bdd f(mgr, from_tt(mgr, tt_f, 6));
  const Bdd g(mgr, from_tt(mgr, tt_g, 6));

  ResourceLimits lim;
  lim.hard_node_limit = mgr.allocated_nodes() + 1;  // trips on first growth
  mgr.governor().set_limits(lim);
  try {
    (void)mgr.reorder_sift();
  } catch (const NodeLimit&) {
    // Aborting between swaps is fine; tearing the table is what this
    // test forbids.
  }
  mgr.governor().clear();

  analysis::AuditOptions aopts;
  aopts.level = analysis::AuditLevel::kRefcount;
  const analysis::AuditReport report = analysis::audit_manager(mgr, aopts);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(to_tt(mgr, f.edge(), 6), tt_f);
  EXPECT_EQ(to_tt(mgr, g.edge(), 6), tt_g);
}

/// Every registered minimizer: the paper's twelve from all_heuristics()
/// plus the scheduler, the mixed-criterion matcher and a Proposition 6
/// fallback wrapper — the same 15 the batch engine dispatches by name.
std::vector<minimize::Heuristic> registered_heuristics() {
  std::vector<minimize::Heuristic> set = minimize::all_heuristics();
  set.push_back(minimize::scheduler_heuristic());
  set.push_back(minimize::mixed_heuristic());
  set.push_back(
      minimize::with_fallback(minimize::heuristic_by_name(set, "tsm_td")));
  return set;
}

TEST(Governor, AbortResetReuseCycleUnderEveryRegisteredHeuristic) {
  // One pooled manager is driven through the full governed lifecycle by
  // every registered heuristic in turn: trip a one-step budget
  // mid-minimization, verify the survivor is audit-clean, Manager::reset()
  // it (the engine's pooling path), rerun unlimited in the recycled
  // manager, and demand the exact result a fresh manager computes.
  constexpr unsigned kVars = 6;
  constexpr std::uint64_t kF = 0x5b93'c2a7'0f1e'6d48ull;
  constexpr std::uint64_t kC = 0x0ff0'0f0f'33cc'55aaull;
  const std::uint64_t care_mask = tt_mask(kVars);

  Manager pooled(kVars, 10);
  std::size_t tripped = 0;
  for (const minimize::Heuristic& h : registered_heuristics()) {
    {
      const Bdd f(pooled, from_tt(pooled, kF, kVars));
      const Bdd c(pooled, from_tt(pooled, kC, kVars));
      ResourceLimits lim;
      lim.step_limit = 1;  // trivial heuristics may fit; real ones trip
      pooled.governor().set_limits(lim);
      try {
        (void)h.run(pooled, f.edge(), c.edge());
      } catch (const ResourceExhausted&) {
        ++tripped;
      }
      pooled.governor().clear();

      analysis::AuditOptions aopts;
      aopts.level = analysis::AuditLevel::kRefcount;
      const analysis::AuditReport post = analysis::audit_manager(pooled, aopts);
      EXPECT_TRUE(post.ok()) << h.name << " after abort: " << post.summary();
    }  // pins die before the reset below

    pooled.reset(kVars);
    std::uint64_t got = 0;
    {
      const Bdd f2(pooled, from_tt(pooled, kF, kVars));
      const Bdd c2(pooled, from_tt(pooled, kC, kVars));
      got = to_tt(pooled, h.run(pooled, f2.edge(), c2.edge()), kVars);
    }  // pins must not outlive the reset that opens the next cycle

    Manager fresh(kVars, 10);
    const Bdd f3(fresh, from_tt(fresh, kF, kVars));
    const Bdd c3(fresh, from_tt(fresh, kC, kVars));
    const std::uint64_t want =
        to_tt(fresh, h.run(fresh, f3.edge(), c3.edge()), kVars);

    EXPECT_EQ(got, want) << h.name << ": recycled manager diverged";
    EXPECT_EQ((got ^ kF) & kC & care_mask, 0u)
        << h.name << ": result disagrees with f on the care set";
    pooled.reset(kVars);  // next heuristic starts from the pooled state
  }
  // The budget must have real teeth: the overwhelming majority of the 15
  // perform work and trip a one-step budget on this instance.
  EXPECT_GE(tripped, 10u);
}

TEST(GovernorEngine, EnvVariablesSupplyDefaultLimits) {
  Manager src(6, 12);
  const minimize::IncSpec spec = workload::random_instance(src, 6, 0.4, 7u);
  const std::vector<engine::Job> jobs = {engine::make_job(src, "env", spec)};

  engine::EngineOptions opts;
  opts.num_threads = 1;
  opts.heuristics = {
      minimize::heuristic_by_name(minimize::all_heuristics(), "osm_td")};
  ASSERT_EQ(::setenv("BDDMIN_STEP_LIMIT", "2", 1), 0);
  const engine::BatchReport limited = engine::run_batch(jobs, opts);
  ASSERT_EQ(::unsetenv("BDDMIN_STEP_LIMIT"), 0);
  const engine::BatchReport unlimited = engine::run_batch(jobs, opts);

  ASSERT_EQ(limited.outcomes.size(), 1u);
  EXPECT_EQ(limited.outcomes.front().status,
            engine::JobStatus::kResourceLimit);
  EXPECT_NE(limited.outcomes.front().detail.find("step-limit"),
            std::string::npos);
  // An explicit option overrides the environment; without either the same
  // batch is clean.
  EXPECT_EQ(unlimited.outcomes.front().status, engine::JobStatus::kOk)
      << unlimited.outcomes.front().error;
}

}  // namespace
}  // namespace bddmin
