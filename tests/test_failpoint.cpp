/// \file test_failpoint.cpp
/// \brief Failpoint registry semantics (modes, arming grammar, env
/// arming) and the batch engine's containment of injected faults: a
/// fault fails or degrades at most the job it hit, and every worker
/// manager comes back audit-clean.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/failpoint.hpp"
#include "bdd/truth_table.hpp"
#include "engine/engine.hpp"
#include "engine/job.hpp"
#include "engine/shard.hpp"
#include "harness/env.hpp"

namespace bddmin {
namespace {

using analysis::FailPointConfig;
using analysis::FailPointMode;
using analysis::FailPointRegistry;
using analysis::failpoints;

/// Every test leaves the process-global registry clean — armed points
/// would leak into unrelated tests in this binary.
class FailPointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoints().disarm_all();
    unsetenv("BDDMIN_FAILPOINTS");
  }
  void TearDown() override {
    failpoints().disarm_all();
    unsetenv("BDDMIN_FAILPOINTS");
  }
};

TEST_F(FailPointTest, CatalogIsStableAndSitesResolve) {
  const auto& catalog = FailPointRegistry::catalog();
  EXPECT_EQ(catalog.size(), 7u);
  for (const auto& entry : catalog) {
    // site() must resolve every cataloged name to a stable instance.
    analysis::FailPoint& a = failpoints().site(entry.name);
    analysis::FailPoint& b = failpoints().site(entry.name);
    EXPECT_EQ(&a, &b) << entry.name;
  }
}

TEST_F(FailPointTest, DisarmedPollNeverFires) {
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(failpoints().evaluate("gc_oom"));
  }
}

TEST_F(FailPointTest, OnceFiresExactlyOnceThenDisarms) {
  FailPointConfig cfg;
  cfg.mode = FailPointMode::kOnce;
  failpoints().arm("gc_oom", cfg);
  EXPECT_TRUE(failpoints().evaluate("gc_oom"));
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(failpoints().evaluate("gc_oom"));
  }
}

TEST_F(FailPointTest, NthFiresOnTheNthEvaluation) {
  FailPointConfig cfg;
  cfg.mode = FailPointMode::kNth;
  cfg.nth = 3;
  failpoints().arm("gc_oom", cfg);
  EXPECT_FALSE(failpoints().evaluate("gc_oom"));
  EXPECT_FALSE(failpoints().evaluate("gc_oom"));
  EXPECT_TRUE(failpoints().evaluate("gc_oom"));
  EXPECT_FALSE(failpoints().evaluate("gc_oom"));  // disarmed after firing
}

TEST_F(FailPointTest, RandomIsSeededAndDeterministic) {
  const auto draw_sequence = [](std::uint64_t seed) {
    FailPointConfig cfg;
    cfg.mode = FailPointMode::kRandom;
    cfg.probability = 0.5;
    cfg.seed = seed;
    failpoints().arm("gc_oom", cfg);
    std::vector<bool> fires;
    for (int i = 0; i < 64; ++i) {
      fires.push_back(static_cast<bool>(failpoints().evaluate("gc_oom")));
    }
    return fires;
  };
  const std::vector<bool> a = draw_sequence(42);
  const std::vector<bool> b = draw_sequence(42);
  EXPECT_EQ(a, b);
  // p = 0.5 over 64 draws: all-equal outcomes are astronomically unlikely,
  // and a degenerate generator would produce exactly that.
  bool saw_fire = false;
  bool saw_miss = false;
  for (const bool f : a) (f ? saw_fire : saw_miss) = true;
  EXPECT_TRUE(saw_fire);
  EXPECT_TRUE(saw_miss);
  // Random mode stays armed until disarmed.
  FailPointConfig always;
  always.mode = FailPointMode::kRandom;
  always.probability = 1.0;
  always.seed = 9;
  failpoints().arm("gc_oom", always);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(failpoints().evaluate("gc_oom"));
  }
}

TEST_F(FailPointTest, HitCarriesTheDefaultOrOverriddenPayload) {
  FailPointConfig cfg;
  cfg.mode = FailPointMode::kOnce;
  failpoints().arm("journal_commit_abort", cfg);  // catalog default: 42
  EXPECT_EQ(failpoints().evaluate("journal_commit_abort").value, 42u);
  cfg.value = 7;
  failpoints().arm("journal_commit_abort", cfg);
  EXPECT_EQ(failpoints().evaluate("journal_commit_abort").value, 7u);
}

TEST_F(FailPointTest, ArmFromSpecGrammar) {
  failpoints().arm_from_spec("gc_oom:once");
  EXPECT_TRUE(failpoints().evaluate("gc_oom"));
  failpoints().arm_from_spec("gc_oom:nth:2");
  EXPECT_FALSE(failpoints().evaluate("gc_oom"));
  EXPECT_TRUE(failpoints().evaluate("gc_oom"));
  failpoints().arm_from_spec("gc_oom:random:1.0:5");
  EXPECT_TRUE(failpoints().evaluate("gc_oom"));
  failpoints().arm_from_spec("gc_oom:off");
  EXPECT_FALSE(failpoints().evaluate("gc_oom"));

  EXPECT_THROW(failpoints().arm_from_spec("no_such_point:once"),
               std::invalid_argument);
  EXPECT_THROW(failpoints().arm_from_spec("gc_oom"), std::invalid_argument);
  EXPECT_THROW(failpoints().arm_from_spec("gc_oom:sometimes"),
               std::invalid_argument);
  EXPECT_THROW(failpoints().arm_from_spec("gc_oom:nth:zero"),
               std::invalid_argument);
  EXPECT_THROW(failpoints().arm_from_spec("gc_oom:random:nope"),
               std::invalid_argument);
}

TEST_F(FailPointTest, ArmFromEnvArmsEverySpec) {
  setenv("BDDMIN_FAILPOINTS", "gc_oom:once,journal_commit_abort:nth:2:9", 1);
  failpoints().arm_from_env();
  EXPECT_TRUE(failpoints().evaluate("gc_oom"));
  EXPECT_FALSE(failpoints().evaluate("journal_commit_abort"));
  const auto hit = failpoints().evaluate("journal_commit_abort");
  EXPECT_TRUE(hit);
  EXPECT_EQ(hit.value, 9u);
}

TEST_F(FailPointTest, MalformedEnvSpecIsAHardError) {
  setenv("BDDMIN_FAILPOINTS", "gc_oom:nonsense", 1);
  EXPECT_THROW(failpoints().arm_from_env(), harness::EnvError);
  unsetenv("BDDMIN_FAILPOINTS");
  failpoints().arm_from_env();  // unset: no-op
  EXPECT_FALSE(failpoints().evaluate("gc_oom"));
}

// ---- Centralized env parsing --------------------------------------------

TEST(EnvParsing, U64FallbackAndStrictness) {
  unsetenv("BDDMIN_NODE_LIMIT");
  EXPECT_EQ(harness::env_u64("BDDMIN_NODE_LIMIT", 77), 77u);
  setenv("BDDMIN_NODE_LIMIT", "123456", 1);
  EXPECT_EQ(harness::env_u64("BDDMIN_NODE_LIMIT", 77), 123456u);
  for (const char* bad : {"12x", "-3", "+3", " 12", "12 ", "0x10", "banana",
                          "99999999999999999999999999"}) {
    setenv("BDDMIN_NODE_LIMIT", bad, 1);
    EXPECT_THROW(static_cast<void>(harness::env_u64("BDDMIN_NODE_LIMIT", 0)),
                 harness::EnvError)
        << bad;
  }
  setenv("BDDMIN_NODE_LIMIT", "", 1);
  EXPECT_EQ(harness::env_u64("BDDMIN_NODE_LIMIT", 5), 5u);
  unsetenv("BDDMIN_NODE_LIMIT");
}

TEST(EnvParsing, StringCopiesTheValueOut) {
  setenv("BDDMIN_FAILPOINTS", "job_decode_corrupt:once", 1);
  const auto v = harness::env_string("BDDMIN_FAILPOINTS");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "job_decode_corrupt:once");
  unsetenv("BDDMIN_FAILPOINTS");
  EXPECT_FALSE(harness::env_string("BDDMIN_FAILPOINTS").has_value());
}

// ---- Engine resilience under injected faults ----------------------------

std::vector<engine::Job> small_jobs(unsigned count) {
  std::vector<engine::Job> jobs;
  const std::uint64_t mask = tt_mask(4);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (unsigned k = 0; k < count; ++k) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t f = x & mask;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    jobs.push_back(engine::make_tt_job("j" + std::to_string(k), f,
                                       (x & mask) | 1, 4));
  }
  return jobs;
}

TEST_F(FailPointTest, InjectedOomLeavesManagersAuditClean) {
  // Walk the injected allocation failure across every node-table insert
  // of a small batch: decode, each heuristic run, validation.  Wherever
  // it lands, the worker manager must come back audit-clean and only the
  // job it hit may change.  Inside the heuristic's budgeted run the job
  // degrades to a valid cover (resource-limit); outside it the job fails
  // (error) with the injected message — it is never retried, because a
  // job is a pure function of its payload.
  const std::vector<engine::Job> jobs = small_jobs(4);
  engine::EngineOptions eo;
  eo.heuristic = "restr";
  eo.num_threads = 1;
  eo.audit_level = analysis::AuditLevel::kCache;
  std::size_t degraded = 0;
  std::size_t failed = 0;
  for (int nth = 1; nth <= 80; ++nth) {
    SCOPED_TRACE("unique_insert_oom:nth:" + std::to_string(nth));
    failpoints().arm_from_spec("unique_insert_oom:nth:" + std::to_string(nth));
    const engine::BatchReport rep = engine::run_batch(jobs, eo);
    failpoints().disarm_all();
    ASSERT_EQ(rep.outcomes.size(), jobs.size());
    EXPECT_GE(rep.count(engine::JobStatus::kOk), jobs.size() - 1);
    for (const engine::JobOutcome& o : rep.outcomes) {
      EXPECT_EQ(o.audit_findings, 0u) << o.name;
      if (o.status == engine::JobStatus::kResourceLimit) {
        ++degraded;
        EXPECT_EQ(o.detail, "restr: out-of-memory") << o.name;
      } else if (o.status == engine::JobStatus::kError) {
        ++failed;
        EXPECT_NE(o.error.find("failpoint: node table"), std::string::npos)
            << o.name << ": " << o.error;
        EXPECT_NE(o.error.rfind("restr:", 0), 0u)  // never from the heuristic
            << o.name << ": " << o.error;
      }
    }
  }
  EXPECT_GT(degraded, 0u);
  EXPECT_GT(failed, 0u);
}

std::vector<std::string> csv_rows(const std::string& csv) {
  std::vector<std::string> rows;
  std::istringstream in(csv);
  for (std::string line; std::getline(in, line);) rows.push_back(line);
  return rows;
}

/// Field \p k of one report_csv row.  The sweep's names, errors and
/// details never need CSV quoting, so a plain comma split is exact.
std::string csv_field(const std::string& row, std::size_t k) {
  std::istringstream in(row);
  std::string field;
  for (std::size_t i = 0; i <= k; ++i) std::getline(in, field, ',');
  return field;
}

/// Arm every cataloged point once (except the process-killing
/// journal_commit_abort, which has its own kill-and-resume tests) over
/// the CLI's `batch --jobs 24 --vars 8 --seed 3 --audit-level 2`
/// workload.  A fault is contained: every job still gets an outcome,
/// every worker manager stays audit-clean, and at most the one job the
/// fault hit changes — to `error` or `resource-limit`, with a diagnostic
/// that names the injected fault.
TEST_F(FailPointTest, EachPointArmedOnceChangesAtMostTheJobItHit) {
  const std::vector<engine::Job> jobs = engine::random_jobs(24, 8, 0.3, 3);
  engine::EngineOptions eo;
  eo.num_threads = 4;
  eo.audit_level = analysis::AuditLevel::kRefcount;
  eo.shard_cost = engine::kDefaultShardCost;
  const std::vector<std::string> base =
      csv_rows(engine::report_csv(engine::run_batch(jobs, eo)));
  ASSERT_EQ(base.size(), jobs.size() + 1);
  for (const auto& entry : FailPointRegistry::catalog()) {
    const std::string name = entry.name;
    if (name == "journal_commit_abort") continue;
    SCOPED_TRACE(name);
    failpoints().arm_from_spec(name + ":once");
    const engine::BatchReport rep = engine::run_batch(jobs, eo);
    failpoints().disarm_all();
    ASSERT_EQ(rep.outcomes.size(), jobs.size());
    for (const engine::JobOutcome& o : rep.outcomes) {
      EXPECT_EQ(o.audit_findings, 0u) << o.name << ": " << o.error;
    }
    const std::vector<std::string> rows = csv_rows(engine::report_csv(rep));
    ASSERT_EQ(rows.size(), base.size());
    EXPECT_EQ(rows[0], base[0]);
    std::size_t differing = 0;
    for (std::size_t r = 1; r < rows.size(); ++r) {
      if (rows[r] == base[r]) continue;
      ++differing;
      const std::string status = csv_field(rows[r], 3);
      const std::string diagnostic =
          csv_field(rows[r], 10) + " " + csv_field(rows[r], 11);
      if (status == "error") {
        EXPECT_TRUE(diagnostic.find("failpoint") != std::string::npos ||
                    diagnostic.find("injected") != std::string::npos)
            << rows[r];
      } else {
        EXPECT_EQ(status, "resource-limit") << rows[r];
        EXPECT_NE(diagnostic.find("out-of-memory"), std::string::npos)
            << rows[r];
      }
    }
    EXPECT_LE(differing, 1u);
  }
}

}  // namespace
}  // namespace bddmin
