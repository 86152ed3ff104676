/// \file test_audit.cpp
/// \brief BddAudit: clean managers pass every tier; every seeded
/// corruption class is detected by the pass that claims to cover it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <stdexcept>
#include <vector>

#include "analysis/access.hpp"
#include "analysis/audit.hpp"
#include "analysis/cover_audit.hpp"
#include "analysis/mutate.hpp"
#include "bdd/bdd.hpp"
#include "bdd/ops.hpp"
#include "harness/env.hpp"
#include "minimize/registry.hpp"
#include "workload/instances.hpp"

namespace bddmin {
namespace {

using analysis::AuditLevel;
using analysis::AuditOptions;
using analysis::AuditReport;
using analysis::Category;
using analysis::Mutation;

/// A busy little manager: pinned random functions plus cache traffic.
std::vector<Bdd> populate(Manager& mgr, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Bdd> roots;
  for (int k = 0; k < 4; ++k) {
    roots.emplace_back(mgr,
                       workload::random_function(mgr, mgr.num_vars(), 0.4, rng));
  }
  roots.emplace_back(mgr, mgr.xor_(roots[0].edge(), roots[1].edge()));
  roots.emplace_back(mgr, mgr.ite(roots[2].edge(), roots[3].edge(),
                                  roots[0].edge()));
  return roots;
}

AuditReport full_audit(Manager& mgr) {
  AuditOptions opts;
  opts.level = AuditLevel::kCache;
  return analysis::audit_manager(mgr, opts);
}

TEST(Audit, CleanManagerPassesAllTiers) {
  Manager mgr(8);
  const std::vector<Bdd> roots = populate(mgr, 11);
  AuditReport report = full_audit(mgr);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.nodes_checked, 0u);
  EXPECT_GT(report.cache_entries_checked, 0u);
  EXPECT_GT(report.cache_replays, 0u);
}

TEST(Audit, CleanAfterGcAndSifting) {
  Manager mgr(8);
  std::vector<Bdd> roots = populate(mgr, 13);
  roots.resize(roots.size() / 2);  // orphan some functions
  mgr.garbage_collect();
  EXPECT_TRUE(full_audit(mgr).ok());
  mgr.reorder_sift();
  AuditReport report = full_audit(mgr);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Audit, StaleCacheEntriesAreLegal) {
  Manager mgr(6);
  const std::vector<Bdd> roots = populate(mgr, 17);
  mgr.clear_caches();  // every cached entry now carries an old epoch
  AuditReport report = full_audit(mgr);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.cache_replays, 0u);
}

TEST(Audit, FlippedAgreeVerdictIsReported) {
  Manager mgr(8);
  const std::vector<Bdd> roots = populate(mgr, 59);
  // blend equals roots[0] on roots[2]: a true verdict, recursed and cached.
  const Edge blend = mgr.ite(roots[2].edge(), roots[0].edge(), roots[1].edge());
  ASSERT_TRUE(mgr.agree(roots[0].edge(), blend, roots[2].edge()));
  (void)mgr.agree(roots[0].edge(), roots[1].edge(), roots[3].edge());
  ASSERT_TRUE(full_audit(mgr).ok());
  // Flip the first live kAgree verdict found.
  auto& sets = analysis::ManagerAccess::cache(mgr);
  const std::uint64_t epoch = analysis::ManagerAccess::cache_epoch(mgr);
  bool flipped = false;
  for (std::size_t i = 0; i < sets.size() * 2 && !flipped; ++i) {
    auto& slot = sets[i >> 1].way[i & 1];
    if (slot.k1 == ~0ull || slot.epoch != epoch ||
        (slot.k1 >> 32) != analysis::ManagerAccess::op_agree()) {
      continue;
    }
    slot.result = !slot.result;
    flipped = true;
  }
  ASSERT_TRUE(flipped) << "no live kAgree entry to flip";
  AuditReport report = full_audit(mgr);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Category::kCache)) << report.summary();
}

TEST(Audit, ExactRootsAccountForEveryExternalRef) {
  Manager mgr(8);
  const std::vector<Bdd> pinned = populate(mgr, 19);
  std::vector<Edge> roots;
  for (const Bdd& b : pinned) roots.push_back(b.edge());
  AuditOptions opts;
  opts.level = AuditLevel::kRefcount;
  opts.roots = roots;
  opts.exact_roots = true;
  EXPECT_TRUE(analysis::audit_manager(mgr, opts).ok());

  // A reference the root registry does not know about is a leak.
  mgr.ref(pinned.back().edge());
  AuditReport leaked = analysis::audit_manager(mgr, opts);
  EXPECT_FALSE(leaked.ok());
  EXPECT_TRUE(leaked.has(Category::kRefCount)) << leaked.summary();
  mgr.deref(pinned.back().edge());
}

TEST(Audit, CleanAfterEveryRegisteredHeuristic) {
  for (const auto& h : minimize::all_heuristics()) {
    Manager mgr(8);
    std::mt19937_64 rng(23);
    const minimize::IncSpec spec = workload::random_instance(mgr, 8, 0.5, rng);
    const Bdd f(mgr, spec.f);
    const Bdd c(mgr, spec.c);
    const Bdd g(mgr, h.run(mgr, spec.f, spec.c));
    AuditReport report = full_audit(mgr);
    EXPECT_TRUE(report.ok()) << h.name << ":\n" << report.summary();
    AuditReport covers;
    analysis::audit_cover(mgr, f.edge(), c.edge(), g.edge(), h.name, covers);
    EXPECT_TRUE(covers.ok()) << covers.summary();
  }
}

TEST(Audit, EveryMutationClassIsDetected) {
  for (const Mutation m :
       {Mutation::kComplementFlip, Mutation::kSubtableUnlink,
        Mutation::kStaleCache, Mutation::kRefSkew, Mutation::kCountSkew}) {
    Manager mgr(8);
    const std::vector<Bdd> roots = populate(mgr, 29);
    ASSERT_TRUE(full_audit(mgr).ok());
    const analysis::MutationResult injected = analysis::inject(mgr, m);
    ASSERT_TRUE(injected.applied) << analysis::mutation_name(m);
    AuditReport report = full_audit(mgr);
    EXPECT_FALSE(report.ok()) << analysis::mutation_name(m)
                              << " went undetected";
    EXPECT_TRUE(report.has(analysis::mutation_audit_category(m)))
        << analysis::mutation_name(m) << " detected, but not by its own "
        << "category:\n" << report.summary();
  }
}

TEST(Audit, MutationSeedVariesTheTarget) {
  Manager a(8);
  Manager b(8);
  const std::vector<Bdd> ra = populate(a, 31);
  const std::vector<Bdd> rb = populate(b, 31);
  const auto da = analysis::inject(a, Mutation::kComplementFlip, 0);
  const auto db = analysis::inject(b, Mutation::kComplementFlip, 5);
  ASSERT_TRUE(da.applied && db.applied);
  EXPECT_NE(da.description, db.description);
}

TEST(Audit, CoverContractViolationsCarryWitnesses) {
  Manager mgr(4);
  const Bdd f(mgr, mgr.var_edge(0));
  // g = !f with full care: both bounds are violated.
  AuditReport report;
  analysis::audit_cover(mgr, f.edge(), kOne, !f.edge(), "bad", report);
  ASSERT_EQ(report.findings.size(), 2u);
  EXPECT_TRUE(report.has(Category::kCover));
  EXPECT_NE(report.findings[0].message.find("x0="), std::string::npos)
      << report.summary();
}

TEST(Audit, HeuristicContractsPassOnRealInstances) {
  Manager mgr(6);
  std::mt19937_64 rng(37);
  const minimize::IncSpec spec = workload::random_instance(mgr, 6, 0.4, rng);
  AuditReport report = analysis::audit_heuristic_contracts(
      mgr, spec.f, spec.c, minimize::all_heuristics());
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.covers_checked, minimize::all_heuristics().size());
}

TEST(Audit, CheckInvariantsWrapperCoversTheOldChecks) {
  Manager mgr(6);
  const std::vector<Bdd> roots = populate(mgr, 41);
  EXPECT_NO_THROW(mgr.check_invariants());
  analysis::inject(mgr, Mutation::kComplementFlip);
  EXPECT_THROW(mgr.check_invariants(), std::logic_error);
}

TEST(Audit, CheckInvariantsCoversTheAccountingGap) {
  // The historical check only compared live+dead to the chain totals; a
  // sum-preserving skew slipped through.  The folded-in tier-2 audit
  // recomputes both counters from actual refs.
  Manager mgr(6);
  std::vector<Bdd> roots = populate(mgr, 43);
  roots.pop_back();  // orphan a root so dead nodes definitely exist
  ASSERT_GT(mgr.dead_nodes(), 0u);  // so the skew preserves live+dead
  analysis::inject(mgr, Mutation::kCountSkew);
  EXPECT_THROW(mgr.check_invariants(), std::logic_error);
}

TEST(Audit, CheckInvariantsCoversRefSkew) {
  Manager mgr(6);
  const std::vector<Bdd> roots = populate(mgr, 47);
  ASSERT_TRUE(analysis::inject(mgr, Mutation::kRefSkew).applied);
  EXPECT_THROW(mgr.check_invariants(), std::logic_error);
}

TEST(Audit, FindingCapSuppressesButCounts) {
  Manager mgr(8);
  const std::vector<Bdd> roots = populate(mgr, 53);
  AuditOptions opts;
  opts.level = AuditLevel::kRefcount;
  opts.max_findings = 1;
  // Corrupt twice so at least two findings exist.
  analysis::inject(mgr, Mutation::kComplementFlip, 0);
  analysis::inject(mgr, Mutation::kComplementFlip, 3);
  AuditReport report = analysis::audit_manager(mgr, opts);
  EXPECT_EQ(report.findings.size(), 1u);
  EXPECT_GT(report.suppressed, 0u);
}

TEST(Audit, EnvKnobParsesAndClamps) {
  const auto with_env = [](const char* value) {
    if (value == nullptr) {
      unsetenv("BDDMIN_AUDIT_LEVEL");
    } else {
      setenv("BDDMIN_AUDIT_LEVEL", value, 1);
    }
    return analysis::audit_level_from_env();
  };
  EXPECT_EQ(with_env(nullptr), AuditLevel::kOff);
  EXPECT_EQ(with_env("0"), AuditLevel::kOff);
  EXPECT_EQ(with_env("2"), AuditLevel::kRefcount);
  EXPECT_EQ(with_env("4"), AuditLevel::kCover);
  EXPECT_EQ(with_env("99"), AuditLevel::kCover);
  // Malformed values are a hard error (see harness/env.hpp), not a silent
  // audit-nothing default.
  EXPECT_THROW(static_cast<void>(with_env("banana")), harness::EnvError);
  unsetenv("BDDMIN_AUDIT_LEVEL");
}

TEST(Audit, MutationNamesRoundTrip) {
  for (const Mutation m :
       {Mutation::kComplementFlip, Mutation::kSubtableUnlink,
        Mutation::kStaleCache, Mutation::kRefSkew, Mutation::kCountSkew}) {
    EXPECT_EQ(analysis::mutation_from_name(analysis::mutation_name(m)), m);
  }
  EXPECT_THROW(static_cast<void>(analysis::mutation_from_name("nope")),
               std::invalid_argument);
}

}  // namespace
}  // namespace bddmin
