/// \file test_kernels.cpp
/// \brief Specialized apply kernels and the adaptive computed cache:
/// differential tests of and_kernel/xor_kernel (and every connective
/// rerouted onto them) against the ITE oracle, the early-exit
/// leq/disjoint/agree predicates, simulation signatures against point
/// evaluation, Manager::reset() reuse, and the cache-growth invariant
/// (results survive a mid-recursion resize).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <utility>
#include <vector>

#include "analysis/audit.hpp"
#include "bdd/bdd.hpp"
#include "bdd/manager.hpp"
#include "bdd/ops.hpp"
#include "bdd/truth_table.hpp"
#include "telemetry/counters.hpp"
#include "workload/instances.hpp"

namespace bddmin {
namespace {

/// The ITE oracle for AND: the standard-triple path ite() does not route
/// through the kernels, so it is an independent reference.
Edge ite_and(Manager& mgr, Edge f, Edge g) { return mgr.ite(f, g, kZero); }
Edge ite_xor(Manager& mgr, Edge f, Edge g) { return mgr.ite(f, !g, g); }
/// The product-building oracle for agree(f, g, c): (f XOR g)·c == 0.
bool ite_agree(Manager& mgr, Edge f, Edge g, Edge c) {
  return ite_and(mgr, ite_xor(mgr, f, g), c) == kZero;
}

/// Checks bit i of signature(f) against f evaluated at pattern i, where
/// pattern i gives variable v bit i of signature(x_v).
void expect_signature_is_point_evaluation(Manager& mgr, Edge f) {
  std::vector<std::uint64_t> word(mgr.num_vars());
  for (std::uint32_t v = 0; v < mgr.num_vars(); ++v) {
    word[v] = mgr.signature(mgr.var_edge(v));
  }
  const std::uint64_t sig = mgr.signature(f);
  EXPECT_EQ(mgr.signature(!f), ~sig);
  std::vector<bool> assignment(mgr.num_vars());
  for (unsigned i = 0; i < 64; ++i) {
    for (std::uint32_t v = 0; v < mgr.num_vars(); ++v) {
      assignment[v] = (word[v] >> i) & 1u;
    }
    ASSERT_EQ(eval(mgr, f, assignment), ((sig >> i) & 1u) != 0)
        << "pattern " << i;
  }
}

/// Node slots reachable from \p f.
void collect_slots(const Manager& mgr, Edge f, std::vector<std::uint32_t>& out) {
  if (Manager::is_const(f)) return;
  if (std::find(out.begin(), out.end(), f.index()) != out.end()) return;
  out.push_back(f.index());
  collect_slots(mgr, mgr.hi_of(f), out);
  collect_slots(mgr, mgr.lo_of(f), out);
}

/// Semantic 64-bit fingerprint of an n-variable function: FNV-1a over the
/// value at every one of the 2^n assignments.  Unlike to_tt this is valid
/// for n > kMaxTtVars (the test used to funnel 12-variable functions
/// through to_tt, whose 1ull << m wrapped past bit 63 — shift UB that
/// silently degraded the comparison to an OR-fold; to_tt now enforces its
/// contract, and this helper is both well-defined and strictly stronger).
std::uint64_t eval_fingerprint(const Manager& mgr, Edge f, unsigned n) {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  std::vector<bool> assignment(mgr.num_vars(), false);
  for (std::uint64_t m = 0; m < (1ull << n); ++m) {
    for (unsigned v = 0; v < n; ++v) assignment[v] = (m >> v) & 1;
    h ^= static_cast<std::uint64_t>(eval(mgr, f, assignment));
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

TEST(Kernels, ExhaustiveThreeVariablePairsMatchIteOracle) {
  Manager mgr(3);
  std::vector<Edge> fn(256);
  for (unsigned tt = 0; tt < 256; ++tt) fn[tt] = from_tt(mgr, tt, 3);
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      const Edge f = fn[a];
      const Edge g = fn[b];
      ASSERT_EQ(mgr.and_(f, g), ite_and(mgr, f, g)) << a << " & " << b;
      ASSERT_EQ(mgr.xor_(f, g), ite_xor(mgr, f, g)) << a << " ^ " << b;
      ASSERT_EQ(mgr.or_(f, g), mgr.ite(f, kOne, g)) << a << " | " << b;
      ASSERT_EQ(mgr.xnor_(f, g), !ite_xor(mgr, f, g)) << a << " = " << b;
      ASSERT_EQ(mgr.diff(f, g), ite_and(mgr, f, !g)) << a << " \\ " << b;
    }
  }
}

TEST(Kernels, ExhaustiveThreeVariableLeqDisjointMatchOracle) {
  Manager mgr(3);
  std::vector<Edge> fn(256);
  for (unsigned tt = 0; tt < 256; ++tt) fn[tt] = from_tt(mgr, tt, 3);
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      const bool leq_oracle = (a & ~b & 0xFFu) == 0;
      const bool dis_oracle = (a & b & 0xFFu) == 0;
      ASSERT_EQ(mgr.leq(fn[a], fn[b]), leq_oracle) << a << " <= " << b;
      ASSERT_EQ(mgr.disjoint(fn[a], fn[b]), dis_oracle) << a << " # " << b;
    }
  }
}

TEST(Kernels, ExhaustiveTwoVariableAgreeMatchesOracle) {
  Manager mgr(2);
  std::vector<Edge> fn(16);
  for (unsigned tt = 0; tt < 16; ++tt) fn[tt] = from_tt(mgr, tt, 2);
  for (unsigned a = 0; a < 16; ++a) {
    for (unsigned b = 0; b < 16; ++b) {
      for (unsigned c = 0; c < 16; ++c) {
        ASSERT_EQ(mgr.agree(fn[a], fn[b], fn[c]),
                  ite_agree(mgr, fn[a], fn[b], fn[c]))
            << a << " ~ " << b << " on " << c;
      }
    }
  }
}

TEST(Kernels, ExhaustiveThreeVariableAgreeMatchesOracle) {
  Manager mgr(3);
  std::vector<Edge> fn(256);
  for (unsigned tt = 0; tt < 256; ++tt) fn[tt] = from_tt(mgr, tt, 3);
  // Constants, a literal, a cube, a parity, majority, a random-looking set.
  for (const unsigned care : {0x00u, 0xFFu, 0xAAu, 0x80u, 0x96u, 0xE8u, 0x5Bu}) {
    for (unsigned a = 0; a < 256; ++a) {
      for (unsigned b = 0; b < 256; ++b) {
        ASSERT_EQ(mgr.agree(fn[a], fn[b], fn[care]),
                  ite_agree(mgr, fn[a], fn[b], fn[care]))
            << a << " ~ " << b << " on " << care;
      }
    }
  }
}

TEST(Kernels, RandomDifferentialAgainstIteOracle) {
  Manager mgr(14);
  std::mt19937_64 rng(0xC0FFEEu);
  for (int round = 0; round < 60; ++round) {
    const Bdd f(mgr, workload::random_function(mgr, 14, 0.3, rng));
    const Bdd g(mgr, workload::random_function(mgr, 14, 0.3, rng));
    EXPECT_EQ(mgr.and_(f.edge(), g.edge()), ite_and(mgr, f.edge(), g.edge()));
    EXPECT_EQ(mgr.xor_(f.edge(), g.edge()), ite_xor(mgr, f.edge(), g.edge()));
    EXPECT_EQ(mgr.or_(f.edge(), g.edge()),
              mgr.ite(f.edge(), kOne, g.edge()));
    EXPECT_EQ(mgr.implies(f.edge(), g.edge()),
              mgr.ite(f.edge(), g.edge(), kOne));
    // leq/disjoint agree with their defining products.
    EXPECT_EQ(mgr.leq(f.edge(), g.edge()),
              ite_and(mgr, f.edge(), !g.edge()) == kZero);
    EXPECT_EQ(mgr.disjoint(f.edge(), g.edge()),
              ite_and(mgr, f.edge(), g.edge()) == kZero);
    // Ground truths the predicates can never miss.
    EXPECT_TRUE(mgr.leq(mgr.and_(f.edge(), g.edge()), f.edge()));
    EXPECT_TRUE(mgr.leq(f.edge(), mgr.or_(f.edge(), g.edge())));
    EXPECT_TRUE(mgr.disjoint(mgr.diff(f.edge(), g.edge()), g.edge()));
    // agree against its defining product, on a random care set and on one
    // where the answer is known to be true.
    const Bdd c(mgr, workload::random_function(mgr, 14, 0.2, rng));
    EXPECT_EQ(mgr.agree(f.edge(), g.edge(), c.edge()),
              ite_agree(mgr, f.edge(), g.edge(), c.edge()));
    const Edge blend = mgr.ite(c.edge(), f.edge(), g.edge());
    EXPECT_TRUE(mgr.agree(f.edge(), blend, c.edge()));
    EXPECT_TRUE(mgr.agree(blend, g.edge(), !c.edge()));
    EXPECT_EQ(mgr.agree(f.edge(), blend, kOne), blend == f.edge());
  }
}

TEST(Kernels, CacheEntriesInteroperateBetweenAndAndDisjoint) {
  Manager mgr(8);
  const Edge f = mgr.and_(mgr.var_edge(0), mgr.var_edge(1));
  const Edge g = mgr.and_(!mgr.var_edge(0), mgr.var_edge(2));
  // The AND-kernel result f & g == 0 doubles as a disjointness
  // certificate: the subsequent disjoint() probe must hit the cache and
  // answer without recursing (no extra governor steps).
  ASSERT_EQ(mgr.and_(f, g), kZero);
  const telemetry::CounterSnapshot before = mgr.telemetry();
  EXPECT_TRUE(mgr.disjoint(f, g));
  const telemetry::CounterSnapshot delta = mgr.telemetry() - before;
  EXPECT_EQ(delta.value(telemetry::Counter::kAndCacheHits), 1u);
  EXPECT_EQ(delta.value(telemetry::Counter::kAndCacheMisses), 0u);
}

TEST(Kernels, RepeatedAgreeQueryHitsItsCacheEntry) {
  Manager mgr(10);
  std::mt19937_64 rng(41);
  const Bdd f(mgr, workload::random_function(mgr, 10, 0.4, rng));
  const Bdd g(mgr, workload::random_function(mgr, 10, 0.4, rng));
  const Bdd c(mgr, workload::random_function(mgr, 10, 0.3, rng));
  const bool first = mgr.agree(f.edge(), g.edge(), c.edge());
  // Every spelling of the query — swapped, or with both value functions
  // complemented — is one kAgree entry, answered by a single "and"-class
  // hit with no recursion.
  for (const auto& [a, b] : {std::pair{f.edge(), g.edge()},
                             std::pair{g.edge(), f.edge()},
                             std::pair{!f.edge(), !g.edge()},
                             std::pair{!g.edge(), !f.edge()}}) {
    const telemetry::CounterSnapshot before = mgr.telemetry();
    EXPECT_EQ(mgr.agree(a, b, c.edge()), first);
    const telemetry::CounterSnapshot delta = mgr.telemetry() - before;
    EXPECT_EQ(delta.value(telemetry::Counter::kAndCacheHits), 1u);
    EXPECT_EQ(delta.value(telemetry::Counter::kAndCacheMisses), 0u);
    EXPECT_EQ(delta.value(telemetry::Counter::kGovernorSteps), 0u);
    EXPECT_EQ(delta.value(telemetry::Counter::kUniqueInserts), 0u);
  }
}

TEST(Signature, EqualsPointEvaluationOnEveryPattern) {
  Manager mgr(12);
  EXPECT_EQ(mgr.signature(kOne), ~0ull);
  EXPECT_EQ(mgr.signature(kZero), 0ull);
  std::mt19937_64 rng(43);
  for (int round = 0; round < 20; ++round) {
    const Bdd f(mgr, workload::random_function(mgr, 12, 0.4, rng));
    expect_signature_is_point_evaluation(mgr, f.edge());
  }
}

TEST(Signature, StaysCorrectWhenGcRecyclesASlot) {
  Manager mgr(8);
  std::mt19937_64 rng(47);
  const Edge f = workload::random_function(mgr, 8, 0.4, rng);
  expect_signature_is_point_evaluation(mgr, f);  // memoizes f's slots
  std::vector<std::uint32_t> f_slots;
  collect_slots(mgr, f, f_slots);
  mgr.garbage_collect();  // f was never referenced: every slot is freed
  // Build different functions until one reuses a slot f's memo stamped.
  bool recycled = false;
  for (int round = 0; round < 10 && !recycled; ++round) {
    const Edge g = workload::random_function(mgr, 8, 0.6, rng);
    std::vector<std::uint32_t> g_slots;
    collect_slots(mgr, g, g_slots);
    for (const std::uint32_t slot : g_slots) {
      recycled |= std::find(f_slots.begin(), f_slots.end(), slot) != f_slots.end();
    }
    expect_signature_is_point_evaluation(mgr, g);
  }
  EXPECT_TRUE(recycled) << "no slot of f was reused";
}

TEST(Signature, StaysCorrectAcrossSiftingAndReset) {
  Manager mgr(10);
  std::mt19937_64 rng(53);
  std::vector<Bdd> roots;
  std::vector<std::uint64_t> before;
  for (int round = 0; round < 6; ++round) {
    roots.emplace_back(mgr, workload::random_function(mgr, 10, 0.4, rng));
    before.push_back(mgr.signature(roots.back().edge()));
  }
  // Reordering rewrites nodes in place but keeps every node's function,
  // so signatures (functions of variable names, not levels) must not move.
  const auto expect_unchanged = [&] {
    for (std::size_t k = 0; k < roots.size(); ++k) {
      EXPECT_EQ(mgr.signature(roots[k].edge()), before[k]);
      expect_signature_is_point_evaluation(mgr, roots[k].edge());
    }
  };
  const std::vector<std::uint32_t> reversed{9, 8, 7, 6, 5, 4, 3, 2, 1, 0};
  mgr.set_order(reversed);
  expect_unchanged();
  mgr.reorder_sift();
  expect_unchanged();
  roots.clear();
  mgr.reset(10);
  for (int round = 0; round < 6; ++round) {
    const Bdd f(mgr, workload::random_function(mgr, 10, 0.3, rng));
    expect_signature_is_point_evaluation(mgr, f.edge());
  }
}

TEST(Kernels, CountersClassifyKernelTraffic) {
  Manager mgr(10);
  std::mt19937_64 rng(17);
  const Bdd f(mgr, workload::random_function(mgr, 10, 0.4, rng));
  const Bdd g(mgr, workload::random_function(mgr, 10, 0.4, rng));
  const telemetry::CounterSnapshot before = mgr.telemetry();
  (void)mgr.and_(f.edge(), g.edge());
  const telemetry::CounterSnapshot mid = mgr.telemetry();
  (void)mgr.xor_(f.edge(), g.edge());
  const telemetry::CounterSnapshot after = mgr.telemetry();
  const auto and_delta = mid - before;
  const auto xor_delta = after - mid;
  EXPECT_GT(and_delta.value(telemetry::Counter::kAndCacheMisses), 0u);
  EXPECT_EQ(and_delta.value(telemetry::Counter::kXorCacheMisses), 0u);
  EXPECT_GT(xor_delta.value(telemetry::Counter::kXorCacheMisses), 0u);
  EXPECT_EQ(xor_delta.value(telemetry::Counter::kAndCacheMisses), 0u);
}

TEST(ManagerReset, RebuildAfterResetIsBitForBitFresh) {
  Manager pooled(9, 10);
  // Dirty the manager with an unrelated workload.
  std::mt19937_64 dirty(99);
  for (int i = 0; i < 5; ++i) {
    (void)workload::random_function(pooled, 9, 0.3, dirty);
  }
  pooled.reset(9);

  Manager fresh(9, 10);
  std::mt19937_64 rng_a(7);
  std::mt19937_64 rng_b(7);
  const Edge in_pooled = workload::random_function(pooled, 9, 0.35, rng_a);
  const Edge in_fresh = workload::random_function(fresh, 9, 0.35, rng_b);
  // Same construction order on a terminal-only table => same edge bits.
  EXPECT_EQ(in_pooled.bits, in_fresh.bits);
  EXPECT_EQ(pooled.unique_size(), fresh.unique_size());
  EXPECT_EQ(pooled.live_nodes(), fresh.live_nodes());
  // Deterministic telemetry (counters, governor) matches a fresh manager.
  const telemetry::CounterSnapshot a = pooled.telemetry();
  const telemetry::CounterSnapshot b = fresh.telemetry();
  for (std::size_t c = 0; c < telemetry::kNumCounters; ++c) {
    EXPECT_EQ(a.value(static_cast<telemetry::Counter>(c)),
              b.value(static_cast<telemetry::Counter>(c)))
        << telemetry::counter_name(static_cast<telemetry::Counter>(c));
  }
}

TEST(ManagerReset, ResetManagerPassesFullAudit) {
  Manager mgr(8, 10);
  std::mt19937_64 rng(3);
  for (int round = 0; round < 3; ++round) {
    const Bdd f(mgr, workload::random_function(mgr, 8, 0.4, rng));
    const Bdd g(mgr, workload::random_function(mgr, 8, 0.4, rng));
    (void)mgr.xor_(f.edge(), g.edge());
    (void)mgr.leq(f.edge(), g.edge());
  }
  mgr.reset(8);
  analysis::AuditOptions opts;
  opts.level = analysis::AuditLevel::kCache;
  const analysis::AuditReport report = analysis::audit_manager(mgr, opts);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(mgr.unique_size(), 0u);
  EXPECT_EQ(mgr.live_nodes(), 1u);  // the terminal
  // The manager is fully usable after reset, including with fewer vars.
  mgr.reset(4);
  EXPECT_EQ(to_tt(mgr, mgr.and_(mgr.var_edge(0), mgr.var_edge(3)), 4),
            (tt_mask(4) & 0xFF00u & 0xAAAAu));
}

TEST(CacheGrowth, ResultsSurviveMidRecursionResize) {
  // A deliberately tiny cache under a heavy workload: growth triggers in
  // the middle of kernel recursions.  Results must match a manager whose
  // cache never grows.
  Manager tiny(12, 2);
  tiny.set_cache_growth_limit(Manager::kMaxCacheLog2);
  Manager big(12, 18);
  std::mt19937_64 rng_a(21);
  std::mt19937_64 rng_b(21);
  for (int round = 0; round < 20; ++round) {
    const Bdd fa(tiny, workload::random_function(tiny, 12, 0.35, rng_a));
    const Bdd ga(tiny, workload::random_function(tiny, 12, 0.35, rng_a));
    const Bdd fb(big, workload::random_function(big, 12, 0.35, rng_b));
    const Bdd gb(big, workload::random_function(big, 12, 0.35, rng_b));
    EXPECT_EQ(eval_fingerprint(tiny, tiny.and_(fa.edge(), ga.edge()), 12),
              eval_fingerprint(big, big.and_(fb.edge(), gb.edge()), 12));
    EXPECT_EQ(eval_fingerprint(tiny, tiny.xor_(fa.edge(), ga.edge()), 12),
              eval_fingerprint(big, big.xor_(fb.edge(), gb.edge()), 12));
    EXPECT_EQ(eval_fingerprint(tiny, tiny.ite(fa.edge(), ga.edge(), !ga.edge()), 12),
              eval_fingerprint(big, big.ite(fb.edge(), gb.edge(), !gb.edge()), 12));
  }
  EXPECT_GT(tiny.cache_log2(), 2u) << "workload never triggered growth";
  EXPECT_GT(tiny.telemetry().value(telemetry::Counter::kCacheGrowths), 0u);
  EXPECT_EQ(big.telemetry().value(telemetry::Counter::kCacheGrowths), 0u);
  // The grown manager still audits clean, cache tier included.
  analysis::AuditOptions opts;
  opts.level = analysis::AuditLevel::kCache;
  const analysis::AuditReport report = analysis::audit_manager(tiny, opts);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(CacheGrowth, GrowthLimitIsRespected) {
  Manager mgr(12, 2);
  mgr.set_cache_growth_limit(3);
  std::mt19937_64 rng(5);
  for (int round = 0; round < 10; ++round) {
    const Bdd f(mgr, workload::random_function(mgr, 12, 0.35, rng));
    const Bdd g(mgr, workload::random_function(mgr, 12, 0.35, rng));
    (void)mgr.and_(f.edge(), g.edge());
    (void)mgr.xor_(f.edge(), g.edge());
  }
  EXPECT_LE(mgr.cache_log2(), 3u);
}

TEST(CacheGrowth, ResetShrinksCacheBackToConstructionSize) {
  Manager mgr(12, 2);
  mgr.set_cache_growth_limit(Manager::kMaxCacheLog2);
  std::mt19937_64 rng(9);
  for (int round = 0; round < 20; ++round) {
    const Bdd f(mgr, workload::random_function(mgr, 12, 0.35, rng));
    const Bdd g(mgr, workload::random_function(mgr, 12, 0.35, rng));
    (void)mgr.and_(f.edge(), g.edge());
    (void)mgr.xor_(f.edge(), g.edge());
    (void)mgr.ite(f.edge(), g.edge(), !g.edge());
  }
  ASSERT_GT(mgr.cache_log2(), 2u);
  mgr.reset(12);
  EXPECT_EQ(mgr.cache_log2(), 2u);
}

}  // namespace
}  // namespace bddmin
