// PairScratch, the Manager-owned epoch-stamped memo of the minimization
// walks: the table itself (growth, epochs, the one-walk guard) and the
// property that reusing it across calls and across Manager::reset() never
// changes a result.
#include "bdd/pair_scratch.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "analysis/access.hpp"
#include "bdd/io.hpp"
#include "minimize/lower_bound.hpp"
#include "minimize/registry.hpp"
#include "workload/instances.hpp"

namespace bddmin {
namespace {

std::vector<std::uint64_t> random_keys(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> keys(n);
  for (std::uint64_t& k : keys) k = rng();
  return keys;
}

TEST(PairScratch, FindAndInsertAcrossDoublings) {
  PairScratch table;
  const PairScratch::Walk walk = table.begin();
  EXPECT_EQ(table.find(7), nullptr);  // empty, nothing allocated yet
  // Many keys differ only in their low or only in their high half, like
  // the (f, c) pairs of a walk.
  std::vector<std::uint64_t> keys = random_keys(500, 1);
  for (std::uint64_t i = 1; i <= 250; ++i) {
    keys.push_back(i);
    keys.push_back(i << 32);
  }
  std::size_t doublings = 0;
  std::size_t capacity = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(table.insert(keys[i], i));
    if (table.capacity() != capacity) {
      doublings += capacity != 0;
      capacity = table.capacity();
    }
    EXPECT_LE(4 * table.size(), 3 * table.capacity());
  }
  EXPECT_GE(doublings, 3u);
  EXPECT_EQ(table.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint64_t* value = table.find(keys[i]);
    ASSERT_NE(value, nullptr) << "key " << keys[i];
    EXPECT_EQ(*value, i);
  }
  // A second insert of a present key keeps the first value.
  EXPECT_FALSE(table.insert(keys[3], 999));
  EXPECT_EQ(*table.find(keys[3]), 3u);
  // try_emplace hands out the present key's slot; a rewrite through it
  // is what find() sees.
  const auto [slot, stored] = table.try_emplace(keys[3], 999);
  EXPECT_FALSE(stored);
  EXPECT_EQ(*slot, 3u);
  *slot = 42;
  EXPECT_EQ(*table.find(keys[3]), 42u);
  for (const std::uint64_t absent : random_keys(100, 2)) {
    EXPECT_EQ(table.find(absent), nullptr);
  }
}

TEST(PairScratch, BeginHidesEveryEarlierEntry) {
  PairScratch table;
  const std::vector<std::uint64_t> keys = random_keys(300, 3);
  {
    const PairScratch::Walk walk = table.begin();
    for (const std::uint64_t k : keys) table.insert(k, k + 1);
  }
  const std::size_t capacity = table.capacity();
  const PairScratch::Walk walk = table.begin();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), capacity);  // a walk never shrinks the table
  for (const std::uint64_t k : keys) EXPECT_EQ(table.find(k), nullptr);
  // The stale slots are free: new entries land in them.
  EXPECT_TRUE(table.insert(keys[0], 5));
  EXPECT_EQ(*table.find(keys[0]), 5u);
}

TEST(PairScratch, EpochWrapClearsTheStamps) {
  Manager mgr(2);
  PairScratch& table = mgr.pair_scratch();
  const std::vector<std::uint64_t> keys = random_keys(100, 4);
  {
    const PairScratch::Walk walk = table.begin();
    for (const std::uint64_t k : keys) table.insert(k, 1);
  }
  // The entries carry stamp 1, the epoch a wrap restarts at: unless the
  // wrap clears every stamp, they would come back to life.
  ASSERT_EQ(analysis::ManagerAccess::pair_scratch_epoch(mgr), 1u);
  analysis::ManagerAccess::pair_scratch_epoch(mgr) = 0xFFFF'FFFFu;
  const PairScratch::Walk walk = table.begin();
  EXPECT_EQ(analysis::ManagerAccess::pair_scratch_epoch(mgr), 1u);
  for (const std::uint64_t k : keys) EXPECT_EQ(table.find(k), nullptr);
}

TEST(PairScratch, ManagerResetKeepsTheCapacity) {
  Manager mgr(4);
  {
    const PairScratch::Walk walk = mgr.pair_scratch().begin();
    for (const std::uint64_t k : random_keys(1000, 5)) {
      mgr.pair_scratch().insert(k, 0);
    }
  }
  const std::size_t capacity = mgr.pair_scratch().capacity();
  EXPECT_GE(capacity, 2048u);
  mgr.reset(4);
  EXPECT_EQ(mgr.pair_scratch().capacity(), capacity);
}

TEST(PairScratch, NestedBeginTripsTheGuard) {
#if defined(BDDMIN_ENABLE_DCHECKS) || !defined(NDEBUG)
  PairScratch table;
  {
    const PairScratch::Walk outer = table.begin();
    EXPECT_THROW((void)table.begin(), std::logic_error);
  }
  // The outer walk's end released the guard.
  const PairScratch::Walk next = table.begin();
#else
  GTEST_SKIP() << "the one-walk guard is a BDDMIN_DCHECK";
#endif
}

// ---- Reuse across calls ----------------------------------------------------

constexpr unsigned kVars = 16;

std::vector<minimize::Heuristic> every_heuristic() {
  std::vector<minimize::Heuristic> hs = minimize::all_heuristics();
  hs.push_back(minimize::scheduler_heuristic());
  hs.push_back(minimize::mixed_heuristic());
  return hs;
}

/// A seeded [f, c] over \p vars variables.  f and c each combine two
/// random functions, so their BDDs are larger than one random_function's.
minimize::IncSpec instance(Manager& mgr, unsigned vars, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const Edge f1 = workload::random_function(mgr, vars, 0.5, rng);
  const Edge f2 = workload::random_function(mgr, vars, 0.5, rng);
  const Edge c1 = workload::random_function(mgr, vars, 0.3, rng);
  const Edge c2 = workload::random_function(mgr, vars, 0.3, rng);
  return {mgr.xor_(f1, f2), mgr.or_(c1, c2)};
}

/// Every heuristic's cover of [f, c], then the Theorem 7 bound (the
/// four memo sites: sibling traversal, opt_lv's collect and substitute,
/// the prefix walk).
struct Outcomes {
  std::vector<Edge> covers;
  std::size_t bound = 0;
};

Outcomes run_all(Manager& mgr, minimize::IncSpec spec) {
  Outcomes run;
  for (const minimize::Heuristic& h : every_heuristic()) {
    run.covers.push_back(h.run(mgr, spec.f, spec.c));
  }
  run.bound = minimize::constrain_lower_bound(mgr, spec.f, spec.c).bound;
  return run;
}

/// \p run (made in \p mgr) equals what a fresh manager computes for the
/// seeded instance: each cover is carried over by serialization and must
/// be the fresh manager's cover edge.
void expect_fresh_result(const Manager& mgr, const Outcomes& run, unsigned vars,
                         std::uint64_t seed) {
  Manager fresh(kVars);
  const minimize::IncSpec spec =
      instance(fresh, vars, seed);
  const Outcomes want = run_all(fresh, spec);
  EXPECT_EQ(run.bound, want.bound) << "seed " << seed;
  const std::vector<Edge> got =
      deserialize(fresh, serialize(mgr, run.covers));
  ASSERT_EQ(got.size(), want.covers.size());
  const std::vector<minimize::Heuristic> hs = every_heuristic();
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want.covers[i]) << hs[i].name << ", seed " << seed;
  }
}

TEST(PairScratch, ReusedTableGivesAFreshManagersResults) {
  Manager mgr(kVars);
  const std::uint64_t large = 21;
  const std::uint64_t small = 22;
  const Outcomes first =
      run_all(mgr, instance(mgr, kVars, large));
  const std::size_t capacity = mgr.pair_scratch().capacity();
  EXPECT_GT(capacity, 64u) << "the large instance should grow the table";
  const Outcomes between =
      run_all(mgr, instance(mgr, 5, small));
  // The small run walks over the large run's stale entries, and the large
  // run walks over both.
  const Outcomes again =
      run_all(mgr, instance(mgr, kVars, large));
  EXPECT_EQ(again.covers, first.covers);  // canonical in one manager
  EXPECT_EQ(mgr.pair_scratch().capacity(), capacity);
  expect_fresh_result(mgr, first, kVars, large);
  expect_fresh_result(mgr, between, 5, small);
  expect_fresh_result(mgr, again, kVars, large);

  // A pooled manager: reset() keeps the table and its stale entries.
  mgr.reset(kVars);
  const Outcomes pooled =
      run_all(mgr, instance(mgr, kVars, large));
  expect_fresh_result(mgr, pooled, kVars, large);
}

TEST(PairScratch, BudgetTripReleasesTheWalk) {
  Manager mgr(kVars);
  const minimize::IncSpec spec =
      instance(mgr, kVars, 23);
  mgr.ref(spec.f);  // run_budgeted collects after a trip
  mgr.ref(spec.c);
  const minimize::Heuristic tsm =
      minimize::heuristic_by_name(minimize::all_heuristics(), "tsm_td");
  ResourceLimits limits;
  limits.step_limit = 3;
  EXPECT_THROW((void)minimize::run_budgeted(mgr, tsm, limits, spec.f, spec.c),
               StepLimit);
  // The trip unwound out of the traversal mid-walk; the next walk starts
  // cleanly (under DCHECKs a leaked guard would throw here).
  EXPECT_FALSE(analysis::ManagerAccess::pair_scratch_active(mgr));
  const Edge g = tsm.run(mgr, spec.f, spec.c);
  EXPECT_TRUE(minimize::is_cover(mgr, g, spec));
}

TEST(PairScratch, BudgetTripsInOptLvReleaseTheWalk) {
  // opt_lv runs a collect walk and a substitute walk per level; a sweep of
  // step limits lands trips in both, and in the matching between them.
  // After every trip no walk is left active.
  Manager mgr(kVars);
  const minimize::IncSpec spec = instance(mgr, kVars, 24);
  mgr.ref(spec.f);  // run_budgeted collects after a trip
  mgr.ref(spec.c);
  const minimize::Heuristic opt_lv =
      minimize::heuristic_by_name(minimize::all_heuristics(), "opt_lv");
  std::size_t trips = 0;
  for (std::uint64_t limit = 1;; limit += limit / 4 + 1) {
    ResourceLimits limits;
    limits.step_limit = limit;
    try {
      const Edge g =
          minimize::run_budgeted(mgr, opt_lv, limits, spec.f, spec.c);
      EXPECT_TRUE(minimize::is_cover(mgr, g, spec));
      break;
    } catch (const StepLimit&) {
      ++trips;
      ASSERT_FALSE(analysis::ManagerAccess::pair_scratch_active(mgr))
          << "step limit " << limit;
    }
  }
  EXPECT_GT(trips, 10u);
}

}  // namespace
}  // namespace bddmin
