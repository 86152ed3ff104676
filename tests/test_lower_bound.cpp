#include "minimize/lower_bound.hpp"

#include <gtest/gtest.h>

#include <random>

#include "bdd/cube.hpp"
#include "bdd/ops.hpp"
#include "bdd/truth_table.hpp"
#include "minimize/exact.hpp"
#include "minimize/registry.hpp"
#include "minimize/sibling.hpp"
#include "workload/instances.hpp"

namespace bddmin::minimize {
namespace {

/// The per-cube loop the prefix walk replaced: build each cube of c as a
/// BDD, constrain f by it, count the result.
LowerBoundResult per_cube_bound(Manager& mgr, Edge f, Edge c,
                                std::size_t max_cubes, bool probe) {
  LowerBoundResult r;
  if (Manager::is_const(f)) {
    r.bound = 1;
    return r;
  }
  const auto size_under = [&](const CubeVec& cube) {
    return count_nodes(mgr, constrain(mgr, f, cube_to_edge(mgr, cube)));
  };
  if (probe && c != kOne) {
    r.bound = size_under(largest_cube(mgr, c, mgr.num_vars()));
    r.cubes_examined = 1;
  }
  r.cubes_examined += for_each_cube(
      mgr, c, mgr.num_vars(), max_cubes, [&](const CubeVec& cube) {
        r.bound = std::max(r.bound, size_under(cube));
        return true;
      });
  return r;
}

TEST(LowerBound, NeverExceedsExactMinimum) {
  Manager mgr(4);
  std::mt19937_64 rng(71);
  for (int round = 0; round < 20; ++round) {
    const Edge f = from_tt(mgr, rng() & tt_mask(4), 4);
    std::uint64_t c_tt = (rng() | rng()) & tt_mask(4);
    if (c_tt == 0) c_tt = 1;
    const Edge c = from_tt(mgr, c_tt, 4);
    const LowerBoundResult lb = constrain_lower_bound(mgr, f, c);
    const auto exact = exact_minimum(mgr, f, c, 4);
    ASSERT_TRUE(exact.has_value());
    EXPECT_LE(lb.bound, exact->size);
    EXPECT_GE(lb.bound, 1u);
  }
}

TEST(LowerBound, NeverExceedsAnyHeuristicResult) {
  Manager mgr(5);
  std::mt19937_64 rng(73);
  const auto heuristics = all_heuristics();
  for (int round = 0; round < 15; ++round) {
    const Edge f = from_tt(mgr, rng() & tt_mask(5), 5);
    std::uint64_t c_tt = rng() & tt_mask(5);
    if (c_tt == 0) c_tt = 1;
    const Edge c = from_tt(mgr, c_tt, 5);
    const LowerBoundResult lb = constrain_lower_bound(mgr, f, c);
    for (const Heuristic& h : heuristics) {
      if (h.name == "f_and_c" || h.name == "f_or_nc" || h.name == "f_orig") {
        continue;  // bound computations, not covers of minimum interest
      }
      EXPECT_LE(lb.bound, count_nodes(mgr, h.run(mgr, f, c))) << h.name;
    }
  }
}

TEST(LowerBound, ExactWhenCareIsASingleCube) {
  // With c itself a cube, the bound IS the minimum (Theorem 7).
  Manager mgr(4);
  std::mt19937_64 rng(79);
  for (int round = 0; round < 20; ++round) {
    const Edge f = from_tt(mgr, rng() & tt_mask(4), 4);
    Edge cube = kOne;
    for (unsigned v = 0; v < 4; ++v) {
      switch (rng() % 3) {
        case 0: cube = mgr.and_(cube, mgr.var_edge(v)); break;
        case 1: cube = mgr.and_(cube, mgr.nvar_edge(v)); break;
        default: break;
      }
    }
    const LowerBoundResult lb = constrain_lower_bound(mgr, f, cube);
    const auto exact = exact_minimum(mgr, f, cube, 4);
    ASSERT_TRUE(exact.has_value());
    EXPECT_EQ(lb.bound, exact->size);
  }
}

TEST(LowerBound, MoreCubesTightenTheBound) {
  Manager mgr(6);
  std::mt19937_64 rng(83);
  for (int round = 0; round < 20; ++round) {
    const Edge f = from_tt(mgr, rng() & tt_mask(6), 6);
    std::uint64_t c_tt = rng() & tt_mask(6);
    if (c_tt == 0) c_tt = 1;
    const Edge c = from_tt(mgr, c_tt, 6);
    const LowerBoundResult few = constrain_lower_bound(mgr, f, c, 2);
    const LowerBoundResult many = constrain_lower_bound(mgr, f, c, 100);
    EXPECT_LE(few.bound, many.bound);
    EXPECT_LE(few.cubes_examined, many.cubes_examined);
  }
}

TEST(LowerBound, ConstantFunctionsShortCircuit) {
  Manager mgr(3);
  const Edge c = mgr.var_edge(0);
  EXPECT_EQ(constrain_lower_bound(mgr, kOne, c).bound, 1u);
  EXPECT_EQ(constrain_lower_bound(mgr, kZero, c).bound, 1u);
}

TEST(LowerBound, LargestCubeProbeStaysSoundAndCountsItsCube) {
  Manager mgr(5);
  std::mt19937_64 rng(89);
  for (int round = 0; round < 15; ++round) {
    const Edge f = from_tt(mgr, rng() & tt_mask(5), 5);
    std::uint64_t c_tt = rng() & tt_mask(5);
    if (c_tt == 0) c_tt = 1;
    const Edge c = from_tt(mgr, c_tt, 5);
    const LowerBoundResult probed =
        constrain_lower_bound(mgr, f, c, 50, /*probe_largest_cube=*/true);
    const auto exact = exact_minimum(mgr, f, c, 5, 16);
    if (exact) {
      EXPECT_LE(probed.bound, exact->size);
    }
    const LowerBoundResult plain = constrain_lower_bound(mgr, f, c, 50);
    // The probed run walks the same capped cubes plus one more.
    EXPECT_GE(probed.bound, plain.bound);
    EXPECT_EQ(probed.cubes_examined,
              plain.cubes_examined + (c == kOne ? 0 : 1));
  }
}

TEST(LowerBound, PrefixWalkMatchesPerCubeConstrain) {
  std::mt19937_64 rng(97);
  for (unsigned n = 4; n <= 8; ++n) {
    Manager mgr(n);
    for (int round = 0; round < 6; ++round) {
      const IncSpec spec =
          workload::random_instance(mgr, n, 0.2 + 0.15 * round, rng);
      for (const Edge c : {spec.c, !spec.c, kOne}) {
        if (c == kZero) continue;
        for (const std::size_t budget : {0u, 1u, 2u, 5u, 50u, 1000u}) {
          for (const bool probe : {false, true}) {
            const LowerBoundResult want =
                per_cube_bound(mgr, spec.f, c, budget, probe);
            const LowerBoundResult got =
                constrain_lower_bound(mgr, spec.f, c, budget, probe);
            EXPECT_EQ(got.bound, want.bound)
                << n << " vars, round " << round << ", budget " << budget
                << ", probe " << probe << ", c bits " << c.bits;
            EXPECT_EQ(got.cubes_examined, want.cubes_examined)
                << n << " vars, round " << round << ", budget " << budget
                << ", probe " << probe << ", c bits " << c.bits;
          }
        }
      }
    }
  }
}

TEST(LowerBound, CubeBudgetIsRespected) {
  Manager mgr(6);
  Edge parity = kZero;
  for (unsigned v = 0; v < 6; ++v) parity = mgr.xor_(parity, mgr.var_edge(v));
  // parity has 32 minterm cubes.
  const LowerBoundResult lb =
      constrain_lower_bound(mgr, mgr.var_edge(0), parity, 5);
  EXPECT_EQ(lb.cubes_examined, 5u);
}

}  // namespace
}  // namespace bddmin::minimize
