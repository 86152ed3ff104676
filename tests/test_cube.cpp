#include "bdd/cube.hpp"

#include <gtest/gtest.h>

#include <random>

#include "bdd/ops.hpp"
#include "bdd/truth_table.hpp"

namespace bddmin {
namespace {

TEST(Cube, ConstantOneYieldsTheEmptyCube) {
  Manager mgr(3);
  std::size_t seen = 0;
  for_each_cube(mgr, kOne, 3, 0, [&](const CubeVec& cube) {
    ++seen;
    EXPECT_EQ(cube_literal_count(cube), 0u);
    return true;
  });
  EXPECT_EQ(seen, 1u);
}

TEST(Cube, ConstantZeroHasNoCubes) {
  Manager mgr(3);
  EXPECT_EQ(for_each_cube(mgr, kZero, 3, 0,
                          [](const CubeVec&) { return true; }),
            0u);
}

TEST(Cube, SingleLiteral) {
  Manager mgr(3);
  std::vector<CubeVec> cubes;
  for_each_cube(mgr, !mgr.var_edge(1), 3, 0, [&](const CubeVec& cube) {
    cubes.push_back(cube);
    return true;
  });
  ASSERT_EQ(cubes.size(), 1u);
  EXPECT_EQ(cubes[0], (CubeVec{kAbsentLiteral, 0, kAbsentLiteral}));
}

TEST(Cube, CubesPartitionTheOnset) {
  Manager mgr(5);
  std::mt19937_64 rng(7);
  for (int round = 0; round < 25; ++round) {
    const std::uint64_t tt = rng() & tt_mask(5);
    const Edge f = from_tt(mgr, tt, 5);
    Edge cover = kZero;
    double count = 0;
    for_each_cube(mgr, f, 5, 0, [&](const CubeVec& cube) {
      const Edge e = cube_to_edge(mgr, cube);
      // BDD paths are disjoint by construction.
      EXPECT_TRUE(mgr.disjoint(cover, e));
      cover = mgr.or_(cover, e);
      count += std::ldexp(1.0, static_cast<int>(5 - cube_literal_count(cube)));
      return true;
    });
    EXPECT_EQ(cover, f);
    EXPECT_DOUBLE_EQ(count, static_cast<double>(std::popcount(tt)));
  }
}

TEST(Cube, MaxCubesTruncatesEnumeration) {
  Manager mgr(4);
  // x0 XOR x1 XOR x2 XOR x3 has 8 disjoint minterm paths.
  Edge f = kZero;
  for (unsigned v = 0; v < 4; ++v) f = mgr.xor_(f, mgr.var_edge(v));
  EXPECT_EQ(for_each_cube(mgr, f, 4, 0, [](const CubeVec&) { return true; }),
            8u);
  EXPECT_EQ(for_each_cube(mgr, f, 4, 3, [](const CubeVec&) { return true; }),
            3u);
}

TEST(Cube, VisitorCanAbort) {
  Manager mgr(4);
  Edge f = kZero;
  for (unsigned v = 0; v < 4; ++v) f = mgr.xor_(f, mgr.var_edge(v));
  std::size_t seen = 0;
  for_each_cube(mgr, f, 4, 0, [&](const CubeVec&) { return ++seen < 2; });
  EXPECT_EQ(seen, 2u);
}

TEST(Cube, EveryCubeImpliesFunction) {
  Manager mgr(4);
  std::mt19937_64 rng(11);
  const Edge f = from_tt(mgr, rng() & tt_mask(4), 4);
  for_each_cube(mgr, f, 4, 0, [&](const CubeVec& positional) {
    const Edge cube = cube_to_edge(mgr, positional);
    EXPECT_TRUE(mgr.leq(cube, f));
    EXPECT_TRUE(is_cube(mgr, cube));
    return true;
  });
}

TEST(Cube, LargestCubeHasMinimalLiteralCount) {
  Manager mgr(5);
  std::mt19937_64 rng(21);
  for (int round = 0; round < 30; ++round) {
    const std::uint64_t tt = rng() & tt_mask(5);
    if (tt == 0) continue;
    const Edge f = from_tt(mgr, tt, 5);
    const CubeVec big = largest_cube(mgr, f, 5);
    // It is a 1-path of f...
    EXPECT_TRUE(mgr.leq(cube_to_edge(mgr, big), f));
    // ...and no enumerated cube has fewer literals.
    std::size_t fewest = SIZE_MAX;
    for_each_cube(mgr, f, 5, 0, [&](const CubeVec& cube) {
      fewest = std::min(fewest, cube_literal_count(cube));
      return true;
    });
    EXPECT_EQ(cube_literal_count(big), fewest);
  }
}

TEST(Cube, LargestCubeOfConstantOneIsEmpty) {
  Manager mgr(3);
  EXPECT_EQ(cube_literal_count(largest_cube(mgr, kOne, 3)), 0u);
  // A single minterm function: the cube needs every decision level it
  // passes through (absent levels of the BDD stay absent).
  const Edge minterm = mgr.and_(
      mgr.var_edge(0), mgr.and_(!mgr.var_edge(1), mgr.var_edge(2)));
  EXPECT_EQ(largest_cube(mgr, minterm, 3), (CubeVec{1, 0, 1}));
}

TEST(Cube, CubeToEdgeRoundTripsLiterals) {
  Manager mgr(4);
  const CubeVec cube{1, kAbsentLiteral, 0, kAbsentLiteral};
  const Edge e = cube_to_edge(mgr, cube);
  EXPECT_EQ(e, mgr.and_(mgr.var_edge(0), !mgr.var_edge(2)));
  EXPECT_EQ(cube_literal_count(cube), 2u);
}

}  // namespace
}  // namespace bddmin
