/// Optimality results of the paper, verified against the exhaustive exact
/// minimizer: Theorem 7 (constrain exact on cube care sets), the Touati
/// reduction of constrain to a Shannon cofactor on cubes, Proposition 10
/// (osm FMM via DMG sinks is minimum), Lemma 14, Theorem 15's cover
/// validity, and Theorem 12 (osm at a level preserves the optimum below).
#include <gtest/gtest.h>

#include <random>
#include <unordered_set>

#include "bdd/cube.hpp"
#include "bdd/ops.hpp"
#include "bdd/truth_table.hpp"
#include "minimize/exact.hpp"
#include "minimize/level.hpp"
#include "minimize/sibling.hpp"

namespace bddmin::minimize {
namespace {

Edge random_cube(Manager& mgr, unsigned n, std::mt19937_64& rng) {
  Edge cube = kOne;
  for (unsigned v = 0; v < n; ++v) {
    switch (rng() % 3) {
      case 0: cube = mgr.and_(cube, mgr.var_edge(v)); break;
      case 1: cube = mgr.and_(cube, mgr.nvar_edge(v)); break;
      default: break;
    }
  }
  return cube;
}

class Theorem7 : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Theorem7, ConstrainIsOptimalWhenCareIsACube) {
  Manager mgr(4);
  std::mt19937_64 rng(GetParam());
  for (int round = 0; round < 25; ++round) {
    const Edge f = from_tt(mgr, rng() & tt_mask(4), 4);
    const Edge cube = random_cube(mgr, 4, rng);
    const Edge g = constrain(mgr, f, cube);
    ASSERT_TRUE(is_cover(mgr, g, {f, cube}));
    const auto exact = exact_minimum(mgr, f, cube, 4);
    ASSERT_TRUE(exact.has_value());
    EXPECT_EQ(count_nodes(mgr, g), exact->size);
  }
}

TEST_P(Theorem7, AllSiblingHeuristicsOptimalWhenCareIsACube) {
  // "The theorem for the other heuristics can be argued similarly."
  Manager mgr(4);
  std::mt19937_64 rng(GetParam() + 17);
  using Fn = Edge (*)(Manager&, Edge, Edge);
  const Fn heuristics[] = {constrain, restrict_dc, osm_td, osm_nv,
                           osm_cp,    osm_bt,      tsm_td, tsm_cp};
  for (int round = 0; round < 12; ++round) {
    const Edge f = from_tt(mgr, rng() & tt_mask(4), 4);
    const Edge cube = random_cube(mgr, 4, rng);
    const auto exact = exact_minimum(mgr, f, cube, 4);
    ASSERT_TRUE(exact.has_value());
    for (const Fn h : heuristics) {
      EXPECT_EQ(count_nodes(mgr, h(mgr, f, cube)), exact->size);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem7, ::testing::Values(3, 5, 7));

TEST(Theorem7, ConstrainOnCubeIsShannonCofactorExpansion) {
  // Touati et al.: with a cube care set, constrain(f, p) equals f
  // cofactored by p (the don't-care minterms inherit the nearest care
  // value along the cube's literals).
  Manager mgr(5);
  std::mt19937_64 rng(23);
  for (int round = 0; round < 40; ++round) {
    const Edge f = from_tt(mgr, rng() & tt_mask(5), 5);
    const Edge cube = random_cube(mgr, 5, rng);
    EXPECT_EQ(constrain(mgr, f, cube), cofactor_cube(mgr, f, cube));
  }
}

TEST(Theorem7, HeuristicsNeverBeatExactMinimum) {
  Manager mgr(4);
  std::mt19937_64 rng(31);
  using Fn = Edge (*)(Manager&, Edge, Edge);
  const Fn heuristics[] = {constrain, restrict_dc, osm_td, osm_nv,
                           osm_cp,    osm_bt,      tsm_td, tsm_cp};
  for (int round = 0; round < 15; ++round) {
    const Edge f = from_tt(mgr, rng() & tt_mask(4), 4);
    std::uint64_t c_tt = rng() & rng() & tt_mask(4);  // leave room for DCs
    if (c_tt == 0) c_tt = 1;
    const Edge c = from_tt(mgr, c_tt, 4);
    const auto exact = exact_minimum(mgr, f, c, 4);
    ASSERT_TRUE(exact.has_value());
    for (const Fn h : heuristics) {
      EXPECT_GE(count_nodes(mgr, h(mgr, f, c)), exact->size);
    }
    const Edge lv = opt_lv(mgr, f, c);
    EXPECT_TRUE(is_cover(mgr, lv, {f, c}));
    EXPECT_GE(count_nodes(mgr, lv), exact->size);
  }
}

TEST(Proposition10, OsmFmmSinkCountIsMinimum) {
  // Brute-force reference: the minimum number of i-covers for a set under
  // osm equals the number of DMG sinks.
  Manager mgr(3);
  std::mt19937_64 rng(41);
  for (int round = 0; round < 30; ++round) {
    std::vector<IncSpec> specs;
    std::unordered_set<std::uint64_t> canon;
    for (int k = 0; k < 5; ++k) {
      const Edge f = from_tt(mgr, rng() & tt_mask(3), 3);
      const Edge c = from_tt(mgr, rng() & tt_mask(3), 3);
      // Keep only distinct incompletely specified functions (Prop 10's
      // premise).
      const std::uint64_t key =
          (std::uint64_t{mgr.and_(f, c).bits} << 32) | c.bits;
      if (canon.insert(key).second) specs.push_back({f, c});
    }
    const std::vector<std::size_t> rep = fmm_osm(mgr, specs);
    std::unordered_set<std::size_t> sinks(rep.begin(), rep.end());
    // Each representative i-covers its vertex.
    for (std::size_t j = 0; j < specs.size(); ++j) {
      EXPECT_TRUE(is_icover(mgr, specs[rep[j]], specs[j]));
    }
    // Minimality: a vertex with no outgoing osm edge can never be covered
    // by a representative other than itself, so #sinks is forced.
    std::size_t forced = 0;
    for (std::size_t j = 0; j < specs.size(); ++j) {
      bool has_out = false;
      for (std::size_t k = 0; k < specs.size(); ++k) {
        if (j != k && matches(mgr, Criterion::kOsm, specs[j], specs[k])) {
          has_out = true;
        }
      }
      forced += !has_out;
    }
    EXPECT_EQ(sinks.size(), forced);
  }
}

TEST(Lemma14, PairwiseTsmIffCommonCoverExists) {
  Manager mgr(3);
  std::mt19937_64 rng(47);
  for (int round = 0; round < 40; ++round) {
    std::vector<IncSpec> specs;
    for (int k = 0; k < 3; ++k) {
      specs.push_back({from_tt(mgr, rng() & tt_mask(3), 3),
                       from_tt(mgr, rng() & tt_mask(3), 3)});
    }
    bool pairwise = true;
    for (std::size_t j = 0; j < specs.size(); ++j) {
      for (std::size_t k = j + 1; k < specs.size(); ++k) {
        pairwise &= matches(mgr, Criterion::kTsm, specs[j], specs[k]);
      }
    }
    bool common = false;
    for (std::uint64_t g_tt = 0; g_tt < 256 && !common; ++g_tt) {
      const Edge g = from_tt(mgr, g_tt, 3);
      common = is_cover(mgr, g, specs[0]) && is_cover(mgr, g, specs[1]) &&
               is_cover(mgr, g, specs[2]);
    }
    EXPECT_EQ(pairwise, common);
  }
}

TEST(Theorem15, CliqueMergeYieldsValidCommonICover) {
  Manager mgr(4);
  std::mt19937_64 rng(53);
  for (int round = 0; round < 25; ++round) {
    std::vector<IncSpec> specs;
    for (int k = 0; k < 6; ++k) {
      specs.push_back({from_tt(mgr, rng() & tt_mask(4), 4),
                       from_tt(mgr, rng() & tt_mask(4), 4)});
    }
    const CliqueCover cover = fmm_tsm(mgr, specs, {}, LevelOptions{});
    EXPECT_EQ(cover.clique_of.size(), specs.size());
    for (std::size_t q = 0; q < cover.size(); ++q) {
      const std::span<const std::size_t> clique = cover.clique(q);
      const IncSpec merged = merge_clique(mgr, specs, clique);
      for (const std::size_t j : clique) {
        EXPECT_TRUE(is_icover(mgr, merged, specs[j]));
      }
    }
  }
}

TEST(Theorem12, OsmAtLevelPreservesOptimumBelow) {
  // After osm matching at level i, some cover of the result attains the
  // minimum possible node count below level i.  Covers are enumerated as
  // onset + subset-of-DC-minterms on truth tables.
  Manager mgr(4);
  std::mt19937_64 rng(61);
  for (int round = 0; round < 12; ++round) {
    const std::uint64_t f_tt = rng() & tt_mask(4);
    std::uint64_t c_tt = rng() | rng();  // dense care: few DC bits
    c_tt &= tt_mask(4);
    if (c_tt == 0) c_tt = 1;
    const Edge f = from_tt(mgr, f_tt, 4);
    const Edge c = from_tt(mgr, c_tt, 4);
    const auto min_below = [&](std::uint64_t base, std::uint64_t dc,
                               std::uint32_t level) {
      std::vector<unsigned> dc_bits;
      for (unsigned m = 0; m < 16; ++m) {
        if ((dc >> m) & 1) dc_bits.push_back(m);
      }
      std::size_t best = SIZE_MAX;
      for (std::uint64_t choice = 0; choice < (1ull << dc_bits.size());
           ++choice) {
        std::uint64_t g_tt = base;
        for (std::size_t b = 0; b < dc_bits.size(); ++b) {
          if ((choice >> b) & 1) g_tt |= 1ull << dc_bits[b];
        }
        const Edge g = from_tt(mgr, g_tt, 4);
        best = std::min(best, count_nodes_below(mgr, g, level));
      }
      return best;
    };
    for (std::uint32_t level = 0; level < 3; ++level) {
      const IncSpec after =
          minimize_at_level(mgr, Criterion::kOsm, level, {}, {f, c});
      ASSERT_TRUE(is_icover(mgr, after, {f, c}));
      const std::uint64_t af_tt = to_tt(mgr, after.f, 4);
      const std::uint64_t ac_tt = to_tt(mgr, after.c, 4);
      const std::size_t best_orig =
          min_below(f_tt & c_tt, ~c_tt & tt_mask(4), level);
      const std::size_t best_after =
          min_below(af_tt & ac_tt, ~ac_tt & tt_mask(4), level);
      EXPECT_EQ(best_after, best_orig) << "level " << level;
    }
  }
}

}  // namespace
}  // namespace bddmin::minimize
