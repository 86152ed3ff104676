#include "minimize/level.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "bdd/ops.hpp"
#include "bdd/truth_table.hpp"
#include "minimize/sibling.hpp"
#include "workload/instances.hpp"

namespace bddmin::minimize {
namespace {

TEST(Collect, GathersBoundaryPairsOnly) {
  Manager mgr(4);
  const Edge f = mgr.ite(mgr.var_edge(0), mgr.var_edge(2), mgr.var_edge(3));
  const Edge c = kOne;
  const CollectedLevel collected = collect_at_level(mgr, {f, c}, 1);
  // Below level 1 (vars >= 2): [x2, 1] and [x3, 1].
  ASSERT_EQ(collected.specs.size(), 2u);
  for (const IncSpec& spec : collected.specs) {
    EXPECT_GT(mgr.var_of(spec.f), 1u);
    EXPECT_EQ(spec.c, kOne);
  }
}

TEST(Collect, RecordsFirstPath) {
  Manager mgr(4);
  const Edge f = mgr.ite(mgr.var_edge(0), mgr.var_edge(2), mgr.var_edge(3));
  const CollectedLevel collected = collect_at_level(mgr, {f, kOne}, 1);
  ASSERT_EQ(collected.paths.rows(), 2u);
  EXPECT_EQ(collected.paths.width, 2u);
  // x2 is reached with x0=1, x3 with x0=0; x1 absent on both paths.
  for (std::size_t j = 0; j < 2; ++j) {
    const bool is_x2 = mgr.var_of(collected.specs[j].f) == 2;
    EXPECT_EQ(collected.paths.row(j)[0], is_x2 ? 1 : 0);
    EXPECT_EQ(collected.paths.row(j)[1], kAbsentLiteral);
  }
}

TEST(Collect, DedupesEqualIncompletelySpecifiedFunctions) {
  Manager mgr(4);
  // Two pairs with the same (f·c, c) must share one vertex.
  const Edge x2 = mgr.var_edge(2);
  const Edge x3 = mgr.var_edge(3);
  // f = ite(x0, x2, x2·x3), c = x3: below level 1, [x2, x3] vs
  // [x2·x3, x3] are the same incompletely specified function.
  const Edge f = mgr.ite(mgr.var_edge(0), x2, mgr.and_(x2, x3));
  const CollectedLevel collected = collect_at_level(mgr, {f, x3}, 1);
  EXPECT_EQ(collected.specs.size(), 1u);
  // Both pairs are listed, mapped to the one vertex.
  ASSERT_EQ(collected.boundary.size(), 2u);
  EXPECT_EQ(collected.boundary[0].vertex, 0u);
  EXPECT_EQ(collected.boundary[1].vertex, 0u);
}

TEST(Collect, MaxSetSizeTruncates) {
  Manager mgr(5);
  std::mt19937_64 rng(3);
  const Edge f = from_tt(mgr, rng() & tt_mask(5), 5);
  const Edge c = from_tt(mgr, rng() | 1, 5);
  const CollectedLevel full = collect_at_level(mgr, {f, c}, 2);
  if (full.specs.size() > 1) {
    const CollectedLevel capped = collect_at_level(mgr, {f, c}, 2, 1);
    EXPECT_EQ(capped.specs.size(), 1u);
  }
}

TEST(PathDistance, MatchesPaperFormula) {
  // Example from Section 3.3.2: path 1000210 vs 1201111 -> distance 9.
  const CubeVec g{1, 0, 0, 0, 2, 1, 0};
  const CubeVec h{1, 2, 0, 1, 1, 1, 1};
  // Differences at positions 3 (2^(7-1-3)=8) and 6 (2^0=1) -> 9.
  EXPECT_DOUBLE_EQ(path_distance(g, h), 9.0);
  // Siblings differ only at the last position: distance 1.
  const CubeVec a{2, 2, 1};
  const CubeVec b{2, 2, 0};
  EXPECT_DOUBLE_EQ(path_distance(a, b), 1.0);
  EXPECT_DOUBLE_EQ(path_distance(a, a), 0.0);
}

TEST(FmmOsm, AllMatchableCollapseToOneSink) {
  Manager mgr(3);
  const Edge x2 = mgr.var_edge(2);
  // Chain: [x2, c1] osm [x2, c2] osm [x2, 1] with c1 <= c2 <= 1.
  const Edge c1 = mgr.and_(mgr.var_edge(0), mgr.var_edge(1));
  const Edge c2 = mgr.var_edge(0);
  const std::vector<IncSpec> specs{{x2, c1}, {x2, c2}, {x2, kOne}};
  const std::vector<std::size_t> rep = fmm_osm(mgr, specs);
  EXPECT_EQ(rep[0], 2u);
  EXPECT_EQ(rep[1], 2u);
  EXPECT_EQ(rep[2], 2u);
}

TEST(FmmOsm, UnrelatedFunctionsStaySeparate) {
  Manager mgr(3);
  const std::vector<IncSpec> specs{{mgr.var_edge(1), kOne},
                                   {mgr.var_edge(2), kOne},
                                   {!mgr.var_edge(1), kOne}};
  const std::vector<std::size_t> rep = fmm_osm(mgr, specs);
  for (std::size_t j = 0; j < specs.size(); ++j) EXPECT_EQ(rep[j], j);
}

TEST(FmmTsm, CliquesAreActualCliques) {
  Manager mgr(4);
  std::mt19937_64 rng(9);
  for (int round = 0; round < 20; ++round) {
    std::vector<IncSpec> specs;
    for (int k = 0; k < 8; ++k) {
      specs.push_back({from_tt(mgr, rng() & tt_mask(4), 4),
                       from_tt(mgr, rng() & tt_mask(4), 4)});
    }
    for (const bool degree : {false, true}) {
      LevelOptions opts;
      opts.order_by_degree = degree;
      const CliqueCover cover = fmm_tsm(mgr, specs, {}, opts);
      std::size_t covered = 0;
      for (std::size_t q = 0; q < cover.size(); ++q) {
        const std::span<const std::size_t> clique = cover.clique(q);
        covered += clique.size();
        for (const std::size_t u : clique) {
          for (const std::size_t w : clique) {
            if (u != w) {
              EXPECT_TRUE(matches(mgr, Criterion::kTsm, specs[u], specs[w]));
            }
          }
        }
      }
      EXPECT_EQ(covered, specs.size());
    }
  }
}

TEST(FmmTsm, OrderingOptimizationsRescueTheBigClique) {
  // Section 3.3.2's motivating case: vertex A sits in a 2-clique with B,
  // while {B, C, D} form a 3-clique.  Seeding by degree starts from B, and
  // distance weights grow toward the nearby C and D instead of absorbing
  // A; without the optimizations the 2-clique {A, B} shadows the triangle.
  Manager mgr(4);
  const Edge x2 = mgr.var_edge(2);
  const Edge x3 = mgr.var_edge(3);
  const std::vector<IncSpec> specs{
      {!x2, mgr.and_(!x2, x3)},  // A: matches only B (care sets clash w/ C,D)
      {x2, mgr.and_(x2, x3)},    // B: matches everyone
      {x2, x3},                  // C
      {x2, mgr.or_(x2, x3)},     // D
  };
  ASSERT_TRUE(matches(mgr, Criterion::kTsm, specs[0], specs[1]));
  ASSERT_FALSE(matches(mgr, Criterion::kTsm, specs[0], specs[2]));
  ASSERT_FALSE(matches(mgr, Criterion::kTsm, specs[0], specs[3]));
  // Paths: A far from B; C and D near B.
  const PathMatrix paths{2, {0, 0, 1, 1, 1, 0, 0, 1}};

  LevelOptions naive;
  naive.order_by_degree = false;
  naive.weight_by_distance = false;
  const CliqueCover bad = fmm_tsm(mgr, specs, paths, naive);
  std::size_t largest_naive = 0;
  for (std::size_t q = 0; q < bad.size(); ++q) {
    largest_naive = std::max(largest_naive, bad.clique(q).size());
  }
  EXPECT_EQ(largest_naive, 2u);  // {A,B} shadows the triangle

  const CliqueCover good = fmm_tsm(mgr, specs, paths, LevelOptions{});
  std::size_t largest = 0;
  for (std::size_t q = 0; q < good.size(); ++q) {
    largest = std::max(largest, good.clique(q).size());
  }
  EXPECT_EQ(largest, 3u);
  EXPECT_EQ(good.size(), 2u);  // {B,C,D} and {A}
}

TEST(MatchGraph, SignatureFilterIsSoundAndChangesNoResult) {
  // Filter-then-prove must be invisible: a pair the signatures rule out
  // never matches, so the filtered graph, the osm sinks and the tsm
  // cliques all equal those of a reference loop over unfiltered matches().
  std::size_t ruled_out = 0;
  std::size_t matched = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Manager mgr(8);
    const IncSpec spec =
        workload::random_instance(mgr, 8, 0.15 + 0.06 * seed, seed);
    for (std::uint32_t level = 0; level + 1 < mgr.num_vars(); ++level) {
      const CollectedLevel collected = collect_at_level(mgr, spec, level);
      const std::vector<IncSpec>& specs = collected.specs;
      const std::size_t r = specs.size();
      for (const Criterion crit : {Criterion::kOsm, Criterion::kTsm}) {
        MatchGraph reference{r, std::vector<std::uint8_t>(r * r, 0)};
        for (std::size_t j = 0; j < r; ++j) {
          for (std::size_t k = 0; k < r; ++k) {
            if (j == k) continue;
            const bool match = matches(mgr, crit, specs[j], specs[k]);
            reference.adjacency[j * r + k] = match ? 1 : 0;
            matched += match;
            if (signatures_rule_out(crit, signature_of(mgr, specs[j]),
                                    signature_of(mgr, specs[k]))) {
              ++ruled_out;
              EXPECT_FALSE(match) << to_string(crit) << " seed " << seed
                                  << " level " << level << " pair " << j
                                  << "," << k;
            }
          }
        }
        EXPECT_EQ(match_graph(mgr, crit, specs), reference)
            << to_string(crit) << " seed " << seed << " level " << level;
        if (crit == Criterion::kOsm) {
          EXPECT_EQ(fmm_osm(mgr, specs), osm_sinks(reference));
          continue;
        }
        LevelOptions naive;
        naive.order_by_degree = false;
        naive.weight_by_distance = false;
        for (const LevelOptions& opts : {LevelOptions{}, naive}) {
          EXPECT_EQ(fmm_tsm(mgr, specs, collected.paths, opts),
                    clique_cover(reference, collected.paths, opts));
        }
      }
    }
  }
  // The instances exercise both sides of the filter.
  EXPECT_GT(ruled_out, 0u);
  EXPECT_GT(matched, 0u);
}

TEST(Substitute, ReplacementRespectsICoverSemantics) {
  Manager mgr(4);
  std::mt19937_64 rng(15);
  for (int round = 0; round < 25; ++round) {
    const Edge f = from_tt(mgr, rng() & tt_mask(4), 4);
    std::uint64_t c_tt = rng() & tt_mask(4);
    if (c_tt == 0) c_tt = 1;
    const Edge c = from_tt(mgr, c_tt, 4);
    for (std::uint32_t level = 0; level < 3; ++level) {
      for (const Criterion crit : {Criterion::kOsm, Criterion::kTsm}) {
        LevelStats stats;
        const IncSpec out =
            minimize_at_level(mgr, crit, level, {}, {f, c}, &stats);
        EXPECT_TRUE(is_icover(mgr, out, {f, c}))
            << to_string(crit) << " level " << level;
        EXPECT_TRUE(mgr.leq(c, out.c));
        EXPECT_EQ(stats.matched, stats.vertices - stats.groups);
      }
    }
  }
}

TEST(OptLv, ProducesValidCovers) {
  Manager mgr(5);
  std::mt19937_64 rng(19);
  for (int round = 0; round < 20; ++round) {
    const Edge f = from_tt(mgr, rng() & tt_mask(5), 5);
    std::uint64_t c_tt = rng() & tt_mask(5);
    if (c_tt == 0) c_tt = 1;
    const Edge c = from_tt(mgr, c_tt, 5);
    const Edge g = opt_lv(mgr, f, c);
    EXPECT_TRUE(is_cover(mgr, g, {f, c}));
  }
}

TEST(OptLv, OsmVariantProducesValidCovers) {
  Manager mgr(5);
  std::mt19937_64 rng(23);
  for (int round = 0; round < 15; ++round) {
    const Edge f = from_tt(mgr, rng() & tt_mask(5), 5);
    std::uint64_t c_tt = rng() & tt_mask(5);
    if (c_tt == 0) c_tt = 1;
    const Edge c = from_tt(mgr, c_tt, 5);
    const Edge g = opt_lv(mgr, f, c, {}, Criterion::kOsm);
    EXPECT_TRUE(is_cover(mgr, g, {f, c}));
  }
}

TEST(OptLv, TrivialCareSets) {
  Manager mgr(3);
  const Edge f = mgr.xor_(mgr.var_edge(0), mgr.var_edge(1));
  EXPECT_EQ(opt_lv(mgr, f, kOne), f);
  EXPECT_EQ(opt_lv(mgr, f, kZero), f);
}

TEST(OptLv, MergesSharableSubfunctions) {
  // f has two distinct subfunctions at level 1 that agree on the care
  // set; opt_lv must merge them, beating f's size.
  Manager mgr(3);
  const Edge x1 = mgr.var_edge(1);
  const Edge x2 = mgr.var_edge(2);
  // f = ite(x0, x1·x2, x1): differs only when x1=1,x2=0.
  const Edge f = mgr.ite(mgr.var_edge(0), mgr.and_(x1, x2), x1);
  const Edge c = mgr.or_(!x1, x2);  // don't care exactly at x1=1,x2=0
  const Edge g = opt_lv(mgr, f, c);
  EXPECT_TRUE(is_cover(mgr, g, {f, c}));
  EXPECT_LT(count_nodes(mgr, g), count_nodes(mgr, f));
  EXPECT_FALSE(depends_on(mgr, g, 0));  // the x0 split disappears
}

TEST(Collect, OnlyLevelPlusOneRestrictsTheSet) {
  Manager mgr(4);
  // f = ite(x0, x1·x3, x3): below level 0 there are functions rooted at
  // levels 1 (x1·x3) and 3 (x3); the level+1 method keeps only the first.
  const Edge f = mgr.ite(mgr.var_edge(0),
                         mgr.and_(mgr.var_edge(1), mgr.var_edge(3)),
                         mgr.var_edge(3));
  const CollectedLevel all = collect_at_level(mgr, {f, kOne}, 0);
  const CollectedLevel narrow =
      collect_at_level(mgr, {f, kOne}, 0, 0, /*only_level_plus_one=*/true);
  EXPECT_EQ(all.specs.size(), 2u);
  ASSERT_EQ(narrow.specs.size(), 1u);
  EXPECT_EQ(mgr.level_of(narrow.specs[0].f), 1u);
}

TEST(MinimizeAtLevel, ChunkedProcessingMatchesAcrossChunks) {
  // Three mutually matchable functions A = x2·x3, B = x2, C = x2+x3 that
  // agree on c = xnor(x2, x3).  A cap of 2 collects only {A, B} in the
  // first chunk; chunked processing continues the traversal and merges C
  // in a second round, while plain truncation leaves C unmatched.
  Manager mgr(4);
  const Edge x2 = mgr.var_edge(2);
  const Edge x3 = mgr.var_edge(3);
  // Same value function x2 under three different care sets: the pairs are
  // distinct incompletely specified functions, all mutually tsm-matchable.
  const Edge f = x2;
  const Edge c = mgr.ite(mgr.var_edge(0),
                         mgr.ite(mgr.var_edge(1), mgr.and_(x2, x3), x3),
                         mgr.or_(x2, x3));
  const IncSpec unlimited =
      minimize_at_level(mgr, Criterion::kTsm, 1, {}, {f, c});
  ASSERT_TRUE(is_icover(mgr, unlimited, {f, c}));

  LevelOptions capped;
  capped.max_set_size = 2;
  capped.chunked = false;
  LevelStats stats;
  const IncSpec truncated =
      minimize_at_level(mgr, Criterion::kTsm, 1, capped, {f, c}, &stats);
  EXPECT_TRUE(is_icover(mgr, truncated, {f, c}));

  capped.chunked = true;
  const IncSpec chunked =
      minimize_at_level(mgr, Criterion::kTsm, 1, capped, {f, c}, &stats);
  EXPECT_TRUE(is_icover(mgr, chunked, {f, c}));
  // Chunked processing must reach the unlimited result; truncation can't.
  EXPECT_EQ(count_nodes(mgr, chunked.f), count_nodes(mgr, unlimited.f));
  EXPECT_GT(count_nodes(mgr, truncated.f), count_nodes(mgr, chunked.f));
}

TEST(OptLv, CapAndWeightOptionsStillYieldCovers) {
  Manager mgr(5);
  std::mt19937_64 rng(29);
  for (int round = 0; round < 10; ++round) {
    const Edge f = from_tt(mgr, rng() & tt_mask(5), 5);
    std::uint64_t c_tt = rng() & tt_mask(5);
    if (c_tt == 0) c_tt = 1;
    const Edge c = from_tt(mgr, c_tt, 5);
    for (const bool degree : {false, true}) {
      for (const bool weight : {false, true}) {
        LevelOptions opts;
        opts.order_by_degree = degree;
        opts.weight_by_distance = weight;
        opts.max_set_size = (round % 2) ? 3 : 0;
        EXPECT_TRUE(is_cover(mgr, opt_lv(mgr, f, c, opts), {f, c}));
      }
    }
  }
}


TEST(MinimizeAtLevel, LaterPairOfAClassIsSubstitutedByTheFirst) {
  // The trap of the identity step.  Below levels 0 and 1 the walk reaches
  // (x2, x3) first and files its class under the canonical key
  // (x2·x3, x3) before it reaches that pair.  Reaching it must still map
  // it to the vertex: the step replaces (x2·x3, x3) by the vertex's spec
  // (x2, x3), so it is not the identity although nothing matches.
  Manager mgr(4);
  const Edge x2 = mgr.var_edge(2);
  const Edge x3 = mgr.var_edge(3);
  const Edge x2x3 = mgr.and_(x2, x3);
  const Edge f = mgr.ite(mgr.var_edge(0), x2, x2x3);
  const CollectedLevel collected = collect_at_level(mgr, {f, x3}, 1);
  ASSERT_EQ(collected.specs.size(), 1u);
  EXPECT_EQ(collected.specs[0], (IncSpec{x2, x3}));
  const std::vector<BoundaryPair> both{{pair_key(x2, x3), 0},
                                       {pair_key(x2x3, x3), 0}};
  EXPECT_EQ(collected.boundary, both);
  for (const Criterion crit : {Criterion::kOsm, Criterion::kTsm}) {
    for (const std::uint32_t level : {0u, 1u}) {
      LevelStats stats;
      EXPECT_EQ(minimize_at_level(mgr, crit, level, {}, {f, x3}, &stats),
                (IncSpec{x2, x3}))
          << to_string(crit) << " level " << level;
      EXPECT_EQ(stats.vertices, 1u);
      EXPECT_EQ(stats.matched, 0u);
    }
    EXPECT_EQ(opt_lv(mgr, f, x3, {}, crit), x2) << to_string(crit);
  }
  // The other order: (x2·x3, x3) comes first and is the vertex's spec.
  const Edge g = mgr.ite(mgr.var_edge(0), x2x3, x2);
  for (const Criterion crit : {Criterion::kOsm, Criterion::kTsm}) {
    EXPECT_EQ(minimize_at_level(mgr, crit, 1, {}, {g, x3}),
              (IncSpec{x2x3, x3}))
        << to_string(crit);
  }
}

/// opt_lv without the level jump: minimize_at_level at every level.
Edge opt_lv_every_level(Manager& mgr, Edge f, Edge c, const LevelOptions& opts,
                        Criterion crit) {
  if (c == kZero || c == kOne) return f;
  IncSpec spec{f, c};
  for (std::uint32_t level = 0; level + 1 < mgr.num_vars(); ++level) {
    spec = minimize_at_level(mgr, crit, level, opts, spec);
  }
  return spec.f;
}

TEST(OptLv, LevelJumpEqualsEveryLevel) {
  std::vector<LevelOptions> variants(8);
  variants[1].order_by_degree = false;
  variants[2].weight_by_distance = false;
  variants[3].max_set_size = 2;
  variants[4].max_set_size = 2;
  variants[4].chunked = false;
  variants[5].max_set_size = 3;
  variants[6].max_set_size = 3;
  variants[6].chunked = false;
  variants[7].only_level_plus_one = true;
  // Instances over the first 6 of 10 variables, with the 4 unused ones
  // interleaved into the order on odd seeds: their BDDs skip levels, so
  // a boundary often lies several levels down and paths carry absent
  // positions in the middle.
  const std::vector<std::uint32_t> interleaved{0, 6, 1, 7, 2, 8, 3, 9, 4, 5};
  std::size_t deep_boundaries = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Manager mgr(10);
    if (seed % 2 == 1) mgr.set_order(interleaved);
    const IncSpec spec =
        workload::random_instance(mgr, 6, 0.1 + 0.05 * seed, seed);
    for (std::uint32_t level = 0; level + 1 < mgr.num_vars(); ++level) {
      const CollectedLevel collected = collect_at_level(mgr, spec, level);
      deep_boundaries += collected.min_boundary_level > level + 1;
      // What makes an identity step skippable: with one pair per vertex,
      // substituting every vertex by its own spec rebuilds spec.
      if (collected.boundary.size() == collected.specs.size()) {
        EXPECT_EQ(substitute_at_level(mgr, spec, level, collected,
                                      collected.specs),
                  spec)
            << "seed " << seed << " level " << level;
      }
    }
    for (const Criterion crit : {Criterion::kOsm, Criterion::kTsm}) {
      for (std::size_t v = 0; v < variants.size(); ++v) {
        EXPECT_EQ(opt_lv(mgr, spec.f, spec.c, variants[v], crit),
                  opt_lv_every_level(mgr, spec.f, spec.c, variants[v], crit))
            << to_string(crit) << " seed " << seed << " variant " << v;
      }
    }
  }
  EXPECT_GT(deep_boundaries, 0u);
}

/// The greedy clique cover as Section 3.3.2 states it: each growth step
/// rescans every uncovered vertex against every clique member, so
/// O(r·|clique|²) distance calls.  \p ties counts growth steps where a
/// later candidate was as near as the chosen one.
CliqueCover reference_clique_cover(const MatchGraph& umg,
                                   const std::vector<CubeVec>& paths,
                                   const LevelOptions& opts,
                                   std::size_t& ties) {
  const std::size_t r = umg.r;
  std::vector<std::size_t> seed_order(r);
  for (std::size_t j = 0; j < r; ++j) seed_order[j] = j;
  if (opts.order_by_degree) {
    std::vector<std::size_t> degree(r, 0);
    for (std::size_t j = 0; j < r; ++j) {
      for (std::size_t k = 0; k < r; ++k) degree[j] += umg.edge(j, k);
    }
    std::stable_sort(seed_order.begin(), seed_order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return degree[a] > degree[b];
                     });
  }
  std::vector<std::vector<std::size_t>> cliques;
  std::vector<std::size_t> clique_of(r, SIZE_MAX);
  const bool use_weights = opts.weight_by_distance && paths.size() == r;
  for (const std::size_t seed : seed_order) {
    if (clique_of[seed] != SIZE_MAX) continue;
    std::vector<std::size_t> clique{seed};
    clique_of[seed] = cliques.size();
    for (;;) {
      std::size_t best = SIZE_MAX;
      double best_weight = 0.0;
      bool tie = false;
      for (std::size_t w = 0; w < r; ++w) {
        if (clique_of[w] != SIZE_MAX) continue;
        const bool adjacent_to_all =
            std::all_of(clique.begin(), clique.end(),
                        [&](std::size_t u) { return umg.edge(u, w); });
        if (!adjacent_to_all) continue;
        double weight = 0.0;
        if (use_weights) {
          weight = path_distance(paths[seed], paths[w]);
          for (const std::size_t u : clique) {
            weight = std::min(weight, path_distance(paths[u], paths[w]));
          }
        }
        if (use_weights && best != SIZE_MAX && weight == best_weight) {
          tie = true;
        }
        if (best == SIZE_MAX || weight < best_weight) {
          best = w;
          best_weight = weight;
          tie = false;
        }
      }
      if (best == SIZE_MAX) break;
      ties += tie;
      clique_of[best] = cliques.size();
      clique.push_back(best);
    }
    cliques.push_back(std::move(clique));
  }
  CliqueCover flat;
  for (const std::vector<std::size_t>& clique : cliques) {
    flat.members.insert(flat.members.end(), clique.begin(), clique.end());
    flat.ends.push_back(flat.members.size());
  }
  flat.clique_of = clique_of;
  return flat;
}

TEST(CliqueCover, IncrementalGrowthEqualsTheReferenceLoop) {
  std::mt19937_64 rng(31);
  std::size_t ties = 0;
  std::size_t merged = 0;
  for (int round = 0; round < 400; ++round) {
    const std::size_t r = rng() % 13;
    const std::uint64_t edge_odds = 1 + rng() % 8;  // of 8
    MatchGraph umg{r, std::vector<std::uint8_t>(r * r, 0)};
    for (std::size_t j = 0; j < r; ++j) {
      for (std::size_t k = j + 1; k < r; ++k) {
        if (rng() % 8 < edge_odds) {
          umg.adjacency[j * r + k] = umg.adjacency[k * r + j] = 1;
        }
      }
    }
    // Short paths make equal distances common; every fifth round has one
    // row too many or too few, which turns the weights off.
    const std::size_t width = 1 + rng() % 4;
    std::size_t rows = r;
    if (round % 5 == 4) rows = (r > 0 && rng() % 2) ? r - 1 : r + 1;
    std::vector<CubeVec> nested(rows, CubeVec(width));
    PathMatrix flat{width, {}};
    for (CubeVec& path : nested) {
      for (std::uint8_t& literal : path) {
        literal = static_cast<std::uint8_t>(rng() % 3);
      }
      flat.literals.insert(flat.literals.end(), path.begin(), path.end());
    }
    for (const bool degree : {false, true}) {
      for (const bool weight : {false, true}) {
        LevelOptions opts;
        opts.order_by_degree = degree;
        opts.weight_by_distance = weight;
        const CliqueCover want =
            reference_clique_cover(umg, nested, opts, ties);
        EXPECT_EQ(clique_cover(umg, flat, opts), want)
            << "round " << round << " degree " << degree << " weight "
            << weight;
        merged += want.size() < r;
      }
    }
  }
  EXPECT_GT(ties, 0u);
  EXPECT_GT(merged, 0u);
}

}  // namespace
}  // namespace bddmin::minimize
