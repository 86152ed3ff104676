#include "minimize/sibling.hpp"

#include <gtest/gtest.h>

#include <random>

#include "bdd/ops.hpp"
#include "bdd/truth_table.hpp"
#include "workload/instances.hpp"

namespace bddmin::minimize {
namespace {

using HeuristicFn = Edge (*)(Manager&, Edge, Edge);

struct NamedHeuristic {
  const char* name;
  HeuristicFn fn;
};

constexpr NamedHeuristic kAll[] = {
    {"constrain", constrain}, {"restrict", restrict_dc}, {"osm_td", osm_td},
    {"osm_nv", osm_nv},       {"osm_cp", osm_cp},        {"osm_bt", osm_bt},
    {"tsm_td", tsm_td},       {"tsm_cp", tsm_cp},
};

class SiblingCover : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SiblingCover, EveryHeuristicReturnsACover) {
  Manager mgr(6);
  std::mt19937_64 rng(GetParam());
  for (int round = 0; round < 60; ++round) {
    const std::uint64_t f_tt = rng() & tt_mask(6);
    std::uint64_t c_tt = rng() & tt_mask(6);
    if (c_tt == 0) c_tt = 1;
    const IncSpec spec{from_tt(mgr, f_tt, 6), from_tt(mgr, c_tt, 6)};
    for (const NamedHeuristic& h : kAll) {
      const Edge g = h.fn(mgr, spec.f, spec.c);
      EXPECT_TRUE(is_cover(mgr, g, spec)) << h.name << " round " << round;
    }
  }
}

TEST_P(SiblingCover, NoVariableOutsideTheInputSupports) {
  // "It is never beneficial to introduce a variable that is in neither
  // the support of f nor c.  All our algorithms guarantee that this
  // never happens."
  Manager mgr(6);
  std::mt19937_64 rng(GetParam() + 100);
  for (int round = 0; round < 40; ++round) {
    // f, c over variables 1..4 only: 0 and 5 must never appear.
    const Edge f =
        compose(mgr, from_tt(mgr, rng() & tt_mask(4), 4), 0, mgr.var_edge(4));
    const Edge c_raw =
        compose(mgr, from_tt(mgr, rng() & tt_mask(4), 4), 0, mgr.var_edge(3));
    const Edge c = c_raw == kZero ? kOne : c_raw;
    for (const NamedHeuristic& h : kAll) {
      const Edge g = h.fn(mgr, f, c);
      EXPECT_FALSE(depends_on(mgr, g, 0)) << h.name;
      EXPECT_FALSE(depends_on(mgr, g, 5)) << h.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SiblingCover, ::testing::Values(11, 22, 33, 44));

TEST(Sibling, CareSupersetOfOnsetGivesConstantOne) {
  // Special case 0 != c <= f: every algorithm returns the constant 1.
  Manager mgr(4);
  std::mt19937_64 rng(5);
  for (int round = 0; round < 30; ++round) {
    const std::uint64_t f_tt = rng() & tt_mask(4);
    if (f_tt == 0) continue;
    std::uint64_t c_tt = f_tt & rng();
    c_tt &= tt_mask(4);
    if (c_tt == 0) c_tt = f_tt;
    const Edge f = from_tt(mgr, f_tt, 4);
    const Edge c = from_tt(mgr, c_tt, 4);
    for (const NamedHeuristic& h : kAll) {
      EXPECT_EQ(h.fn(mgr, f, c), kOne) << h.name;
    }
  }
}

TEST(Sibling, CareInsideOffsetGivesConstantZero) {
  Manager mgr(4);
  std::mt19937_64 rng(6);
  for (int round = 0; round < 30; ++round) {
    const std::uint64_t f_tt = rng() & tt_mask(4);
    std::uint64_t c_tt = ~f_tt & rng() & tt_mask(4);
    if (c_tt == 0) c_tt = ~f_tt & tt_mask(4);
    if (c_tt == 0) continue;  // f == 1 everywhere
    const Edge f = from_tt(mgr, f_tt, 4);
    const Edge c = from_tt(mgr, c_tt, 4);
    for (const NamedHeuristic& h : kAll) {
      EXPECT_EQ(h.fn(mgr, f, c), kZero) << h.name;
    }
  }
}

TEST(Sibling, TrivialCareSetsReturnFUnchanged) {
  Manager mgr(4);
  const Edge f = mgr.xor_(mgr.var_edge(0), mgr.var_edge(2));
  for (const NamedHeuristic& h : kAll) {
    EXPECT_EQ(h.fn(mgr, f, kOne), f) << h.name;
    EXPECT_EQ(h.fn(mgr, f, kZero), f) << h.name;
  }
  for (const Edge c : {kOne, kZero}) {
    EXPECT_EQ(mixed_td(mgr, {}, f, c), f);
    for (const Criterion crit : {Criterion::kOsm, Criterion::kTsm}) {
      const IncSpec spec{f, c};
      EXPECT_EQ(sibling_window_pass(mgr, crit, 0, 3, spec), spec)
          << to_string(crit);
    }
  }
}

TEST(Sibling, Table2DuplicatePairsCoincide) {
  // Heuristics 3/4 equal 1/2 (complement matching is vacuous for osdm);
  // 10/12 equal 9/11 (no-new-vars is vacuous for tsm).
  Manager mgr(6);
  std::mt19937_64 rng(77);
  const SiblingOptions h3{Criterion::kOsdm, true, false};
  const SiblingOptions h4{Criterion::kOsdm, true, true};
  const SiblingOptions h10{Criterion::kTsm, false, true};
  const SiblingOptions h12{Criterion::kTsm, true, true};
  for (int round = 0; round < 80; ++round) {
    const std::uint64_t f_tt = rng() & tt_mask(6);
    std::uint64_t c_tt = rng() & tt_mask(6);
    if (c_tt == 0) c_tt = 1;
    const Edge f = from_tt(mgr, f_tt, 6);
    const Edge c = from_tt(mgr, c_tt, 6);
    EXPECT_EQ(generic_td(mgr, h3, f, c), constrain(mgr, f, c));
    EXPECT_EQ(generic_td(mgr, h4, f, c), restrict_dc(mgr, f, c));
    EXPECT_EQ(generic_td(mgr, h10, f, c), tsm_td(mgr, f, c));
    EXPECT_EQ(generic_td(mgr, h12, f, c), tsm_cp(mgr, f, c));
  }
}

TEST(Sibling, ConstrainMatchesClassicalRecursion) {
  // Independent reference implementation of Coudert's constrain.
  Manager mgr(5);
  std::mt19937_64 rng(13);
  const auto classic = [&](auto&& self, Edge f, Edge c) -> Edge {
    if (c == kOne || Manager::is_const(f)) return f;
    const std::uint32_t v = std::min(mgr.var_of(f), mgr.var_of(c));
    const auto [f1, f0] = mgr.branches(f, v);
    const auto [c1, c0] = mgr.branches(c, v);
    if (c0 == kZero) return self(self, f1, c1);
    if (c1 == kZero) return self(self, f0, c0);
    return mgr.make_node(v, self(self, f1, c1), self(self, f0, c0));
  };
  for (int round = 0; round < 60; ++round) {
    const Edge f = from_tt(mgr, rng() & tt_mask(5), 5);
    std::uint64_t c_tt = rng() & tt_mask(5);
    if (c_tt == 0) c_tt = 1;
    const Edge c = from_tt(mgr, c_tt, 5);
    EXPECT_EQ(constrain(mgr, f, c), classic(classic, f, c));
  }
}

TEST(Sibling, ConstrainAlgebraicProperties) {
  // The "special property" of footnote 1 that permits reducing image
  // computations to range computations rests on constrain being a
  // minterm-mapping: it agrees with f on c, commutes with complement,
  // and distributes over conjunction.  None of this holds for arbitrary
  // covers.
  Manager mgr(5);
  std::mt19937_64 rng(123);
  bool restrict_violates_distribution = false;
  for (int round = 0; round < 80; ++round) {
    const Edge f = from_tt(mgr, rng() & tt_mask(5), 5);
    const Edge g = from_tt(mgr, rng() & tt_mask(5), 5);
    std::uint64_t c_tt = rng() & tt_mask(5);
    if (c_tt == 0) c_tt = 1;
    const Edge c = from_tt(mgr, c_tt, 5);
    EXPECT_EQ(mgr.and_(constrain(mgr, f, c), c), mgr.and_(f, c));
    EXPECT_EQ(constrain(mgr, !f, c), !constrain(mgr, f, c));
    EXPECT_EQ(constrain(mgr, mgr.and_(f, g), c),
              mgr.and_(constrain(mgr, f, c), constrain(mgr, g, c)));
    restrict_violates_distribution |=
        restrict_dc(mgr, mgr.and_(f, g), c) !=
        mgr.and_(restrict_dc(mgr, f, c), restrict_dc(mgr, g, c));
  }
  // restrict trades that property away for smaller results.
  EXPECT_TRUE(restrict_violates_distribution);
}

TEST(Sibling, MonotonicityInTheCareSet) {
  // Growing the care set can only reduce the freedom: the result agrees
  // with f on the old care set either way.
  Manager mgr(5);
  std::mt19937_64 rng(321);
  for (int round = 0; round < 40; ++round) {
    const Edge f = from_tt(mgr, rng() & tt_mask(5), 5);
    std::uint64_t small_tt = rng() & rng() & tt_mask(5);
    if (small_tt == 0) small_tt = 1;
    const Edge small = from_tt(mgr, small_tt, 5);
    const Edge big = mgr.or_(small, from_tt(mgr, rng() & tt_mask(5), 5));
    for (const auto& h : kAll) {
      // Both results cover [f, small]: the smaller instance's contract.
      EXPECT_TRUE(is_cover(mgr, h.fn(mgr, f, small), {f, small})) << h.name;
      EXPECT_TRUE(is_cover(mgr, h.fn(mgr, f, big), {f, small})) << h.name;
    }
  }
}

TEST(Sibling, RestrictNeverEnlargesSupportBeyondF) {
  // With no-new-vars, a variable of c that f does not depend on is
  // quantified away rather than pulled into the result... except through
  // matches at f's own variables; classic restrict keeps support(g)
  // within support(f).
  Manager mgr(5);
  std::mt19937_64 rng(21);
  for (int round = 0; round < 60; ++round) {
    const Edge f = from_tt(mgr, rng() & tt_mask(5), 5);
    std::uint64_t c_tt = rng() & tt_mask(5);
    if (c_tt == 0) c_tt = 1;
    const Edge c = from_tt(mgr, c_tt, 5);
    const Edge g = restrict_dc(mgr, f, c);
    for (const std::uint32_t v : support(mgr, g)) {
      EXPECT_TRUE(depends_on(mgr, f, v)) << "restrict introduced x" << v;
    }
  }
}

TEST(Sibling, PaperNoNewVarsExample) {
  // Section 3.2: f independent of x with a large BDD, c = x·f + !x·!f.
  // Introducing x gives the cover g = x of size two, which no-new-vars
  // refuses; restrict must return something no larger than f though.
  Manager mgr(6);
  // f over x1..x5 (parity: worst case size), x = x0.
  Edge f = kZero;
  for (unsigned v = 1; v < 6; ++v) f = mgr.xor_(f, mgr.var_edge(v));
  const Edge x = mgr.var_edge(0);
  const Edge c = mgr.ite(x, f, !f);
  const IncSpec spec{f, c};
  const Edge with_newvar = constrain(mgr, f, c);
  const Edge without = restrict_dc(mgr, f, c);
  EXPECT_TRUE(is_cover(mgr, with_newvar, spec));
  EXPECT_TRUE(is_cover(mgr, without, spec));
  // constrain discovers the 2-node cover x; restrict keeps f.
  EXPECT_EQ(with_newvar, x);
  EXPECT_EQ(without, f);
}

TEST(Sibling, ComplementMatchingFindsXnorStructure) {
  // f = xnor(x1, x2) with one care half: complement matching can keep the
  // single-node-per-level structure.
  Manager mgr(4);
  const Edge f = mgr.xnor_(mgr.var_edge(1), mgr.var_edge(2));
  const Edge c = mgr.or_(mgr.var_edge(1), mgr.var_edge(3));
  const IncSpec spec{f, c};
  for (const NamedHeuristic& h : kAll) {
    EXPECT_TRUE(is_cover(mgr, h.fn(mgr, spec.f, spec.c), spec)) << h.name;
  }
  // The cp variants must never do worse than their non-cp base here.
  EXPECT_LE(count_nodes(mgr, osm_cp(mgr, f, c)),
            count_nodes(mgr, osm_td(mgr, f, c)));
}

TEST(Sibling, WindowPassReturnsICoverWithGrowingCare) {
  Manager mgr(6);
  std::mt19937_64 rng(55);
  for (int round = 0; round < 40; ++round) {
    const Edge f = from_tt(mgr, rng() & tt_mask(6), 6);
    std::uint64_t c_tt = rng() & tt_mask(6);
    if (c_tt == 0) c_tt = 1;
    const Edge c = from_tt(mgr, c_tt, 6);
    const IncSpec spec{f, c};
    for (const Criterion crit : {Criterion::kOsm, Criterion::kTsm}) {
      const IncSpec out = sibling_window_pass(mgr, crit, 0, 2, spec);
      EXPECT_TRUE(is_icover(mgr, out, spec)) << to_string(crit);
      EXPECT_TRUE(mgr.leq(spec.c, out.c)) << "care must grow monotonically";
    }
  }
}

TEST(Sibling, WindowPassBelowWindowIsIdentity) {
  Manager mgr(6);
  const Edge f = mgr.xor_(mgr.var_edge(3), mgr.var_edge(4));
  const Edge c = mgr.var_edge(5);
  // Window covers levels 0..1 only; f and c start at level 3.
  const IncSpec out = sibling_window_pass(mgr, Criterion::kTsm, 0, 1, {f, c});
  EXPECT_EQ(out.f, f);
  EXPECT_EQ(out.c, c);
}

TEST(Sibling, FullWindowEqualsUnscheduledMatching) {
  // A window spanning every level performs exactly the matches of the
  // unscheduled heuristic: only the leaves differ (the pass keeps their
  // care sets), so its value function is osm_td's / tsm_td's cover.
  Manager mgr(5);
  std::mt19937_64 rng(66);
  for (int round = 0; round < 30; ++round) {
    const Edge f = from_tt(mgr, rng() & tt_mask(5), 5);
    std::uint64_t c_tt = rng() & tt_mask(5);
    if (c_tt == 0) c_tt = 1;
    const Edge c = from_tt(mgr, c_tt, 5);
    const IncSpec osm = sibling_window_pass(mgr, Criterion::kOsm, 0, 4, {f, c});
    const IncSpec tsm = sibling_window_pass(mgr, Criterion::kTsm, 0, 4, {f, c});
    EXPECT_EQ(osm.f, osm_td(mgr, f, c));
    EXPECT_EQ(tsm.f, tsm_td(mgr, f, c));
    EXPECT_TRUE(is_icover(mgr, osm, {f, c}));
    EXPECT_TRUE(is_icover(mgr, tsm, {f, c}));
  }
}

}  // namespace
}  // namespace bddmin::minimize
