#include "minimize/lower_bound.hpp"

#include <algorithm>

#include "bdd/cube.hpp"
#include "bdd/ops.hpp"

#include "analysis/check.hpp"

namespace bddmin::minimize {
namespace {

/// Depth-first walk over c's paths carrying f cofactored by the path so
/// far.  Theorem 7 + Touati et al.: with a cube care set p, constrain(f, p)
/// is the Shannon cofactor of f by p and the exact minimum of [f, p], so
/// at each 1-path the carried cofactor is that cube's bound.
struct PrefixWalk {
  Manager& mgr;
  /// Nodes already counted, in the Manager's pair table (not the visit
  /// scratch, which count_nodes uses): many cubes give the same cofactor.
  PairScratch& counted;
  std::size_t max_cubes;  // 0 = unlimited
  std::size_t visited = 0;
  std::size_t bound = 0;

  void bound_by(Edge g) {
    if (counted.insert(g.index(), 0)) {
      bound = std::max(bound, count_nodes(mgr, g));
    }
  }

  /// Returns false once the cube budget is spent.
  bool walk(Edge c, Edge f) {
    if (c == kOne) {
      ++visited;
      bound_by(f);
      return max_cubes == 0 || visited < max_cubes;
    }
    const std::uint32_t v = mgr.var_of(c);
    for (const bool value : {true, false}) {
      const Edge child = value ? mgr.hi_of(c) : mgr.lo_of(c);
      if (child != kZero && !walk(child, cofactor(mgr, f, v, value))) {
        return false;
      }
    }
    return true;
  }
};

}  // namespace

LowerBoundResult constrain_lower_bound(Manager& mgr, Edge f, Edge c,
                                       std::size_t max_cubes,
                                       bool probe_largest_cube) {
  BDDMIN_CHECK(c != kZero);
  LowerBoundResult result;
  if (Manager::is_const(f)) {
    result.bound = 1;
    return result;
  }
  const PairScratch::Walk scope = mgr.pair_scratch().begin();
  PrefixWalk walk{mgr, mgr.pair_scratch(), max_cubes};
  if (probe_largest_cube && c != kOne) {
    // The probe is one more cube, walked by its literals outside the
    // budget; no cube BDD is built.
    const CubeVec big = largest_cube(mgr, c, mgr.num_vars());
    Edge g = f;
    for (std::uint32_t v = 0; v < big.size(); ++v) {
      if (big[v] != kAbsentLiteral) g = cofactor(mgr, g, v, big[v] == 1);
    }
    walk.bound_by(g);
    result.cubes_examined = 1;
  }
  walk.walk(c, f);
  result.bound = walk.bound;
  result.cubes_examined += walk.visited;
  return result;
}

}  // namespace bddmin::minimize
