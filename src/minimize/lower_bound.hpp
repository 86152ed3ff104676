/// \file lower_bound.hpp
/// \brief Lower bound on the exact minimum cover size (Section 4.1.1).
///
/// Theorem 7 makes constrain exact when the care set is a cube.  For any
/// cube p <= c the instance [f, p] is *less* constrained than [f, c]
/// (f·p <= f·c and f + c̄ <= f + p̄), so every cover of [f, c] also covers
/// [f, p] and |constrain(f, p)| is a lower bound on the minimum cover
/// size of [f, c].  Enumerating cubes of c and taking the maximum
/// tightens the bound.
///
/// Algorithm: one depth-first walk over c's paths, hi branch first.
/// Descending an edge labelled v = b replaces the carried function by its
/// Shannon cofactor at v = b — with a cube care set, constrain *is* the
/// Shannon cofactor — so at the constant 1 the carried function is
/// constrain(f, p) for that path's cube p.  Cubes sharing a prefix share
/// its cofactor work, no cube BDD is built, and |constrain(f, p)| is
/// counted once per distinct cofactor (by regular edge).  Cost:
/// one cofactor per c edge walked plus one count_nodes per distinct
/// cofactor, instead of a cube build, a full constrain traversal and a
/// count per cube.  The bound and cubes_examined equal those of
/// enumerating the cubes one by one and constraining f by each.
#pragma once

#include <cstddef>

#include "bdd/manager.hpp"

namespace bddmin::minimize {

struct LowerBoundResult {
  std::size_t bound = 0;           ///< max over examined cubes (incl. terminal)
  std::size_t cubes_examined = 0;  ///< how many cubes of c were used
};

/// Compute the constrain-based lower bound, examining at most
/// \p max_cubes cubes of c in DFS order (the paper uses 1000).  When
/// \p probe_largest_cube is set, the shortest-path "large cube" of c is
/// tried first — the paper's suggested refinement ("look for large cubes
/// ... by finding short paths from the root of c to the constant 1"),
/// since a larger cube constrains more points and tends to bound better.
/// The probe cofactors f by that cube's literals and counts as one more
/// examined cube, outside the \p max_cubes budget.
/// Preconditions: c != 0.  A constant f short-circuits to bound 1.
[[nodiscard]] LowerBoundResult constrain_lower_bound(
    Manager& mgr, Edge f, Edge c, std::size_t max_cubes = 1000,
    bool probe_largest_cube = false);

}  // namespace bddmin::minimize
