/// \file sibling.hpp
/// \brief Sibling-matching heuristics: the generic top-down algorithm of
/// Figure 2, its eight distinct instantiations (Table 2), the Section 3.2
/// mixed criterion and the scheduler's windowed pass (Section 3.4).
///
/// All of them are one memoized traversal that walks f and c in lock
/// step.  At each node, whose level decides the criterion (`upper` above
/// `switch_level`, `lower` from it on), it may:
///  1. keep f independent of a variable c introduces (no-new-vars rule,
///     the restrict idea),
///  2. match the two sibling subfunctions, deleting the parent node,
///  3. match one sibling against the other's complement (the parent node
///     survives but only one recursion is needed), or
///  4. recurse on both siblings.
/// Matches (2, 3) are tried only at levels inside a window [lo, hi]; the
/// cover heuristics use every level.  The one difference between a cover
/// and a window pass is the leaf rule: a cover spends the don't cares and
/// returns [f, 1], so the rebuilt care set collapses to 1 by the deletion
/// rule; a window pass keeps c and returns an i-cover.  Hence
/// sibling_window_pass(crit, 0, n-1, spec).f == osm_td / tsm_td (crit).
///
/// | # | criterion | match-compl | no-new-vars | name       |
/// |---|-----------|-------------|-------------|------------|
/// | 1 | osdm      | no          | no          | constrain  |
/// | 2 | osdm      | no          | yes         | restrict   |
/// | 5 | osm       | no          | no          | osm_td     |
/// | 6 | osm       | no          | yes         | osm_nv     |
/// | 7 | osm       | yes         | no          | osm_cp     |
/// | 8 | osm       | yes         | yes         | osm_bt     |
/// | 9 | tsm       | no          | no          | tsm_td     |
/// |11 | tsm       | yes         | no          | tsm_cp     |
///
/// (3/4 coincide with 1/2 because complement matching has no effect on
/// osdm; 10/12 coincide with 9/11 because no-new-vars has no effect on
/// tsm — both equivalences are checked by bench_table2 and the tests.)
#pragma once

#include <cstdint>

#include "minimize/matching.hpp"

namespace bddmin::minimize {

struct SiblingOptions {
  Criterion criterion = Criterion::kOsdm;
  bool match_complement = false;
  bool no_new_vars = false;
};

/// Figure 2's generic_td: returns a completely specified cover of [f, c].
/// For c == 0 or c == 1 the input f is returned unchanged.
[[nodiscard]] Edge generic_td(Manager& mgr, const SiblingOptions& opts, Edge f,
                              Edge c);

// The named heuristics of Table 2.
[[nodiscard]] Edge constrain(Manager& mgr, Edge f, Edge c);
[[nodiscard]] Edge restrict_dc(Manager& mgr, Edge f, Edge c);
[[nodiscard]] Edge osm_td(Manager& mgr, Edge f, Edge c);
[[nodiscard]] Edge osm_nv(Manager& mgr, Edge f, Edge c);
[[nodiscard]] Edge osm_cp(Manager& mgr, Edge f, Edge c);
[[nodiscard]] Edge osm_bt(Manager& mgr, Edge f, Edge c);
[[nodiscard]] Edge tsm_td(Manager& mgr, Edge f, Edge c);
[[nodiscard]] Edge tsm_cp(Manager& mgr, Edge f, Edge c);

/// Section 3.2 remarks that "one can imagine applying different criteria
/// depending on the context".  mixed_td instantiates that idea: levels
/// above switch_level match with `upper`, deeper levels with `lower`.
/// The default pairs the safe one-sided criterion near the top (where,
/// by the Theorem 12 intuition, spending freedom is risky) with the
/// aggressive two-sided one below.
struct MixedOptions {
  Criterion upper = Criterion::kOsm;
  Criterion lower = Criterion::kTsm;
  std::uint32_t switch_level = 4;
  bool match_complement = true;
  bool no_new_vars = true;
};

[[nodiscard]] Edge mixed_td(Manager& mgr, const MixedOptions& opts, Edge f,
                            Edge c);

/// Windowed *partial* sibling pass used by the scheduler (Section 3.4):
/// matching is only attempted at levels in [lo_level, hi_level]; instead
/// of assigning the remaining DCs it returns the i-cover [f', c'] (care
/// set grows monotonically).  No-new-vars and complement matches are not
/// attempted.  For c == 0 or c == 1 the input spec is returned unchanged.
[[nodiscard]] IncSpec sibling_window_pass(Manager& mgr, Criterion crit,
                                          std::uint32_t lo_level,
                                          std::uint32_t hi_level, IncSpec spec);

}  // namespace bddmin::minimize
