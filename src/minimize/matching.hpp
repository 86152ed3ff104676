/// \file matching.hpp
/// \brief The three matching criteria of Definition 5 and their i-covers.
///
/// Matching two incompletely specified functions means finding a common
/// i-cover by spending don't-care freedom:
///
///  * osdm (one-sided DC match): [f1,c1] matches [f2,c2] iff c1 == 0.
///  * osm  (one-sided match): iff f1 XOR f2 <= c̄1 and c̄1 >= c̄2
///    (equivalently (f1 XOR f2)·c1 == 0 and c1 <= c2).
///  * tsm  (two-sided match): iff f1 XOR f2 <= c̄1 + c̄2
///    (equivalently (f1 XOR f2)·c1·c2 == 0).
///
/// The strength hierarchy osdm => osm => tsm holds, and the produced
/// i-covers keep the don't-care part maximal: osdm/osm yield [f2,c2];
/// tsm yields [f1·c1 + f2·c2, c1 + c2].
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "minimize/incspec.hpp"

namespace bddmin::minimize {

enum class Criterion { kOsdm, kOsm, kTsm };

[[nodiscard]] std::string_view to_string(Criterion crit) noexcept;

/// Directional test: does \p a match \p b under \p crit?  (tsm is
/// symmetric; osdm and osm are not.)
[[nodiscard]] bool matches(Manager& mgr, Criterion crit, IncSpec a, IncSpec b);

/// Simulation signatures (Manager::signature) of an IncSpec's value
/// function and care set over the same 64 input patterns.
struct SpecSignature {
  std::uint64_t f = 0;
  std::uint64_t c = 0;
};

[[nodiscard]] inline SpecSignature signature_of(const Manager& mgr,
                                                IncSpec spec) {
  return {mgr.signature(spec.f), mgr.signature(spec.c)};
}

/// The filter half of filter-then-prove matching: true when some pattern
/// is a concrete witness that \p a cannot match \p b under \p crit, so
/// matches() would return false.  Sound, not complete — a false here
/// proves nothing and the pair still needs matches().
///  * osdm: a's care set holds at a pattern;
///  * osm:  at a pattern of a's care set the values differ, or a cares
///          where b does not;
///  * tsm:  at a pattern where both care the values differ.
[[nodiscard]] constexpr bool signatures_rule_out(Criterion crit,
                                                 SpecSignature a,
                                                 SpecSignature b) noexcept {
  const std::uint64_t differ = a.f ^ b.f;
  switch (crit) {
    case Criterion::kOsdm: return a.c != 0;
    case Criterion::kOsm: return ((differ & a.c) | (a.c & ~b.c)) != 0;
    case Criterion::kTsm: return (differ & a.c & b.c) != 0;
  }
  return false;
}

/// The common i-cover produced when \p a matches \p b (precondition:
/// matches(mgr, crit, a, b)).
[[nodiscard]] IncSpec match_result(Manager& mgr, Criterion crit, IncSpec a,
                                   IncSpec b);

/// The paper's `is_match` (Figure 2): try to match the two sibling
/// functions [fT,cT] and [fE,cE] of a node.  For the one-sided criteria
/// both directions are tried.  With \p complement_else, the else sibling
/// is complemented first, so a cover g of the returned spec yields
/// then-branch g and else-branch !g.
/// Returns the common i-cover, or nullopt if no match can be made.
[[nodiscard]] std::optional<IncSpec> sibling_match(Manager& mgr, Criterion crit,
                                                   bool complement_else,
                                                   IncSpec then_spec,
                                                   IncSpec else_spec);

}  // namespace bddmin::minimize
