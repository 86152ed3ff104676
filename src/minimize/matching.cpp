#include "minimize/matching.hpp"

#include "analysis/check.hpp"
#include "telemetry/profile.hpp"

namespace bddmin::minimize {

std::string_view to_string(Criterion crit) noexcept {
  switch (crit) {
    case Criterion::kOsdm: return "osdm";
    case Criterion::kOsm: return "osm";
    case Criterion::kTsm: return "tsm";
  }
  return "?";
}

bool matches(Manager& mgr, Criterion crit, IncSpec a, IncSpec b) {
  const telemetry::PhaseScope phase(mgr, telemetry::Phase::kMatching);
  switch (crit) {
    case Criterion::kOsdm:
      return a.c == kZero;
    case Criterion::kOsm:
      // Differences confined to a's DC set, and a's DC set contains b's.
      // agree()/leq() walk early-exit: the first violating path answers
      // without materializing the difference BDD.
      return mgr.agree(a.f, b.f, a.c) && mgr.leq(a.c, b.c);
    case Criterion::kTsm:
      // Agreement wherever both care.
      return mgr.agree(a.f, b.f, mgr.and_(a.c, b.c));
  }
  return false;
}

IncSpec match_result(Manager& mgr, Criterion crit, IncSpec a, IncSpec b) {
  BDDMIN_DCHECK(matches(mgr, crit, a, b));
  const telemetry::PhaseScope phase(mgr, telemetry::Phase::kMatching);
  switch (crit) {
    case Criterion::kOsdm:
    case Criterion::kOsm:
      // All of b's freedom is preserved; a costs nothing (osdm) or agrees
      // on its care set already (osm).
      return b;
    case Criterion::kTsm: {
      // Take care values from each side; they agree on the overlap.
      const Edge f = mgr.or_(mgr.and_(a.f, a.c), mgr.and_(b.f, b.c));
      const Edge c = mgr.or_(a.c, b.c);
      return IncSpec{f, c};
    }
  }
  return a;
}

std::optional<IncSpec> sibling_match(Manager& mgr, Criterion crit,
                                     bool complement_else, IncSpec then_spec,
                                     IncSpec else_spec) {
  if (complement_else) else_spec.f = !else_spec.f;
  if (matches(mgr, crit, else_spec, then_spec)) {
    return match_result(mgr, crit, else_spec, then_spec);
  }
  // tsm is symmetric, so the second direction only matters for the
  // one-sided criteria; testing it again is harmless but wasted work.
  if (crit != Criterion::kTsm && matches(mgr, crit, then_spec, else_spec)) {
    return match_result(mgr, crit, then_spec, else_spec);
  }
  return std::nullopt;
}

}  // namespace bddmin::minimize
