/// \file registry.hpp
/// \brief Uniform enumeration of every minimizer the experiments compare.
///
/// Mirrors Section 4.1.2: the eight sibling-match heuristics, opt_lv, and
/// the trivial "heuristics" f_and_c (f·c), f_or_nc (f + c̄) and f_orig
/// (f itself).  `min` — the best result over all heuristics — is computed
/// by the harness, not listed here.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "minimize/schedule.hpp"

namespace bddmin::minimize {

struct Heuristic {
  std::string name;
  std::function<Edge(Manager&, Edge f, Edge c)> run;
};

/// The nine real heuristics the paper evaluates (Table 3 order is by
/// result quality; this list is in Table 2 order plus opt_lv).
[[nodiscard]] std::vector<Heuristic> paper_heuristics(
    const LevelOptions& level_opts = {});

/// paper_heuristics() plus the trivial bound computations f_and_c,
/// f_or_nc and f_orig.
[[nodiscard]] std::vector<Heuristic> all_heuristics(
    const LevelOptions& level_opts = {});

/// The Section 3.4 scheduler packaged as a heuristic (the robust
/// combination the paper proposes as future work).
[[nodiscard]] Heuristic scheduler_heuristic(const ScheduleOptions& opts = {});

/// The mixed-criterion sibling matcher as a heuristic (Section 3.2's
/// "different criteria depending on the context" remark).
[[nodiscard]] Heuristic mixed_heuristic(const MixedOptions& opts = {});

/// Proposition 6 shows no non-optimal DC-insensitive algorithm can avoid
/// occasionally growing the result; the paper's practical remedy is to
/// "compare the size of the result with the original f, and return the
/// smaller of the two".  This wraps any heuristic that way.
[[nodiscard]] Heuristic with_fallback(Heuristic inner);

/// Scope a resource budget (bdd/governor.hpp) around \p inner: the limits
/// are installed on the manager for the duration of the call and the
/// previous limits restored afterwards — also when the budget trips and the
/// ResourceExhausted exception propagates to the caller.  Restoring restarts
/// the saved deadline's clock, so treat nested deadlines as per-stage
/// budgets rather than absolute points in time.
[[nodiscard]] Heuristic with_budget(Heuristic inner, ResourceLimits limits);

/// Look a heuristic up by name in \p set; throws std::out_of_range.
[[nodiscard]] const Heuristic& heuristic_by_name(
    const std::vector<Heuristic>& set, const std::string& name);

}  // namespace bddmin::minimize
