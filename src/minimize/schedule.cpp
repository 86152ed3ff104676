#include "minimize/schedule.hpp"

#include <algorithm>

namespace bddmin::minimize {

Edge scheduled_minimize(Manager& mgr, const ScheduleOptions& opts, Edge f,
                        Edge c) {
  if (c == kZero || c == kOne) return f;
  IncSpec spec{f, c};
  const std::uint32_t n = mgr.num_vars();
  const std::uint32_t window = std::max(opts.window_size, 1u);
  for (std::uint32_t initial_level = 0;; initial_level += window) {
    if (initial_level >= n ||
        n - initial_level < std::max(opts.stop_top_down, 1u)) {
      // Step 6: few levels remain; matches up here can no longer save
      // much, so spend the remaining DCs locally.
      return constrain(mgr, spec.f, spec.c);
    }
    const std::uint32_t hi = std::min(initial_level + window - 1, n - 1);
    // Steps 2-3: sibling matching, safer criterion first.
    spec = sibling_window_pass(mgr, Criterion::kOsm, initial_level, hi, spec);
    spec = sibling_window_pass(mgr, Criterion::kTsm, initial_level, hi, spec);
    if (opts.use_level_steps) {
      // Steps 4-5: level matching inside the window, top-down.
      for (std::uint32_t i = initial_level; i <= hi && i + 1 < n; ++i) {
        spec = minimize_at_level(mgr, Criterion::kOsm, i, opts.level, spec);
      }
      for (std::uint32_t i = initial_level; i <= hi && i + 1 < n; ++i) {
        spec = minimize_at_level(mgr, Criterion::kTsm, i, opts.level, spec);
      }
    }
    if (spec.c == kOne) return spec.f;  // fully specified already
  }
}

}  // namespace bddmin::minimize
