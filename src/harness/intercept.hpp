/// \file intercept.hpp
/// \brief Call interception replicating Section 4.1's methodology: every
/// minimization call of the application is treated as an EBM instance;
/// all heuristics run on it (caches flushed in between so no heuristic
/// benefits from another's memoized work), sizes and runtimes are
/// recorded, and the application receives constrain's result — exactly
/// what verify_fsm would have used.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/audit.hpp"
#include "fsm/reach.hpp"
#include "minimize/lower_bound.hpp"
#include "minimize/registry.hpp"

namespace bddmin::harness {

struct HeuristicOutcome {
  std::size_t size = 0;
  double seconds = 0.0;
  // Telemetry counter deltas over this one run.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t and_hits = 0;    ///< AND-kernel cache class (incl. leq/disjoint)
  std::uint64_t and_misses = 0;
  std::uint64_t xor_hits = 0;    ///< XOR-kernel cache class
  std::uint64_t xor_misses = 0;
  std::uint64_t steps = 0;  ///< governor steps (memo misses)
};

struct CallRecord {
  std::size_t f_size = 0;
  double c_onset = 0.0;  ///< care onset fraction in [0, 1]
  std::vector<HeuristicOutcome> outcomes;  ///< parallel to heuristic names
  std::size_t min_size = 0;                ///< best over all heuristics
  std::size_t lower_bound = 0;             ///< Theorem 7 bound
  std::size_t lb_cubes = 0;                ///< cubes examined for the bound
};

struct InterceptorOptions {
  /// Cube budget for the lower bound (the paper uses 1000; 0 disables).
  std::size_t lower_bound_cubes = 1000;
  /// Verify each heuristic result really covers [f, c] (cheap insurance;
  /// throws std::logic_error on violation).
  bool validate_covers = true;
  /// Garbage-collect (which flushes the computed caches) before each
  /// heuristic, as the paper does for fair timing.
  bool flush_between = true;
  /// BddAudit depth applied after every heuristic run (defaults to the
  /// BDDMIN_AUDIT_LEVEL environment knob, 0 = off).  Levels 1-3 audit the
  /// manager itself; level 4 additionally replaces the plain cover check
  /// with the witness-reporting contract audit.  Any finding throws
  /// std::logic_error carrying the full report.
  analysis::AuditLevel audit_level = analysis::audit_level_from_env();
};

/// Collects CallRecords from a traversal.  Plug hook() into
/// ReachOptions/EquivOptions::minimize.
class Interceptor {
 public:
  explicit Interceptor(std::vector<minimize::Heuristic> heuristics,
                       InterceptorOptions opts = {});

  [[nodiscard]] fsm::MinimizeHook hook();

  [[nodiscard]] const std::vector<CallRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::vector<std::string> names() const;
  /// Calls excluded by the Section 4.1.2 filters (c cube / c <= f / c <= f̄
  /// / c constant).
  [[nodiscard]] std::size_t filtered_calls() const noexcept { return filtered_; }
  [[nodiscard]] std::size_t total_calls() const noexcept {
    return records_.size() + filtered_;
  }

 private:
  Edge process(Manager& mgr, Edge f, Edge c);

  std::vector<minimize::Heuristic> heuristics_;
  InterceptorOptions opts_;
  std::vector<CallRecord> records_;
  std::size_t filtered_ = 0;
};

}  // namespace bddmin::harness
