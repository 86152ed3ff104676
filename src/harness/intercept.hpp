/// \file intercept.hpp
/// \brief Section 4.1's per-call method, written once, and the call
/// interceptor that applies it to every minimization call of an
/// application.
///
/// `evaluate_call` is the one per-call loop; the batch engine, the
/// Interceptor and `bddmin_cli minimize` all run it.  For each heuristic,
/// in order:
///  1. flush the caches (`garbage_collect`), so no heuristic benefits from
///     another's memoized work — only the engine's warm in-shard jobs skip
///     it;
///  2. run it under the call's budget (`minimize::run_budgeted`).  Only
///     this run is timed; the per-phase ProfileCollector is built before
///     the clock starts;
///  3. check the cover against Definition 2 inside a kValidation scope:
///     `is_cover`, or at audit level 4 the witness-reporting
///     `audit_cover`;
///  4. at audit levels 1-3 (and 4), audit the manager up to level 3;
///  5. count the cover's nodes and take the min.
/// A budget trip keeps the best kept cover so far (the trivial cover f to
/// start with), optionally retrying once on the fallback heuristic.
/// After the loop an ok call gets the Theorem 7 bound.  The manager audit
/// runs after every heuristic, not once per call: the next flush clears
/// the cache entries an earlier heuristic left, so an end-of-call cache
/// audit would never see them.
///
/// Whether the caller keeps the covers decides their lifetime, and with it
/// the node layout every later step sees.  The engine and the CLI keep
/// them (the `covers` argument), so a trip can fall back to any earlier
/// one and the bound runs straight after the loop.  The Interceptor keeps
/// none: each cover is garbage once counted, the next flush reclaims it
/// (a trip can only fall back to f), and the bound runs after a flush as
/// well.  Neither choice changes a size or a bound — BDDs are canonical —
/// only which slots new nodes land in, and so the computed cache's
/// collisions and the counters.
///
/// The Interceptor treats every minimization call of the application as
/// an EBM instance: it applies the Section 4.1.2 filter, evaluates the
/// kept calls, records sizes and runtimes, and hands the application
/// constrain's result — exactly what verify_fsm would have used.  A call
/// the evaluator does not finish ok (a non-cover, an audit finding, a
/// throw) throws std::logic_error with the evaluator's message, so no
/// Table-3 record is built from a degraded call.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/audit.hpp"
#include "bdd/bdd.hpp"
#include "fsm/reach.hpp"
#include "minimize/lower_bound.hpp"
#include "minimize/registry.hpp"
#include "telemetry/profile.hpp"

namespace bddmin::harness {

enum class CallStatus : std::uint8_t {
  kOk = 0,         ///< all heuristics ran and validated
  kTimeout,        ///< the call's deadline expired between heuristics
  kCancelled,      ///< batch cancellation observed before the job started
                   ///< (set by the engine, never by evaluate_call)
  kError,          ///< thrown error, bad cover or audit finding
  kResourceLimit,  ///< a heuristic exhausted its budget; the call degraded
                   ///< to a still-valid cover (see CallResult::detail)
};

/// One heuristic's run on one call.
struct HeuristicResult {
  std::size_t size = 0;   ///< cover node count incl. terminal (0 = not run)
  double seconds = 0.0;   ///< wall time of the budgeted run; non-deterministic
  /// Per-phase counter deltas (matching / cover-build / validation) of the
  /// run and its validation.  Deterministic: the work is a pure function
  /// of the call and the table it starts from.
  telemetry::PhaseProfile phases;
};

/// What evaluate_call applies to one call.
struct CallOptions {
  /// Hard quota on allocated nodes (live + dead) per heuristic run; 0 = none.
  std::size_t node_limit = 0;
  /// Recursion-step budget per heuristic run; 0 = none.
  std::uint64_t step_limit = 0;
  /// End of the call's wall-clock allowance: checked between heuristics
  /// (kTimeout) and polled inside each run, whose deadline is whatever
  /// remains.  Unset = none.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Retried once, with a fresh budget, when a heuristic trips; null keeps
  /// the best kept cover so far.
  const minimize::Heuristic* fallback = nullptr;
  /// BddAudit depth after each heuristic (see the file comment).
  analysis::AuditLevel audit_level = analysis::AuditLevel::kOff;
  /// Theorem 7 cube budget (0 disables the bound).
  std::size_t lower_bound_cubes = 0;
  /// Flush before each heuristic.  Only a warm engine job passes false.
  bool flush = true;
};

struct CallResult {
  CallStatus status = CallStatus::kOk;
  std::string error;   ///< diagnostic for kError only
  /// Resource-limit trail for kResourceLimit: which heuristic tripped which
  /// limit class and what the degradation did, one "; "-separated entry
  /// per trip, e.g. "osm_td: step-limit (retried on restr)".
  /// Deterministic for the node/step limit classes.
  std::string detail;
  std::size_t f_size = 0;
  std::size_t c_size = 0;
  double c_onset = 0.0;                  ///< care onset fraction in [0, 1]
  std::vector<HeuristicResult> results;  ///< parallel to the heuristics
  std::size_t min_size = 0;              ///< best over heuristics that ran
  std::size_t lower_bound = 0;           ///< Theorem 7 bound (opt-in)
  std::size_t audit_findings = 0;
};

/// Run Section 4.1's per-call loop (see the file comment) over
/// \p heuristics on \p spec.  Never throws for a heuristic's failure: the
/// status says what happened.  When \p covers is non-null it receives the
/// pinned cover of every heuristic that ran, in order, and the caller
/// decides how long they stay live; otherwise each cover is left for the
/// next flush.
[[nodiscard]] CallResult evaluate_call(
    Manager& mgr, const minimize::IncSpec& spec,
    std::span<const minimize::Heuristic> heuristics, const CallOptions& opts,
    std::vector<Bdd>* covers = nullptr);

struct CallRecord {
  std::size_t f_size = 0;
  double c_onset = 0.0;  ///< care onset fraction in [0, 1]
  std::vector<HeuristicResult> outcomes;  ///< parallel to heuristic names
  std::size_t min_size = 0;               ///< best over all heuristics
  std::size_t lower_bound = 0;            ///< Theorem 7 bound
};

struct InterceptorOptions {
  /// Cube budget for the lower bound (the paper uses 1000; 0 disables).
  std::size_t lower_bound_cubes = 1000;
  /// BddAudit depth applied after every heuristic run (defaults to the
  /// BDDMIN_AUDIT_LEVEL environment knob, 0 = off).  Any finding throws
  /// std::logic_error carrying the evaluator's message.
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
  CallOptions call_;
  std::vector<CallRecord> records_;
  std::size_t filtered_ = 0;
};

}  // namespace bddmin::harness
