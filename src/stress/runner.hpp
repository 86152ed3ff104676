/// \file runner.hpp
/// \brief Multi-threaded driver for StressFsm workloads, with seeded
/// replay and delta-debugging schedule minimization.
///
/// Execution model: N threads, each walking its own deterministic schedule
/// of the workload graph.  Thread T's walk is a pure function of
/// `(seed, T)` — the state chosen at step K and the randomness handed to
/// that state are both derived from counter-based seeds
/// (`derive_seed(seed, T, K, salt)`), never from a shared stream — so the
/// threads interleave freely (that is the point: the shared pieces —
/// engine pools, global counters, histograms — get hammered concurrently,
/// with ASan/TSan watching) while every *thread-local* observation stays
/// reproducible.
///
/// Failure protocol: when a state throws unexpectedly or its invariant
/// hook reports a violation, the runner records the `(seed, thread, step)`
/// triple, re-executes that thread's schedule single-threaded to confirm,
/// and ddmin-shrinks the schedule to a minimal failing subsequence (each
/// retained step keeps its original step index, hence its original
/// randomness).  `StressFailure::replay_command` prints the exact CLI
/// invocation that reproduces the failure on one thread.
///
/// Determinism: with `wall_budget_seconds == 0` and no failures, the final
/// invariant digest is a pure function of (workload, seed, threads,
/// steps_per_thread) — identical run to run and safe to compare in CI.
/// States feed only thread-deterministic observations into the digest;
/// wall-clock-dependent outcomes (timeouts, cancellations) are checked for
/// *validity* but never digested.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/audit.hpp"
#include "bdd/bdd.hpp"
#include "bdd/manager.hpp"
#include "stress/fsm.hpp"

namespace bddmin::stress {

struct StressOptions {
  /// Concurrent walkers.  Replay always runs on one thread.
  unsigned num_threads = 4;
  /// Base seed; thread T's schedule derives from (seed, T).
  std::uint64_t seed = 1;
  /// Iteration budget per thread (the deterministic budget).
  std::size_t steps_per_thread = 64;
  /// Optional wall-clock budget; threads stop early once it expires.
  /// Non-zero values make per-state counts and the digest depend on the
  /// clock — leave at 0 when byte-comparing digests.
  double wall_budget_seconds = 0.0;
  /// Stop every thread at the first recorded failure.
  bool stop_on_failure = true;
  /// Audit tier run by the built-in invariant hooks (workloads may choose
  /// deeper tiers for specific states, e.g. fault detection).
  analysis::AuditLevel invariant_audit = analysis::AuditLevel::kRefcount;
  /// Tracked functions kept in each context's pool.
  unsigned pool_functions = 4;
  /// Variables of the context manager (<= 6 so 64-bit truth tables stay
  /// exact cross-checks).
  unsigned num_vars = 6;
  /// log2 of the context manager's computed cache.
  unsigned cache_log2 = 10;
  /// ddmin the first failure's schedule (single-threaded re-executions).
  bool minimize_failures = true;
  /// Cap on ddmin re-executions.
  std::size_t minimize_budget = 96;
  /// Stop recording failures beyond this many.
  std::size_t max_failures = 4;
};

/// Where a failure happened; everything replay needs.
struct SeedTriple {
  std::uint64_t seed = 0;
  unsigned thread = 0;
  std::size_t step = 0;
};

/// One schedule entry: execute \p state with step \p step's randomness.
/// The step index is the seed — minimization drops entries but never
/// renumbers them.
struct ScheduleEntry {
  std::size_t state = 0;
  std::size_t step = 0;
};

struct StressFailure {
  SeedTriple at;
  std::string state;    ///< state whose run/invariant failed
  std::string message;  ///< invariant diagnostic or exception text
  /// Minimized single-threaded schedule that still reproduces the failure
  /// (state names, in execution order; last entry is the failing state).
  /// Equals the full prefix when minimization is off or did not shrink it.
  std::vector<std::string> schedule;
  /// Step indices matching `schedule` (feed to replay_schedule).
  std::vector<ScheduleEntry> entries;
  /// True when the single-threaded re-execution reproduced the failure —
  /// false flags an interleaving-dependent bug (take the TSan report).
  bool replayed = false;
  /// Copy-paste CLI line reproducing this failure on one thread.
  std::string replay_command;

  [[nodiscard]] std::string summary() const;
};

struct StressReport {
  std::string workload;
  std::uint64_t seed = 0;
  unsigned threads = 0;
  std::size_t steps_per_thread = 0;
  std::size_t total_steps = 0;          ///< states actually executed
  std::vector<std::string> state_names;
  std::vector<std::uint64_t> state_runs;  ///< executions per state
  /// Order-independent fold of every thread's deterministic observations;
  /// compare across runs only for failure-free, wall-unbudgeted runs.
  std::uint64_t digest = 0;
  std::vector<StressFailure> failures;
  double wall_seconds = 0.0;  ///< informational; never digested

  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
  [[nodiscard]] std::string summary() const;
};

/// Per-thread execution context handed to every state.  Owns a pooled
/// Manager (reused across steps via Manager::reset, mirroring the batch
/// engine's worker pooling) and a pool of tracked functions whose 64-bit
/// truth tables are the ground truth for cross-checks.
class StressContext {
 public:
  StressContext(const StressOptions& opts, std::uint64_t seed,
                unsigned thread);

  [[nodiscard]] const StressOptions& options() const noexcept { return opts_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] unsigned thread() const noexcept { return thread_; }
  [[nodiscard]] std::size_t step() const noexcept { return step_; }

  /// The step-private random stream (reseeded by the runner every step).
  [[nodiscard]] StepRng& rng() noexcept { return rng_; }

  /// The context manager; constructed lazily, pooled across steps.
  [[nodiscard]] Manager& manager();
  /// True once manager() has been called (and not discarded since).
  [[nodiscard]] bool has_manager() const noexcept { return mgr_ != nullptr; }
  /// Drop every pin and tear the pooled manager back to the fresh state —
  /// the `Manager::reset()` reuse path the engine depends on.
  void recycle_manager();
  /// Drop the manager outright (a fault-injected manager is only good for
  /// the audit that convicts it; never reuse one).
  void discard_manager();

  struct TrackedFn {
    Bdd bdd;
    std::uint64_t tt = 0;  ///< ground truth over options().num_vars vars
  };
  [[nodiscard]] std::vector<TrackedFn>& pool() noexcept { return pool_; }
  /// Top the pool back up to options().pool_functions entries with random
  /// functions drawn from rng().
  void refill_pool();
  /// Truth-table cross-check of every tracked function ("" = consistent).
  std::string check_pool();
  /// Run audit_manager at \p level on the context manager ("" = clean).
  std::string audit_now(analysis::AuditLevel level);

  /// Step-scoped scratch pad: `run` leaves data here for the state's
  /// invariant hook (e.g. a probe diagnostic, or what a fault injector
  /// corrupted).  Cleared by the runner at the start of every step.
  std::string scratch;

  /// Fold a deterministic observation into this thread's digest.  Never
  /// note wall-clock-dependent data (timings, timeout statuses, worker
  /// ids); the runner compares digests across runs.
  void note(std::string_view bytes) noexcept;
  void note_u64(std::uint64_t v) noexcept;
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }

  // Runner internals.
  void begin_step(std::size_t step) noexcept;

 private:
  const StressOptions& opts_;
  std::uint64_t seed_;
  unsigned thread_;
  std::size_t step_ = 0;
  StepRng rng_{0};
  std::unique_ptr<Manager> mgr_;
  std::vector<TrackedFn> pool_;
  std::uint64_t digest_ = 1469598103934665603ull;  // FNV-1a offset basis
};

/// The deterministic schedule thread \p thread walks under \p fsm:
/// `steps` entries, state at step 0 being fsm.start.
[[nodiscard]] std::vector<ScheduleEntry> make_walk(const StressFsm& fsm,
                                                   std::uint64_t seed,
                                                   unsigned thread,
                                                   std::size_t steps);

/// Run the workload across options().num_threads threads; blocks until
/// every thread finished or stopped.  Failures arrive confirmed (replayed
/// single-threaded) and minimized when the options ask for it.
[[nodiscard]] StressReport run_stress(const StressFsm& fsm,
                                      const StressOptions& opts);

/// Re-execute thread \p thread's schedule single-threaded up to and
/// including \p step.  Returns the reproduced failure, or nullopt when the
/// walk completes clean (an interleaving-dependent failure).
[[nodiscard]] std::optional<StressFailure> replay(const StressFsm& fsm,
                                                  const StressOptions& opts,
                                                  unsigned thread,
                                                  std::size_t step);

/// Execute an explicit schedule single-threaded (replay of a minimized
/// failure).  Returns the failure, or nullopt when clean.
[[nodiscard]] std::optional<StressFailure> replay_schedule(
    const StressFsm& fsm, const StressOptions& opts, unsigned thread,
    std::vector<ScheduleEntry> schedule);

/// ddmin: shrink \p schedule (whose last entry fails with state
/// \p failing_state) to a locally minimal failing subsequence, re-executing
/// single-threaded at most opts.minimize_budget times.  Retained entries
/// keep their original step indices, so their randomness is untouched.
[[nodiscard]] std::vector<ScheduleEntry> minimize_schedule(
    const StressFsm& fsm, const StressOptions& opts, unsigned thread,
    std::vector<ScheduleEntry> schedule, const std::string& failing_state);

}  // namespace bddmin::stress
