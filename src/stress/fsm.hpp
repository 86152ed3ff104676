/// \file fsm.hpp
/// \brief Probabilistic state-machine workload description for the
/// concurrency stress harness.
///
/// Modeled on mongo's `fsm_libs/fsm.js` (see SNIPPETS.md): a workload is a
/// weighted transition graph whose states are *operations* over the public
/// API surface — submit a batch, trip a quota, reset the pooled manager,
/// reorder, scrape counters — and whose invariant hooks check, between
/// states, that the system is still telling the truth (BddAudit tiers,
/// truth-table cross-checks, CSV byte-determinism).
///
/// Determinism contract: every random decision is drawn from a
/// *counter-based* stream — `derive_seed(seed, thread, step, salt)` feeds a
/// SplitMix64 generator — so the whole walk of thread T is a pure function
/// of `(seed, T)` and the randomness of step K does not depend on steps
/// before it.  Two consequences the runner exploits:
///
///   * **seeded replay** — a failure at `(seed, thread, step)` is
///     re-executed single-threaded from the same triple alone;
///   * **schedule minimization** — dropping a step from a schedule leaves
///     every retained step's randomness bit-identical (each step carries
///     its own seed), so delta-debugging shrinks failing schedules without
///     perturbing them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace bddmin::stress {

/// Mix (seed, thread, step, salt) into one well-distributed 64-bit seed.
/// Stable across platforms and releases: replay triples printed by one
/// build reproduce in another.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t thread,
                                        std::uint64_t step,
                                        std::uint64_t salt) noexcept;

/// SplitMix64: tiny, fast, and statistically fine for workload decisions.
/// One instance is handed to a state per step, seeded from the step's own
/// derived seed (never shared between steps).
class StepRng {
 public:
  explicit StepRng(std::uint64_t seed) noexcept : state_(seed) {}

  [[nodiscard]] std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); bound 0 returns 0.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) noexcept {
    return bound == 0 ? 0 : next() % bound;
  }
  /// Uniform in [0, 1).
  [[nodiscard]] double unit() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  /// Bernoulli with probability \p p.
  [[nodiscard]] bool chance(double p) noexcept { return unit() < p; }

 private:
  std::uint64_t state_;
};

class StressContext;  // runner.hpp: per-thread execution context

/// One state = one operation plus its invariant hook.
///
/// `run` performs the operation.  It may use `ctx.rng()` freely (the
/// stream is step-private), must confine *expected* exceptions (a
/// quota-exhaust state catches its own ResourceExhausted), and feeds
/// deterministic observations into the digest with `ctx.note()`.  An
/// exception escaping `run` is recorded as a failure.
///
/// `invariant` runs right after `run` on the same thread; return "" when
/// the system is consistent, else a diagnostic (which becomes the failure
/// message).  Hooks typically run `analysis::audit_manager` on the
/// context's manager, cross-check counters, or compare CSV bytes.  Null
/// means "no per-state hook".
///
/// Lint rule R6 (tools/bddmin_lint.py): neither function may hold a
/// PhaseScope or a lock across a cross-thread wait (join /
/// condition-variable wait) — park the scope before blocking.
struct StressState {
  std::string name;
  std::function<void(StressContext&)> run;
  std::function<std::string(StressContext&)> invariant;
};

/// A weighted edge of the transition graph.
struct Transition {
  std::size_t target = 0;  ///< state index
  double weight = 1.0;     ///< relative probability mass (> 0)
};

/// A workload graph: states, weighted transitions, a start state.
///
/// `transitions[i]` lists the successors of state i; an empty row means
/// "uniform over all states" (fully-mixed graph).  Weights are relative
/// within a row.  `validate()` checks shape before a run: every target in
/// range, every weight positive, every row's mass positive.
struct StressFsm {
  std::string name;
  std::string description;
  std::vector<StressState> states;
  std::vector<std::vector<Transition>> transitions;
  std::size_t start = 0;

  /// "" when well-formed, else the first problem found.
  [[nodiscard]] std::string validate() const;

  /// Index of the named state; throws std::out_of_range.
  [[nodiscard]] std::size_t state_index(const std::string& state_name) const;

  /// The successor of \p current drawn with \p rng over the weighted row
  /// (uniform over all states when the row is empty).
  [[nodiscard]] std::size_t next_state(std::size_t current,
                                       StepRng& rng) const;
};

/// Builder sugar so workload definitions read like tables:
///   FsmBuilder b("engine", "…");
///   b.state("submit-batch", run_fn, inv_fn);
///   b.edge("submit-batch", "cancel-mid-run", 2.0);
class FsmBuilder {
 public:
  FsmBuilder(std::string name, std::string description) {
    fsm_.name = std::move(name);
    fsm_.description = std::move(description);
  }

  FsmBuilder& state(std::string state_name,
                    std::function<void(StressContext&)> run,
                    std::function<std::string(StressContext&)> invariant = {});
  /// Add a weighted edge between named states (both must exist).
  FsmBuilder& edge(const std::string& from, const std::string& to,
                   double weight = 1.0);
  /// Set the start state by name.
  FsmBuilder& start(const std::string& state_name);
  /// Finish: validates and returns the graph (throws std::invalid_argument
  /// on a malformed one so builtin workloads fail loudly at startup).
  [[nodiscard]] StressFsm build();

 private:
  StressFsm fsm_;
};

}  // namespace bddmin::stress
