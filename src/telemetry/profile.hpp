/// \file profile.hpp
/// \brief Per-phase profiles: split a manager's counter deltas across the
/// minimizer phases matching / cover-build / validation.
///
/// The phase lives in the manager's counter bank (telemetry/counters.hpp):
/// one counter row per phase and a pointer to the current row.  PhaseScope
/// RAII markers inside the minimizers switch it: the matching criteria
/// (minimize/matching.cpp, the fmm_* passes of level.cpp) report
/// kMatching, result construction is the default kCoverBuild, and the
/// per-call evaluator (harness::evaluate_call) wraps its cover checks in
/// kValidation.  A ProfileCollector reads the rows when it is built and
/// when it is destroyed, and adds the difference to a PhaseProfile; the
/// evaluator installs one per heuristic run.
///
/// Attribution is exclusive: entering a nested phase stops the outer
/// one's row until the scope closes.  A profile is a split of work, not
/// of time — it counts memoization misses, cache traffic and inserts,
/// which depend only on the operation sequence, so it is exact and
/// deterministic.  Wall time is measured per heuristic run
/// (harness::HeuristicResult::seconds), never per phase.
///
/// Cost: a PhaseScope stores the row pointer and the governor's step
/// slot on entry and again on exit, with or without a collector.  It
/// reads no clock and copies no counters, which matters because every
/// sibling match opens a matching scope: a clock read per switch costs a
/// large share of the heuristic time on batches of small jobs
/// (docs/API.md, "Overhead").
#pragma once

#include <array>
#include <cstdint>

#include "bdd/manager.hpp"
#include "telemetry/counters.hpp"

namespace bddmin::telemetry {

/// Work attributed to one phase.
struct PhaseData {
  std::uint64_t steps = 0;           ///< governor steps (memo misses)
  std::uint64_t cache_hits = 0;      ///< computed-cache hits, all op classes
  std::uint64_t cache_misses = 0;
  std::uint64_t unique_inserts = 0;  ///< new nodes built
};

struct PhaseProfile {
  std::array<PhaseData, kNumPhases> phases{};

  [[nodiscard]] PhaseData& operator[](Phase p) noexcept {
    return phases[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] const PhaseData& operator[](Phase p) const noexcept {
    return phases[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] std::uint64_t total_steps() const noexcept {
    std::uint64_t total = 0;
    for (const PhaseData& d : phases) total += d.steps;
    return total;
  }
};

/// Adds the per-phase deltas of \p mgr's counters over its lifetime to
/// \p out, so collections accumulate.  Only \p mgr's work is seen; every
/// collector alive on a manager sees all of its deltas.
class ProfileCollector {
 public:
  ProfileCollector(const Manager& mgr, PhaseProfile* out) noexcept;
  ~ProfileCollector();
  ProfileCollector(const ProfileCollector&) = delete;
  ProfileCollector& operator=(const ProfileCollector&) = delete;

 private:
  const Manager& mgr_;
  PhaseProfile* out_;
  std::array<CounterSnapshot, kNumPhases> start_;
};

/// RAII phase marker: attributes \p mgr's work to \p p until destroyed,
/// then restores the previous phase — also when an exception unwinds
/// through it.
///
/// Must be bound to a named local: a discarded temporary switches the
/// phase and switches straight back, attributing nothing.  The
/// constructor is [[nodiscard]], so the compiler warns on that form (an
/// error under -Werror; tests/compile_fail/discarded_phase_scope.cpp).
class PhaseScope {
 public:
  [[nodiscard]] PhaseScope(Manager& mgr, Phase p) noexcept
      : mgr_(mgr), prev_(mgr.set_phase(p)) {}
  ~PhaseScope() { (void)mgr_.set_phase(prev_); }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Manager& mgr_;
  Phase prev_;
};

}  // namespace bddmin::telemetry
