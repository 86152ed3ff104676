/// \file failpoint.hpp
/// \brief Process-wide registry of named fault-injection points.
///
/// A failpoint is a named hook compiled into a hot path that normally
/// costs one relaxed atomic load, but can be *armed* to simulate the
/// failures the robustness machinery must survive: allocation failure
/// (`OutOfMemory`), payload corruption, and process death.  The idiom
/// follows mongod's failpoints: the registry owns the arming state and a
/// site-local macro evaluates it.
///
/// A site looks like:
///
///     if (BDDMIN_FAILPOINT("gc_oom")) {
///       throw OutOfMemory("failpoint: gc work list", 0);
///     }
///
/// The *site* decides what to inject; the registry only answers "fire
/// now?" and hands back a per-site payload value (e.g. an exit status).
/// Every site name must appear in the catalog in
/// failpoint.cpp — `FailPointRegistry::site` checks this, and lint rule
/// R7 (tools/bddmin_lint.py) statically cross-checks that every
/// `BDDMIN_FAILPOINT(` site is cataloged and unique.
///
/// Arming, three ways:
///  * programmatically: `failpoints().arm("gc_oom", {.mode = kOnce})`
///  * environment:      `BDDMIN_FAILPOINTS=gc_oom:once,job_decode_corrupt:nth:3`
///    (parsed by `arm_from_env`, which the batch engine calls at the top
///    of `run_batch` — so job *generation* in the CLI is never faulted,
///    only the batch under test)
///  * from the stress FSM: the `failpoints` workload arms random-mode
///    points mid-run (src/stress/workloads.cpp).
///
/// Modes: `off`, `once` (fire on the next evaluation, then disarm),
/// `nth:N` (fire on the Nth evaluation after arming, then disarm),
/// `random:P[:seed]` (fire each evaluation with probability P from a
/// seeded per-site generator; stays armed until disarmed).
///
/// Thread safety: `poll()` is safe from any thread.  The disarmed fast
/// path is one relaxed atomic load; armed evaluation takes a per-site
/// mutex.  Arming/disarming while sites are being evaluated is the
/// intended use (that is what the stress workload does).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "analysis/thread_annotations.hpp"

namespace bddmin::analysis {

enum class FailPointMode : std::uint8_t { kOff, kOnce, kNth, kRandom };

/// Arming parameters.  `value` overrides the site's catalog default
/// payload when non-zero (journal_commit_abort uses it as the exit code).
struct FailPointConfig {
  FailPointMode mode = FailPointMode::kOff;
  std::uint64_t nth = 1;      ///< kNth: fire on the nth evaluation (1-based)
  double probability = 0.0;   ///< kRandom: per-evaluation fire probability
  std::uint64_t seed = 1;     ///< kRandom: per-site generator seed
  std::uint64_t value = 0;    ///< payload override; 0 keeps the default
};

/// Result of one evaluation.  Truthy iff the site should inject.
struct FailPointHit {
  bool fired = false;
  std::uint64_t value = 0;  ///< site payload (exit code, ...)

  explicit operator bool() const noexcept { return fired; }
};

/// One named injection point.  Instances live in (and are owned by) the
/// registry for the life of the process; sites cache a reference.
class FailPoint {
 public:
  FailPoint(const FailPoint&) = delete;
  FailPoint& operator=(const FailPoint&) = delete;

  /// Evaluate the failpoint: the disarmed fast path is one relaxed load.
  [[nodiscard]] FailPointHit poll() noexcept BDDMIN_EXCLUDES(mu_);

  /// Total fires since process start (diagnostics; monotone).
  [[nodiscard]] std::uint64_t fire_count() const noexcept {
    return fires_.load(std::memory_order_relaxed);
  }

 private:
  friend class FailPointRegistry;
  explicit FailPoint(std::uint64_t default_value) noexcept
      : default_value_(default_value) {}

  void configure(const FailPointConfig& cfg) BDDMIN_EXCLUDES(mu_);
  [[nodiscard]] FailPointHit fire_locked() noexcept BDDMIN_REQUIRES(mu_);

  std::atomic<bool> armed_{false};
  std::atomic<std::uint64_t> fires_{0};
  std::mutex mu_;
  FailPointConfig cfg_ BDDMIN_GUARDED_BY(mu_);
  std::uint64_t countdown_ BDDMIN_GUARDED_BY(mu_) = 0;  // kNth
  std::uint64_t rng_ BDDMIN_GUARDED_BY(mu_) = 0;        // kRandom
  const std::uint64_t default_value_;
};

/// The process-wide registry.  The set of failpoints is fixed at compile
/// time (the catalog in failpoint.cpp); only arming state is dynamic.
class FailPointRegistry {
 public:
  struct CatalogEntry {
    const char* name;
    const char* description;
    std::uint64_t default_value;  ///< default hit payload (0 if unused)
  };

  static FailPointRegistry& instance();

  /// The full compile-time catalog, for enumeration (CLI `failpoints`
  /// subcommand, the failpoint sweep test).  A constant array: nothing is
  /// allocated during static initialization.
  [[nodiscard]] static std::span<const CatalogEntry> catalog();

  /// The failpoint named \p name.  BDDMIN_CHECKs that the name is
  /// cataloged — an unknown name is a programming error, not a config
  /// error (config errors are reported by arm_from_spec).
  [[nodiscard]] FailPoint& site(std::string_view name);

  /// Arm / disarm by name.  Throws std::invalid_argument on unknown
  /// names (these come from user input, unlike site()).
  void arm(std::string_view name, const FailPointConfig& cfg);
  void disarm(std::string_view name);
  void disarm_all() noexcept;

  /// Evaluate by name — for tests and the stress workload, which want
  /// mode semantics without a compiled-in site.
  [[nodiscard]] FailPointHit evaluate(std::string_view name);

  /// Parse and arm one `name:mode[:arg...]` spec (grammar in the file
  /// comment).  Throws std::invalid_argument with a precise message.
  void arm_from_spec(std::string_view spec);

  /// Read BDDMIN_FAILPOINTS (comma-separated specs) and arm each one.
  /// No-op when unset.  Malformed specs are a hard error
  /// (harness::EnvError), consistent with the other BDDMIN_* variables.
  /// Idempotent for once/nth modes in the sense that re-arming restarts
  /// the countdown — callers invoke it at a single well-defined point
  /// (the top of run_batch).
  void arm_from_env();

 private:
  FailPointRegistry();
  [[nodiscard]] FailPoint* find(std::string_view name) noexcept;

  std::vector<std::unique_ptr<FailPoint>> points_;  // parallel to catalog()
};

/// Shorthand for FailPointRegistry::instance().
[[nodiscard]] inline FailPointRegistry& failpoints() {
  return FailPointRegistry::instance();
}

}  // namespace bddmin::analysis

/// Evaluate the failpoint named \p name (a string literal; enforced by
/// lint R7).  Yields a truthy FailPointHit when the site should inject.
/// The registry lookup happens once per site (function-local static).
#define BDDMIN_FAILPOINT(name)                                  \
  ([]() noexcept -> ::bddmin::analysis::FailPointHit {          \
    static ::bddmin::analysis::FailPoint& bddmin_failpoint_ =   \
        ::bddmin::analysis::failpoints().site(name);            \
    return bddmin_failpoint_.poll();                            \
  }())
