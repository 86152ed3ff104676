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
/// Arming, two ways:
///  * programmatically: `failpoints().arm("gc_oom", 1)` (fire on the
///    first evaluation) or `failpoints().arm_from_spec("gc_oom:once")`
///  * environment:      `BDDMIN_FAILPOINTS=gc_oom:once,job_decode_corrupt:nth:3`
///    (parsed by `arm_from_env`, which the batch engine calls at the top
///    of `run_batch` — so job *generation* in the CLI is never faulted,
///    only the batch under test)
///
/// Spec grammar: `name:off`, `name:once` (= `name:nth:1`) and `name:nth:N`
/// (fire on the Nth evaluation after arming, then disarm).  A fired hit
/// carries the site's catalog default payload.
///
/// Thread safety: `poll()` is safe from any thread.  Each site is one
/// atomic countdown decremented by compare-and-swap, so exactly one
/// evaluation fires however many threads poll it; the disarmed fast path
/// is one relaxed load.  Arming/disarming while sites are being
/// evaluated is supported.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string_view>

namespace bddmin::analysis {

/// Result of one evaluation.  Truthy iff the site should inject.
struct FailPointHit {
  bool fired = false;
  std::uint64_t value = 0;  ///< the catalog's payload (exit code, ...)

  explicit operator bool() const noexcept { return fired; }
};

/// One named injection point.  Instances live in (and are owned by) the
/// registry for the life of the process; sites cache a reference.
class FailPoint {
 public:
  FailPoint(const FailPoint&) = delete;
  FailPoint& operator=(const FailPoint&) = delete;

  /// Evaluate the failpoint: the disarmed fast path is one relaxed load.
  [[nodiscard]] FailPointHit poll() noexcept;

 private:
  friend class FailPointRegistry;
  constexpr explicit FailPoint(std::uint64_t value) noexcept : value_(value) {}

  /// Evaluations left up to and including the one that fires; 0 = disarmed.
  std::atomic<std::uint64_t> countdown_{0};
  const std::uint64_t value_;
};

/// The process-wide registry.  The set of failpoints is fixed at compile
/// time (the catalog in failpoint.cpp); only arming state is dynamic.
class FailPointRegistry {
 public:
  struct CatalogEntry {
    const char* name;
    const char* description;
    std::uint64_t default_value;  ///< hit payload (0 if unused)
  };

  static FailPointRegistry& instance();

  /// The full compile-time catalog, for enumeration (the failpoint sweep
  /// test).  A constant array: nothing is allocated during static
  /// initialization.
  [[nodiscard]] static std::span<const CatalogEntry> catalog();

  /// The failpoint named \p name.  BDDMIN_CHECKs that the name is
  /// cataloged — an unknown name is a programming error, not a config
  /// error (config errors are reported by arm_from_spec).
  [[nodiscard]] FailPoint& site(std::string_view name);

  /// Arm \p name to fire on its \p nth evaluation from now (1 = the
  /// next one), then disarm; \p nth == 0 disarms.  Throws
  /// std::invalid_argument on unknown names (these come from user input,
  /// unlike site()).
  void arm(std::string_view name, std::uint64_t nth);
  void disarm_all() noexcept;

  /// Evaluate by name — for tests, which want arming semantics without a
  /// compiled-in site.
  [[nodiscard]] FailPointHit evaluate(std::string_view name);

  /// Parse and arm one spec (grammar in the file comment).  Throws
  /// std::invalid_argument with a precise message.
  void arm_from_spec(std::string_view spec);

  /// Read BDDMIN_FAILPOINTS (comma-separated specs) and arm each one.
  /// No-op when unset.  Malformed specs are a hard error
  /// (harness::EnvError), consistent with the other BDDMIN_* variables.
  /// Re-arming restarts the countdown, so callers invoke it at a single
  /// well-defined point (the top of run_batch).
  void arm_from_env();

 private:
  FailPointRegistry() = default;
  /// The points, parallel to catalog(), in static storage.
  [[nodiscard]] static std::span<FailPoint> points() noexcept;
  [[nodiscard]] static FailPoint* find(std::string_view name) noexcept;
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
