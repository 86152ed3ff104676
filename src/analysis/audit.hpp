/// \file audit.hpp
/// \brief BddAudit: deep structural/semantic audits of a live Manager.
///
/// The minimization heuristics (and every theorem the paper proves about
/// them) are only trustworthy if the ROBDD invariants hold: canonical
/// complement edges, unique (var, hi, lo) triples, level-ordered children,
/// accurate reference counts, and a computed cache that never serves a
/// wrong or stale result.  `Manager::check_invariants()` historically
/// audited a fraction of that state; this subsystem audits all of it, in
/// tiers, and reports *every* violation instead of throwing on the first.
///
/// Audit tiers (cumulative; `BDDMIN_AUDIT_LEVEL` selects one at runtime):
///
///   0  off         — no auditing
///   1  structural  — table shape: canonical form, uniqueness, chain and
///                    free-list membership, level order, permutation maps
///   2  refcount    — recompute reference counts from the node graph (and
///                    optionally an explicit root multiset), diff against
///                    stored counts and the live/dead accounting, and check
///                    every live node is reachable from an external root
///   3  cache       — computed-cache coherence: bounds/liveness of every
///                    current-epoch entry, epoch monotonicity, and replay
///                    of live ITE entries through an uncached ITE
///   4  cover       — minimizer output contracts f·c <= g <= f + c̄
///                    (per-call; see analysis/cover_audit.hpp — level 4 is
///                    honored by the harness interceptor and the CLI, not
///                    by audit_manager itself)
///
/// The fault-injection harness (analysis/mutate.hpp) deliberately corrupts
/// each of these properties so the tests can prove the auditors have teeth.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "bdd/manager.hpp"

namespace bddmin::analysis {

enum class AuditLevel : int {
  kOff = 0,
  kStructural = 1,
  kRefcount = 2,
  kCache = 3,
  kCover = 4,
};

/// Parse BDDMIN_AUDIT_LEVEL (an integer, clamped to [0, 4]); absent
/// means kOff, and a value that is not a non-negative integer throws
/// harness::EnvError.
[[nodiscard]] AuditLevel audit_level_from_env();

enum class Category {
  kStructure,   ///< canonical form / level order / shape of a node
  kUniqueness,  ///< duplicate (var, hi, lo) triple
  kChain,       ///< subtable bucket/chain membership integrity
  kFreeList,    ///< free-list consistency
  kAccounting,  ///< live/dead counters vs actual table state
  kRefCount,    ///< stored ref counts vs recomputed ones
  kReachability,///< live node unreachable from any external root
  kCache,       ///< computed-cache coherence
  kCover,       ///< minimizer output contract violation
};

[[nodiscard]] const char* category_name(Category c) noexcept;

struct Finding {
  Category category{};
  std::string message;
};

struct AuditReport {
  std::vector<Finding> findings;
  /// Findings suppressed once `AuditOptions::max_findings` was reached.
  std::size_t suppressed = 0;

  // Coverage counters, so "0 findings" is distinguishable from "0 work".
  std::size_t nodes_checked = 0;
  std::size_t chain_entries = 0;
  std::size_t refs_recomputed = 0;
  std::size_t cache_entries_checked = 0;
  std::size_t cache_replays = 0;
  std::size_t covers_checked = 0;

  [[nodiscard]] bool ok() const noexcept { return findings.empty(); }
  [[nodiscard]] bool has(Category c) const noexcept;
  void add(Category c, std::string message);
  /// Human-readable multi-line report (findings first, then coverage).
  [[nodiscard]] std::string summary() const;

  /// Cap applied by add(); copied from AuditOptions by audit_manager.
  std::size_t max_findings = 64;
};

struct AuditOptions {
  AuditLevel level = AuditLevel::kCover;
  /// Stop recording (but keep counting) findings beyond this many.
  std::size_t max_findings = 64;
  /// External root edges (with multiplicity) for the ref-count audit.
  /// Ignored unless `exact_roots` is set.
  std::span<const Edge> roots = {};
  /// When true, every node's external ref count (stored minus structural
  /// parent refs) must equal its multiplicity in `roots` — catches leaked
  /// references, not just premature deaths.
  bool exact_roots = false;
};

// ---- Individual passes (append findings; never throw on a finding) ------

/// Tier 1: table shape.  Canonical hi edges, deletion rule, level order,
/// bucket placement, chain/free-list membership, duplicate triples,
/// permutation maps, terminal-node shape, allocation accounting.
void audit_structure(const Manager& mgr, AuditReport& report);

/// Tier 2: recompute per-node reference counts from hi/lo edges; diff
/// against stored counts (exact when \p exact_roots, lower-bound
/// otherwise), validate live/dead accounting against actual refs, and
/// check every live node is reachable from some externally-referenced
/// node.
void audit_refcounts(const Manager& mgr, std::span<const Edge> roots,
                     bool exact_roots, AuditReport& report);

/// Tier 3: computed-cache coherence.  Every current-epoch entry must
/// reference in-range, non-free nodes and carry a known operation tag; no
/// entry may claim a future epoch; live ITE entries are replayed through
/// an uncached ITE and must reproduce the memoized result exactly
/// (canonicity makes semantic equality an edge comparison).  May allocate
/// nodes (the replays) — they are left dead for the next GC.
void audit_cache(Manager& mgr, AuditReport& report);

/// Run the tiers enabled by \p opts.level and collect one report.
[[nodiscard]] AuditReport audit_manager(Manager& mgr, const AuditOptions& opts = {});

/// Tiers 1+2 only — usable on a const manager (no cache replay).
[[nodiscard]] AuditReport audit_manager(const Manager& mgr,
                                        const AuditOptions& opts = {});

}  // namespace bddmin::analysis
