/// \file refcount.cpp
/// \brief Tier-2 BddAudit pass: reference counts and live/dead accounting.
///
/// Every stored node holds one reference on each child, so a node's stored
/// ref count decomposes as
///
///     stored = structural parent refs + external (client) refs.
///
/// The pass recomputes the structural term by scanning hi/lo edges of all
/// allocated nodes.  Without a root multiset the external term is only
/// bounded (external = stored - structural must be >= 0: a deficit means a
/// premature deref that will free a node still in use).  With an explicit
/// root multiset (`exact_roots`), external must *equal* the root
/// multiplicity, which additionally catches leaked references.  The pass
/// also recomputes live/dead counters from actual refs — the accounting
/// gap the old check_invariants() never covered — and checks that every
/// live node is reachable from some externally-referenced node (an
/// unreachable live node can never be dereferenced again: a leak).
/// Finally, every allocated ref-0 slot must be on the GC candidate list,
/// the only slots garbage_collect() examines: an unlisted one would never
/// be reclaimed.
#include <string>
#include <vector>

#include "analysis/access.hpp"
#include "analysis/audit.hpp"

namespace bddmin::analysis {

void audit_refcounts(const Manager& mgr, std::span<const Edge> roots,
                     bool exact_roots, AuditReport& report) {
  const std::vector<Node>& nodes = ManagerAccess::nodes(mgr);

  // Structural parent refs from hi/lo edges of allocated nodes.
  std::vector<std::uint64_t> structural(nodes.size(), 0);
  for (std::uint32_t i = 1; i < nodes.size(); ++i) {
    const Node& n = nodes[i];
    if (n.var == kFreeVar) continue;
    if (n.hi.index() < nodes.size()) ++structural[n.hi.index()];
    if (n.lo.index() < nodes.size()) ++structural[n.lo.index()];
  }
  std::vector<std::uint64_t> root_refs(nodes.size(), 0);
  for (const Edge root : roots) {
    if (root.index() < nodes.size()) ++root_refs[root.index()];
  }

  std::size_t live = 1;  // the saturated terminal always counts as live
  std::size_t dead = 0;
  for (std::uint32_t i = 1; i < nodes.size(); ++i) {
    const Node& n = nodes[i];
    if (n.var == kFreeVar) continue;
    ++report.refs_recomputed;
    if (n.ref > 0) ++live; else ++dead;
    if (n.ref == 0xFFFF'FFFFu) {
      report.add(Category::kRefCount,
                 "node " + std::to_string(i) +
                     " has a saturated ref count (leaked forever)");
      continue;
    }
    if (n.ref < structural[i]) {
      report.add(Category::kRefCount,
                 "node " + std::to_string(i) + " stores " +
                     std::to_string(n.ref) + " refs but " +
                     std::to_string(structural[i]) +
                     " parents reference it (premature death)");
      continue;
    }
    const std::uint64_t external = n.ref - structural[i];
    if (exact_roots && external != root_refs[i]) {
      report.add(Category::kRefCount,
                 "node " + std::to_string(i) + " has " +
                     std::to_string(external) + " external refs but " +
                     std::to_string(root_refs[i]) + " registered roots (" +
                     (external > root_refs[i] ? "leak" : "missing root ref") +
                     ")");
    }
  }

  // Accounting: the counters the manager maintains incrementally must
  // match what the refs actually say.
  if (ManagerAccess::live_count(mgr) != live) {
    report.add(Category::kAccounting,
               "live_count " + std::to_string(ManagerAccess::live_count(mgr)) +
                   " but " + std::to_string(live) + " nodes have ref > 0");
  }
  if (ManagerAccess::dead_count(mgr) != dead) {
    report.add(Category::kAccounting,
               "dead_count " + std::to_string(ManagerAccess::dead_count(mgr)) +
                   " but " + std::to_string(dead) +
                   " allocated nodes have ref == 0");
  }

  // GC candidates: each listed slot is marked and listed once, and every
  // allocated ref-0 slot is listed.
  const std::vector<std::uint32_t>& listed = ManagerAccess::gc_candidates(mgr);
  const std::vector<std::uint8_t>& marks = ManagerAccess::gc_listed(mgr);
  std::vector<std::uint8_t> on_list(nodes.size(), 0);
  for (const std::uint32_t i : listed) {
    if (i == 0 || i >= nodes.size() || marks[i] == 0 || on_list[i] != 0) {
      report.add(Category::kAccounting,
                 "GC candidate list entry " + std::to_string(i) +
                     " is out of range, unmarked or listed twice");
      continue;
    }
    on_list[i] = 1;
  }
  for (std::uint32_t i = 1; i < nodes.size(); ++i) {
    if (marks[i] != on_list[i]) {
      report.add(Category::kAccounting,
                 "slot " + std::to_string(i) +
                     " GC candidate mark disagrees with the list");
    } else if (nodes[i].var != kFreeVar && nodes[i].ref == 0 &&
               on_list[i] == 0) {
      report.add(Category::kAccounting,
                 "dead node " + std::to_string(i) +
                     " is not on the GC candidate list (never reclaimed)");
    }
  }

  // Reachability: a live node's refs come from clients (external) or from
  // parents — and a parent holding child refs is either itself live or a
  // dead node awaiting GC (dead nodes keep their child refs until swept).
  // So BFS down from every externally-referenced node and every dead
  // node; a live node not reached can only be part of an orphaned cycle
  // or similar corruption, and can never be dereferenced again.
  std::vector<std::uint8_t> reached(nodes.size(), 0);
  std::vector<std::uint32_t> frontier;
  for (std::uint32_t i = 1; i < nodes.size(); ++i) {
    const Node& n = nodes[i];
    if (n.var == kFreeVar) continue;
    const std::uint64_t ref = n.ref == 0xFFFF'FFFFu ? 0 : n.ref;
    if (ref == 0 || ref > structural[i]) {
      reached[i] = 1;
      frontier.push_back(i);
    }
  }
  while (!frontier.empty()) {
    const std::uint32_t i = frontier.back();
    frontier.pop_back();
    const Node& n = nodes[i];
    for (const Edge child : {n.hi, n.lo}) {
      const std::uint32_t ci = child.index();
      if (ci == 0 || ci >= nodes.size() || reached[ci]) continue;
      reached[ci] = 1;
      frontier.push_back(ci);
    }
  }
  for (std::uint32_t i = 1; i < nodes.size(); ++i) {
    const Node& n = nodes[i];
    if (n.var == kFreeVar || n.ref == 0 || reached[i]) continue;
    report.add(Category::kReachability,
               "live node " + std::to_string(i) +
                   " unreachable from any externally referenced root");
  }
}

}  // namespace bddmin::analysis
