/// \file structural.cpp
/// \brief Tier-1 BddAudit pass: unique-table shape.
///
/// Everything the reduction rules and the unique tables promise is checked
/// here: canonical complement form (stored hi edges regular), the deletion
/// rule (hi != lo), level order under the current var<->level permutation,
/// correct bucket placement, exactly-once chain membership for every
/// allocated node, free-list consistency, absence of duplicate
/// (var, hi, lo) triples, and the allocation accounting that ties
/// live + dead + free to the table size.
#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "analysis/access.hpp"
#include "analysis/audit.hpp"
#include "telemetry/counters.hpp"

namespace bddmin::analysis {
namespace {

std::string edge_str(Edge e) {
  return (e.complemented() ? "!" : "") + std::to_string(e.index());
}

std::string node_str(std::uint32_t index, const Node& n) {
  return "node " + std::to_string(index) + " (var " + std::to_string(n.var) +
         ", hi " + edge_str(n.hi) + ", lo " + edge_str(n.lo) + ")";
}

}  // namespace

void audit_structure(const Manager& mgr, AuditReport& report) {
  const std::vector<Node>& nodes = ManagerAccess::nodes(mgr);
  const auto& subtables = ManagerAccess::subtables(mgr);
  const std::vector<std::uint32_t>& free_list = ManagerAccess::free_list(mgr);
  const std::vector<std::uint32_t>& var_to_level = ManagerAccess::var_to_level(mgr);
  const std::vector<std::uint32_t>& level_to_var = ManagerAccess::level_to_var(mgr);
  const unsigned num_vars = mgr.num_vars();

  // Terminal node shape.
  if (nodes.empty()) {
    report.add(Category::kStructure, "node table has no terminal node");
    return;
  }
  if (nodes[0].var != kConstVar) {
    report.add(Category::kStructure, "terminal node is not labelled kConstVar");
  }
  if (nodes[0].ref != 0xFFFF'FFFFu) {
    report.add(Category::kStructure, "terminal node ref count is not saturated");
  }

  // var<->level maps must be inverse permutations.
  if (var_to_level.size() != num_vars || level_to_var.size() != num_vars) {
    report.add(Category::kStructure, "var/level permutation maps have wrong size");
  } else {
    for (std::uint32_t v = 0; v < num_vars; ++v) {
      if (var_to_level[v] >= num_vars || level_to_var[var_to_level[v]] != v) {
        report.add(Category::kStructure,
                   "var/level maps are not inverse permutations at var " +
                       std::to_string(v));
      }
    }
  }

  const auto level_of_var = [&](std::uint32_t var) {
    return var < var_to_level.size() ? var_to_level[var] : kConstVar;
  };
  const auto level_of_edge = [&](Edge e) {
    const std::uint32_t v = nodes[e.index()].var;
    return v == kConstVar ? kConstVar : level_of_var(v);
  };
  // A child edge must point in-range at the terminal or an allocated node.
  const auto check_child = [&](std::uint32_t index, const Node& n, Edge child,
                               const char* side) {
    if (child.index() >= nodes.size()) {
      report.add(Category::kStructure, node_str(index, n) + ": " + side +
                                           " child index out of range");
      return false;
    }
    const std::uint32_t cv = nodes[child.index()].var;
    if (cv == kFreeVar) {
      report.add(Category::kStructure, node_str(index, n) + ": " + side +
                                           " child is a freed slot");
      return false;
    }
    if (cv != kConstVar && cv >= num_vars) {
      report.add(Category::kStructure, node_str(index, n) + ": " + side +
                                           " child has invalid var " +
                                           std::to_string(cv));
      return false;
    }
    return true;
  };

  // Walk every chain: per-node checks + membership bitmap.
  std::vector<std::uint8_t> in_chain(nodes.size(), 0);
  std::size_t unique_total = 0;
  std::vector<std::array<std::uint32_t, 3>> triples;
  for (std::uint32_t var = 0; var < subtables.size(); ++var) {
    const auto& table = subtables[var];
    std::size_t chain_total = 0;
    for (std::size_t bucket = 0; bucket < table.buckets.size(); ++bucket) {
      std::size_t walked = 0;
      for (std::uint32_t i = table.buckets[bucket]; i != kNilIndex;
           i = nodes[i].next) {
        if (i >= nodes.size()) {
          report.add(Category::kChain,
                     "chain of var " + std::to_string(var) +
                         " contains out-of-range index " + std::to_string(i));
          break;
        }
        if (++walked > nodes.size()) {
          report.add(Category::kChain,
                     "cycle in chain of var " + std::to_string(var) +
                         " bucket " + std::to_string(bucket));
          break;
        }
        const Node& n = nodes[i];
        ++chain_total;
        ++report.chain_entries;
        if (in_chain[i]) {
          report.add(Category::kChain,
                     node_str(i, n) + " linked into more than one chain");
          continue;
        }
        in_chain[i] = 1;
        if (n.var != var) {
          report.add(Category::kChain,
                     node_str(i, n) + " filed under wrong subtable " +
                         std::to_string(var));
          continue;
        }
        if (ManagerAccess::bucket_of(n.hi, n.lo, table.buckets.size()) != bucket) {
          report.add(Category::kChain,
                     node_str(i, n) + " hangs in the wrong bucket");
        }
        if (n.hi.complemented()) {
          report.add(Category::kStructure,
                     node_str(i, n) + ": stored hi edge is complemented");
        }
        if (n.hi == n.lo) {
          report.add(Category::kStructure,
                     node_str(i, n) + ": unreduced (deletion rule violated)");
        }
        const bool hi_ok = check_child(i, n, n.hi, "hi");
        const bool lo_ok = check_child(i, n, n.lo, "lo");
        if (hi_ok && level_of_var(var) >= level_of_edge(n.hi)) {
          report.add(Category::kStructure,
                     node_str(i, n) + ": hi child at or above parent level");
        }
        if (lo_ok && level_of_var(var) >= level_of_edge(n.lo)) {
          report.add(Category::kStructure,
                     node_str(i, n) + ": lo child at or above parent level");
        }
        triples.push_back({n.var, n.hi.bits, n.lo.bits});
      }
    }
    if (chain_total != table.count) {
      report.add(Category::kChain,
                 "subtable of var " + std::to_string(var) + " counts " +
                     std::to_string(table.count) + " nodes but chains hold " +
                     std::to_string(chain_total));
    }
    unique_total += chain_total;
  }

  // Duplicate (var, hi, lo) triples would break canonicity: two distinct
  // nodes would denote the same function.
  std::sort(triples.begin(), triples.end());
  for (std::size_t k = 1; k < triples.size(); ++k) {
    if (triples[k] == triples[k - 1]) {
      report.add(Category::kUniqueness,
                 "duplicate triple (var " + std::to_string(triples[k][0]) +
                     ", hi " + edge_str(Edge{triples[k][1]}) + ", lo " +
                     edge_str(Edge{triples[k][2]}) + ")");
    }
  }

  // Free-list: every entry free-marked, no duplicates, and every
  // free-marked slot actually on the list.
  std::vector<std::uint8_t> on_free_list(nodes.size(), 0);
  for (const std::uint32_t i : free_list) {
    if (i >= nodes.size()) {
      report.add(Category::kFreeList,
                 "free list contains out-of-range index " + std::to_string(i));
      continue;
    }
    if (on_free_list[i]) {
      report.add(Category::kFreeList,
                 "index " + std::to_string(i) + " on the free list twice");
    }
    on_free_list[i] = 1;
    if (nodes[i].var != kFreeVar) {
      report.add(Category::kFreeList,
                 node_str(i, nodes[i]) + " on the free list but not free-marked");
    }
  }

  // Sweep all slots: allocated nodes must be chained, free ones listed.
  std::size_t free_marked = 0;
  for (std::uint32_t i = 1; i < nodes.size(); ++i) {
    ++report.nodes_checked;
    const Node& n = nodes[i];
    if (n.var == kFreeVar) {
      ++free_marked;
      if (!on_free_list[i]) {
        report.add(Category::kFreeList,
                   "freed slot " + std::to_string(i) + " missing from the free list");
      }
      continue;
    }
    if (n.var == kConstVar) {
      report.add(Category::kStructure,
                 "non-root slot " + std::to_string(i) + " labelled kConstVar");
      continue;
    }
    if (n.var >= num_vars) {
      report.add(Category::kStructure,
                 node_str(i, n) + ": var out of range");
      continue;
    }
    if (!in_chain[i]) {
      report.add(Category::kChain,
                 node_str(i, n) + " allocated but absent from its subtable chain");
    }
  }

  // The O(1) running total behind Manager::unique_size() (maintained at
  // subtable link/unlink) must agree with the sum just recomputed from the
  // chains; drift means a table mutation bypassed the maintenance sites.
  if (mgr.unique_size() != unique_total) {
    report.add(Category::kAccounting,
               "running unique_size() total " +
                   std::to_string(mgr.unique_size()) +
                   " disagrees with the recomputed chain sum " +
                   std::to_string(unique_total));
  }

  // Allocation accounting: every slot is the terminal, chained, or free.
  const std::size_t live = ManagerAccess::live_count(mgr);
  const std::size_t dead = ManagerAccess::dead_count(mgr);
  if (unique_total + 1 != live + dead) {
    report.add(Category::kAccounting,
               "live+dead (" + std::to_string(live) + "+" + std::to_string(dead) +
                   ") disagrees with unique table total " +
                   std::to_string(unique_total) + " + terminal");
  }
  if (unique_total + free_marked + 1 != nodes.size()) {
    report.add(Category::kAccounting,
               "table of " + std::to_string(nodes.size()) + " slots holds " +
                   std::to_string(unique_total) + " chained + " +
                   std::to_string(free_marked) + " free + terminal");
  }

  // Cross-check the structure against the telemetry counters: every node
  // ever chained was counted by kUniqueInserts, and every node unchained
  // was counted by kGcNodesReclaimed (GC sweeps) or kReorderNodesFreed
  // (swap-local frees), so the difference must equal what is chained now.
  // An imbalance means either a table mutation bypassed the instrumented
  // paths or a counter site was lost — both worth a finding.
  using telemetry::Counter;
  const telemetry::CounterSnapshot counters = mgr.telemetry();
  const std::uint64_t created = counters.value(Counter::kUniqueInserts);
  const std::uint64_t freed = counters.value(Counter::kGcNodesReclaimed) +
                              counters.value(Counter::kReorderNodesFreed);
  if (created != freed + unique_total) {
    report.add(Category::kAccounting,
               "telemetry insert/reclaim counters disagree with the unique "
               "table: " +
                   std::to_string(created) + " inserted - " +
                   std::to_string(freed) + " reclaimed != " +
                   std::to_string(unique_total) + " chained");
  }
}

}  // namespace bddmin::analysis
