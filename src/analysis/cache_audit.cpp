/// \file cache_audit.cpp
/// \brief Tier-3 BddAudit pass: computed-cache coherence.
///
/// The computed cache is invalidated in O(1) by bumping an epoch, so a
/// slot is *live* only when its epoch matches the manager's.  Three
/// properties are audited:
///
/// 1. No slot claims an epoch from the future (invalidation monotonicity).
/// 2. Every live slot decodes to in-range, non-free operand/result nodes
///    and a known operation tag.  Known tags are the manager's own (ITE,
///    AND, XOR, the disjointness marker, the agree verdict), the ops.cpp
///    traversal tags (cofactor, exists, and-exists, compose — whose keys
///    partly encode variables, not edges, and are decoded accordingly) and
///    the client range (>= kUserOpBase); anything else in the reserved
///    range is a corruption finding.
/// 3. Live ITE/AND/XOR slots replay correctly: recomputing the operation
///    with a fresh, cache-free recursion must reproduce the memoized edge
///    bit for bit — canonicity turns semantic equality into edge
///    comparison.  Disjointness markers assert result == 1 and that the
///    operands genuinely intersect (uncached AND is nonzero).  Agree
///    verdicts must be 1 or 0, matching whether the uncached (a XOR b)·c
///    is 0.
///
/// Epoch semantics make stale slots (older epoch) legal even when they
/// reference freed nodes; they are skipped, exactly as cache_lookup skips
/// them.  Replay allocates nodes through make_node; they are left dead
/// for the next garbage_collect().
#include <array>
#include <map>
#include <string>
#include <vector>

#include "analysis/access.hpp"
#include "analysis/audit.hpp"
#include "bdd/ops.hpp"

namespace bddmin::analysis {
namespace {

/// ITE with the manager's terminal rules but a private memo table, so the
/// (possibly corrupt) computed cache is never consulted.
Edge uncached_ite(Manager& mgr, Edge f, Edge g, Edge h,
                  std::map<std::array<std::uint32_t, 3>, Edge>& memo) {
  if (f == kOne) return g;
  if (f == kZero) return h;
  if (g == h) return g;
  if (g == kOne && h == kZero) return f;
  if (g == kZero && h == kOne) return !f;
  const std::array<std::uint32_t, 3> key{f.bits, g.bits, h.bits};
  if (const auto it = memo.find(key); it != memo.end()) return it->second;
  const std::uint32_t v = mgr.top_var(f, g, h);
  const auto [f1, f0] = mgr.branches(f, v);
  const auto [g1, g0] = mgr.branches(g, v);
  const auto [h1, h0] = mgr.branches(h, v);
  const Edge t = uncached_ite(mgr, f1, g1, h1, memo);
  const Edge e = uncached_ite(mgr, f0, g0, h0, memo);
  const Edge result = mgr.make_node(v, t, e);
  memo.emplace(key, result);
  return result;
}

std::string edge_str(Edge e) {
  return (e.complemented() ? "!" : "") + std::to_string(e.index());
}

std::string entry_str(std::uint32_t op, Edge a, Edge b, Edge c) {
  return "cache entry op " + std::to_string(op) + " (" + edge_str(a) + ", " +
         edge_str(b) + ", " + edge_str(c) + ")";
}

}  // namespace

void audit_cache(Manager& mgr, std::size_t replay_limit, AuditReport& report) {
  const std::vector<Node>& nodes = ManagerAccess::nodes(mgr);
  const std::uint64_t epoch = ManagerAccess::cache_epoch(mgr);

  struct LiveEntry {
    std::uint32_t op;
    Edge a, b, c, result;
  };
  std::vector<LiveEntry> replayable;

  const std::uint32_t op_ite = ManagerAccess::op_ite();
  const std::uint32_t op_and = ManagerAccess::op_and();
  const std::uint32_t op_xor = ManagerAccess::op_xor();
  const std::uint32_t op_disjoint = ManagerAccess::op_disjoint();
  const std::uint32_t op_agree = ManagerAccess::op_agree();

  // Pass 1: validate every live slot *before* replay — replays allocate
  // nodes and could resurrect a freed slot an entry dangles into.
  const auto edge_valid = [&](Edge e) {
    return e.index() < nodes.size() && nodes[e.index()].var != kFreeVar;
  };
  const auto& sets = ManagerAccess::cache(mgr);
  for (std::size_t i = 0; i < sets.size() * 2; ++i) {
    const auto& slot = sets[i >> 1].way[i & 1];
    if (slot.k1 == ~0ull) continue;  // never used
    if (slot.epoch > epoch) {
      report.add(Category::kCache,
                 "cache slot claims epoch " + std::to_string(slot.epoch) +
                     " but the manager is at epoch " + std::to_string(epoch));
      continue;
    }
    if (slot.epoch != epoch) continue;  // stale: legal, ignored by lookups
    ++report.cache_entries_checked;
    const auto op = static_cast<std::uint32_t>(slot.k1 >> 32);
    const Edge a{static_cast<std::uint32_t>(slot.k1)};
    const Edge b{static_cast<std::uint32_t>(slot.k2 >> 32)};
    const Edge c{static_cast<std::uint32_t>(slot.k2)};
    // Which key words decode to edges depends on the tag: the cofactor key
    // packs (var, value) into b and the compose key packs var into c.
    bool known = true;
    std::vector<Edge> edge_operands{a, slot.result};
    if (op == op_ite || op == op_and || op == op_xor || op == op_disjoint ||
        op == op_agree || op == cache_tag::kExists ||
        op == cache_tag::kAndExists || op >= Manager::kUserOpBase) {
      edge_operands.push_back(b);
      edge_operands.push_back(c);
    } else if (op == cache_tag::kCofactor) {
      edge_operands.push_back(c);  // kOne; b encodes (var << 1) | value
    } else if (op == cache_tag::kCompose) {
      edge_operands.push_back(b);  // c encodes var << 1
    } else {
      known = false;
    }
    if (!known) {
      report.add(Category::kCache,
                 entry_str(op, a, b, c) +
                     " carries a reserved op tag the manager never issues");
      continue;
    }
    bool operands_ok = true;
    for (const Edge e : edge_operands) {
      if (!edge_valid(e)) {
        report.add(Category::kCache,
                   entry_str(op, a, b, c) + " references " +
                       (e.index() < nodes.size() ? "a freed slot"
                                                 : "an out-of-range node") +
                       " at epoch " + std::to_string(epoch));
        operands_ok = false;
        break;
      }
    }
    if (!operands_ok) continue;
    if (op == op_ite || op == op_and || op == op_xor || op == op_disjoint ||
        op == op_agree) {
      replayable.push_back({op, a, b, c, slot.result});
    }
  }

  // Pass 2: replay the manager's own entries through the uncached
  // recursion.  The kernels are ITE specializations, so one oracle covers
  // all of them: AND(a,b) = ite(a,b,0), XOR(a,b) = ite(a,!b,b); a
  // disjointness marker asserts the operands intersect, and an agree
  // verdict is 1 iff ite(ite(a,!b,b), c, 0) is 0.
  std::map<std::array<std::uint32_t, 3>, Edge> memo;
  for (const LiveEntry& entry : replayable) {
    if (replay_limit != 0 && report.cache_replays >= replay_limit) break;
    ++report.cache_replays;
    if (entry.op == op_disjoint) {
      if (entry.result != kOne) {
        report.add(Category::kCache,
                   entry_str(entry.op, entry.a, entry.b, entry.c) +
                       " is a disjointness marker whose result is not 1");
        continue;
      }
      if (uncached_ite(mgr, entry.a, entry.b, kZero, memo) == kZero) {
        report.add(Category::kCache,
                   entry_str(entry.op, entry.a, entry.b, entry.c) +
                       " marks the operands as intersecting but their "
                       "uncached AND is 0");
      }
      continue;
    }
    if (entry.op == op_agree) {
      if (entry.result != kOne && entry.result != kZero) {
        report.add(Category::kCache,
                   entry_str(entry.op, entry.a, entry.b, entry.c) +
                       " is an agree verdict whose result is not 0 or 1");
        continue;
      }
      const Edge differ = uncached_ite(mgr, entry.a, !entry.b, entry.b, memo);
      const bool agree =
          uncached_ite(mgr, differ, entry.c, kZero, memo) == kZero;
      if (agree != (entry.result == kOne)) {
        report.add(Category::kCache,
                   entry_str(entry.op, entry.a, entry.b, entry.c) +
                       " memoizes agree = " + edge_str(entry.result) +
                       " but the uncached (a XOR b)·c is " +
                       (agree ? "0" : "nonzero"));
      }
      continue;
    }
    Edge recomputed;
    const char* oracle = "ITE";
    if (entry.op == op_and) {
      recomputed = uncached_ite(mgr, entry.a, entry.b, kZero, memo);
      oracle = "AND";
    } else if (entry.op == op_xor) {
      recomputed = uncached_ite(mgr, entry.a, !entry.b, entry.b, memo);
      oracle = "XOR";
    } else {
      recomputed = uncached_ite(mgr, entry.a, entry.b, entry.c, memo);
    }
    if (recomputed != entry.result) {
      report.add(Category::kCache,
                 entry_str(entry.op, entry.a, entry.b, entry.c) +
                     " memoizes " + edge_str(entry.result) +
                     " but uncached " + oracle + " yields " +
                     edge_str(recomputed));
    }
  }
}

}  // namespace bddmin::analysis
