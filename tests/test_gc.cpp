#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "analysis/access.hpp"
#include "analysis/audit.hpp"
#include "bdd/bdd.hpp"
#include "bdd/ops.hpp"
#include "bdd/truth_table.hpp"

namespace bddmin {
namespace {

/// The slots a collection that scans every slot for ref-0 nodes frees, in
/// the order it frees them, simulated on a copy of the node table.
std::vector<std::uint32_t> full_scan_sweep(const Manager& mgr) {
  std::vector<Node> nodes = analysis::ManagerAccess::nodes(mgr);
  std::vector<std::uint32_t> work;
  for (std::uint32_t i = 1; i < nodes.size(); ++i) {
    if (nodes[i].var != kFreeVar && nodes[i].ref == 0) work.push_back(i);
  }
  std::vector<std::uint32_t> freed;
  while (!work.empty()) {
    const std::uint32_t i = work.back();
    work.pop_back();
    Node& n = nodes[i];
    if (n.var == kFreeVar) continue;
    for (const Edge child : {n.hi, n.lo}) {
      Node& cn = nodes[child.index()];
      if (cn.ref != 0xFFFF'FFFFu && --cn.ref == 0) work.push_back(child.index());
    }
    n.var = kFreeVar;
    freed.push_back(i);
  }
  return freed;
}

TEST(Gc, UnreferencedNodesAreReclaimed) {
  Manager mgr(6);
  const std::size_t baseline = mgr.live_nodes();
  (void)mgr.xor_(mgr.var_edge(0), mgr.xor_(mgr.var_edge(1), mgr.var_edge(2)));
  EXPECT_GT(mgr.dead_nodes(), 0u);
  const std::size_t freed = mgr.garbage_collect();
  EXPECT_GT(freed, 0u);
  EXPECT_EQ(mgr.dead_nodes(), 0u);
  EXPECT_EQ(mgr.live_nodes(), baseline);
}

TEST(Gc, ReferencedRootsSurviveWithChildren) {
  Manager mgr(6);
  const Edge f = mgr.xor_(mgr.var_edge(0), mgr.var_edge(3));
  mgr.ref(f);
  (void)mgr.and_(mgr.var_edge(1), mgr.var_edge(2));  // garbage
  mgr.garbage_collect();
  // f must still evaluate correctly: rebuilding it finds the same node.
  EXPECT_EQ(mgr.xor_(mgr.var_edge(0), mgr.var_edge(3)), f);
  EXPECT_EQ(count_nodes(mgr, f), 3u);
  mgr.deref(f);
}

TEST(Gc, RecycledSlotsAreReused) {
  Manager mgr(8);
  Edge junk = kOne;
  for (unsigned v = 0; v < 8; ++v) junk = mgr.xor_(junk, mgr.var_edge(v));
  const std::size_t allocated = mgr.allocated_nodes();
  mgr.garbage_collect();
  Edge junk2 = kZero;
  for (unsigned v = 0; v < 8; ++v) junk2 = mgr.xnor_(junk2, mgr.var_edge(v));
  // Same shape rebuilt: no net new slots needed beyond the first round.
  EXPECT_LE(mgr.allocated_nodes(), allocated + 1);
}

TEST(Gc, CacheIsFlushedByCollection) {
  Manager mgr(4);
  const Edge f = mgr.var_edge(0);
  mgr.cache_insert(Manager::kUserOpBase, f, f, f, kOne);
  mgr.garbage_collect();
  Edge out;
  EXPECT_FALSE(mgr.cache_lookup(Manager::kUserOpBase, f, f, f, &out));
}

TEST(Gc, GcRunsCounterIncrements) {
  Manager mgr(2);
  const auto before = mgr.gc_runs();
  mgr.garbage_collect();
  EXPECT_EQ(mgr.gc_runs(), before + 1);
}

TEST(Gc, CandidateSweepEqualsFullScan) {
  // A seeded mix of builds, drops, revivals, level swaps, sifts and resets;
  // every collection must free exactly what a scan of every slot frees,
  // in the same order, and the manager must audit clean after each step.
  Manager mgr(6);
  std::mt19937_64 rng(2024);
  std::vector<Bdd> held;
  analysis::AuditOptions opts;
  opts.level = analysis::AuditLevel::kRefcount;
  std::size_t collections = 0;
  for (int step = 0; step < 600; ++step) {
    switch (rng() % 8) {
      case 0:
      case 1:
        held.emplace_back(mgr, from_tt(mgr, rng() & tt_mask(6), 6));
        break;
      case 2:
        if (held.size() >= 2) {
          const Bdd mixed = held[rng() % held.size()] ^ held[rng() % held.size()];
          held.push_back(mixed);
        }
        break;
      case 3:
        if (!held.empty()) held.erase(held.begin() + rng() % held.size());
        break;
      case 4:
        (void)mgr.swap_adjacent_levels(static_cast<std::uint32_t>(rng() % 5));
        break;
      case 5:
        if (rng() % 4 == 0) {
          mgr.reorder_sift();
        } else if (rng() % 4 == 0) {
          held.clear();
          mgr.reset(6);
        }
        break;
      default: {
        const std::vector<std::uint32_t> expected = full_scan_sweep(mgr);
        std::vector<std::uint32_t> free_list =
            analysis::ManagerAccess::free_list(mgr);
        free_list.insert(free_list.end(), expected.begin(), expected.end());
        ASSERT_EQ(mgr.garbage_collect(), expected.size()) << "step " << step;
        ASSERT_EQ(analysis::ManagerAccess::free_list(mgr), free_list)
            << "step " << step;
        ++collections;
        break;
      }
    }
    const analysis::AuditReport report = analysis::audit_manager(mgr, opts);
    ASSERT_TRUE(report.ok()) << "step " << step << ":\n" << report.summary();
  }
  EXPECT_GT(collections, 100u);
}

TEST(BddHandle, KeepsRootAliveAcrossGc) {
  Manager mgr(6);
  Bdd f;
  {
    const Bdd x0(mgr, mgr.var_edge(0));
    const Bdd x1(mgr, mgr.var_edge(1));
    f = x0 ^ x1;
  }
  mgr.garbage_collect();
  EXPECT_EQ(f.size(), 3u);
  EXPECT_EQ(f.edge(), mgr.xor_(mgr.var_edge(0), mgr.var_edge(1)));
}

TEST(BddHandle, CopySharesAndReleasesCorrectly) {
  Manager mgr(4);
  const std::size_t baseline = mgr.live_nodes();
  {
    const Bdd a(mgr, mgr.and_(mgr.var_edge(0), mgr.var_edge(1)));
    const Bdd b = a;         // copy
    Bdd c;
    c = b;                   // copy assign
    const Bdd d = std::move(c);  // move
    EXPECT_EQ(d.edge(), a.edge());
  }
  mgr.garbage_collect();
  EXPECT_EQ(mgr.live_nodes(), baseline);
}

TEST(BddHandle, OperatorsMatchManagerOps) {
  Manager mgr(4);
  const Bdd x(mgr, mgr.var_edge(0));
  const Bdd y(mgr, mgr.var_edge(1));
  EXPECT_EQ((x & y).edge(), mgr.and_(x.edge(), y.edge()));
  EXPECT_EQ((x | y).edge(), mgr.or_(x.edge(), y.edge()));
  EXPECT_EQ((x ^ y).edge(), mgr.xor_(x.edge(), y.edge()));
  EXPECT_EQ((x - y).edge(), mgr.diff(x.edge(), y.edge()));
  EXPECT_EQ((!x).edge(), !x.edge());
  EXPECT_TRUE((x & y).leq(x));
  EXPECT_TRUE(x.ite(y, !y) == Bdd(mgr, mgr.xnor_(x.edge(), y.edge())));
}

TEST(EdgePin, PinsUntilDestroyed) {
  Manager mgr(4);
  Edge f;
  {
    EdgePin pin(mgr);
    f = pin.pin(mgr.xor_(mgr.var_edge(0), mgr.var_edge(1)));
    mgr.garbage_collect();
    EXPECT_EQ(count_nodes(mgr, f), 3u);  // survived: still intact
  }
  mgr.garbage_collect();
  // After the pin is gone the node count drops back to just vars/terminal.
  EXPECT_EQ(mgr.live_nodes(), 1u);
}

TEST(Gc, RepeatedAbortGcReuseCyclesRecycleSlots) {
  // Abort-&-recover drill: trip the node quota, collect the dead partials,
  // reuse the manager, repeat.  Reclaimed slots must come back through the
  // free list, so the table size is the same after every cycle — a leaked
  // reference or a free-list break would make it creep upward.
  Manager mgr(6);
  ResourceLimits lim;
  lim.hard_node_limit = mgr.allocated_nodes() + 12;
  std::mt19937_64 rng(77);
  std::size_t table_size = 0;
  for (int cycle = 0; cycle < 25; ++cycle) {
    mgr.governor().set_limits(lim);
    EXPECT_THROW(
        {
          for (int k = 0; k < 6; ++k) (void)from_tt(mgr, rng() & tt_mask(6), 6);
        },
        NodeLimit);
    mgr.governor().clear();
    mgr.garbage_collect();
    EXPECT_EQ(mgr.dead_nodes(), 0u);
    if (cycle == 0) {
      table_size = mgr.allocated_nodes();
    } else {
      EXPECT_EQ(mgr.allocated_nodes(), table_size) << "cycle " << cycle;
    }
  }
  // The survivor is still a working manager.
  const Edge f = mgr.xor_(mgr.var_edge(0), mgr.var_edge(5));
  EXPECT_EQ(count_nodes(mgr, f), 3u);
}

TEST(Gc, HeavyChurnStressKeepsCanonicity) {
  Manager mgr(6);
  std::mt19937_64 rng(31);
  const Bdd keep(mgr, from_tt(mgr, rng() & tt_mask(6), 6));
  const std::uint64_t keep_tt = to_tt(mgr, keep.edge(), 6);
  for (int round = 0; round < 50; ++round) {
    (void)from_tt(mgr, rng() & tt_mask(6), 6);
    if (round % 7 == 0) mgr.garbage_collect();
  }
  mgr.garbage_collect();
  EXPECT_EQ(to_tt(mgr, keep.edge(), 6), keep_tt);
  EXPECT_EQ(from_tt(mgr, keep_tt, 6), keep.edge());
}

}  // namespace
}  // namespace bddmin
