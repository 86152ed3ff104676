/// Seeded single-threaded walk: one Manager, a pool of tracked functions
/// and a schedule of weighted random ops (builds, cofactors, level swaps,
/// GC, cache flushes, sifting, reset-and-rebuild, serialization round
/// trips, deep audits, heuristics and sifting under tiny quotas).  After
/// every step the pool must still match its 64-bit truth tables and the
/// manager must audit clean at kRefcount.  This is the soundness backstop
/// for the whole package.
///
/// Step k's op and its randomness depend only on (seed, k), so a failing
/// schedule replays from the seed alone and ddmin can drop steps without
/// perturbing the ones it keeps.  A failure prints the seed, the failing
/// step and the shrunk schedule.  BDDMIN_QUICK=1 shortens the walk.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/audit.hpp"
#include "analysis/mutate.hpp"
#include "bdd/bdd.hpp"
#include "bdd/governor.hpp"
#include "bdd/io.hpp"
#include "bdd/ops.hpp"
#include "bdd/truth_table.hpp"
#include "minimize/registry.hpp"

namespace bddmin {
namespace {

constexpr unsigned kVars = 6;
// Six variables fill a 64-bit truth table exactly, so no masking is needed.
static_assert(tt_mask(kVars) == ~std::uint64_t{0});

enum class Op {
  kBuild,
  kCofactor,
  kSwap,
  kGc,
  kClearCaches,
  kSift,
  kResetReuse,
  kRoundTrip,
  kDeepAudit,
  kHeuristic,
  kHeuristicUnderQuota,
  kSiftUnderQuota,
  kInject,  // keep last: every op before it is a random-walk op
};

struct OpInfo {
  const char* name;
  unsigned weight;  // relative draw weight in a random walk
};

// Indexed by Op.  inject corrupts the manager on purpose: it only appears
// in explicit schedules.
constexpr OpInfo kOps[] = {
    {"build", 6},          {"cofactor", 2},
    {"swap", 2},           {"gc", 1},
    {"clear-caches", 1},   {"sift", 1},
    {"reset-reuse", 1},    {"round-trip", 1},
    {"deep-audit", 1},     {"heuristic", 2},
    {"heuristic-under-quota", 2}, {"sift-under-quota", 1},
    {"inject", 0},
};

const char* op_name(Op op) { return kOps[static_cast<int>(op)].name; }

/// One schedule entry: the op and its original step index, which alone
/// (with the seed) determines the op's randomness.
struct Step {
  std::uint64_t k;
  Op op;
};
using Schedule = std::vector<Step>;

/// A stream private to (seed, k, salt): salt 0 feeds op bodies, salt 1 the
/// op draw, and k = ~0 the initial pool.
std::mt19937_64 stream(std::uint64_t seed, std::uint64_t k,
                       std::uint64_t salt) {
  std::seed_seq seq{seed, seed >> 32, k, k >> 32, salt};
  return std::mt19937_64(seq);
}

Schedule random_schedule(std::uint64_t seed, std::uint64_t steps) {
  unsigned total = 0;
  for (const OpInfo& info : kOps) total += info.weight;
  Schedule s;
  for (std::uint64_t k = 0; k < steps; ++k) {
    unsigned r = static_cast<unsigned>(stream(seed, k, 1)() % total);
    int op = 0;
    while (r >= kOps[op].weight) r -= kOps[op++].weight;
    s.push_back({k, static_cast<Op>(op)});
  }
  return s;
}

struct Tracked {
  Bdd bdd;
  std::uint64_t tt = 0;
};

/// "" when the manager audits clean at \p level, else the report.
std::string audit(Manager& mgr, analysis::AuditLevel level) {
  analysis::AuditOptions opts;
  opts.level = level;
  opts.max_findings = 4;
  const analysis::AuditReport report = analysis::audit_manager(mgr, opts);
  return report.ok() ? "" : report.summary();
}

/// Run \p body under \p lim; false when the budget tripped.  A trip is an
/// allowed outcome: the strong abort guarantee is what the step's
/// invariant then checks.
template <class Body>
bool under_limits(Manager& mgr, const ResourceLimits& lim, Body&& body) {
  mgr.governor().set_limits(lim);
  bool finished = true;
  try {
    body();
  } catch (const ResourceExhausted&) {
    finished = false;
  }
  mgr.governor().clear();
  mgr.garbage_collect();  // reclaim any aborted partial results
  return finished;
}

struct Failure {
  std::size_t at;  // index into the schedule
  std::string message;
};

/// One walk over \p schedule; the first failing step, if any.
std::optional<Failure> run_walk(std::uint64_t seed, const Schedule& schedule) {
  static const std::vector<minimize::Heuristic> kHeuristics =
      minimize::all_heuristics();
  Manager mgr(kVars, /*cache_log2=*/12);
  std::vector<Tracked> pool;
  std::mt19937_64 init = stream(seed, ~std::uint64_t{0}, 0);
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t tt = init();
    pool.push_back({Bdd(mgr, from_tt(mgr, tt, kVars)), tt});
  }

  for (std::size_t i = 0; i < schedule.size(); ++i) {
    std::mt19937_64 rng = stream(seed, schedule[i].k, 0);
    const auto pick = [&]() -> Tracked& { return pool[rng() % pool.size()]; };
    std::string msg;
    try {
      switch (schedule[i].op) {
        case Op::kBuild: {
          const Tracked& a = pick();
          const Tracked& b = pick();
          Tracked next;
          switch (rng() % 6) {
            case 0: next = {a.bdd & b.bdd, a.tt & b.tt}; break;
            case 1: next = {a.bdd | b.bdd, a.tt | b.tt}; break;
            case 2: next = {a.bdd ^ b.bdd, a.tt ^ b.tt}; break;
            case 3: next = {a.bdd - b.bdd, a.tt & ~b.tt}; break;
            case 4: next = {!a.bdd, ~a.tt}; break;
            default: {
              const Tracked& c = pick();
              next = {a.bdd.ite(b.bdd, c.bdd), (a.tt & b.tt) | (~a.tt & c.tt)};
              break;
            }
          }
          pick() = std::move(next);
          break;
        }
        case Op::kCofactor: {
          const Tracked& a = pick();
          const unsigned v = static_cast<unsigned>(rng() % kVars);
          const bool val = (rng() & 1) != 0;
          std::uint64_t tt = 0;
          for (unsigned m = 0; m < 64; ++m) {
            const unsigned src = val ? (m | 1u << v) : (m & ~(1u << v));
            tt |= ((a.tt >> src) & 1) << m;
          }
          Tracked next{Bdd(mgr, cofactor(mgr, a.bdd.edge(), v, val)), tt};
          pick() = std::move(next);
          break;
        }
        case Op::kSwap:
          (void)mgr.swap_adjacent_levels(
              static_cast<std::uint32_t>(rng() % (kVars - 1)));
          break;
        case Op::kGc:
          mgr.garbage_collect();
          break;
        case Op::kClearCaches: {
          mgr.clear_caches();
          const Tracked& a = pick();
          const Tracked& b = pick();
          const Bdd cold = a.bdd & b.bdd;
          if (to_tt(mgr, cold.edge(), kVars) != (a.tt & b.tt)) {
            msg = "AND result drifted after clear_caches()";
          }
          break;
        }
        case Op::kSift:
          (void)mgr.reorder_sift();
          break;
        case Op::kResetReuse: {
          // The engine's pooling contract: reset, then rebuild from scratch.
          std::vector<std::uint64_t> tts;
          for (const Tracked& t : pool) tts.push_back(t.tt);
          pool.clear();  // drop every pin before the table is torn down
          mgr.reset(kVars);
          for (const std::uint64_t tt : tts) {
            pool.push_back({Bdd(mgr, from_tt(mgr, tt, kVars)), tt});
          }
          break;
        }
        case Op::kRoundTrip: {
          std::vector<Edge> roots;
          for (const Tracked& t : pool) roots.push_back(t.bdd.edge());
          if (deserialize(mgr, serialize(mgr, roots)) != roots) {
            msg = "serialize/deserialize changed a root";
          }
          break;
        }
        case Op::kDeepAudit:
          msg = audit(mgr, analysis::AuditLevel::kCache);
          break;
        case Op::kHeuristic:
        case Op::kHeuristicUnderQuota: {
          const Tracked& f = pick();
          const Tracked& c = pick();
          // Heuristics need a non-empty care set.
          const Bdd care = c.tt != 0 ? c.bdd : !c.bdd;
          const std::uint64_t care_tt = c.tt != 0 ? c.tt : ~c.tt;
          const minimize::Heuristic& h =
              kHeuristics[rng() % kHeuristics.size()];
          ResourceLimits lim;
          if (schedule[i].op == Op::kHeuristicUnderQuota) {
            if ((rng() & 1) != 0) {
              lim.hard_node_limit = mgr.unique_size() + 1 + rng() % 16;
            } else {
              lim.step_limit = 1 + rng() % 48;
            }
          }
          Bdd g;
          if (!under_limits(mgr, lim, [&] {
                g = Bdd(mgr, h.run(mgr, f.bdd.edge(), care.edge()));
              })) {
            break;
          }
          // Definition 2: the cover agrees with f wherever c holds.
          const std::uint64_t g_tt = to_tt(mgr, g.edge(), kVars);
          if (((g_tt ^ f.tt) & care_tt) != 0) {
            msg = h.name + " returned a non-cover";
            break;
          }
          pick() = {std::move(g), g_tt};  // later churn rechecks the cover
          break;
        }
        case Op::kSiftUnderQuota: {
          ResourceLimits lim;
          lim.hard_node_limit = mgr.unique_size() + 1 + rng() % 8;
          under_limits(mgr, lim, [&] { (void)mgr.reorder_sift(); });
          break;
        }
        case Op::kInject: {
          // Fill the computed cache so every mutation class has a target.
          const Bdd t1 = pool[0].bdd & pool[1].bdd;
          const Bdd t2 = pool[0].bdd ^ pool[1].bdd;
          const Bdd t3 = pool[0].bdd.ite(pool[1].bdd, pool[2].bdd);
          const auto m = static_cast<analysis::Mutation>(
              rng() % (static_cast<int>(analysis::Mutation::kCountSkew) + 1));
          const analysis::MutationResult r = analysis::inject(mgr, m, rng());
          if (!r.applied) break;
          const std::string found = audit(mgr, analysis::AuditLevel::kCache);
          msg = std::string("injected ") + analysis::mutation_name(m) + " (" +
                r.description + "): " +
                (found.empty() ? "audit MISSED it" : "detected: " + found);
          break;
        }
      }
      if (msg.empty()) {
        for (std::size_t j = 0; j < pool.size() && msg.empty(); ++j) {
          if (to_tt(mgr, pool[j].bdd.edge(), kVars) != pool[j].tt) {
            msg = "tracked function #" + std::to_string(j) + " drifted";
          }
        }
      }
      if (msg.empty()) msg = audit(mgr, analysis::AuditLevel::kRefcount);
    } catch (const std::exception& e) {
      msg = std::string("unexpected exception: ") + e.what();
    }
    if (!msg.empty()) return Failure{i, msg};
  }
  return std::nullopt;
}

/// ddmin: drop chunks of the schedule while the walk still fails on the
/// same op, truncating each kept candidate at its failing step.
Schedule shrink(std::uint64_t seed, Schedule s, const Failure& failure) {
  const Op target = s[failure.at].op;
  s.resize(failure.at + 1);
  std::size_t parts = 2;
  for (int runs = 0; s.size() >= 2 && runs < 512;) {
    const std::size_t chunk = (s.size() + parts - 1) / parts;
    bool reduced = false;
    for (std::size_t start = 0; start < s.size() && !reduced; start += chunk) {
      Schedule cand;
      for (std::size_t j = 0; j < s.size(); ++j) {
        if (j < start || j >= start + chunk) cand.push_back(s[j]);
      }
      if (cand.empty()) continue;
      ++runs;
      const std::optional<Failure> f = run_walk(seed, cand);
      if (f && cand[f->at].op == target) {
        cand.resize(f->at + 1);
        s = std::move(cand);
        parts = std::max<std::size_t>(2, parts - 1);
        reduced = true;
      }
    }
    if (!reduced) {
      if (parts >= s.size()) break;
      parts = std::min(s.size(), parts * 2);
    }
  }
  return s;
}

std::string describe(std::uint64_t seed, const Schedule& schedule,
                     const Failure& failure) {
  std::ostringstream out;
  out << "seed " << seed << ", step " << schedule[failure.at].k << " ("
      << op_name(schedule[failure.at].op) << "): " << failure.message
      << "\n  shrunk schedule:";
  for (const Step& st : shrink(seed, schedule, failure)) {
    out << ' ' << st.k << ':' << op_name(st.op);
  }
  return out.str();
}

void expect_clean(std::uint64_t seed, const Schedule& schedule) {
  const std::optional<Failure> f = run_walk(seed, schedule);
  if (f) ADD_FAILURE() << describe(seed, schedule, *f);
}

bool quick_mode() {
  const char* q = std::getenv("BDDMIN_QUICK");
  return q != nullptr && q[0] == '1';
}

class StressWalk : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StressWalk, SeededWalkStaysConsistent) {
  const std::uint64_t steps = quick_mode() ? 100 : 1000;
  expect_clean(GetParam(), random_schedule(GetParam(), steps));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressWalk,
                         ::testing::Values(101, 202, 303, 404, 505));

TEST(StressWalk, QuotaTearScheduleStaysClean) {
  // The shrunk schedule of the mid-swap NodeLimit tear: sifting under a
  // hard quota used to throw from unique_insert after swap_adjacent_levels
  // had flipped the order maps.  Quotas now pause across a swap.
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    expect_clean(seed, {{0, Op::kBuild},
                        {1, Op::kHeuristicUnderQuota},
                        {2, Op::kSiftUnderQuota}});
  }
}

TEST(StressWalk, InjectedFaultIsReportedAndShrunk) {
  constexpr std::uint64_t kSeed = 3;
  constexpr std::uint64_t kInjectStep = 10;
  Schedule s;
  constexpr auto kRandomOps = static_cast<std::uint64_t>(Op::kInject);
  for (std::uint64_t k = 0; k < 21; ++k) {
    s.push_back({k, k == kInjectStep ? Op::kInject
                                     : static_cast<Op>(k % kRandomOps)});
  }
  const std::optional<Failure> f = run_walk(kSeed, s);
  ASSERT_TRUE(f.has_value());
  ASSERT_EQ(s[f->at].k, kInjectStep) << f->message;
  EXPECT_NE(f->message.find("detected"), std::string::npos) << f->message;

  const Schedule mini = shrink(kSeed, s, *f);
  ASSERT_FALSE(mini.empty());
  EXPECT_LE(mini.size(), 3u);
  EXPECT_EQ(mini.back().k, kInjectStep);
  EXPECT_EQ(mini.back().op, Op::kInject);

  // Same op, same corruption class, caught the same way.
  const std::optional<Failure> again = run_walk(kSeed, mini);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->at, mini.size() - 1);
  const auto head = [](const std::string& m) {
    return m.substr(0, m.find(" ("));  // "injected <mutation class>"
  };
  EXPECT_EQ(head(again->message), head(f->message));
  EXPECT_NE(again->message.find("detected"), std::string::npos);

  const std::string report = describe(kSeed, s, *f);
  EXPECT_NE(report.find("seed 3, step 10 (inject)"), std::string::npos)
      << report;
  EXPECT_NE(report.find("10:inject"), std::string::npos) << report;
}

}  // namespace
}  // namespace bddmin
