/// \file test_golden.cpp
/// \brief Golden pin of the Table-3 reproduction: reruns the full
/// verify_fsm call stream (bench::run_workload through
/// harness::Interceptor, as bench_table3 does) and checks the kept-call
/// counts, the bucket sizes, every heuristic's cumulative node total in
/// the all / <5 % / >95 % columns and the min / lower-bound ratio against
/// the values recorded in EXPERIMENTS.md, plus the Table 4 `min` row
/// computed from the same records.  It also reruns bench_table2's
/// sibling-matcher loop and pins the Table 2 identities.  A refactor of
/// the heuristics, the BDD kernels or the FSM substrate that moves any of
/// them fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bdd/truth_table.hpp"
#include "experiment_common.hpp"
#include "harness/stats.hpp"
#include "minimize/registry.hpp"
#include "minimize/sibling.hpp"

namespace bddmin {
namespace {

struct Totals {
  const char* name;
  std::size_t all;
  std::size_t low;   ///< c_onset < 5 %
  std::size_t high;  ///< c_onset > 95 %
};

// EXPERIMENTS.md, Table 3 "Measured totals".
constexpr Totals kTable3[] = {
    {"tsm_td", 41753, 24005, 11118},  {"tsm_cp", 41909, 24183, 11118},
    {"osm_bt", 43738, 26027, 11118},  {"osm_nv", 43773, 26055, 11118},
    {"osm_cp", 44324, 26615, 11118},  {"osm_td", 44509, 26745, 11118},
    {"restr", 45626, 26608, 11175},   {"const", 48629, 28001, 11285},
    {"opt_lv", 53326, 34137, 11130},  {"f_orig", 72200, 51072, 11179},
    {"f_and_c", 121253, 92683, 12412}, {"f_or_nc", 254382, 93079, 147248},
};

/// Position of \p name in \p names (names.size() when absent).
std::size_t index_of(const std::vector<std::string>& names,
                     const std::string& name) {
  return static_cast<std::size_t>(
      std::find(names.begin(), names.end(), name) - names.begin());
}

std::string fixed(double v, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

TEST(Golden, Table3CallStreamMatchesExperimentsMd) {
  // The full workload, whatever the caller's environment asks for.
  unsetenv("BDDMIN_QUICK");
  harness::Interceptor interceptor(minimize::all_heuristics());
  bench::run_workload(interceptor);
  const std::vector<std::string> names = interceptor.names();
  const harness::Table3 t =
      harness::aggregate_table3(names, interceptor.records());

  EXPECT_EQ(interceptor.total_calls(), 10981u);
  EXPECT_EQ(t.all.calls, 2777u);
  EXPECT_EQ(t.low.calls, 1472u);
  EXPECT_EQ(t.high.calls, 560u);
  EXPECT_EQ(t.mid.calls, 745u);

  EXPECT_EQ(t.all.total_min, 40828u);
  EXPECT_EQ(t.low.total_min, 23249u);
  EXPECT_EQ(t.high.total_min, 11118u);
  EXPECT_EQ(t.all.total_lower_bound, 15038u);
  EXPECT_EQ(t.low.total_lower_bound, 6264u);
  EXPECT_EQ(t.high.total_lower_bound, 4996u);

  ASSERT_EQ(names.size(), std::size(kTable3));
  for (const Totals& row : kTable3) {
    const std::size_t h = index_of(names, row.name);
    ASSERT_LT(h, names.size()) << row.name;
    EXPECT_EQ(t.all.total_size[h], row.all) << row.name;
    EXPECT_EQ(t.low.total_size[h], row.low) << row.name;
    EXPECT_EQ(t.high.total_size[h], row.high) << row.name;
  }

  // bench_table3 prints this ratio as "min / lower bound: %.2fx".
  EXPECT_EQ(fixed(static_cast<double>(t.all.total_min) /
                      static_cast<double>(t.all.total_lower_bound),
                  2),
            "2.71");

  // EXPERIMENTS.md, Table 4 `min` row (% of calls where min is strictly
  // smaller than the column), printed to one decimal by bench_table4.
  const harness::HeadToHead h2h =
      harness::head_to_head(names, interceptor.records());
  const std::size_t min_row = index_of(h2h.names, "min");
  ASSERT_LT(min_row, h2h.names.size());
  const std::pair<const char*, const char*> kMinRow[] = {
      {"f_orig", "49.4"}, {"const", "50.8"},  {"restr", "38.2"},
      {"osm_bt", "25.6"}, {"tsm_td", "16.1"}, {"opt_lv", "64.3"},
      {"min", "0.0"}};
  for (const auto& [name, pct] : kMinRow) {
    const std::size_t j = index_of(h2h.names, name);
    ASSERT_LT(j, h2h.names.size()) << name;
    EXPECT_EQ(fixed(h2h.pct_smaller[min_row][j], 1), pct) << name;
  }
}

TEST(Golden, Table2Identities) {
  // bench_table2's loop exactly: seed 4094, 1500 random 6-variable
  // instances, the 12 (criterion, match-compl, no-new-vars) rows of
  // Table 2 through generic_td, in row order.
  using minimize::Criterion;
  const minimize::SiblingOptions rows[] = {
      {Criterion::kOsdm, false, false}, {Criterion::kOsdm, false, true},
      {Criterion::kOsdm, true, false},  {Criterion::kOsdm, true, true},
      {Criterion::kOsm, false, false},  {Criterion::kOsm, false, true},
      {Criterion::kOsm, true, false},   {Criterion::kOsm, true, true},
      {Criterion::kTsm, false, false},  {Criterion::kTsm, false, true},
      {Criterion::kTsm, true, false},   {Criterion::kTsm, true, true},
  };
  constexpr std::size_t kRows = std::size(rows);
  Manager mgr(6);
  std::mt19937_64 rng(4094);
  constexpr int kRounds = 1500;
  // equal[i][j]: rows i and j gave the same cover on every instance.
  std::vector<std::vector<bool>> equal(kRows, std::vector<bool>(kRows, true));
  for (int round = 0; round < kRounds; ++round) {
    const Edge f = from_tt(mgr, rng() & tt_mask(6), 6);
    std::uint64_t c_tt = rng() & tt_mask(6);
    if (c_tt == 0) c_tt = 1;
    const Edge c = from_tt(mgr, c_tt, 6);
    std::vector<Edge> results;
    results.reserve(kRows);
    for (const minimize::SiblingOptions& row : rows) {
      results.push_back(minimize::generic_td(mgr, row, f, c));
    }
    for (std::size_t i = 0; i < kRows; ++i) {
      for (std::size_t j = 0; j < kRows; ++j) {
        if (results[i] != results[j]) equal[i][j] = false;
      }
    }
    if (round % 200 == 0) mgr.garbage_collect();
  }

  // The paper's coincidences (1-based row numbers): 1=3, 2=4, 9=10, 11=12.
  EXPECT_TRUE(equal[0][2]) << "rows 1 and 3 differ";
  EXPECT_TRUE(equal[1][3]) << "rows 2 and 4 differ";
  EXPECT_TRUE(equal[8][9]) << "rows 9 and 10 differ";
  EXPECT_TRUE(equal[10][11]) << "rows 11 and 12 differ";
  // ...and no others: the eight remaining heuristics are pairwise
  // distinguished by at least one instance.
  const std::size_t distinct[] = {0, 1, 4, 5, 6, 7, 8, 10};
  for (const std::size_t i : distinct) {
    for (const std::size_t j : distinct) {
      if (i < j) {
        EXPECT_FALSE(equal[i][j])
            << "rows " << i + 1 << " and " << j + 1 << " coincide";
      }
    }
  }
}

}  // namespace
}  // namespace bddmin
