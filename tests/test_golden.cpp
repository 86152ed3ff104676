/// \file test_golden.cpp
/// \brief Golden pin of the Table-3 reproduction: reruns the full
/// verify_fsm call stream (bench::run_workload through
/// harness::Interceptor, as bench_table3 does) and checks the kept-call
/// counts, the bucket sizes, every heuristic's cumulative node total in
/// the all / <5 % / >95 % columns and the min / lower-bound ratio against
/// the values recorded in EXPERIMENTS.md, plus the Table 4 `min` row
/// computed from the same records.  A refactor of the heuristics,
/// the BDD kernels or the FSM substrate that moves any of them fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "experiment_common.hpp"
#include "harness/stats.hpp"
#include "minimize/registry.hpp"

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

}  // namespace
}  // namespace bddmin
