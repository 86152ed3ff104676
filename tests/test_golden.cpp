/// \file test_golden.cpp
/// \brief Golden pin of the Table-3 reproduction: reruns the full
/// verify_fsm call stream (bench::run_workload through
/// harness::Interceptor, as bench_table3 does) and checks the kept-call
/// counts, the bucket sizes, every heuristic's cumulative node total in
/// the all / <5 % / >95 % columns and the min / lower-bound ratio against
/// the values recorded in EXPERIMENTS.md, plus the Table 4 `min` row
/// computed from the same records, and every kept call's sizes and bound
/// against the committed bench_table3_records.csv.  It also reruns
/// bench_table2's sibling-matcher loop and pins the Table 2 identities,
/// and bench_ablation_cliques' loop and pins opt_lv's total under each of
/// its LevelOptions configurations.  A refactor of the heuristics, the BDD
/// kernels, the FSM substrate or the per-call evaluator that moves any of
/// them fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/ops.hpp"
#include "bdd/truth_table.hpp"
#include "experiment_common.hpp"
#include "harness/csv.hpp"
#include "harness/stats.hpp"
#include "minimize/level.hpp"
#include "minimize/registry.hpp"
#include "minimize/sibling.hpp"
#include "workload/instances.hpp"

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

  // Every kept call, not only the totals: the records' columns call ..
  // size_f_or_nc (f_size, c_onset, lower_bound, min and each heuristic's
  // size; the seconds columns are timings) against the committed
  // bench_table3_records.csv, so a drifted evaluator fails on the exact
  // call where it differs.
  const std::size_t pinned_columns = 5 + names.size();
  const auto pinned_rows = [pinned_columns](const std::string& csv) {
    std::vector<std::string> rows;
    std::istringstream in(csv);
    std::string line;
    while (std::getline(in, line)) {
      std::size_t end = 0;
      for (std::size_t k = 0; k < pinned_columns; ++k) {
        end = line.find(',', end + (k > 0 ? 1 : 0));
      }
      rows.push_back(line.substr(0, end));
    }
    return rows;
  };
  std::ifstream committed(BDDMIN_REPO_ROOT "/bench_table3_records.csv");
  ASSERT_TRUE(committed.good());
  std::stringstream text;
  text << committed.rdbuf();
  const std::vector<std::string> want = pinned_rows(text.str());
  const std::vector<std::string> got = pinned_rows(
      harness::records_to_csv(names, interceptor.records()));
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "records row " << i;
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

TEST(Golden, AblationCliquesOptLvTotals) {
  // bench_ablation_cliques' loop exactly: seed 123, 24 random 12-variable
  // instances (every third at care density 0.97, the rest at 0.15), a
  // collection before every opt_lv call; totals as printed there.
  Manager mgr(12);
  std::mt19937_64 rng(123);
  std::vector<minimize::IncSpec> instances;
  std::vector<Bdd> pins;
  for (int i = 0; i < 24; ++i) {
    const double density = (i % 3 == 0) ? 0.97 : 0.15;
    const minimize::IncSpec spec =
        workload::random_instance(mgr, 12, density, rng);
    if (spec.c == kZero || spec.c == kOne) continue;
    instances.push_back(spec);
    pins.emplace_back(mgr, spec.f);
    pins.emplace_back(mgr, spec.c);
  }
  ASSERT_EQ(instances.size(), 24u);

  struct Config {
    const char* label;
    minimize::LevelOptions opts;
    std::size_t total;
  };
  std::vector<Config> configs(7, Config{"", {}, 0});
  configs[0] = {"both optimizations (default)", {}, 201};
  configs[1] = {"no degree ordering", {}, 201};
  configs[1].opts.order_by_degree = false;
  configs[2] = {"no distance weights", {}, 204};
  configs[2].opts.weight_by_distance = false;
  configs[3] = {"naive greedy cliques", {}, 201};
  configs[3].opts.order_by_degree = false;
  configs[3].opts.weight_by_distance = false;
  configs[4] = {"set-size cap 8", {}, 199};
  configs[4].opts.max_set_size = 8;
  configs[5] = {"set-size cap 32", {}, 201};
  configs[5].opts.max_set_size = 32;
  configs[6] = {"set-size cap 128", {}, 201};
  configs[6].opts.max_set_size = 128;
  for (const Config& config : configs) {
    std::size_t total = 0;
    for (const minimize::IncSpec& spec : instances) {
      mgr.garbage_collect();
      total += count_nodes(mgr, minimize::opt_lv(mgr, spec.f, spec.c,
                                                 config.opts));
    }
    EXPECT_EQ(total, config.total) << config.label;
  }
}

}  // namespace
}  // namespace bddmin
