#include "harness/intercept.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>

#include "bdd/truth_table.hpp"
#include "engine/engine.hpp"
#include "engine/job.hpp"
#include "harness/csv.hpp"
#include "harness/render.hpp"
#include "harness/stats.hpp"
#include "workload/instances.hpp"

namespace bddmin::harness {
namespace {

/// Feed raw instances straight into an interceptor hook.
std::vector<CallRecord> run_instances(Interceptor& interceptor,
                                      unsigned num_vars, unsigned count,
                                      double density, std::uint64_t seed) {
  Manager mgr(num_vars);
  const fsm::MinimizeHook hook = interceptor.hook();
  std::mt19937_64 rng(seed);
  for (unsigned i = 0; i < count; ++i) {
    const minimize::IncSpec spec =
        workload::random_instance(mgr, num_vars, density, rng);
    const Bdd f(mgr, spec.f);
    const Bdd c(mgr, spec.c);
    (void)hook(mgr, f.edge(), c.edge());
  }
  return interceptor.records();
}

TEST(Interceptor, RecordsOneEntryPerUnfilteredCall) {
  Interceptor interceptor(minimize::all_heuristics(), {});
  const auto records = run_instances(interceptor, 8, 12, 0.5, 3);
  EXPECT_EQ(records.size() + interceptor.filtered_calls(),
            interceptor.total_calls());
  EXPECT_GT(records.size(), 0u);
  for (const CallRecord& r : records) {
    EXPECT_EQ(r.outcomes.size(), interceptor.names().size());
    EXPECT_GT(r.f_size, 0u);
    EXPECT_GT(r.min_size, 0u);
    EXPECT_LE(r.lower_bound, r.min_size);
    for (const HeuristicResult& o : r.outcomes) {
      EXPECT_GE(o.size, r.min_size);
    }
  }
}

TEST(Interceptor, FiltersTrivialCalls) {
  Interceptor interceptor(minimize::all_heuristics(), {});
  Manager mgr(4);
  const fsm::MinimizeHook hook = interceptor.hook();
  const Edge f = mgr.xor_(mgr.var_edge(0), mgr.var_edge(1));
  (void)hook(mgr, f, kOne);                                 // c == 1
  (void)hook(mgr, f, mgr.var_edge(2));                      // c is a cube
  (void)hook(mgr, f, mgr.and_(f, mgr.var_edge(2)));         // c <= f (and cube)
  EXPECT_EQ(interceptor.filtered_calls(), 3u);
  EXPECT_TRUE(interceptor.records().empty());
}

TEST(Interceptor, HookReturnsConstrainResult) {
  Interceptor interceptor(minimize::all_heuristics(), {});
  Manager mgr(6);
  const fsm::MinimizeHook hook = interceptor.hook();
  std::mt19937_64 rng(5);
  const Edge f = from_tt(mgr, rng() & tt_mask(6), 6);
  const Edge c = from_tt(mgr, rng() | (1ull << 7), 6);
  const Bdd fp(mgr, f);
  const Bdd cp(mgr, c);
  const Edge returned = hook(mgr, f, c);
  EXPECT_EQ(returned, minimize::constrain(mgr, f, c));
}

TEST(Interceptor, NonCoverFailsWithTheEngineMessage) {
  // One error contract: a heuristic returning !f makes the Interceptor
  // throw std::logic_error and the batch engine report kError, with the
  // same message.
  const minimize::Heuristic negate{
      "negate", [](Manager&, Edge f, Edge) { return !f; }};
  Manager mgr(3);
  const Bdd f(mgr, mgr.xor_(mgr.var_edge(0), mgr.var_edge(1)));
  const Bdd c(mgr, mgr.or_(mgr.var_edge(0), mgr.var_edge(2)));
  const minimize::IncSpec spec{f.edge(), c.edge()};
  ASSERT_FALSE(minimize::classify_call(mgr, spec).filtered());

  Interceptor interceptor({negate}, {});
  std::string thrown;
  try {
    (void)interceptor.hook()(mgr, spec.f, spec.c);
  } catch (const std::logic_error& e) {
    thrown = e.what();
  }
  EXPECT_EQ(thrown, "negate returned a non-cover");
  EXPECT_TRUE(interceptor.records().empty());

  engine::EngineOptions opts;
  opts.num_threads = 1;
  opts.heuristics = {negate};
  const engine::Job job = engine::make_job(mgr, "negate", spec);
  const engine::BatchReport report =
      engine::run_batch(std::span<const engine::Job>(&job, 1), opts);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_EQ(report.outcomes[0].status, engine::JobStatus::kError);
  EXPECT_EQ(report.outcomes[0].error, thrown);
}

TEST(Interceptor, MinIsTheBestOutcome) {
  Interceptor interceptor(minimize::all_heuristics(), {});
  const auto records = run_instances(interceptor, 8, 8, 0.3, 9);
  for (const CallRecord& r : records) {
    std::size_t best = SIZE_MAX;
    for (const HeuristicResult& o : r.outcomes) best = std::min(best, o.size);
    EXPECT_EQ(best, r.min_size);
  }
}

TEST(Stats, BucketsPartitionTheRecords) {
  Interceptor low_i(minimize::all_heuristics(), {});
  run_instances(low_i, 10, 6, 0.02, 11);
  Interceptor high_i(minimize::all_heuristics(), {});
  run_instances(high_i, 10, 6, 0.99, 13);
  std::vector<CallRecord> records = low_i.records();
  const auto& more = high_i.records();
  records.insert(records.end(), more.begin(), more.end());
  const Table3 table = aggregate_table3(low_i.names(), records);
  EXPECT_EQ(table.all.calls,
            table.low.calls + table.mid.calls + table.high.calls);
  EXPECT_EQ(table.all.calls, records.size());
  // Totals add up across buckets.
  for (std::size_t h = 0; h < table.names.size(); ++h) {
    EXPECT_EQ(table.all.total_size[h], table.low.total_size[h] +
                                           table.mid.total_size[h] +
                                           table.high.total_size[h]);
  }
}

TEST(Stats, EmptyMidBucketRendersWithoutNans) {
  // All calls fall in the <5% / >95% buckets, so mid has zero calls and a
  // zero total_min; pct_of_min must stay finite (and zero) instead of
  // dividing by zero, and the rendered table must not contain "nan".
  const std::vector<std::string> names = {"alpha", "beta"};
  std::vector<CallRecord> records;
  for (const double onset : {0.01, 0.99}) {
    CallRecord r;
    r.f_size = 10;
    r.c_onset = onset;
    r.outcomes.resize(2);
    r.outcomes[0].size = 4;
    r.outcomes[1].size = 6;
    r.min_size = 4;
    r.lower_bound = 2;
    records.push_back(r);
  }
  const Table3 table = aggregate_table3(names, records);
  EXPECT_EQ(table.mid.calls, 0u);
  EXPECT_EQ(table.mid.total_min, 0u);
  for (std::size_t h = 0; h < names.size(); ++h) {
    const double pct = table.mid.pct_of_min(h);
    EXPECT_TRUE(std::isfinite(pct)) << names[h];
    EXPECT_EQ(pct, 0.0) << names[h];
  }
  const std::string text = render_table3(table);
  EXPECT_EQ(text.find("nan"), std::string::npos);
  EXPECT_EQ(text.find("inf"), std::string::npos);
}

TEST(Stats, RanksAreConsistentWithTotals) {
  Interceptor interceptor(minimize::all_heuristics(), {});
  const auto records = run_instances(interceptor, 9, 10, 0.3, 17);
  const Table3 table = aggregate_table3(interceptor.names(), records);
  const BucketStats& b = table.all;
  for (std::size_t i = 0; i < b.total_size.size(); ++i) {
    for (std::size_t j = 0; j < b.total_size.size(); ++j) {
      if (b.total_size[i] < b.total_size[j]) {
        EXPECT_LT(b.rank[i], b.rank[j]);
      } else if (b.total_size[i] == b.total_size[j]) {
        EXPECT_EQ(b.rank[i], b.rank[j]);
      }
    }
  }
  // min is never above any heuristic total.
  for (const std::size_t total : b.total_size) {
    EXPECT_GE(total, b.total_min);
  }
}

TEST(Stats, HeadToHeadDiagonalIsZeroAndMinNeverLoses) {
  Interceptor interceptor(minimize::all_heuristics(), {});
  const auto records = run_instances(interceptor, 9, 10, 0.3, 19);
  const HeadToHead matrix = head_to_head(interceptor.names(), records);
  const std::size_t n = matrix.names.size();
  const std::size_t min_idx = n - 2;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(matrix.pct_smaller[i][i], 0.0);
    if (i < min_idx) {
      EXPECT_EQ(matrix.pct_smaller[i][min_idx], 0.0)
          << matrix.names[i] << " beat min";
    }
  }
}

TEST(Stats, RobustnessCurveIsMonotoneAndEndsAtOrBelow100) {
  Interceptor interceptor(minimize::all_heuristics(), {});
  const auto records = run_instances(interceptor, 9, 10, 0.3, 23);
  for (std::size_t h = 0; h < interceptor.names().size(); ++h) {
    const std::vector<double> curve = robustness_curve(records, h, 10.0, 100.0);
    for (std::size_t s = 1; s < curve.size(); ++s) {
      EXPECT_GE(curve[s], curve[s - 1]);
    }
    EXPECT_LE(curve.back(), 100.0 + 1e-9);
  }
}

TEST(Stats, LowerBoundHitRateWithinRange) {
  Interceptor interceptor(minimize::all_heuristics(), {});
  const auto records = run_instances(interceptor, 9, 10, 0.3, 29);
  for (std::size_t h = 0; h < interceptor.names().size(); ++h) {
    const double rate = lower_bound_hit_rate(records, h);
    EXPECT_GE(rate, 0.0);
    EXPECT_LE(rate, 100.0);
  }
}

TEST(Render, TablesContainHeaderAndHeuristicNames) {
  Interceptor interceptor(minimize::all_heuristics(), {});
  const auto records = run_instances(interceptor, 8, 6, 0.3, 31);
  const Table3 table = aggregate_table3(interceptor.names(), records);
  const std::string text = render_table3(table);
  EXPECT_NE(text.find("Table 3"), std::string::npos);
  EXPECT_NE(text.find("const"), std::string::npos);
  EXPECT_NE(text.find("opt_lv"), std::string::npos);
  EXPECT_NE(text.find("low_bd"), std::string::npos);

  const HeadToHead matrix = head_to_head(interceptor.names(), records);
  const std::string h2h = render_head_to_head(
      matrix, {"f_orig", "const", "restr", "osm_bt", "tsm_td", "opt_lv", "min"});
  EXPECT_NE(h2h.find("Table 4"), std::string::npos);
  EXPECT_NE(h2h.find("osm_bt"), std::string::npos);

  const std::string fig = render_robustness(
      interceptor.names(), records, {"f_orig", "const", "restr", "tsm_td"});
  EXPECT_NE(fig.find("Figure 3"), std::string::npos);
}

TEST(Csv, ExportsOneRowPerRecordWithAllColumns) {
  Interceptor interceptor(minimize::all_heuristics(), {});
  const auto records = run_instances(interceptor, 8, 5, 0.3, 37);
  const std::string csv = records_to_csv(interceptor.names(), records);
  // Header + one line per record.
  std::size_t lines = 0;
  for (const char ch : csv) lines += ch == '\n';
  EXPECT_EQ(lines, records.size() + 1);
  EXPECT_NE(csv.find("size_const"), std::string::npos);
  EXPECT_NE(csv.find("sec_opt_lv"), std::string::npos);
  EXPECT_NE(csv.find("lower_bound"), std::string::npos);
  // Column count is stable across rows.
  const std::size_t header_commas =
      static_cast<std::size_t>(std::count(csv.begin(), csv.begin() +
                                          static_cast<std::ptrdiff_t>(csv.find('\n')), ','));
  std::istringstream in(csv);
  std::string line;
  std::getline(in, line);
  while (std::getline(in, line)) {
    EXPECT_EQ(static_cast<std::size_t>(std::count(line.begin(), line.end(), ',')),
              header_commas);
  }
}

TEST(Csv, WriteTextFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "bddmin_csv_test.csv";
  ASSERT_TRUE(write_text_file(path, "a,b\n1,2\n"));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "a,b\n1,2\n");
}

TEST(Render, GenericTableAlignsColumns) {
  const std::string text =
      render_table({{"a", "bb"}, {"ccc", "d"}, {"e", "ff"}});
  EXPECT_NE(text.find("a"), std::string::npos);
  EXPECT_NE(text.find("---"), std::string::npos);
}

}  // namespace
}  // namespace bddmin::harness
