/// \file bench_table3.cpp
/// \brief Reproduces Table 3: cumulative result sizes, % of min, runtimes
/// and ranks over all minimization calls of the FSM-equivalence workload,
/// bucketed by c_onset_size (all / <5% / >95%).
#include <fstream>
#include <string>
#include <thread>

#include "experiment_common.hpp"
#include "harness/csv.hpp"
#include "harness/json.hpp"
#include "harness/render.hpp"
#include "harness/stats.hpp"

namespace {

/// The CPU model line of /proc/cpuinfo, or "unknown".
std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      return line.substr(line.find_first_not_of(" \t", colon + 1));
    }
  }
  return "unknown";
}

}  // namespace

int main() {
  using namespace bddmin;
  std::printf("=== Table 3 reproduction (Shiple et al., DAC'94) ===\n");
  harness::Interceptor interceptor(minimize::all_heuristics());
  bench::run_workload(interceptor);

  const harness::Table3 table =
      harness::aggregate_table3(interceptor.names(), interceptor.records());
  std::printf("%s\n", harness::render_table3(table).c_str());

  // The headline claims around Table 3.
  const auto idx = [&](const char* name) {
    const auto names = interceptor.names();
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return i;
    }
    return SIZE_MAX;
  };
  const std::size_t f_orig = table.all.total_size[idx("f_orig")];
  std::printf("reduction vs f_orig: %.1fx overall, %.1fx in the <5%% bucket, "
              "%.1fx in the >95%% bucket\n",
              table.all.total_min
                  ? static_cast<double>(f_orig) / table.all.total_min
                  : 0.0,
              table.low.total_min
                  ? static_cast<double>(table.low.total_size[idx("f_orig")]) /
                        table.low.total_min
                  : 0.0,
              table.high.total_min
                  ? static_cast<double>(table.high.total_size[idx("f_orig")]) /
                        table.high.total_min
                  : 0.0);
  std::printf("min / lower bound: %.2fx (paper: 3.4x)\n",
              table.all.total_lower_bound
                  ? static_cast<double>(table.all.total_min) /
                        table.all.total_lower_bound
                  : 0.0);
  std::printf("\npaper shape check: no-new-vars variants should lead the <5%% "
              "bucket; opt_lv and the complement-matchers the >95%% bucket;\n"
              "f_and_c / f_or_nc should be far behind everything.\n");
  const std::string csv =
      harness::records_to_csv(interceptor.names(), interceptor.records());
  if (harness::write_text_file("bench_table3_records.csv", csv)) {
    std::printf("per-call records written to bench_table3_records.csv (%zu "
                "rows)\n",
                interceptor.records().size());
  }

  // Machine-readable trajectory point: the Table 3 aggregate plus the
  // telemetry cache behaviour of every heuristic over the whole workload
  // (the stream-wide and/xor split is perfbench's bdd.cache_hit_rate.*).
  const auto names = interceptor.names();
  harness::JsonWriter json;
  json.begin_object();
  json.kv("bench", "table3");
  json.kv("calls", table.all.calls);
  json.kv("filtered_calls", interceptor.filtered_calls());
  json.kv("total_min", table.all.total_min);
  json.kv("total_lower_bound", table.all.total_lower_bound);
  // Host fingerprint: the `seconds` below are this host's.
  json.key("host");
  json.begin_object();
  json.kv("hardware_concurrency", std::thread::hardware_concurrency());
  json.kv("cpu", cpu_model());
#if defined(__clang__)
  json.kv("compiler", "clang " __clang_version__);
#else
  json.kv("compiler", "gcc " __VERSION__);
#endif
  json.kv("build_type", BDDMIN_BUILD_TYPE);
  json.end_object();
  json.key("heuristics");
  json.begin_array();
  for (std::size_t h = 0; h < names.size(); ++h) {
    // The heuristic's own work: its matching and cover-build phase rows
    // (validation is the evaluator's, not the heuristic's).
    telemetry::PhaseData work;
    for (const harness::CallRecord& r : interceptor.records()) {
      for (const telemetry::Phase p :
           {telemetry::Phase::kMatching, telemetry::Phase::kCoverBuild}) {
        const telemetry::PhaseData& d = r.outcomes[h].phases[p];
        work.cache_hits += d.cache_hits;
        work.cache_misses += d.cache_misses;
        work.steps += d.steps;
      }
    }
    const std::uint64_t lookups = work.cache_hits + work.cache_misses;
    json.begin_object();
    json.kv("name", names[h]);
    json.kv("total_size", table.all.total_size[h]);
    json.kv("seconds", table.all.total_seconds[h]);
    json.kv("rank", table.all.rank[h]);
    json.kv("pct_of_min", table.all.pct_of_min(h));
    json.kv("cache_hits", work.cache_hits);
    json.kv("cache_misses", work.cache_misses);
    json.kv("cache_hit_rate",
            lookups ? static_cast<double>(work.cache_hits) / lookups : 0.0);
    json.kv("steps", work.steps);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  if (harness::write_text_file("BENCH_table3.json", json.str())) {
    std::printf("summary written to BENCH_table3.json\n");
  }
  return 0;
}
