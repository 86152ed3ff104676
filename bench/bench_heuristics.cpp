/// \file bench_heuristics.cpp
/// \brief Micro-benchmarks of the minimization heuristics themselves
/// (google-benchmark), matching the paper's runtime ordering: constrain /
/// restrict cheapest, tsm variants costlier, opt_lv most expensive.
#include <benchmark/benchmark.h>

#include <random>

#include "bdd/bdd.hpp"
#include "bdd/ops.hpp"
#include "minimize/level.hpp"
#include "minimize/lower_bound.hpp"
#include "minimize/schedule.hpp"
#include "minimize/sibling.hpp"
#include "telemetry/profile.hpp"
#include "workload/instances.hpp"

namespace {

using namespace bddmin;

struct Instance {
  Manager mgr{14};
  Bdd f;
  Bdd c;

  explicit Instance(double density, std::uint64_t seed = 42) {
    std::mt19937_64 rng(seed);
    f = Bdd(mgr, workload::random_function(mgr, 14, 0.5, rng));
    c = Bdd(mgr, workload::random_function(mgr, 14, density, rng));
  }
};

template <Edge (*Fn)(Manager&, Edge, Edge)>
void BM_Sibling(benchmark::State& state) {
  Instance inst(state.range(0) == 0 ? 0.03 : 0.97);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Fn(inst.mgr, inst.f.edge(), inst.c.edge()));
    state.PauseTiming();
    inst.mgr.garbage_collect();  // flush caches, as the paper measures
    state.ResumeTiming();
  }
}
BENCHMARK_TEMPLATE(BM_Sibling, minimize::constrain)->Arg(0)->Arg(1);
BENCHMARK_TEMPLATE(BM_Sibling, minimize::restrict_dc)->Arg(0)->Arg(1);
BENCHMARK_TEMPLATE(BM_Sibling, minimize::osm_td)->Arg(0)->Arg(1);
BENCHMARK_TEMPLATE(BM_Sibling, minimize::osm_bt)->Arg(0)->Arg(1);
BENCHMARK_TEMPLATE(BM_Sibling, minimize::tsm_td)->Arg(0)->Arg(1);
BENCHMARK_TEMPLATE(BM_Sibling, minimize::tsm_cp)->Arg(0)->Arg(1);

/// BM_Sibling with a ProfileCollector installed around each call, as the
/// batch engine runs every heuristic: the gap to the plain twin is the
/// cost of phase attribution.
template <Edge (*Fn)(Manager&, Edge, Edge)>
void BM_SiblingProfiled(benchmark::State& state) {
  Instance inst(state.range(0) == 0 ? 0.03 : 0.97);
  telemetry::PhaseProfile profile;
  for (auto _ : state) {
    {
      const telemetry::ProfileCollector collect(inst.mgr, &profile);
      benchmark::DoNotOptimize(Fn(inst.mgr, inst.f.edge(), inst.c.edge()));
    }
    state.PauseTiming();
    inst.mgr.garbage_collect();
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(profile.total_steps());
}
BENCHMARK_TEMPLATE(BM_SiblingProfiled, minimize::osm_td)->Arg(0)->Arg(1);
BENCHMARK_TEMPLATE(BM_SiblingProfiled, minimize::tsm_td)->Arg(0)->Arg(1);

void BM_OptLv(benchmark::State& state) {
  Instance inst(state.range(0) == 0 ? 0.03 : 0.97);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        minimize::opt_lv(inst.mgr, inst.f.edge(), inst.c.edge()));
    state.PauseTiming();
    inst.mgr.garbage_collect();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_OptLv)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_Scheduler(benchmark::State& state) {
  Instance inst(0.03);
  minimize::ScheduleOptions opts;
  opts.use_level_steps = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(minimize::scheduled_minimize(
        inst.mgr, opts, inst.f.edge(), inst.c.edge()));
    state.PauseTiming();
    inst.mgr.garbage_collect();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_Scheduler)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_LowerBound(benchmark::State& state) {
  Instance inst(0.2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(minimize::constrain_lower_bound(
        inst.mgr, inst.f.edge(), inst.c.edge(),
        static_cast<std::size_t>(state.range(0))));
    state.PauseTiming();
    inst.mgr.garbage_collect();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_LowerBound)->Arg(10)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

}  // namespace
