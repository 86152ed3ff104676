/// \file bench_batch.cpp
/// \brief Batch engine on the Table 3 workload: harvest every unfiltered
/// frontier-minimization call into a job set, run it through the engine
/// at 1/2/4/8 threads, verify the deterministic CSVs are byte-identical,
/// and report the wall-clock scaling.
///
/// The speedup column reflects the host: per-job work is genuinely
/// parallel (each worker owns a private Manager), so on a multi-core
/// machine the engine approaches linear scaling, while on a single
/// hardware thread all counts collapse to ~1x.  Determinism is asserted
/// unconditionally — the CSV never depends on the thread count.
///
/// BENCH_batch.json (schema_version 3) separates the two kinds of data:
/// thread-invariant counters (cache hits/misses, governor steps,
/// peak_live, job tallies) are *asserted* equal across thread counts and
/// emitted once at top level, while each per-thread run object carries
/// only what actually varies — wall time, speedup, p50/p90/p99 job
/// latency, per-worker busy/steal/sink/idle fractions and steal stats —
/// the before/after baseline ROADMAP item 1's scaling fix needs.
///
/// Schema 3 adds the shard-scheduling comparison: the same job set run
/// unsharded vs sharded (engine::kDefaultShardCost) at 1/2/8 threads,
/// asserting the deterministic CSV is byte-identical across the whole
/// matrix, and recording per mode the wall time, scheduler-overhead
/// fraction (1 - summed heuristic seconds / summed busy seconds),
/// computed-cache hit rate (cross-job reuse shows up here), shard stats
/// and warm/cold manager-acquisition counts.  `--heavy` appends a
/// heavy-tier section over workload::heavy_tier_jobs (>= 30k jobs).
///
/// Exit status: 0 on success, 1 on CSV divergence, failed jobs, or a
/// thread-variant "invariant" counter.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "engine/collect.hpp"
#include "engine/engine.hpp"
#include "engine/shard.hpp"
#include "experiment_common.hpp"
#include "fsm/equiv.hpp"
#include "harness/csv.hpp"
#include "harness/json.hpp"
#include "workload/generators.hpp"

namespace bddmin::bench {
namespace {

/// Same traversals as run_workload(), but with the JobCollector on the
/// minimize seam instead of the inline interceptor.
///
/// Each traversal is harvested under two image methods.  The reachability
/// fixpoint — and with it the frontier [f, c] sequence arriving at the
/// minimize seam — does not depend on how images are computed, so the
/// second method re-emits the frontier instances with byte-identical
/// payloads under fresh names.  That is exactly the duplicate shape a
/// verification fleet produces when different pipelines process the same
/// designs, and it is what the engine's payload dedup is measured against
/// below.
std::vector<engine::Job> harvest_jobs() {
  engine::JobCollector collector;
  const fsm::ImageMethod methods[] = {fsm::ImageMethod::kFunctional,
                                      fsm::ImageMethod::kClustered};
  for (const fsm::ImageMethod method : methods) {
    const char* const tag =
        method == fsm::ImageMethod::kFunctional ? "@fn" : "@cl";
    fsm::EquivOptions opts;
    opts.image_method = method;
    opts.minimize = collector.hook();
    for (const auto& [a, b] : workload_pairs()) {
      collector.set_label(
          (a.name == b.name ? a.name : a.name + "+" + b.name) + tag);
      (void)fsm::check_equivalence(a, b, opts);
    }
    for (const fsm::MachineSpec& spec : reach_workload_machines()) {
      collector.set_label("reach_" + spec.name + tag);
      Manager mgr(spec.num_inputs + 2 * spec.num_state_bits, 15);
      std::vector<std::uint32_t> in(spec.num_inputs);
      for (unsigned i = 0; i < spec.num_inputs; ++i) in[i] = i;
      std::vector<std::uint32_t> st;
      std::vector<std::uint32_t> nx;
      for (unsigned k = 0; k < spec.num_state_bits; ++k) {
        st.push_back(spec.num_inputs + 2 * k);
        nx.push_back(spec.num_inputs + 2 * k + 1);
      }
      const fsm::SymbolicFsm sym = spec.build(mgr, in, st);
      fsm::ReachOptions ropts;
      ropts.image_method = method;
      ropts.minimize = collector.hook();
      (void)fsm::reachable_states(mgr, sym, nx, ropts);
    }
  }
  std::printf("# harvested %zu jobs (%zu trivial calls filtered)\n",
              collector.jobs().size(), collector.filtered_calls());
  return collector.take();
}

/// The counter fields that must not depend on the thread count (the
/// per-job counters are deterministic, so their batch sums are too).
struct InvariantCounters {
  std::size_t ok = 0;
  std::size_t duplicate_jobs = 0;
  std::size_t peak_live = 0;
  telemetry::CounterSnapshot counters;

  [[nodiscard]] bool operator==(const InvariantCounters&) const = default;
};

InvariantCounters invariants_of(const engine::BatchReport& report) {
  InvariantCounters inv;
  inv.ok = report.count(engine::JobStatus::kOk);
  inv.duplicate_jobs = report.duplicate_jobs;
  for (const engine::JobOutcome& o : report.outcomes) {
    // Worst single-job live-node footprint: the quota a resource-governed
    // rerun of this workload would need to finish untripped.
    inv.peak_live = std::max(inv.peak_live, o.peak_live);
    inv.counters += o.counters;
  }
  return inv;
}

/// Scheduler-overhead fraction of one run: the share of worker busy time
/// *not* spent inside a heuristic (decode, manager reset, governor
/// rebaseline, validation, delivery).  Warm in-shard reuse attacks
/// exactly this number.  Both sides cover only the jobs the workers ran:
/// dedup duplicates copy their representative's seconds but add no busy
/// time.
double overhead_fraction(const engine::BatchMetrics& m) {
  double busy_seconds = 0.0;
  for (const engine::WorkerUtilization& u : m.workers) {
    busy_seconds += u.busy_seconds;
  }
  return busy_seconds > 0.0
             ? std::max(0.0, 1.0 - m.heuristic_seconds / busy_seconds)
             : 0.0;
}

/// Batch-summed computed-cache hit rate over the jobs the workers ran —
/// with warm in-shard reuse the cache carries across jobs, so cross-job
/// reuse lifts this rate.
double cache_hit_rate(const engine::BatchMetrics& m) {
  const std::uint64_t hits = m.counters.total_cache_hits();
  const std::uint64_t misses = m.counters.total_cache_misses();
  return hits + misses ? static_cast<double>(hits) / (hits + misses) : 0.0;
}

///// One sharded-vs-unsharded comparison run: emit the mode's JSON object
/// and check its deterministic CSV against \p baseline_csv (empty = set
/// it).  Returns the wall seconds.
double shard_mode_run(harness::JsonWriter& json,
                      const std::vector<engine::Job>& jobs, unsigned threads,
                      std::uint64_t shard_cost, unsigned lower_bound_cubes,
                      std::string* baseline_csv, int* failures) {
  engine::EngineOptions opts;
  opts.num_threads = threads;
  opts.shard_cost = shard_cost;
  opts.lower_bound_cubes = lower_bound_cubes;
  const engine::BatchReport report = engine::run_batch(jobs, opts);
  const std::string csv = engine::report_csv(report);
  if (baseline_csv->empty()) {
    *baseline_csv = csv;
  } else if (csv != *baseline_csv) {
    std::printf("!! CSV diverges at %u threads, shard_cost=%llu\n", threads,
                static_cast<unsigned long long>(shard_cost));
    ++*failures;
  }
  const engine::BatchMetrics& m = report.metrics;
  json.begin_object();
  json.kv("threads", threads);
  json.kv("sharded", shard_cost > 0);
  json.kv("wall_seconds", report.wall_seconds);
  json.kv("overhead_fraction", overhead_fraction(m));
  json.kv("cache_hit_rate", cache_hit_rate(m));
  json.kv("shards", m.shards);
  json.kv("warm_jobs", m.warm_jobs);
  json.kv("cold_jobs", m.cold_jobs);
  json.kv("shard_jobs_p50", m.shard_jobs.quantile(0.50));
  json.kv("shard_jobs_max", m.shard_jobs.max_bound());
  json.end_object();
  return report.wall_seconds;
}

int run(bool heavy) {
  const std::vector<engine::Job> jobs = harvest_jobs();
  if (jobs.empty()) {
    std::printf("no jobs harvested\n");
    return 1;
  }

  int failures = 0;
  std::string baseline;
  double base_seconds = 0.0;
  InvariantCounters inv;
  harness::JsonWriter json;
  json.begin_object();
  json.kv("bench", "batch");
  json.kv("schema_version", 3);
  json.kv("jobs", jobs.size());
  json.kv("hardware_concurrency",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.key("runs");
  json.begin_array();
  std::printf("# %7s %10s %9s %4s %8s %8s %7s %7s\n", "threads", "wall[s]",
              "speedup", "ok", "p50[ms]", "p99[ms]", "busy", "steal%");
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    engine::EngineOptions opts;
    opts.num_threads = threads;
    opts.lower_bound_cubes = 500;
    const engine::BatchReport report = engine::run_batch(jobs, opts);
    const InvariantCounters this_inv = invariants_of(report);
    if (this_inv.ok != jobs.size()) ++failures;
    const std::string csv = engine::report_csv(report);
    if (baseline.empty()) {
      baseline = csv;
      base_seconds = report.wall_seconds;
      inv = this_inv;
    } else {
      if (csv != baseline) {
        std::printf("!! CSV at %u threads diverges from the 1-thread report\n",
                    threads);
        ++failures;
      }
      // The determinism contract, checked instead of silently copied:
      // counter sums must not depend on the thread count.
      if (this_inv != inv) {
        std::printf("!! counters at %u threads diverge from the 1-thread "
                    "run (schema top-level fields are unsound)\n",
                    threads);
        ++failures;
      }
    }
    // The distribution-and-timeline block this PR adds: latency
    // percentiles, per-worker utilization and steal stats — wall-clock
    // data, legitimately different at every thread count.
    const engine::BatchMetrics& m = report.metrics;
    double busy_total = 0.0;
    for (const engine::WorkerUtilization& u : m.workers) {
      busy_total += u.busy_seconds;
    }
    const double wall = report.wall_seconds;
    const double busy_frac =
        wall > 0.0 ? busy_total / (wall * threads) : 0.0;
    const double steal_rate =
        m.steal_attempts > 0
            ? static_cast<double>(m.steals) /
                  static_cast<double>(m.steal_attempts)
            : 0.0;
    json.begin_object();
    json.kv("threads", threads);
    json.kv("wall_seconds", wall);
    json.kv("speedup", wall > 0 ? base_seconds / wall : 0.0);
    json.key("job_latency_ns").begin_object();
    json.kv("p50", m.job_latency_ns.quantile(0.50));
    json.kv("p90", m.job_latency_ns.quantile(0.90));
    json.kv("p99", m.job_latency_ns.quantile(0.99));
    json.kv("max", m.job_latency_ns.max_bound());
    json.kv("mean", m.job_latency_ns.mean());
    json.end_object();
    json.key("queue_depth").begin_object();
    json.kv("p50", m.queue_depth.quantile(0.50));
    json.kv("max", m.queue_depth.max_bound());
    json.kv("samples", m.queue_depth.count);
    json.end_object();
    json.kv("busy_fraction", busy_frac);
    json.kv("steal_attempts", m.steal_attempts);
    json.kv("steals", m.steals);
    json.kv("steal_success_rate", steal_rate);
    json.key("workers").begin_array();
    for (const engine::WorkerUtilization& u : m.workers) {
      json.begin_object();
      json.kv("worker", u.worker);
      json.kv("busy_fraction", wall > 0 ? u.busy_seconds / wall : 0.0);
      json.kv("steal_fraction", wall > 0 ? u.steal_seconds / wall : 0.0);
      json.kv("sink_fraction", wall > 0 ? u.sink_seconds / wall : 0.0);
      json.kv("idle_fraction", wall > 0 ? u.idle_seconds / wall : 0.0);
      json.kv("jobs", u.jobs);
      json.kv("steals", u.steals);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    std::printf("  %7u %10.3f %8.2fx %4zu %8.2f %8.2f %6.1f%% %6.1f%%\n",
                threads, wall, wall > 0 ? base_seconds / wall : 0.0,
                this_inv.ok,
                static_cast<double>(m.job_latency_ns.quantile(0.50)) / 1e6,
                static_cast<double>(m.job_latency_ns.quantile(0.99)) / 1e6,
                busy_frac * 100.0, steal_rate * 100.0);
    std::fflush(stdout);
  }
  std::printf("# deterministic report: %s\n",
              failures == 0 ? "byte-identical across all thread counts"
                            : "DIVERGED");
  json.end_array();
  // The asserted-invariant counters, once (schema_version 2): every
  // per-thread run above produced exactly these sums.
  const auto rate = [](std::uint64_t hit, std::uint64_t miss) {
    return hit + miss ? static_cast<double>(hit) / (hit + miss) : 0.0;
  };
  const std::uint64_t hits = inv.counters.total_cache_hits();
  const std::uint64_t misses = inv.counters.total_cache_misses();
  const std::uint64_t and_hits =
      inv.counters.value(telemetry::Counter::kAndCacheHits);
  const std::uint64_t and_misses =
      inv.counters.value(telemetry::Counter::kAndCacheMisses);
  const std::uint64_t xor_hits =
      inv.counters.value(telemetry::Counter::kXorCacheHits);
  const std::uint64_t xor_misses =
      inv.counters.value(telemetry::Counter::kXorCacheMisses);
  json.key("invariant_counters");
  json.begin_object();
  json.kv("ok", inv.ok);
  json.kv("duplicate_jobs", inv.duplicate_jobs);
  json.kv("peak_live", inv.peak_live);
  json.kv("cache_hits", hits);
  json.kv("cache_misses", misses);
  json.kv("cache_hit_rate", rate(hits, misses));
  json.kv("and_cache_hits", and_hits);
  json.kv("and_cache_misses", and_misses);
  json.kv("and_cache_hit_rate", rate(and_hits, and_misses));
  json.kv("xor_cache_hits", xor_hits);
  json.kv("xor_cache_misses", xor_misses);
  json.kv("xor_cache_hit_rate", rate(xor_hits, xor_misses));
  json.kv("steps", inv.counters.value(telemetry::Counter::kGovernorSteps));
  json.end_object();

  // Dedup on/off comparison at a fixed thread count: harvested frontier
  // calls repeat across traversal steps, so duplicates are real here.
  // The deterministic CSV must not depend on the switch.
  double dedup_on_seconds = 0.0;
  double dedup_off_seconds = 0.0;
  std::size_t duplicates = 0;
  {
    engine::EngineOptions opts;
    opts.num_threads = 4;
    opts.lower_bound_cubes = 500;
    const engine::BatchReport with_dedup = engine::run_batch(jobs, opts);
    opts.dedup_jobs = false;
    const engine::BatchReport without = engine::run_batch(jobs, opts);
    dedup_on_seconds = with_dedup.wall_seconds;
    dedup_off_seconds = without.wall_seconds;
    duplicates = with_dedup.duplicate_jobs;
    if (engine::report_csv(with_dedup) != engine::report_csv(without)) {
      std::printf("!! dedup changed the deterministic report\n");
      ++failures;
    }
    if (engine::report_csv(with_dedup) != baseline) {
      std::printf("!! dedup-comparison report diverges from the baseline\n");
      ++failures;
    }
    std::printf("# dedup: %zu/%zu duplicate payloads, wall %0.3fs on / "
                "%0.3fs off (%.2fx)\n",
                duplicates, jobs.size(), dedup_on_seconds, dedup_off_seconds,
                dedup_on_seconds > 0 ? dedup_off_seconds / dedup_on_seconds
                                     : 0.0);
  }
  json.key("dedup");
  json.begin_object();
  json.kv("duplicate_jobs", duplicates);
  json.kv("wall_seconds_on", dedup_on_seconds);
  json.kv("wall_seconds_off", dedup_off_seconds);
  json.kv("speedup", dedup_on_seconds > 0
                         ? dedup_off_seconds / dedup_on_seconds
                         : 0.0);
  json.end_object();

  // Sharded-vs-unsharded matrix: {1, 2, 8} threads x {off, default
  // budget}, deterministic CSV asserted byte-identical across all six
  // runs.  The headline number is the 1-thread wall improvement —
  // exactly what warm in-shard manager reuse buys on a host with one
  // hardware thread, where extra workers cannot help.
  double shard_off_1t = 0.0;
  double shard_on_1t = 0.0;
  {
    std::string shard_baseline;
    json.key("sharding");
    json.begin_object();
    json.kv("shard_cost_budget", engine::kDefaultShardCost);
    json.key("runs");
    json.begin_array();
    std::printf("# %7s %8s %10s\n", "threads", "sharded", "wall[s]");
    for (const unsigned threads : {1u, 2u, 8u}) {
      for (const bool sharded : {false, true}) {
        const double wall = shard_mode_run(
            json, jobs, threads,
            sharded ? engine::kDefaultShardCost : std::uint64_t{0},
            /*lower_bound_cubes=*/500, &shard_baseline, &failures);
        if (threads == 1 && !sharded) shard_off_1t = wall;
        if (threads == 1 && sharded) shard_on_1t = wall;
        std::printf("  %7u %8s %10.3f\n", threads, sharded ? "on" : "off",
                    wall);
        std::fflush(stdout);
      }
    }
    json.end_array();
    json.kv("wall_seconds_unsharded_1t", shard_off_1t);
    json.kv("wall_seconds_sharded_1t", shard_on_1t);
    json.kv("single_thread_improvement",
            shard_off_1t > 0.0 ? 1.0 - shard_on_1t / shard_off_1t : 0.0);
    json.end_object();
    std::printf("# sharding: 1-thread wall %0.3fs off / %0.3fs on "
                "(%.1f%% improvement)\n",
                shard_off_1t, shard_on_1t,
                shard_off_1t > 0.0
                    ? (1.0 - shard_on_1t / shard_off_1t) * 100.0
                    : 0.0);
  }

  // Heavy tier (--heavy): the scaled-up parameterized stream, >= 30k
  // jobs dominated by cheap payloads — the regime where per-job fixed
  // cost is the bottleneck and sharding matters most.
  if (heavy) {
    const std::vector<engine::Job> heavy_jobs =
        workload::heavy_tier_jobs(/*scale=*/50, /*seed=*/0x5eed);
    std::printf("# heavy tier: %zu jobs\n", heavy_jobs.size());
    std::string heavy_baseline;
    json.key("heavy");
    json.begin_object();
    json.kv("jobs", heavy_jobs.size());
    json.kv("scale", 50);
    json.key("runs");
    json.begin_array();
    double heavy_off = 0.0;
    double heavy_on = 0.0;
    for (const bool sharded : {false, true}) {
      const double wall = shard_mode_run(
          json, heavy_jobs, /*threads=*/1,
          sharded ? engine::kDefaultShardCost : std::uint64_t{0},
          /*lower_bound_cubes=*/0, &heavy_baseline, &failures);
      (sharded ? heavy_on : heavy_off) = wall;
      std::printf("# heavy 1-thread shard %s: %.3fs\n",
                  sharded ? "on" : "off", wall);
      std::fflush(stdout);
    }
    json.end_array();
    json.kv("single_thread_improvement",
            heavy_off > 0.0 ? 1.0 - heavy_on / heavy_off : 0.0);
    json.end_object();
  }
  json.kv("deterministic", failures == 0);
  json.end_object();
  if (harness::write_text_file("BENCH_batch.json", json.str())) {
    std::printf("# summary written to BENCH_batch.json\n");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace bddmin::bench

int main(int argc, char** argv) {
  bool heavy = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--heavy") == 0) heavy = true;
  }
  return bddmin::bench::run(heavy);
}
