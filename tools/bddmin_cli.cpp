/// \file bddmin_cli.cpp
/// \brief Command-line front end.
///
/// ```
/// bddmin_cli minimize <circuit.pla> [--heuristic NAME] [--sift]
///                     [--node-limit N]
///     Minimize every output of an espresso PLA; prints per-output and
///     forest node counts for the chosen heuristic (default: all).
///     --node-limit bounds the manager's allocated nodes while each
///     heuristic runs; a tripped run degrades to the trivial cover f and
///     its size is marked with '*'.
///
/// bddmin_cli equiv <a.kiss> <b.kiss> [--stats]
///     Product-machine equivalence; prints VERDICT and, for inequivalent
///     machines, a distinguishing input sequence.  --stats additionally
///     runs every minimization heuristic on the intercepted calls and
///     prints the Table-3 style summary.
///
/// bddmin_cli reach <a.kiss>
///     Reachable-state count and transition-function minimization
///     against the unreachable states.
///
/// bddmin_cli audit <circuit.pla> [--level N] [--mutate CLASS] [--sift]
///                  [--node-limit N]
///     Build every output of the PLA, run all minimization heuristics,
///     then run the BddAudit passes up to level N (default 4: structure,
///     ref counts, cache coherence, cover contracts) and print the
///     report.  --mutate deliberately corrupts the manager first
///     (complement-flip | unlink | stale-cache | ref-skew | count-skew)
///     to demonstrate the auditor detects that failure class; the exit
///     code is 3 when findings are reported.
///
/// bddmin_cli batch [--pla FILE] [--jobs N] [--vars K] [--density D]
///                  [--seed S] [--threads T] [--heuristic NAME]
///                  [--audit-level L] [--timeout-ms M] [--lower-bound]
///                  [--node-limit N] [--step-limit N]
///                  [--fallback-heuristic NAME] [--csv PATH] [--timings]
///                  [--journal PATH] [--resume]
///                  [--progress] [--metrics PATH] [--shard-cost C]
///                  [--no-shard] [--journal-group-commit]
///     Shard a set of minimization jobs across a worker pool (each worker
///     owns a private manager) and print the per-status summary plus a
///     submission-order CSV report.  Jobs come from the PLA's output
///     columns, or from seeded random instances (reproducible end to end
///     from --seed; job k uses seed S+k).  --node-limit/--step-limit put
///     each heuristic run under a resource budget (defaults from
///     BDDMIN_NODE_LIMIT / BDDMIN_STEP_LIMIT); a tripped run degrades the
///     job to a still-valid cover — retried once on --fallback-heuristic
///     when given — and the job finishes `resource-limit`, not `error`.
///     The CSV is byte-identical for any --threads value; --timings
///     appends the non-deterministic timing columns and --counters the
///     deterministic telemetry counter / phase-step columns.
///     Resilience (docs/ROBUSTNESS.md): --journal PATH keeps a checksummed write-ahead journal of the batch; after a
///     crash, `--journal PATH --resume` re-runs only the incomplete jobs
///     and produces a CSV byte-identical to an uninterrupted run.
///     Observability (docs/OBSERVABILITY.md): --progress keeps a single
///     self-overwriting status line on stderr (done/total, ok/fail,
///     jobs/s, ETA), refreshed at most every 500 ms; it is
///     suppressed when stderr is not a terminal (BDDMIN_PROGRESS=1
///     forces it on) and never touches stdout or the CSV.  --metrics
///     PATH writes the run's scheduler metrics — p50/p90/p99 job
///     latency, per-worker busy/steal/sink/idle decomposition, steal
///     success rate, sampled queue depth, the host's hardware
///     concurrency — as JSON for tools/scaling_report.py.
///     Sharding (docs/OBSERVABILITY.md): jobs are packed into shards by
///     a deterministic cost model and the worker deques dispatch whole
///     shards; within a shard the pooled manager is reused warm (no
///     reset) across consecutive same-width jobs, so the computed cache
///     carries over.  The CLI defaults the shard budget to
///     engine::kDefaultShardCost, overridable with --shard-cost C or
///     BDDMIN_SHARD_COST; --no-shard (or BDDMIN_NO_SHARD=1) restores
///     per-job scheduling.  The default CSV is byte-identical either
///     way.  --journal-group-commit (or BDDMIN_JOURNAL_GROUP_COMMIT=1)
///     batches the journal's completion records per shard with one
///     fsync per flush; a crash re-runs at most the unflushed tail of
///     one shard per worker on --resume.
///
/// bddmin_cli failpoints [--describe]
///     List the registered fault-injection points (one name per line, for
///     the CI sweep); --describe adds what each site simulates.  Arm them
///     via BDDMIN_FAILPOINTS=name:mode[:arg...] (see
///     src/analysis/failpoint.hpp).
///
/// bddmin_cli stats [batch flags]
///     Run the same batch as `batch` (all flags accepted) and print that
///     batch's metrics record as Prometheus text exposition — the
///     telemetry counters summed over the jobs run (unique-table
///     inserts/hits, computed-cache hits/misses per op class, GC work,
///     sift swaps, governor steps) followed by the histogram families
///     (job latency, governor steps, steal-search latency, queue depth,
///     jobs and cost per shard).
///
/// Exit codes: 0 every job ok; 3 at least one job errored (genuine bug);
/// 4 no errors but some jobs degraded (resource-limit, timeout or
/// cancelled); 1 usage / I/O problems, including a numeric flag that is
/// not a non-negative decimal integer.
/// ```
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/audit.hpp"
#include "analysis/cover_audit.hpp"
#include "analysis/failpoint.hpp"
#include "analysis/mutate.hpp"
#include "bdd/bdd.hpp"
#include "bdd/ops.hpp"
#include "engine/engine.hpp"
#include "engine/journal.hpp"
#include "engine/shard.hpp"
#include "fsm/equiv.hpp"
#include "fsm/kiss.hpp"
#include "harness/csv.hpp"
#include "harness/env.hpp"
#include "harness/intercept.hpp"
#include "harness/json.hpp"
#include "harness/render.hpp"
#include "minimize/registry.hpp"
#include "pla/pla.hpp"
#include "telemetry/histogram.hpp"

namespace {

using namespace bddmin;

std::string slurp(const char* path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error(std::string("cannot open ") + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

const char* flag_value(int argc, char** argv, const char* flag) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

/// The value of numeric flag \p flag, or \p fallback when it is absent.
/// Anything but a plain non-negative decimal that fits T is a usage error.
template <typename T>
T uint_flag(int argc, char** argv, const char* flag, T fallback) {
  const char* raw = flag_value(argc, argv, flag);
  if (raw == nullptr) return fallback;
  const char* end = raw + std::strlen(raw);
  T value{};
  const auto [ptr, ec] = std::from_chars(raw, end, value);
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument(std::string(flag) +
                                " expects a non-negative integer, got '" +
                                raw + "'");
  }
  return value;
}

/// Run \p h under a hard node quota; a trip degrades to the trivial cover
/// f and reclaims the aborted partial results.  Pin f and c before calling
/// when the limit is active — the recovery garbage-collects.
Edge run_limited(Manager& mgr, const minimize::Heuristic& h,
                 const ResourceLimits& budget, Edge f, Edge c,
                 bool* tripped) {
  mgr.governor().set_limits(budget);
  pin_for_unwind(f);  // the catch handler reads f back after unwinding
  Edge g;
  try {
    g = h.run(mgr, f, c);
  } catch (const ResourceExhausted&) {
    *tripped = true;
    g = f;
    mgr.governor().clear();
    mgr.garbage_collect();
  }
  mgr.governor().clear();
  // bddmin-lint: allow(R4) -- on the GC path g aliases f, pinned above via pin_for_unwind
  return g;
}

int cmd_minimize(int argc, char** argv) {
  const pla::Pla circuit = pla::parse_pla(slurp(argv[0]), argv[0]);
  Manager mgr(circuit.num_inputs);
  std::vector<std::uint32_t> vars(circuit.num_inputs);
  std::iota(vars.begin(), vars.end(), 0u);
  const auto specs = pla::output_functions(mgr, circuit, vars);

  auto set = minimize::all_heuristics();
  if (const char* name = flag_value(argc, argv, "--heuristic")) {
    set = {minimize::heuristic_by_name(set, name)};
  }
  ResourceLimits budget;
  budget.hard_node_limit =
      uint_flag<std::size_t>(argc, argv, "--node-limit", 0);
  // Pin the specs: recovering from a quota trip garbage-collects, and the
  // f/c edges must survive it.
  std::vector<Bdd> spec_pins;
  for (const auto& spec : specs) {
    spec_pins.emplace_back(mgr, spec.f);
    spec_pins.emplace_back(mgr, spec.c);
  }
  std::printf("%s: %u inputs, %u outputs, %zu cubes\n", circuit.name.c_str(),
              circuit.num_inputs, circuit.num_outputs, circuit.cubes.size());
  std::printf("%-10s", "output");
  for (const auto& h : set) std::printf(" %8s", h.name.c_str());
  std::printf("\n");
  std::vector<std::vector<Bdd>> covers(set.size());
  std::size_t trips = 0;
  for (unsigned j = 0; j < circuit.num_outputs; ++j) {
    const std::string label = j < circuit.output_labels.size()
                                  ? circuit.output_labels[j]
                                  : "o" + std::to_string(j);
    std::printf("%-10s", label.c_str());
    for (std::size_t h = 0; h < set.size(); ++h) {
      bool tripped = false;
      const Edge g =
          run_limited(mgr, set[h], budget, specs[j].f, specs[j].c, &tripped);
      trips += tripped ? 1 : 0;
      covers[h].emplace_back(mgr, g);
      std::printf(tripped ? " %7zu*" : " %8zu", covers[h].back().size());
    }
    std::printf("\n");
  }
  if (trips > 0) {
    std::printf("* %zu run(s) hit the node limit and degraded to f\n", trips);
  }
  std::printf("%-10s", "forest");
  for (std::size_t h = 0; h < set.size(); ++h) {
    std::vector<Edge> roots;
    for (const Bdd& b : covers[h]) roots.push_back(b.edge());
    std::printf(" %8zu", count_nodes(mgr, roots));
  }
  std::printf("\n");
  if (has_flag(argc, argv, "--sift")) {
    mgr.reorder_sift();
    std::printf("%-10s", "+sift");
    for (std::size_t h = 0; h < set.size(); ++h) {
      std::vector<Edge> roots;
      for (const Bdd& b : covers[h]) roots.push_back(b.edge());
      std::printf(" %8zu", count_nodes(mgr, roots));
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_equiv(int argc, char** argv) {
  const fsm::MachineSpec a =
      fsm::spec_from_fsm(fsm::parse_kiss2(slurp(argv[0]), argv[0]));
  const fsm::MachineSpec b =
      fsm::spec_from_fsm(fsm::parse_kiss2(slurp(argv[1]), argv[1]));
  fsm::EquivOptions opts;
  harness::Interceptor interceptor(minimize::all_heuristics());
  const bool stats = has_flag(argc, argv, "--stats");
  if (stats) {
    opts.minimize = interceptor.hook();
    opts.image_method = fsm::ImageMethod::kFunctional;
  }
  const fsm::EquivResult result = fsm::check_equivalence(a, b, opts);
  std::printf("%s\n", result.equivalent ? "EQUIVALENT" : "NOT EQUIVALENT");
  std::printf("iterations=%u product_states=%.0f\n", result.iterations,
              result.product_states);
  if (result.counterexample) {
    std::printf("distinguishing inputs:");
    for (const auto& step : result.counterexample->inputs) {
      std::printf(" ");
      for (const bool bit : step) std::printf("%d", bit ? 1 : 0);
    }
    std::printf("\n");
  }
  if (stats && !interceptor.records().empty()) {
    const harness::Table3 table =
        harness::aggregate_table3(interceptor.names(), interceptor.records());
    std::printf("\n%s", harness::render_table3(table).c_str());
  }
  return result.equivalent ? 0 : 2;
}

int cmd_reach(int /*argc*/, char** argv) {
  const fsm::Fsm machine = fsm::parse_kiss2(slurp(argv[0]), argv[0]);
  const fsm::MachineSpec spec = fsm::spec_from_fsm(machine);
  Manager mgr(spec.num_inputs + 2 * spec.num_state_bits);
  std::vector<std::uint32_t> in(spec.num_inputs);
  std::iota(in.begin(), in.end(), 0u);
  std::vector<std::uint32_t> st;
  std::vector<std::uint32_t> nx;
  for (unsigned k = 0; k < spec.num_state_bits; ++k) {
    st.push_back(spec.num_inputs + 2 * k);
    nx.push_back(spec.num_inputs + 2 * k + 1);
  }
  const fsm::SymbolicFsm sym = spec.build(mgr, in, st);
  const fsm::ReachResult result = fsm::reachable_states(mgr, sym, nx);
  std::printf("%s: %zu declared states, %.0f reachable encodings, %u BFS "
              "steps\n",
              machine.name.c_str(), machine.states.size(),
              sat_count(mgr, result.reached.edge(),
                        static_cast<unsigned>(st.size())),
              result.iterations);
  std::size_t before = 0;
  std::size_t after = 0;
  for (const Edge delta : sym.next_state) {
    before += count_nodes(mgr, delta);
    after += count_nodes(
        mgr, minimize::restrict_dc(mgr, delta, result.reached.edge()));
  }
  std::printf("next-state logic vs unreachable don't cares: %zu -> %zu "
              "nodes\n",
              before, after);
  return 0;
}

int cmd_audit(int argc, char** argv) {
  const pla::Pla circuit = pla::parse_pla(slurp(argv[0]), argv[0]);
  Manager mgr(circuit.num_inputs);
  std::vector<std::uint32_t> vars(circuit.num_inputs);
  std::iota(vars.begin(), vars.end(), 0u);
  const auto specs = pla::output_functions(mgr, circuit, vars);

  const auto level = static_cast<analysis::AuditLevel>(
      std::min(uint_flag(argc, argv, "--level", 4u), 4u));
  std::printf("%s: %u inputs, %u outputs, audit level %d\n",
              circuit.name.c_str(), circuit.num_inputs, circuit.num_outputs,
              static_cast<int>(level));

  // Exercise the manager the way real workloads do: every heuristic over
  // every output (pinned so GC/sifting see live roots), plus a sift pass
  // on request — an audit of a busy table is worth more than of an idle
  // one.
  const auto set = minimize::all_heuristics();
  ResourceLimits budget;
  budget.hard_node_limit =
      uint_flag<std::size_t>(argc, argv, "--node-limit", 0);
  std::vector<Bdd> pinned;
  std::size_t trips = 0;
  for (const auto& spec : specs) {
    pinned.emplace_back(mgr, spec.f);
    pinned.emplace_back(mgr, spec.c);
    for (const auto& h : set) {
      bool tripped = false;
      pinned.emplace_back(
          mgr, run_limited(mgr, h, budget, spec.f, spec.c, &tripped));
      trips += tripped ? 1 : 0;
    }
  }
  if (trips > 0) {
    std::printf("resource trips: %zu (degraded to f; the audit below "
                "verifies the abort left the manager consistent)\n",
                trips);
  }
  if (has_flag(argc, argv, "--sift")) mgr.reorder_sift();

  if (const char* name = flag_value(argc, argv, "--mutate")) {
    const analysis::Mutation m = analysis::mutation_from_name(name);
    const analysis::MutationResult injected = analysis::inject(mgr, m);
    if (!injected.applied) {
      std::fprintf(stderr, "mutation %s found no eligible target\n", name);
      return 1;
    }
    std::printf("injected: %s\n", injected.description.c_str());
  }

  analysis::AuditOptions opts;
  opts.level = level;
  analysis::AuditReport report = analysis::audit_manager(mgr, opts);
  if (level >= analysis::AuditLevel::kCover) {
    for (std::size_t j = 0; j < specs.size(); ++j) {
      const std::string label_prefix =
          j < circuit.output_labels.size() ? circuit.output_labels[j]
                                           : "o" + std::to_string(j);
      analysis::AuditReport covers = analysis::audit_heuristic_contracts(
          mgr, specs[j].f, specs[j].c, set);
      for (auto& finding : covers.findings) {
        report.add(finding.category, label_prefix + ": " + finding.message);
      }
      report.covers_checked += covers.covers_checked;
    }
  }
  std::printf("%s", report.summary().c_str());
  return report.ok() ? 0 : 3;
}

/// The job set of `batch` / `stats`: PLA outputs or seeded random pairs.
std::vector<engine::Job> batch_jobs(int argc, char** argv) {
  if (const char* path = flag_value(argc, argv, "--pla")) {
    return engine::pla_jobs(pla::parse_pla(slurp(path), path));
  }
  const unsigned count = uint_flag(argc, argv, "--jobs", 32u);
  const unsigned vars = uint_flag(argc, argv, "--vars", 8u);
  const std::uint64_t seed =
      uint_flag<std::uint64_t>(argc, argv, "--seed", 1);
  const char* draw = flag_value(argc, argv, "--density");
  const double density = draw ? std::atof(draw) : 0.3;
  return engine::random_jobs(count, vars, density, seed);
}

engine::EngineOptions batch_options(int argc, char** argv) {
  engine::EngineOptions opts;
  opts.num_threads = uint_flag(argc, argv, "--threads", 0u);
  if (const char* name = flag_value(argc, argv, "--heuristic")) {
    opts.heuristic = name;
  }
  opts.audit_level = static_cast<analysis::AuditLevel>(
      std::min(uint_flag(argc, argv, "--audit-level", 0u), 4u));
  opts.job_timeout_seconds =
      static_cast<double>(uint_flag(argc, argv, "--timeout-ms", 0u)) / 1000.0;
  if (has_flag(argc, argv, "--lower-bound")) opts.lower_bound_cubes = 1000;
  opts.node_limit = uint_flag<std::size_t>(argc, argv, "--node-limit", 0);
  opts.step_limit = uint_flag<std::uint64_t>(argc, argv, "--step-limit", 0);
  if (const char* name = flag_value(argc, argv, "--fallback-heuristic")) {
    opts.fallback_heuristic = name;
  }
  // Sharding defaults ON at the CLI (the library default is off so
  // embedders opt in); precedence is flag > environment > default.
  opts.shard_cost = uint_flag<std::uint64_t>(
      argc, argv, "--shard-cost",
      harness::env_u64("BDDMIN_SHARD_COST", engine::kDefaultShardCost));
  if (has_flag(argc, argv, "--no-shard") ||
      harness::env_u64("BDDMIN_NO_SHARD", 0) != 0) {
    opts.shard_cost = 0;
  }
  opts.journal_group_commit =
      has_flag(argc, argv, "--journal-group-commit") ||
      harness::env_u64("BDDMIN_JOURNAL_GROUP_COMMIT", 0) != 0;
  return opts;
}

/// One histogram summary object for the --metrics JSON: count/sum plus
/// the deterministic nearest-rank percentiles and the max bucket bound.
void metrics_histogram(harness::JsonWriter& w, const std::string& name,
                       const telemetry::HistogramSnapshot& s) {
  w.key(name).begin_object();
  w.kv("count", s.count);
  w.kv("sum", s.sum);
  w.kv("mean", s.mean());
  w.kv("p50", s.quantile(0.50));
  w.kv("p90", s.quantile(0.90));
  w.kv("p99", s.quantile(0.99));
  w.kv("max", s.max_bound());
  w.end_object();
}

/// The scheduler-metrics JSON consumed by tools/scaling_report.py:
/// latency/steps/steal/queue-depth histogram summaries, steal totals,
/// the per-worker busy/steal/sink/idle decomposition and (schema 2) the
/// shard plan plus the scheduler-overhead split: heuristic_seconds is
/// the summed per-heuristic minimize time of the jobs the workers ran
/// (dedup duplicates excluded, like busy time), so busy - heuristic is the
/// per-job fixed cost (decode, reset, governor, validation, delivery).
/// hardware_concurrency lets the report flag oversubscription on its own.
std::string metrics_json(const engine::BatchReport& report) {
  const engine::BatchMetrics& m = report.metrics;
  double busy_seconds = 0.0;
  for (const engine::WorkerUtilization& u : m.workers) {
    busy_seconds += u.busy_seconds;
  }
  harness::JsonWriter w;
  w.begin_object();
  w.kv("schema_version", 2);
  w.kv("threads", report.num_threads);
  w.kv("hardware_concurrency", std::thread::hardware_concurrency());
  w.kv("jobs", static_cast<std::uint64_t>(report.outcomes.size()));
  w.kv("wall_seconds", report.wall_seconds);
  w.key("sharding").begin_object();
  w.kv("shards", m.shards);
  w.kv("shard_cost_budget", m.shard_cost_budget);
  w.kv("warm_jobs", m.warm_jobs);
  w.kv("cold_jobs", m.cold_jobs);
  metrics_histogram(w, "shard_jobs", m.shard_jobs);
  metrics_histogram(w, "shard_cost", m.shard_cost);
  w.end_object();
  w.key("overhead").begin_object();
  w.kv("busy_seconds", busy_seconds);
  w.kv("heuristic_seconds", m.heuristic_seconds);
  w.kv("overhead_fraction",
       busy_seconds > 0.0
           ? std::max(0.0, 1.0 - m.heuristic_seconds / busy_seconds)
           : 0.0);
  w.end_object();
  metrics_histogram(w, "job_latency_ns", m.job_latency_ns);
  metrics_histogram(w, "job_steps", m.job_steps);
  metrics_histogram(w, "steal_search_ns", m.steal_search_ns);
  metrics_histogram(w, "queue_depth", m.queue_depth);
  w.kv("steal_attempts", m.steal_attempts);
  w.kv("steals", m.steals);
  w.kv("steal_success_rate",
       m.steal_attempts == 0
           ? 0.0
           : static_cast<double>(m.steals) /
                 static_cast<double>(m.steal_attempts));
  w.key("workers").begin_array();
  for (const engine::WorkerUtilization& u : m.workers) {
    w.begin_object();
    w.kv("worker", u.worker);
    w.kv("busy_seconds", u.busy_seconds);
    w.kv("steal_seconds", u.steal_seconds);
    w.kv("sink_seconds", u.sink_seconds);
    w.kv("idle_seconds", u.idle_seconds);
    w.kv("jobs", u.jobs);
    w.kv("steal_attempts", u.steal_attempts);
    w.kv("steals", u.steals);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

int batch_exit_code(const engine::BatchReport& report) {
  // 0: every job clean.  3: at least one genuine bug.  4: no bugs, but
  // some jobs degraded (resource-limit / timeout / cancelled).
  if (report.count(engine::JobStatus::kError) > 0) return 3;
  return report.count(engine::JobStatus::kOk) == report.outcomes.size() ? 0 : 4;
}

int cmd_batch(int argc, char** argv) {
  engine::EngineOptions opts = batch_options(argc, argv);
  const char* journal_path = flag_value(argc, argv, "--journal");
  const bool resume = has_flag(argc, argv, "--resume");
  if (resume && journal_path == nullptr) {
    std::fprintf(stderr, "error: --resume requires --journal PATH\n");
    return 1;
  }
  engine::JournalContents resumed;
  std::vector<engine::Job> jobs;
  if (resume) {
    resumed = engine::read_journal(journal_path);
    for (const std::string& warning : resumed.warnings) {
      std::fprintf(stderr, "journal: %s\n", warning.c_str());
    }
    jobs = resumed.jobs;
    opts.resume = &resumed;
    std::printf("resuming %s: %zu of %zu jobs already complete\n",
                journal_path, resumed.completed_count(), jobs.size());
  } else {
    jobs = batch_jobs(argc, argv);
  }
  if (journal_path != nullptr) opts.journal_path = journal_path;
  if (has_flag(argc, argv, "--progress")) {
    // TTY policy lives here, not in the engine: a redirected stderr gets
    // no control-character churn unless BDDMIN_PROGRESS=1 forces it
    // (which is also how the tests capture the line).
    opts.progress = isatty(fileno(stderr)) != 0 ||
                    harness::env_u64("BDDMIN_PROGRESS", 0) != 0;
  }
  const engine::BatchReport report = engine::run_batch(jobs, opts);
  std::size_t total_f = 0;
  std::size_t total_min = 0;
  std::size_t peak_live = 0;
  for (const engine::JobOutcome& o : report.outcomes) {
    total_f += o.f_size;
    total_min += o.min_size;
    peak_live = std::max(peak_live, o.peak_live);
  }
  std::printf("batch: %zu jobs, %zu heuristics, %u threads, %.3fs\n",
              report.outcomes.size(), report.names.size(),
              report.num_threads, report.wall_seconds);
  std::printf(
      "status: ok=%zu timeout=%zu cancelled=%zu error=%zu resource-limit=%zu\n",
      report.count(engine::JobStatus::kOk),
      report.count(engine::JobStatus::kTimeout),
      report.count(engine::JobStatus::kCancelled),
      report.count(engine::JobStatus::kError),
      report.count(engine::JobStatus::kResourceLimit));
  std::printf("nodes: f=%zu best=%zu peak_live=%zu\n", total_f, total_min,
              peak_live);
  const std::string csv =
      engine::report_csv(report, has_flag(argc, argv, "--timings"),
                         has_flag(argc, argv, "--counters"));
  if (const char* path = flag_value(argc, argv, "--csv")) {
    if (!harness::write_text_file(path, csv)) {
      std::fprintf(stderr, "cannot write %s\n", path);
      return 1;
    }
    std::printf("report written to %s (%zu rows)\n", path,
                report.outcomes.size());
  } else {
    std::printf("%s", csv.c_str());
  }
  if (const char* path = flag_value(argc, argv, "--metrics")) {
    if (!harness::write_text_file(path, metrics_json(report))) {
      std::fprintf(stderr, "cannot write %s\n", path);
      return 1;
    }
    std::printf("metrics written to %s\n", path);
  }
  return batch_exit_code(report);
}

int cmd_stats(int argc, char** argv) {
  const std::vector<engine::Job> jobs = batch_jobs(argc, argv);
  const engine::EngineOptions opts = batch_options(argc, argv);
  const engine::BatchReport report = engine::run_batch(jobs, opts);
  std::printf("%s", engine::prometheus_text(report.metrics).c_str());
  return batch_exit_code(report);
}

int cmd_failpoints(int argc, char** argv) {
  // Names only by default so shell loops (the CI sweep) can consume the
  // output directly; --describe adds the catalog descriptions.
  const bool describe = has_flag(argc, argv, "--describe");
  for (const auto& entry : analysis::FailPointRegistry::catalog()) {
    if (describe) {
      std::printf("%-22s %s\n", entry.name, entry.description);
    } else {
      std::printf("%s\n", entry.name);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 3 && std::strcmp(argv[1], "minimize") == 0) {
      return cmd_minimize(argc - 2, argv + 2);
    }
    if (argc >= 4 && std::strcmp(argv[1], "equiv") == 0) {
      return cmd_equiv(argc - 2, argv + 2);
    }
    if (argc >= 3 && std::strcmp(argv[1], "reach") == 0) {
      return cmd_reach(argc - 2, argv + 2);
    }
    if (argc >= 3 && std::strcmp(argv[1], "audit") == 0) {
      return cmd_audit(argc - 2, argv + 2);
    }
    if (argc >= 2 && std::strcmp(argv[1], "batch") == 0) {
      return cmd_batch(argc - 2, argv + 2);
    }
    if (argc >= 2 && std::strcmp(argv[1], "stats") == 0) {
      return cmd_stats(argc - 2, argv + 2);
    }
    if (argc >= 2 && std::strcmp(argv[1], "failpoints") == 0) {
      return cmd_failpoints(argc - 2, argv + 2);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage:\n"
               "  bddmin_cli minimize <circuit.pla> [--heuristic NAME] [--sift]"
               " [--node-limit N]\n"
               "  bddmin_cli equiv <a.kiss> <b.kiss> [--stats]\n"
               "  bddmin_cli reach <a.kiss>\n"
               "  bddmin_cli audit <circuit.pla> [--level N] [--mutate CLASS]"
               " [--sift] [--node-limit N]\n"
               "  bddmin_cli batch [--pla FILE] [--jobs N] [--vars K]"
               " [--density D] [--seed S]\n"
               "                   [--threads T] [--heuristic NAME]"
               " [--audit-level L]\n"
               "                   [--timeout-ms M] [--lower-bound]"
               " [--node-limit N] [--step-limit N]\n"
               "                   [--fallback-heuristic NAME]"
               " [--csv PATH] [--timings] [--counters]\n"
               "                   [--journal PATH] [--resume] [--progress]"
               " [--metrics PATH]\n"
               "                   [--shard-cost C] [--no-shard]"
               " [--journal-group-commit]\n"
               "  bddmin_cli stats [batch flags]  (prints the batch's"
               " counters + histograms as Prometheus text)\n"
               "  bddmin_cli failpoints [--describe]  (lists the registered"
               " fault-injection points)\n");
  return 1;
}
