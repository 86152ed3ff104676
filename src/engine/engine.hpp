/// \file engine.hpp
/// \brief Thread-pool batch minimization engine.
///
/// The paper minimizes one [f, c] pair at a time; realistic clients
/// (network-wide don't-care sweeps, the Table 1-4 experiments, FSM
/// traversals) present hundreds of independent instances.  The engine
/// shards a job set across N workers, each owning a *private* Manager —
/// the BDD core stays single-threaded internally — and funnels outcomes
/// through a lock-guarded sink indexed by submission order.
///
/// Determinism contract: every heuristic is a pure function of (f, c) and
/// each job is decoded into a manager in the fresh terminal-only state —
/// workers pool one Manager each and tear it back down between jobs with
/// Manager::reset(), which restores construction-time behaviour bit for
/// bit (counters, cache size, governor telemetry) without reallocating —
/// so all sizes, covers, audit verdicts and statuses are independent of
/// worker count and interleaving.  `report_csv(report)` therefore produces byte-identical
/// text for any thread count, **provided** no per-job timeout fired and
/// no cancellation was requested (both are wall-clock events).  Node and
/// step quotas are deterministic: a job degraded to kResourceLimit by them
/// degrades identically at every thread count.  Timings are recorded but
/// only emitted with `include_timings = true`, which is explicitly outside
/// the deterministic contract.
///
/// Sharding (`shard_cost > 0`): the submission stream is packed into
/// cost-balanced shards (engine/shard.hpp) and the work-stealing deque
/// dispatches shard indices, so one scheduling decision covers dozens of
/// tiny jobs.  Timeout, cancellation, dedup and journaling all stay
/// strictly per-job.  Within a shard the pooled
/// manager additionally skips reset() between consecutive jobs that
/// share num_vars — the unique table and the 2-way computed cache stay
/// *warm* across jobs — unless an escape hatch forces a cold start:
/// node/step quotas configured (quota trips depend on allocation state),
/// audit_level >= kStructural (the auditor must see a one-job table),
/// or the allocated-node watermark exceeded.  Warm
/// reuse never changes covers, sizes, statuses or audit verdicts (BDDs
/// are canonical; cached results are the results), so the default CSV is
/// byte-identical at any thread count *and* with sharding on or off.
/// The opt-in counters block (cache hits, steps, peak_live) measures the
/// work actually done, which is exactly what warm caches reduce: it
/// stays byte-deterministic across thread counts — shard packing is a
/// pure function of the submission stream — but deliberately differs
/// between sharded and unsharded runs.
///
/// Per job, the engine keeps what is batch-specific — cancellation,
/// acquiring/resetting the pooled manager or reusing it warm, decoding,
/// the per-job counters and `peak_live` — and hands the call itself to
/// harness::evaluate_call (harness/intercept.hpp), the one Section 4.1
/// loop the Interceptor and `bddmin_cli minimize` run too: flush (cold
/// managers only), run under the budget, time, pin and validate against
/// Definition 2, audit after every heuristic, count, take the min, and
/// for an ok job the opt-in Theorem 7 bound.
///
/// Resource governance: each heuristic runs under the worker manager's
/// ResourceGovernor (node quota, step budget, in-operation deadline).  A
/// budget trip aborts only that heuristic — the manager stays consistent
/// (strong guarantee, auditable), partial results are garbage-collected,
/// and the job *degrades* instead of failing: the tripped slot falls back
/// to the best previously validated cover (or the always-valid trivial
/// cover f), optionally retrying once on `fallback_heuristic` with a fresh
/// budget.  Such jobs finish kResourceLimit with the limit class recorded
/// in `JobOutcome::detail`; kError is reserved for genuine bugs.
///
/// Failure containment (failpoint-tested; see docs/ROBUSTNESS.md): a
/// throw anywhere in a job fails that job alone (kError) and the batch
/// runs on.  Jobs are pure functions of their payload, so a failed job
/// is not retried — it would fail again the same way.  Crash recovery is
/// the journal: `journal_path` writes an append-only, checksummed,
/// fsync'd record of submitted jobs and completed outcomes; `resume`
/// (from journal::read_journal) pre-fills completed outcomes and re-runs
/// only the rest.  A resumed batch's default CSV is byte-identical to an
/// uninterrupted run.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/audit.hpp"
#include "engine/job.hpp"
#include "harness/intercept.hpp"
#include "minimize/registry.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/histogram.hpp"

namespace bddmin::engine {

struct JournalContents;  // engine/journal.hpp

/// A job's status is its call's (kError also covers a decode failure).
using JobStatus = harness::CallStatus;

[[nodiscard]] const char* job_status_name(JobStatus s) noexcept;

/// Every job follows Section 4.1's method (harness::evaluate_call): a cold
/// manager flushes its caches (garbage_collect) before each heuristic, and
/// every cover is checked against Definition 2.  Neither is optional.
struct EngineOptions {
  /// Worker count; 0 means std::thread::hardware_concurrency() (min 1).
  unsigned num_threads = 0;
  /// The heuristics every job runs; empty = all_heuristics().
  std::vector<minimize::Heuristic> heuristics;
  /// Per-job wall-clock budget.  Checked between heuristics and — via the
  /// worker manager's ResourceGovernor — polled *inside* the budgeted
  /// recursions, so a single runaway heuristic is interrupted mid-flight
  /// (status kResourceLimit with detail "deadline").  0 disables.
  double job_timeout_seconds = 0.0;
  /// Hard quota on the worker manager's allocated nodes (live + dead),
  /// enforced while a heuristic runs; tripping it aborts the heuristic with
  /// bddmin::NodeLimit and degrades the job to its fallback cover.  0 means
  /// unlimited; when 0, the BDDMIN_NODE_LIMIT environment variable (if set)
  /// supplies a fleet-wide default.
  std::size_t node_limit = 0;
  /// Recursion-step budget per heuristic run (memoization misses across
  /// ITE/cofactor/quantification and the minimization traversals); a
  /// deterministic, machine-independent effort bound.  0 means unlimited;
  /// when 0, BDDMIN_STEP_LIMIT (if set) supplies a default.
  std::uint64_t step_limit = 0;
  /// A cheaper heuristic to retry once — with a fresh budget — when a
  /// heuristic exhausts its budget (e.g. restr as the fallback for
  /// osm_td).  Unset disables the retry; the job then keeps the best
  /// previously validated cover (or the trivial cover f).
  std::optional<minimize::Heuristic> fallback_heuristic;
  /// BddAudit depth after each heuristic (1-3 audit the worker's manager;
  /// level 4 additionally replaces the plain cover check with the
  /// witness-reporting contract audit).  Findings turn the job kError.
  analysis::AuditLevel audit_level = analysis::AuditLevel::kOff;
  /// Theorem 7 lower-bound cube budget per job (0 disables).
  std::size_t lower_bound_cubes = 0;
  /// log2 of each worker manager's computed-cache slots.
  unsigned cache_log2 = 14;
  /// Estimated-cost budget per shard (engine/shard.hpp cost units).  0
  /// disables coalescing — every job is its own shard and the engine
  /// behaves exactly as before sharding existed (the library default;
  /// the CLI defaults to kDefaultShardCost).
  /// Packing is deterministic, so any non-zero budget preserves the
  /// default-CSV byte-identity across thread counts.
  std::uint64_t shard_cost = 0;
  /// Warm-manager escape hatch: a mid-shard job starts from a full
  /// reset() whenever the pooled manager's allocated nodes (live + dead)
  /// reached this watermark, bounding how much table garbage warm reuse
  /// can accumulate.  Deterministic (allocation history is a pure
  /// function of the shard contents).
  std::size_t shard_node_watermark = 1u << 20;
  /// Journal group-commit: buffer completion records per worker and
  /// flush them with one fwrite + fsync per *shard* instead of one per
  /// job (see journal.hpp).  A crash loses at most the unflushed whole
  /// records, which simply re-run on resume.
  bool journal_group_commit = false;
  /// Collapse jobs with byte-identical payloads (kind, num_vars and the
  /// truth-table/forest content — names excluded): each distinct payload
  /// is minimized once and the outcome is replicated into every
  /// duplicate's CSV row under its own name.  Outcomes are pure functions
  /// of the payload, so the produced report is byte-identical to a
  /// dedup-off run (minus the opt-in timing columns); only the wall clock
  /// drops.  Duplicate counts land in BatchReport::duplicate_jobs.
  bool dedup_jobs = true;
  /// Optional cancellation token shared with the caller: once set, every
  /// not-yet-started job completes immediately as kCancelled (jobs are
  /// atomic — a started job always runs to its own completion).
  std::shared_ptr<std::atomic<bool>> cancel;
  /// Write-ahead journal path.  Non-empty: the batch truncates the file,
  /// records every submitted job up front and every outcome as it
  /// completes (checksummed, fsync'd).  See engine/journal.hpp.
  std::string journal_path;
  /// Resume data from journal::read_journal.  Jobs with a recorded
  /// outcome are pre-filled and not re-run; pass the same `journal_path`
  /// to keep appending completion records for the jobs that do run.
  const JournalContents* resume = nullptr;
  /// Emit a single self-overwriting progress line on stderr, refreshed at
  /// most every 500 ms (jobs done/total, ok/fail tallies,
  /// throughput, ETA), fed by the result sink's counters.  The engine
  /// honours the flag unconditionally; the CLI only sets it when stderr
  /// is a terminal (or BDDMIN_PROGRESS=1 forces it), so redirected runs
  /// stay clean.  Never written to stdout or the CSV.
  bool progress = false;
};

using harness::HeuristicResult;

/// One job's call result (status, sizes, per-heuristic results, bound,
/// audit findings; see harness::CallResult) plus what only the batch
/// knows about it.
struct JobOutcome : harness::CallResult {
  std::string name;
  unsigned num_vars = 0;
  /// Peak live-node count of the worker manager over the whole job — the
  /// memory high-water mark.  Deterministic across thread counts, but
  /// sensitive to the shard mode (a warm computed cache builds fewer
  /// intermediates), so the CSV reports it in the opt-in counters block.
  std::size_t peak_live = 0;
  /// Telemetry counter *deltas* for this job (decode, every heuristic,
  /// validation, audits).  Deterministic across thread counts.
  /// Shard-mode sensitive like peak_live — warm cache hits replace
  /// recorded work.
  telemetry::CounterSnapshot counters;
  unsigned worker = 0;                   ///< informational; non-deterministic
  double seconds = 0.0;                  ///< total job wall time
};

/// Wall-clock decomposition of one worker's life inside a batch: every
/// nanosecond between spawn and join is attributed to exactly one of
/// busy (inside a job), steal-search (hunting other deques after
/// missing its own), sink (journal append + result delivery) or idle
/// (everything else: waiting out the drain).  Busy, steal
/// and sink are measured with the monotonic clock; idle is the
/// remainder against the batch wall time, clamped at zero.
struct WorkerUtilization {
  unsigned worker = 0;
  double busy_seconds = 0.0;
  double steal_seconds = 0.0;
  double sink_seconds = 0.0;
  double idle_seconds = 0.0;
  std::uint64_t jobs = 0;           ///< jobs this worker finished
  std::uint64_t steal_attempts = 0; ///< sweeps past its own (empty) deque
  std::uint64_t steals = 0;         ///< sweeps that yielded an item
};

/// The batch's one observability record, read by `bddmin_cli stats`,
/// `batch --metrics` and `bench_batch`: work counters, latency/steal/
/// queue-depth histograms and the per-worker utilization table.  Every
/// per-job figure covers the jobs the workers ran — never the dedup
/// duplicates filled from them, nor resumed jobs.  The wall-clock
/// fields are outside the determinism contract.
struct BatchMetrics {
  /// Sum of JobOutcome::counters over the jobs run (deterministic).
  telemetry::CounterSnapshot counters;
  /// Sum of HeuristicResult::seconds over the jobs run.
  double heuristic_seconds = 0.0;
  telemetry::HistogramSnapshot job_latency_ns;   ///< one sample per job run
  telemetry::HistogramSnapshot job_steps;        ///< governor steps per job
  telemetry::HistogramSnapshot steal_search_ns;  ///< per own-deque miss
  telemetry::HistogramSnapshot queue_depth;      ///< sampled backlog
  telemetry::HistogramSnapshot shard_jobs;       ///< jobs per shard
  telemetry::HistogramSnapshot shard_cost;       ///< estimated cost per shard
  std::vector<WorkerUtilization> workers;
  std::uint64_t steal_attempts = 0;  ///< totals over workers
  std::uint64_t steals = 0;
  // Shard-plan facts.  Deterministic (pure function of the submission
  // stream and shard_cost), unlike the wall-clock histograms above.
  std::uint64_t shards = 0;            ///< shards dispatched
  std::uint64_t shard_cost_budget = 0; ///< effective EngineOptions::shard_cost
  std::uint64_t warm_jobs = 0;  ///< jobs that reused a warm manager
  std::uint64_t cold_jobs = 0;  ///< jobs that started from reset()
};

struct BatchReport {
  std::vector<std::string> names;     ///< heuristic names (column order)
  std::vector<JobOutcome> outcomes;   ///< submission order, always complete
  unsigned num_threads = 1;
  /// Jobs whose payload matched an earlier job's and were filled from its
  /// outcome instead of being re-minimized (0 when dedup_jobs is off).
  std::size_t duplicate_jobs = 0;
  double wall_seconds = 0.0;
  /// Scheduler observability for this run (see BatchMetrics).  Never
  /// feeds the CSV, so the byte-determinism contract is untouched.
  BatchMetrics metrics;

  [[nodiscard]] std::size_t count(JobStatus s) const noexcept;
};

/// Run the whole batch; blocks until every job has an outcome.
[[nodiscard]] BatchReport run_batch(std::span<const Job> jobs,
                                    const EngineOptions& opts = {});

/// CSV of the report, one row per job in submission order.  The default
/// column set is deterministic across thread counts *and* across shard
/// modes — it contains only canonical facts (sizes, statuses, covers,
/// audit verdicts).  `include_timings` appends per-heuristic seconds,
/// job seconds and the worker id, which are not deterministic.
/// `include_counters` appends per-job telemetry counters, `peak_live`
/// and per-heuristic phase step splits — deterministic across thread
/// counts but sensitive to the shard mode: warm computed caches do less
/// work, which is the point.
[[nodiscard]] std::string report_csv(const BatchReport& report,
                                     bool include_timings = false,
                                     bool include_counters = false);

/// Prometheus text exposition of one batch's metrics: the counter
/// families of telemetry::prometheus_text(m.counters), then the
/// histogram families `bddmin_job_latency_ns`, `bddmin_job_steps`,
/// `bddmin_steal_search_ns`, `bddmin_queue_depth`, `bddmin_shard_jobs`
/// and `bddmin_shard_cost` (always emitted, empty or not).
[[nodiscard]] std::string prometheus_text(const BatchMetrics& m);

}  // namespace bddmin::engine
