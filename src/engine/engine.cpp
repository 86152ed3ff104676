#include "engine/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "analysis/failpoint.hpp"
#include "analysis/thread_annotations.hpp"
#include "engine/journal.hpp"
#include "engine/queue.hpp"
#include "engine/shard.hpp"
#include "harness/csv.hpp"
#include "harness/env.hpp"
#include "telemetry/histogram.hpp"

namespace bddmin::engine {
namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Sample the run-queue backlog every this many pops per worker — cheap
/// (a handful of relaxed loads) but frequent enough that the depth
/// histogram tracks the drain curve of a thousands-of-jobs batch.
constexpr std::uint64_t kDepthSampleEvery = 16;

/// One worker's time/event accounting, single writer (the worker), read
/// and merged by run_batch after the join.  Padded so neighbours never
/// share a line.
struct alignas(64) WorkerStats {
  std::uint64_t busy_ns = 0;   ///< inside jobs
  std::uint64_t steal_ns = 0;  ///< try_pop time past an own-deque miss
  std::uint64_t sink_ns = 0;   ///< journal append + delivery
  std::uint64_t jobs = 0;
  std::uint64_t steal_attempts = 0;
  std::uint64_t steals = 0;
  std::uint64_t pops = 0;  ///< depth-sampler cadence counter
  std::uint64_t warm_jobs = 0;  ///< manager acquisitions that skipped reset()
  std::uint64_t cold_jobs = 0;  ///< manager acquisitions through reset()
  telemetry::HistogramSnapshot steal_search_ns;  ///< per own-deque miss
  telemetry::HistogramSnapshot queue_depth;      ///< sampled backlog
};

/// Submission-order result sink.  Each slot is written exactly once, but
/// the mutex also guards the delivery tallies and makes the sink safe to
/// observe (the progress line) while workers run.
class ResultSink {
 public:
  /// Running delivery tallies, readable mid-batch (the --progress line).
  /// `failed` counts kError only; timeouts and resource limits still
  /// produce usable covers and are not failures.
  struct Progress {
    std::size_t delivered = 0;
    std::size_t ok = 0;
    std::size_t failed = 0;
  };

  explicit ResultSink(std::size_t num_jobs) : slots_(num_jobs) {}

  void deliver(std::size_t index, JobOutcome outcome) BDDMIN_EXCLUDES(mu_) {
    const std::lock_guard<std::mutex> lock(mu_);
    ++progress_.delivered;
    progress_.ok += outcome.status == JobStatus::kOk ? 1 : 0;
    progress_.failed += outcome.status == JobStatus::kError ? 1 : 0;
    slots_[index] = std::move(outcome);
  }

  [[nodiscard]] Progress progress() BDDMIN_EXCLUDES(mu_) {
    const std::lock_guard<std::mutex> lock(mu_);
    return progress_;
  }

  [[nodiscard]] std::vector<JobOutcome> take() BDDMIN_EXCLUDES(mu_) {
    const std::lock_guard<std::mutex> lock(mu_);
    return std::move(slots_);
  }

 private:
  std::mutex mu_;
  std::vector<JobOutcome> slots_ BDDMIN_GUARDED_BY(mu_);
  Progress progress_ BDDMIN_GUARDED_BY(mu_);
};

struct WorkerContext {
  const EngineOptions* opts;
  const std::vector<minimize::Heuristic>* heuristics;
  unsigned worker;
  JournalWriter* journal = nullptr; ///< completion records; nullptr = off
  WorkerStats* stats = nullptr;     ///< utilization accounting
  const std::vector<std::size_t>* to_run = nullptr;  ///< run list (job indices)
  const ShardPlan* plan = nullptr;  ///< shard ranges over *to_run
  /// True when mid-shard jobs may reuse a warm manager: sharding is on
  /// and no escape hatch (node/step quota, structural audit) is armed.
  bool warm_capable = false;
  /// The batch-wide part of every job's call options; process_job adds
  /// the job's deadline and whether to flush.
  harness::CallOptions call;
};

[[nodiscard]] bool cancelled(const EngineOptions& opts) {
  return opts.cancel && opts.cancel->load(std::memory_order_relaxed);
}

/// The worker's pooled manager, reset to the fresh terminal-only state for
/// this job; constructed lazily on the first job.  reset() restores
/// construction-time behaviour exactly (see Manager::reset), so pooling is
/// invisible to the determinism contract — only the allocations are reused.
Manager& acquire_manager(std::unique_ptr<Manager>& pool, unsigned num_vars,
                         unsigned cache_log2) {
  if (pool == nullptr) {
    pool = std::make_unique<Manager>(num_vars, cache_log2);
  } else {
    pool->reset(num_vars);
  }
  return *pool;
}

JobOutcome process_job(const Job& job, const WorkerContext& ctx,
                       std::unique_ptr<Manager>& pool, bool warm,
                       DecodeScratch& decode_scratch) {
  const EngineOptions& opts = *ctx.opts;
  const std::vector<minimize::Heuristic>& heuristics = *ctx.heuristics;
  const auto job_start = Clock::now();

  JobOutcome outcome;
  outcome.name = job.name;
  outcome.num_vars = job.num_vars;
  outcome.worker = ctx.worker;
  outcome.results.resize(heuristics.size());
  if (cancelled(opts)) {
    outcome.status = JobStatus::kCancelled;
    return outcome;
  }

  // counter_base stays all-zero on the cold path (reset() zeroes the
  // bank), so `telemetry() - counter_base` is a per-job delta either way.
  telemetry::CounterSnapshot counter_base;
  Manager* acquired = nullptr;
  if (warm) {
    // Warm continuation inside a shard: the caller verified the pooled
    // manager exists, matches num_vars and is under the node watermark.
    // The unique table and computed cache carry over from the previous
    // job; only the per-job governor telemetry (steps, peak_live) is
    // rebaselined.  Results are unaffected — BDDs are
    // canonical and a cached result *is* the result — the warm state
    // only removes work, which the counter deltas quantify.
    acquired = pool.get();
    acquired->governor().reset_job();
    counter_base = acquired->telemetry();
    ++ctx.stats->warm_jobs;
  } else {
    acquired =
        &acquire_manager(pool, std::max(job.num_vars, 1u), opts.cache_log2);
    ++ctx.stats->cold_jobs;
  }
  Manager& mgr = *acquired;
  minimize::IncSpec spec;
  try {
    spec = decode_job(mgr, job, decode_scratch);
  } catch (const std::exception& e) {
    outcome.status = JobStatus::kError;
    outcome.error = std::string("decode: ") + e.what();
    return outcome;
  }
  harness::CallOptions call = ctx.call;
  if (opts.job_timeout_seconds > 0.0) {
    call.deadline = job_start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(
                                        opts.job_timeout_seconds));
  }
  // A warm job must not flush: garbage_collect() clears the computed
  // cache, which is exactly the state warm reuse exists to keep.
  call.flush = !warm;
  // The job keeps every cover live until it ends, so a budget trip can
  // degrade to the best earlier cover.
  std::vector<Bdd> covers;
  static_cast<harness::CallResult&>(outcome) =
      harness::evaluate_call(mgr, spec, heuristics, call, &covers);
  outcome.peak_live = mgr.governor().peak_live_nodes();
  outcome.counters = mgr.telemetry() - counter_base;
  outcome.seconds =
      std::chrono::duration<double>(Clock::now() - job_start).count();
  return outcome;
}

void worker_loop(WorkStealingQueue& queue, std::span<const Job> jobs,
                 ResultSink& sink, const WorkerContext& ctx) {
  // One pooled Manager per worker, reused across jobs via reset() — and,
  // inside a shard, without it (warm continuation, see process_job).
  std::unique_ptr<Manager> pool;
  WorkerStats& stats = *ctx.stats;
  // Per-worker arenas: reused across every job this worker runs, so the
  // steady-state loop performs no heap allocation for decode buffers or
  // journal records (the VisitScratch idiom, extended to the engine).
  DecodeScratch decode_scratch;
  std::string journal_group;  // buffered C-record lines, one flush per shard
  const bool group_commit =
      ctx.journal != nullptr && ctx.opts->journal_group_commit;
  std::size_t shard_index = 0;
  for (;;) {
    WorkStealingQueue::PopOutcome pop;
    const std::uint64_t pop_start = now_ns();
    const bool got = queue.try_pop(ctx.worker, &shard_index, &pop);
    const std::uint64_t pop_ns = now_ns() - pop_start;
    if (!got) {
      // The exit sweep scanned every deque and found nothing — by
      // definition a failed steal search.
      ++stats.steal_attempts;
      stats.steal_ns += pop_ns;
      stats.steal_search_ns.record(pop_ns);
      break;
    }
    const Shard& shard = ctx.plan->shards[shard_index];
    if (pop.stolen) {
      ++stats.steal_attempts;
      ++stats.steals;
      stats.steal_ns += pop_ns;
      stats.steal_search_ns.record(pop_ns);
    }
    if (++stats.pops % kDepthSampleEvery == 0) {
      stats.queue_depth.record(queue.approx_depth());
    }
    // Whether the *next* job in this shard may start warm: the previous
    // job must have completed cleanly on this manager.  Resets via
    // exceptions (pool dropped) and escape hatches fall back to cold
    // deterministically.
    bool warm_ready = false;
    for (std::uint32_t j = 0; j < shard.count; ++j) {
      const std::size_t index = (*ctx.to_run)[shard.first + j];
      JobOutcome outcome;
      const std::uint64_t busy_start = now_ns();
      // The node watermark bounds table garbage across a long shard.
      const bool warm =
          ctx.warm_capable && warm_ready && pool != nullptr &&
          pool->num_vars() == std::max(jobs[index].num_vars, 1u) &&
          pool->allocated_nodes() < ctx.opts->shard_node_watermark;
      try {
        outcome = process_job(jobs[index], ctx, pool, warm, decode_scratch);
      } catch (const std::exception& e) {
        // Containment: a throw outside the budgeted sections (e.g. the
        // manager constructor running out of memory) fails the one job, not
        // the batch.  The results vector is sized so the CSV keeps its shape.
        outcome.name = jobs[index].name;
        outcome.num_vars = jobs[index].num_vars;
        outcome.worker = ctx.worker;
        outcome.status = JobStatus::kError;
        outcome.error = e.what();
        outcome.results.resize(ctx.heuristics->size());
        // An uncontained throw may have left the pooled manager mid-mutation;
        // drop it rather than reuse a possibly inconsistent instance.
        pool.reset();
      }
      stats.busy_ns += now_ns() - busy_start;
      ++stats.jobs;
      warm_ready = outcome.status == JobStatus::kOk;
      const std::uint64_t sink_start = now_ns();
      // Journal before the sink: once an outcome is observable it is
      // also durable.  Cancelled jobs are deliberately not journalled —
      // a resume after a cancellation re-runs them.  Group-commit mode
      // buffers the record and flushes once per shard instead; the
      // durability unit widens from one job to one shard, and a crash
      // re-runs at most the unflushed tail of the current shard.
      if (ctx.journal != nullptr && outcome.status != JobStatus::kCancelled) {
        if (group_commit) {
          journal_group += format_completed_record(index, outcome);
        } else {
          ctx.journal->append_completed(index, outcome);
        }
      }
      sink.deliver(index, std::move(outcome));
      stats.sink_ns += now_ns() - sink_start;
    }
    if (group_commit && !journal_group.empty()) {
      const std::uint64_t flush_start = now_ns();
      ctx.journal->append_raw_lines(journal_group);
      journal_group.clear();
      stats.sink_ns += now_ns() - flush_start;
    }
  }
}

/// ETA rendering for the progress line: "1h02m", "4m32s", "17s", or
/// "--" when no estimate exists (nothing delivered yet, or absurd).
std::string format_eta(double seconds) {
  if (!(seconds >= 0.0) || seconds > 86'400.0 * 9) return "--";
  const auto total = static_cast<unsigned long long>(seconds + 0.5);
  char buf[32];
  if (total >= 3600) {
    std::snprintf(buf, sizeof buf, "%lluh%02llum", total / 3600,
                  (total % 3600) / 60);
  } else if (total >= 60) {
    std::snprintf(buf, sizeof buf, "%llum%02llus", total / 60, total % 60);
  } else {
    std::snprintf(buf, sizeof buf, "%llus", total);
  }
  return buf;
}

/// Content key for payload dedup: everything decode_job reads (kind,
/// variable count, the payload bytes) and nothing else — in particular not
/// the name.  Byte-exact, so two jobs share a key iff they decode to the
/// same [f, c] instance the same way.
std::string payload_key(const Job& job) {
  std::string key;
  key.reserve(16 + job.forest.size());
  key.push_back(static_cast<char>(job.kind));
  key.append(reinterpret_cast<const char*>(&job.num_vars), sizeof job.num_vars);
  if (job.kind == PayloadKind::kTruthTable) {
    key.append(reinterpret_cast<const char*>(&job.f_tt), sizeof job.f_tt);
    key.append(reinterpret_cast<const char*>(&job.c_tt), sizeof job.c_tt);
  } else {
    key += job.forest;
  }
  return key;
}

}  // namespace

const char* job_status_name(JobStatus s) noexcept {
  switch (s) {
    case JobStatus::kOk: return "ok";
    case JobStatus::kTimeout: return "timeout";
    case JobStatus::kCancelled: return "cancelled";
    case JobStatus::kError: return "error";
    case JobStatus::kResourceLimit: return "resource-limit";
  }
  return "?";
}

std::size_t BatchReport::count(JobStatus s) const noexcept {
  std::size_t n = 0;
  for (const JobOutcome& o : outcomes) {
    if (o.status == s) ++n;
  }
  return n;
}

BatchReport run_batch(std::span<const Job> jobs, const EngineOptions& opts) {
  // BDDMIN_FAILPOINTS arms *here* — after job generation and CLI parsing,
  // before any worker starts — so only the batch itself is faulted and a
  // fault-injected run minimizes exactly the same job set as a clean one.
  analysis::failpoints().arm_from_env();

  EngineOptions effective = opts;
  if (effective.node_limit == 0) {
    effective.node_limit =
        static_cast<std::size_t>(harness::env_u64("BDDMIN_NODE_LIMIT", 0));
  }
  if (effective.step_limit == 0) {
    effective.step_limit = harness::env_u64("BDDMIN_STEP_LIMIT", 0);
  }

  std::vector<minimize::Heuristic> heuristics = effective.heuristics;
  if (heuristics.empty()) heuristics = minimize::all_heuristics();

  unsigned threads =
      effective.num_threads ? effective.num_threads
                            : std::max(1u, std::thread::hardware_concurrency());
  threads = std::max(1u, std::min<unsigned>(
                             threads, std::max<std::size_t>(jobs.size(), 1)));

  BatchReport report;
  report.num_threads = threads;
  for (const minimize::Heuristic& h : heuristics) report.names.push_back(h.name);

  const auto start = Clock::now();
  // A resumed job is one whose outcome the journal already holds; it is
  // pre-filled into the sink and never queued.
  const JournalContents* resume = effective.resume;
  const auto resumed_done = [resume](std::size_t i) {
    return resume != nullptr && i < resume->completed.size() &&
           resume->completed[i].has_value();
  };

  // Payload dedup: queue one representative per distinct payload; the
  // duplicate slots are filled from the representative's outcome after the
  // pool drains.  rep[i] == i marks a representative.  A resumed-done
  // representative still anchors its duplicates — its outcome comes from
  // the journal instead of a worker.
  std::vector<std::size_t> rep(jobs.size());
  std::vector<std::size_t> to_run;
  to_run.reserve(jobs.size());
  if (effective.dedup_jobs) {
    std::unordered_map<std::string, std::size_t> first_by_key;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const auto [it, inserted] = first_by_key.emplace(payload_key(jobs[i]), i);
      rep[i] = it->second;
      if (inserted && !resumed_done(i)) to_run.push_back(i);
    }
  } else {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      rep[i] = i;
      if (!resumed_done(i)) to_run.push_back(i);
    }
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    report.duplicate_jobs += rep[i] != i ? 1 : 0;
  }

  // Write-ahead journal: a fresh run records the whole batch before any
  // work starts; a resume appends to the survivor.
  std::unique_ptr<JournalWriter> journal;
  if (!effective.journal_path.empty()) {
    journal = std::make_unique<JournalWriter>(effective.journal_path,
                                              /*truncate=*/resume == nullptr);
    if (resume == nullptr) {
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        journal->append_submitted(i, jobs[i]);
      }
    }
  }

  // Shard plan: a deterministic pure function of the run list and the
  // cost budget, computed once up front.  The queue dispatches shard
  // indices; budget 0 degenerates to one job per shard (classic per-job
  // scheduling, no warm reuse).
  const ShardPlan plan = pack_shards(jobs, to_run, effective.shard_cost);
  // Warm in-shard reuse is only armed when no per-job escape hatch could
  // observe the carried-over state: node/step quotas measure table
  // pressure (warmth would change degrade verdicts) and structural
  // audits walk the whole table (warmth would change the walk).
  const bool warm_capable = effective.shard_cost > 0 &&
                            effective.node_limit == 0 &&
                            effective.step_limit == 0 &&
                            effective.audit_level < analysis::AuditLevel::kStructural;

  harness::CallOptions call;
  call.node_limit = effective.node_limit;
  call.step_limit = effective.step_limit;
  if (effective.fallback_heuristic) call.fallback = &*effective.fallback_heuristic;
  call.audit_level = effective.audit_level;
  call.lower_bound_cubes = effective.lower_bound_cubes;

  WorkStealingQueue queue(threads);
  for (std::size_t s = 0; s < plan.size(); ++s) {
    queue.push(s % threads, s);
  }
  ResultSink sink(jobs.size());
  if (resume != nullptr) {
    const std::size_t n = std::min(jobs.size(), resume->completed.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (resume->completed[i].has_value()) {
        sink.deliver(i, *resume->completed[i]);
      }
    }
  }

  std::vector<WorkerStats> wstats(threads);
  // Progress reporter: one self-overwriting stderr line off the sink's
  // tallies.  Reads only, so it can run for the whole batch; the final
  // summary line is printed by the main thread after the duplicates are
  // filled (the reporter never sees those — they bypass the sink).
  std::atomic<bool> progress_stop{false};
  std::thread progress;
  if (effective.progress) {
    const std::size_t total = jobs.size();
    progress = std::thread([&sink, &progress_stop, total, start] {
      const std::size_t baseline = sink.progress().delivered;  // resumed jobs
      for (;;) {
        // 500 ms refresh cadence, polling the stop flag often enough
        // that shutdown never waits on the reporter.
        for (int i = 0; i < 10; ++i) {
          if (progress_stop.load(std::memory_order_relaxed)) return;
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        const ResultSink::Progress p = sink.progress();
        const double elapsed =
            std::chrono::duration<double>(Clock::now() - start).count();
        const double rate =
            elapsed > 0.0
                ? static_cast<double>(p.delivered - baseline) / elapsed
                : 0.0;
        const double eta =
            rate > 0.0 ? static_cast<double>(total - p.delivered) / rate
                       : -1.0;
        std::fprintf(stderr,
                     "\r[batch] %zu/%zu ok=%zu fail=%zu %.1f jobs/s eta %s   ",
                     p.delivered, total, p.ok, p.failed, rate,
                     format_eta(eta).c_str());
        std::fflush(stderr);
      }
    });
  }
  {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned w = 0; w < threads; ++w) {
      pool.emplace_back([&, w] {
        const WorkerContext ctx{&effective, &heuristics, w,
                                journal.get(), &wstats[w], &to_run,
                                &plan,      warm_capable, call};
        worker_loop(queue, jobs, sink, ctx);
      });
    }
    for (std::thread& t : pool) t.join();
  }
  report.outcomes = sink.take();
  // Fill each duplicate from its representative, keeping the duplicate's
  // own name.  Outcomes are pure functions of the payload, so every other
  // column is exactly what a dedup-off run would have produced.  The
  // duplicates' completion records are journalled here — workers only see
  // representatives.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (rep[i] == i) continue;
    JobOutcome copy = report.outcomes[rep[i]];
    copy.name = jobs[i].name;
    if (journal != nullptr && !resumed_done(i) &&
        copy.status != JobStatus::kCancelled) {
      journal->append_completed(i, copy);
    }
    report.outcomes[i] = std::move(copy);
  }
  report.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (effective.progress) {
    progress_stop.store(true, std::memory_order_relaxed);
    progress.join();
    std::fprintf(stderr,
                 "\r[batch] %zu/%zu ok=%zu fail=%zu done in %.1fs          \n",
                 report.outcomes.size(), jobs.size(),
                 report.count(JobStatus::kOk), report.count(JobStatus::kError),
                 report.wall_seconds);
    std::fflush(stderr);
  }

  // Assemble the run's observability block, all on this thread after the
  // join.  Per-job figures come from the outcomes of the jobs the workers
  // ran (`to_run`): dedup duplicates copy their representative's outcome
  // and resumed jobs ran in an earlier process, so both are left out.
  // The shard plan anchors the depth histogram with the fully
  // seeded backlog, so the drain curve has a defined starting point even
  // for tiny batches.  Idle is the wall-time remainder, so per worker
  // busy + steal + sink + idle ≈ wall by construction.
  BatchMetrics& metrics = report.metrics;
  for (const std::size_t i : to_run) {
    const JobOutcome& o = report.outcomes[i];
    metrics.counters += o.counters;
    for (const HeuristicResult& r : o.results) {
      metrics.heuristic_seconds += r.seconds;
    }
    metrics.job_latency_ns.record(static_cast<std::uint64_t>(o.seconds * 1e9));
    metrics.job_steps.record(
        o.counters.value(telemetry::Counter::kGovernorSteps));
  }
  metrics.queue_depth.record(plan.size());
  for (const Shard& s : plan.shards) {
    metrics.shard_jobs.record(s.count);
    metrics.shard_cost.record(s.cost);
  }
  metrics.shards = plan.size();
  metrics.shard_cost_budget = effective.shard_cost;
  metrics.workers.reserve(threads);
  for (unsigned w = 0; w < threads; ++w) {
    const WorkerStats& s = wstats[w];
    WorkerUtilization u;
    u.worker = w;
    u.busy_seconds = static_cast<double>(s.busy_ns) / 1e9;
    u.steal_seconds = static_cast<double>(s.steal_ns) / 1e9;
    u.sink_seconds = static_cast<double>(s.sink_ns) / 1e9;
    u.idle_seconds = std::max(0.0, report.wall_seconds - u.busy_seconds -
                                       u.steal_seconds - u.sink_seconds);
    u.jobs = s.jobs;
    u.steal_attempts = s.steal_attempts;
    u.steals = s.steals;
    metrics.steal_attempts += s.steal_attempts;
    metrics.steals += s.steals;
    metrics.warm_jobs += s.warm_jobs;
    metrics.cold_jobs += s.cold_jobs;
    metrics.steal_search_ns += s.steal_search_ns;
    metrics.queue_depth += s.queue_depth;
    metrics.workers.push_back(u);
  }
  return report;
}

std::string report_csv(const BatchReport& report, bool include_timings,
                       bool include_counters) {
  using telemetry::Counter;
  std::ostringstream os;
  os << "job,name,vars,status,f_size,c_size,c_onset,min,lower_bound,"
        "audit_findings,error,detail";
  for (const std::string& name : report.names) os << ",size_" << name;
  if (include_counters) {
    // peak_live lives here, not in the default columns: it measures table
    // pressure, which warm in-shard reuse legitimately changes, and the
    // default CSV stays byte-identical across shard modes.
    os << ",ut_inserts,ut_hits,cache_hits,cache_misses,gc_runs,gc_reclaimed,"
          "steps,peak_live";
    for (const std::string& name : report.names) {
      os << ",steps_match_" << name << ",steps_build_" << name
         << ",steps_valid_" << name;
    }
  }
  if (include_timings) {
    for (const std::string& name : report.names) os << ",sec_" << name;
    os << ",job_seconds,worker";
  }
  os << "\n";
  char buf[32];
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    const JobOutcome& o = report.outcomes[i];
    std::snprintf(buf, sizeof buf, "%.6f", o.c_onset);
    os << i << ',' << harness::csv_field(o.name) << ',' << o.num_vars << ','
       << job_status_name(o.status) << ',' << o.f_size << ','
       << o.c_size << ',' << buf << ',' << o.min_size << ',' << o.lower_bound
       << ',' << o.audit_findings << ',' << harness::csv_field(o.error)
       << ',' << harness::csv_field(o.detail);
    for (const HeuristicResult& r : o.results) os << ',' << r.size;
    if (include_counters) {
      const telemetry::CounterSnapshot& c = o.counters;
      os << ',' << c.value(Counter::kUniqueInserts) << ','
         << c.value(Counter::kUniqueHits) << ',' << c.total_cache_hits() << ','
         << c.total_cache_misses() << ',' << c.value(Counter::kGcRuns) << ','
         << c.value(Counter::kGcNodesReclaimed) << ','
         << c.value(Counter::kGovernorSteps) << ',' << o.peak_live;
      for (const HeuristicResult& r : o.results) {
        os << ',' << r.phases[telemetry::Phase::kMatching].steps << ','
           << r.phases[telemetry::Phase::kCoverBuild].steps << ','
           << r.phases[telemetry::Phase::kValidation].steps;
      }
    }
    if (include_timings) {
      for (const HeuristicResult& r : o.results) {
        std::snprintf(buf, sizeof buf, "%.6f", r.seconds);
        os << ',' << buf;
      }
      std::snprintf(buf, sizeof buf, "%.6f", o.seconds);
      os << ',' << buf << ',' << o.worker;
    }
    os << "\n";
  }
  return os.str();
}

std::string prometheus_text(const BatchMetrics& m) {
  std::string out = telemetry::prometheus_text(m.counters);
  telemetry::append_histogram_family(&out, "bddmin_job_latency_ns",
                                     "Per-job wall latency", m.job_latency_ns);
  telemetry::append_histogram_family(&out, "bddmin_job_steps",
                                     "Governor steps charged per batch job",
                                     m.job_steps);
  telemetry::append_histogram_family(
      &out, "bddmin_steal_search_ns",
      "Worker steal-search latency after missing its own deque",
      m.steal_search_ns);
  telemetry::append_histogram_family(&out, "bddmin_queue_depth",
                                     "Sampled total run-queue depth",
                                     m.queue_depth);
  telemetry::append_histogram_family(&out, "bddmin_shard_jobs",
                                     "Jobs packed per scheduler shard",
                                     m.shard_jobs);
  telemetry::append_histogram_family(&out, "bddmin_shard_cost",
                                     "Estimated cost units per scheduler shard",
                                     m.shard_cost);
  return out;
}

}  // namespace bddmin::engine
