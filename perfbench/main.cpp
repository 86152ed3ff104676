/// \file main.cpp
/// \brief The repository benchmark: one process runs one workload for a
/// fixed time, checks every output against its reference, and prints the
/// end-to-end metrics (untraced run) or the per-layer split (traced run)
/// as the last line of standard output.
///
///   perfbench --workload table3_stream|tiny_jobs
///             --seed N --seconds S --trace 0|1 [--commit SHA]
///             [--spans FILE]
///
/// Layers are timed from outside, by wrapping the calls the benchmark
/// makes into the library: fsm traversals, minimize hooks (harness),
/// Heuristic::run (minimize), run_batch (engine); the bdd layer is read
/// from the counter snapshots those calls return.  Exit status 1 means an
/// output did not match its reference.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/ops.hpp"
#include "engine/engine.hpp"
#include "engine/shard.hpp"
#include "harness/intercept.hpp"
#include "minimize/incspec.hpp"
#include "minimize/lower_bound.hpp"
#include "minimize/registry.hpp"
#include "minimize/sibling.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using bddmin::Bdd;
using bddmin::Edge;
using bddmin::Manager;
namespace engine = bddmin::engine;
namespace minimize = bddmin::minimize;
namespace telemetry = bddmin::telemetry;

// ---------------------------------------------------------------------
// Small helpers

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// CPUs this process may run on (what `nproc` prints).
unsigned host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// For its lifetime, restricts the calling thread, and the threads it
/// starts, to the \p count allowed CPUs that finish a short integer probe
/// fastest.  On a shared host a vCPU loses up to half its speed while
/// another tenant runs on the same physical core, and which vCPUs are hit
/// changes every few seconds, so a chunk run on the quietest ones measures
/// the program rather than its neighbours.  Probe before starting the
/// chunk's clock.
class QuietestCpus {
 public:
  explicit QuietestCpus(unsigned count) {
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    saved_ok_ = true;
    std::vector<std::pair<double, int>> speed;  // probe seconds, cpu
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_) && pin(cpu)) speed.emplace_back(probe_seconds(), cpu);
    }
    std::sort(speed.begin(), speed.end());
    cpu_set_t best;
    CPU_ZERO(&best);
    for (std::size_t i = 0; i < std::min<std::size_t>(count, speed.size()); ++i) {
      CPU_SET(speed[i].second, &best);
    }
    if (speed.empty() || sched_setaffinity(0, sizeof best, &best) != 0) restore();
  }
  ~QuietestCpus() { restore(); }
  QuietestCpus(const QuietestCpus&) = delete;
  QuietestCpus& operator=(const QuietestCpus&) = delete;

 private:
  static bool pin(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0;
  }
  void restore() {
    if (saved_ok_) sched_setaffinity(0, sizeof saved_, &saved_);
    saved_ok_ = false;
  }
  /// Eight independent multiply-add chains, about 0.3 ms on a quiet core:
  /// bound by issue throughput, which a busy sibling hyperthread shares.
  static double probe_seconds() {
    std::uint64_t a[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    const std::int64_t start = now_ns();
    for (int i = 0; i < 50000; ++i) {
      for (std::uint64_t k = 0; k < 8; ++k) {
        a[k] = a[k] * 0x9E3779B97F4A7C15ull + (a[k] >> 29) + k;
      }
    }
    // A volatile store keeps the loop, and keeps it before the clock read.
    probe_sink_ = a[0] ^ a[1] ^ a[2] ^ a[3] ^ a[4] ^ a[5] ^ a[6] ^ a[7];
    return seconds_since(start);
  }
  static inline volatile std::uint64_t probe_sink_ = 0;

  cpu_set_t saved_{};
  bool saved_ok_ = false;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Span names must outlive the spans; heuristic names come from the
/// registry as std::strings, so they are copied here once.
std::string_view intern(const std::string& s) {
  static std::deque<std::string> pool;
  for (const std::string& p : pool) {
    if (p == s) return p;
  }
  return pool.emplace_back(s);
}

/// Reference checks: a mismatch is reported on stderr and counted.
struct Checks {
  std::size_t failed = 0;

  void expect(bool ok, const std::string& what) {
    if (ok) return;
    ++failed;
    std::fprintf(stderr, "!! mismatch: %s\n", what.c_str());
  }
  void expect_eq(std::size_t got, std::size_t want, const std::string& what) {
    expect(got == want, what + ": got " + std::to_string(got) + ", want " +
                            std::to_string(want));
  }
};

// Minimization instance a span serves.  Set by the table3 hook wrapper,
// or drawn per job by the first heuristic of an engine job.
thread_local std::uint32_t tl_instance = 0;
std::atomic<std::uint32_t> g_next_instance{1};

/// Wrap each Heuristic::run in a span.  With \p new_instance_per_job the
/// first heuristic of each job draws a fresh instance id (the engine runs
/// the heuristics of a job in order on one worker).
std::vector<minimize::Heuristic> traced(std::vector<minimize::Heuristic> hs,
                                        bool new_instance_per_job) {
  for (std::size_t h = 0; h < hs.size(); ++h) {
    const std::string_view name = intern("minimize." + hs[h].name);
    hs[h].run = [inner = std::move(hs[h].run), name, first = h == 0,
                 new_instance_per_job](Manager& m, Edge f, Edge c) {
      if (first && new_instance_per_job) {
        tl_instance = g_next_instance.fetch_add(1, std::memory_order_relaxed);
      }
      const Scope span(name, tl_instance);
      return inner(m, f, c);
    };
  }
  return hs;
}

/// The bdd layer's counters; the hit rates are derived from the hits and
/// lookups once all passes are summed.
void add_counters(std::map<std::string, double>& layer,
                  const telemetry::CounterSnapshot& c) {
  using telemetry::Counter;
  const auto put = [&](const char* name, double v) { layer[name] += v; };
  put("bdd.cache_lookups.ite", static_cast<double>(c.value(Counter::kIteCacheHits) +
                                                   c.value(Counter::kIteCacheMisses)));
  put("bdd.cache_lookups.and", static_cast<double>(c.value(Counter::kAndCacheHits) +
                                                   c.value(Counter::kAndCacheMisses)));
  put("bdd.cache_lookups.xor", static_cast<double>(c.value(Counter::kXorCacheHits) +
                                                   c.value(Counter::kXorCacheMisses)));
  put("bdd.cache_hits.ite", static_cast<double>(c.value(Counter::kIteCacheHits)));
  put("bdd.cache_hits.and", static_cast<double>(c.value(Counter::kAndCacheHits)));
  put("bdd.cache_hits.xor", static_cast<double>(c.value(Counter::kXorCacheHits)));
  put("bdd.steps", static_cast<double>(c.value(Counter::kGovernorSteps)));
  put("bdd.unique_inserts", static_cast<double>(c.value(Counter::kUniqueInserts)));
  put("bdd.gc_runs", static_cast<double>(c.value(Counter::kGcRuns)));
  put("bdd.gc_reclaimed", static_cast<double>(c.value(Counter::kGcNodesReclaimed)));
}

// ---------------------------------------------------------------------
// Workloads

/// What one timed pass over a workload produced.
struct PassResult {
  double wall_s = 0.0;
  /// run_batch's own wall clock (tiny_jobs; 0 on table3_stream).
  double batch_wall_s = 0.0;
  std::size_t instances = 0;   ///< minimization instances completed
  double heuristic_s = 0.0;    ///< summed Heuristic::run time (program's record)
  std::size_t cover_nodes = 0; ///< sum of per-instance `min` cover sizes
  std::size_t failed = 0;      ///< instances whose job did not finish ok
  /// Wall time of each chunk of the pass, in a fixed order: each traversal
  /// on table3_stream, each run_batch call on tiny_jobs.
  std::vector<double> chunk_wall_s;
  /// Summed Heuristic::run time of each instance, in a fixed order.
  std::vector<double> instance_heuristic_s;
  /// Per-layer values of this pass (counters, worker snapshots).
  std::map<std::string, double> layer;
};

struct Facts {
  unsigned threads = 1;
  std::size_t instances = 0;
  std::size_t duplicates = 0;
  std::size_t tt_jobs = 0;
  std::size_t forest_jobs = 0;
  std::size_t total_calls = 0;
  std::size_t filtered_calls = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Build the inputs; timed as setup_s.
  virtual void setup() = 0;
  virtual PassResult pass(bool traced, Checks& checks) = 0;
  /// Single-threaded, traced replay of the per-instance work through the
  /// public calls the program makes, checked against the passes' results.
  virtual void replay(Checks& checks) = 0;
  [[nodiscard]] virtual Facts facts() const = 0;
};

void check_totals(Checks& checks, const std::vector<std::string>& names,
                  const std::vector<std::size_t>& totals, std::size_t min_total,
                  const char* where) {
  checks.expect_eq(min_total, kTable3.min_total,
                   std::string(where) + " min total");
  for (const HeuristicTotal& ref : kTable3.totals) {
    const auto it = std::find(names.begin(), names.end(), ref.name);
    checks.expect(it != names.end(),
                  std::string(where) + " heuristic " + ref.name + " missing");
    if (it == names.end()) continue;
    checks.expect_eq(totals[static_cast<std::size_t>(it - names.begin())],
                     ref.total, std::string(where) + " " + ref.name + " total");
  }
}

// --- table3_stream ----------------------------------------------------

class Table3Stream final : public Workload {
 public:
  void setup() override { traversals_ = table3_traversals(); }

  PassResult pass(bool traced_pass, Checks& checks) override {
    bddmin::harness::InterceptorOptions opts;
    opts.audit_level = bddmin::analysis::AuditLevel::kOff;
    std::vector<minimize::Heuristic> hs = minimize::all_heuristics();
    if (traced_pass) hs = traced(std::move(hs), false);
    bddmin::harness::Interceptor icpt(std::move(hs), opts);
    PassResult r;
    telemetry::CounterSnapshot counters;
    std::size_t peak_live = 0;
    std::uint32_t calls = 0;
    bddmin::fsm::MinimizeHook hook = icpt.hook();
    if (traced_pass) {
      hook = [inner = hook, &counters, &peak_live, &calls](Manager& m, Edge f,
                                                          Edge c) {
        tl_instance = ++calls;
        const Scope span("harness.hook", tl_instance);
        const telemetry::CounterSnapshot before = m.telemetry();
        const Edge g = inner(m, f, c);
        counters += m.telemetry() - before;
        peak_live = std::max(peak_live, m.governor().peak_live_nodes());
        return g;
      };
    }
    {
      const Scope root("pass", 0);
      for (std::size_t k = 0; k < traversals_.size(); ++k) {
        const QuietestCpus cpu(1);
        const std::int64_t t0 = now_ns();
        const Scope span("fsm.traversal", static_cast<std::uint32_t>(k));
        run_traversal(traversals_[k], hook);
        r.chunk_wall_s.push_back(seconds_since(t0));
        r.wall_s += r.chunk_wall_s.back();  // without the CPU probes
      }
    }

    const std::vector<std::string> names = icpt.names();
    std::vector<std::size_t> totals(names.size());
    for (const bddmin::harness::CallRecord& rec : icpt.records()) {
      r.cover_nodes += rec.min_size;
      double call_s = 0.0;
      for (std::size_t h = 0; h < names.size(); ++h) {
        totals[h] += rec.outcomes[h].size;
        call_s += rec.outcomes[h].seconds;
      }
      r.heuristic_s += call_s;
      r.instance_heuristic_s.push_back(call_s);
    }
    r.instances = icpt.records().size();
    checks.expect_eq(icpt.total_calls(), kTable3.total_calls,
                     "table3_stream calls");
    checks.expect_eq(r.instances, kTable3.kept_calls, "table3_stream kept calls");
    check_totals(checks, names, totals, r.cover_nodes, "table3_stream");
    kept_calls_ = r.instances;
    total_calls_ = icpt.total_calls();
    filtered_calls_ = icpt.filtered_calls();
    if (traced_pass) {
      add_counters(r.layer, counters);
      r.layer["bdd.peak_live"] = static_cast<double>(peak_live);
      r.layer["fsm.calls"] = static_cast<double>(icpt.total_calls());
      r.layer["fsm.calls_kept"] = static_cast<double>(r.instances);
    }
    return r;
  }

  /// The interceptor's per-call work, step by step through the same
  /// public calls: filter, f size, care onset, then per heuristic a cache
  /// flush, the run, cover validation and the result size, and finally
  /// the lower bound.
  void replay(Checks& checks) override {
    const std::vector<minimize::Heuristic> hs = minimize::all_heuristics();
    std::vector<std::string_view> span_names;
    for (const minimize::Heuristic& h : hs) {
      span_names.push_back(intern("minimize." + h.name));
    }
    std::size_t kept = 0;
    std::size_t min_total = 0;
    std::uint32_t calls = 0;
    const bddmin::harness::InterceptorOptions defaults;
    const auto hook = [&](Manager& mgr, Edge f, Edge c) {
      const Scope span("harness.hook", ++calls);
      const minimize::IncSpec spec{f, c};
      bool filtered = false;
      {
        const Scope s("minimize.classify", calls);
        filtered = minimize::classify_call(mgr, spec).filtered();
      }
      if (filtered) return c == bddmin::kZero ? f : minimize::constrain(mgr, f, c);
      const Bdd f_pin(mgr, f);
      const Bdd c_pin(mgr, c);
      {
        const Scope s("bdd.count_nodes", calls);
        (void)bddmin::count_nodes(mgr, f);
      }
      {
        const Scope s("minimize.c_onset", calls);
        (void)minimize::c_onset_fraction(mgr, spec);
      }
      std::size_t best = SIZE_MAX;
      for (std::size_t h = 0; h < hs.size(); ++h) {
        {
          const Scope s("bdd.gc", calls);
          mgr.garbage_collect();
        }
        Edge g{};
        {
          const Scope s(span_names[h], calls);
          g = hs[h].run(mgr, f, c);
        }
        bool ok = false;
        {
          const Scope s("minimize.validate", calls);
          ok = minimize::is_cover(mgr, g, spec);
        }
        checks.expect(ok, "table3_stream replay: " + hs[h].name + " non-cover");
        const Scope s("bdd.count_nodes", calls);
        best = std::min(best, bddmin::count_nodes(mgr, g));
      }
      {
        const Scope s("bdd.gc", calls);
        mgr.garbage_collect();
      }
      {
        const Scope s("minimize.lower_bound", calls);
        (void)minimize::constrain_lower_bound(mgr, f, c,
                                              defaults.lower_bound_cubes);
      }
      ++kept;
      min_total += best;
      return minimize::constrain(mgr, f, c);
    };
    for (std::size_t k = 0; k < traversals_.size(); ++k) {
      const QuietestCpus cpu(1);
      const Scope span("fsm.traversal", static_cast<std::uint32_t>(k));
      run_traversal(traversals_[k], hook);
    }
    checks.expect_eq(kept, kTable3.kept_calls, "table3_stream replay kept calls");
    checks.expect_eq(min_total, kTable3.min_total, "table3_stream replay min total");
  }

  [[nodiscard]] Facts facts() const override {
    Facts f;
    f.instances = kept_calls_;
    f.total_calls = total_calls_;
    f.filtered_calls = filtered_calls_;
    return f;
  }

 private:
  std::vector<Traversal> traversals_;
  std::size_t kept_calls_ = 0;
  std::size_t total_calls_ = 0;
  std::size_t filtered_calls_ = 0;
};

// --- tiny_jobs --------------------------------------------------------------

class TinyJobs final : public Workload {
 public:
  // Half the CPUs, the quietest half for each run_batch call: still a
  // multi-worker scheduler, but one that a neighbour loading some of the
  // host's cores does not slow (see QuietestCpus).
  explicit TinyJobs(std::uint64_t seed)
      : threads_(std::max(1u, host_nproc() / 2)), seed_(seed) {}

  void setup() override { jobs_ = tiny_jobs(seed_); }

  PassResult pass(bool traced_pass, Checks& checks) override {
    engine::EngineOptions opts;
    opts.num_threads = threads_;
    opts.shard_cost = engine::kDefaultShardCost;
    if (traced_pass) opts.heuristics = traced(minimize::all_heuristics(), true);
    PassResult r;
    auto& L = r.layer;
    double busy = 0.0;
    telemetry::Histogram latency;
    // The jobs go out as kTinySlices consecutive run_batch calls, each
    // timed as one chunk (see run()).  An outcome is a pure function of
    // its payload, so the merged report is the one a single batch gives.
    engine::BatchReport report;
    const std::size_t n = jobs_.size();
    for (std::size_t s = 0; s < kTinySlices; ++s) {
      const std::size_t lo = n * s / kTinySlices;
      const std::size_t hi = n * (s + 1) / kTinySlices;
      const QuietestCpus cpus(threads_);
      const std::int64_t t0 = now_ns();
      engine::BatchReport part;
      {
        const Scope span("engine.run_batch", static_cast<std::uint32_t>(s));
        set_orphan_parent(span.id());
        part = engine::run_batch(std::span<const engine::Job>(jobs_).subspan(lo, hi - lo),
                                 opts);
        set_orphan_parent(0);
      }
      r.chunk_wall_s.push_back(seconds_since(t0));
      r.wall_s += r.chunk_wall_s.back();  // without the CPU probes
      r.batch_wall_s += part.wall_seconds;
      report.names = part.names;
      report.duplicate_jobs += part.duplicate_jobs;
      for (engine::JobOutcome& o : part.outcomes) report.outcomes.push_back(std::move(o));
      // The program's own worker snapshots.
      const engine::BatchMetrics& m = part.metrics;
      for (const engine::WorkerUtilization& u : m.workers) {
        busy += u.busy_seconds;
        L["engine.steal_s"] += u.steal_seconds;
        L["engine.sink_s"] += u.sink_seconds;
        L["engine.idle_s"] += u.idle_seconds;
      }
      L["engine.warm_jobs"] += static_cast<double>(m.warm_jobs);
      L["engine.shards"] += static_cast<double>(m.shards);
      L["engine.steal_attempts"] += static_cast<double>(m.steal_attempts);
      L["engine.steals"] += static_cast<double>(m.steals);
      latency.merge(m.job_latency_ns);
    }
    r.instances = report.outcomes.size();

    telemetry::CounterSnapshot counters;
    std::size_t peak_live = 0;
    for (const engine::JobOutcome& o : report.outcomes) {
      if (o.status != engine::JobStatus::kOk) {
        ++r.failed;
        std::fprintf(stderr, "!! job %s: %s %s\n", o.name.c_str(),
                     engine::job_status_name(o.status), o.error.c_str());
      }
      r.cover_nodes += o.min_size;
      double job_s = 0.0;
      for (const engine::HeuristicResult& h : o.results) job_s += h.seconds;
      r.heuristic_s += job_s;
      r.instance_heuristic_s.push_back(job_s);
      counters += o.counters;
      peak_live = std::max(peak_live, o.peak_live);
    }
    checks.expect_eq(r.instances, jobs_.size(), "tiny_jobs outcomes");
    check_digest(checks, report);
    duplicates_ = report.duplicate_jobs;
    min_total_ = r.cover_nodes;

    L["engine.busy_s"] = busy;
    L["engine.overhead_s"] = busy - r.heuristic_s;
    L["engine.overhead_fraction"] = busy > 0.0 ? 1.0 - r.heuristic_s / busy : 0.0;
    L["engine.jobs"] = static_cast<double>(report.outcomes.size());
    L["engine.duplicate_jobs"] = static_cast<double>(report.duplicate_jobs);
    const telemetry::HistogramSnapshot job_ns = latency.snapshot();
    L["engine.job_p50_ms"] = static_cast<double>(job_ns.quantile(0.50)) * 1e-6;
    L["engine.job_p99_ms"] = static_cast<double>(job_ns.quantile(0.99)) * 1e-6;
    add_counters(L, counters);
    L["bdd.peak_live"] = static_cast<double>(peak_live);
    return r;
  }

  /// The engine's cold per-job path on one thread: reset, decode, the f
  /// and c sizes, care onset, then per heuristic a cache flush, the run,
  /// cover validation and the result size.
  void replay(Checks& checks) override {
    const std::vector<minimize::Heuristic> hs = minimize::all_heuristics();
    std::vector<std::string_view> span_names;
    for (const minimize::Heuristic& h : hs) {
      span_names.push_back(intern("minimize." + h.name));
    }
    const unsigned cache_log2 = engine::EngineOptions{}.cache_log2;
    std::unique_ptr<Manager> pool;
    engine::DecodeScratch scratch;
    std::size_t min_total = 0;
    for (std::size_t k = 0; k < jobs_.size(); ++k) {
      const engine::Job& job = jobs_[k];
      const auto id = static_cast<std::uint32_t>(k);
      const Scope span("replay.job", id);
      {
        const Scope s("engine.reset", id);
        const unsigned n = std::max(job.num_vars, 1u);
        if (pool == nullptr) {
          pool = std::make_unique<Manager>(n, cache_log2);
        } else {
          pool->reset(n);
        }
      }
      Manager& mgr = *pool;
      minimize::IncSpec spec;
      {
        const Scope s("engine.decode", id);
        spec = engine::decode_job(mgr, job, scratch);
      }
      const Bdd f_pin(mgr, spec.f);
      const Bdd c_pin(mgr, spec.c);
      {
        const Scope s("bdd.count_nodes", id);
        (void)bddmin::count_nodes(mgr, spec.f);
        (void)bddmin::count_nodes(mgr, spec.c);
      }
      {
        const Scope s("minimize.c_onset", id);
        (void)minimize::c_onset_fraction(mgr, spec);
      }
      std::vector<Bdd> covers;
      covers.reserve(hs.size());
      std::size_t best = SIZE_MAX;
      for (std::size_t h = 0; h < hs.size(); ++h) {
        {
          const Scope s("bdd.gc", id);
          mgr.garbage_collect();
        }
        Edge g{};
        {
          const Scope s(span_names[h], id);
          g = hs[h].run(mgr, spec.f, spec.c);
        }
        covers.emplace_back(mgr, g);
        bool ok = false;
        {
          const Scope s("minimize.validate", id);
          ok = minimize::is_cover(mgr, g, spec);
        }
        checks.expect(ok, "tiny_jobs replay: " + hs[h].name + " non-cover on " +
                              job.name);
        const Scope s("bdd.count_nodes", id);
        best = std::min(best, bddmin::count_nodes(mgr, g));
      }
      min_total += best;
    }
    checks.expect_eq(min_total, min_total_, "tiny_jobs replay min total vs batch");
  }

  [[nodiscard]] Facts facts() const override {
    Facts f;
    f.threads = threads_;
    f.instances = jobs_.size();
    f.duplicates = duplicates_;
    for (const engine::Job& j : jobs_) {
      (j.kind == engine::PayloadKind::kTruthTable ? f.tt_jobs : f.forest_jobs)++;
    }
    return f;
  }

 private:
  void check_digest(Checks& checks, const engine::BatchReport& report) {
    // The deterministic CSV must repeat exactly on every pass, and for the
    // default seed match the pinned digest.
    const std::uint64_t digest = fnv1a(engine::report_csv(report));
    if (first_digest_ == 0) first_digest_ = digest;
    checks.expect(digest == first_digest_, "tiny_jobs report differs between passes");
    if (seed_ == kDefaultSeed) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%016llx",
                    static_cast<unsigned long long>(digest));
      checks.expect(digest == kTinyCsvDigest,
                    std::string("tiny_jobs report digest ") + buf);
    }
  }

  unsigned threads_;
  std::uint64_t seed_;
  std::vector<engine::Job> jobs_;
  std::size_t duplicates_ = 0;
  std::size_t min_total_ = 0;
  std::uint64_t first_digest_ = 0;
};

// ---------------------------------------------------------------------
// Driver

/// The text arguments stay pointers into argv: copying them into heap
/// strings shifts the allocator's later layout by one chunk, which was
/// seen to move a batch workload's peak RSS by 12 MB between argument
/// lengths.
struct Args {
  std::string_view workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  const char* commit = "unknown";
  const char* spans_path = nullptr;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (key == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else if (key == "--commit") {
      a.commit = v;
    } else if (key == "--spans") {
      a.spans_path = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  // table3_stream is fixed by its reference; only tiny_jobs draws its
  // inputs from the seed.
  if (a.workload == "table3_stream") return std::make_unique<Table3Stream>();
  if (a.workload == "tiny_jobs") return std::make_unique<TinyJobs>(a.seed);
  return nullptr;
}

/// Every per-layer metric, in output order.  A metric a workload does not
/// exercise (engine.* on table3_stream) reads 0.
constexpr const char* kLayerMetrics[] = {
    "bdd.cache_hit_rate.ite", "bdd.cache_hit_rate.and",
    "bdd.cache_hit_rate.xor", "bdd.cache_lookups.ite",
    "bdd.cache_lookups.and", "bdd.cache_lookups.xor", "bdd.steps",
    "bdd.unique_inserts", "bdd.gc_runs", "bdd.gc_reclaimed", "bdd.gc_s",
    "bdd.count_nodes_s", "bdd.peak_live", "engine.busy_s",
    "engine.overhead_s", "engine.overhead_fraction", "engine.reset_s",
    "engine.decode_s", "engine.warm_jobs", "engine.jobs", "engine.shards",
    "engine.duplicate_jobs", "engine.steal_s", "engine.sink_s",
    "engine.idle_s", "engine.steal_success_rate", "engine.steal_attempts",
    "engine.job_p50_ms", "engine.job_p99_ms", "fsm.traversal_s", "fsm.self_s",
    "fsm.calls", "fsm.calls_kept", "harness.intercept_self_s",
    "minimize.heuristic_s", "minimize.const.s", "minimize.restr.s",
    "minimize.osm_td.s", "minimize.osm_nv.s", "minimize.osm_cp.s",
    "minimize.osm_bt.s", "minimize.tsm_td.s", "minimize.tsm_cp.s",
    "minimize.opt_lv.s", "minimize.f_orig.s", "minimize.f_and_c.s",
    "minimize.f_or_nc.s", "minimize.validate_s", "minimize.lower_bound_s",
    "minimize.c_onset_s", "trace.untraced_instances_per_s",
    "trace.traced_instances_per_s", "trace.overhead_fraction",
    "trace.tiling_error", "trace.heuristic_clock_gap_us",
    "trace.batch_clock_error", "trace.spans_per_pass",
};

/// setup_s is the median of at least kMinSetups setups, repeated until
/// kSetupSeconds of setup have run, so that a millisecond-scale setup is
/// repeated often enough for its median to settle.
constexpr std::size_t kMinSetups = 5;
constexpr double kSetupSeconds = 2.0;

struct JsonLine {
  std::string text = "{";
  bool first = true;

  void raw(const std::string& key, const std::string& value) {
    if (!first) text += ", ";
    first = false;
    text += "\"" + key + "\": " + value;
  }
  void str(const std::string& key, const std::string& value) {
    raw(key, "\"" + value + "\"");
  }
  void num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    raw(key, buf);
  }
  std::string done() { return text + "}"; }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  JsonLine out;
  for (const Metric& m : metrics) {
    JsonLine entry;
    entry.num("value", m.value);
    entry.str("unit", m.unit);
    out.raw(m.name, entry.done());
  }
  return out.done();
}

/// Unit of a per-layer metric, from its name.
std::string layer_unit(const std::string& name) {
  const auto ends = [&](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("per_s")) return "1/s";
  if (ends("_s") || ends(".s")) return "s";
  if (ends("_ms")) return "ms";
  if (ends("_us")) return "us";
  if (ends("fraction") || ends("rate") || ends("error") ||
      name.find("hit_rate") != std::string::npos) {
    return "ratio";
  }
  return "count";
}

int run(const Args& args) {
  std::unique_ptr<Workload> w = make_workload(args);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%.*s'\n",
                 static_cast<int>(args.workload.size()), args.workload.data());
    return 2;
  }
  Checks checks;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> out;

  if (!args.trace) {
    std::vector<double> setups;
    const auto timed_setup = [&] {
      const QuietestCpus cpu(1);
      const std::int64_t t0 = now_ns();
      w->setup();
      setups.push_back(seconds_since(t0));
    };
    timed_setup();
    // One untimed pass first, so allocator and page-cache warm-up is not
    // in the figures; its outputs are still checked.
    const PassResult warm = w->pass(false, checks);
    attempted += warm.instances;
    failed += warm.failed;
    const std::size_t cover_nodes = warm.cover_nodes;
    // High-water mark over setup and one full pass, read before the timed
    // loop so it does not depend on how many passes fit in the run, and
    // before the repeated setups, whose number depends on their speed and
    // would otherwise move the heap layout.
    const double rss_mb = peak_rss_mb();
    const std::int64_t setup_start = now_ns();
    while (setups.size() < kMinSetups ||
           seconds_since(setup_start) < kSetupSeconds) {
      timed_setup();
    }
    // Timings take each chunk's fastest pass: each traversal's (each
    // run_batch call's on tiny_jobs) for the wall time, each instance's
    // for the heuristic time.  On a shared host the slower samples mostly
    // measure other tenants, and their bursts are shorter than a pass, so
    // per-chunk minima vary much less from run to run than whole passes.
    std::vector<double> best_wall;
    std::vector<double> best_heuristic;
    const auto keep_min = [&](std::vector<double>& best, const std::vector<double>& v) {
      checks.expect(best.empty() || best.size() == v.size(), "chunk count repeats");
      if (best.size() != v.size()) best = v;
      for (std::size_t i = 0; i < v.size(); ++i) best[i] = std::min(best[i], v[i]);
    };
    std::size_t passes = 0;
    const std::int64_t start = now_ns();
    do {
      const PassResult r = w->pass(false, checks);
      ++passes;
      keep_min(best_wall, r.chunk_wall_s);
      keep_min(best_heuristic, r.instance_heuristic_s);
      std::fprintf(stderr, "# pass %zu: %.1f instances/s, heuristic %.4f s\n",
                   passes, static_cast<double>(r.instances) / r.wall_s, r.heuristic_s);
      checks.expect_eq(r.cover_nodes, cover_nodes, "cover nodes repeat");
      attempted += r.instances;
      failed += r.failed;
    } while (seconds_since(start) < args.seconds);
    const auto sum = [](const std::vector<double>& v) {
      double s = 0.0;
      for (const double x : v) s += x;
      return s;
    };
    out.push_back({"instances_per_s",
                   static_cast<double>(best_heuristic.size()) / sum(best_wall), "1/s"});
    out.push_back({"heuristic_s", sum(best_heuristic), "s"});
    out.push_back({"cover_nodes_total", static_cast<double>(cover_nodes), "count"});
    out.push_back({"peak_rss_mb", rss_mb, "MB"});
    out.push_back({"setup_s", median(setups), "s"});
  } else {
    w->setup();
    std::map<std::string, double> layer;
    std::vector<double> untraced_rates;
    std::vector<double> traced_rates;
    std::map<std::string, double> traced_sum;   // spans, over traced passes
    std::map<std::string, double> untraced_sum; // snapshots, over untraced passes
    double tiling = 0.0;
    double gap_lo = 0.0;       // per-call heuristic timer minus span, us
    double gap_hi = 0.0;
    double batch_clock = 0.0;  // |run_batch wall - span| / wall
    std::size_t spans_total = 0;
    std::vector<Span> last_spans;
    const auto untraced_pass = [&] {
      const PassResult u = w->pass(false, checks);
      untraced_rates.push_back(static_cast<double>(u.instances) / u.wall_s);
      for (const auto& [k, v] : u.layer) untraced_sum[k] += v;
      attempted += u.instances;
      failed += u.failed;
    };
    const PassResult warm = w->pass(false, checks);
    attempted += warm.instances;
    failed += warm.failed;
    const std::int64_t start = now_ns();
    // Traced and untraced passes alternate, each going first every other
    // round, so drift over the run does not bias the overhead figure.
    for (bool traced_first = false;
         traced_rates.empty() || seconds_since(start) < args.seconds;
         traced_first = !traced_first) {
      if (!traced_first) untraced_pass();
      set_tracing(true);
      const PassResult t = w->pass(true, checks);
      set_tracing(false);
      traced_rates.push_back(static_cast<double>(t.instances) / t.wall_s);
      attempted += t.instances;
      failed += t.failed;
      if (traced_first) untraced_pass();
      last_spans = drain();
      const SpanSummary s = summarize(last_spans);
      tiling = std::max(tiling, s.max_tiling_error);
      spans_total += s.spans;
      for (const auto& [k, v] : t.layer) traced_sum[k] += v;
      double heuristic = 0.0;
      std::size_t heuristic_calls = 0;
      for (const auto& [name, totals] : s.by_name) {
        if (name.rfind("minimize.", 0) == 0) {
          traced_sum[name + ".s"] += totals.seconds;
          heuristic += totals.seconds;
          heuristic_calls += totals.count;
        }
      }
      traced_sum["minimize.heuristic_s"] += heuristic;
      // Unlike tiling, these checks can fail: spans are compared with the
      // program's own clocks.  Each heuristic span sits inside the
      // program's timer around Heuristic::run, so the program's summed
      // time exceeds the spans' by the call overhead at the span
      // boundaries, a fraction of a microsecond a call, and is never
      // below it.  The run_batch span encloses run_batch's wall clock.
      if (heuristic_calls > 0) {
        const double gap_us =
            (t.heuristic_s - heuristic) / static_cast<double>(heuristic_calls) * 1e6;
        gap_lo = std::min(gap_lo, gap_us);
        gap_hi = std::max(gap_hi, gap_us);
      }
      if (const auto it = s.by_name.find("engine.run_batch"); it != s.by_name.end()) {
        batch_clock = std::max(
            batch_clock, std::fabs(t.batch_wall_s - it->second.seconds) / t.batch_wall_s);
      }
      if (const auto it = s.by_name.find("fsm.traversal"); it != s.by_name.end()) {
        traced_sum["fsm.traversal_s"] += it->second.seconds;
        traced_sum["fsm.self_s"] += it->second.self_seconds;
      }
      if (const auto it = s.by_name.find("harness.hook"); it != s.by_name.end()) {
        traced_sum["harness.intercept_self_s"] += it->second.self_seconds;
      }
    }
    const double passes = static_cast<double>(traced_rates.size());

    // Engine worker snapshots come from the untraced passes; spans and
    // counters from the traced ones.
    for (const auto& [k, v] : untraced_sum) {
      if (k.rfind("engine.", 0) == 0) layer[k] = v / passes;
    }
    for (const auto& [k, v] : traced_sum) {
      if (k.rfind("engine.", 0) != 0) layer[k] = v / passes;
    }

    set_tracing(true);
    w->replay(checks);
    set_tracing(false);
    const SpanSummary rs = summarize(drain());
    tiling = std::max(tiling, rs.max_tiling_error);
    const auto replay_s = [&](const char* name) {
      const auto it = rs.by_name.find(name);
      return it == rs.by_name.end() ? 0.0 : it->second.seconds;
    };
    layer["engine.reset_s"] = replay_s("engine.reset");
    layer["engine.decode_s"] = replay_s("engine.decode");
    layer["bdd.gc_s"] = replay_s("bdd.gc");
    layer["bdd.count_nodes_s"] = replay_s("bdd.count_nodes");
    layer["minimize.validate_s"] = replay_s("minimize.validate");
    layer["minimize.c_onset_s"] = replay_s("minimize.c_onset");
    layer["minimize.lower_bound_s"] = replay_s("minimize.lower_bound");

    // Ratios from their bases.
    for (const char* cls : {"ite", "and", "xor"}) {
      const double lookups = layer[std::string("bdd.cache_lookups.") + cls];
      const double hits = layer[std::string("bdd.cache_hits.") + cls];
      layer[std::string("bdd.cache_hit_rate.") + cls] =
          lookups > 0.0 ? hits / lookups : 0.0;
      layer.erase(std::string("bdd.cache_hits.") + cls);
    }
    const double attempts = layer["engine.steal_attempts"];
    layer["engine.steal_success_rate"] =
        attempts > 0.0 ? layer["engine.steals"] / attempts : 0.0;
    layer.erase("engine.steals");

    const double untraced =
        *std::max_element(untraced_rates.begin(), untraced_rates.end());
    const double traced_rate =
        *std::max_element(traced_rates.begin(), traced_rates.end());
    layer["trace.untraced_instances_per_s"] = untraced;
    layer["trace.traced_instances_per_s"] = traced_rate;
    layer["trace.overhead_fraction"] = untraced > 0.0 ? 1.0 - traced_rate / untraced : 0.0;
    layer["trace.tiling_error"] = tiling;
    layer["trace.spans_per_pass"] = static_cast<double>(spans_total) / passes;
    layer["trace.heuristic_clock_gap_us"] = gap_hi;
    layer["trace.batch_clock_error"] = batch_clock;
    checks.expect(tiling <= 0.01, "span tiling error " + std::to_string(tiling) +
                                      " exceeds 1%");
    checks.expect(gap_lo >= 0.0 && gap_hi <= 1.0,
                  "heuristic spans vs program timer: per-call gap " +
                      std::to_string(gap_lo) + ".." + std::to_string(gap_hi) +
                      " us outside [0, 1]");
    checks.expect(batch_clock <= 0.01, "run_batch span vs program wall clock error " +
                                           std::to_string(batch_clock) + " exceeds 1%");
    if (args.spans_path != nullptr && !write_spans(args.spans_path, last_spans)) {
      std::fprintf(stderr, "cannot write spans to %s\n", args.spans_path);
    }
    for (const char* k : kLayerMetrics) out.push_back({k, layer[k], layer_unit(k)});
  }

  // Host fingerprint and workload facts, recorded with every result.
  const Facts f = w->facts();
  JsonLine facts;
  facts.str("workload", std::string(args.workload));
  facts.num("seed", static_cast<double>(args.seed));
  facts.num("nproc", host_nproc());
  facts.num("threads", f.threads);
#if defined(__clang__)
  facts.str("compiler", "clang " __clang_version__);
#else
  facts.str("compiler", "gcc " __VERSION__);
#endif
  facts.str("build_type", PERFBENCH_BUILD_TYPE);
#ifdef BDDMIN_NO_TELEMETRY
  facts.str("telemetry", "off");
#else
  facts.str("telemetry", "on");
#endif
  facts.str("commit", args.commit);
  facts.num("instances", static_cast<double>(f.instances));
  facts.num("duplicate_share", f.instances ? static_cast<double>(f.duplicates) / f.instances : 0.0);
  const double jobs = static_cast<double>(f.tt_jobs + f.forest_jobs);
  facts.num("tt_share", jobs > 0 ? f.tt_jobs / jobs : 0.0);
  facts.num("forest_share", jobs > 0 ? f.forest_jobs / jobs : 0.0);
  facts.num("filtered_call_share",
            f.total_calls ? static_cast<double>(f.filtered_calls) / f.total_calls : 0.0);
  std::printf("# facts %s\n", facts.done().c_str());

  // Reference mismatches count as failures too.
  failed += checks.failed;
  const bool correct = failed == 0;
  JsonLine result;
  result.raw("correct", correct ? "true" : "false");
  result.raw("attempted", std::to_string(attempted));
  result.raw("failed", std::to_string(failed));
  result.raw("metrics", metrics_json(out));
  std::printf("%s\n", result.done().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--commit SHA] [--spans FILE]\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
