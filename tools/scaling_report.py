#!/usr/bin/env python3
"""Diagnose batch-engine scaling from `bddmin_cli batch --metrics` JSON.

Usage:

    python3 tools/scaling_report.py --metrics t1.json --metrics t4.json ...

Each --metrics file is one batch run (bddmin_cli batch --metrics PATH).
Give several — one per thread count, or a sharded/unsharded pair — and
the report compares them.  It prints (stdout, plain text):

  * per-worker busy/steal/sink/idle fractions, steal stats, latency
    percentiles and the sampled queue-depth range of every run,
  * the scheduler-overhead section: the per-job fixed cost (busy time
    not spent inside a heuristic) against the minimize time proper, the
    shard plan and, when both a sharded and an unsharded run are given,
    the wall/overhead deltas between them,
  * the serial fraction as the Karp–Flatt estimate
    e = (1/S - 1/p) / (1 - 1/p), where S = wall_1 / wall_p is the
    speedup of a p-thread run over the fewest-thread run of the same
    batch (same job count and shard budget; p is the thread ratio),
  * a diagnosis naming the bottleneck consistent with those numbers —
    CPU oversubscription (a run's `threads` exceeds its
    `hardware_concurrency`), serial fraction, worker starvation
    (dominantly idle workers) or per-job scheduler overhead.

Stdlib only.  Exit 0 on success (a diagnosis was produced), 1 on
unreadable or malformed input.
"""
import argparse
import json
import sys

STATES = ("busy", "steal", "sink", "idle")


def fail(msg: str) -> int:
    print(f"scaling_report: {msg}", file=sys.stderr)
    return 1


def worker_states(m, w):
    """busy/steal/sink/idle fractions of one worker's share of the wall."""
    wall = m.get("wall_seconds", 0.0)
    return {s: (w.get(f"{s}_seconds", 0.0) / wall if wall > 0 else 0.0)
            for s in STATES}


def is_sharded(m):
    return bool(m.get("sharding", {}).get("shard_cost_budget", 0))


def oversubscribed(m):
    hw = m.get("hardware_concurrency", 0)
    return bool(hw) and m.get("threads", 0) > hw


def karp_flatt(base, run):
    """(thread ratio p, speedup S, serial fraction e) of `run` over `base`."""
    p = run["threads"] / base["threads"]
    speedup = base["wall_seconds"] / run["wall_seconds"]
    return p, speedup, (1.0 / speedup - 1.0 / p) / (1.0 - 1.0 / p)


def scaling_pairs(metrics):
    """Each run paired with the fewest-thread run of the same batch."""
    groups = {}
    for m in metrics:
        if m.get("threads", 0) > 0 and m.get("wall_seconds", 0.0) > 0:
            groups.setdefault((m.get("jobs"), is_sharded(m)), []).append(m)
    pairs = []
    for runs in groups.values():
        base = min(runs, key=lambda m: m["threads"])
        pairs.extend((base, m) for m in runs if m["threads"] > base["threads"])
    return pairs


def print_runs(metrics):
    print("scheduler metrics (--metrics):")
    for m in metrics:
        rate = m.get("steal_success_rate", 0.0)
        lat = m.get("job_latency_ns", {})
        depth = m.get("queue_depth", {})
        print(f"  threads={m.get('threads')} "
              f"hardware_concurrency={m.get('hardware_concurrency', '?')} "
              f"jobs={m.get('jobs')} wall={m.get('wall_seconds', 0.0):.3f}s: "
              f"steals {m.get('steals')}/{m.get('steal_attempts')} "
              f"({rate:.1%} success), "
              f"latency p50={lat.get('p50', 0) / 1e6:.2f}ms "
              f"p99={lat.get('p99', 0) / 1e6:.2f}ms, "
              f"queue depth p50={depth.get('p50', 0)} "
              f"max={depth.get('max', 0)}")
        for w in m.get("workers", []):
            states = worker_states(m, w)
            dominant = max(states, key=states.get)
            print(f"    worker-{w.get('worker')}: "
                  + " ".join(f"{k}={v:.1%}" for k, v in states.items())
                  + f"  dominant={dominant}")


def print_overhead(metrics):
    """Per-job fixed cost vs minimize time, from "overhead"/"sharding"."""
    runs = [m for m in metrics if "overhead" in m]
    if not runs:
        return
    print()
    print("scheduler overhead (per-job fixed cost vs minimize time):")
    for m in runs:
        ov = m["overhead"]
        sh = m.get("sharding", {})
        jobs = m.get("jobs", 0)
        busy = ov.get("busy_seconds", 0.0)
        heur = ov.get("heuristic_seconds", 0.0)
        frac = ov.get("overhead_fraction", 0.0)
        fixed_us = ((busy - heur) / jobs * 1e6) if jobs else 0.0
        mode = "sharded" if is_sharded(m) else "unsharded"
        print(f"  threads={m.get('threads')} {mode}: "
              f"busy={busy:.3f}s minimize={heur:.3f}s "
              f"overhead={frac:.1%} (~{fixed_us:.0f}us fixed cost/job)")
        if sh:
            sj = sh.get("shard_jobs", {})
            print(f"    shards={sh.get('shards')} "
                  f"budget={sh.get('shard_cost_budget')} "
                  f"warm_jobs={sh.get('warm_jobs')} "
                  f"cold_jobs={sh.get('cold_jobs')} "
                  f"jobs/shard p50={sj.get('p50', 0)} "
                  f"max={sj.get('max', 0)}")
    sharded = [m for m in runs if is_sharded(m)]
    unsharded = [m for m in runs if not is_sharded(m)]
    if sharded and unsharded:
        s, u = sharded[0], unsharded[0]
        wall_s = s.get("wall_seconds", 0.0)
        wall_u = u.get("wall_seconds", 0.0)
        frac_s = s["overhead"].get("overhead_fraction", 0.0)
        frac_u = u["overhead"].get("overhead_fraction", 0.0)
        delta = (wall_u - wall_s) / wall_u if wall_u > 0 else 0.0
        print(f"  sharded vs unsharded: wall {wall_u:.3f}s -> "
              f"{wall_s:.3f}s ({delta:+.1%}), overhead "
              f"{frac_u:.1%} -> {frac_s:.1%}")


def print_scaling(pairs):
    print()
    print("serial fraction (Karp-Flatt, e = (1/S - 1/p) / (1 - 1/p)):")
    if not pairs:
        print("  n/a: needs two runs of the same batch at different "
              "thread counts")
    for base, run in pairs:
        p, speedup, e = karp_flatt(base, run)
        note = "  (oversubscribed)" if oversubscribed(run) else ""
        print(f"  threads {base['threads']} -> {run['threads']}: "
              f"wall {base['wall_seconds']:.3f}s -> "
              f"{run['wall_seconds']:.3f}s, speedup {speedup:.2f}x "
              f"of {p:g}x, serial fraction {e:.1%}{note}")


def diagnose(metrics, pairs):
    """Name the bottlenecks consistent with the numbers, in priority
    order; returns the lines to print."""
    out = []
    for m in metrics:
        if not oversubscribed(m):
            continue
        n, hw = m["threads"], m["hardware_concurrency"]
        line = (f"CPU oversubscription: {n} workers share {hw} hardware "
                f"thread(s) — they timeshare cores rather than run in "
                f"parallel, so busy time counts descheduled workers")
        p99 = m.get("job_latency_ns", {}).get("p99", 0)
        base = next((b for b, r in pairs if r is m), None)
        if base is not None:
            base_p99 = base.get("job_latency_ns", {}).get("p99", 0)
            line += (f"; job p99 {base_p99 / 1e6:.2f}ms at "
                     f"{base['threads']} thread(s) -> {p99 / 1e6:.2f}ms "
                     f"at {n}")
        out.append(line + ".")
    # The serial fraction is read from runs that fit on the host: an
    # oversubscribed run's lost speedup is timesharing, not serial work.
    fits = [(b, r) for b, r in pairs if not oversubscribed(r)]
    if fits:
        base, run = max(fits, key=lambda br: br[1]["threads"])
        p, speedup, e = karp_flatt(base, run)
        if e > 0.25:
            out.append(f"serial fraction {e:.1%} at {run['threads']} "
                       f"threads: the batch reaches {speedup:.2f}x of "
                       f"{p:g}x — the longest jobs or the single-threaded "
                       "setup bound the wall time.")
    for m in metrics:
        n = m.get("threads", 0)
        if n <= 1:
            continue
        idle = 0
        for w in m.get("workers", []):
            s = worker_states(m, w)
            if s["idle"] > max(s["busy"], s["steal"], s["sink"]):
                idle += 1
        if idle:
            rate = m.get("steal_success_rate", 0.0)
            shards = m.get("sharding", {}).get("shards", 0)
            cause = (f"only {shards} shard(s) for {n} workers; lower "
                     "--shard-cost" if 0 < shards < n else
                     "the queue drains unevenly")
            out.append(f"worker starvation at {n} threads: "
                       f"{idle}/{len(m.get('workers', []))} workers "
                       f"are dominantly idle (steal success {rate:.1%}) — "
                       f"{cause}.")
    # Tiny jobs make the per-job fixed cost (decode, reset, fsync,
    # scheduling) a first-order term: call it out whenever the p50 job
    # latency is under 1ms and the overhead split confirms it.
    for m in metrics:
        lat_p50_ns = m.get("job_latency_ns", {}).get("p50", 0)
        frac = m.get("overhead", {}).get("overhead_fraction", 0.0)
        if 0 < lat_p50_ns < 1_000_000 and frac > 0.10:
            remedy = ("raise --shard-cost so more jobs share a warm "
                      "manager" if is_sharded(m) else
                      "enable shard scheduling (--shard-cost) so the "
                      "fixed cost amortizes over a shard")
            out.append(f"per-job scheduler overhead: p50 job latency is "
                       f"{lat_p50_ns / 1e6:.2f}ms (< 1ms) and {frac:.1%} "
                       f"of busy time is outside the heuristics at "
                       f"threads={m.get('threads')} — the fixed per-job "
                       f"cost rivals the minimization itself; {remedy}.")
            break
    if not out:
        out.append("no bottleneck apparent: workers are busy, the serial "
                   "fraction is small and no run exceeds the host's "
                   "hardware threads.")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--metrics", action="append", required=True,
                        metavar="PATH",
                        help="metrics JSON from bddmin_cli batch --metrics "
                             "(repeatable: one per run)")
    args = parser.parse_args()

    metrics = []
    for path in args.metrics:
        try:
            with open(path, encoding="utf-8") as fh:
                m = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            return fail(f"cannot load {path}: {e}")
        if not isinstance(m, dict) or not isinstance(m.get("threads"), int):
            return fail(f"{path}: not a bddmin_cli --metrics record")
        metrics.append(m)

    pairs = scaling_pairs(metrics)
    print_runs(metrics)
    print_overhead(metrics)
    print_scaling(pairs)
    print()
    print("diagnosis:")
    for line in diagnose(metrics, pairs):
        print(f"  * {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
