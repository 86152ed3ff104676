#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Run from the repository root (builds the benchmark on first use):

    python3 perfbench/test_perfbench.py

For every workload it runs one short untraced and one short traced run and
checks that:
  * the last stdout line is the result object with exactly the keys
    correct/attempted/failed/metrics, and the outputs matched their
    references;
  * every metric BENCHMARK.json names for that mode is emitted, with its
    unit, and nothing else;
  * in the span dump of the traced run, the children of every span plus
    its self time tile the span to within 1% (recomputed here,
    independently of the benchmark's own check);
  * the spans agree with the program's own clocks: the heuristic timer
    exceeds the heuristic spans by at most 1 us a call, and the run_batch
    span matches run_batch's wall clock to within 1%.
It prints traced vs untraced instances_per_s as the tracing overhead.
"""

import csv
import json
import os
import subprocess
import sys
import unittest
from collections import defaultdict

SPEC = json.load(open("BENCHMARK.json"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7


def run(workload, trace, seconds=1):
    out = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed",
         str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    return out.returncode, json.loads(lines[-1]) if lines else None


def max_tiling_error(path):
    """|children + self - parent| / parent over every (parent, lane)."""
    spans = {}
    children = defaultdict(list)
    with open(path) as f:
        for row in csv.DictReader(f):
            s = (int(row["start_ns"]), int(row["end_ns"]), int(row["lane"]))
            spans[int(row["id"])] = s
            if int(row["parent"]):
                children[(int(row["parent"]), s[2])].append(s)
    worst = 0.0
    for (parent, _lane), kids in children.items():
        if parent not in spans:
            continue
        start, end, _ = spans[parent]
        if end <= start:
            continue
        kids.sort()
        covered, reach, total = 0, start, 0
        for k_start, k_end, _ in kids:
            total += k_end - k_start
            lo, hi = max(k_start, reach), min(k_end, end)
            covered += max(0, hi - lo)
            reach = max(reach, min(k_end, end))
        self_time = (end - start) - covered
        worst = max(worst, abs(total + self_time - (end - start)) / (end - start))
    return worst


class BenchmarkTest(unittest.TestCase):
    def check_result(self, code, result, metrics):
        self.assertEqual(code, 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], m["name"])

    def test_workloads(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, plain = run(workload, 0)
                self.check_result(code, plain, SPEC["end_to_end"])
                for name, metric in plain["metrics"].items():
                    self.assertNotEqual(metric["value"], 0, name)

                code, traced = run(workload, 1)
                self.check_result(code, traced, SPEC["per_layer"])
                layer = {k: v["value"] for k, v in traced["metrics"].items()}
                self.assertLessEqual(layer["trace.tiling_error"], 0.01)
                self.assertLessEqual(layer["trace.heuristic_clock_gap_us"], 1.0)
                self.assertLessEqual(layer["trace.batch_clock_error"], 0.01)
                self.assertGreater(layer["minimize.heuristic_s"], 0)
                build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
                spans = os.path.join(build, "spans-%s.csv" % workload)
                self.assertLessEqual(max_tiling_error(spans), 0.01)
                print("%s: instances_per_s untraced %.1f, traced %.1f "
                      "(tracing overhead %.1f%%)" % (
                          workload, layer["trace.untraced_instances_per_s"],
                          layer["trace.traced_instances_per_s"],
                          100 * layer["trace.overhead_fraction"]),
                      file=sys.stderr)


if __name__ == "__main__":
    unittest.main()
