#!/usr/bin/env python3
"""Validate a Chrome trace_event JSON file emitted by BDDMIN_TRACE.

Checks (mirrors bddmin::telemetry::validate_trace, plus CI-side extras):
  * the file parses as JSON with a "traceEvents" array
  * every event has ph/pid/tid/ts/name; "X" events also carry dur >= 0
  * "C" (counter) events — e.g. the engine's queue-depth samples — carry
    a non-empty args object with only numeric values
  * spans on one (pid, tid) track are strictly nested — no partial overlap
  * with --min-tracks N: at least N distinct tids carry complete spans
    (proves the per-worker tracks are actually populated)
  * with --summary: per-track totals — top-level span time, span/instant/
    counter event counts — plus per-counter sample ranges (the queue-depth
    drain curve at a glance)

Exit status 0 on a valid trace, 1 otherwise (message on stderr).
"""
import argparse
import json
import sys


def fail(msg: str) -> int:
    print(f"check_trace: {msg}", file=sys.stderr)
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="path to the trace JSON file")
    parser.add_argument("--min-tracks", type=int, default=1, metavar="N",
                        help="require complete spans on at least N distinct "
                             "tids (default: 1)")
    parser.add_argument("--summary", action="store_true",
                        help="print per-track span time totals and counter "
                             "sample ranges after validating")
    args = parser.parse_args()

    try:
        with open(args.trace, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        return fail(f"cannot read {args.trace}: {e}")
    except json.JSONDecodeError as e:
        return fail(f"{args.trace} is not valid JSON: {e}")

    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return fail('"traceEvents" missing or not an array')
    if not events:
        return fail("trace contains no events")

    spans_by_track = {}
    thread_names = {}
    instants_by_track = {}
    counters_by_track = {}
    counter_samples = {}  # counter name -> list of values
    instants = 0
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            return fail(f"event {i} is not an object")
        ph = ev.get("ph")
        if ph not in ("X", "i", "M", "C"):
            return fail(f"event {i} has unexpected ph {ph!r}")
        for key in ("pid", "tid", "name"):
            if key not in ev:
                return fail(f"event {i} ({ph}) lacks {key!r}")
        track = (ev["pid"], ev["tid"])
        if ph == "M":
            if ev["name"] == "thread_name":
                thread_names[track] = ev.get("args", {}).get("name", "")
            continue
        if "ts" not in ev:
            return fail(f"event {i} ({ph}) lacks 'ts'")
        if ph == "i":
            instants += 1
            instants_by_track[track] = instants_by_track.get(track, 0) + 1
            continue
        if ph == "C":
            cargs = ev.get("args")
            if not isinstance(cargs, dict) or not cargs:
                return fail(f"counter event {i} lacks a non-empty 'args'")
            for key, value in cargs.items():
                if not isinstance(value, (int, float)):
                    return fail(f"counter event {i} arg {key!r} is not "
                                f"numeric: {value!r}")
                counter_samples.setdefault(ev["name"], []).append(value)
            counters_by_track[track] = counters_by_track.get(track, 0) + 1
            continue
        dur = ev.get("dur")
        if not isinstance(dur, (int, float)) or dur < 0:
            return fail(f"complete event {i} has bad dur {dur!r}")
        spans_by_track.setdefault(track, []).append(
            (float(ev["ts"]), float(ev["ts"]) + float(dur), ev["name"]))

    # Strict nesting per track: sweep spans by start time and keep a stack
    # of open end times.  A span that starts inside an open span must also
    # end inside it.  Top-level (stack-empty) span time is the track's
    # self-reported occupancy, which --summary reports.
    toplevel_by_track = {}
    for track, spans in spans_by_track.items():
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack = []
        toplevel = 0.0
        for start, end, name in spans:
            while stack and stack[-1][0] <= start:
                stack.pop()
            if stack and end > stack[-1][0]:
                return fail(f"span {name!r} on tid {track[1]} overlaps "
                            f"{stack[-1][1]!r} without nesting")
            if not stack:
                toplevel += end - start
            stack.append((end, name))
        toplevel_by_track[track] = toplevel

    if len(spans_by_track) < args.min_tracks:
        named = {t: thread_names.get(t, "?") for t in spans_by_track}
        return fail(f"only {len(spans_by_track)} track(s) carry spans "
                    f"({named}), need {args.min_tracks}")

    counters = sum(counters_by_track.values())
    print(f"check_trace: OK — {sum(len(s) for s in spans_by_track.values())} "
          f"spans on {len(spans_by_track)} track(s), {instants} instants, "
          f"{counters} counter samples, {len(thread_names)} named threads")

    if args.summary:
        print("track summary (top-level span time, per track):")
        tracks = sorted(set(spans_by_track) | set(instants_by_track)
                        | set(counters_by_track))
        for track in tracks:
            name = thread_names.get(track, "?")
            spans = spans_by_track.get(track, [])
            print(f"  tid {track[1]:>8} {name:<12} "
                  f"spans={len(spans):<6} "
                  f"span_time={toplevel_by_track.get(track, 0.0) / 1e6:8.3f}s "
                  f"instants={instants_by_track.get(track, 0):<5} "
                  f"counters={counters_by_track.get(track, 0)}")
        for cname in sorted(counter_samples):
            values = counter_samples[cname]
            print(f"counter {cname!r}: {len(values)} samples, "
                  f"min={min(values)} max={max(values)} last={values[-1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
