"""Benchmark of the unistrat pipeline: one seeded workload per process.

    python3 bench/run.py --workload diag-ladder --seed 1 --seconds 10 --trace 0

Run from the repository root; the library is imported from `src/`.  The
load is a closed loop with one caller: the next case starts only after the
previous verdict returns.  `--trace 0` measures the end-to-end metrics,
`--trace 1` one untraced and one traced pass for the per-layer metrics.
Every verdict is checked against its reference outside the timed region.
The last line of standard output is one JSON object with the result; the
lines before it give each metric with its unit and sample count.
See NOTES.md for the workloads, the metrics and their definitions.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# set-up is timed in fresh processes spread over the timed window: at
# least this many, and more until this much time has gone into them
SETUP_REPEATS = 15
SETUP_SECONDS = 6.0
# metric names and units, in the order of output
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
# per-layer metrics that must repeat exactly (the determinism guard)
COUNTS = tuple(k for k, unit in PER_LAYER.items() if unit in ("count", "ratio"))

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="timed seconds (--trace 0): one whole pass over the cases, "
                         "then more calls in the same order until this much is spent")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="only the smallest rung of the workload")
    # internal modes, run in child processes
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--count-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def tail(values):
    """(percentile, value): the highest whole percentile with at least ten
    samples beyond it, by nearest rank; the median below eleven samples."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return 50, statistics.median(xs)
    p = 100 * (n - 10) // n
    return p, xs[max(math.ceil(p * n / 100) - 1, 0)]


def child(args, mode, env=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), mode] + (["--smoke"] if args.smoke else [])
    return subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          check=True, timeout=170)


def setup_probe(args):
    """Wall time of one fresh process that imports, generates and encodes."""
    t0 = time.perf_counter()
    child(args, "--setup-probe")
    return time.perf_counter() - t0


def run_pass(wl, cases, samples, verdicts, errors, recorder=None):
    """One closed-loop pass, one call per case; returns the timed seconds."""
    timed = 0.0
    for case in cases:
        if case.id in errors:
            continue
        if recorder is not None:
            recorder.case = case.id
        t0 = time.perf_counter()
        try:
            verdict = wl.decide(case)
        except Exception as exc:  # a raising call is a failed case
            errors[case.id] = f"raised {type(exc).__name__}: {exc}"
            continue
        dt = time.perf_counter() - t0
        timed += dt
        samples[case.id].append(dt)
        if case.id not in verdicts:
            verdicts[case.id] = verdict
        elif wl.summary(verdict) != wl.summary(verdicts[case.id]):
            errors[case.id] = "verdict changed between calls"
    return timed


def check(wl, cases, verdicts, errors):
    done = [c for c in cases if c.id not in errors]
    errors.update(wl.check(done, [verdicts[c.id] for c in done]))


def report(lines, metrics, attempted, failed):
    for line in lines:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def print_failures(cases, errors):
    for cid in sorted(errors):
        print(f"FAIL case {cid} (rung {cases[cid].rung}): {errors[cid]}", file=sys.stderr)


def run_untraced(args, wl, rungs):
    cases = wl.cases(args.seed, rungs)
    samples = {c.id: [] for c in cases}
    verdicts, errors = {}, {}
    # set-up probes are spread evenly over the timed window, so a slow
    # spell of the machine weighs on set-up and calls alike
    setup_times = [setup_probe(args)]
    probes = max(SETUP_REPEATS, math.ceil(SETUP_SECONDS / setup_times[0]))
    # a seeded order spreads each rung over the pass, so a slow spell does
    # not land on one rung; one whole pass, then more in the same order
    # until the time is up, so each case's calls are spread over the run
    # (the machine's speed drifts within seconds)
    order = cases[:]
    random.Random(args.seed).shuffle(order)
    timed = 0.0
    visits = 0
    while (visits < len(order) or timed < args.seconds) and len(errors) < len(cases):
        case = order[visits % len(order)]
        timed += run_pass(wl, [case], samples, verdicts, errors)
        visits += 1
        while len(setup_times) < probes and timed >= len(setup_times) * args.seconds / probes:
            setup_times.append(setup_probe(args))
    while len(setup_times) < probes:
        setup_times.append(setup_probe(args))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check(wl, cases, verdicts, errors)
    print_failures(cases, errors)

    per_case = [statistics.median(s) for s in samples.values() if s]
    if not per_case:
        sys.exit("no case returned a verdict")
    calls = sum(len(s) for s in samples.values())
    p, tail_s = tail(per_case)
    values = {
        "setup_s": statistics.median(setup_times),
        "instances_per_s": len(per_case) / sum(per_case),
        "verdict_p50_s": statistics.median(per_case),
        "verdict_tail_s": tail_s,
        "peak_rss_mb": peak_mb,
    }
    n = len(per_case)
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh processes",
        "instances_per_s": f"one pass of {len(per_case)} cases at their median times; "
                           f"{calls} calls in {timed:.3f} s timed",
        "verdict_p50_s": f"n={n} cases, median of each case's calls",
        "verdict_tail_s": f"p{p}, n={n} cases",
        "peak_rss_mb": "one process",
    }
    found = collections.Counter(str(wl.summary(v)) for v in verdicts.values())
    lines = [f"workload {wl.name} seed {args.seed}: {len(cases)} cases, rungs "
             + ",".join(str(r) for r in (rungs or wl.rungs)) + ", verdicts "
             + ", ".join(f"{k}={count}" for k, count in sorted(found.items()))]
    lines += [f"{k} {values[k]:.6g} {END_TO_END[k]} ({notes[k]})" for k in END_TO_END]
    lines.append(f"fail_frac {len(errors) / len(cases):.6g} 1 "
                 f"({len(errors)} of {len(cases)} cases failed)")
    metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
    report(lines, metrics, len(cases), len(errors))


def traced_setup(wl, args, rungs):
    recorder = tracing.Recorder()
    with recorder:
        cases = wl.cases(args.seed, rungs, on_case=lambda i: setattr(recorder, "case", i))
    return recorder, cases


def run_traced(args, wl, rungs):
    recorder, cases = traced_setup(wl, args, rungs)
    samples = {c.id: [] for c in cases}
    verdicts, errors = {}, {}
    untraced_s = run_pass(wl, cases, samples, verdicts, errors)
    setup_spans = len(recorder.spans)
    with recorder:
        traced_s = run_pass(wl, cases, samples, verdicts, errors, recorder)
    check(wl, cases, verdicts, errors)
    print_failures(cases, errors)

    values = tracing.layer_metrics(recorder.spans)
    values["trace.untraced_pass_s"] = untraced_s
    values["trace.traced_pass_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_s

    # determinism guard: a second run under another hash seed must count
    # exactly the same work
    mine = os.environ.get("PYTHONHASHSEED", "")
    other = str((int(mine) + 1) % 4294967296) if mine.isdigit() else "1"
    env = dict(os.environ, PYTHONHASHSEED=other)
    theirs = json.loads(child(args, "--count-probe", env).stdout.splitlines()[-1])
    diffs = [f"{k}: {values[k]!r} here, {theirs[k]!r} with PYTHONHASHSEED={other}"
             for k in COUNTS if values[k] != theirs[k]]
    if diffs:
        print("determinism guard failed:\n  " + "\n  ".join(diffs), file=sys.stderr)
        sys.exit(3)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl"
    recorder.write(spans_path)

    lines = [f"workload {wl.name} seed {args.seed}: {len(cases)} cases, "
             f"{setup_spans} set-up spans, {len(recorder.spans)} spans in {os.path.relpath(spans_path)}",
             f"determinism guard: {len(COUNTS)} counts equal "
             f"with PYTHONHASHSEED={other}"]
    lines += [f"{k} {values[k]:.6g} {unit}" for k, unit in PER_LAYER.items()]
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}
    report(lines, metrics, len(cases), len(errors))


def main(argv=None):
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    rungs = wl.rungs[:1] if args.smoke else None
    if args.setup_probe:
        wl.cases(args.seed, rungs)
        sys.stdout.flush()
        os._exit(0)  # skip interpreter teardown, which is not set-up
    if args.count_probe:
        recorder, cases = traced_setup(wl, args, rungs)
        with recorder:
            run_pass(wl, cases, {c.id: [] for c in cases}, {}, {}, recorder)
        values = tracing.layer_metrics(recorder.spans)
        print(json.dumps({k: values[k] for k in COUNTS}))
        return
    if args.trace:
        run_traced(args, wl, rungs)
    else:
        run_untraced(args, wl, rungs)


if __name__ == "__main__":
    main()
