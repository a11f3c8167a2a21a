"""Smoke test of the benchmark, and its check against the known baseline.

    python3 bench/smoke.py

Run from the repository root.  For every workload in BENCHMARK.json it runs
the smallest rung through `run.py`, untraced and traced, and requires every
verdict to match its reference and every named metric to be present with
its unit.  It then traces a few cases in process and checks the baseline
recorded in ROADMAP.md: the NBA/DPA sizes of two LTL formulas, the
marker's share on large arenas and the transducer's share on
diagnosability.  Exit status 0 means every check held.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def traced(workload, rungs, keep=lambda case: True):
    """Decide the kept cases of some rungs under the tracer:
    (cases by id, spans, seconds in traced calls)."""
    wl = WORKLOADS[workload]
    cases = {c.id: c for c in wl.cases(1, rungs) if keep(c)}
    recorder = tracing.Recorder()
    with recorder:
        for case in cases.values():
            recorder.case = case.id
            wl.decide(case)
    top = sum(s.duration for s in recorder.spans if s.parent is None)
    return cases, recorder.spans, top


def main():
    for entry in BENCH["workloads"]:
        name = entry["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run(name, trace)
            expect(res is not None, f"{name} --trace {trace} exits with 0")
            if res is None:
                continue
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                   f"{name} --trace {trace}: {res['attempted']} verdicts match their references")
            want = {m["name"]: m["unit"] for m in BENCH[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{name} --trace {trace}: every {key} metric present with its unit")

    texts = ("G F p & G F q", "G F p & G F q & F G r")
    cases, spans, _ = traced("ltl-ladder", (2, 3), lambda c: c.data["text"] in texts)
    sizes = {t: set() for t in texts}
    for s in spans:
        if s.name == "ltlgame.ltl_to_nba":
            dpa = next(c for c in spans if c.name == "ltlgame.determinize"
                       and c.parent == s.parent)
            sizes[cases[s.case].data["text"]].add((s.attrs["states"], dpa.attrs["states"]))
    expect(sizes[texts[0]] == {(201, 6)},
           f"NBA/DPA sizes of {texts[0]}: {sorted(sizes[texts[0]])} (baseline 201/6)")
    expect({n for n, _ in sizes[texts[1]]} == {1501},
           f"NBA sizes of {texts[1]}: {sorted(sizes[texts[1]])} (baseline 1501)")

    _, spans, _ = traced("large-arena", WORKLOADS["large-arena"].rungs[-1:])
    m = tracing.layer_metrics(spans)
    expect(m["marker.satisfy_s"] > 3 * m["ltlgame.solve_s"],
           f"large-arena: satisfying_positions {m['marker.satisfy_s']:.3f} s against "
           f"solve_ltl_game {m['ltlgame.solve_s']:.3f} s")

    _, spans, total = traced("diag-ladder", WORKLOADS["diag-ladder"].rungs[-1:])
    m = tracing.layer_metrics(spans)
    share = (m["transducer.compose_s"] + m["transducer.trim_s"]) / total
    expect(share > 0.5, f"diag-ladder: compose plus trim take {share:.0%} of the traced calls")

    print(f"{len(failures)} failed" if failures else "all smoke checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
