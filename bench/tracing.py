"""Span recorder for the traced run, and the per-layer metrics it yields.

Every traced function is wrapped in each `unistrat.*` namespace that holds
the same function object: the modules import each other with
`from .x import y`, and `eliminate_r` imports its helpers at call time, so
patching the defining module alone would miss calls.  A span records its
name, start, end, parent span and the id of the case being worked on;
spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from unistrat.formula import format_formula, r_depth

# (layer, function): the public calls timed from outside, per module
TRACED = (
    ("transducer", "compose"), ("transducer", "trim"),
    ("transducer", "restrict_to_plays"),
    ("powerset", "build_power_arena"), ("powerset", "lift_transducer"),
    ("marker", "satisfying_positions"), ("marker", "trace_counterexample"),
    ("marker", "eliminate_r"),
    ("ltlgame", "ltl_to_nba"), ("ltlgame", "determinize"),
    ("ltlgame", "build_product_game"), ("ltlgame", "solve_parity"),
    ("ltlgame", "solve_ltl_game"),
    ("arena", "outcome_arena"),
    ("synthesizer", "synthesize_fully_uniform"), ("synthesizer", "check_uniform"),
    ("synthesizer", "pullback_strategy"),
    ("encoders", "encode_diagnosability"), ("encoders", "encode_imperfect_info"),
    ("encoders", "encode_dependence_game"),
)


class Span:
    __slots__ = ("sid", "name", "parent", "case", "start", "end", "attrs", "child_s")

    def __init__(self, sid, name, parent, case):
        self.sid, self.name, self.parent, self.case = sid, name, parent, case
        self.start = self.end = 0.0
        self.attrs = {}
        self.child_s = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        # calls are sequential, so children never overlap
        return self.duration - self.child_s


def _attrs(name, args, kwargs, result):
    """Exact counts taken at the span boundary (after its end time)."""
    if name in ("transducer.compose", "powerset.lift_transducer"):
        return {"states": len(result)}
    if name == "transducer.trim":
        return {"given": len(args[0]), "kept": len(result)}
    if name == "powerset.build_power_arena":
        return {"positions": len(result.arena)}
    if name == "marker.satisfying_positions":
        return {"positions": len(args[0].positions)}
    if name == "marker.eliminate_r":
        marked = sum(len(v) for v in result[3].marked_positions.values())
        return {"marked": marked, "rdepth_after": r_depth(result[2])}
    if name == "ltlgame.ltl_to_nba":
        letters = kwargs.get("letters", args[1] if len(args) > 1 else None)
        return {"states": len(result.states),
                "key": (args[0], None if letters is None else tuple(letters))}
    if name == "ltlgame.determinize":
        return {"states": len(result)}
    if name == "ltlgame.build_product_game":
        return {"nodes": len(result.nodes),
                "priorities": len(set(result.priority.values()))}
    if name == "arena.outcome_arena":
        return {"positions": len(result)}
    return {}


class Recorder:
    """Installs the wrappers; `case` names the case in progress."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.case = None
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), name, stack[-1].sid if stack else None, self.case)
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child_s += span.end - span.start
            span.attrs = _attrs(name, args, kwargs, result)
            return result
        return traced

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "unistrat" or n.startswith("unistrat."))]
        for layer, fname in TRACED:
            original = getattr(sys.modules[f"unistrat.{layer}"], fname)
            wrapper = self._wrap(f"{layer}.{fname}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path):
        """One JSON object per span; formulas are written as text."""
        with open(path, "w") as fh:
            for s in self.spans:
                attrs = dict(s.attrs)
                if "key" in attrs:
                    psi, letters = attrs.pop("key")
                    attrs["formula"] = format_formula(psi)
                    attrs["letters"] = None if letters is None else len(letters)
                fh.write(json.dumps({"id": s.sid, "name": s.name, "parent": s.parent,
                                     "case": s.case, "start": s.start, "end": s.end,
                                     "attrs": attrs}) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer metrics over a list of spans (the trace.* ones excepted).

    Times are inclusive span durations, except the `self` ones; counts are
    sums over calls.
    """
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in by_name.get(name, ()))

    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    lifts = by_name.get("powerset.lift_transducer", [])
    consumed = 0
    for s in lifts:
        # the lift made inside an elimination round is used only when the
        # round leaves an R modality for the next one
        parent = spans[s.parent] if s.parent is not None else None
        if parent is not None and parent.name == "marker.eliminate_r" \
                and parent.attrs.get("rdepth_after", 0) > 0:
            consumed += s.attrs["states"]

    product_nodes = 0
    for s in by_name.get("marker.satisfying_positions", ()):
        nba = [c for c in children.get(s.sid, ()) if c.name == "ltlgame.ltl_to_nba"]
        product_nodes += s.attrs["positions"] * sum(c.attrs["states"] for c in nba)

    nbas = by_name.get("ltlgame.ltl_to_nba", [])
    distinct = len({s.attrs["key"] for s in nbas})
    return {
        "transducer.compose_s": total("transducer.compose"),
        "transducer.trim_s": total("transducer.trim"),
        "transducer.restrict_s": total("transducer.restrict_to_plays"),
        "transducer.compose_states": attr_sum("transducer.compose", "states"),
        "transducer.trim_keep_ratio": _ratio(attr_sum("transducer.trim", "kept"),
                                             attr_sum("transducer.trim", "given")),
        "powerset.build_s": total("powerset.build_power_arena"),
        "powerset.lift_s": total("powerset.lift_transducer"),
        "powerset.positions": attr_sum("powerset.build_power_arena", "positions"),
        "powerset.lifted_states": attr_sum("powerset.lift_transducer", "states"),
        "powerset.lift_use_ratio": _ratio(
            consumed, attr_sum("powerset.lift_transducer", "states")),
        "marker.satisfy_s": total("marker.satisfying_positions"),
        "marker.counterexample_s": total("marker.trace_counterexample"),
        "marker.eliminate_self_s": sum(s.self_s for s in by_name.get("marker.eliminate_r", ())),
        "marker.product_nodes": product_nodes,
        "marker.marked_positions": attr_sum("marker.eliminate_r", "marked"),
        "ltlgame.solve_s": total("ltlgame.solve_ltl_game"),
        "ltlgame.nba_s": total("ltlgame.ltl_to_nba"),
        "ltlgame.dpa_s": total("ltlgame.determinize"),
        "ltlgame.nba_states": attr_sum("ltlgame.ltl_to_nba", "states"),
        "ltlgame.dpa_states": attr_sum("ltlgame.determinize", "states"),
        "ltlgame.nba_calls": len(nbas),
        "ltlgame.nba_distinct_ratio": _ratio(distinct, len(nbas)),
        "ltlgame.product_s": total("ltlgame.build_product_game"),
        "ltlgame.zielonka_s": total("ltlgame.solve_parity"),
        "ltlgame.product_nodes": attr_sum("ltlgame.build_product_game", "nodes"),
        "ltlgame.priorities": attr_sum("ltlgame.build_product_game", "priorities"),
        "arena.outcome_s": total("arena.outcome_arena"),
        "arena.outcome_positions": attr_sum("arena.outcome_arena", "positions"),
        "synthesizer.self_s": sum(
            s.self_s for name in ("synthesizer.synthesize_fully_uniform",
                                  "synthesizer.check_uniform")
            for s in by_name.get(name, ())),
        "synthesizer.pullback_s": total("synthesizer.pullback_strategy"),
        "encoders.encode_s": sum(total(f"encoders.{f}") for f in (
            "encode_diagnosability", "encode_imperfect_info", "encode_dependence_game")),
    }
