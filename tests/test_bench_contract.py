"""What the benchmark in bench/ relies on from the library.

`bench/tracing.py` wraps the functions it lists by name, and
`bench/workloads.py::reused_automata` swaps `ltlgame.ltl_to_nba` and
`ltlgame.determinize` for caching versions that key each DPA by the NBA
object it was given.  A library change that breaks either makes
`bench/run.py` fail or crash, so these tests read bench/ (and never
change it) to catch that here.
"""

import importlib
import importlib.util
from pathlib import Path

import unistrat.ltlgame as ltlgame
from unistrat.formula import parse

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    tracing = load_bench_module("tracing")
    assert tracing.TRACED
    for layer, name in tracing.TRACED:
        module = importlib.import_module(f"unistrat.{layer}")
        assert callable(getattr(module, name, None)), f"unistrat.{layer}.{name}"


def test_ltl_to_dpa_hands_determinize_the_nba_it_built(monkeypatch):
    build_nba, build_dpa = ltlgame.ltl_to_nba, ltlgame.determinize
    built, given = [], []

    def ltl_to_nba(psi, letters=None, caps=ltlgame.DEFAULT_CAPS):
        built.append(build_nba(psi, letters=letters, caps=caps))
        return built[-1]

    def determinize(nba, caps=ltlgame.DEFAULT_CAPS):
        given.append(nba)
        return build_dpa(nba, caps=caps)

    monkeypatch.setattr(ltlgame, "ltl_to_nba", ltl_to_nba)
    monkeypatch.setattr(ltlgame, "determinize", determinize)
    dpa = ltlgame.ltl_to_dpa(parse("F p -> F q"))
    assert dpa.construction == "safra"
    assert len(built) == 1 and len(given) == 1
    assert given[0] is built[0]
