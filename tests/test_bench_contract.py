"""What the benchmark in bench/ relies on from the library.

`bench/tracing.py` wraps the functions it lists by name and counts
their results with `_attrs`, and `bench/workloads.py::reused_automata` swaps `ltlgame.ltl_to_nba` and
`ltlgame.determinize` for caching versions that key each DPA by the NBA
object it was given.  A library change that breaks either makes
`bench/run.py` fail or crash, so these tests read bench/ (and never
change it) to catch that here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from conftest import make_branching, materialized, positional_strategies
import unistrat.ltlgame as ltlgame
from unistrat import marker, powerset
from unistrat.arena import outcome_arena
from unistrat.formula import parse
from unistrat.synthesizer import FusInstance, synthesize_fully_uniform
from unistrat.transducer import compose, length_transducer, restrict_to_plays, trim

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    # registered, so that the dataclasses of workloads.py can find their module
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    tracing = load_bench_module("tracing")
    assert tracing.TRACED
    for layer, name in tracing.TRACED:
        module = importlib.import_module(f"unistrat.{layer}")
        assert callable(getattr(module, name, None)), f"unistrat.{layer}.{name}"


def test_span_attrs_read_what_the_library_returns():
    """`tracing._attrs` counts the results of the functions it wraps; on
    each round of a depth-2 synthesis they agree with the trace, the
    states of the last lift included."""
    tracing = load_bench_module("tracing")
    arena = make_branching()
    inst = FusInstance.make(arena, length_transducer(arena.positions),
                            parse("F [R] G <R> !p"))
    trace = synthesize_fully_uniform(inst).trace
    g, t, phi = inst.arena, inst.transducer, inst.phi
    for stats in trace[1:]:
        power = powerset.build_power_arena(g, t)
        assert tracing._attrs("powerset.build_power_arena", (g, t), {}, power) \
            == {"positions": stats.arena_positions}
        lifted = powerset.lift_transducer(t, power)
        assert tracing._attrs("powerset.lift_transducer", (t, power), {}, lifted) \
            == {"states": stats.transducer_states}
        result = marker.eliminate_r(g, t, phi)
        attrs = tracing._attrs("marker.eliminate_r", (g, t, phi), {}, result)
        assert attrs["rdepth_after"] == stats.rdepth
        assert attrs["marked"] >= 0
        g, t, phi = result[:3]


def test_span_attrs_count_every_other_traced_result():
    """The other results `tracing._attrs` reads: each count agrees with
    the result's own tables, and the pinned sizes (a 12-state Safra DPA
    from a 4-state NBA) catch a construction whose counts moved."""
    tracing = load_bench_module("tracing")
    arena = make_branching()
    psi = parse("F p -> F q")
    nba = ltlgame.ltl_to_nba(psi)
    assert tracing._attrs("ltlgame.ltl_to_nba", (psi,), {}, nba) \
        == {"states": 4, "key": (psi, None)}
    assert {q for q, _ in nba.transitions} == set(nba.states)
    letters = [frozenset(), frozenset({"p"})]
    fewer = ltlgame.ltl_to_nba(psi, letters=letters)
    assert tracing._attrs("ltlgame.ltl_to_nba", (psi,), {"letters": letters}, fewer) \
        == {"states": len(fewer.states), "key": (psi, tuple(letters))}
    dpa = ltlgame.determinize(nba)
    assert tracing._attrs("ltlgame.determinize", (nba,), {}, dpa) == {"states": 12}
    assert {q for q, _ in dpa.delta} == set(dpa.states)
    game = ltlgame.build_product_game(arena, dpa, 1)
    assert tracing._attrs("ltlgame.build_product_game", (arena, dpa, 1), {}, game) \
        == {"nodes": len(game.pairs),
            "priorities": len({dpa.priority[q] for _, q in game.pairs})}
    sigma = next(positional_strategies(arena, 1))
    outcome = outcome_arena(arena, sigma)
    assert tracing._attrs("arena.outcome_arena", (arena, sigma), {}, outcome) \
        == {"positions": 3}
    t = materialized(restrict_to_plays(length_transducer(arena.positions), arena))
    composed = compose(t, t)
    assert tracing._attrs("transducer.compose", (t, t), {}, composed) \
        == {"states": len(composed.states)}
    trimmed = trim(composed)
    assert tracing._attrs("transducer.trim", (composed,), {}, trimmed) \
        == {"given": len(composed.states), "kept": len(trimmed.states)}
    body = parse("F p")
    good = marker.satisfying_positions(arena, body)
    assert good == {"a", "x"}
    assert tracing._attrs("marker.satisfying_positions", (arena, body), {}, good) \
        == {"positions": 5}


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


def test_safra_result_survives_the_automata_cache(tmp_path):
    """`reused_automata` pickles each DPA it builds and loads it back on a
    later run; a Safra result must come back with the same tables."""
    workloads = load_bench_module("workloads")
    assert workloads.AUTOMATA_DIR.is_relative_to(BENCH / "out")
    workloads.AUTOMATA_DIR = tmp_path   # this module object only; bench/ is not written
    psi = parse("F p -> F q")
    with workloads.reused_automata():
        built = ltlgame.ltl_to_dpa(psi)
    assert built.construction == "safra" and len(list(tmp_path.iterdir())) == 1
    workloads._dpas.clear()
    with workloads.reused_automata():
        loaded = ltlgame.ltl_to_dpa(psi)
    assert loaded is not built
    for name in ("states", "initial", "delta", "priority", "construction"):
        assert getattr(loaded, name) == getattr(built, name), name


def test_strict_check_cases_are_made():
    """`strict-check` writes its dependence-logic games as text that
    `encoders.parse_dlgame` reads; a reader that refused that text would
    fail every run of the workload.  Seed 1 makes every game."""
    workloads = load_bench_module("workloads")
    cases = workloads.WORKLOADS["strict-check"].cases(1)
    assert {case.data["game"] for case in cases} == {
        "imp3", "imp4", "dl2.0", "dl2.1", "dl2.2", "dl2.3", "dl3.0"}
