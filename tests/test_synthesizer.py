import sys

import pytest

from conftest import (lassos_of, make_branching, make_g0,
                      positional_strategies)
from unistrat import transducer
from unistrat.arena import Arena, Strategy, enumerate_plays, outcome_arena
from unistrat.encoders import encode_diagnosability, parse_des
from unistrat.errors import CapExceeded, PartialStrategyError
from unistrat.formula import parse
from unistrat.ltlgame import Caps
from unistrat.oracle import bounded_semantics, twin_plant_diagnosable
from unistrat.synthesizer import (FusInstance, check_uniform,
                                  pullback_strategy, synthesize_fully_uniform)
from unistrat.transducer import identity_transducer, length_transducer


DIAGNOSABLE = """
des
state s0 init
state s1
state s2 faulty
event o obs
event u
event f
trans s0 u s1
trans s0 f s2
trans s1 u s1
trans s2 o s2
"""

CONFUSABLE = """
des
state s0 init
state s1
state s2 faulty
event o obs
event u
event f
trans s0 u s1
trans s0 f s2
trans s1 o s1
trans s2 o s2
"""


def test_synthesize_diagnosable_system():
    sys_ = parse_des(DIAGNOSABLE)
    assert twin_plant_diagnosable(sys_)
    enc = encode_diagnosability(sys_)
    result = synthesize_fully_uniform(enc.instance)
    assert result.exists
    assert check_uniform(enc.instance, result.strategy, "full").ok


def test_synthesize_confusable_system():
    sys_ = parse_des(CONFUSABLE)
    assert not twin_plant_diagnosable(sys_)
    enc = encode_diagnosability(sys_)
    result = synthesize_fully_uniform(enc.instance)
    assert not result.exists
    assert result.strategy is None


def test_synthesize_length_relation_pattern():
    arena = make_branching(owner_v0=2)
    inst = FusInstance.make(arena, length_transducer(arena.positions),
                            parse("X G(<R> p & <R> !p)"), protagonist=1)
    result = synthesize_fully_uniform(inst)
    assert result.exists
    # the protagonist has a single (empty-choice) strategy: cross-check with
    # the bounded evaluator on both plays of the arena
    for stem, cycle in lassos_of(arena):
        value = bounded_semantics(arena, inst.transducer, "all",
                                  (stem, cycle), 0, inst.phi)
        assert value is True


def test_rdepth_strictly_decreases_in_trace():
    g0 = make_g0()
    g0q = Arena(g0.positions, g0.owner, g0.edges, g0.initial,
                {"v0": set(), "v1": {"q"}}, name="G0q")
    inst = FusInstance.make(g0q, identity_transducer(g0q.positions),
                            parse("[R] X [R] q"))
    result = synthesize_fully_uniform(inst)
    depths = [s.rdepth for s in result.trace]
    assert depths == [2, 1, 0]
    assert result.exists


def test_growth_trace_bound():
    g0 = make_g0()
    inst = FusInstance.make(g0, identity_transducer(g0.positions),
                            parse("[R] X [R] p"))
    result = synthesize_fully_uniform(inst)
    g1 = result.trace[1].arena_positions
    t1 = result.trace[1].transducer_states
    g2 = result.trace[2].arena_positions
    assert g2 <= g1 * 2 ** t1 * 2 ** (t1 * g1) + 1


def test_cap_exceeded_reports_iteration():
    arena = make_branching()
    inst = FusInstance.make(arena, length_transducer(arena.positions),
                            parse("[R] p"))
    with pytest.raises(CapExceeded) as exc:
        synthesize_fully_uniform(inst, caps=Caps(power_positions=1))
    assert exc.value.iteration == 1


def test_pullback_empty_chain_is_identity():
    sigma = Strategy(1, "m", {("m", "v0"): "m"}, {("m", "v0"): "v1"})
    assert pullback_strategy(sigma, []) is sigma


def test_pullback_one_layer_outcome_correspondence():
    from unistrat.marker import eliminate_r
    from unistrat.ltlgame import solve_ltl_game

    arena = make_branching(owner_v0=1)
    inst = FusInstance.make(arena, length_transducer(arena.positions),
                            parse("G(p -> [R] p)"))
    marked, lifted, phi_hat, report = eliminate_r(
        inst.arena, inst.transducer, inst.phi)
    hat_sigma = solve_ltl_game(marked, phi_hat, 1)
    assert hat_sigma is not None
    sigma = pullback_strategy(hat_sigma, [report.power])
    product_plays = outcome_arena(marked, hat_sigma)
    pulled_plays = outcome_arena(inst.arena, sigma)
    for k in range(1, 7):
        hat = {tuple(p.v for (p, _) in play)
               for play in enumerate_plays(product_plays, k)}
        pulled = {tuple(v for (v, _) in play)
                  for play in enumerate_plays(pulled_plays, k)}
        assert hat == pulled


def test_pullback_depth_two_outcome_correspondence():
    g0 = make_g0()
    g0q = Arena(g0.positions, g0.owner, g0.edges, g0.initial,
                {"v0": set(), "v1": {"q"}}, name="G0q")
    inst = FusInstance.make(g0q, identity_transducer(g0q.positions),
                            parse("[R] X [R] q"))
    result = synthesize_fully_uniform(inst)
    assert result.exists
    product = outcome_arena(g0q, result.strategy)
    for k in range(1, 7):
        plays = {tuple(v for (v, _) in play)
                 for play in enumerate_plays(product, k)}
        assert plays == set(enumerate_plays(g0q, k))


def test_check_uniform_strict_vs_full_difference():
    """A related play outside the outcome violates the body: the strict
    check passes, the full one fails."""
    arena = make_branching(owner_v0=1)
    inst = FusInstance.make(arena, length_transducer(arena.positions),
                            parse("X [R] p"))
    update = {("m", v): "m" for v in arena.positions}
    sigma = Strategy(1, "m", update,
                     {("m", "v0"): "a", ("m", "x"): "a", ("m", "y"): "b"})
    strict = check_uniform(inst, sigma, "strict")
    full = check_uniform(inst, sigma, "full")
    assert strict.ok
    assert not full.ok
    assert full.counterexample[0] == "v0"


def test_check_uniform_counterexample_is_play_prefix():
    arena = make_branching(owner_v0=1)
    inst = FusInstance.make(arena, length_transducer(arena.positions),
                            parse("G [R] p"))
    update = {("m", v): "m" for v in arena.positions}
    sigma = Strategy(1, "m", update,
                     {("m", "v0"): "a", ("m", "x"): "a", ("m", "y"): "b"})
    result = check_uniform(inst, sigma, "strict")
    assert not result.ok
    prefix = result.counterexample
    assert arena.is_play(prefix)


def test_check_uniform_partial_strategy():
    arena = make_branching(owner_v0=1)
    inst = FusInstance.make(arena, length_transducer(arena.positions),
                            parse("G [R] p"))
    sigma = Strategy(1, "m", {("m", v): "m" for v in arena.positions}, {})
    with pytest.raises(PartialStrategyError):
        check_uniform(inst, sigma, "strict")


def test_check_uniform_caps_monitored_outcome():
    # memory counting to 8 gives an 8-node monitored outcome, while the
    # marker products of G0 need at most 6 nodes
    g0 = make_g0()
    inst = FusInstance.make(g0, identity_transducer(g0.positions),
                            parse("G([R] p | [R] !p)"))
    sigma = Strategy(1, 0, {(m, v): (m + 1) % 8 for m in range(8) for v in g0.positions},
                     {(m, "v0"): "v1" for m in range(8)})
    assert check_uniform(inst, sigma, "full", caps=Caps(product_nodes=8)).ok
    with pytest.raises(CapExceeded) as exc:
        check_uniform(inst, sigma, "full", caps=Caps(product_nodes=6))
    assert exc.value.what == "monitored outcome nodes"


def test_check_uniform_mode_validation():
    g0 = make_g0()
    inst = FusInstance.make(g0, identity_transducer(g0.positions), parse("p"))
    sigma = next(positional_strategies(g0, 1))
    with pytest.raises(ValueError):
        check_uniform(inst, sigma, "loose")


def test_completeness_against_enumeration_small_instances():
    """Where memoryless strategies suffice, exhaustive enumeration plus the
    bounded oracle must agree with the synthesized verdict."""
    fixtures = []
    arena = make_branching(owner_v0=1)
    fixtures.append(FusInstance.make(
        arena, length_transducer(arena.positions), parse("X G [R] p")))
    fixtures.append(FusInstance.make(
        arena, length_transducer(arena.positions), parse("X G [R] !p")))
    g0 = make_g0()
    fixtures.append(FusInstance.make(
        g0, identity_transducer(g0.positions), parse("[R] p")))
    for inst in fixtures:
        verdict = synthesize_fully_uniform(inst).exists
        found = False
        for sigma in positional_strategies(inst.arena, inst.protagonist):
            ok = True
            product = outcome_arena(inst.arena, sigma)
            for stem, cycle in lassos_of(product):
                proj = ([p[0] for p in stem], [p[0] for p in cycle])
                value = bounded_semantics(inst.arena, inst.transducer, "all",
                                          proj, 0, inst.phi)
                assert value is not None
                if value is False:
                    ok = False
                    break
            if ok:
                found = True
                break
        assert found == verdict, inst.phi


def test_elimination_never_composes_transducers(monkeypatch):
    """Lifted relations are views: no elimination round, on the synthesis
    or the full-check path, builds a composition."""
    g0 = make_g0()
    depth1 = FusInstance.make(g0, identity_transducer(g0.positions),
                              parse("G([R] p | [R] !p)"))
    arena = make_branching()
    depth2 = FusInstance.make(arena, length_transducer(arena.positions),
                              parse("F [R] G <R> !p"))

    def refuse(*args, **kwargs):
        raise AssertionError("transducer.compose called")

    compose = transducer.compose
    for name, module in list(sys.modules.items()):
        if (name == "unistrat" or name.startswith("unistrat.")) \
                and getattr(module, "compose", None) is compose:
            monkeypatch.setattr(module, "compose", refuse)
    for inst in (depth1, depth2):
        result = synthesize_fully_uniform(inst)
        assert result.exists
        assert all(s.transducer_states > 0 for s in result.trace)
        assert check_uniform(inst, result.strategy, "full").ok
