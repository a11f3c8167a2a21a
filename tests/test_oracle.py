import pytest

from conftest import make_branching, make_g0, materialized
from unistrat.arena import Strategy
from unistrat.encoders import parse_des, parse_dlgame
from unistrat.formula import And, Atom, Next, Not, Until, parse
from unistrat.oracle import (bounded_semantics, dl_eval, lasso_eval,
                             twin_plant_diagnosable)
from unistrat.transducer import (Transducer, identity_transducer,
                                 length_transducer, restrict_to_plays)


def test_lasso_eval_examples():
    assert lasso_eval([set()], [{"p"}], parse("F p"))
    assert not lasso_eval([set()], [{"p"}], parse("G p"))
    assert lasso_eval([{"p"}], [set(), {"p"}], parse("G F p"))


def naive_eval(stem, cycle, phi, k=0):
    """Second, independent evaluator: top-down with index folding."""
    stem = [frozenset(x) for x in stem]
    cycle = [frozenset(x) for x in cycle]
    total = len(stem) + len(cycle)

    def fold(idx):
        if idx < len(stem):
            return idx
        return len(stem) + (idx - len(stem)) % len(cycle)

    def letter(idx):
        return (stem + cycle)[fold(idx)]

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def ev(f, idx):
        idx = fold(idx)
        if isinstance(f, Atom):
            return f.name in letter(idx)
        if isinstance(f, Not):
            return not ev(f.sub, idx)
        if isinstance(f, And):
            return ev(f.left, idx) and ev(f.right, idx)
        if isinstance(f, Next):
            return ev(f.sub, idx + 1)
        if isinstance(f, Until):
            scan = total + len(cycle) + 1
            for j in range(idx, idx + scan):
                if ev(f.right, j):
                    return all(ev(f.left, m) for m in range(idx, j))
            return False
        raise ValueError(f)

    return ev(phi, k)


def test_lasso_eval_against_independent_evaluator(rng):
    def rand(size):
        if size <= 1:
            return Atom(rng.choice(["p", "q"]))
        kind = rng.choice(["not", "and", "next", "until", "until"])
        if kind in ("not", "next"):
            return (Not if kind == "not" else Next)(rand(size - 1))
        k = rng.randint(1, size - 2) if size > 2 else 1
        return (And if kind == "and" else Until)(rand(k), rand(size - 1 - k))

    for _ in range(200):
        f = rand(rng.randint(1, 6))
        stem = [frozenset(x for x in "pq" if rng.random() < 0.5)
                for _ in range(rng.randint(0, 4))]
        cycle = [frozenset(x for x in "pq" if rng.random() < 0.5)
                 for _ in range(rng.randint(1, 4))]
        assert lasso_eval(stem, cycle, f) == naive_eval(stem, cycle, f)


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

FAULT_FREE = """
des
state s0 init
event o obs
trans s0 o s0
"""


def test_twin_plant_examples():
    assert not twin_plant_diagnosable(parse_des(CONFUSABLE))
    assert twin_plant_diagnosable(parse_des(DIAGNOSABLE))
    assert twin_plant_diagnosable(parse_des(FAULT_FREE))


def test_twin_plant_silent_tails_confuse():
    # after the fault both runs go silent forever with equal observations
    text = """
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
trans s2 u s2
"""
    assert not twin_plant_diagnosable(parse_des(text))


DEP_PAIR_GAME = """
dlgame
sentence forall x0 forall x1 (x0 = x1 | dep(x0, x1))
dom {dom}
"""


def test_dl_eval_pair_dependence_sentence():
    s3, m3 = parse_dlgame(DEP_PAIR_GAME.format(dom="0,1,2"))
    assert not dl_eval(s3, m3)
    s2, m2 = parse_dlgame(DEP_PAIR_GAME.format(dom="0,1"))
    assert dl_eval(s2, m2)


def test_dl_eval_degenerate_patterns():
    s, m = parse_dlgame("dlgame\nsentence exists x (x = x)\ndom 0,1,2\n")
    assert dl_eval(s, m)
    # on a one-element model every dependence holds
    s, m = parse_dlgame("dlgame\nsentence forall x dep(x)\ndom a\n")
    assert dl_eval(s, m)
    s, m = parse_dlgame("dlgame\nsentence forall x dep(x)\ndom a,b\n")
    assert not dl_eval(s, m)
    s, m = parse_dlgame("dlgame\nsentence exists x dep(x)\ndom a,b\n")
    assert dl_eval(s, m)


def test_dl_eval_relations():
    text = """
dlgame
sentence forall x exists y E(x, y)
dom 0,1
rel E 0,1
rel E 1,0
"""
    s, m = parse_dlgame(text)
    assert dl_eval(s, m)
    text2 = text.replace("rel E 1,0\n", "")
    s2, m2 = parse_dlgame(text2)
    assert not dl_eval(s2, m2)


def restricted(t, arena):
    return materialized(restrict_to_plays(t, arena))


def test_bounded_semantics_identity_relation():
    g0 = make_g0()
    t = restricted(identity_transducer(g0.positions), g0)
    lasso = ((), ("v0", "v1"))
    # with the identity relation, [R] psi means psi on all continuations of
    # the unique current prefix; on the deterministic cycle that is psi itself
    for text in ["[R] p", "[R] !p", "X [R] !p", "G([R] p | [R] !p)"]:
        phi = parse(text)
        got = bounded_semantics(g0, t, "all", lasso, 0, phi)
        assert got is not None
    assert bounded_semantics(g0, t, "all", lasso, 0, parse("[R] p")) is True
    assert bounded_semantics(g0, t, "all", lasso, 1, parse("[R] p")) is False


def test_bounded_semantics_length_relation_branching():
    arena = make_branching(owner_v0=2)
    t = restricted(length_transducer(arena.positions), arena)
    lasso = (("v0",), ("a", "x"))
    phi = parse("X G(<R> p & <R> !p)")
    assert bounded_semantics(arena, t, "all", lasso, 0, phi) is True


def test_bounded_semantics_empty_relation_vacuous():
    g0 = make_g0()
    t = Transducer(["q0"], frozenset(g0.positions), frozenset(g0.positions),
                   "q0", [], [("q0", "v0", "v0", "q0"), ("q0", "v1", "v1", "q0")])
    lasso = ((), ("v0", "v1"))
    assert bounded_semantics(g0, t, "all", lasso, 0, parse("G [R] false")) is True


def test_bounded_semantics_outcome_universe():
    arena = make_branching(owner_v0=1)
    t = restricted(length_transducer(arena.positions), arena)
    update = {("m", v): "m" for v in arena.positions}
    sigma_a = Strategy(1, "m", update,
                       {("m", "v0"): "a", ("m", "x"): "a", ("m", "y"): "b"})
    lasso = (("v0",), ("a", "x"))
    phi = parse("X G [R] p")
    # within the single-branch universe every equal-length play ends on the
    # p branch; against all plays the other branch refutes it
    assert bounded_semantics(arena, t, sigma_a, lasso, 0, phi) is True
    assert bounded_semantics(arena, t, "all", lasso, 0, phi) is False


def test_bounded_semantics_inconclusive_on_nested_r():
    g0 = make_g0()
    t = restricted(identity_transducer(g0.positions), g0)
    lasso = ((), ("v0", "v1"))
    assert bounded_semantics(g0, t, "all", lasso, 0, parse("[R] X [R] p")) is None


def test_bounded_semantics_malformed_lasso():
    g0 = make_g0()
    t = restricted(identity_transducer(g0.positions), g0)
    with pytest.raises(ValueError):
        bounded_semantics(g0, t, "all", (("v0",), ()), 0, parse("p"))
    with pytest.raises(ValueError):
        bounded_semantics(g0, t, "all", (("v1",), ("v0",)), 0, parse("p"))
