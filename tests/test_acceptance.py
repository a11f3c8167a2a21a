"""Acceptance suite: one test per exit criterion, each printing a verdict
line.  Everything is checked exactly (set equality / boolean agreement)
against independent oracles, within fixed wall-clock budgets."""

import itertools
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import (child_env, info_set_bruteforce, lassos_of, lift_play,
                      make_branching, make_g0, materialized,
                      positional_strategies, plays_up_to, random_arena,
                      random_transducer)
from unistrat.arena import Arena, Strategy, outcome_arena
from unistrat.encoders import (encode_dependence_game, encode_diagnosability,
                               encode_imperfect_info, encode_noninterference,
                               encode_opacity, encode_prognosability,
                               parse_des, parse_dlgame, parse_impgame,
                               parse_nisys)
from unistrat.errors import CapExceeded
from unistrat.formula import Atom, And, Next, Not, Until, parse
from unistrat.ltlgame import Caps, ParityGame, determinize, ltl_to_nba, solve_parity
from unistrat.marker import eliminate_r, trace_counterexample
from unistrat.oracle import (bounded_semantics, dl_eval, lasso_eval,
                             twin_plant_diagnosable)
from unistrat.powerset import build_power_arena, lift_transducer
from unistrat.synthesizer import (FusInstance, check_uniform,
                                  synthesize_fully_uniform)
from unistrat.transducer import (build_morphism_equivalence,
                                 identity_transducer, length_transducer,
                                 recognizes, restrict_to_plays, union)


def report(number, elapsed, budget, detail):
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.1f}s < {budget}s) {detail}",
          flush=True)
    assert elapsed < budget


def random_relation(rng, arena):
    """Randomized play relation drawn from a family of shapes."""
    kind = rng.choice(["id", "len", "morph", "raw", "noisy"])
    positions = frozenset(arena.positions)
    if kind == "id":
        raw = identity_transducer(positions)
    elif kind == "len":
        raw = length_transducer(positions)
    elif kind == "morph":
        h = {v: rng.choice(["o1", "o2", None]) for v in arena.positions}
        raw = build_morphism_equivalence(arena, h)
    elif kind == "raw":
        raw = random_transducer(rng, positions, 5)
    else:
        raw = union(identity_transducer(positions),
                    random_transducer(rng, positions, 3))
    return restrict_to_plays(raw, arena)


def sampled_instances(seed, count=50):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        arena = random_arena(rng, max_positions=8)
        t = random_relation(rng, arena)
        out.append((arena, t))
    return out


def test_sampled_instances_independent_of_hash_seed():
    """Acceptance 1 and 2 must check the same instances on every run."""
    script = ("from conftest import materialized\n"
              "from test_acceptance import sampled_instances\n"
              "from unistrat.transducer import format_transducer\n"
              "for _, t in sampled_instances(11, 50):\n"
              "    print(format_transducer(materialized(t)))\n")
    texts = set()
    for seed in ("2", "34"):
        env = child_env(Path(__file__).parent, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        texts.add(proc.stdout)
    assert len(texts) == 1


def test_acceptance_1_information_sets():
    start = time.time()
    instances = sampled_instances(11, count=50)
    checked = 0
    for arena, t in instances:
        power = build_power_arena(arena, t, cap=200000)
        for play in plays_up_to(arena, 6):
            assert lift_play(power, play)[-1].info == \
                info_set_bruteforce(arena, t, play)
            checked += 1
    report(1, time.time() - start, 60,
           f"information sets exact on {checked} plays over 50 instances")


def test_acceptance_2_transducer_lift():
    start = time.time()
    instances = sampled_instances(11, count=50)
    pairs = 0
    for arena, t in instances:
        power = build_power_arena(arena, t, cap=200000)
        lifted = lift_transducer(t, power)
        plays = plays_up_to(arena, 4)
        lifts = {p: lift_play(power, p) for p in plays}
        for r1, r2 in itertools.product(plays, repeat=2):
            assert recognizes(t, r1, r2) == \
                recognizes(lifted, lifts[r1], lifts[r2])
            pairs += 1
    report(2, time.time() - start, 60,
           f"lifted relation agrees on {pairs} play pairs over 50 instances")


def _random_ltl(rng, size, props=("p", "q")):
    if size <= 1:
        return Atom(rng.choice(props))
    kind = rng.choice(["not", "and", "next", "until", "until"])
    if kind in ("not", "next"):
        return (Not if kind == "not" else Next)(_random_ltl(rng, size - 1, props))
    k = rng.randint(1, size - 2) if size > 2 else 1
    return (And if kind == "and" else Until)(
        _random_ltl(rng, k, props), _random_ltl(rng, size - 1 - k, props))


def _random_lasso(rng, props=("p", "q")):
    stem = [frozenset(x for x in props if rng.random() < 0.5)
            for _ in range(rng.randint(0, 4))]
    cycle = [frozenset(x for x in props if rng.random() < 0.5)
             for _ in range(rng.randint(1, 4))]
    return stem, cycle


def _brute_force_region0(game):
    nodes = list(game.nodes)
    p0 = [v for v in nodes if game.owner[v] == 0]
    win0 = set()
    for combo in itertools.product(*(game.succ[v] for v in p0)) or [()]:
        pick = dict(zip(p0, combo))
        succ = {v: ([pick[v]] if v in pick else list(game.succ[v]))
                for v in nodes}
        odd = set()
        for start in nodes:
            reach = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for w in succ[u]:
                    if w not in reach:
                        reach.add(w)
                        stack.append(w)
            found = False
            for anchor in reach:
                seen = set()
                frontier = [(w, min(game.priority[anchor], game.priority[w]))
                            for w in succ[anchor]]
                while frontier and not found:
                    u, mp = frontier.pop()
                    if u == anchor and mp % 2 == 1:
                        found = True
                    elif (u, mp) not in seen:
                        seen.add((u, mp))
                        frontier.extend((w, min(mp, game.priority[w]))
                                        for w in succ[u])
                if found:
                    break
            if found:
                odd.add(start)
        win0 |= set(nodes) - odd
    return win0


def test_acceptance_3_ltl_backend():
    start = time.time()
    rng = random.Random(33)
    nba_cases = 0
    while nba_cases < 200:
        f = _random_ltl(rng, rng.randint(2, 6))
        nba = ltl_to_nba(f)
        dpa = determinize(nba)
        for _ in range(5):
            stem, cycle = _random_lasso(rng)
            want = lasso_eval(stem, cycle, f)
            assert nba.accepts_lasso(stem, cycle) == want
            assert dpa.accepts_lasso(stem, cycle) == want
            nba_cases += 1
    games = 0
    while games < 200:
        n = rng.randint(2, 8)
        nodes = list(range(n))
        owner = {v: rng.randint(0, 1) for v in nodes}
        succ = {v: rng.sample(nodes, rng.randint(1, min(2, n))) for v in nodes}
        pri = {v: rng.randint(0, 2) for v in nodes}
        game = ParityGame(nodes, owner, succ, pri, 0)
        winner, _ = solve_parity(game)
        assert {v for v in nodes if winner[v] == 0} == _brute_force_region0(game)
        games += 1
    report(3, time.time() - start, 120,
           f"{nba_cases} automaton cases and {games} parity games agree")


DES_DIAGNOSABLE = """
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

DES_CONFUSABLE = """
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

IMP_TOY = """
impgame
state s0 init
state s1
state s2
state s3
action a
action b
trans s0 a s1
trans s0 a s2
trans s1 a s3
trans s1 b s3
trans s2 a s3
trans s2 b s3
trans s3 a s3
trans s3 b s3
obs s1 s2
"""

OPACITY_KEPT = """
impgame
state s0 init
state s1 secret
state s2
action a
trans s0 a s1
trans s0 a s2
trans s1 a s1
trans s2 a s2
obs s1 s2
obs s0
"""

NI_LEAK = """
nisys
in h high
out x
trans s0 - s0
trans s0 h s1
trans s1 - s1
trans s1 h s1
output s0 -
output s1 x
"""


def depth1_fixtures():
    """Every depth-one instance exercised by the suite."""
    fixtures = []
    for text in (DES_DIAGNOSABLE, DES_CONFUSABLE):
        fixtures.append(encode_diagnosability(parse_des(text)).instance)
        fixtures.append(encode_prognosability(parse_des(text)).instance)
    fixtures.append(encode_opacity(parse_impgame(OPACITY_KEPT)).defender)
    fixtures.append(encode_imperfect_info(parse_impgame(IMP_TOY)).instance)
    fixtures.append(encode_noninterference(parse_nisys(NI_LEAK)).instance)
    sentence, model = parse_dlgame(
        "dlgame\nsentence forall x0 forall x1 (x0 = x1 | dep(x0, x1))\ndom 0,1\n")
    fixtures.append(encode_dependence_game(sentence, model).instance)
    arena = make_branching(owner_v0=2)
    fixtures.append(FusInstance.make(
        arena, length_transducer(arena.positions), parse("X G(<R> p & <R> !p)")))
    g0 = make_g0()
    fixtures.append(FusInstance.make(
        g0, identity_transducer(g0.positions), parse("G([R] p | [R] !p)")))
    return fixtures


def test_acceptance_4_elimination_transfer():
    start = time.time()
    conclusive = skipped = 0
    for inst in depth1_fixtures():
        marked, _, phi_hat, report_ = eliminate_r(
            inst.arena, inst.transducer, inst.phi)
        power = report_.power
        lassos = lassos_of(inst.arena, max_visits=1, limit=15)
        lassos += [x for x in lassos_of(inst.arena, max_visits=2, limit=80)
                   if x not in lassos]
        for stem, cycle in lassos:
            want = bounded_semantics(inst.arena, materialized(inst.transducer),
                                     "all", (stem, cycle), 0, inst.phi)
            if want is None:
                skipped += 1
                continue
            hat = lift_play(power, tuple(stem) + tuple(cycle))
            got = lasso_eval([marked.labels[p] for p in hat[:len(stem)]],
                             [marked.labels[p] for p in hat[len(stem):]],
                             phi_hat)
            assert got == want, (inst.phi, stem, cycle)
            conclusive += 1
    assert conclusive > 100
    report(4, time.time() - start, 60,
           f"marked-arena verdicts match the bounded evaluator on "
           f"{conclusive} lassos ({skipped} inconclusive skipped)")


def des_fixture_family():
    yield "diagnosable", DES_DIAGNOSABLE
    yield "confusable", DES_CONFUSABLE
    yield "fault-free", """
des
state s0 init
event o obs
trans s0 o s0
"""
    yield "initially-faulty", """
des
state s0 init faulty
event o obs
trans s0 o s0
"""
    yield "silent-tails", """
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
    yield "delayed-signature", """
des
state s0 init
state s1
state s2 faulty
state s3 faulty
event o obs
event w obs
event u
event f
trans s0 u s1
trans s0 f s2
trans s1 o s1
trans s2 o s3
trans s3 w s3
"""
    yield "two-faults-one-hidden", """
des
state s0 init
state s1
state s2 faulty
state s3 faulty
event o obs
event w obs
event u
event f
trans s0 u s1
trans s0 f s2
trans s0 f s3
trans s1 o s1
trans s2 o s2
trans s3 w s3
"""
    yield "observable-everything", """
des
state s0 init
state s1 faulty
event f obs
event o obs
trans s0 o s0
trans s0 f s1
trans s1 o s1
"""
    yield "ambiguous-branch", """
des
state s0 init
state s1
state s2 faulty
event o obs
event u
trans s0 u s1
trans s0 u s2
trans s1 o s1
trans s2 o s2
"""
    yield "late-divergence", """
des
state s0 init
state s1
state s2 faulty
state s3
event o obs
event w obs
event u
event f
trans s0 u s1
trans s0 f s2
trans s1 o s3
trans s2 o s2
trans s3 w s3
trans s2 o s2
"""


def test_acceptance_5_diagnosability_round_trip():
    start = time.time()
    agreed = 0
    results = []
    for name, text in des_fixture_family():
        sys_ = parse_des(text)
        want = twin_plant_diagnosable(sys_)
        enc = encode_diagnosability(sys_)
        got = synthesize_fully_uniform(enc.instance)
        assert got.exists == want, name
        if got.exists:
            assert check_uniform(enc.instance, got.strategy, "full").ok, name
        results.append((name, want))
        agreed += 1
    assert agreed >= 10
    assert any(not w for _, w in results) and any(w for _, w in results)
    report(5, time.time() - start, 60,
           f"synthesis verdict = twin-product verdict on {agreed} systems")


def _dl_strategies(enc):
    arena = enc.arena
    owned = list(enc.choice_positions)
    forced = [v for v in arena.positions
              if arena.owner[v] == 1 and v not in owned]
    for combo in itertools.product(*(arena.successors(v) for v in owned)):
        update = {("m", v): "m" for v in arena.positions}
        choice = {("m", v): t for v, t in zip(owned, combo)}
        for v in forced:
            choice[("m", v)] = arena.successors(v)[0]
        yield Strategy(1, "m", update, choice)


def _winning(enc, sigma):
    product = outcome_arena(enc.arena, sigma)
    return trace_counterexample(product, product.initial,
                                parse(enc.win_formula)) is None


def test_acceptance_6_dependence_game_truth():
    start = time.time()
    sentence3, model3 = parse_dlgame(
        "dlgame\nsentence forall x0 forall x1 (x0 = x1 | dep(x0, x1))\ndom 0,1,2\n")
    assert not dl_eval(sentence3, model3)
    enc3 = encode_dependence_game(sentence3, model3)
    winning3 = uniform3 = 0
    for sigma in _dl_strategies(enc3):
        if _winning(enc3, sigma):
            winning3 += 1
            if check_uniform(enc3.instance, sigma, "strict").ok:
                uniform3 += 1
    assert winning3 > 0 and uniform3 == 0

    sentence2, model2 = parse_dlgame(
        "dlgame\nsentence forall x0 forall x1 (x0 = x1 | dep(x0, x1))\ndom 0,1\n")
    assert dl_eval(sentence2, model2)
    enc2 = encode_dependence_game(sentence2, model2)
    assert any(_winning(enc2, s) and check_uniform(enc2.instance, s, "strict").ok
               for s in _dl_strategies(enc2))
    report(6, time.time() - start, 120,
           f"three elements: {winning3} winning strategies, none uniform; "
           "two elements: a winning uniform strategy exists")


def imp_fixture_family():
    yield IMP_TOY
    yield IMP_TOY.replace("obs s1 s2\n", "")           # discrete partition
    yield """
impgame
state s0 init
state s1
state s2
action a
action b
trans s0 a s1
trans s0 a s2
trans s1 a s1
trans s1 b s2
trans s2 a s1
trans s2 b s2
obs s1 s2
"""
    yield """
impgame
state s0 init
state s1
state s2
state s3
action a
action b
trans s0 a s1
trans s0 a s2
trans s0 b s3
trans s1 a s1
trans s1 b s1
trans s2 a s2
trans s2 b s2
trans s3 a s3
trans s3 b s3
obs s1 s2
obs s0 s3
"""
    yield """
impgame
state s0 init
state s1
state s2
state s3
action a
action b
trans s0 a s1
trans s0 a s2
trans s0 b s2
trans s1 a s3
trans s1 b s1
trans s2 a s3
trans s2 b s2
trans s3 a s3
obs s1 s2
"""


def _direct_observation_based(enc, sigma, max_len=6):
    """The definition itself, over consistent play pairs up to max_len."""
    product = outcome_arena(enc.instance.arena, sigma)
    arena = enc.instance.arena
    plays = [tuple(x[0] for x in p) for p in plays_up_to(product, max_len)]
    p1_plays = [p for p in plays if arena.owner[p[-1]] == 1]
    by_len = {}
    for p in p1_plays:
        by_len.setdefault(len(p), []).append(p)
    for group in by_len.values():
        for r1 in group:
            for r2 in group:
                if not recognizes(enc.instance.transducer, r1, r2):
                    continue
                a1 = enc.action_of[sigma.move_after(r1)]
                a2 = enc.action_of[sigma.move_after(r2)]
                if a1 != a2:
                    return False
    return True


def test_acceptance_7_observation_based_round_trip():
    start = time.time()
    fixtures = strategies = 0
    for text in imp_fixture_family():
        enc = encode_imperfect_info(parse_impgame(text))
        sigmas = list(positional_strategies(enc.instance.arena, 1))
        assert len(sigmas) <= 64
        for sigma in sigmas:
            want = _direct_observation_based(enc, sigma)
            got = check_uniform(enc.instance, sigma, "strict").ok
            assert got == want
            strategies += 1
        fixtures += 1
    assert fixtures >= 5
    report(7, time.time() - start, 120,
           f"checker = direct definition for {strategies} strategies "
           f"over {fixtures} games")


def synthesis_fixture_instances():
    out = [encode_diagnosability(parse_des(text)).instance
           for _, text in des_fixture_family()]
    out.append(encode_prognosability(parse_des(DES_DIAGNOSABLE)).instance)
    out.append(encode_opacity(parse_impgame(OPACITY_KEPT)).defender)
    arena = make_branching(owner_v0=2)
    out.append(FusInstance.make(arena, length_transducer(arena.positions),
                                parse("X G(<R> p & <R> !p)")))
    g0 = make_g0()
    g0q = Arena(g0.positions, g0.owner, g0.edges, g0.initial,
                {"v0": set(), "v1": {"q"}})
    out.append(FusInstance.make(g0q, identity_transducer(g0q.positions),
                                parse("[R] X [R] q")))
    return out


def test_acceptance_8_self_consistency():
    start = time.time()
    synthesized = 0
    for inst in synthesis_fixture_instances():
        result = synthesize_fully_uniform(inst)
        if result.exists:
            assert check_uniform(inst, result.strategy, "full").ok
            synthesized += 1
    assert synthesized >= 5
    report(8, time.time() - start, 120,
           f"all {synthesized} synthesized strategies pass their full check")


def test_acceptance_9_growth_trace():
    start = time.time()
    g0 = make_g0()
    g0q = Arena(g0.positions, g0.owner, g0.edges, g0.initial,
                {"v0": set(), "v1": {"q"}})
    inst = FusInstance.make(g0q, identity_transducer(g0q.positions),
                            parse("[R] X [R] q"))
    result = synthesize_fully_uniform(inst)
    depths = [s.rdepth for s in result.trace]
    assert depths == [2, 1, 0]
    g1 = result.trace[1].arena_positions
    t1 = result.trace[1].transducer_states
    g2 = result.trace[2].arena_positions
    bound = g1 * 2 ** t1 * 2 ** (t1 * g1) + 1
    assert g2 <= bound
    report(9, time.time() - start, 60,
           f"depth decreases 2->1->0 and |G2|={g2} <= {bound}")


def test_acceptance_10_complexity_represented_by_caps():
    start = time.time()
    arena = make_branching()
    inst = FusInstance.make(arena, length_transducer(arena.positions),
                            parse("[R] p"))
    with pytest.raises(CapExceeded) as exc1:
        synthesize_fully_uniform(inst, caps=Caps(power_positions=2))
    assert exc1.value.iteration == 1
    with pytest.raises(CapExceeded):
        synthesize_fully_uniform(inst, caps=Caps(dpa_states=1, nba_states=1))
    result = synthesize_fully_uniform(inst)
    assert len(result.trace) == 2
    assert all(s.transducer_states > 0 for s in result.trace)
    report(10, time.time() - start, 60,
           "state-space caps trigger hard errors and traces record sizes; "
           "no runtime measurements are asserted")
