import hashlib
import itertools
import random
import sys

import pytest

from conftest import lassos_of, make_branching, make_g0
from unistrat.arena import Arena, outcome_arena
from unistrat.errors import CapExceeded, EncodingError
from unistrat.formula import Atom, And, Next, Not, Until, atoms, parse
from unistrat.ltlgame import (Caps, ParityGame, all_letters,
                              build_product_game, determinize, ltl_to_dpa,
                              ltl_to_nba, solve_ltl_game, solve_parity)
from unistrat.marker import trace_counterexample
from unistrat.oracle import lasso_eval


def rand_ltl(rng, size, props=("p", "q")):
    if size <= 1:
        return Atom(rng.choice(props))
    kind = rng.choice(["not", "and", "next", "until", "until"])
    if kind in ("not", "next"):
        sub = rand_ltl(rng, size - 1, props)
        return Not(sub) if kind == "not" else Next(sub)
    k = rng.randint(1, size - 2) if size > 2 else 1
    node = And if kind == "and" else Until
    return node(rand_ltl(rng, k, props), rand_ltl(rng, size - 1 - k, props))


def rand_lasso(rng, props=("p", "q"), max_len=4):
    stem = [frozenset(x for x in props if rng.random() < 0.5)
            for _ in range(rng.randint(0, max_len))]
    cycle = [frozenset(x for x in props if rng.random() < 0.5)
             for _ in range(rng.randint(1, max_len))]
    return stem, cycle


def test_nba_safety_example():
    nba = ltl_to_nba(parse("G p"))
    assert nba.accepts_lasso([], [{"p"}])
    assert not nba.accepts_lasso([], [{"p"}, set()])


def test_nba_guarantee_example():
    nba = ltl_to_nba(parse("F p"))
    assert not nba.accepts_lasso([], [set()])
    assert nba.accepts_lasso([], [set(), {"p"}])


def test_nba_matches_lasso_oracle(rng):
    for _ in range(40):
        f = rand_ltl(rng, rng.randint(2, 6))
        nba = ltl_to_nba(f)
        for _ in range(5):
            stem, cycle = rand_lasso(rng)
            assert nba.accepts_lasso(stem, cycle) == lasso_eval(stem, cycle, f)


def test_nba_constants_match_lasso_oracle(rng):
    for text in ("true", "false", "F false", "p U false", "false U p",
                 "X false | q", "p & true", "!(q | true)", "G(p -> X true)",
                 "(X true) U q", "G(p -> (false U q))", "F(p & !true) | G q"):
        f = parse(text)
        nba = ltl_to_nba(f)
        for _ in range(20):
            stem, cycle = rand_lasso(rng)
            assert nba.accepts_lasso(stem, cycle) == lasso_eval(stem, cycle, f), text


def test_nba_sizes():
    assert len(ltl_to_nba(parse("G F p & G F q")).states) <= 8
    assert len(ltl_to_nba(parse("G F p & G F q & F G r")).states) <= 16


def test_nba_four_response_conjuncts(rng):
    f = parse("G(p -> F q) & G(r -> F s) & G(t -> F u) & G F w")
    nba = ltl_to_nba(f)
    assert len(nba.states) <= 64
    for _ in range(200):
        stem, cycle = rand_lasso(rng, props=("p", "q", "r", "s", "t", "u", "w"))
        assert nba.accepts_lasso(stem, cycle) == lasso_eval(stem, cycle, f)


def test_nba_states_numbered_in_discovery_order():
    nba = ltl_to_nba(parse("F(p & X q)"))
    assert nba.states == (0, 1, 2)
    assert nba.initial == frozenset([0])
    # {F(p & X q)} finds {q, F(p & X q)} on p, which finds {true} on q
    assert nba.transitions[(0, frozenset({"p"}))] == frozenset([0, 1])
    assert nba.transitions[(1, frozenset({"q"}))] == frozenset([2])
    # G p has no move on the empty letter, and no sink stands in for one
    nba = ltl_to_nba(parse("G p"))
    assert nba.states == (0,) and nba.accepting == frozenset([0])
    assert nba.transitions[(0, frozenset())] == frozenset()


def test_nba_transitions_total():
    # every (state, letter) pair has an entry, empty where no live move exists
    nba = ltl_to_nba(parse("p U q"))
    assert set(nba.transitions) == {(q, letter) for q in nba.states for letter in nba.letters}
    assert nba.transitions[(0, frozenset())] == frozenset()
    assert all(nba.transitions[(0, letter)] for letter in nba.letters if letter)


def test_determinize_deterministic_input(rng):
    # a deterministic-ish safety automaton determinizes with equal language
    f = parse("G p")
    nba = ltl_to_nba(f)
    dpa = determinize(nba)
    for _ in range(40):
        stem, cycle = rand_lasso(rng, props=("p",))
        assert dpa.accepts_lasso(stem, cycle) == lasso_eval(stem, cycle, f)


def test_determinize_fg_exhaustive_small_lassos():
    f = parse("F G p")
    dpa = determinize(ltl_to_nba(f))
    letters = all_letters(["p"])
    for slen in range(0, 4):
        for clen in range(1, 4):
            for stem in itertools.product(letters, repeat=slen):
                for cycle in itertools.product(letters, repeat=clen):
                    assert dpa.accepts_lasso(stem, cycle) == \
                        lasso_eval(stem, cycle, f)


def test_determinize_gf_canonical_pair():
    dpa = determinize(ltl_to_nba(parse("G F p")))
    assert not dpa.accepts_lasso([], [set()])
    assert dpa.accepts_lasso([], [{"p"}])


def test_determinize_matches_nba_random(rng):
    for _ in range(25):
        f = rand_ltl(rng, rng.randint(2, 6))
        nba = ltl_to_nba(f)
        dpa = determinize(nba)
        for _ in range(6):
            stem, cycle = rand_lasso(rng)
            assert dpa.accepts_lasso(stem, cycle) == nba.accepts_lasso(stem, cycle)


def test_product_game_unique_play_loses_gp():
    g0 = make_g0()
    dpa = determinize(ltl_to_nba(parse("G p")))
    game = build_product_game(g0, dpa, protagonist=1)
    winner, _ = solve_parity(game)
    assert winner[game.initial] == 1


def test_product_game_unique_play_wins_alternation():
    g0 = make_g0()
    psi = parse("G(p -> X !p)")
    # the unique play v0 v1 v0 ... satisfies psi by direct evaluation
    assert lasso_eval([], [{"p"}, set()], psi)
    dpa = determinize(ltl_to_nba(psi))
    game = build_product_game(g0, dpa, protagonist=1)
    winner, _ = solve_parity(game)
    assert winner[game.initial] == 0


def test_product_game_size_and_alphabet_errors():
    g0 = make_g0()
    dpa = determinize(ltl_to_nba(parse("G p")))
    game = build_product_game(g0, dpa, protagonist=1)
    assert len(game.nodes) <= len(g0) * len(dpa.states)
    with pytest.raises(CapExceeded):
        build_product_game(g0, dpa, 1, caps=Caps(product_nodes=0))


def test_solve_parity_single_even_priority():
    nodes = ["a", "b"]
    game = ParityGame(nodes, {"a": 0, "b": 1},
                      {"a": ["b"], "b": ["a"]}, {"a": 0, "b": 2}, "a")
    winner, strat = solve_parity(game)
    assert all(winner[v] == 0 for v in nodes)


def test_solve_parity_two_node_cycle_choice():
    # protagonist can stay on the even cycle or drift to the odd one
    nodes = ["c", "d", "e"]
    game = ParityGame(
        nodes, {"c": 0, "d": 1, "e": 1},
        {"c": ["d", "e"], "d": ["c"], "e": ["c"]},
        {"c": 3, "d": 2, "e": 1}, "c")
    winner, strat = solve_parity(game)
    # via d the dominant priority is 2 (even): protagonist wins by choosing d
    assert winner["c"] == 0
    assert strat[0]["c"] == "d"


def brute_force_winner0(game):
    nodes = list(game.nodes)
    p0 = [v for v in nodes if game.owner[v] == 0]
    win0 = set()
    for combo in itertools.product(*(game.succ[v] for v in p0)) or [()]:
        pick = dict(zip(p0, combo))
        succ = {v: ([pick[v]] if v in pick else list(game.succ[v])) for v in nodes}
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
                        break
                    if (u, mp) in seen:
                        continue
                    seen.add((u, mp))
                    for w in succ[u]:
                        frontier.append((w, min(mp, game.priority[w])))
                if found:
                    break
            if found:
                odd.add(start)
        win0 |= set(nodes) - odd
    return win0


def random_game(rng, max_nodes=7, min_nodes=2, priorities=4):
    n = rng.randint(min_nodes, max_nodes)
    nodes = list(range(n))
    owner = {v: rng.randint(0, 1) for v in nodes}
    succ = {v: rng.sample(nodes, rng.randint(1, min(2, n))) for v in nodes}
    pri = {v: rng.randint(0, priorities - 1) for v in nodes}
    return ParityGame(nodes, owner, succ, pri, 0)


def test_solve_parity_matches_exhaustive(rng):
    for _ in range(60):
        game = random_game(rng)
        winner, _ = solve_parity(game)
        got0 = {v for v in game.nodes if winner[v] == 0}
        assert got0 == brute_force_winner0(game)


def test_solve_parity_determinacy_and_strategy_quality(rng):
    """Determinacy, plus a soak: 500 random opponent behaviors of 200 steps
    never drive a winner's strategy through a cycle of the losing parity."""
    behaviors = 0
    while behaviors < 500:
        game = random_game(rng)
        winner, strats = solve_parity(game)
        assert set(winner) == set(game.nodes)
        for player in (0, 1):
            region = [v for v in game.nodes if winner[v] == player]
            strat = strats[player]
            for _ in range(10):
                if not region:
                    continue
                trail = [rng.choice(region)]
                for _ in range(200):
                    cur = trail[-1]
                    if game.owner[cur] == player:
                        nxt = strat[cur]
                    else:
                        nxt = rng.choice([u for u in game.succ[cur]
                                          if winner[u] == player]
                                         or list(game.succ[cur]))
                    trail.append(nxt)
                behaviors += 1
                last_seen = {}
                for idx, node in enumerate(trail):
                    if node in last_seen:
                        cyc = trail[last_seen[node]:idx]
                        dominant = min(game.priority[x] for x in cyc)
                        assert dominant % 2 == player
                    last_seen[node] = idx


SUITE_REWRITES = [
    # R-eliminated shapes of the shipped uniformity formulas
    "G(p1 -> (ra | rb))",
    "F pf -> F rf",
    "(!pf) W (!pf & rn)",
    "G !rs",
    "G((o1 -> r1) & (o2 -> r2))",
    "G(pd -> (r0 | r1 | r2))",
    "X G(rp & rq)",
]


def test_nba_dpa_agree_on_suite_formulas(rng):
    for text in SUITE_REWRITES:
        f = parse(text)
        nba = ltl_to_nba(f)
        dpa = determinize(nba)
        props = sorted(a for a in atoms(f) if not a.startswith("@"))
        one = props[0]
        letters1 = all_letters([one])
        for slen in range(0, 5):
            for clen in range(1, 5):
                for stem in itertools.product(letters1, repeat=slen):
                    for cycle in itertools.product(letters1, repeat=clen):
                        assert dpa.accepts_lasso(stem, cycle) == \
                            nba.accepts_lasso(stem, cycle)
        two = props[:2]
        for _ in range(300):
            stem, cycle = rand_lasso(rng, props=tuple(two))
            assert dpa.accepts_lasso(stem, cycle) == nba.accepts_lasso(stem, cycle)


def test_solve_ltl_game_examples():
    g0 = make_g0()
    assert solve_ltl_game(g0, parse("G(p -> X !p)"), 1) is not None
    arena = make_branching(owner_v0=2)
    assert solve_ltl_game(arena, parse("F p"), 1) is None
    arena = make_branching(owner_v0=1)
    sigma = solve_ltl_game(arena, parse("F p"), 1)
    assert sigma is not None


def test_solve_ltl_game_leaves_recursion_limit_alone(monkeypatch):
    # calls nest once per distinct priority, so a large game with few
    # priorities solves under the default limit, which stays untouched
    saved = sys.getrecursionlimit()
    set_limit = sys.setrecursionlimit

    def refuse(limit):
        raise AssertionError(f"solving set the recursion limit to {limit}")

    set_limit(1000)
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    try:
        assert solve_ltl_game(make_g0(), parse("G(p -> X !p)"), 1) is not None
        game = random_game(random.Random(5), min_nodes=5000, max_nodes=5000,
                           priorities=6)
        assert len(set(game.priority.values())) == 6
        winner, _ = solve_parity(game)
        assert set(winner) == set(game.nodes)
        assert sys.getrecursionlimit() == 1000
    finally:
        set_limit(saved)


def test_solve_ltl_game_rejects_dead_end():
    arena = Arena(["v0", "v1"], {"v0": 1, "v1": 2}, [("v0", "v1")], "v0",
                  {"v0": {"p"}})
    with pytest.raises(EncodingError) as info:
        solve_ltl_game(arena, parse("G F p"), 1)
    assert str(info.value) == "dead end: position 'v1' has no successor"


def test_solve_ltl_game_strategy_outcomes_satisfy_objective(rng):
    for psi_text, arena in [("F p", make_branching(owner_v0=1)),
                            ("G !p", make_branching(owner_v0=1)),
                            ("G(p -> X !p)", make_g0())]:
        psi = parse(psi_text)
        sigma = solve_ltl_game(arena, psi, 1)
        if sigma is None:
            continue
        product = outcome_arena(arena, sigma)
        assert len(product) <= 100
        for stem, cycle in lassos_of(product):
            stem_l = [arena.labels[p[0]] for p in stem]
            cycle_l = [arena.labels[p[0]] for p in cycle]
            assert lasso_eval(stem_l, cycle_l, psi)


# ---------------------------------------------------------------------------
# Parity automata without Safra

MULLER_LADDER = ("G F p", "F G p", "F G p | G F q", "G F p & G F q",
                 "G F p & F G q", "G F p & G F q & F G r")
STATE_FORMULAS = ("p", "q", "!p", "p & q", "p & !q", "!(p & q)", "p | q")


def rand_recurrences(rng):
    """A Boolean combination of G F s and F G s over at most three state
    formulas s."""
    recs = rng.sample(STATE_FORMULAS, rng.randint(1, 3))

    def gen(depth):
        if depth == 0 or rng.random() < 0.3:
            return f"{rng.choice(('G F', 'F G'))} ({rng.choice(recs)})"
        op = rng.choice(("&", "|", "->", "!"))
        if op == "!":
            return f"!({gen(depth - 1)})"
        return f"({gen(depth - 1)}) {op} ({gen(depth - 1)})"
    return gen(3)


def run(dpa, word):
    q = dpa.initial
    for letter in word:
        q = dpa.delta[(q, letter)]
    return q


def accepts_from(dpa, q, cycle):
    """Does dpa accept cycle^omega from state q?"""
    seen, lows = {}, []
    while q not in seen:
        seen[q] = len(lows)
        pris = []
        for letter in cycle:
            q = dpa.delta[(q, letter)]
            pris.append(dpa.priority[q])
        lows.append(min(pris))
    return min(lows[seen[q]:]) % 2 == 0


def assert_matches_safra_and_oracle(f, oracle_stem=3):
    """ltl_to_dpa agrees with Safra and lasso_eval, as assert_dpas_agree
    checks."""
    return assert_dpas_agree(ltl_to_dpa(f), determinize(ltl_to_nba(f)), f, oracle_stem)


def assert_dpas_agree(dpa, safra, f, oracle_stem=3):
    """dpa agrees with safra on every lasso with stem <= 3 and cycle <= 3
    over the formula's letters, and with lasso_eval on those with stem <=
    oracle_stem.

    Lassos that spell the same word are checked once: the cycle is
    primitive, and the stem does not end in the cycle's last letter.  Both
    automata are deterministic, so the verdict on a lasso is fixed by the
    states its stem leads to and by its cycle.
    """
    letters = all_letters(atoms(f))
    stems = [stem for n in range(4) for stem in itertools.product(letters, repeat=n)]
    reached = {stem: (run(dpa, stem), run(safra, stem)) for stem in stems}
    for n in range(1, 4):
        for cycle in itertools.product(letters, repeat=n):
            if any(cycle == cycle[:d] * (n // d) for d in range(1, n) if n % d == 0):
                continue
            verdicts = {}
            for stem in stems:
                if stem and stem[-1] == cycle[-1]:
                    continue
                q, r = key = reached[stem]
                if key not in verdicts:
                    verdicts[key] = accepts_from(dpa, q, cycle)
                    assert verdicts[key] == accepts_from(safra, r, cycle), \
                        (str(f), stem, cycle)
                if len(stem) <= oracle_stem:
                    assert verdicts[key] == lasso_eval(stem, cycle, f), (str(f), stem, cycle)
    return dpa


@pytest.mark.parametrize("text", MULLER_LADDER + ("G F m -> G F r",
                                                  "!(G F p & G F q & F G r)"))
def test_zielonka_dpa_matches_safra_and_oracle(text):
    f = parse(text)
    # 290,816 lasso words over three atoms: the oracle reads those with stem <= 1
    dpa = assert_matches_safra_and_oracle(f, 3 if len(atoms(f)) < 3 else 1)
    assert dpa.construction == "zielonka-tree"
    assert len(dpa) <= len(determinize(ltl_to_nba(f)))


def test_zielonka_dpa_random_combinations(rng):
    for _ in range(30):
        f = parse(rand_recurrences(rng))
        dpa = assert_matches_safra_and_oracle(f, oracle_stem=1)
        assert dpa.construction == "zielonka-tree"


def test_zielonka_dpa_sizes():
    for text, states in (("F G p | G F q", 3), ("G F p & F G q", 3),
                         ("G F p & G F q & F G r", 5), ("G F m -> G F r", 3),
                         ("!(G F p & G F q & F G r)", 5),
                         ("(G F p -> G F q) & (G F r -> G F s)", 10)):
        assert len(ltl_to_dpa(parse(text))) == states, text


def test_zielonka_tree_not_for_other_shapes():
    for text in ("p", "G F p & q", "G F X p", "G F (p U q)", "F(p & X q)"):
        assert ltl_to_dpa(parse(text)).construction != "zielonka-tree", text


def test_deterministic_nba_used_as_dpa(rng):
    # the subset construction of a deterministic NBA has its states as
    # singletons, plus at most the empty set
    for text in ("p U q", "G(p -> X q)", "G(p -> F q)", "G(p -> X !p)",
                 "G(p -> F q) & G F r"):
        f = parse(text)
        nba = ltl_to_nba(f)
        assert all(len(targets) <= 1 for targets in nba.transitions.values()), text
        dpa = ltl_to_dpa(f)
        assert dpa.construction == "subset", text
        assert len(dpa) <= len(nba.states) + 1
        assert set(dpa.priority.values()) <= {0, 1}
        for _ in range(40):
            stem, cycle = rand_lasso(rng, props=tuple(sorted(atoms(f))))
            assert dpa.accepts_lasso(stem, cycle) == lasso_eval(stem, cycle, f)
    dpa = ltl_to_dpa(parse("F p -> F q"))
    assert dpa.construction == "safra"


COSAFETY = ("F(p & X q)", "F(p & X X q)", "p U (q & X r)", "F(p & X !p)",
            "F q & F(p & X q)")


@pytest.mark.parametrize("text", COSAFETY)
def test_subset_dpa_matches_safra_and_oracle(text):
    f = parse(text)
    dpa = assert_matches_safra_and_oracle(f, 3 if len(atoms(f)) < 3 else 1)
    assert dpa.construction == "subset"
    assert set(dpa.priority.values()) == {0, 1}


def test_ltl_to_dpa_random_formulas(rng):
    # every construction that reads an NBA, checked against the oracle
    ran = set()
    for _ in range(60):
        f = rand_ltl(rng, rng.randint(2, 7))
        dpa = ltl_to_dpa(f)
        ran.add(dpa.construction)
        for _ in range(20):
            stem, cycle = rand_lasso(rng)
            assert dpa.accepts_lasso(stem, cycle) == lasso_eval(stem, cycle, f), str(f)
    assert {"subset", "safra"} <= ran


def test_subset_dpa_sizes_and_cap():
    # one absorbing accepting state; Safra needs more on the same automaton
    for text, states, safra in (("F(p & X q)", 3, 8), ("F(p & X X q)", 5, 12),
                                ("p U (q & X r)", 5, 15)):
        f = parse(text)
        dpa = ltl_to_dpa(f)
        assert len(dpa) == states, text
        accept = [q for q in dpa.states if dpa.priority[q] == 0
                  and all(dpa.delta[(q, letter)] == q for letter in dpa.letters)]
        assert len(accept) == 1, text
        assert len(determinize(ltl_to_nba(f))) == safra, text
    with pytest.raises(CapExceeded, match="parity automaton states"):
        ltl_to_dpa(parse("F(p & X X q)"), caps=Caps(dpa_states=4))
    assert len(ltl_to_dpa(parse("F(p & X X q)"), caps=Caps(dpa_states=5))) == 5


def test_determinize_live_nba_sizes(rng):
    texts = ["F pf -> F @R0", "(!pf) W (!pf & rn)", "F p -> F q", "F(p & X q)",
             "G(p -> X X q)"]
    texts += [str(rand_ltl(rng, rng.randint(3, 6))) for _ in range(12)]
    for text in texts:
        f = parse(text)
        assert_dpas_agree(determinize(ltl_to_nba(f)), ltl_to_dpa(f), f, oracle_stem=1)
    for text, states in (("F pf -> F @R0", 12), ("(!pf) W (!pf & rn)", 11)):
        assert len(determinize(ltl_to_nba(parse(text)))) == states


def tables_digest(dpa):
    """sha256 prefix of a parity automaton's tables, letters as sorted
    tuples, so it does not depend on PYTHONHASHSEED."""
    rows = sorted((q, tuple(sorted(letter)), target)
                  for (q, letter), target in dpa.delta.items())
    text = repr((dpa.initial, rows, sorted(dpa.priority.items())))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("text, states, digest", [
    ("F p -> F q", 12, "447d1d7200e79e30"),
    ("F pf -> F @R0", 12, "4affa7881721c444"),
    ("G F p & F G q", 11, "cba10b2a179f4c14"),
    ("F G p | G F q", 39, "9772d7f5c0ef4cbd"),
    ("(p U q) | G F r", 25, "5015859b493df0ef"),
    ("G(p -> F q) & F G r", 15, "23a0c93ff3298324"),
    ("G F p & G F q & F G r", 20, "761e1ead7deed360"),
    ("G p", 4, "55c0d4e3366f32a2"),
    ("F G p & X q", 10, "e1c246110a7c10f3"),
    ("(p U (q U r)) | G F p", 39, "698d3a87f9bb8807"),
])
def test_determinize_tables_pinned(text, states, digest):
    # Safra's states, initial state, transitions and priorities, recorded
    # once; a rewrite of the construction must reproduce them exactly
    dpa = determinize(ltl_to_nba(parse(text)))
    assert dpa.construction == "safra"
    assert len(dpa) == states
    assert tables_digest(dpa) == digest


def test_determinize_empty_tree():
    # no NBA state: the empty tree, one state whose odd priority rejects
    dpa = determinize(ltl_to_nba(parse("false")))
    assert len(dpa) == 1 and dpa.priority[dpa.initial] % 2 == 1
    assert all(dpa.delta[(dpa.initial, letter)] == dpa.initial for letter in dpa.letters)
    for stem, cycle in (([], [frozenset()]), ([frozenset()], [frozenset(), frozenset()])):
        assert not dpa.accepts_lasso(stem, cycle)


def reaches_accepting(nba):
    """Per state of nba, whether it reaches an accepting state, by a plain
    search over the transition table."""
    succ = {q: set().union(*(nba.transitions[(q, letter)] for letter in nba.letters))
            for q in nba.states}
    out = {}
    for q in nba.states:
        seen, stack = {q}, [q]
        while stack:
            for t in succ[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        out[q] = bool(seen & nba.accepting)
    return out


def test_nba_live_states():
    # no sink, and no state that only leads to one
    nba = ltl_to_nba(parse("F(p & X q)"))
    assert all(reaches_accepting(nba).values())
    assert nba.transitions[(1, frozenset())] == frozenset()


def test_nba_keeps_only_live_states(rng):
    for _ in range(60):
        f = rand_ltl(rng, rng.randint(2, 8), ("p", "q", "r"))
        for letters in (None, rng.sample(all_letters(atoms(f)), 2)):
            nba = ltl_to_nba(f, letters)
            assert all(reaches_accepting(nba).values()), str(f)
            assert nba.initial == (frozenset([0]) if nba.states else frozenset())


@pytest.mark.parametrize("text", ("false", "p & !p"))
def test_unsatisfiable_formula_has_no_automaton_states(text):
    f = parse(text)
    nba = ltl_to_nba(f)
    assert nba.states == () and nba.initial == frozenset()
    assert nba.transitions == {}
    dpa = ltl_to_dpa(f)
    assert len(dpa) == 1 and dpa.priority[dpa.initial] % 2 == 1
    assert not dpa.accepts_lasso([], [frozenset(atoms(f))])
    g0 = make_g0()
    assert trace_counterexample(g0, g0.initial, parse("true")) is None


def test_new_constructions_respect_dpa_cap():
    with pytest.raises(CapExceeded, match="Zielonka tree nodes"):
        ltl_to_dpa(parse("G F p & F G q"), caps=Caps(dpa_states=2))
    # three tree nodes, four states
    with pytest.raises(CapExceeded, match="parity automaton states"):
        ltl_to_dpa(parse("G F p & G F q"), caps=Caps(dpa_states=3))
    assert len(ltl_to_dpa(parse("G F p & G F q"), caps=Caps(dpa_states=4))) == 4
    with pytest.raises(CapExceeded, match="parity automaton states"):
        ltl_to_dpa(parse("G(p -> X !p)"), caps=Caps(dpa_states=2))
    assert len(ltl_to_dpa(parse("G(p -> X !p)"), caps=Caps(dpa_states=3))) == 3


def test_solve_ltl_game_needs_no_safra_here(monkeypatch):
    import unistrat.ltlgame as ltlgame

    def refuse(nba, caps=None):
        raise AssertionError("Safra ran on an objective that does not need it")

    monkeypatch.setattr(ltlgame, "determinize", refuse)
    for text in ("G F p & F G q", "G F p & F G !q", "G(p -> X !p)", "F(p & X q)"):
        psi = parse(text)
        for arena in (make_g0(), make_branching(owner_v0=1), make_branching(owner_v0=2)):
            sigma = solve_ltl_game(arena, psi, 1)
            if sigma is None:
                continue
            product = outcome_arena(arena, sigma)
            for stem, cycle in lassos_of(product):
                assert lasso_eval([arena.labels[p[0]] for p in stem],
                                  [arena.labels[p[0]] for p in cycle], psi)
    assert solve_ltl_game(make_g0(), parse("G(p -> X !p)"), 1) is not None
    assert solve_ltl_game(make_branching(owner_v0=1), parse("G F p & F G !q"), 1) is not None
    assert solve_ltl_game(make_g0(), parse("F(p & X q)"), 1) is None
    assert solve_ltl_game(make_g0(), parse("F(p & X !p)"), 1) is not None
