import random

import pytest

from conftest import (lassos_of, lift_play, make_branching, make_g0,
                      materialized, random_arena)
from unistrat.arena import Arena
from unistrat.errors import CapExceeded
from unistrat.formula import (Atom, Not, R, atoms, format_formula, holds,
                              muller_condition, parse, r_depth)
from unistrat.ltlgame import Caps, _letter_key, all_letters, ltl_to_nba
from unistrat import marker
from unistrat.marker import (eliminate_r, format_marking_report,
                             position_models_ltl, satisfying_positions,
                             trace_counterexample)
from unistrat.oracle import bounded_semantics, lasso_eval
from unistrat.transducer import (identity_transducer, length_transducer,
                                 restrict_to_plays)


def test_position_models_single_lasso():
    g0 = make_g0()
    assert position_models_ltl(g0, "v0", parse("G(p -> X !p)"))
    assert lasso_eval([], [{"p"}, set()], parse("G(p -> X !p)"))


def test_position_models_true_everywhere():
    g0 = make_g0()
    for v in g0.positions:
        assert position_models_ltl(g0, v, parse("true"))


def test_position_models_universal_quantification():
    arena = make_branching(owner_v0=2)
    assert not position_models_ltl(arena, "v0", parse("F p"))
    assert position_models_ltl(arena, "a", parse("F p"))


def test_trace_counterexample_is_a_violating_trace():
    arena = make_branching()
    psi = parse("F p")
    witness = trace_counterexample(arena, "v0", psi)
    assert witness is not None
    stem, cycle = witness
    path = list(stem) + list(cycle)
    assert path[0] == "v0"
    for u, v in zip(path, path[1:]):
        assert v in arena.successors(u)
    assert cycle[0] in arena.successors(path[-1])
    assert not lasso_eval([arena.labels[v] for v in stem],
                          [arena.labels[v] for v in cycle], psi)


def test_trace_counterexample_pinned_witness():
    # first accepting anchor in breadth-first order, shortest cycle back to it
    assert trace_counterexample(make_branching(), "v0", parse("F p")) == (["v0"], ["b", "y"])


def _rooted_at(arena, v):
    return Arena(arena.positions, arena.owner, arena.edges, v, arena.labels)


def test_satisfying_positions_matches_pointwise(rng):
    """satisfying_positions and trace_counterexample against lasso_eval on
    small random arenas: a satisfying position has no violating lasso among
    those enumerated from it, and any other position has a witness that is
    a violating lasso from it."""
    texts = ["F p", "G !p", "X p", "p U q", "G(p -> X !p)", "G F p",
             "F G q", "G F (p & q)", "G(p -> F q)"]
    for arena in [make_branching()] + [random_arena(rng, max_positions=6)
                                       for _ in range(12)]:
        for text in texts:
            psi = parse(text)
            good = satisfying_positions(arena, psi)
            for v in arena.positions:
                witness = trace_counterexample(arena, v, psi)
                assert (witness is None) == (v in good), (text, v)
                if v in good:
                    for stem, cycle in lassos_of(_rooted_at(arena, v)):
                        assert lasso_eval([arena.labels[u] for u in stem],
                                          [arena.labels[u] for u in cycle], psi)
                    continue
                stem, cycle = witness
                path = stem + cycle
                assert path[0] == v
                assert all(b in arena.successors(a) for a, b in zip(path, path[1:]))
                assert cycle[0] in arena.successors(path[-1])
                assert not lasso_eval([arena.labels[u] for u in stem],
                                      [arena.labels[u] for u in cycle], psi)


def test_lassos_of_closes_cycles_at_every_occurrence():
    """From v3 of this arena, G(p -> F q) fails only on traces that pass v3
    again before entering the cycle v3 v4, so lassos_of finds one only if it
    closes a cycle at every earlier occurrence of the repeated position."""
    rng = random.Random(1)
    for _ in range(39):
        arena = random_arena(rng, max_positions=6)
    psi = parse("G(p -> F q)")

    def holds(stem, cycle):
        return lasso_eval([arena.labels[u] for u in stem],
                          [arena.labels[u] for u in cycle], psi)

    assert not holds(*trace_counterexample(arena, "v3", psi))
    lassos = lassos_of(_rooted_at(arena, "v3"))
    assert (("v3", "v4", "v1", "v5"), ("v3", "v4")) in lassos
    assert not holds(("v3", "v4", "v1", "v5"), ("v3", "v4"))


def test_satisfying_positions_respects_product_cap():
    arena = make_branching()
    # a body outside the automaton-free shapes: its product has 7 nodes
    psi = parse("G(p -> F q)")
    satisfying_positions(arena, psi, caps=Caps(product_nodes=10 ** 4))
    with pytest.raises(CapExceeded):
        satisfying_positions(arena, psi, caps=Caps(product_nodes=len(arena.positions)))


def test_muller_body_counts_positions_against_product_cap():
    """A Muller body explores the positions reachable from the sources,
    here all five of the arena, and no product."""
    arena = make_branching()
    psi = parse("G F p & F G !q")
    satisfying_positions(arena, psi, caps=Caps(product_nodes=len(arena.positions)))
    with pytest.raises(CapExceeded) as raised:
        satisfying_positions(arena, psi, caps=Caps(product_nodes=len(arena.positions) - 1))
    assert (raised.value.what, raised.value.size) == ("marker product nodes", 5)


# bodies decided without an automaton, by the shape _failing_positions sees
SHAPED_BODIES = {
    "state": ["true", "false", "p", "!p", "p & !q", "!(p & !r) & q"],
    "next": ["X p", "X !q", "X (p & !r)", "X true", "X false"],
    "muller": ["G F p", "F G q", "G F (p & !r)", "G F p & G F q", "G F p | F G q",
               "G F p -> F G r", "!(G F p & F G !q)", "G F p & G F q & F G r",
               "(G F p -> G F q) & !F G (q & r)"],
}


def _with_dead_ends(rng, arena):
    """The arena with every move out of one or two positions removed."""
    dead = set(rng.sample(arena.positions, rng.randint(1, 2)))
    return Arena(arena.positions, arena.owner,
                 [(u, w) for u, w in arena.edges if u not in dead],
                 arena.initial, arena.labels)


def test_shaped_bodies_match_the_automaton_product(rng):
    """State, next and Muller bodies give the failing positions the
    automaton product gives, on random arenas with and without dead ends,
    from every position and from a random part of them."""
    arenas = []
    for _ in range(30):
        arena = random_arena(rng, props=("p", "q", "r"))
        arenas += [arena, _with_dead_ends(rng, arena)]
    for method, texts in SHAPED_BODIES.items():
        for text in texts:
            psi = parse(text)
            assert marker._shape(psi)[0] == method, text
            for arena in arenas:
                some = [u for u in arena.positions if rng.random() < 0.5]
                for sources in (arena.positions, some):
                    want = marker._failing_positions_nba(arena, psi, sources, Caps())
                    got = marker._failing_positions(arena, psi, sources, Caps())
                    assert got == want, (text, sources)


def test_shaped_bodies_skip_the_automaton(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return ltl_to_nba(*args, **kwargs)

    monkeypatch.setattr(marker, "ltl_to_nba", counted)
    arena = make_branching()
    t = restrict_to_plays(identity_transducer(arena.positions), arena)
    for text in ("[R](G F p & G F q)", "[R] X p"):
        eliminate_r(arena, t, parse(text))
    assert calls == []
    eliminate_r(arena, t, parse("[R](p U q)"))
    assert len(calls) == 1


def random_state_text(rng, depth=3):
    """A random state formula over p, q, r and the constants."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(("p", "q", "r", "true", "false"))
    op = rng.choice(("!", "&", "|", "->"))
    if op == "!":
        return f"!({random_state_text(rng, depth - 1)})"
    return f"({random_state_text(rng, depth - 1)} {op} {random_state_text(rng, depth - 1)})"


def test_invariant_automaton_equals_the_translation(monkeypatch):
    """The automaton built for not G s equals what `ltl_to_nba` gives, in
    states, initial, accepting and transitions, and is built without it
    whenever some letter satisfies s."""
    translated = []

    def counted(*args, **kwargs):
        translated.append(args[0])
        return ltl_to_nba(*args, **kwargs)

    monkeypatch.setattr(marker, "ltl_to_nba", counted)
    rng = random.Random(23)
    kinds = {"two states": 0, "no state": 0, "translated": 0}
    for _ in range(2400):
        psi = parse(f"G {random_state_text(rng)}")
        universe = all_letters(atoms(psi))
        letters = sorted(rng.sample(universe, rng.randint(1, len(universe))), key=_letter_key)
        translated.clear()
        got = marker._violation_nba(psi, letters, Caps())
        want = ltl_to_nba(Not(psi), letters=letters)
        assert (got.ap, got.letters, got.states, got.initial, got.accepting,
                got.transitions) == (want.ap, want.letters, want.states, want.initial,
                                     want.accepting, want.transitions), format_formula(psi)
        s = psi.sub.right.sub   # psi reads !(true U !s)
        if not any(holds(s, letter) for letter in letters):
            assert len(translated) == 1
            kinds["translated"] += 1
        else:
            assert translated == []
            kinds["two states" if got.states else "no state"] += 1
    assert min(kinds.values()) >= 100, kinds
    # below two states the cap refuses the automaton as the translation does
    psi = parse("G p")
    letters = all_letters(["p"])
    with pytest.raises(CapExceeded) as exc:
        marker._violation_nba(psi, letters, Caps(nba_states=1))
    assert (exc.value.what, exc.value.size, exc.value.cap) == ("Buchi automaton states", 2, 1)


def test_muller_body_shape_worked_out_once(monkeypatch):
    # one walk gives both the report's method and the decision
    calls = []

    def counted(psi):
        calls.append(psi)
        return muller_condition(psi)

    monkeypatch.setattr(marker, "muller_condition", counted)
    arena = make_branching()
    t = restrict_to_plays(identity_transducer(arena.positions), arena)
    _, _, _, report = eliminate_r(arena, t, parse("[R](G F p & G F q)"))
    assert list(report.methods.values()) == ["muller"]
    assert len(calls) == 1


def test_marking_report_says_how_each_body_was_decided():
    arena = make_branching()
    t = restrict_to_plays(identity_transducer(arena.positions), arena)
    phi = parse("[R] p & [R] X p & [R] G F p & [R](p U q)")
    _, _, _, report = eliminate_r(arena, t, phi)
    by_source = {format_formula(report.atom_sources[name].sub): method
                 for name, method in report.methods.items()}
    assert by_source == {"p": "state", "X p": "next",
                         format_formula(parse("G F p")): "muller",
                         "p U q": "automaton"}
    atom_lines = [line for line in format_marking_report(report).splitlines()
                  if line.startswith("atom ")]
    assert [line.rsplit(" ", 1)[1] for line in atom_lines] == [
        "by=state", "by=next", "by=muller", "by=automaton"]


def test_eliminate_r_true_marks_everything():
    g0 = make_g0()
    t = restrict_to_plays(identity_transducer(g0.positions), g0)
    marked, lifted, phi_hat, report = eliminate_r(g0, t, parse("[R] true"))
    name = next(iter(report.atom_sources))
    assert report.marked_positions[name] == frozenset(marked.positions)
    assert r_depth(phi_hat) == 0
    assert phi_hat == Atom(name)


def test_eliminate_r_depth_two_single_pass():
    g0 = make_g0()
    t = restrict_to_plays(identity_transducer(g0.positions), g0)
    marked, lifted, phi_hat, report = eliminate_r(g0, t, parse("[R] X [R] q"))
    assert r_depth(phi_hat) == 1
    assert len(report.atom_sources) == 1
    src = next(iter(report.atom_sources.values()))
    assert src == R(Atom("q"))


def test_marking_agrees_with_per_position_checks():
    arena = make_branching()
    t = restrict_to_plays(length_transducer(arena.positions), arena)
    phi = parse("G([R] p | [R] !p)")
    marked, lifted, phi_hat, report = eliminate_r(arena, t, phi)
    for name, source in report.atom_sources.items():
        for p in marked.positions:
            want = all(position_models_ltl(arena, u, source.sub) for u in p.info)
            assert (p in report.marked_positions[name]) == want
            assert (name in marked.labels[p]) == want


def test_marking_vacuous_on_empty_information_sets():
    g0 = make_g0()
    # transducer with no accepting states: empty relation, empty info sets
    from unistrat.transducer import Transducer
    t = Transducer(["q0"], frozenset(g0.positions), frozenset(g0.positions),
                   "q0", [], [("q0", "v0", "v0", "q0"), ("q0", "v1", "v1", "q0")])
    marked, lifted, phi_hat, report = eliminate_r(g0, t, parse("[R] false"))
    name = next(iter(report.atom_sources))
    assert report.marked_positions[name] == frozenset(marked.positions)


def test_elimination_transfer_on_lassos():
    """The rewritten formula on the marked arena agrees with the bounded
    evaluator for the original formula on every lasso play."""
    fixtures = [
        (make_g0(), identity_transducer(make_g0().positions), "G([R] p | [R] !p)"),
        (make_branching(), length_transducer(make_branching().positions),
         "X G(<R> p & <R> !p)"),
        (make_branching(), length_transducer(make_branching().positions),
         "F [R] !p"),
    ]
    for arena, raw, text in fixtures:
        phi = parse(text)
        t = restrict_to_plays(raw, arena)
        marked, lifted, phi_hat, report = eliminate_r(arena, t, phi)
        power = report.power
        reference = materialized(t)
        for stem, cycle in lassos_of(arena):
            want = bounded_semantics(arena, reference, "all", (stem, cycle), 0, phi)
            if want is None:
                continue
            hat = lift_play(power, tuple(stem) + tuple(cycle))
            stem_l = [marked.labels[p] for p in hat[:len(stem)]]
            cycle_l = [marked.labels[p] for p in hat[len(stem):]]
            got = lasso_eval(stem_l, cycle_l, phi_hat)
            assert got == want, (text, stem, cycle)


def test_marks_do_not_interact():
    arena = make_branching()
    t = restrict_to_plays(length_transducer(arena.positions), arena)
    phi = parse("([R] p) & ([R] !p)")
    _, _, _, both = eliminate_r(arena, t, phi)
    solo_p = eliminate_r(arena, t, parse("[R] p"))[3]
    solo_np = eliminate_r(arena, t, parse("[R] !p"))[3]
    by_source = {format_formula(src): frozenset(
        p.v for p in both.marked_positions[name])
        for name, src in both.atom_sources.items()}
    for solo in (solo_p, solo_np):
        name, src = next(iter(solo.atom_sources.items()))
        assert by_source[format_formula(src)] == frozenset(
            p.v for p in solo.marked_positions[name])


def test_marking_report_dump_is_deterministic():
    g0 = make_g0()
    t = restrict_to_plays(identity_transducer(g0.positions), g0)
    reports = [eliminate_r(g0, t, parse("[R] p"))[3] for _ in range(2)]
    texts = [format_marking_report(r) for r in reports]
    assert texts[0] == texts[1]
    assert "atom @R0#" in texts[0]
