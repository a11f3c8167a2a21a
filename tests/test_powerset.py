import itertools
import pickle
import random
import subprocess
import sys
from collections import Counter
from operator import attrgetter, itemgetter
from pathlib import Path

import pytest

from conftest import (child_env, info_set_bruteforce, lift_play, make_branching,
                      make_g0, materialized, play_projection_transducers,
                      plays_up_to, positional_strategies, random_arena,
                      random_transducer, unnumbered)
from test_acceptance import sampled_instances
from unistrat.arena import Arena, covering_step, format_arena, outcome_arena
from unistrat.errors import CapExceeded
from unistrat.powerset import (LiftedRelation, build_power_arena, lift_transducer,
                               power_step)
from unistrat.graph import reachable
from unistrat.transducer import (EPSILON, Transducer, compose,
                                 identity_transducer, length_transducer,
                                 recognizes, restrict_to_plays, trim, union)


def runs_to(t, rho):
    """All (state, last output) pairs over runs reading rho, the last
    output None before the first write, enumerated over transition paths
    with on-path configuration pruning."""
    rho = tuple(rho)
    results = set()

    def search(q, i, last, seen):
        if i == len(rho):
            results.add((q, last))
        for a, b, q2 in t.transitions_from(q):
            i2 = i
            if a is not EPSILON:
                if i < len(rho) and rho[i] == a:
                    i2 = i + 1
                else:
                    continue
            last2 = last if b is EPSILON else b
            conf = (q2, i2, last2)
            if conf in seen:
                continue
            search(q2, i2, last2, seen | {conf})

    search(t.initial, 0, None, frozenset([(t.initial, 0, None)]))
    return results


def test_power_step_identity_from_start():
    g0 = make_g0()
    t = restrict_to_plays(identity_transducer(g0.positions), g0)
    power = build_power_arena(g0, t)
    first, = lift_play(power, ("v0",))
    assert first.v == "v0"
    assert first.info == frozenset({"v0"})
    assert {unnumbered(t, q)[2] for q in first.states} <= {None, "v0"}


def test_power_step_length_tracks_both_branches():
    arena = make_branching()
    t = restrict_to_plays(length_transducer(arena.positions), arena)
    power = build_power_arena(arena, t)
    second = lift_play(power, ("v0", "a"))[-1]
    assert second.info == frozenset({"a", "b"})
    # equal-depth positions share the output-tape summary (the play-prefix
    # component of the restricted transducer state differs by construction)
    other = lift_play(power, ("v0", "b"))[-1]

    def output_summary(p):
        return {unnumbered(t, q)[1:] for q in p.states}

    assert output_summary(second) == output_summary(other)
    assert second.info == other.info


def test_power_step_epsilon_output_loop_terminates_and_inherits():
    # q0 reads anything writing nothing and can then spin writing "x" on
    # epsilon input, which x's self-loop keeps a play: the closure must
    # terminate, and a state that reads y writing nothing keeps x written
    arena = Arena(["x", "y"], {"x": 1, "y": 2},
                  [("x", "x"), ("x", "y"), ("y", "x")], "x", {})
    raw = Transducer(["q0", "q1"], frozenset(arena.positions),
                     frozenset(arena.positions), "q0", ["q0", "q1"],
                     [("q0", "x", "x", "q0"), ("q0", "y", EPSILON, "q0"),
                      ("q0", EPSILON, "x", "q1"), ("q1", EPSILON, "x", "q1")])
    t = restrict_to_plays(raw, arena)
    assert any(q == q2 and b is not EPSILON
               for q, _, b, q2 in materialized(t).transitions)
    first = power_step(None, "x", t, arena)
    second = power_step(first, "y", t, arena)
    assert ("y", "q0", "x") in {unnumbered(t, q) for q in second.states}
    runs = runs_to(t, ("x", "y"))
    assert {(q, unnumbered(t, q)[2]) for q in second.states} == runs
    assert second.info == {o for q, o in runs if q in t.accepting} == {"x"}


def test_power_step_keeps_inherited_outputs_apart():
    # after reading x, a has written x and b has written x then y; reading
    # y, both carry their own output unwritten (to a2, b2 and d) and both
    # write z on epsilon input into the same state of c
    arena = Arena(["x", "y", "z"], {"x": 1, "y": 2, "z": 1},
                  [("x", "y"), ("x", "z"), ("y", "x"), ("y", "z"), ("z", "y")],
                  "x", {})
    states = ["s", "s1", "a", "b", "a2", "b2", "c", "d"]
    raw = Transducer(states, frozenset(arena.positions), frozenset(arena.positions),
                     "s", states,
                     [("s", "x", "x", "a"), ("s", "x", "x", "s1"),
                      ("s1", EPSILON, "y", "b"),
                      ("a", "y", EPSILON, "a2"), ("b", "y", EPSILON, "b2"),
                      ("a2", EPSILON, EPSILON, "d"), ("b2", EPSILON, EPSILON, "d"),
                      ("a2", EPSILON, "z", "c"), ("b2", EPSILON, "z", "c")])
    t = restrict_to_plays(raw, arena)
    second = power_step(power_step(None, "x", t, arena), "y", t, arena)
    runs = runs_to(t, ("x", "y"))
    assert second.states == {q for q, _ in runs}
    assert {(q, unnumbered(t, q)[2]) for q in second.states} == runs
    assert {unnumbered(t, q)[1:] for q in second.states} == {
        ("a2", "x"), ("b2", "y"), ("d", "x"), ("d", "y"), ("c", "z")}
    assert len([q for q in second.states if unnumbered(t, q)[1] == "c"]) == 1
    assert second.info == {"x", "y", "z"}


def test_written_matches_run_enumeration():
    # every run to a state last wrote the same symbol, the one `written`
    # names: on a restricted transducer and on the lifted views of a
    # depth-2 tower
    arena = make_branching()
    t = restrict_to_plays(length_transducer(arena.positions), arena)
    power = build_power_arena(arena, t)
    lifted = lift_transducer(t, power)
    power2 = build_power_arena(power.arena, lifted)
    lifted2 = lift_transducer(lifted, power2)
    for below, relation in ((arena, t), (power.arena, lifted), (power2.arena, lifted2)):
        lasts: dict = {}
        for play in plays_up_to(below, 4):
            for q, o in runs_to(relation, play):
                lasts.setdefault(q, set()).add(o)
        assert len(lasts) == len(relation) - 1   # all but the initial state
        for q, outs in lasts.items():
            o, = outs
            assert relation.written(q) == o
            if q in relation.accepting:
                assert o is not None


def test_written_is_none_before_the_first_write():
    # a fresh view of G0's identity relation: the initial state has written
    # nothing, and its one move reads and writes v0
    g0 = make_g0()
    view = LiftedRelation(identity_transducer(g0.positions), g0, lambda v: v)
    assert view.written(view.initial) is None
    (a, b, n), = view.transitions_from(view.initial)
    assert (a, b, view.written(n)) == ("v0", "v0", "v0")
    assert n in view.accepting


class Scanned:
    """A relation seen only through `initial`, `accepting` and
    `transitions_from`, as a view is: a lift of it scans every move of a
    state, the reference for the lift's index of a raw transducer."""

    def __init__(self, t):
        self.initial, self.accepting = t.initial, t.accepting
        self.transitions_from = t.transitions_from


def busy_transducer(rng, alphabet):
    """Random moves of all four kinds (symbol or epsilon on either tape),
    an epsilon/epsilon cycle through a state with one move, and states
    with up to four moves per symbol."""
    k = rng.randint(2, 4)
    states = [f"q{i}" for i in range(k)]
    symbols = sorted(alphabet, key=str)
    transitions = [("q0", EPSILON, EPSILON, "q1"), ("q1", EPSILON, EPSILON, "q0")]
    for q in states[2:] + ["q0"] * rng.randint(0, 2):
        for _ in range(rng.randint(1, 4 * len(symbols))):
            a, b = rng.choice(((symbols, symbols), (symbols, [EPSILON]),
                               ([EPSILON], symbols), ([EPSILON], [EPSILON])))
            transitions.append((q, rng.choice(a), rng.choice(b), rng.choice(states)))
    return Transducer(states, alphabet, alphabet, "q0",
                      rng.sample(states, rng.randint(1, k)), transitions, name="busy")


def test_move_index_matches_scan():
    """Lifting a raw transducer onto its arena or onto an outcome arena
    numbers the same states with the same moves, in the same order, as a
    scan of every move; the index is let go with the dead states."""
    rng = random.Random(2027)
    lifts = 0
    for _ in range(40):
        arena = random_arena(rng, max_positions=6)
        t = busy_transducer(rng, frozenset(arena.positions))
        outcome = outcome_arena(arena, next(positional_strategies(arena, rng.randint(1, 2))))
        for covering, down in ((arena, lambda v: v), (outcome, itemgetter(0))):
            indexed = LiftedRelation(t, covering, down)
            scanned = LiftedRelation(Scanned(t), covering, down)
            for explore in (len, LiftedRelation.drop_dead_states):
                for view in (indexed, scanned):
                    explore(view)
                assert indexed._triples == scanned._triples
                assert indexed._moves == scanned._moves
                assert indexed.accepting == scanned.accepting
            assert indexed._index is None
            lifts += len(indexed._triples) > 1
    assert lifts > 40


def test_restriction_reads_each_raw_state_once():
    """Restricting the identity to 200 alternating positions reads the
    transducer's moves once for its liveness pass and once for the lift's
    index, not once per numbered state."""
    reads = Counter()

    class Counted(Transducer):
        def transitions_from(self, q):
            reads[q] += 1
            return super().transitions_from(q)

    n = 200
    names = [f"v{i}" for i in range(n)]
    arena = Arena(names, {v: 1 + i % 2 for i, v in enumerate(names)},
                  [(names[i], names[(i + k) % n]) for i in range(n) for k in (1, 3)],
                  "v0", {v: set() for v in names})
    ident = identity_transducer(names)
    t = Counted(ident.states, ident.input_alphabet, ident.output_alphabet,
                ident.initial, ident.accepting, ident.transitions)
    trim(t)
    by_trim = Counter(reads)
    reads.clear()
    relation = restrict_to_plays(t, arena)
    assert len(relation._triples) == n + 1
    assert reads == by_trim + Counter(t.states)


def test_power_step_from_none_starts_a_play():
    arena = make_branching()
    t = restrict_to_plays(length_transducer(arena.positions), arena)
    assert power_step(None, arena.initial, t, arena) == \
        build_power_arena(arena, t).arena.initial
    with pytest.raises(ValueError):
        power_step(None, "a", t, arena)


def test_power_step_rejects_non_successor():
    g0 = make_g0()
    t = restrict_to_plays(identity_transducer(g0.positions), g0)
    power = build_power_arena(g0, t)
    first, = lift_play(power, ("v0",))
    with pytest.raises(ValueError):
        power_step(first, "v0", t, g0)


def two_rounds():
    """The power arenas of the length relation on the branching arena and
    of its lift: round-2 positions hold round-1 positions."""
    arena = make_branching()
    t = restrict_to_plays(length_transducer(arena.positions), arena)
    power = build_power_arena(arena, t)
    return power, build_power_arena(power.arena, lift_transducer(t, power))


def test_power_position_text_pinned():
    power, power2 = two_rounds()
    assert str(lift_play(power, ("v0", "a"))[-1]) == "a|S={2,3}|I={a,b}"
    assert str(lift_play(power2, lift_play(power, ("v0", "a")))[-1]) == \
        "a|S={2,3}|I={a,b}" \
        "|S={2,3}" \
        "|I={a|S={2,3}|I={a,b}," \
        "b|S={4,5}|I={a,b}}"


def test_power_positions_pickled_under_other_hash_seeds():
    """String hashes differ between processes: positions of both rounds
    pickled under another hash seed equal the ones built here, hash as
    they do and find their dict entries."""
    power, power2 = two_rounds()
    local = power.arena.positions + power2.arena.positions
    number = {p: i for i, p in enumerate(local)}
    script = ("import pickle, sys\n"
              "from test_powerset import two_rounds\n"
              "power, power2 = two_rounds()\n"
              "positions = power.arena.positions + power2.arena.positions\n"
              "sys.stdout.buffer.write(pickle.dumps(positions))\n")
    for seed in ("0", "77"):
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              env=child_env(Path(__file__).parent, PYTHONHASHSEED=seed))
        assert proc.returncode == 0, proc.stderr
        loaded = pickle.loads(proc.stdout)
        assert loaded == local
        assert [hash(p) for p in loaded] == [hash(p) for p in local]
        assert [number[p] for p in loaded] == list(range(len(local)))


def test_round_two_text_under_other_hash_seeds():
    """Round-2 summaries are sets of lifted state numbers, given in the
    order the round-2 build finds the states: that order, and so the
    printed power arena, is the same under every hash seed."""
    _, power2 = two_rounds()
    local = format_arena(power2.arena)
    script = ("import sys\n"
              "from test_powerset import two_rounds\n"
              "from unistrat.arena import format_arena\n"
              "sys.stdout.write(format_arena(two_rounds()[1].arena))\n")
    for seed in ("0", "7"):
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=child_env(Path(__file__).parent, PYTHONHASHSEED=seed))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == local


class Backwards:
    """A relation view that lists each state's moves backwards."""

    def __init__(self, view):
        self.initial, self.accepting, self.written = view.initial, view.accepting, view.written
        self.transitions_from = lambda q: view.transitions_from(q)[::-1]


def test_summaries_found_in_other_orders_are_equal():
    """A relation listing its moves backwards makes the power steps find
    every run in another order, yet gives equal positions."""
    for arena, t in sampled_instances(11, 12):
        backwards = Backwards(t)
        want = build_power_arena(arena, t).arena.positions
        got = build_power_arena(arena, backwards).arena.positions
        assert got == want
        assert [hash(p) for p in got] == [hash(p) for p in want]


def test_build_power_arena_identity_isomorphic():
    g0 = make_g0()
    t = restrict_to_plays(identity_transducer(g0.positions), g0)
    power = build_power_arena(g0, t)
    assert len(power.arena) == 2
    assert [p.v for p in power.arena.positions] == ["v0", "v1"]
    for p in power.arena.positions:
        assert power.arena.owner[p] == g0.owner[p.v]
        assert power.arena.labels[p] == g0.labels[p.v]


def test_build_power_arena_cap():
    arena = make_branching()
    t = restrict_to_plays(length_transducer(arena.positions), arena)
    with pytest.raises(CapExceeded):
        build_power_arena(arena, t, cap=1)


def test_reachable_counts_seeds_against_cap():
    with pytest.raises(CapExceeded):
        reachable(["a", "b", "c"], lambda node: [], cap=2)
    nodes, _, _ = reachable(["a", "b", "c"], lambda node: [], cap=3)
    assert nodes == ["a", "b", "c"]


def test_info_set_bruteforce_examples():
    g0 = make_g0()
    tid = restrict_to_plays(identity_transducer(g0.positions), g0)
    assert info_set_bruteforce(g0, tid, ("v0", "v1")) == frozenset({"v1"})

    arena = make_branching()
    tlen = restrict_to_plays(length_transducer(arena.positions), arena)
    assert info_set_bruteforce(arena, tlen, ("v0", "a")) == frozenset({"a", "b"})

    empty = Transducer(["q0"], frozenset(g0.positions), frozenset(g0.positions),
                       "q0", [], [("q0", "v0", "v0", "q0"), ("q0", "v1", "v1", "q0")])
    for play in plays_up_to(g0, 4):
        assert info_set_bruteforce(g0, empty, play) == frozenset()


def test_info_set_requires_play():
    g0 = make_g0()
    tid = restrict_to_plays(identity_transducer(g0.positions), g0)
    with pytest.raises(ValueError):
        info_set_bruteforce(g0, tid, ("v1", "v0"))


def test_information_sets_match_bruteforce_random(rng):
    for _ in range(12):
        arena = random_arena(rng, max_positions=6)
        t = restrict_to_plays(random_transducer(rng, frozenset(arena.positions),
                                         max_states=4), arena)
        power = build_power_arena(arena, t)
        for play in plays_up_to(arena, 5):
            assert lift_play(power, play)[-1].info == \
                info_set_bruteforce(arena, t, play)


def with_writer(rng, t):
    """t plus epsilon-input moves writing every symbol from one state, as
    the relation of a dependence-logic game has: summaries then hold
    several states whose runs write into the same configurations."""
    writer = rng.choice(t.states)
    moves = [(writer, EPSILON, b, rng.choice(t.states))
             for b in sorted(t.output_alphabet, key=str)]
    return Transducer(t.states, t.input_alphabet, t.output_alphabet, t.initial,
                      t.accepting, t.transitions + tuple(moves), name=t.name)


def test_state_and_last_sets_match_run_enumeration(rng):
    for k in range(16):
        arena = random_arena(rng, max_positions=5)
        t = random_transducer(rng, frozenset(arena.positions), max_states=3)
        if k % 2:
            t = with_writer(rng, t)
        t = restrict_to_plays(t, arena)
        power = build_power_arena(arena, t)
        for play in plays_up_to(arena, 4):
            summary = lift_play(power, play)[-1]
            runs = runs_to(t, play)
            assert summary.states == {q for q, _ in runs}
            assert {(q, unnumbered(t, q)[2]) for q in summary.states} == runs


def test_lift_play_projection_bijection():
    arena = make_branching()
    t = restrict_to_plays(length_transducer(arena.positions), arena)
    power = build_power_arena(arena, t)
    for play in plays_up_to(arena, 8):
        lifted = lift_play(power, play)
        assert tuple(p.v for p in lifted) == play
        # determinism: per underlying successor there is exactly one move
        for p in power.arena.positions:
            under = {p2.v for p2 in power.arena.successors(p)}
            assert len(under) == len(power.arena.successors(p))
            assert under == set(arena.successors(p.v))


def test_covering_step_is_power_step():
    """Read off a power arena's edges, the play bijection is the power
    step, in the first round and in the second; the last arena of the
    chain covers the first through `.v` twice."""
    for arena, t in sampled_instances(11, 12):
        power = build_power_arena(arena, t)
        lifted = lift_transducer(t, power)
        power2 = build_power_arena(power.arena, lifted)
        for layer, below, relation in ((power, arena, t), (power2, power.arena, lifted)):
            step = covering_step(layer.arena, attrgetter("v"))
            assert step[(None, below.initial)] == layer.arena.initial
            for p in layer.arena.positions:
                for v2 in below.successors(p.v):
                    assert step[(p, v2)] == power_step(p, v2, relation, below)
            assert len(step) == 1 + sum(len(below.successors(p.v))
                                        for p in layer.arena.positions)
        through = covering_step(power2.arena, lambda p: p.v.v)
        for play in plays_up_to(arena, 4):
            current = None
            for v in play:
                current = through[(current, v)]
            assert current == lift_play(power2, lift_play(power, play))[-1]


def test_lift_identity_relates_lifted_to_itself():
    g0 = make_g0()
    t = restrict_to_plays(identity_transducer(g0.positions), g0)
    power = build_power_arena(g0, t)
    lifted = lift_transducer(t, power)
    for play in plays_up_to(g0, 4):
        hat = lift_play(power, play)
        assert recognizes(lifted, hat, hat)
        other = [p for p in plays_up_to(g0, 4) if p != play]
        for o in other[:3]:
            assert not recognizes(lifted, hat, lift_play(power, o))


def test_lift_size_bound_and_relation(rng):
    for _ in range(6):
        arena = random_arena(rng, max_positions=5)
        t = restrict_to_plays(random_transducer(rng, frozenset(arena.positions),
                                         max_states=3), arena)
        power = build_power_arena(arena, t)
        lifted = lift_transducer(t, power)
        bound = (len(power.arena) + 1) * len(t) * (len(power.arena) + 1)
        assert len(lifted) <= bound
        plays = plays_up_to(arena, 3)
        for r1, r2 in itertools.product(plays, repeat=2):
            want = recognizes(t, r1, r2)
            got = recognizes(lifted, lift_play(power, r1), lift_play(power, r2))
            assert got == want


def composed_lift(t, power):
    """Reference lift: down . t . up materialized by two compositions and
    trimmed, down and up being the play projection transducers."""
    t_down, t_up = play_projection_transducers(
        power.arena, lambda p: p.v, plain_alphabet=power.source.positions)
    return trim(compose(compose(t_down, materialized(t)), t_up))


def seeded_relations(rng, count):
    """Arenas with the length relation and with identity plus a random
    transducer, both restricted to plays."""
    for _ in range(count):
        arena = random_arena(rng, max_positions=6)
        positions = frozenset(arena.positions)
        yield arena, restrict_to_plays(length_transducer(positions), arena)
        noisy = union(identity_transducer(positions),
                      random_transducer(rng, positions, max_states=3))
        yield arena, restrict_to_plays(noisy, arena)


def test_lift_view_matches_composed_reference(rng):
    for arena, t in seeded_relations(rng, 6):
        power = build_power_arena(arena, t)
        lifted = lift_transducer(t, power)
        # a lift of the lift, built through the view's interface alone
        power2 = build_power_arena(power.arena, lifted)
        lifted2 = lift_transducer(lifted, power2)
        reference = composed_lift(t, power)
        reference2 = composed_lift(lifted, power2)
        assert len(lifted) == len(reference)
        assert len(lifted2) == len(reference2)
        plays = plays_up_to(arena, 3)
        for r1, r2 in itertools.product(plays, repeat=2):
            h1, h2 = lift_play(power, r1), lift_play(power, r2)
            want = recognizes(t, r1, r2)
            assert recognizes(lifted, h1, h2) == recognizes(reference, h1, h2) == want
            h1, h2 = lift_play(power2, h1), lift_play(power2, h2)
            assert recognizes(lifted2, h1, h2) == recognizes(reference2, h1, h2) == want
