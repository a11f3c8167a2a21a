import itertools

import pytest

from conftest import (make_branching, make_g0, plays_up_to, random_arena,
                      random_transducer)
from unistrat.arena import Arena
from unistrat.errors import CapExceeded
from unistrat.powerset import (build_power_arena, info_set_bruteforce,
                               lift_transducer, power_step)
from unistrat.graph import reachable
from unistrat.transducer import (EPSILON, Transducer, compose,
                                 identity_transducer, length_transducer,
                                 play_projection_transducers, recognizes,
                                 restrict_to_plays, trim, union)


def restricted(t, arena):
    return trim(restrict_to_plays(t, arena))


def runs_to(t, rho):
    """All (state, last output) pairs over accepting runs reading rho,
    enumerated over transition paths with on-path configuration pruning."""
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
    t = restricted(identity_transducer(g0.positions), g0)
    power = build_power_arena(g0, t)
    first = power.step(power.pre_initial, "v0")
    assert first.v == "v0"
    assert first.info == frozenset({"v0"})
    for q, outs in first.last:
        assert set(outs) <= {"v0"}


def test_power_step_length_tracks_both_branches():
    arena = make_branching()
    t = restricted(length_transducer(arena.positions), arena)
    power = build_power_arena(arena, t)
    second = power.lift_play(("v0", "a"))[-1]
    assert second.info == frozenset({"a", "b"})
    # equal-depth positions share the output-tape summary (the play-prefix
    # component of the restricted transducer state differs by construction)
    other = power.lift_play(("v0", "b"))[-1]

    def output_summary(p):
        return {(q[1], q[2], o) for q, outs in p.last for o in outs}

    assert output_summary(second) == output_summary(other)
    assert second.info == other.info


def test_power_step_epsilon_output_loop_terminates_and_inherits():
    # q0 reads anything writing nothing and can then spin writing "x" on
    # epsilon input; last outputs must include inherited entries
    arena = Arena(["x", "y"], {"x": 1, "y": 2},
                  [("x", "y"), ("y", "x")], "x", {})
    t = Transducer(["q0", "q1"], frozenset(arena.positions), frozenset(arena.positions),
                   "q0", ["q0", "q1"],
                   [("q0", "x", "x", "q0"), ("q0", "y", EPSILON, "q0"),
                    ("q0", EPSILON, "x", "q1"), ("q1", EPSILON, "x", "q1")])
    first = power_step(
        build_power_arena(arena, t).pre_initial, "x", t, arena)
    second = power_step(first, "y", t, arena)
    # reading y writes nothing: q0 inherits last output x
    assert ("q0" in second.states)
    assert second.last_of("q0") == frozenset({"x"})
    want = runs_to(t, ("x", "y"))
    got = {(q, o) for q, outs in second.last for o in outs}
    got |= {(q, None) for q in second.states
            if not second.last_of(q)}
    assert {q for q, _ in want} == set(second.states)
    assert {(q, o) for q, o in want if o is not None} == \
        {(q, o) for q, outs in second.last for o in outs}


def test_power_step_rejects_non_successor():
    g0 = make_g0()
    t = restricted(identity_transducer(g0.positions), g0)
    power = build_power_arena(g0, t)
    first = power.step(power.pre_initial, "v0")
    with pytest.raises(ValueError):
        power_step(first, "v0", t, g0)


def test_build_power_arena_identity_isomorphic():
    g0 = make_g0()
    t = restricted(identity_transducer(g0.positions), g0)
    power = build_power_arena(g0, t)
    assert len(power.arena) == 2
    assert [p.v for p in power.arena.positions] == ["v0", "v1"]
    for p in power.arena.positions:
        assert power.arena.owner[p] == g0.owner[p.v]
        assert power.arena.labels[p] == g0.labels[p.v]


def test_build_power_arena_cap():
    arena = make_branching()
    t = restricted(length_transducer(arena.positions), arena)
    with pytest.raises(CapExceeded):
        build_power_arena(arena, t, cap=1)


def test_info_set_bruteforce_examples():
    g0 = make_g0()
    tid = restricted(identity_transducer(g0.positions), g0)
    assert info_set_bruteforce(g0, tid, ("v0", "v1")) == frozenset({"v1"})

    arena = make_branching()
    tlen = restricted(length_transducer(arena.positions), arena)
    assert info_set_bruteforce(arena, tlen, ("v0", "a")) == frozenset({"a", "b"})

    empty = Transducer(["q0"], frozenset(g0.positions), frozenset(g0.positions),
                       "q0", [], [("q0", "v0", "v0", "q0"), ("q0", "v1", "v1", "q0")])
    for play in plays_up_to(g0, 4):
        assert info_set_bruteforce(g0, empty, play) == frozenset()


def test_info_set_requires_play():
    g0 = make_g0()
    tid = restricted(identity_transducer(g0.positions), g0)
    with pytest.raises(ValueError):
        info_set_bruteforce(g0, tid, ("v1", "v0"))


def test_information_sets_match_bruteforce_random(rng):
    for _ in range(12):
        arena = random_arena(rng, max_positions=6)
        t = restricted(random_transducer(rng, frozenset(arena.positions),
                                         max_states=4), arena)
        power = build_power_arena(arena, t)
        for play in plays_up_to(arena, 5):
            assert power.lift_play(play)[-1].info == \
                info_set_bruteforce(arena, t, play)


def test_state_and_last_sets_match_run_enumeration(rng):
    for _ in range(8):
        arena = random_arena(rng, max_positions=5)
        t = restricted(random_transducer(rng, frozenset(arena.positions),
                                         max_states=3), arena)
        power = build_power_arena(arena, t)
        for play in plays_up_to(arena, 4):
            summary = power.lift_play(play)[-1]
            runs = runs_to(t, play)
            assert summary.states == {q for q, _ in runs}
            got_pairs = {(q, o) for q, outs in summary.last for o in outs}
            want_pairs = {(q, o) for q, o in runs if o is not None}
            assert got_pairs == want_pairs


def test_lift_play_projection_bijection():
    arena = make_branching()
    t = restricted(length_transducer(arena.positions), arena)
    power = build_power_arena(arena, t)
    for play in plays_up_to(arena, 8):
        lifted = power.lift_play(play)
        assert power.project_play(lifted) == play
        # determinism: per underlying successor there is exactly one move
        for p in power.arena.positions:
            under = {p2.v for p2 in power.arena.successors(p)}
            assert len(under) == len(power.arena.successors(p))
            assert under == set(arena.successors(p.v))


def test_lift_identity_relates_lifted_to_itself():
    g0 = make_g0()
    t = restricted(identity_transducer(g0.positions), g0)
    power = build_power_arena(g0, t)
    lifted = lift_transducer(t, power)
    for play in plays_up_to(g0, 4):
        hat = power.lift_play(play)
        assert recognizes(lifted, hat, hat)
        other = [p for p in plays_up_to(g0, 4) if p != play]
        for o in other[:3]:
            assert not recognizes(lifted, hat, power.lift_play(o))


def test_lift_size_bound_and_relation(rng):
    for _ in range(6):
        arena = random_arena(rng, max_positions=5)
        t = restricted(random_transducer(rng, frozenset(arena.positions),
                                         max_states=3), arena)
        power = build_power_arena(arena, t)
        lifted = lift_transducer(t, power)
        bound = (len(power.arena) + 1) * len(t.states) * (len(power.arena) + 1)
        assert len(lifted) <= bound
        plays = plays_up_to(arena, 3)
        for r1, r2 in itertools.product(plays, repeat=2):
            want = recognizes(t, r1, r2)
            got = recognizes(lifted, power.lift_play(r1), power.lift_play(r2))
            assert got == want


def composed_lift(t, power):
    """Reference lift: down . t . up materialized by two compositions and
    trimmed, down and up being the play projection transducers."""
    t_down, t_up = play_projection_transducers(
        power.arena, lambda p: p.v, plain_alphabet=power.source.positions)
    return trim(compose(compose(t_down, t), t_up))


def materialized(view, alphabet):
    """The reachable part of a lifted view as a Transducer over alphabet."""
    states, _, _ = reachable([view.initial],
                             lambda s: [s2 for _, _, s2 in view.transitions_from(s)])
    transitions = [(s, a, b, s2) for s in states
                   for a, b, s2 in view.transitions_from(s)]
    return Transducer(states, alphabet, alphabet, view.initial,
                      [s for s in states if s in view.accepting], transitions)


def seeded_relations(rng, count):
    """Arenas with the length relation and with identity plus a random
    transducer, both restricted to plays."""
    for _ in range(count):
        arena = random_arena(rng, max_positions=6)
        positions = frozenset(arena.positions)
        yield arena, restricted(length_transducer(positions), arena)
        noisy = union(identity_transducer(positions),
                      random_transducer(rng, positions, max_states=3))
        yield arena, restricted(noisy, arena)


def test_lift_view_matches_composed_reference(rng):
    for arena, t in seeded_relations(rng, 6):
        power = build_power_arena(arena, t)
        lifted = lift_transducer(t, power)
        # a lift of the lift, built through the view's interface alone
        power2 = build_power_arena(power.arena, lifted)
        lifted2 = lift_transducer(lifted, power2)
        reference = composed_lift(t, power)
        reference2 = composed_lift(materialized(lifted, power.arena.positions),
                                   power2)
        assert len(lifted) == len(reference)
        assert len(lifted2) == len(reference2)
        plays = plays_up_to(arena, 3)
        for r1, r2 in itertools.product(plays, repeat=2):
            h1, h2 = power.lift_play(r1), power.lift_play(r2)
            want = recognizes(t, r1, r2)
            assert recognizes(lifted, h1, h2) == recognizes(reference, h1, h2) == want
            h1, h2 = power2.lift_play(h1), power2.lift_play(h2)
            assert recognizes(lifted2, h1, h2) == recognizes(reference2, h1, h2) == want
