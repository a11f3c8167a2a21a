import itertools

import pytest

from conftest import (make_branching, make_g0, materialized,
                      play_projection_transducers, plays_up_to, random_arena,
                      random_transducer, unnumbered)
from unistrat.arena import Arena
from unistrat.errors import EncodingError, InputFormatError
from unistrat.transducer import (EPSILON, Transducer,
                                 build_morphism_equivalence,
                                 build_observation_equivalence, compose,
                                 format_transducer, identity_transducer,
                                 length_transducer, parse_transducer,
                                 recognizes, restrict_to_plays, trim, union)


def words_up_to(alphabet, max_len):
    out = [()]
    for k in range(1, max_len + 1):
        out.extend(itertools.product(alphabet, repeat=k))
    return out


def relation_on(t, words):
    return {(w, w2) for w in words for w2 in words if recognizes(t, w, w2)}


def brute_force_accepts(t, w, w2):
    """Enumerate accepting runs as transition paths, pruning revisited
    configurations along the path."""
    w, w2 = tuple(w), tuple(w2)

    def search(q, i, j, seen):
        if q in t.accepting and i == len(w) and j == len(w2):
            return True
        for a, b, q2 in t.transitions_from(q):
            i2 = i
            if a is not EPSILON:
                if i < len(w) and w[i] == a:
                    i2 = i + 1
                else:
                    continue
            j2 = j
            if b is not EPSILON:
                if j < len(w2) and w2[j] == b:
                    j2 = j + 1
                else:
                    continue
            conf = (q2, i2, j2)
            if conf in seen:
                continue
            if search(q2, i2, j2, seen | {conf}):
                return True
        return False

    return search(t.initial, 0, 0, frozenset([(t.initial, 0, 0)]))


def test_identity_transducer():
    t = identity_transducer(["v0", "v1"])
    assert recognizes(t, ["v0", "v1"], ["v0", "v1"])
    assert not recognizes(t, ["v0", "v1"], ["v1", "v0"])


def test_length_transducer():
    t = length_transducer(["u", "v"])
    assert recognizes(t, ["u", "u", "v"], ["v", "v", "v"])
    assert not recognizes(t, ["u"], ["u", "v"])


def test_epsilon_output_observation_pattern():
    # unobservable letters are consumed/produced silently
    q0 = "q"
    t = Transducer([q0], {"o", "u"}, {"o", "u"}, q0, [q0],
                   [(q0, "o", "o", q0), (q0, "u", EPSILON, q0),
                    (q0, EPSILON, "u", q0)])
    assert recognizes(t, ["u", "o", "u"], ["o"])
    assert recognizes(t, ["o"], ["u", "u", "o"])
    assert not recognizes(t, ["o", "o"], ["o"])


def test_recognizes_vs_run_enumeration(rng):
    cases = 0
    alphabet = ("a", "b", "c")
    words = words_up_to(alphabet, 3)
    for _ in range(12):
        t = random_transducer(rng, frozenset(alphabet), max_states=4)
        for _ in range(12):
            w = rng.choice(words)
            w2 = rng.choice(words)
            assert recognizes(t, w, w2) == brute_force_accepts(t, w, w2)
            cases += 1
    assert cases >= 100


def test_compose_identity_laws(rng):
    alphabet = frozenset(("a", "b"))
    words = words_up_to(sorted(alphabet), 3)
    tid = identity_transducer(alphabet)
    for _ in range(5):
        t = random_transducer(rng, alphabet, max_states=3)
        left = compose(tid, t)
        right = compose(t, tid)
        want = relation_on(t, words)
        assert relation_on(left, words) == want
        assert relation_on(right, words) == want


def test_compose_length_idempotent():
    alphabet = ("a", "b")
    tlen = length_transducer(alphabet)
    comp = compose(tlen, tlen)
    words = words_up_to(alphabet, 4)
    assert relation_on(comp, words) == relation_on(tlen, words)


def test_compose_associativity(rng):
    alphabet = frozenset(("a", "b"))
    words = words_up_to(sorted(alphabet), 3)
    for _ in range(5):
        t1 = random_transducer(rng, alphabet, max_states=3)
        t2 = random_transducer(rng, alphabet, max_states=3)
        t3 = random_transducer(rng, alphabet, max_states=3)
        left = compose(compose(t1, t2), t3)
        right = compose(t1, compose(t2, t3))
        assert relation_on(left, words) == relation_on(right, words)


def test_compose_alphabet_mismatch():
    t1 = identity_transducer({"a"})
    t2 = identity_transducer({"b"})
    with pytest.raises(EncodingError):
        compose(t1, t2)


def test_restrict_to_plays_examples():
    g0 = make_g0()
    t = restrict_to_plays(identity_transducer(g0.positions), g0)
    assert recognizes(t, ["v0", "v1"], ["v0", "v1"])
    assert not recognizes(t, ["v1"], ["v1"])

    arena = make_branching()
    tlen = restrict_to_plays(length_transducer(arena.positions), arena)
    assert recognizes(tlen, ("v0", "a"), ("v0", "b"))
    raw = length_transducer(g0.positions)
    assert recognizes(raw, ["v1", "v0"], ["v0", "v1"])
    restricted = restrict_to_plays(raw, g0)
    assert not recognizes(restricted, ["v1", "v0"], ["v0", "v1"])


def test_restrict_relates_only_play_pairs(rng):
    """restricted relates (w, w2) iff t does and both are nonempty plays, for
    random transducers with epsilon on either tape and a non-position symbol;
    dense moves make some pairs of plays related."""
    arenas = [make_branching()] + [random_arena(rng, max_positions=4) for _ in range(6)]
    related = 0
    for arena in arenas:
        alphabet = frozenset(arena.positions) | {"zz"}
        plays = set(plays_up_to(arena, 3))  # nonempty plays
        words = set(words_up_to(sorted(alphabet), 2)) | plays
        for _ in range(8):
            t = random_transducer(rng, alphabet, max_states=3,
                                  moves=3 * (len(alphabet) + 1))
            restricted = restrict_to_plays(t, arena)
            for w in words:
                for w2 in words:
                    expected = w in plays and w2 in plays and recognizes(t, w, w2)
                    assert recognizes(restricted, w, w2) == expected, (w, w2)
                    related += expected
    assert related > 0


def test_restrict_keeps_move_order():
    """States are numbered breadth-first and each state's moves come in
    t's order, not in the arena's successor order nor grouped by tape;
    numbers 1 and 3, (None, q0, v0) and (None, q0, a), reach no
    acceptance, so no move leads there."""
    arena = make_branching()  # successors of v0: a, b
    positions = frozenset(arena.positions)
    t = Transducer(["q0"], positions, positions, "q0", ["q0"], [
        ("q0", "b", EPSILON, "q0"),
        ("q0", EPSILON, "a", "q0"),
        ("q0", EPSILON, "v0", "q0"),
        ("q0", "v0", "v0", "q0"),
        ("q0", "a", "b", "q0"),
        ("q0", EPSILON, EPSILON, "q0"),
    ], name="order")
    r = restrict_to_plays(t, arena)
    m = materialized(r)
    s = m.states
    assert s == (0, 2, 4, 5, 6, 7)
    assert [unnumbered(r, q) for q in s] == [
        (None, "q0", None), ("v0", "q0", "v0"), ("b", "q0", "v0"),
        ("v0", "q0", "a"), ("a", "q0", "b"), ("b", "q0", "a")]
    assert r.accepting == set(s[1:])
    assert m.transitions == (
        (s[0], "v0", "v0", s[1]), (s[0], EPSILON, EPSILON, s[0]),
        (s[1], "b", EPSILON, s[2]), (s[1], EPSILON, "a", s[3]),
        (s[1], "a", "b", s[4]), (s[1], EPSILON, EPSILON, s[1]),
        (s[2], EPSILON, "a", s[5]), (s[2], EPSILON, EPSILON, s[2]),
        (s[3], "b", EPSILON, s[5]), (s[3], EPSILON, EPSILON, s[3]),
        (s[4], EPSILON, EPSILON, s[4]),
        (s[5], EPSILON, EPSILON, s[5]),
    )


def obs_closure(arena, related_positions, max_len):
    """Inductive definition of the play equivalence, level by level."""
    related = {(p, q) for p in [(arena.initial,)] for q in [(arena.initial,)]
               if (arena.initial, arena.initial) in related_positions}
    frontier = set(related)
    for _ in range(max_len - 1):
        nxt = set()
        for r1, r2 in frontier:
            for v1 in arena.successors(r1[-1]):
                for v2 in arena.successors(r2[-1]):
                    if (v1, v2) in related_positions:
                        nxt.add((r1 + (v1,), r2 + (v2,)))
        related |= nxt
        frontier = nxt
    return related


def test_observation_equivalence_discrete_partition_is_identity():
    arena = make_branching(owner_v0=1)
    blocks = [(v,) for v in arena.positions if arena.owner[v] == 1]
    t = build_observation_equivalence(arena, blocks)
    plays = plays_up_to(arena, 4)
    for r1 in plays:
        for r2 in plays:
            assert recognizes(t, r1, r2) == (r1 == r2)


def test_observation_equivalence_single_class_action_sequences(rng):
    # one class of Player-1 positions: plays relate iff the action labels
    # (Player 2 position labels) match stepwise
    arena = make_branching(owner_v0=1)
    p1 = [v for v in arena.positions if arena.owner[v] == 1]
    t = build_observation_equivalence(arena, [tuple(p1)])
    related_positions = {(u, v) for u in arena.positions for v in arena.positions
                         if arena.owner[u] == arena.owner[v] == 1
                         or (arena.owner[u] == arena.owner[v] == 2
                             and arena.labels[u] == arena.labels[v])}
    want = obs_closure(arena, related_positions, 4)
    plays = plays_up_to(arena, 4)
    got = {(r1, r2) for r1 in plays for r2 in plays if recognizes(t, r1, r2)}
    assert got == want


def test_observation_equivalence_is_equivalence(rng):
    arena = make_branching(owner_v0=1)
    blocks = [("v0",), ("x", "y")]
    t = build_observation_equivalence(arena, blocks)
    plays = plays_up_to(arena, 4)
    related = {(r1, r2) for r1 in plays for r2 in plays if recognizes(t, r1, r2)}
    for r in plays:
        assert (r, r) in related
    for (r1, r2) in related:
        assert (r2, r1) in related
    for (r1, r2) in related:
        for (r3, r4) in related:
            if r2 == r3:
                assert (r1, r4) in related


def test_observation_equivalence_non_partition():
    arena = make_branching(owner_v0=1)
    with pytest.raises(EncodingError):
        build_observation_equivalence(arena, [("v0", "x"), ("x", "y")])
    with pytest.raises(EncodingError):
        build_observation_equivalence(arena, [("v0",)])


def test_morphism_injective_is_identity_on_plays():
    arena = make_branching()
    h = {v: f"obs-{v}" for v in arena.positions}
    t = build_morphism_equivalence(arena, h)
    plays = plays_up_to(arena, 4)
    for r1 in plays:
        for r2 in plays:
            assert recognizes(t, r1, r2) == (r1 == r2)


def test_morphism_constant_epsilon_relates_everything():
    arena = make_branching()
    h = {v: None for v in arena.positions}
    t = build_morphism_equivalence(arena, h)
    plays = plays_up_to(arena, 3)
    for r1 in plays:
        for r2 in plays:
            assert recognizes(t, r1, r2)


def test_morphism_two_colors_with_unobserved():
    arena = make_branching()
    h = {"v0": None, "a": "blue", "b": "blue", "x": "pink", "y": None}
    t = build_morphism_equivalence(arena, h)
    # v0 a x and v0 b y: images (blue pink) vs (blue): unrelated
    assert not recognizes(t, ("v0", "a", "x"), ("v0", "b", "y"))
    # v0 a and v0 b: both blue
    assert recognizes(t, ("v0", "a"), ("v0", "b"))
    # unobserved suffix is invisible
    assert recognizes(t, ("v0", "b"), ("v0", "b", "y"))
    # passing b twice adds a second observation
    assert not recognizes(t, ("v0", "a", "x"), ("v0", "b", "y", "b", "x"))


def test_morphism_totality_check():
    arena = make_g0()
    with pytest.raises(EncodingError):
        build_morphism_equivalence(arena, {"v0": None})


def test_trim_preserves_relation(rng):
    alphabet = frozenset(("a", "b"))
    words = words_up_to(sorted(alphabet), 3)
    for _ in range(10):
        t = random_transducer(rng, alphabet, max_states=4)
        slim = trim(t)
        assert len(slim.states) <= len(t.states)
        assert relation_on(slim, words) == relation_on(t, words)


def test_union_relation(rng):
    alphabet = frozenset(("a", "b"))
    words = words_up_to(sorted(alphabet), 3)
    t1 = identity_transducer(alphabet)
    t2 = length_transducer(alphabet)
    u = union(t1, t2)
    assert relation_on(u, words) == relation_on(t1, words) | relation_on(t2, words)


def test_play_projection_transducers():
    arena = make_g0()
    product = Arena([("v0", 0), ("v1", 0)], {("v0", 0): 1, ("v1", 0): 2},
                    [(("v0", 0), ("v1", 0)), (("v1", 0), ("v0", 0))],
                    ("v0", 0), {})
    down, up = play_projection_transducers(product, lambda p: p[0],
                                           plain_alphabet=arena.positions)
    assert recognizes(down, (("v0", 0), ("v1", 0)), ("v0", "v1"))
    assert not recognizes(down, (("v1", 0),), ("v1",))
    assert recognizes(up, ("v0", "v1"), (("v0", 0), ("v1", 0)))


def test_transducer_text_round_trip():
    text = """fst sample
state q0 init accept
state q1
trans q0 a - q1
trans q1 - b q0
"""
    t = parse_transducer(text)
    assert format_transducer(t) == text
    assert recognizes(t, ["a"], ["b"])


def test_transducer_parse_errors():
    with pytest.raises(InputFormatError):
        parse_transducer("state q0 accept\n")       # no init
    with pytest.raises(InputFormatError):
        parse_transducer("state q0 init\ntrans q0 a\n")
