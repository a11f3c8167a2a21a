import pytest

from conftest import make_branching, make_g0, plays_up_to
from unistrat.arena import (Arena, Strategy, enumerate_plays, format_arena,
                            format_strategy, outcome_arena, parse_arena,
                            parse_strategy, validate)
from unistrat.errors import InputFormatError, PartialStrategyError


def test_validate_minimal_legal_arena():
    assert validate(make_g0()) == []


def test_validate_non_alternating_edge():
    bad = Arena(["v0", "v2"], {"v0": 1, "v2": 1},
                [("v0", "v2"), ("v2", "v0")], "v0", {})
    diags = validate(bad)
    assert any("non-alternating" in d for d in diags)


def test_validate_dead_end():
    bad = Arena(["v0", "v1"], {"v0": 1, "v1": 2}, [("v0", "v1")], "v0", {})
    diags = validate(bad)
    assert any("dead end" in d for d in diags)


def test_dead_ends_recorded_in_declaration_order():
    # an edge to an undeclared position leaves its source a dead end
    arena = Arena(["v2", "v0", "v1"], {"v0": 1, "v1": 2, "v2": 2},
                  [("v0", "v1"), ("v1", "v9")], "v0", {})
    assert arena.dead_ends == ("v2", "v1")
    assert [d for d in validate(arena) if "dead end" in d] == [
        "dead end: position 'v2' has no successor",
        "dead end: position 'v1' has no successor"]
    assert make_g0().dead_ends == ()


def test_outcome_arena_unique_play():
    g0 = make_g0()
    sigma = Strategy(1, "m", {("m", "v0"): "m", ("m", "v1"): "m"},
                     {("m", "v0"): "v1"})
    product = outcome_arena(g0, sigma)
    assert len(product) == 2
    assert validate(product) == []
    assert [p[0] for p in product.positions] == ["v0", "v1"]


def test_outcome_arena_prunes_branch():
    arena = make_branching(owner_v0=1)
    update = {("m", v): "m" for v in arena.positions}
    choice = {("m", "v0"): "a", ("m", "x"): "a", ("m", "y"): "b"}
    product = outcome_arena(arena, Strategy(1, "m", update, choice))
    assert all(p[0] != "b" for p in product.positions)
    assert all(p[0] != "y" for p in product.positions)


def test_outcome_arena_two_memory_alternation():
    """A strategy alternating choices needs both memory states in the product."""
    arena = make_branching(owner_v0=1)
    # memory flips whenever x is visited; at x the choice depends on memory
    update = {}
    for m in ("m0", "m1"):
        for v in arena.positions:
            update[(m, v)] = ("m1" if m == "m0" else "m0") if v == "x" else m
    choice = {("m0", "v0"): "a", ("m1", "v0"): "a",
              ("m0", "x"): "a", ("m1", "x"): "a", ("m0", "y"): "b", ("m1", "y"): "b"}
    product = outcome_arena(arena, Strategy(1, ("m0"), update, choice))

    # independent closure over (position, memory) from the initial update
    expected = set()
    frontier = [("v0", "m0")]
    seen = {("v0", "m0")}
    while frontier:
        v, m = frontier.pop()
        expected.add((v, m))
        targets = ["a"] if v == "v0" else (
            ["a"] if v == "x" else arena.successors(v))
        for v2 in targets:
            m2 = ("m1" if m == "m0" else "m0") if v2 == "x" else m
            if (v2, m2) not in seen:
                seen.add((v2, m2))
                frontier.append((v2, m2))
    assert set(product.positions) == expected
    assert len(product) == len(expected)


def test_outcome_arena_partial_strategy():
    g0 = make_g0()
    sigma = Strategy(1, "m", {("m", "v0"): "m", ("m", "v1"): "m"}, {})
    with pytest.raises(PartialStrategyError):
        outcome_arena(g0, sigma)


def test_enumerate_plays_examples():
    g0 = make_g0()
    assert enumerate_plays(g0, 3) == [("v0", "v1", "v0")]
    assert enumerate_plays(g0, 1) == [("v0",)]
    assert len(enumerate_plays(make_branching(), 2)) == 2


def test_enumerate_plays_extension_property():
    arena = make_branching()
    for k in range(2, 6):
        shorter = set(enumerate_plays(arena, k - 1))
        for play in enumerate_plays(arena, k):
            assert play[:-1] in shorter
            assert play[-1] in arena.successors(play[-2])


def test_outcome_plays_match_direct_simulation():
    arena = make_branching(owner_v0=1)
    update = {("m", v): "m" for v in arena.positions}
    choice = {("m", "v0"): "b", ("m", "x"): "a", ("m", "y"): "b"}
    sigma = Strategy(1, "m", update, choice)
    product = outcome_arena(arena, sigma)
    for k in range(1, 6):
        product_plays = {tuple(p[0] for p in play)
                         for play in enumerate_plays(product, k)}
        direct = set()
        for play in enumerate_plays(arena, k):
            consistent = all(
                arena.owner[play[i]] != 1 or play[i + 1] == sigma.move_after(play[:i + 1])
                for i in range(len(play) - 1))
            if consistent:
                direct.add(play)
        assert product_plays == direct


def test_outcome_arena_labels_subset():
    arena = make_branching(owner_v0=1)
    update = {("m", v): "m" for v in arena.positions}
    choice = {("m", "v0"): "a", ("m", "x"): "a", ("m", "y"): "b"}
    product = outcome_arena(arena, Strategy(1, "m", update, choice))
    assert product.propositions <= arena.propositions


def test_arena_text_round_trip():
    text = format_arena(make_branching())
    again = parse_arena(text)
    assert format_arena(again) == text


def test_arena_parse_errors():
    with pytest.raises(InputFormatError):
        parse_arena("pos v0 owner=1 labels=\ninit v0\nedge v0 v9\n")
    with pytest.raises(InputFormatError):
        parse_arena("pos v0 owner=3 labels=\ninit v0\n")
    with pytest.raises(InputFormatError):
        parse_arena("pos v0 owner=1 labels=\n")


def test_strategy_text_round_trip():
    sigma = Strategy(1, "m0",
                     {("m0", "v0"): "m1", ("m1", "v1"): "m0"},
                     {("m0", "v0"): "v1"})
    text = format_strategy(sigma)
    again = parse_strategy(text)
    assert format_strategy(again) == text
    assert again.player == 1
    assert again.initial_memory == "m0"


def test_plays_up_to_helper_matches_enumerate():
    arena = make_branching()
    helper = [p for p in plays_up_to(arena, 4) if len(p) == 3]
    assert set(helper) == set(enumerate_plays(arena, 3))
