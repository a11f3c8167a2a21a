"""Shared helpers: randomized instances and tiny independent oracles."""

import itertools
import os
import random
from pathlib import Path

import pytest

import unistrat
from unistrat.arena import Arena, Strategy
from unistrat.transducer import EPSILON, Transducer


def make_g0():
    """Two-position cycle: the smallest legal arena."""
    return Arena(["v0", "v1"], {"v0": 1, "v1": 2},
                 [("v0", "v1"), ("v1", "v0")], "v0",
                 {"v0": {"p"}, "v1": set()}, name="G0")


def make_branching(owner_v0=1):
    """One binary choice at v0, then two separate 2-cycles."""
    return Arena(
        ["v0", "a", "b", "x", "y"],
        {"v0": owner_v0, "a": 3 - owner_v0, "b": 3 - owner_v0,
         "x": owner_v0, "y": owner_v0},
        [("v0", "a"), ("v0", "b"), ("a", "x"), ("b", "y"),
         ("x", "a"), ("y", "b")],
        "v0",
        {"x": {"p"}, "a": {"p"}, "b": set(), "y": set(), "v0": set()},
        name="branching")


def random_arena(rng: random.Random, max_positions=8, props=("p", "q")):
    n = rng.randint(2, max_positions)
    names = [f"v{i}" for i in range(n)]
    owner = {"v0": 1, "v1": 2}
    for v in names[2:]:
        owner[v] = rng.randint(1, 2)
    side = {1: [v for v in names if owner[v] == 1],
            2: [v for v in names if owner[v] == 2]}
    edges = []
    for v in names:
        targets = side[3 - owner[v]]
        width = rng.choice((1, 1, 2, 2, 3))
        for t in rng.sample(targets, min(width, len(targets))):
            edges.append((v, t))
    labels = {v: frozenset(x for x in props if rng.random() < 0.4) for v in names}
    return Arena(names, owner, edges, "v0", labels, name="rand")


def random_transducer(rng: random.Random, alphabet, max_states=5):
    k = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(k)]
    accepting = rng.sample(states, rng.randint(1, k))
    symbols = sorted(alphabet, key=str)
    transitions = []
    for _ in range(rng.randint(k, 3 * k)):
        a = rng.choice(symbols + [EPSILON])
        b = rng.choice(symbols + [EPSILON])
        transitions.append((rng.choice(states), a, b, rng.choice(states)))
    return Transducer(states, alphabet, alphabet, "q0", accepting, transitions,
                      name="rand-fst")


def positional_strategies(arena: Arena, player: int):
    """Every memoryless strategy of the player, deterministic order."""
    owned = [v for v in arena.positions if arena.owner[v] == player]
    for combo in itertools.product(*(arena.successors(v) for v in owned)):
        update = {("m", v): "m" for v in arena.positions}
        choice = {("m", v): t for v, t in zip(owned, combo)}
        yield Strategy(player, "m", update, choice)


def plays_up_to(arena: Arena, max_len: int):
    out = [(arena.initial,)]
    frontier = [(arena.initial,)]
    for _ in range(max_len - 1):
        nxt = []
        for play in frontier:
            for v in arena.successors(play[-1]):
                nxt.append(play + (v,))
        out.extend(nxt)
        frontier = nxt
    return out


def lassos_of(arena: Arena, max_visits=2, limit=None):
    """Lassos (stem, cycle) over paths where no position occurs more than
    max_visits times, a cycle closing at every earlier occurrence of the
    repeated position; small arenas only."""
    lassos = []
    seen = set()

    def walk(path):
        last = path[-1]
        for v in arena.successors(last):
            if limit is not None and len(lassos) >= limit:
                return
            for idx, u in enumerate(path):
                if u != v:
                    continue
                item = (tuple(path[:idx]), tuple(path[idx:]))
                if item not in seen:
                    seen.add(item)
                    lassos.append(item)
            if path.count(v) < max_visits:
                walk(path + [v])

    walk([arena.initial])
    return lassos


def child_env(*paths, **variables):
    """Environment for a child interpreter that imports this unistrat (and
    the given paths) however the test run found it, plus the variables."""
    path = [*map(str, paths), str(Path(unistrat.__file__).parents[1]),
            os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
                **variables)


@pytest.fixture
def rng():
    return random.Random(20240811)
