"""Shared helpers: randomized instances and tiny independent oracles."""

import itertools
import os
import random
from collections import deque
from operator import attrgetter
from pathlib import Path

import pytest

import unistrat
from unistrat.arena import Arena, Strategy, covering_step
from unistrat.graph import reachable
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


def random_transducer(rng: random.Random, alphabet, max_states=5, moves=None):
    """Moves pick each tape's symbol uniformly from alphabet and epsilon;
    their number is `moves`, or random in [k, 3k] for k states."""
    k = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(k)]
    accepting = rng.sample(states, rng.randint(1, k))
    symbols = sorted(alphabet, key=str)
    transitions = []
    for _ in range(moves or rng.randint(k, 3 * k)):
        a = rng.choice(symbols + [EPSILON])
        b = rng.choice(symbols + [EPSILON])
        transitions.append((rng.choice(states), a, b, rng.choice(states)))
    return Transducer(states, alphabet, alphabet, "q0", accepting, transitions,
                      name="rand-fst")


def play_projection_transducers(arena: Arena, project, plain_alphabet=None) -> tuple:
    """Deterministic transducers between plays of a covering arena and their
    projections: the reference the lifted-relation views are tested against.

    `project` maps each arena position to its underlying symbol.  The first
    transducer reads a play of `arena` and writes its projection; the
    second reads a projection and writes the corresponding play, threading
    the current position through its own state.  Both accept exactly valid
    plays of `arena` on the structured tape.
    """
    start = ("proj-start",)
    states = [start] + list(arena.positions)
    down, up = [], []
    pairs = [(start, arena.initial)]
    pairs += [(src, dst) for src in arena.positions for dst in arena.successors(src)]
    for src, dst in pairs:
        down.append((src, dst, project(dst), dst))
        up.append((src, project(dst), dst, dst))
    structured = frozenset(arena.positions)
    if plain_alphabet is None:
        plain_alphabet = {project(v) for v in arena.positions}
    plain = frozenset(plain_alphabet)
    t_down = Transducer(states, structured, plain, start, list(arena.positions),
                        down, name="down")
    t_up = Transducer(states, plain, structured, start, list(arena.positions),
                      up, name="up")
    return t_down, t_up


def materialized(view) -> Transducer:
    """The reachable part of a relation view (`restrict_to_plays`,
    `lift_transducer`) as a `Transducer` with the same int states, over
    the positions of the arena it covers: what a reference composes,
    trims or prints."""
    states, _, _ = reachable([view.initial],
                             lambda s: [s2 for _, _, s2 in view.transitions_from(s)])
    transitions = [(s, a, b, s2) for s in states
                   for a, b, s2 in view.transitions_from(s)]
    alphabet = frozenset(view.covering.positions)
    return Transducer(states, alphabet, alphabet, view.initial,
                      [s for s in states if s in view.accepting], transitions)


def unnumbered(view, q) -> tuple:
    """(last position read, state of view.t, last position written) that
    state q of a view stands for, None before the first read or write."""
    d, state, _ = view._triples[q]
    return (None if d < 0 else view.covering.positions[d], state, view.written(q))


def lift_play(power, play) -> tuple:
    """The play of the power arena `power.arena` whose positions project
    onto the given play of `power.source`."""
    step = covering_step(power.arena, attrgetter("v"))
    current = None
    out = []
    for v in play:
        current = step[(current, v)]
        out.append(current)
    return tuple(out)


def info_set_bruteforce(arena: Arena, t: Transducer, rho) -> frozenset:
    """Endpoints of plays related to rho, by exact configuration search:
    the reference the power arena's information sets are tested against.

    Configurations pair a transducer state with the consumed input length
    and the last output position (which also serves as the play-prefix
    state of the output tape); related plays are never enumerated, only
    their reachable endpoints.
    """
    rho = tuple(rho)
    if not arena.is_play(rho):
        raise ValueError("rho is not a finite play of the arena")
    n = len(rho)
    start = (t.initial, 0, None)
    seen = {start}
    queue = deque([start])
    out = set()
    while queue:
        q, i, last_out = queue.popleft()
        if i == n and q in t.accepting and last_out is not None:
            out.add(last_out)
        for a, b, q2 in t.transitions_from(q):
            if a is EPSILON:
                i2 = i
            elif i < n and rho[i] == a:
                i2 = i + 1
            else:
                continue
            if b is EPSILON:
                out2 = last_out
            elif last_out is None and b == arena.initial:
                out2 = b
            elif last_out is not None and b in arena.successors(last_out):
                out2 = b
            else:
                continue
            conf = (q2, i2, out2)
            if conf not in seen:
                seen.add(conf)
                queue.append(conf)
    return frozenset(out)


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
