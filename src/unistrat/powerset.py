"""Knowledge construction: powerset arenas over relation states.

A power position pairs an arena position with a summary of every run the
relation may be in after the play so far: the set of states those runs
reach.  Each relation the construction reads records its last written
symbol in its state (`written`), so the local information set of a power
position is what its accepting states wrote; it equals the set of
endpoints of related plays.

The construction is reachable-only and hash-conses power positions, so the
astronomically large full space is never materialized.  A relation is read
only through `initial`, `accepting`, `transitions_from` and `written`, so
the same code runs on a play-restricted `Transducer` and on the
`LiftedRelation` view that carries it over to the plays of a covering
arena: the power arena, for the next round, or the outcome arena of a
strategy, in strict checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from .arena import Arena, covering_step
from .graph import live, reachable
from .ltlgame import DEFAULT_CAPS
from .transducer import EPSILON, Transducer

__all__ = [
    "PowerPosition", "PowerArena", "power_step", "build_power_arena",
    "LiftedRelation", "lift_transducer",
]


class PowerPosition(NamedTuple):
    """(underlying position, set of relation states, info).

    `states` is the frozenset of states the relation may be in after the
    play so far, so equal summaries are equal sets whatever the order they
    were found in.  `info` is the derived local information set: the
    symbols its accepting states wrote last, a function of `states`, so
    positions of one power arena are equal iff their (v, states) are.  As
    a tuple, a position hashes and compares in C over the frozensets'
    cached hashes, and a loaded pickle hashes afresh.
    """

    v: object
    states: frozenset
    info: frozenset

    def __str__(self):
        states = ",".join(str(q) for q in sorted(self.states, key=str))
        info = ",".join(str(u) for u in sorted(self.info, key=str))
        return f"{self.v}|S={{{states}}}|I={{{info}}}"


def _close(states: set, moves) -> set:
    """Add to `states` every state reached from it by epsilon-input moves."""
    stack = list(states)
    while stack:
        for a, _, q2 in moves(stack.pop()):
            if a is EPSILON and q2 not in states:
                states.add(q2)
                stack.append(q2)
    return states


def power_step(current: PowerPosition | None, next_v,
               t: Transducer | LiftedRelation, arena: Arena) -> PowerPosition:
    """Deterministic successor summary after the play advances to next_v.

    next_v must be an arena successor of the current underlying position;
    current=None starts a play, and next_v must then be the initial
    position.  t is a play-restricted `Transducer` or a `LiftedRelation`.
    A step reads next_v from each state of the summary, then closes the
    states reached under epsilon-input moves.  A summary is closed already,
    so only the first step closes `t.initial` before its read.
    """
    moves = t.transitions_from
    if current is None:
        if next_v != arena.initial:
            raise ValueError(f"{next_v!r} is not the initial position")
        sources = _close({t.initial}, moves)
    elif next_v not in arena.successors(current.v):
        raise ValueError(f"{next_v!r} is not an arena successor of {current.v!r}")
    else:
        sources = current.states
    states = _close({q2 for q in sources for a, _, q2 in moves(q) if a == next_v},
                    moves)
    info = frozenset(t.written(q) for q in states if q in t.accepting)
    return PowerPosition(next_v, frozenset(states), info)


@dataclass(frozen=True)
class PowerArena:
    """One elimination round's power arena and the plain arena it covers.

    `arena` is the constructed game over power positions and `source` the
    arena it was built on.  Each power position has one successor per
    plain successor of its `.v`, so `covering_step` with `down` = `.v` is
    the play bijection between the two arenas.
    """

    source: Arena
    arena: Arena


def build_power_arena(arena: Arena, t: Transducer | LiftedRelation,
                      cap: int = DEFAULT_CAPS.power_positions) -> PowerArena:
    """Reachable fragment of the powerset arena for (arena, t), seeded with
    the summary after the initial position.

    The relation of t must already be restricted to pairs of plays, with
    states that record their last write, as `restrict_to_plays` and
    `lift_transducer` make them.  Raises CapExceeded when more than `cap` power positions are reached.
    """
    def successors(p):
        return [power_step(p, v2, t, arena) for v2 in arena.successors(p.v)]

    nodes, succ, _ = reachable([power_step(None, arena.initial, t, arena)],
                               successors, cap, "power positions")
    power = Arena(
        positions=nodes,
        owner={p: arena.owner[p.v] for p in nodes},
        edges=[(p, nodes[j]) for p, row in zip(nodes, succ) for j in row],
        initial=nodes[0],
        labels={p: arena.labels[p.v] for p in nodes},
        name=f"pow({arena.name})",
    )
    return PowerArena(arena, power)


class _Accepting:
    """Accepting states of a lifted relation: t accepts and both tapes
    hold a nonempty power play."""

    __slots__ = ("_accepting",)

    def __init__(self, accepting):
        self._accepting = accepting

    def __contains__(self, state):
        d, q, u = state
        return d >= 0 and u >= 0 and q in self._accepting


class LiftedRelation:
    """The relation of t carried over to plays of a covering arena,
    explored on demand.

    A covering's positions project by `down` onto positions of t's arena,
    with at most one successor per position and projected successor: the
    power arena (down p = p.v) and the outcome arena of a strategy
    (down o = o[0]) are coverings.  The view relates two covering plays iff
    t relates their projections (down . t . up).  A state (d, q, u) pairs
    a state q of t with the numbers, in `covering.positions`, of the last
    covering position read (d) and written (u); -1 stands for before the
    first.  The view offers what the power construction reads of a
    relation: `initial`, `accepting`, `transitions_from` and `written`.
    Each state's moves are computed when `transitions_from` first asks for
    them; `len` explores every reachable state once and remembers the
    count.

    Over a covering with a successor for every plain successor, as the
    power arena has, the view is trim whenever t is trimmed and restricted
    to pairs of plays.  The outcome arena keeps one edge at the strategy's
    positions, so runs of t die there: strict `check_uniform` drops them
    with `drop_dead_states`.
    """

    def __init__(self, t, covering: Arena, down):
        self.t = t
        self.covering = covering
        self.down = down
        self.initial = (-1, t.initial, -1)
        self.accepting = _Accepting(t.accepting)
        self._moves: dict = {}
        self._next = None
        self._size = None

    def _numbered_edges(self) -> dict:
        """`covering_step` on position numbers; -1 numbers the point
        before the initial position."""
        index = self.covering.index
        return {(-1 if o is None else index(o), v): index(o2)
                for (o, v), o2 in covering_step(self.covering, self.down).items()}

    def transitions_from(self, state):
        moves = self._moves.get(state)
        if moves is not None:
            return moves
        if self._next is None:
            self._next = self._numbered_edges()
        step = self._next
        positions = self.covering.positions
        d, q, u = state
        out = []
        for a, b, q2 in self.t.transitions_from(q):
            d2, u2 = d, u
            if a is not EPSILON:
                d2 = step.get((d, a))
                if d2 is None:
                    continue
            if b is not EPSILON:
                u2 = step.get((u, b))
                if u2 is None:
                    continue
            out.append((EPSILON if a is EPSILON else positions[d2],
                        EPSILON if b is EPSILON else positions[u2], (d2, q2, u2)))
        moves = self._moves[state] = tuple(out)
        return moves

    def written(self, state):
        """The covering position the state last wrote; the state must
        have written one, as accepting states have."""
        return self.covering.positions[state[2]]

    def _targets(self, state):
        return [s2 for _, _, s2 in self.transitions_from(state)]

    def drop_dead_states(self, cap=None, what="lifted relation states"):
        """Explore the view once and drop every move into a state that
        reaches no accepting state, so the view is trim; the initial state
        stays, as in `transducer.trim`.  Raises CapExceeded once more than
        cap states are reached."""
        nodes, alive = live([self.initial], self._targets,
                            self.accepting.__contains__, cap, what)
        if len(alive) < len(nodes):
            for s in nodes:
                self._moves[s] = tuple(m for m in self._moves[s] if m[2] in alive)
        self._size = None

    def __len__(self):
        if self._size is None:
            nodes, _, _ = reachable([self.initial], self._targets)
            self._size = len(nodes)
        return self._size


def lift_transducer(t, power: PowerArena) -> LiftedRelation:
    """Transport the relation of t to plays of the power arena, as a view
    computed on demand (see `LiftedRelation`)."""
    return LiftedRelation(t, power.arena, attrgetter("v"))
