"""Knowledge construction: powerset arenas over relation states.

A power position pairs an arena position with a summary of every run the
relation may be in after the play so far: the set of states those runs
reach.  Every relation the construction reads is a `LiftedRelation`: the
relation of a transducer carried over to the plays of an arena that
covers its own.  Lifted onto the arena itself, it is the relation
restricted to pairs of plays (`transducer.restrict_to_plays`), which
round 1 reads; lifted onto the power arena, it serves the next round,
and onto the outcome arena of a strategy, strict checking.  A view
numbers its states as it finds them, under a cap, and records in each
the last position written, so summaries are sets of ints and the local
information set of a power position is what its accepting states wrote;
it equals the set of endpoints of related plays.

The construction is reachable-only and hash-conses power positions, so the
astronomically large full space is never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from .arena import Arena
from .errors import CapExceeded
from .graph import reachable
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
        states = ",".join(map(str, sorted(self.states)))
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
               t: LiftedRelation, arena: Arena) -> PowerPosition:
    """Deterministic successor summary after the play advances to next_v.

    next_v must be an arena successor of the current underlying position;
    current=None starts a play, and next_v must then be the initial
    position, and t a view onto the arena.  A step reads next_v from each
    state of the summary, then closes the states reached under
    epsilon-input moves.  A summary is closed already, so only the first
    step closes `t.initial` before its read.
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


def build_power_arena(arena: Arena, t: LiftedRelation,
                      cap: int = DEFAULT_CAPS.power_positions) -> PowerArena:
    """Reachable fragment of the powerset arena for (arena, t), seeded with
    the summary after the initial position.

    t is a view onto the arena, as `restrict_to_plays` and
    `lift_transducer` make them.  Raises CapExceeded when more than `cap`
    power positions are reached.
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


class LiftedRelation:
    """The relation of t carried over to plays of a covering arena,
    explored on demand, with its states numbered as they are found.

    A covering's positions project by `down` onto positions of t's arena,
    with at most one successor per position and projected successor: the
    arena itself (down the identity), the power arena (down p = p.v) and
    the outcome arena of a strategy (down o = o[0]) are coverings.  The
    view relates two covering plays iff t relates their projections
    (down . t . up), and both plays are nonempty.  Its state number n
    stands for a triple (d, q, u), kept for `written`: a state q of t with
    the numbers, in `covering.positions`, of the last covering position
    read (d) and written (u); -1 stands for before the first.  The initial
    state is 0, and `accepting` holds the numbers found so far whose q t
    accepts after both tapes hold a nonempty play.  So summaries over the
    view are sets of ints, and the view offers what the power construction
    reads of a relation: `initial`, `accepting`, `transitions_from` and
    `written`.  t may itself be a view.  Each state's moves are computed
    when `transitions_from` first asks for them, in t's order, and
    numbering a state past `cap` raises CapExceeded(what, ...); `len`
    explores every reachable state once and remembers the count.

    When t is a view, a state scans every move of its t state, which are
    few.  A raw `Transducer`, which `restrict_to_plays` lifts, may have
    hundreds per state, so the view indexes each raw state's moves the
    first time it reads them: reads by input symbol, epsilon-input writes
    by output symbol, and the epsilon/epsilon moves in a list, each move
    by its rank in t's list.  A state (d, q, u) then looks up only the
    reads of a successor of d, the epsilon-input writes of a successor of
    u and the epsilon/epsilon moves, merged back into t's order by rank.
    `drop_dead_states` lets the index go with the rest of what numbering
    needs.

    Over a covering with a successor for every plain successor, as the
    power arena has, the view is trim whenever t is trim.  Lifted onto
    its own arena, or onto the outcome arena, which keeps one edge at the
    strategy's positions, a relation has runs that die: `drop_dead_states`
    drops them.
    """

    def __init__(self, t, covering: Arena, down, cap=None, what="lifted relation states"):
        self.t = t
        self.covering = covering
        self.down = down
        self.cap = cap
        self.what = what
        self.initial = 0
        self.accepting: set = set()
        self._triples: list = []   # number -> (d, q, u)
        self._number: dict = {}    # (d, q, u) -> number
        self._moves: list = []     # number -> its moves, None until asked
        self._next = None
        self._index = {} if isinstance(t, Transducer) else None   # q -> its moves, ranks by symbol
        self._size = None
        self._state((-1, t.initial, -1))

    def _state(self, triple) -> int:
        """Number a newly found state."""
        n = len(self._triples)
        if self.cap is not None and n >= self.cap:
            raise CapExceeded(self.what, n + 1, self.cap)
        self._number[triple] = n
        self._triples.append(triple)
        self._moves.append(None)
        d, q, u = triple
        if d >= 0 and u >= 0 and q in self.t.accepting:
            self.accepting.add(n)
        return n

    def _successor_numbers(self) -> list:
        """Row i maps the projection of each successor of covering
        position i to that successor's number, and EPSILON to i itself;
        the last row, which -1 indexes, holds the initial position, the
        step from before the start."""
        covering, down = self.covering, self.down
        index = covering.index
        rows = [{EPSILON: i} | {down(o2): index(o2) for o2 in covering.successors(o)}
                for i, o in enumerate(covering.positions)]
        rows.append({EPSILON: -1, down(covering.initial): index(covering.initial)})
        return rows

    def transitions_from(self, state):
        moves = self._moves[state]
        if moves is not None:
            return moves
        if self._next is None:
            self._next = self._successor_numbers()
        number = self._number
        positions = self.covering.positions
        d, q, u = self._triples[state]
        if self._index is None:
            candidates = self.t.transitions_from(q)
        else:
            candidates = self._indexed_moves(q, self._next[d], self._next[u])
        reads, writes = self._next[d].get, self._next[u].get
        out = []
        for a, b, q2 in candidates:
            d2 = reads(a)
            if d2 is None:
                continue
            u2 = writes(b)
            if u2 is None:
                continue
            triple = (d2, q2, u2)
            n = number.get(triple)
            if n is None:
                n = self._state(triple)
            out.append((EPSILON if a is EPSILON else positions[d2],
                        EPSILON if b is EPSILON else positions[u2], n))
        moves = self._moves[state] = tuple(out)
        return moves

    def _indexed_moves(self, q, reads, writes) -> list:
        """The moves of raw state q that may follow rows `reads` and
        `writes` of `_successor_numbers`, in t's order: those reading a
        key of `reads`, the epsilon-input ones writing a key of `writes`,
        and the epsilon/epsilon ones."""
        index = self._index.get(q)
        if index is None:
            moves = self.t.transitions_from(q)
            by_read, by_write, silent = {}, {}, []
            for rank, (a, b, _) in enumerate(moves):
                if a is not EPSILON:
                    by_read.setdefault(a, []).append(rank)
                elif b is not EPSILON:
                    by_write.setdefault(b, []).append(rank)
                else:
                    silent.append(rank)
            index = self._index[q] = (moves, by_read, by_write, silent)
        moves, by_read, by_write, silent = index
        picked = [rank for a in reads for rank in by_read.get(a, ())]
        picked += [rank for b in writes for rank in by_write.get(b, ())]
        picked += silent
        picked.sort()
        return [moves[rank] for rank in picked]

    def written(self, state):
        """The covering position the state last wrote, or None if it has
        written none yet; accepting states have written one."""
        u = self._triples[state][2]
        return None if u < 0 else self.covering.positions[u]

    def _targets(self, state):
        return [n for _, _, n in self.transitions_from(state)]

    def drop_dead_states(self):
        """Explore the view once and drop every move into a state that
        reaches no accepting state, so the view is trim; the initial state
        stays, as in `transducer.trim`.  Every numbered state is
        reachable and numbering appends, so walking the numbers in order
        explores the whole view under its cap; one backward pass from the
        accepting numbers then finds the live ones.  No state is numbered
        after that, so the view lets go of what numbering needs."""
        n = 0
        while n < len(self._moves):
            self.transitions_from(n)
            n += 1
        pred: list = [[] for _ in self._moves]
        for n, moves in enumerate(self._moves):
            for _, _, m in moves:
                pred[m].append(n)
        found, _, _ = reachable(list(self.accepting), pred.__getitem__)
        if len(found) < len(self._moves):
            alive = set(found)
            for n, moves in enumerate(self._moves):
                self._moves[n] = tuple(m for m in moves if m[2] in alive)
        self._size = self._number = self._next = self._index = None

    def __len__(self):
        if self._size is None:
            nodes, _, _ = reachable([self.initial], self._targets)
            self._size = len(nodes)
        return self._size


def lift_transducer(t, power: PowerArena, cap=None) -> LiftedRelation:
    """Transport the relation of t to plays of the power arena, as a view
    computed on demand that numbers at most cap states (see
    `LiftedRelation`)."""
    return LiftedRelation(t, power.arena, attrgetter("v"), cap)
