"""Knowledge construction: powerset arenas over transducer configurations.

A power position pairs an arena position with a summary of every run the
relation transducer may be in after the play so far: the reachable state
set S and, per state, the set of positions that can currently sit at the
end of the output tape.  The local information set of a power position is
the union of last outputs over accepting states; it equals the set of
endpoints of related plays.

The construction is reachable-only and hash-conses power positions, so the
astronomically large full space is never materialized.  A relation is read
only through `initial`, `accepting`, `state_index` and `transitions_from`,
so the same code runs on a `Transducer` and on the `LiftedRelation` view
that carries it over to the plays of a covering arena: the power arena,
for the next round, or the outcome arena of a strategy, in strict checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from .arena import Arena, covering_step
from .graph import live, reachable
from .transducer import EPSILON, Transducer

__all__ = [
    "PowerPosition", "PowerArena", "power_step", "build_power_arena",
    "LiftedRelation", "lift_transducer",
]


@dataclass(frozen=True, slots=True)
class PowerPosition:
    """(underlying position, transducer state set, last-output map).

    `last` is canonicalized as a tuple of (state, sorted position tuple)
    association pairs sorted by state, so equal summaries hash equally.
    `info` is the derived local information set.  The hash of (v, states,
    last) is computed once, as positions are looked up far more often
    than they are made.
    """

    v: object
    states: frozenset
    last: tuple
    info: frozenset = field(compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.v, self.states, self.last)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # string hashes differ between processes: hash afresh when loaded
        return PowerPosition, (self.v, self.states, self.last, self.info)

    def last_of(self, q) -> frozenset:
        for state, outs in self.last:
            if state == q:
                return frozenset(outs)
        raise KeyError(q)

    def __str__(self):
        states = ",".join(str(q) for q in sorted(self.states, key=str))
        info = ",".join(str(u) for u in sorted(self.info, key=str))
        return f"{self.v}|S={{{states}}}|I={{{info}}}"


def _canonical(v, last_map, t: Transducer, position_order) -> PowerPosition:
    """The power position at v whose state set is the keys of last_map,
    each state mapped to its set of last outputs."""
    last = []
    info: set = set()
    for q in sorted(last_map, key=t.state_index.__getitem__):
        outs = last_map[q]
        last.append((q, tuple(sorted(outs, key=position_order))))
        if q in t.accepting:
            info.update(outs)
    return PowerPosition(v=v, states=frozenset(last_map), last=tuple(last),
                         info=frozenset(info))


def _pre_initial(t: Transducer, position_order) -> PowerPosition:
    return _canonical(None, {t.initial: ()}, t, position_order)


def power_step(current: PowerPosition, next_v, t: Transducer,
               arena: Arena) -> PowerPosition:
    """Deterministic successor summary after the play advances to next_v.

    next_v must be an arena successor of the current underlying position
    (or the initial position when stepping from the artificial start).
    Runs are explored by one closure per step, shared by all states of
    the summary.  A run that has written an output is a configuration
    (state, consumed, last output) that no longer depends on where it
    started, so each is expanded once.  Only runs that have written
    nothing yet are searched per source state, over (state, consumed);
    they bequeath the source's previous last outputs and join the shared
    closure at their first write.  Visited sets make epsilon-output
    cycles terminate.
    """
    if current.v is None:
        if next_v != arena.initial:
            raise ValueError(f"{next_v!r} is not the initial position")
    elif next_v not in arena.successors(current.v):
        raise ValueError(f"{next_v!r} is not an arena successor of {current.v!r}")

    moves = t.transitions_from
    new_last: dict = {}
    written: set = set()
    stack = []   # written configurations not yet expanded
    for q, inherited in current.last:
        todo = [(q, False)]
        seen = {(q, False)}
        while todo:
            state, consumed = todo.pop()
            if consumed:
                new_last.setdefault(state, set()).update(inherited)
            for a, b, state2 in moves(state):
                if a is EPSILON:
                    consumed2 = consumed
                elif not consumed and a == next_v:
                    consumed2 = True
                else:
                    continue
                if b is EPSILON:
                    conf = (state2, consumed2)
                    if conf not in seen:
                        seen.add(conf)
                        todo.append(conf)
                else:
                    conf = (state2, consumed2, b)
                    if conf not in written:
                        written.add(conf)
                        stack.append(conf)
    while stack:
        state, consumed, last = stack.pop()
        if consumed:
            new_last.setdefault(state, set()).add(last)
        for a, b, state2 in moves(state):
            if a is EPSILON:
                consumed2 = consumed
            elif not consumed and a == next_v:
                consumed2 = True
            else:
                continue
            conf = (state2, consumed2, last if b is EPSILON else b)
            if conf not in written:
                written.add(conf)
                stack.append(conf)
    return _canonical(next_v, new_last, t, _position_order(arena))


def _position_order(arena: Arena):
    def key(v):
        return arena.index(v) if v in arena else str(v)
    return key


class PowerArena:
    """One elimination round's power arena and the plain arena it covers.

    `arena` is the constructed game over power positions, `source` the
    arena it was built on, and `pre_initial` the artificial summary before
    the first position, which seeds the construction.  Each power position
    has one successor per plain successor of its `.v`, so `covering_step`
    with `down` = `.v` is the play bijection between the two arenas.
    """

    def __init__(self, source: Arena, arena: Arena, pre_initial: PowerPosition):
        self.source = source
        self.arena = arena
        self.pre_initial = pre_initial

    def lift_play(self, play) -> tuple:
        """The power play whose positions project onto the given play."""
        step = covering_step(self.arena, attrgetter("v"))
        current = None
        out = []
        for v in play:
            current = step[(current, v)]
            out.append(current)
        return tuple(out)


def build_power_arena(arena: Arena, t: Transducer, cap: int = 10 ** 6) -> PowerArena:
    """Reachable fragment of the powerset arena for (arena, t).

    The relation of t must already be restricted to pairs of plays.
    Raises CapExceeded when more than `cap` power positions are reached.
    """
    pre = _pre_initial(t, _position_order(arena))

    def successors(p):
        return [power_step(p, v2, t, arena) for v2 in arena.successors(p.v)]

    nodes, succ, _ = reachable([power_step(pre, arena.initial, t, arena)],
                               successors, cap, "power positions")
    power = Arena(
        positions=nodes,
        owner={p: arena.owner[p.v] for p in nodes},
        edges=[(p, nodes[j]) for p, row in zip(nodes, succ) for j in row],
        initial=nodes[0],
        labels={p: arena.labels[p.v] for p in nodes},
        name=f"pow({arena.name})",
    )
    return PowerArena(arena, power, pre)


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
    first.  Each state's moves are computed, and their targets numbered in
    `state_index`, when `transitions_from` first asks for them; `len`
    explores every reachable state once and remembers the count.

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
        self.state_index = {self.initial: 0}
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
        step, index = self._next, self.state_index
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
            target = (d2, q2, u2)
            index.setdefault(target, len(index))
            out.append((EPSILON if a is EPSILON else positions[d2],
                        EPSILON if b is EPSILON else positions[u2], target))
        moves = self._moves[state] = tuple(out)
        return moves

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
