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
that carries it over to power plays for the next round.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .arena import Arena
from .errors import CapExceeded
from .graph import reachable
from .transducer import EPSILON, Transducer

__all__ = [
    "PowerPosition", "PowerArena", "power_step", "build_power_arena",
    "info_set_bruteforce", "LiftedRelation", "lift_transducer",
]

_INHERIT = object()  # closure marker: nothing written yet on this run


@dataclass(frozen=True, slots=True)
class PowerPosition:
    """(underlying position, transducer state set, last-output map).

    `last` is canonicalized as a tuple of (state, sorted position tuple)
    association pairs sorted by state, so equal summaries hash equally.
    `info` is the derived local information set.
    """

    v: object
    states: frozenset
    last: tuple
    info: frozenset = field(compare=False)

    def last_of(self, q) -> frozenset:
        for state, outs in self.last:
            if state == q:
                return frozenset(outs)
        raise KeyError(q)

    def __str__(self):
        states = ",".join(str(q) for q in sorted(self.states, key=str))
        info = ",".join(str(u) for u in sorted(self.info, key=str))
        return f"{self.v}|S={{{states}}}|I={{{info}}}"


def _canonical(v, state_set, last_map, t: Transducer, position_order) -> PowerPosition:
    states = frozenset(state_set)
    last = tuple(
        (q, tuple(sorted(last_map.get(q, ()), key=position_order)))
        for q in sorted(states, key=t.state_index.__getitem__)
    )
    info = frozenset().union(
        *(set(outs) for q, outs in last if q in t.accepting)) if states else frozenset()
    return PowerPosition(v=v, states=states, last=last, info=frozenset(info))


def _pre_initial(t: Transducer, position_order) -> PowerPosition:
    return _canonical(None, {t.initial}, {t.initial: ()}, t, position_order)


def power_step(current: PowerPosition, next_v, t: Transducer,
               arena: Arena) -> PowerPosition:
    """Deterministic successor summary after the play advances to next_v.

    next_v must be an arena successor of the current underlying position
    (or the initial position when stepping from the artificial start).
    Runs are explored by depth-first closure over (state, consumed, last
    output) configurations, so epsilon-output cycles terminate; a run that
    writes nothing bequeaths the previous last-output set of its source.
    """
    if current.v is None:
        if next_v != arena.initial:
            raise ValueError(f"{next_v!r} is not the initial position")
    elif next_v not in arena.successors(current.v):
        raise ValueError(f"{next_v!r} is not an arena successor of {current.v!r}")

    new_states = set()
    new_last: dict = {}
    for q, outs in current.last:
        inherited = outs
        stack = [(q, False, _INHERIT)]
        seen = {(q, False, _INHERIT)}
        while stack:
            state, consumed, last = stack.pop()
            if consumed:
                new_states.add(state)
                bucket = new_last.setdefault(state, set())
                if last is _INHERIT:
                    bucket.update(inherited)
                else:
                    bucket.add(last)
            for a, b, state2 in t.transitions_from(state):
                if a is EPSILON:
                    consumed2 = consumed
                elif not consumed and a == next_v:
                    consumed2 = True
                else:
                    continue
                last2 = last if b is EPSILON else b
                conf = (state2, consumed2, last2)
                if conf not in seen:
                    seen.add(conf)
                    stack.append(conf)
    order = _position_order(arena)
    return _canonical(next_v, new_states, new_last, t, order)


def _position_order(arena: Arena):
    def key(v):
        return arena.index(v) if v in arena else str(v)
    return key


class PowerArena:
    """Arena over power positions plus the play bijection witnesses.

    `arena` is the constructed game; `step` is the deterministic successor
    map keyed by (power position, next underlying position); the artificial
    pre-initial summary seeds the construction.
    """

    def __init__(self, source: Arena, transducer: Transducer, arena: Arena,
                 pre_initial: PowerPosition, step_map: dict):
        self.source = source
        self.transducer = transducer
        self.arena = arena
        self.pre_initial = pre_initial
        self._step = step_map

    def step(self, power_pos: PowerPosition, v) -> PowerPosition:
        return self._step[(power_pos, v)]

    def down(self, power_pos: PowerPosition):
        return power_pos.v

    def lift_play(self, play) -> tuple:
        current = self.pre_initial
        out = []
        for v in play:
            current = self.step(current, v)
            out.append(current)
        return tuple(out)

    def project_play(self, power_play) -> tuple:
        return tuple(p.v for p in power_play)


def build_power_arena(arena: Arena, t: Transducer, cap: int = 10 ** 6) -> PowerArena:
    """Reachable fragment of the powerset arena for (arena, t).

    The relation of t must already be restricted to pairs of plays.
    Raises CapExceeded when more than `cap` power positions are reached.
    """
    order = _position_order(arena)
    pre = _pre_initial(t, order)
    interned: dict = {}

    def intern(p: PowerPosition) -> PowerPosition:
        return interned.setdefault(p, p)

    initial = intern(power_step(pre, arena.initial, t, arena))
    positions = [initial]
    discovered = {initial}
    step_map = {(pre, arena.initial): initial}
    edges = []
    queue = deque([initial])
    while queue:
        current = queue.popleft()
        for v2 in arena.successors(current.v):
            nxt = intern(power_step(current, v2, t, arena))
            step_map[(current, v2)] = nxt
            edges.append((current, nxt))
            if nxt not in discovered:
                discovered.add(nxt)
                positions.append(nxt)
                queue.append(nxt)
                if len(positions) > cap:
                    raise CapExceeded("power positions", len(positions), cap)
    power = Arena(
        positions=positions,
        owner={p: arena.owner[p.v] for p in positions},
        edges=edges,
        initial=initial,
        labels={p: arena.labels[p.v] for p in positions},
        name=f"pow({arena.name})",
    )
    return PowerArena(arena, t, power, pre, step_map)


def info_set_bruteforce(arena: Arena, t: Transducer, rho) -> frozenset:
    """Endpoints of plays related to rho, by exact configuration search.

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
    """The relation of t carried over to power plays, explored on demand.

    It relates two power plays iff t relates their underlying plays: the
    composition down . t . up, where down projects a power play to its play
    and up lifts a play to its unique power play.  Both are deterministic,
    so a state (d, q, u) pairs a state q of t with the numbers, in
    `power.arena.positions`, of the last power position read (d) and
    written (u); -1 stands for the pre-initial summary, before the first.
    Each state's moves are computed, and their targets numbered in
    `state_index`, when `transitions_from` first asks for them; `len`
    explores every reachable state once and remembers the count.  The view
    is trim whenever t is trimmed and restricted to pairs of plays.
    """

    def __init__(self, t, power: PowerArena):
        self.t = t
        self.power = power
        self.initial = (-1, t.initial, -1)
        self.accepting = _Accepting(t.accepting)
        self.state_index = {self.initial: 0}
        self._moves: dict = {}
        self._step = None
        self._size = None

    def _numbered_step(self) -> dict:
        """(number of power position, next position) -> number of its
        successor, with -1 for the pre-initial summary."""
        ids = {p: i for i, p in enumerate(self.power.arena.positions)}
        ids[self.power.pre_initial] = -1
        return {(ids[p], v): ids[p2] for (p, v), p2 in self.power._step.items()}

    def transitions_from(self, state):
        moves = self._moves.get(state)
        if moves is not None:
            return moves
        if self._step is None:
            self._step = self._numbered_step()
        step, index = self._step, self.state_index
        positions = self.power.arena.positions
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

    def __len__(self):
        if self._size is None:
            nodes, _, _ = reachable(
                [self.initial],
                lambda s: [q2 for _, _, q2 in self.transitions_from(s)])
            self._size = len(nodes)
        return self._size


def lift_transducer(t, power: PowerArena) -> LiftedRelation:
    """Transport the relation of t to plays of the power arena, as a view
    computed on demand (see `LiftedRelation`)."""
    return LiftedRelation(t, power)
