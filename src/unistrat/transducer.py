"""Finite state transducers over position alphabets.

A transducer is a nondeterministic two-tape automaton; transitions read one
input symbol or nothing and write one output symbol or nothing (epsilon is
represented by None).  The recognized relation is the set of word pairs
labelling paths from the initial state to an accepting state.
"""

from __future__ import annotations

from collections import deque

from .arena import Arena, _directives, _pos_id
from .errors import EncodingError, InputFormatError
from .graph import live

__all__ = [
    "EPSILON", "Transducer", "recognizes", "compose", "trim", "union",
    "check_alphabet", "restrict_to_plays", "position_groups",
    "build_observation_equivalence",
    "build_morphism_equivalence", "identity_transducer", "length_transducer",
    "parse_transducer", "format_transducer",
]

EPSILON = None


class Transducer:
    def __init__(self, states, input_alphabet, output_alphabet, initial,
                 accepting, transitions, name="fst"):
        self.name = name
        self.states = tuple(dict.fromkeys(states))
        self.input_alphabet = frozenset(input_alphabet)
        self.output_alphabet = frozenset(output_alphabet)
        self.initial = initial
        self.accepting = frozenset(accepting)
        self.transitions = tuple(dict.fromkeys(transitions))
        by_state: dict = {q: [] for q in self.states}
        if self.initial not in by_state:
            raise InputFormatError(f"initial state {self.initial!r} not declared")
        for q in self.accepting:
            if q not in by_state:
                raise InputFormatError(f"accepting state {q!r} not declared")
        for q, a, b, q2 in self.transitions:
            if q not in by_state or q2 not in by_state:
                raise InputFormatError(f"transition references undeclared state: {(q, a, b, q2)!r}")
            if a is not EPSILON and a not in self.input_alphabet:
                raise InputFormatError(f"transition reads undeclared symbol {a!r}")
            if b is not EPSILON and b not in self.output_alphabet:
                raise InputFormatError(f"transition writes undeclared symbol {b!r}")
            by_state[q].append((a, b, q2))
        self._from = {q: tuple(ts) for q, ts in by_state.items()}

    def transitions_from(self, q):
        return self._from[q]

    def __len__(self):
        return len(self.states)


def recognizes(t: Transducer, w, w2) -> bool:
    """Is (w, w2) in the relation recognized by t?

    Decided by search over configurations (state, consumed, produced); the
    visited set makes epsilon cycles harmless.
    """
    w, w2 = tuple(w), tuple(w2)
    n, m = len(w), len(w2)
    start = (t.initial, 0, 0)
    seen = {start}
    queue = deque([start])
    while queue:
        q, i, j = queue.popleft()
        if i == n and j == m and q in t.accepting:
            return True
        for a, b, q2 in t.transitions_from(q):
            if a is EPSILON:
                i2 = i
            elif i < n and w[i] == a:
                i2 = i + 1
            else:
                continue
            if b is EPSILON:
                j2 = j
            elif j < m and w2[j] == b:
                j2 = j + 1
            else:
                continue
            conf = (q2, i2, j2)
            if conf not in seen:
                seen.add(conf)
                queue.append(conf)
    return False


def compose(t1: Transducer, t2: Transducer, name=None) -> Transducer:
    """Transducer for the relational composition [t1] o [t2].

    Product over synchronized symbols: an output x of t1 pairs with a read
    of x by t2; epsilon-output moves of t1 and epsilon-input moves of t2
    advance alone.  Only states reachable from the initial pair are kept.
    """
    if t1.output_alphabet != t2.input_alphabet:
        raise EncodingError("alphabet mismatch: composition requires "
                            "output alphabet of t1 = input alphabet of t2")
    t2_by_in: dict = {q: {} for q in t2.states}
    t2_eps_in: dict = {q: [] for q in t2.states}
    for q, a, b, q2 in t2.transitions:
        if a is EPSILON:
            t2_eps_in[q].append((b, q2))
        else:
            t2_by_in[q].setdefault(a, []).append((b, q2))

    init = (t1.initial, t2.initial)
    order = {init: None}
    transitions = []
    queue = deque([init])
    while queue:
        q1, q2 = queue.popleft()
        moves = []
        for a, x, q1b in t1.transitions_from(q1):
            if x is EPSILON:
                moves.append((a, EPSILON, (q1b, q2)))
            else:
                for b, q2b in t2_by_in[q2].get(x, ()):
                    moves.append((a, b, (q1b, q2b)))
        for b, q2b in t2_eps_in[q2]:
            moves.append((EPSILON, b, ((q1, q2b))))
        for a, b, tgt in moves:
            transitions.append(((q1, q2), a, b, tgt))
            if tgt not in order:
                order[tgt] = None
                queue.append(tgt)
    accepting = [s for s in order if s[0] in t1.accepting and s[1] in t2.accepting]
    return Transducer(
        states=list(order),
        input_alphabet=t1.input_alphabet,
        output_alphabet=t2.output_alphabet,
        initial=init,
        accepting=accepting,
        transitions=transitions,
        name=name or f"{t1.name}o{t2.name}",
    )


def trim(t: Transducer) -> Transducer:
    """Remove states that are unreachable or cannot reach acceptance.

    Preserves the recognized relation and the order of states and
    transitions; the initial state is always kept.  Returns t itself
    when it would keep every state.
    """
    _, keep = live([t.initial], lambda q: [q2 for _, _, q2 in t.transitions_from(q)],
                   t.accepting.__contains__)
    keep.add(t.initial)
    if len(keep) == len(t.states):
        return t
    return Transducer(
        states=[q for q in t.states if q in keep],
        input_alphabet=t.input_alphabet,
        output_alphabet=t.output_alphabet,
        initial=t.initial,
        accepting=[q for q in t.accepting if q in keep],
        transitions=[tr for tr in t.transitions if tr[0] in keep and tr[3] in keep],
        name=t.name,
    )


def union(t1: Transducer, t2: Transducer, name=None) -> Transducer:
    """Transducer for [t1] | [t2] (fresh start with epsilon moves to both)."""
    if (t1.input_alphabet != t2.input_alphabet
            or t1.output_alphabet != t2.output_alphabet):
        raise EncodingError("alphabet mismatch in transducer union")
    start = "u0"
    states = [start] + [(0, q) for q in t1.states] + [(1, q) for q in t2.states]
    transitions = [
        (start, EPSILON, EPSILON, (0, t1.initial)),
        (start, EPSILON, EPSILON, (1, t2.initial)),
    ]
    transitions += [((0, q), a, b, (0, q2)) for q, a, b, q2 in t1.transitions]
    transitions += [((1, q), a, b, (1, q2)) for q, a, b, q2 in t2.transitions]
    accepting = [(0, q) for q in t1.accepting] + [(1, q) for q in t2.accepting]
    return Transducer(states, t1.input_alphabet, t1.output_alphabet, start,
                      accepting, transitions, name=name or f"{t1.name}|{t2.name}")


def check_alphabet(t: Transducer, arena: Arena) -> None:
    """Reject a transducer that reads or writes a symbol that is not an
    arena position, naming the first such symbol."""
    stray = (t.input_alphabet | t.output_alphabet) - frozenset(arena.positions)
    if stray:
        raise EncodingError(
            f"transducer symbol {sorted(map(str, stray))[0]!r} is not an "
            "arena position")


def restrict_to_plays(t: Transducer, arena: Arena, cap=None):
    """The relation of t on pairs of nonempty finite plays of the arena,
    trimmed: the lift of trim(t) onto the arena itself, with `down` the
    identity, and its dead states dropped (see `powerset.LiftedRelation`).
    Trimming t first spares the lift the runs through t's own dead
    states.

    Its states are numbered, at most cap of them, each standing for a
    state of t with the last position read and written; both tapes read
    arena positions, and moves keep t's order.
    """
    from .powerset import LiftedRelation   # powerset imports this module

    relation = LiftedRelation(trim(t), arena, lambda v: v, cap, "play relation states")
    relation.drop_dead_states()
    return relation


def position_groups(arena: Arena, blocks) -> list:
    """Equivalence classes on positions: the given Player 1 blocks plus the
    Player 2 positions grouped by label set (the chosen action).

    The blocks must partition exactly the Player 1 positions; raises
    EncodingError naming the first position that breaks this.
    """
    groups = [tuple(block) for block in blocks]
    seen: set = set()
    for block in groups:
        for v in block:
            if v not in arena or arena.owner[v] != 1:
                raise EncodingError(f"non-partition: {v!r} is not a Player 1 position")
            if v in seen:
                raise EncodingError(f"non-partition: {v!r} occurs in two classes")
            seen.add(v)
    missing = [v for v in arena.positions if arena.owner[v] == 1 and v not in seen]
    if missing:
        raise EncodingError(f"non-partition: {missing[0]!r} is in no class")
    by_label: dict = {}
    for v in arena.positions:
        if arena.owner[v] == 2:
            by_label.setdefault(arena.labels[v], []).append(v)
    groups += [tuple(vs) for _, vs in sorted(by_label.items(),
                                             key=lambda kv: sorted(kv[0]))]
    return groups


def build_observation_equivalence(arena: Arena, obs_classes) -> Transducer:
    """Transducer for observational play equivalence, on all words.

    obs_classes must partition exactly the Player 1 positions (see
    `position_groups`); Player 2 positions are related iff they carry
    equal label sets (the action proposition).  `FusInstance.make`
    restricts the relation to plays.
    """
    q0 = "q0"
    transitions = [(q0, u, v, q0) for group in position_groups(arena, obs_classes)
                   for u in group for v in group]
    positions = frozenset(arena.positions)
    return Transducer([q0], positions, positions, q0, [q0], transitions,
                      name="obs-equiv")


def build_morphism_equivalence(arena: Arena, h: dict, ends_in=None) -> Transducer:
    """Transducer relating words with equal images under the morphism h.

    h maps every position to an observation or to None (unobserved);
    unobserved positions are consumed and produced silently.  With ends_in
    a set of positions, only pairs whose written word ends in ends_in are
    related: state q1 means the last position written is in ends_in.  The
    relation is on all words; `FusInstance.make` restricts it to plays.
    """
    missing = [v for v in arena.positions if v not in h]
    if missing:
        raise EncodingError(f"morphism is not total: missing {missing[0]!r}")
    moves = []
    for u in arena.positions:
        if h[u] is None:
            moves.append((u, EPSILON))
            moves.append((EPSILON, u))
    for u in arena.positions:
        if h[u] is None:
            continue
        for v in arena.positions:
            if h[v] == h[u]:
                moves.append((u, v))
    positions = frozenset(arena.positions)
    q0 = "q0"
    if ends_in is None:
        return Transducer([q0], positions, positions, q0, [q0],
                          [(q0, a, b, q0) for a, b in moves], name="morphism-equiv")
    q1 = "q1"
    transitions = [(q, a, b, q if b is EPSILON else (q1 if b in ends_in else q0))
                   for q in (q0, q1) for a, b in moves]
    return Transducer([q0, q1], positions, positions, q0, [q1], transitions,
                      name="morphism-equiv")


def identity_transducer(alphabet, name="id") -> Transducer:
    q0 = "q0"
    alphabet = frozenset(alphabet)
    transitions = [(q0, v, v, q0) for v in sorted(alphabet, key=str)]
    return Transducer([q0], alphabet, alphabet, q0, [q0], transitions, name=name)


def length_transducer(alphabet, name="len") -> Transducer:
    """Relates every pair of equal-length words."""
    q0 = "q0"
    alphabet = frozenset(alphabet)
    symbols = sorted(alphabet, key=str)
    transitions = [(q0, u, v, q0) for u in symbols for v in symbols]
    return Transducer([q0], alphabet, alphabet, q0, [q0], transitions, name=name)


# ---------------------------------------------------------------------------
# Text format

def parse_transducer(text: str) -> Transducer:
    """Parse the line-oriented transducer format.

    fst <name>
    state <id> [init] [accept]
    trans <q> <in|-> <out|-> <q'>
    """
    name = "fst"
    states, accepting, transitions = [], [], []
    initial = None
    for lineno, kind, ops in _directives(text, {
            "fst": (0, 1), "state": (1, None), "trans": (4, 4)}):
        if kind == "fst":
            name = ops[0] if ops else name
        elif kind == "state":
            ident = ops[0]
            states.append(ident)
            for flag in ops[1:]:
                if flag == "init":
                    initial = ident
                elif flag == "accept":
                    accepting.append(ident)
                else:
                    raise InputFormatError(f"unknown state flag {flag!r}", lineno)
        elif kind == "trans":
            a = None if ops[1] == "-" else ops[1]
            b = None if ops[2] == "-" else ops[2]
            transitions.append((ops[0], a, b, ops[3]))
    if initial is None:
        raise InputFormatError("missing init state")
    inputs = {a for _, a, _, _ in transitions if a is not None}
    outputs = {b for _, _, b, _ in transitions if b is not None}
    return Transducer(states, inputs, outputs, initial, accepting, transitions, name=name)


def format_transducer(t: Transducer) -> str:
    lines = [f"fst {t.name}"]
    for q in t.states:
        flags = ""
        if q == t.initial:
            flags += " init"
        if q in t.accepting:
            flags += " accept"
        lines.append(f"state {_pos_id(q)}{flags}")
    for q, a, b, q2 in t.transitions:
        sa = "-" if a is None else _pos_id(a)
        sb = "-" if b is None else _pos_id(b)
        lines.append(f"trans {_pos_id(q)} {sa} {sb} {_pos_id(q2)}")
    return "\n".join(lines) + "\n"
