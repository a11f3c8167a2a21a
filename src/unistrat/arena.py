"""Game arenas, plays and finite-memory strategies.

An arena is a finite bipartite labelled graph on which the two players
alternate moves along edges; a play is a path from the initial position.
Position identifiers are opaque hashables (strings in the text format,
structured tuples for product constructions); all iteration orders follow
the declaration order of positions, so downstream constructions are
deterministic.

Finite plays are represented as plain tuples of positions.
"""

from __future__ import annotations

from .errors import InputFormatError, PartialStrategyError
from .graph import reachable

__all__ = [
    "Arena", "Strategy", "validate", "covering_step", "outcome_arena",
    "enumerate_plays",
    "parse_arena", "format_arena", "parse_strategy", "format_strategy",
]


class Arena:
    """Immutable two-player game graph.

    positions: iterable of distinct hashable identifiers (declaration order
        fixes all successor orderings);
    owner: map position -> 1 or 2;
    edges: iterable of (src, dst) pairs;
    initial: starting position;
    labels: map position -> iterable of proposition names (missing = empty).

    `dead_ends` lists, in declaration order, the positions with no
    successor; `validate` reports them, and the marker reads an arena
    without them as one where an infinite trace starts everywhere.
    """

    def __init__(self, positions, owner, edges, initial, labels, name="arena"):
        self.name = name
        self.positions = tuple(positions)
        self._index = {v: i for i, v in enumerate(self.positions)}
        if len(self._index) != len(self.positions):
            raise InputFormatError("duplicate position identifiers")
        self.owner = dict(owner)
        self.edges = tuple(dict.fromkeys(edges))
        self.initial = initial
        self.labels = {v: frozenset(labels.get(v, ())) for v in self.positions}
        succ: dict = {v: [] for v in self.positions}
        for src, dst in self.edges:
            if src in succ and dst in self._index:
                succ[src].append(dst)
        self._succ = {
            v: tuple(sorted(targets, key=self._index.__getitem__))
            for v, targets in succ.items()
        }
        self.dead_ends = tuple(v for v, targets in succ.items() if not targets)

    def successors(self, v):
        return self._succ[v]

    def index(self, v):
        return self._index[v]

    def __contains__(self, v):
        return v in self._index

    def __len__(self):
        return len(self.positions)

    @property
    def propositions(self) -> frozenset:
        return frozenset().union(*self.labels.values()) if self.labels else frozenset()

    def is_play(self, steps) -> bool:
        """Is this position sequence a finite play (nonempty, rooted, edge-connected)?"""
        steps = tuple(steps)
        if not steps or steps[0] != self.initial:
            return False
        if any(v not in self._index for v in steps):
            return False
        return all(b in self._succ[a] for a, b in zip(steps, steps[1:]))


def validate(arena: Arena) -> list[str]:
    """Check arena well-formedness; returns a diagnostic per violation."""
    diagnostics = []
    if arena.initial not in arena:
        diagnostics.append(f"initial position {arena.initial!r} is not declared")
    for v in arena.positions:
        if arena.owner.get(v) not in (1, 2):
            diagnostics.append(f"position {v!r} has no owner in {{1, 2}}")
    for src, dst in arena.edges:
        if src not in arena or dst not in arena:
            diagnostics.append(f"edge ({src!r}, {dst!r}) references an undeclared position")
        elif arena.owner.get(src) == arena.owner.get(dst):
            diagnostics.append(f"non-alternating edge ({src!r}, {dst!r})")
    for v in arena.dead_ends:
        diagnostics.append(f"dead end: position {v!r} has no successor")
    return diagnostics


class Strategy:
    """Finite-memory (machine) strategy for one player.

    Memory starts at initial_memory and is updated on every position as it
    is entered, the initial position included: after a finite play
    v0 .. vk the memory is update(..update(update(m0, v0), v1).., vk).
    The move prescribed after that play is choice(memory, vk), queried with
    the already-updated memory.
    """

    def __init__(self, player, initial_memory, update, choice, name="strategy"):
        self.name = name
        self.player = player
        self.initial_memory = initial_memory
        self.update = dict(update)
        self.choice = dict(choice)
        mems = dict.fromkeys([initial_memory])
        mems.update(dict.fromkeys(m for m, _ in self.update))
        mems.update(dict.fromkeys(self.update.values()))
        mems.update(dict.fromkeys(m for m, _ in self.choice))
        self.memory = tuple(mems)

    def advance(self, memory, v):
        try:
            return self.update[(memory, v)]
        except KeyError:
            raise PartialStrategyError(
                f"memory update undefined for state {memory!r} at position {v!r}") from None

    def memory_after(self, play):
        m = self.initial_memory
        for v in play:
            m = self.advance(m, v)
        return m

    def move(self, memory, v):
        try:
            return self.choice[(memory, v)]
        except KeyError:
            raise PartialStrategyError(
                f"partial strategy: no choice for memory {memory!r} at position {v!r}") from None

    def move_after(self, play):
        """The position the strategy picks after the given finite play."""
        return self.move(self.memory_after(play), play[-1])


def covering_step(covering: Arena, down) -> dict:
    """The play bijection of a covering arena, read off its own edges.

    A covering's positions project by `down` onto plain positions, with
    at most one successor per position and projected successor: the last
    power arena of a chain covers the first arena (down applies `.v` once
    per round), and an outcome arena covers the arena it was played on.
    Maps (covering position, or None before the start; next plain
    position) to the covering successor, so a plain play lifts one
    position at a time.
    """
    step = {(None, down(covering.initial)): covering.initial}
    for o in covering.positions:
        for o2 in covering.successors(o):
            step[(o, down(o2))] = o2
    return step


def outcome_arena(arena: Arena, sigma: Strategy, down=None, cap=None) -> Arena:
    """Product arena over (position, memory) pairs whose plays are Out(sigma),
    numbered breadth-first from the initial pair.

    sigma plays on the projections `down(v)` of the arena's positions
    (down=None: on the positions themselves), so a strategy on a plain
    arena can be followed on any arena covering it.  Positions owned by
    sigma's player keep only the edge to the chosen projection; owners and
    labels are copied from the arena position.  Raises
    PartialStrategyError when the strategy is undefined somewhere
    reachable, and CapExceeded once more than cap positions are reached.
    """
    if down is None:
        def down(v):
            return v

    def successors(node):
        v, m = node
        if arena.owner[v] == sigma.player:
            chosen = sigma.move(m, down(v))
            targets = [v2 for v2 in arena.successors(v) if down(v2) == chosen]
            if not targets:
                raise PartialStrategyError(
                    f"choice {chosen!r} at {down(v)!r} is not an arena successor")
        else:
            targets = arena.successors(v)
        return [(v2, sigma.advance(m, down(v2))) for v2 in targets]

    init = (arena.initial, sigma.advance(sigma.initial_memory, down(arena.initial)))
    nodes, succ, _ = reachable([init], successors, cap, "outcome positions")
    return Arena(
        positions=nodes,
        owner={n: arena.owner[n[0]] for n in nodes},
        edges=[(node, nodes[j]) for node, row in zip(nodes, succ) for j in row],
        initial=init,
        labels={n: arena.labels[n[0]] for n in nodes},
        name=f"{arena.name}*{sigma.name}",
    )


def enumerate_plays(arena: Arena, length: int) -> list[tuple]:
    """All plays of exactly `length` positions, lexicographic by position index."""
    if length < 1:
        raise ValueError("length must be >= 1")
    plays = [(arena.initial,)]
    for _ in range(length - 1):
        plays = [play + (v,) for play in plays for v in arena.successors(play[-1])]
    return plays


# ---------------------------------------------------------------------------
# Text formats

def _directives(text, grammar):
    """(line number, directive, operands) for each line of a text format
    that holds more than a `#` comment: the line's first word, then the
    words after it.

    grammar maps each directive of the format to the (fewest, most)
    operands it takes, most=None for no limit.  A directive missing from
    grammar, or a count of operands outside its range, raises
    InputFormatError naming the line.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        words = raw.split("#", 1)[0].split()
        if not words:
            continue
        kind, operands = words[0], words[1:]
        if kind not in grammar:
            raise InputFormatError(f"unknown directive {kind!r}", lineno)
        fewest, most = grammar[kind]
        if len(operands) < fewest or most is not None and len(operands) > most:
            takes = (f"at least {fewest}" if most is None
                     else f"{fewest}" if fewest == most else f"{fewest} to {most}")
            raise InputFormatError(
                f"{kind} takes {takes} operand(s), found {len(operands)}", lineno)
        yield lineno, kind, operands


def parse_arena(text: str) -> Arena:
    """Parse the line-oriented arena format.

    arena <name>
    pos <id> owner=<1|2> labels=<comma-list>
    edge <src> <dst>
    init <id>
    """
    name = "arena"
    positions, owner, labels, edges = [], {}, {}, []
    initial = None
    for lineno, kind, ops in _directives(text, {
            "arena": (0, 1), "pos": (1, None), "edge": (2, 2), "init": (1, 1)}):
        if kind == "arena":
            name = ops[0] if ops else name
        elif kind == "pos":
            ident = ops[0]
            own = None
            labs: frozenset = frozenset()
            for field in ops[1:]:
                if field.startswith("owner="):
                    own = field[len("owner="):]
                elif field.startswith("labels="):
                    body = field[len("labels="):]
                    labs = frozenset(x for x in body.split(",") if x)
                else:
                    raise InputFormatError(f"unknown pos field {field!r}", lineno)
            if own not in ("1", "2"):
                raise InputFormatError(f"position {ident!r} needs owner=1 or owner=2", lineno)
            positions.append(ident)
            owner[ident] = int(own)
            labels[ident] = labs
        elif kind == "edge":
            edges.append((ops[0], ops[1]))
        elif kind == "init":
            initial = ops[0]
    if initial is None:
        raise InputFormatError("missing init line")
    undeclared = [s for e in edges for s in e if s not in owner]
    if undeclared:
        raise InputFormatError(f"edge references undeclared position {undeclared[0]!r}")
    if initial not in owner:
        raise InputFormatError(f"init references undeclared position {initial!r}")
    return Arena(positions, owner, edges, initial, labels, name=name)


def format_arena(arena: Arena) -> str:
    lines = [f"arena {arena.name}"]
    for v in arena.positions:
        labs = ",".join(sorted(arena.labels[v]))
        lines.append(f"pos {_pos_id(v)} owner={arena.owner[v]} labels={labs}")
    for v in arena.positions:
        for v2 in arena.successors(v):
            lines.append(f"edge {_pos_id(v)} {_pos_id(v2)}")
    lines.append(f"init {_pos_id(arena.initial)}")
    return "\n".join(lines) + "\n"


def _pos_id(v) -> str:
    """Whitespace-free printable identifier for a (possibly structured) position."""
    return "".join(str(v).split())


def parse_strategy(text: str) -> Strategy:
    """Parse the strategy format.

    strategy player=<1|2> memory=<comma-list> init=<m>
    upd <m> <pos> -> <m'>
    choose <m> <pos> -> <pos'>
    """
    player = None
    initial = None
    declared: list[str] = []
    update, choice = {}, {}
    for lineno, kind, ops in _directives(text, {
            "strategy": (0, None), "upd": (4, 4), "choose": (4, 4)}):
        if kind == "strategy":
            for field in ops:
                if field.startswith("player="):
                    player = field[len("player="):]
                elif field.startswith("memory="):
                    declared = [x for x in field[len("memory="):].split(",") if x]
                elif field.startswith("init="):
                    initial = field[len("init="):]
                else:
                    raise InputFormatError(f"unknown strategy field {field!r}", lineno)
        elif kind in ("upd", "choose"):
            if ops[2] != "->":
                raise InputFormatError(f"malformed {kind} line", lineno)
            key = (ops[0], ops[1])
            if kind == "upd":
                update[key] = ops[3]
            else:
                choice[key] = ops[3]
    if player not in ("1", "2"):
        raise InputFormatError("strategy needs player=1 or player=2")
    if initial is None:
        raise InputFormatError("strategy needs init=<memory>")
    strat = Strategy(int(player), initial, update, choice)
    if declared:
        missing = [m for m in strat.memory if m not in declared]
        if missing:
            raise InputFormatError(f"memory element {missing[0]!r} not declared")
    return strat


def format_strategy(sigma: Strategy) -> str:
    """Strategies with structured memory elements (product states, automaton
    states) are written with compact synthesized names m0, m1, ...; plain
    string memories are kept verbatim, so a written file reloads and
    rewrites byte-identically."""
    if all(isinstance(m, str) for m in sigma.memory):
        name_of = {m: m for m in sigma.memory}
    else:
        name_of = {m: f"m{i}" for i, m in enumerate(sigma.memory)}
    lines = [
        f"strategy player={sigma.player} "
        f"memory={','.join(sorted(name_of.values()))} "
        f"init={name_of[sigma.initial_memory]}"
    ]
    updates = sorted((name_of[m], _pos_id(v), name_of[m2])
                     for (m, v), m2 in sigma.update.items())
    choices = sorted((name_of[m], _pos_id(v), _pos_id(v2))
                     for (m, v), v2 in sigma.choice.items())
    lines += [f"upd {a} {b} -> {c}" for a, b, c in updates]
    lines += [f"choose {a} {b} -> {c}" for a, b, c in choices]
    return "\n".join(lines) + "\n"
