"""R-elimination: marking power positions with freshly named propositions.

A depth-one subformula [R] psi holds at a point of a play iff psi holds on
every trace from every endpoint of a related play, and those endpoints are
exactly the local information set of the power position reached.  Marking
therefore replaces [R] psi by a fresh proposition that labels precisely the
power positions whose whole information set universally satisfies psi;
empty information sets are marked (universal quantification over nothing).

Whether psi holds on every infinite trace from a position is decided on
the arena itself when psi allows it: a state formula by the position's
label, X s by its successors' labels, and a Boolean combination of G F s
and F G s by Emerson-Lei emptiness, a recursive SCC decomposition of the
positions it reaches.  On an arena with no dead end an infinite trace
starts everywhere, so the first two read labels alone.  Any other body
takes the product of the arena with a Buchi automaton for not psi, as do
the counterexample traces; for an invariant G s over a state formula s
that automaton is built here, two states with no LTL translation.
"""

from __future__ import annotations

import copy

from .arena import Arena
from .formula import (Const, Formula, Next, Not, Until, atoms,
                      depth1_r_subformulas, format_formula, fresh_atom_name,
                      holds, is_state_formula, muller_condition, r_depth,
                      substitute_all)
from .graph import components, reachable
from .ltlgame import BuchiAutomaton, Caps, DEFAULT_CAPS, _letter_key, ltl_to_nba

__all__ = [
    "MarkingReport", "position_models_ltl", "trace_counterexample",
    "satisfying_positions", "eliminate_r", "format_marking_report",
]


class MarkingReport:
    """What was marked: fresh atom -> source [R] subformula, positions and
    how its body was decided ("state", "next", "muller" or "automaton").

    Also carries the power arena the marking lives on, which downstream
    strategy pullback and debugging dumps need.
    """

    def __init__(self, atom_sources: dict, marked_positions: dict, power, methods: dict):
        self.atom_sources = dict(atom_sources)
        self.marked_positions = {k: frozenset(v) for k, v in marked_positions.items()}
        self.power = power
        self.methods = dict(methods)


_TRUE = Const(True)
_WAIT, _HIT = frozenset([0]), frozenset([1])


def _violation_nba(psi: Formula, letters, caps: Caps) -> BuchiAutomaton:
    """The Buchi automaton `ltl_to_nba` gives for not psi over the letters.

    An invariant G s over a state formula s reads !(true U x), x being the
    negation of s, and its automaton is built here whenever some letter
    satisfies s: state 0 waits, a letter that satisfies x leads to state
    1, which is absorbing and accepting.  With no such x letter no state
    reaches an accepting one, so there is no state.  When no letter
    satisfies s, constant folding in `ltl_to_nba` may give one state, so
    that case, a cap below two states and every other body go there.
    """
    if (isinstance(psi, Not) and isinstance(psi.sub, Until) and psi.sub.left == _TRUE
            and is_state_formula(psi.sub.right) and caps.nba_states >= 2):
        letters = tuple(letters)
        hits = [holds(psi.sub.right, letter) for letter in letters]
        if not all(hits):
            ap = tuple(sorted(atoms(psi)))
            if not any(hits):
                return BuchiAutomaton(ap, letters, (), frozenset(), frozenset(), {})
            transitions = {(0, letter): _HIT if hit else _WAIT
                           for letter, hit in zip(letters, hits)}
            transitions.update(((1, letter), _HIT) for letter in letters)
            return BuchiAutomaton(ap, letters, (0, 1), _WAIT, _HIT, transitions)
    return ltl_to_nba(Not(psi), letters=letters, caps=caps)


def _violation_graph(arena: Arena, psi: Formula, sources, caps: Caps):
    """Product of the arena with an NBA for not psi (`_violation_nba`),
    reachable from (u, q0) for u in sources, numbered by
    `graph.reachable`; its accepting traces are the traces violating psi.
    Returns the (position, accepting, succ, parent) lists of its nodes.
    No node carries an NBA state that reaches no accepting state: the
    automaton has none.
    """
    ap = frozenset(atoms(psi))
    letter_of = [arena.labels[u] & ap for u in arena.positions]
    letters = sorted(set(letter_of), key=_letter_key)
    nba = _violation_nba(psi, letters, caps)
    # the automaton numbers its states 0..n-1; sorted reads keep searches
    # (and witnesses) reproducible
    nq = len(nba.states)
    reads = {key: sorted(targets) for key, targets in nba.transitions.items()}
    moves = [[arena.index(w) * nq for w in arena.successors(u)]
             for u in arena.positions]

    def successors(node):
        u, q = divmod(node, nq)
        return [w + q2 for q2 in reads[(q, letter_of[u])] for w in moves[u]]

    seeds = [arena.index(u) * nq + q for u in sources
             for q in sorted(nba.initial)]
    nodes, succ, parent = reachable(seeds, successors, caps.product_nodes,
                                    "marker product nodes")
    position = [arena.positions[node // nq] for node in nodes]
    accepting = [node % nq in nba.accepting for node in nodes]
    return position, accepting, succ, parent


def trace_counterexample(arena: Arena, v, psi: Formula, caps: Caps = DEFAULT_CAPS):
    """A trace from v violating LTL psi, as (stem, cycle) position lists,
    or None when every infinite trace from v satisfies psi.

    The witness is an accepting lasso of the violation product: its anchor
    is the first accepting node, in breadth-first order, that lies on a
    cycle; the stem is the breadth-first path to it, and the cycle the
    shortest one back to it: the path of a breadth-first `graph.reachable`
    pass from the anchor, inside its component, to the first node with the
    anchor as a successor.  So short witnesses come first.
    """
    position, accepting, succ, parent = _violation_graph(arena, psi, [v], caps)
    found = [(min(m for m in members if accepting[m]), members)
             for members, accepting_cycle in components(succ, accepting)
             if accepting_cycle]
    if not found:
        return None
    anchor, members = min(found)
    inside = set(members)   # every cycle through the anchor stays in its component
    loop, _, back = reachable([anchor], lambda m: [t for t in succ[m] if t in inside])
    last = next(i for i, m in enumerate(loop) if anchor in succ[m])

    def path_to(i, links, at):
        out = []
        while i >= 0:
            out.append(at[i])
            i = links[i]
        return out[::-1]

    return (path_to(parent[anchor], parent, position),
            path_to(last, back, [position[m] for m in loop]))


def position_models_ltl(arena: Arena, v, psi: Formula, caps: Caps = DEFAULT_CAPS) -> bool:
    """Does every infinite trace from v satisfy the LTL formula psi?"""
    if r_depth(psi) != 0:
        raise ValueError("position_models_ltl needs a plain LTL formula")
    return v not in _failing_positions(arena, psi, [v], caps)


def _failing_positions_nba(arena: Arena, psi: Formula, sources, caps: Caps) -> set:
    """`_failing_positions` for any body, by the automaton product.

    One product seeded at every source and one SCC pass decide them all: a
    component is bad iff it holds an accepting cycle or reaches a bad
    component, which arrives before it.  A position fails iff one of its
    seeds is bad.
    """
    position, accepting, succ, parent = _violation_graph(arena, psi, sources, caps)
    bad = [False] * len(succ)
    for members, accepting_cycle in components(succ, accepting):
        if accepting_cycle or any(bad[t] for m in members for t in succ[m]):
            for m in members:
                bad[m] = True
    return {position[i] for i, p in enumerate(parent) if p < 0 and bad[i]}


def _rejecting_cycle(members, succ, colour, accepts) -> bool:
    """Does the strongly connected set members, which holds a cycle, hold
    one whose colour union accepts rejects?

    A cycle through all of members sees every colour in it.  When that
    union is accepted, a rejected cycle misses one of its bits, so it lies
    in a cyclic component of members without the nodes carrying that bit;
    each level of the recursion removes a bit.
    """
    hit = 0
    for m in members:
        hit |= colour[m]
    if not accepts(hit):
        return True
    bits = hit
    while bits:
        bit = bits & -bits
        bits ^= bit
        rest = [m for m in members if not colour[m] & bit]
        local = {m: i for i, m in enumerate(rest)}
        sub = [[local[t] for t in succ[m] if t in local] for m in rest]
        for part, cyclic in components(sub, [True] * len(rest)):
            if cyclic and _rejecting_cycle([rest[i] for i in part], succ, colour, accepts):
                return True
    return False


def _rejecting_seeds(arena: Arena, seeds, recs, accepts, caps: Caps) -> set:
    """The positions among the distinct seeds with an infinite trace whose
    letters satisfy recs[i] infinitely often exactly for the bits i of a
    hit that accepts(hit) rejects.

    Emerson-Lei emptiness by recursive SCC decomposition: the positions are
    numbered by `graph.reachable`, counted against caps.product_nodes, and
    one `graph.components` pass finds the bad components, those that reach
    a bad component or hold a rejected cycle (`_rejecting_cycle`).
    """
    nodes, succ, _ = reachable(seeds, arena.successors, caps.product_nodes,
                               "marker product nodes")
    colours: dict = {}   # label -> bit set of the recs it satisfies
    colour = []
    for u in nodes:
        label = arena.labels[u]
        if label not in colours:
            colours[label] = sum(1 << i for i, s in enumerate(recs) if holds(s, label))
        colour.append(colours[label])
    bad = [False] * len(nodes)
    for members, cyclic in components(succ, [True] * len(nodes)):
        if (any(bad[t] for m in members for t in succ[m])
                or cyclic and _rejecting_cycle(members, succ, colour, accepts)):
            for m in members:
                bad[m] = True
    return {u for u, b in zip(seeds, bad) if b}


def _reject_all(hit) -> bool:
    """With no recurrences to colour the positions, a seed fails every
    condition that rejects all hits iff it has an infinite trace."""
    return False


def _shape(psi: Formula) -> tuple:
    """How `_failing_positions` decides psi, with the Muller condition when
    there is one: "state" for a state formula, "next" for X of one,
    "muller" for a Boolean combination of G F s and F G s
    (`muller_condition`), "automaton" for any other body."""
    if is_state_formula(psi):
        return "state", None
    if isinstance(psi, Next) and is_state_formula(psi.sub):
        return "next", None
    condition = muller_condition(psi)
    return ("automaton" if condition is None else "muller"), condition


def _failing_positions(arena: Arena, psi: Formula, sources, caps: Caps) -> set:
    """The positions among the distinct sources with an infinite trace that
    violates psi."""
    return _failing_shaped(arena, psi, _shape(psi), sources, caps)


def _with_infinite_trace(arena: Arena, seeds, caps: Caps) -> set:
    """The distinct seeds from which an infinite trace starts: all of them
    on an arena with no dead end, so only other arenas are searched."""
    if not arena.dead_ends:
        return set(seeds)
    return _rejecting_seeds(arena, seeds, [], _reject_all, caps)


def _failing_shaped(arena: Arena, psi: Formula, shape, sources, caps: Caps) -> set:
    """`_failing_positions` for psi of the given `_shape`.

    A state formula fails where it is false and an infinite trace starts;
    X s fails where a successor does so for s; a Muller body fails where a
    trace reaches a cycle whose recurrences it rejects.  Only other bodies
    build a Buchi automaton for not psi and its product with the arena.
    """
    method, condition = shape
    if method == "state":
        seeds = [u for u in sources if not holds(psi, arena.labels[u])]
        return _with_infinite_trace(arena, seeds, caps)
    if method == "next":
        seeds = list(dict.fromkeys(w for u in sources for w in arena.successors(u)
                                   if not holds(psi.sub, arena.labels[w])))
        bad = _with_infinite_trace(arena, seeds, caps)
        return {u for u in sources if not bad.isdisjoint(arena.successors(u))}
    if method == "muller":
        recs, accepts = condition
        return _rejecting_seeds(arena, sources, recs, accepts, caps)
    return _failing_positions_nba(arena, psi, sources, caps)


def satisfying_positions(arena: Arena, psi: Formula, caps: Caps = DEFAULT_CAPS) -> frozenset:
    """All positions from which every infinite trace satisfies psi."""
    failing = _failing_positions(arena, psi, arena.positions, caps)
    return frozenset(u for u in arena.positions if u not in failing)


def eliminate_r(arena: Arena, t, phi: Formula, caps: Caps = DEFAULT_CAPS):
    """One elimination round: (G, T, phi) -> (G', T', phi') with one less
    level of R nesting, plus the marking report.

    G' is the power arena relabelled with a fresh proposition per depth-one
    [R] subformula; T' is the lifted relation, a view the next round
    explores on demand, numbering at most caps.product_nodes states;
    phi' substitutes the fresh propositions in, in one walk.  The
    relation of t must be restricted to play pairs.
    """
    from .powerset import build_power_arena, lift_transducer

    if r_depth(phi) < 1:
        raise ValueError("eliminate_r needs a formula with at least one R")
    targets = depth1_r_subformulas(phi)
    power = build_power_arena(arena, t, cap=caps.power_positions)
    lifted = lift_transducer(t, power, caps.product_nodes)

    used = set(atoms(phi)) | set(arena.propositions)
    atom_sources: dict = {}
    marked_positions: dict = {}
    methods: dict = {}
    new_labels = {p: set(power.arena.labels[p]) for p in power.arena.positions}
    # only positions some information set holds decide a marking
    held = set().union(*(p.info for p in power.arena.positions))
    sources = [u for u in arena.positions if u in held]
    for index, r_sub in enumerate(targets):
        name = fresh_atom_name(index, r_sub.sub, used)
        used.add(name)
        atom_sources[name] = r_sub
        shape = _shape(r_sub.sub)
        methods[name] = shape[0]
        failing = _failing_shaped(arena, r_sub.sub, shape, sources, caps)
        marked = []
        for p in power.arena.positions:
            if failing.isdisjoint(p.info):
                marked.append(p)
                new_labels[p].add(name)
        marked_positions[name] = marked

    phi_hat = substitute_all(phi, {r_sub: name for name, r_sub in atom_sources.items()})
    assert r_depth(phi_hat) == r_depth(phi) - 1

    # the power arena with new labels: positions, edges and successor
    # lists are shared, not rebuilt
    marked_arena = copy.copy(power.arena)
    marked_arena.labels = {p: frozenset(ls) for p, ls in new_labels.items()}
    marked_arena.name = f"{arena.name}^"
    report = MarkingReport(atom_sources, marked_positions, power, methods)
    return marked_arena, lifted, phi_hat, report


def format_marking_report(report: MarkingReport) -> str:
    lines = []
    for name, source in report.atom_sources.items():
        lines.append(f"atom {name} := {format_formula(source)} by={report.methods[name]}")
        marked = report.marked_positions[name]
        ordered = [p for p in report.power.arena.positions if p in marked]
        for p in ordered:
            lines.append(f"  at {p}")
    return "\n".join(lines) + "\n"
