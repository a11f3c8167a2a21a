"""R-elimination: marking power positions with freshly named propositions.

A depth-one subformula [R] psi holds at a point of a play iff psi holds on
every trace from every endpoint of a related play, and those endpoints are
exactly the local information set of the power position reached.  Marking
therefore replaces [R] psi by a fresh proposition that labels precisely the
power positions whose whole information set universally satisfies psi;
empty information sets are marked (universal quantification over nothing).
"""

from __future__ import annotations

from collections import deque

from .arena import Arena
from .errors import NameCollisionError
from .formula import (Formula, Not, atoms, depth1_r_subformulas,
                      format_formula, fresh_atom_name, r_depth, substitute)
from .graph import components, reachable
from .ltlgame import Caps, DEFAULT_CAPS, ltl_to_nba

__all__ = [
    "MarkingReport", "position_models_ltl", "trace_counterexample",
    "satisfying_positions", "eliminate_r", "format_marking_report",
]


class MarkingReport:
    """What was marked: fresh atom -> source [R] subformula and positions.

    Also carries the power arena the marking lives on, which downstream
    strategy pullback and debugging dumps need.
    """

    def __init__(self, atom_sources: dict, marked_positions: dict, power):
        self.atom_sources = dict(atom_sources)
        self.marked_positions = {k: frozenset(v) for k, v in marked_positions.items()}
        self.power = power


def _violation_graph(arena: Arena, psi: Formula, sources, caps: Caps):
    """Product of the arena with an NBA for not psi, reachable from (u, q0)
    for u in sources, numbered by `graph.reachable`; its accepting traces
    are the traces violating psi.  Returns the (position, accepting, succ,
    parent) lists of its nodes.
    """
    ap = frozenset(atoms(psi))
    letter_of = [arena.labels[u] & ap for u in arena.positions]
    letters = sorted(set(letter_of), key=lambda s: tuple(sorted(s)))
    nba = ltl_to_nba(Not(psi), letters=letters, caps=caps)
    # ltl_to_nba numbers its states 0..n-1; sorted reads keep searches
    # (and witnesses) reproducible
    nq = len(nba.states)
    reads = {key: sorted(targets) for key, targets in nba.transitions.items()}
    moves = [[arena.index(w) * nq for w in arena.successors(u)]
             for u in arena.positions]

    def successors(node):
        u, q = divmod(node, nq)
        return [w + q2 for q2 in reads[(q, letter_of[u])] for w in moves[u]]

    seeds = [arena.index(u) * nq + q for u in sources for q in sorted(nba.initial)]
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
    cycle; the stem is the breadth-first path to it and the cycle the
    shortest one back to it, so short witnesses come first.
    """
    position, accepting, succ, parent = _violation_graph(arena, psi, [v], caps)
    found = [(min(m for m in members if accepting[m]), members)
             for members, accepting_cycle in components(succ, accepting)
             if accepting_cycle]
    if not found:
        return None
    anchor, members = min(found)
    inside = set(members)   # every cycle through the anchor stays in its component

    def path_to(node, links):
        out = []
        while node >= 0:
            out.append(position[node])
            node = links[node]
        return out[::-1]

    back = {anchor: -1}
    queue = deque([anchor])
    while True:
        node = queue.popleft()
        for nxt in succ[node]:
            if nxt == anchor:
                return path_to(parent[anchor], parent), path_to(node, back)
            if nxt in inside and nxt not in back:
                back[nxt] = node
                queue.append(nxt)


def position_models_ltl(arena: Arena, v, psi: Formula, caps: Caps = DEFAULT_CAPS) -> bool:
    """Does every infinite trace from v satisfy the LTL formula psi?"""
    if r_depth(psi) != 0:
        raise ValueError("position_models_ltl needs a plain LTL formula")
    return trace_counterexample(arena, v, psi, caps=caps) is None


def satisfying_positions(arena: Arena, psi: Formula, caps: Caps = DEFAULT_CAPS) -> frozenset:
    """All positions from which every infinite trace satisfies psi.

    One product seeded at every position and one SCC pass decide every
    position: a component is bad iff it holds an accepting cycle or reaches
    a bad component, which arrives before it.  A position fails iff one of
    its seeds is bad.
    """
    position, accepting, succ, parent = _violation_graph(
        arena, psi, arena.positions, caps)
    bad = [False] * len(succ)
    for members, accepting_cycle in components(succ, accepting):
        if accepting_cycle or any(bad[t] for m in members for t in succ[m]):
            for m in members:
                bad[m] = True
    failing = {position[i] for i, p in enumerate(parent) if p < 0 and bad[i]}
    return frozenset(u for u in arena.positions if u not in failing)


def eliminate_r(arena: Arena, t, phi: Formula, caps: Caps = DEFAULT_CAPS):
    """One elimination round: (G, T, phi) -> (G', T', phi') with one less
    level of R nesting, plus the marking report.

    G' is the power arena relabelled with a fresh proposition per depth-one
    [R] subformula; T' is the lifted relation, a view the next round
    explores on demand; phi' substitutes the fresh propositions in.  The
    relation of t must be restricted to play pairs.
    """
    from .powerset import build_power_arena, lift_transducer

    if r_depth(phi) < 1:
        raise ValueError("eliminate_r needs a formula with at least one R")
    targets = depth1_r_subformulas(phi)
    power = build_power_arena(arena, t, cap=caps.power_positions)
    lifted = lift_transducer(t, power)

    used = set(atoms(phi)) | set(arena.propositions)
    atom_sources: dict = {}
    marked_positions: dict = {}
    new_labels = {p: set(power.arena.labels[p]) for p in power.arena.positions}
    for index, r_sub in enumerate(targets):
        name = fresh_atom_name(index, r_sub.sub, used)
        if name in used:
            raise NameCollisionError(f"fresh proposition {name!r} is already in use")
        used.add(name)
        atom_sources[name] = r_sub
        good = satisfying_positions(arena, r_sub.sub, caps=caps)
        marked = []
        for p in power.arena.positions:
            if p.info <= good:
                marked.append(p)
                new_labels[p].add(name)
        marked_positions[name] = marked

    phi_hat = phi
    for name, r_sub in atom_sources.items():
        phi_hat = substitute(phi_hat, r_sub, name)
    assert r_depth(phi_hat) == r_depth(phi) - 1

    marked_arena = Arena(
        positions=power.arena.positions,
        owner=power.arena.owner,
        edges=power.arena.edges,
        initial=power.arena.initial,
        labels={p: frozenset(ls) for p, ls in new_labels.items()},
        name=f"{arena.name}^",
    )
    report = MarkingReport(atom_sources, marked_positions, power)
    return marked_arena, lifted, phi_hat, report


def format_marking_report(report: MarkingReport) -> str:
    lines = []
    for name, source in report.atom_sources.items():
        lines.append(f"atom {name} := {format_formula(source)}")
        marked = report.marked_positions[name]
        ordered = [p for p in report.power.arena.positions if p in marked]
        for p in ordered:
            lines.append(f"  at {p}")
    return "\n".join(lines) + "\n"
