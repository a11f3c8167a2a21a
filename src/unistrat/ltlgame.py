"""LTL game backend: formula -> Buchi -> deterministic parity -> game solving.

The pipeline turns a plain LTL objective into a nondeterministic Buchi word
automaton (tableau construction over elementary subformula sets), then into
a deterministic parity automaton (Safra/Piterman compact trees), builds the
product with an arena, and solves the resulting parity game with Zielonka's
recursion, extracting positional strategies.

Letters are sets of proposition names (frozensets).  Priorities use the
min-even convention: the protagonist (player 0) wins a play iff the least
priority occurring infinitely often is even.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass
from itertools import product as iproduct

from .arena import Arena, Strategy
from .errors import CapExceeded, EncodingError
from .formula import And, Atom, Formula, Next, Not, Until, atoms, r_depth, subformulas
from .graph import components, reachable

__all__ = [
    "Caps", "BuchiAutomaton", "ParityAutomaton", "ParityGame",
    "ltl_to_nba", "determinize", "build_product_game", "solve_parity",
    "solve_ltl_game",
]


@dataclass(frozen=True)
class Caps:
    """Hard limits on constructed state spaces."""
    power_positions: int = 10 ** 6
    nba_states: int = 2 ** 20
    dpa_states: int = 2 ** 20
    product_nodes: int = 10 ** 7


DEFAULT_CAPS = Caps()


def _letter_key(letter):
    return tuple(sorted(letter))


def all_letters(ap) -> tuple:
    ap = sorted(ap)
    letters = []
    for mask in range(1 << len(ap)):
        letters.append(frozenset(p for i, p in enumerate(ap) if mask >> i & 1))
    return tuple(sorted(letters, key=_letter_key))


# ---------------------------------------------------------------------------
# Nondeterministic Buchi automata

@dataclass
class BuchiAutomaton:
    ap: tuple
    letters: tuple
    states: tuple
    initial: frozenset
    accepting: frozenset
    transitions: dict  # (state, letter) -> frozenset of states

    def successors(self, q, letter):
        return self.transitions[(q, frozenset(letter) & frozenset(self.ap))]

    def accepts_lasso(self, stem, cycle) -> bool:
        """Membership of the ultimately periodic word stem . cycle^omega."""
        word = [frozenset(x) & frozenset(self.ap) for x in tuple(stem) + tuple(cycle)]
        total = len(word)
        loop_to = len(stem)
        if not cycle:
            raise ValueError("cycle must be nonempty")

        def successors(node):
            q, i = node
            j = i + 1 if i + 1 < total else loop_to
            return [(q2, j) for q2 in self.transitions[(q, word[i])]]

        # accepting run <=> some reachable accepting node lies on a cycle
        nodes, succ, _ = reachable([(q, 0) for q in self.initial], successors)
        accepting = [q in self.accepting for q, _ in nodes]
        return any(found for _, found in components(succ, accepting))


def ltl_to_nba(psi: Formula, letters=None, caps: Caps = DEFAULT_CAPS) -> BuchiAutomaton:
    """Tableau translation of an LTL formula into a Buchi word automaton.

    States are elementary subformula valuations; a generalized acceptance
    set per until is degeneralized with a counter.  The automaton is
    completed with a rejecting sink so transitions are total per letter.
    """
    if r_depth(psi) != 0:
        raise ValueError("ltl_to_nba needs a plain LTL formula")
    ap = tuple(sorted(atoms(psi)))
    if letters is None:
        if len(ap) > 16:
            raise CapExceeded("distinct propositions in one formula", len(ap), 16)
        letters = all_letters(ap)
    letters = tuple(letters)

    def size(g):
        if isinstance(g, Atom):
            return 1
        if isinstance(g, (Not, Next)):
            return 1 + size(g.sub)
        return 1 + size(g.left) + size(g.right)

    cl = subformulas(psi)
    rev = sorted(cl, key=size)  # children before parents
    atom_nodes = [g for g in cl if isinstance(g, Atom)]
    next_nodes = [g for g in cl if isinstance(g, Next)]
    until_nodes = [g for g in cl if isinstance(g, Until)]
    free = atom_nodes + next_nodes + until_nodes
    if len(free) > 20:
        raise CapExceeded("tableau free choices", 2 ** len(free), caps.nba_states)

    elementary = []
    for bits in iproduct((False, True), repeat=len(free)):
        assign = dict(zip(free, bits))
        mem = {}
        ok = True
        for g in rev:
            if isinstance(g, Atom):
                mem[g] = assign[g]
            elif isinstance(g, Not):
                mem[g] = not mem[g.sub]
            elif isinstance(g, And):
                mem[g] = mem[g.left] and mem[g.right]
            elif isinstance(g, Next):
                mem[g] = assign[g]
            elif isinstance(g, Until):
                val = assign[g]
                if mem[g.right] and not val:
                    ok = False
                    break
                if val and not (mem[g.right] or mem[g.left]):
                    ok = False
                    break
                mem[g] = val
            else:
                raise ValueError("unexpected R inside LTL tableau")
        if ok:
            elementary.append(mem)

    def compatible(mem, letter):
        return all(mem[g] == (g.name in letter) for g in atom_nodes)

    def follows(mem, mem2):
        for g in next_nodes:
            if mem[g] != mem2[g.sub]:
                return False
        for g in until_nodes:
            if mem[g] != (mem[g.right] or (mem[g.left] and mem2[g])):
                return False
        return True

    n_elem = len(elementary)
    succ_of = [[j for j in range(n_elem) if follows(elementary[i], elementary[j])]
               for i in range(n_elem)]
    compat = [[compatible(elementary[i], letter) for letter in letters]
              for i in range(n_elem)]

    k = len(until_nodes)
    acc_sets = [
        {i for i, mem in enumerate(elementary) if mem[u.right] or not mem[u]}
        for u in until_nodes
    ]
    init_elem = [i for i, mem in enumerate(elementary) if mem[psi]]

    if k == 0:
        states = list(range(n_elem))
        initial = frozenset(init_elem)
        accepting = frozenset(states)
        raw_delta = {}
        for i in states:
            for li, letter in enumerate(letters):
                raw_delta[(i, letter)] = frozenset(succ_of[i]) if compat[i][li] else frozenset()
    else:
        states = [(i, c) for i in range(n_elem) for c in range(k)]
        initial = frozenset((i, 0) for i in init_elem)
        accepting = frozenset((i, 0) for i in acc_sets[0])
        raw_delta = {}
        for (i, c) in states:
            c2 = (c + 1) % k if i in acc_sets[c] else c
            for li, letter in enumerate(letters):
                if compat[i][li]:
                    raw_delta[((i, c), letter)] = frozenset((j, c2) for j in succ_of[i])
                else:
                    raw_delta[((i, c), letter)] = frozenset()

    # completion: route missing moves to a rejecting sink
    needs_sink = any(not v for v in raw_delta.values())
    if needs_sink:
        sink = "sink"
        states = list(states) + [sink]
        for (q, letter), tgt in list(raw_delta.items()):
            if not tgt:
                raw_delta[(q, letter)] = frozenset([sink])
        for letter in letters:
            raw_delta[(sink, letter)] = frozenset([sink])

    if len(states) > caps.nba_states:
        raise CapExceeded("Buchi automaton states", len(states), caps.nba_states)
    return BuchiAutomaton(
        ap=ap, letters=letters, states=tuple(states), initial=initial,
        accepting=accepting, transitions=raw_delta)


# ---------------------------------------------------------------------------
# Determinization (Safra/Piterman compact trees, parity output)

_EMPTY_TREE = ("empty",)


def _encode_tree(nodes, root):
    def enc(v):
        label, children = nodes[v]
        return (v, tuple(sorted(label, key=str)), tuple(enc(c) for c in children))
    return enc(root)


def _decode_tree(enc):
    nodes = {}

    def dec(e):
        name, label, children = e
        nodes[name] = [set(label), [c[0] for c in children]]
        for c in children:
            dec(c)
        return name

    root = dec(enc)
    return nodes, root


class ParityAutomaton:
    """Deterministic parity (min-even) word automaton over letter sets."""

    def __init__(self, ap, letters, states, initial, delta, priority):
        self.ap = tuple(ap)
        self.letters = tuple(letters)
        self.states = tuple(states)
        self.initial = initial
        self.delta = dict(delta)
        self.priority = dict(priority)

    def __len__(self):
        return len(self.states)

    def step(self, q, letter):
        return self.delta[(q, frozenset(letter) & frozenset(self.ap))]

    def accepts_lasso(self, stem, cycle) -> bool:
        word = [frozenset(x) & frozenset(self.ap) for x in tuple(stem) + tuple(cycle)]
        loop_to = len(stem)
        total = len(word)
        if not cycle:
            raise ValueError("cycle must be nonempty")
        q = self.initial
        i = 0
        seen = {}
        visited_pris = []
        step_no = 0
        while (q, i) not in seen:
            seen[(q, i)] = step_no
            q = self.delta[(q, word[i])]
            i = i + 1 if i + 1 < total else loop_to
            visited_pris.append(self.priority[q])
            step_no += 1
        first = seen[(q, i)]
        return min(visited_pris[first:]) % 2 == 0


def determinize(nba: BuchiAutomaton, caps: Caps = DEFAULT_CAPS) -> ParityAutomaton:
    """Safra/Piterman construction: compact ordered trees of state sets.

    Node names are kept compact (1..m, ordered by age); a transition's
    priority is the most significant event it produced: a node named i
    turning green (all members re-confirmed accepting since its creation)
    gives 2i, the death of node i gives 2i - 1, and a quiet step gives the
    neutral odd value 2n + 1.  The priority is attached to the target state.
    """
    n = len(nba.states)
    neutral = 2 * n + 1
    move = {}
    for (q, letter), tgt in nba.transitions.items():
        move[(q, letter)] = tgt

    def delta_set(states, letter):
        out = set()
        for q in states:
            out |= move[(q, letter)]
        return out

    def tree_step(enc, letter):
        if enc == _EMPTY_TREE:
            return _EMPTY_TREE, neutral
        nodes, root = _decode_tree(enc)
        next_name = max(nodes) + 1
        deaths, greens = [], []

        # branch: spawn a youngest child holding the accepting part
        for v in sorted(nodes):
            fpart = nodes[v][0] & set(nba.accepting)
            if fpart:
                nodes[next_name] = [set(fpart), []]
                nodes[v][1].append(next_name)
                next_name += 1

        # subset move
        for v in nodes:
            nodes[v][0] = delta_set(nodes[v][0], letter)

        # horizontal merge: a state stays only in the oldest sibling subtree
        def subtree_remove(v, claimed):
            nodes[v][0] -= claimed
            for c in nodes[v][1]:
                subtree_remove(c, claimed)

        def hmerge(v):
            claimed = set()
            for c in nodes[v][1]:
                subtree_remove(c, claimed)
                claimed |= nodes[c][0]
            for c in nodes[v][1]:
                hmerge(c)

        hmerge(root)

        # remove empty nodes, then vertical merge (children cover the parent)
        def all_descendants(v):
            out = []
            for c in nodes[v][1]:
                out.append(c)
                out.extend(all_descendants(c))
            return out

        def visit(v):
            for c in list(nodes[v][1]):
                visit(c)
            kept = []
            for c in nodes[v][1]:
                if nodes[c][0]:
                    kept.append(c)
                else:
                    deaths.append(c)
                    del nodes[c]
            nodes[v][1] = kept
            if kept:
                covered = set()
                for c in kept:
                    covered |= nodes[c][0]
                if covered == nodes[v][0]:
                    greens.append(v)
                    for d in all_descendants(v):
                        deaths.append(d)
                        del nodes[d]
                    nodes[v][1] = []

        if not nodes[root][0]:
            return _EMPTY_TREE, 2 * 1 - 1
        visit(root)

        events = [2 * v for v in greens] + [2 * v - 1 for v in deaths]
        pri = min(events) if events else neutral

        # compact renaming preserving age order
        rename = {old: i + 1 for i, old in enumerate(sorted(nodes))}
        renamed = {rename[v]: (frozenset(lbl), tuple(rename[c] for c in ch))
                   for v, (lbl, ch) in nodes.items()}
        return _encode_tree(renamed, rename[root]), pri

    if nba.initial:
        tree0 = _encode_tree({1: (frozenset(nba.initial), ())}, 1)
    else:
        tree0 = _EMPTY_TREE
    init_state = (tree0, neutral)
    states = [init_state]
    seen = {init_state}
    delta = {}
    priority = {init_state: neutral}
    tree_cache = {}
    queue = deque([init_state])
    while queue:
        state = queue.popleft()
        tree, _ = state
        for letter in nba.letters:
            key = (tree, letter)
            if key not in tree_cache:
                tree_cache[key] = tree_step(tree, letter)
            tgt = tree_cache[key]
            delta[(state, letter)] = tgt
            if tgt not in seen:
                seen.add(tgt)
                priority[tgt] = tgt[1]
                states.append(tgt)
                queue.append(tgt)
                if len(states) > caps.dpa_states:
                    raise CapExceeded("parity automaton states", len(states), caps.dpa_states)
    return ParityAutomaton(nba.ap, nba.letters, states, init_state, delta, priority)


# ---------------------------------------------------------------------------
# Parity games

class ParityGame:
    """Finite two-player min-even parity game."""

    def __init__(self, nodes, owner, succ, priority, initial):
        self.nodes = tuple(nodes)
        self.owner = dict(owner)     # node -> 0 (protagonist) | 1
        self.succ = {v: tuple(ts) for v, ts in succ.items()}
        self.priority = dict(priority)
        self.initial = initial
        for v in self.nodes:
            if not self.succ.get(v):
                raise EncodingError(f"parity game node {v!r} has no successor")


def build_product_game(arena: Arena, dpa: ParityAutomaton, protagonist: int,
                       caps: Caps = DEFAULT_CAPS) -> ParityGame:
    """Arena x DPA product; the automaton reads the label of each position
    as it is entered, the initial position included."""
    ap = frozenset(dpa.ap)
    letter_set = set(dpa.letters)

    def read(q, v):
        letter = arena.labels[v] & ap
        if letter not in letter_set:
            raise EncodingError(f"unlabeled letter {sorted(letter)} at position {v!r}")
        return dpa.delta[(q, letter)]

    init = (arena.initial, read(dpa.initial, arena.initial))
    order = {init: None}
    succ = {}
    queue = deque([init])
    while queue:
        node = queue.popleft()
        v, q = node
        targets = []
        for v2 in arena.successors(v):
            tgt = (v2, read(q, v2))
            targets.append(tgt)
            if tgt not in order:
                order[tgt] = None
                queue.append(tgt)
                if len(order) > caps.product_nodes:
                    raise CapExceeded("product game nodes", len(order), caps.product_nodes)
        succ[node] = targets
    nodes = list(order)
    owner = {node: 0 if arena.owner[node[0]] == protagonist else 1 for node in nodes}
    priority = {node: dpa.priority[node[1]] for node in nodes}
    return ParityGame(nodes, owner, succ, priority, init)


def solve_parity(game: ParityGame):
    """Zielonka's recursive algorithm with positional strategy extraction.

    Returns (winner, strategies): winner maps every node to 0 or 1;
    strategies[p] maps each p-owned node of p's region to its chosen
    successor.
    """
    node_order = {v: i for i, v in enumerate(game.nodes)}
    pred = {v: [] for v in game.nodes}
    for v in game.nodes:
        for u in game.succ[v]:
            pred[u].append(v)

    def attractor(nodes, target, player):
        attr = set(target)
        strat = {}
        count = {}
        queue = deque(sorted(target, key=node_order.__getitem__))
        while queue:
            x = queue.popleft()
            for p in pred[x]:
                if p not in nodes or p in attr:
                    continue
                if game.owner[p] == player:
                    attr.add(p)
                    strat[p] = x
                    queue.append(p)
                else:
                    if p not in count:
                        count[p] = sum(1 for u in game.succ[p] if u in nodes)
                    count[p] -= 1
                    if count[p] == 0:
                        attr.add(p)
                        queue.append(p)
        return attr, strat

    def solve(nodes):
        if not nodes:
            return set(), set(), {}, {}
        p = min(game.priority[v] for v in nodes)
        player = p % 2
        targets = [v for v in game.nodes if v in nodes and game.priority[v] == p]
        region, astrat = attractor(nodes, targets, player)
        w0, w1, s0, s1 = solve(nodes - region)
        wins = (w0, w1)
        strats = (s0, s1)
        if not wins[1 - player]:
            mine = dict(strats[player])
            mine.update(astrat)
            for v in targets:
                if game.owner[v] == player and v not in mine:
                    mine[v] = next(u for u in game.succ[v] if u in nodes)
            if player == 0:
                return set(nodes), set(), mine, {}
            return set(), set(nodes), {}, mine
        trap, bstrat = attractor(nodes, wins[1 - player], 1 - player)
        w0b, w1b, s0b, s1b = solve(nodes - trap)
        winsb = (w0b, w1b)
        stratsb = (s0b, s1b)
        other = dict(stratsb[1 - player])
        other.update(bstrat)
        other.update({v: t for v, t in strats[1 - player].items()
                      if v in wins[1 - player]})
        mine = dict(stratsb[player])
        if player == 0:
            return w0b, w1b | trap, mine, other
        return w0b | trap, w1b, other, mine

    # the recursion nests once per removed attractor; the raised limit is
    # restored so solving leaves no interpreter state behind
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10000 + 4 * len(game.nodes)))
    try:
        w0, w1, s0, s1 = solve(set(game.nodes))
    finally:
        sys.setrecursionlimit(limit)
    winner = {v: 0 for v in w0}
    winner.update({v: 1 for v in w1})
    return winner, {0: s0, 1: s1}


def solve_ltl_game(arena: Arena, psi: Formula, protagonist: int,
                   caps: Caps = DEFAULT_CAPS):
    """Synthesize a finite-memory strategy whose every outcome satisfies psi.

    Returns a Strategy (memory = parity automaton states) or None when the
    protagonist loses the product game from the initial node.
    """
    if r_depth(psi) != 0:
        raise ValueError("solve_ltl_game needs a plain LTL objective")
    ap = frozenset(atoms(psi))
    used_letters = sorted({arena.labels[v] & ap for v in arena.positions},
                          key=_letter_key)
    nba = ltl_to_nba(psi, letters=used_letters, caps=caps)
    dpa = determinize(nba, caps=caps)
    game = build_product_game(arena, dpa, protagonist, caps=caps)
    winner, strategies = solve_parity(game)
    if winner[game.initial] != 0:
        return None
    choice_map = strategies[0]

    def read(q, v):
        return dpa.delta[(q, arena.labels[v] & ap)]

    m0 = dpa.initial
    update = {(m0, arena.initial): game.initial[1]}
    choice = {}
    seen = {game.initial}
    queue = deque([game.initial])
    while queue:
        node = queue.popleft()
        v, q = node
        if arena.owner[v] == protagonist:
            target = choice_map[node]
            choice[(q, v)] = target[0]
            targets = [target]
        else:
            targets = [(v2, read(q, v2)) for v2 in arena.successors(v)]
        for tgt in targets:
            update[(q, tgt[0])] = tgt[1]
            if tgt not in seen:
                seen.add(tgt)
                queue.append(tgt)
    return Strategy(protagonist, m0, update, choice, name="ltl-game-strategy")
