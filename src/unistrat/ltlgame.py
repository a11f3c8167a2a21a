"""LTL game backend: formula -> deterministic parity automaton -> game solving.

The pipeline turns a plain LTL objective into a deterministic parity
automaton, builds the product with an arena, and solves the resulting
parity game with Zielonka's algorithm, extracting positional strategies.
A Boolean combination of `G F s` and `F G s` over state formulas gets the
automaton of its Zielonka tree directly; any other objective is first
translated into a nondeterministic Buchi word automaton (on-the-fly
expansion of its negation normal form), which keeps only its live states,
those that reach an accepting state.  That automaton gets a subset
construction when it is deterministic or terminal (co-safety: a run
accepts once it reaches an accepting state that loops on every letter);
otherwise it is determinized (Safra/Piterman compact trees).  Automaton
states and game nodes are numbered once, by `graph.reachable` (for the
Buchi automaton, by `graph.live`, which also finds its live states).

Letters are sets of proposition names (frozensets).  Priorities use the
min-even convention: the protagonist (player 0) wins a play iff the least
priority occurring infinitely often is even.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .arena import Arena, Strategy
from .errors import CapExceeded, EncodingError
from .formula import (And, Atom, Const, Formula, Next, Not, atoms, holds,
                      muller_condition, r_depth)
from .graph import components, live, reachable

__all__ = [
    "Caps", "BuchiAutomaton", "ParityAutomaton", "ParityGame",
    "ltl_to_nba", "determinize", "ltl_to_dpa", "build_product_game", "solve_parity",
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


def _alphabet(ap, letters) -> tuple:
    """The given letters, or every letter over ap when none are given."""
    if letters is None:
        if len(ap) > 16:
            raise CapExceeded("distinct propositions in one formula", len(ap), 16)
        return all_letters(ap)
    return tuple(letters)


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


# A term is one way for a formula to hold at a step, as four bit sets:
# (atoms needed true, atoms needed false, nodes obliged from the next step
# on, untils postponed).

def _reduce(terms):
    """Distinct terms, without those another term subsumes (by needing no
    more atoms, obliging no more and postponing no more), which leaves the
    language of every state unchanged; smallest first."""
    kept = []
    for t in sorted(set(terms), key=lambda t: (
            t[0].bit_count() + t[1].bit_count() + t[2].bit_count() + t[3].bit_count(), t)):
        pos, neg, nxt, post = t
        for k in kept:
            if not (k[0] & ~pos or k[1] & ~neg or k[2] & ~nxt or k[3] & ~post):
                break
        else:
            kept.append(t)
    return kept


def _conjoin(ts, us):
    """Terms of a conjunction: pairwise unions, contradictions dropped."""
    out = []
    for t in ts:
        for u in us:
            pos, neg = t[0] | u[0], t[1] | u[1]
            if not pos & neg:
                out.append((pos, neg, t[2] | u[2], t[3] | u[3]))
    return _reduce(out)


class _Expansion:
    """Negation normal form with release, built bottom-up with the
    constants folded (Gastin & Oddoux, CAV 2001).  Each distinct node gets
    a number in construction order, terms[i] lists the terms of node i,
    and each until gets the next acceptance index."""

    def __init__(self, ap):
        self.bit = {name: 1 << i for i, name in enumerate(ap)}
        self.ids: dict = {}
        self.terms: list = []
        self.untils = 0
        self.true = self._node(("true",), lambda i: [(0, 0, 0, 0)])
        self.false = self._node(("false",), lambda i: [])

    def _node(self, key, make_terms):
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.terms)
            self.terms.append(make_terms(i))
        return i

    def nnf(self, f: Formula, positive=True) -> int:
        if isinstance(f, Const):
            return self.true if f.value == positive else self.false
        if isinstance(f, Atom):
            b = self.bit[f.name]
            return self._node(("lit", b, positive),
                              lambda i: [(b, 0, 0, 0) if positive else (0, b, 0, 0)])
        if isinstance(f, Not):
            return self.nnf(f.sub, not positive)
        if isinstance(f, Next):
            return self.next(self.nnf(f.sub, positive))
        a, b = self.nnf(f.left, positive), self.nnf(f.right, positive)
        if isinstance(f, And):
            return self.conj(a, b) if positive else self.disj(a, b)
        return self.until(a, b) if positive else self.release(a, b)

    def next(self, a):
        if a in (self.true, self.false):
            return a
        return self._node(("X", a), lambda i: [(0, 0, 1 << a, 0)])

    def conj(self, a, b):
        if self.false in (a, b):
            return self.false
        if a == self.true or a == b:
            return b
        if b == self.true:
            return a
        a, b = min(a, b), max(a, b)
        return self._node(("and", a, b), lambda i: _conjoin(self.terms[a], self.terms[b]))

    def disj(self, a, b):
        if self.true in (a, b):
            return self.true
        if a == self.false or a == b:
            return b
        if b == self.false:
            return a
        a, b = min(a, b), max(a, b)
        return self._node(("or", a, b), lambda i: _reduce(self.terms[a] + self.terms[b]))

    def until(self, a, b):
        """a U b: b now, or a now and a U b next, postponing it."""
        if b in (self.true, self.false) or a in (self.false, b):
            return b

        def make(i):
            mark = 1 << self.untils
            self.untils += 1
            return _reduce(self.terms[b] + _conjoin(self.terms[a], [(0, 0, 1 << i, mark)]))
        return self._node(("U", a, b), make)

    def release(self, a, b):
        """a R b: a and b now, or b now and a R b next."""
        if b in (self.true, self.false) or a in (self.true, b):
            return b
        return self._node(("R", a, b), lambda i: _reduce(
            _conjoin(self.terms[a], self.terms[b])
            + _conjoin(self.terms[b], [(0, 0, 1 << i, 0)])))


def _letter_moves(terms, masks):
    """The moves of one obligation set by letter: (kinds, index), where
    kinds holds a tuple of (obliged, postponed) moves per way the letters
    read the atoms the terms test, and kinds[index[i]] the moves letter i
    allows.  On a letter, a move obliging and postponing no more than
    another makes that one redundant."""
    tested = 0
    for pos, neg, _, _ in terms:
        tested |= pos | neg
    kinds, index, seen = [], [], {}
    for mask in masks:
        j = seen.get(mask & tested)
        if j is None:
            j = seen[mask & tested] = len(kinds)
            fit = [(nxt, post) for pos, neg, nxt, post in terms
                   if not (pos & ~mask or neg & mask)]
            kept = []
            for nxt, post in fit:
                for n, p in fit:
                    if (n != nxt or p != post) and not (n & ~nxt or p & ~post):
                        break
                else:
                    kept.append((nxt, post))
            kinds.append(tuple(kept))
        index.append(j)
    return kinds, index


def ltl_to_nba(psi: Formula, letters=None, caps: Caps = DEFAULT_CAPS) -> BuchiAutomaton:
    """On-the-fly translation of an LTL formula into a Buchi word automaton
    (Gerth, Peled, Vardi & Wolper, PSTV 1995).

    A state is a set of obligations, starting from {psi}; its moves are the
    terms of their conjunction, and only states reachable from {psi} are
    built.  Sets with the same moves are one state.  Each until gives an
    acceptance set, the moves that do not postpone it, and a counter
    degeneralizes these into accepting states.  One `graph.live` pass
    over (moves class, level) keys discovers the states breadth-first and
    finds the live ones, those that reach an accepting state; only these
    are kept, numbered 0..n-1 in discovery order, and a (state, letter)
    pair with no live successor maps to the empty set.  A formula with no
    state that reaches an accepting one, or with no move at all (such as
    p & !p), gives no states.
    """
    if r_depth(psi) != 0:
        raise ValueError("ltl_to_nba needs a plain LTL formula")
    ap = tuple(sorted(atoms(psi)))
    letters = _alphabet(ap, letters)
    ex = _Expansion(ap)
    root = ex.nnf(psi)
    k = ex.untils
    masks = [sum(ex.bit[x] for x in letter if x in ex.bit) for letter in letters]

    class_of: dict = {}   # obligation set -> index of its moves in `moves`
    moves: list = []      # per moves class, its `_letter_moves`
    move_class: dict = {}

    def obligations(nodes):
        c = class_of.get(nodes)
        if c is None:
            first, *rest = [i for i in range(nodes.bit_length()) if nodes >> i & 1] or [ex.true]
            terms = ex.terms[first]
            for i in rest:
                terms = _conjoin(terms, ex.terms[i])
            c = class_of[nodes] = move_class.setdefault(tuple(terms), len(moves))
            if c == len(moves):
                moves.append(_letter_moves(terms, masks))
        return c

    def target(nxt, post, j):
        while j < k and not post >> j & 1:
            j += 1
        return obligations(nxt), j

    rows: dict = {}   # (moves class, start level) -> the targets of each move kind

    def successors(state):
        c, level = state
        start = 0 if level == k else level   # an accepting state moves as level 0 does
        row = rows.get((c, start))
        if row is None:
            row = rows[(c, start)] = [[target(nxt, post, start) for nxt, post in kind]
                                      for kind in moves[c][0]]
        return [t for targets in row for t in targets]

    # a state is a (moves class, level) pair; a formula with no move at all has none
    seeds = [(obligations(1 << root), 0)] if ex.terms[root] else []
    states, alive = live(seeds, successors, lambda state: state[1] == k,
                         caps.nba_states, "Buchi automaton states")
    number = {state: i for i, state in enumerate(s for s in states if s in alive)}
    live_rows = {key: [frozenset(number[t] for t in targets if t in number) for targets in row]
                 for key, row in rows.items()}
    transitions = {}
    for (c, level), i in number.items():
        row = live_rows[(c, 0 if level == k else level)]
        for letter, j in zip(letters, moves[c][1]):
            transitions[(i, letter)] = row[j]
    return BuchiAutomaton(ap=ap, letters=letters, states=tuple(range(len(number))),
                          initial=frozenset([0]) if number else frozenset(),
                          accepting=frozenset(i for (_, level), i in number.items()
                                              if level == k),
                          transitions=transitions)


# ---------------------------------------------------------------------------
# Determinization (Safra/Piterman compact trees, parity output)

class ParityAutomaton:
    """Deterministic parity (min-even) word automaton over letter sets;
    `construction` names the construction that built it."""

    construction = "safra"

    def __init__(self, ap, letters, states, initial, delta, priority):
        self.ap = tuple(ap)
        self.letters = tuple(letters)
        self.states = tuple(states)
        self.initial = initial
        self.delta = dict(delta)
        self.priority = dict(priority)

    def __len__(self):
        return len(self.states)

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

    A tree is a flat tuple with one (parent name, frozenset of NBA states)
    pair per node: node i sits at index i - 1, the root is node 1 with
    parent 0, and the empty tree is ().  Names are compact and ordered by
    age, so a parent comes before its children and siblings come oldest
    first: the tuple is a canonical key, and each pass over a tree is a
    loop over names.  A transition's priority is the most significant
    event it produced: a node named i turning green (all members
    re-confirmed accepting since its creation) gives 2i, the death of node
    i gives 2i - 1, and a quiet step gives the neutral odd value 2n + 1.
    The priority is attached to the target state.  States are numbered
    0..n-1 in breadth-first order, the initial one 0.
    """
    neutral = 2 * len(nba.states) + 1

    def tree_step(tree, letter):
        if not tree:
            return (), neutral
        parent = [0] + [p for p, _ in tree]
        label = [frozenset()] + [states for _, states in tree]
        # branch: every node spawns a youngest child holding its accepting part
        for i in range(1, len(tree) + 1):
            accepting = label[i] & nba.accepting
            if accepting:
                parent.append(i)
                label.append(accepting)
        # subset move
        for i in range(1, len(label)):
            label[i] = frozenset().union(*(nba.transitions[(q, letter)] for q in label[i]))
        if not label[1]:
            return (), 1   # the root dies
        # horizontal merge: a state stays only in the oldest sibling holding
        # it; labels are nested, so meeting the parent's merged label drops
        # what the ancestors' older siblings claimed
        claimed = [frozenset()] * len(label)
        for i in range(2, len(label)):
            p = parent[i]
            label[i] = (label[i] & label[p]) - claimed[p]
            claimed[p] |= label[i]
        # vertical merge: a nonempty node whose children's labels (its claimed
        # set) cover it turns green and its descendants die, as do empty
        # nodes; the survivors get compact names in age order
        green = [bool(label[i]) and claimed[i] == label[i] for i in range(len(label))]
        events = [2 * i for i in range(1, len(label)) if green[i]]
        rename = [0] * len(label)
        out = []
        for i in range(1, len(label)):
            p = parent[i]
            if label[i] and (p == 0 or rename[p] and not green[p]):
                out.append((rename[p], label[i]))
                rename[i] = len(out)
            else:
                events.append(2 * i - 1)
        return tuple(out), min(events, default=neutral)

    tree_cache = {}

    def successors(state):
        out = []
        for letter in nba.letters:
            key = (state[0], letter)
            if key not in tree_cache:
                tree_cache[key] = tree_step(state[0], letter)
            out.append(tree_cache[key])
        return out

    # a state is a (tree, priority) pair
    tree0 = ((0, frozenset(nba.initial)),) if nba.initial else ()
    states, succ, _ = reachable([(tree0, neutral)], successors, caps.dpa_states,
                                "parity automaton states")
    return _numbered(nba.ap, nba.letters, states, succ)


def _numbered(ap, letters, states, succ) -> ParityAutomaton:
    """The automaton on the (key, priority) states numbered by
    `graph.reachable`, succ[i] listing the successors of i letter by letter."""
    delta = {(i, letter): j for i, row in enumerate(succ)
             for letter, j in zip(letters, row)}
    priority = {i: pri for i, (_, pri) in enumerate(states)}
    return ParityAutomaton(ap, letters, range(len(states)), 0, delta, priority)


# ---------------------------------------------------------------------------
# Parity automata without determinization

def _zielonka_dpa(recs, accepts, ap, letters, caps: Caps) -> ParityAutomaton:
    """Parity automaton of the Zielonka tree (Zielonka, TCS 1998) of a
    Muller condition, minimal for it (Casares, Colcombet & Fijalkow,
    ICALP 2021).

    A letter's colour is the bit set of the recs it satisfies, and a set
    of colours seen infinitely often is accepted when accepts(their union)
    holds.  A tree node is a set of colours, the root those of the letters;
    its children are its maximal subsets of the opposite acceptance, each
    the colours that avoid some set Z of recurrences, in decreasing size.
    A state is a leaf and the priority it was entered with.  On colour c a
    leaf goes to its deepest ancestor n holding c; it stays if n is the
    leaf itself, and otherwise moves to the leftmost leaf below the child
    of n after the one it came from, cyclically.  The priority is the depth
    of n, plus one when the root rejects, so accepting nodes are even.
    """
    colour = {letter: sum(1 << i for i, s in enumerate(recs) if holds(s, letter))
              for letter in letters}

    def union(colours):
        hit = 0
        for c in colours:
            hit |= c
        return hit

    labels = [frozenset(colour.values())]
    parent, depth, children = [-1], [0], []
    for node, label in enumerate(labels):   # appended to while walked
        hit = union(label)
        mine = accepts(hit)
        found = set()
        z = hit
        while z:   # every nonempty Z within the recurrences label hits
            sub = frozenset(c for c in label if not c & z)
            if sub and accepts(union(sub)) != mine:
                found.add(sub)
            z = (z - 1) & hit
        kids = sorted((d for d in found if not any(d < e for e in found)),
                      key=lambda d: (-len(d), sorted(d)))
        children.append(range(len(labels), len(labels) + len(kids)))
        labels.extend(kids)
        parent.extend([node] * len(kids))
        depth.extend([depth[node] + 1] * len(kids))
        if len(labels) > caps.dpa_states:
            raise CapExceeded("Zielonka tree nodes", len(labels), caps.dpa_states)

    def leftmost(n):
        while children[n]:
            n = children[n][0]
        return n

    shift = 0 if accepts(union(labels[0])) else 1
    moves: dict = {}   # (leaf, colour) -> (leaf, priority)

    def move(leaf, c):
        key = (leaf, c)
        if key not in moves:
            n, came = leaf, leaf
            while c not in labels[n]:
                n, came = parent[n], n
            if n != leaf:
                kids = children[n]
                leaf = leftmost(kids[(kids.index(came) + 1) % len(kids)])
            moves[key] = (leaf, depth[n] + shift)
        return moves[key]

    start = leftmost(0)
    states, succ, _ = reachable(
        [(start, depth[start] + shift)],
        lambda state: [move(state[0], colour[letter]) for letter in letters],
        caps.dpa_states, "parity automaton states")
    dpa = _numbered(ap, letters, states, succ)
    dpa.construction = "zielonka-tree"
    return dpa


def _subset_final(nba: BuchiAutomaton):
    """The accepting states of nba that loop on every letter, when the
    subset construction over them accepts the language of nba, else None.

    It does when nba is deterministic, and when every accepting state on
    a cycle loops on every letter (nba is terminal): then a run visits
    accepting states infinitely often iff it reaches one of these states,
    so its language is co-safety.  The states of nba must be numbered
    0..n-1, as `ltl_to_nba` numbers them.
    """
    final = frozenset(q for q in nba.accepting
                      if all(q in nba.transitions[(q, letter)] for letter in nba.letters))
    if all(len(targets) <= 1 for targets in nba.transitions.values()):
        return final
    succ = [sorted({t for letter in nba.letters for t in nba.transitions[(q, letter)]})
            for q in nba.states]
    for members, accepting_cycle in components(succ, [q in nba.accepting for q in nba.states]):
        if accepting_cycle and any(m in nba.accepting and m not in final for m in members):
            return None
    return final


def _subset_dpa(nba: BuchiAutomaton, final, caps: Caps) -> ParityAutomaton:
    """Subset construction (Kupferman & Vardi, FMSD 2001): a state is the
    set of states a prefix can reach.  Every set holding a state of final
    is one absorbing accepting state, and a set of one accepting state is
    entered with priority 0; every other set is entered with priority 1.

    This is the Buchi condition when nba is deterministic, since its sets
    hold at most one state.  It is exact too for a terminal nba with final
    as `_subset_final` gives it: a set of one accepting state outside
    final never recurs, since its state would lie on a cycle.
    """
    accept = (None, 0)

    def state(subset):
        if not final.isdisjoint(subset):
            return accept
        return subset, 0 if len(subset) == 1 and subset <= nba.accepting else 1

    def successors(current):
        if current is accept:
            return [accept] * len(nba.letters)
        subset = current[0]
        if len(subset) == 1:   # as in every state of a deterministic nba
            (q,) = subset
            return [state(nba.transitions[(q, letter)]) for letter in nba.letters]
        return [state(frozenset().union(*(nba.transitions[(q, letter)] for q in subset)))
                for letter in nba.letters]

    states, succ, _ = reachable([state(nba.initial)], successors, caps.dpa_states,
                                "parity automaton states")
    dpa = _numbered(nba.ap, nba.letters, states, succ)
    dpa.construction = "subset"
    return dpa


def ltl_to_dpa(psi: Formula, letters=None, caps: Caps = DEFAULT_CAPS) -> ParityAutomaton:
    """Deterministic parity automaton of a plain LTL formula over the given
    letters (by default every letter over its atoms), built the cheapest
    way the formula allows:

    1. a Boolean combination of G F s and F G s over state formulas s is a
       Muller condition and gets the automaton of its Zielonka tree, with
       no Buchi automaton built;
    2. otherwise a deterministic or terminal Buchi automaton gets a subset
       construction;
    3. any other Buchi automaton is determinized by Safra's construction.

    Every path respects caps.dpa_states; `construction` on the result says
    which one ran ("zielonka-tree", "subset" or "safra").
    """
    if r_depth(psi) != 0:
        raise ValueError("ltl_to_dpa needs a plain LTL formula")
    muller = muller_condition(psi)
    if muller is not None:
        ap = tuple(sorted(atoms(psi)))
        return _zielonka_dpa(*muller, ap, _alphabet(ap, letters), caps)
    nba = ltl_to_nba(psi, letters=letters, caps=caps)
    final = _subset_final(nba)
    if final is not None:
        return _subset_dpa(nba, final, caps)
    return determinize(nba, caps=caps)


# ---------------------------------------------------------------------------
# Parity games

class ParityGame:
    """Finite two-player min-even parity game.

    A game from `build_product_game` has the nodes 0..n-1, the initial
    node 0, and pairs[i], the (position, DPA state) of node i.
    """

    pairs: tuple = ()

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
    as it is entered, the initial position included.  The (position, DPA
    state) pairs are numbered in breadth-first order by `graph.reachable`.
    """
    ap = frozenset(dpa.ap)
    letter_set = set(dpa.letters)

    def read(q, v):
        letter = arena.labels[v] & ap
        if letter not in letter_set:
            raise EncodingError(f"unlabeled letter {sorted(letter)} at position {v!r}")
        return dpa.delta[(q, letter)]

    def successors(pair):
        v, q = pair
        targets = arena.successors(v)
        if not targets:
            raise EncodingError(f"dead end: position {v!r} has no successor")
        return [(v2, read(q, v2)) for v2 in targets]

    pairs, succ, _ = reachable([(arena.initial, read(dpa.initial, arena.initial))],
                               successors, caps.product_nodes, "product game nodes")
    game = ParityGame(
        range(len(pairs)),
        {i: 0 if arena.owner[v] == protagonist else 1 for i, (v, _) in enumerate(pairs)},
        dict(enumerate(succ)),
        {i: dpa.priority[q] for i, (_, q) in enumerate(pairs)},
        0)
    game.pairs = tuple(pairs)
    return game


def solve_parity(game: ParityGame):
    """Zielonka's algorithm with positional strategy extraction.

    Returns (winner, strategies): winner maps every node to 0 or 1;
    strategies[p] maps each p-owned node of p's region to its chosen
    successor.  The recursion on the game minus the opponent's trap is a
    tail call and runs as a loop; the one remaining call sees only
    priorities above the least one, so calls nest at most once per
    distinct priority.
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
        """Per player, the winning region in the subgame on nodes and a
        strategy defined exactly on that region's nodes the player owns."""
        wins, strats = (set(), set()), ({}, {})
        while nodes:
            p = min(game.priority[v] for v in nodes)
            player, opponent = p % 2, 1 - p % 2
            targets = [v for v in game.nodes if v in nodes and game.priority[v] == p]
            region, astrat = attractor(nodes, targets, player)
            sub_wins, sub_strats = solve(nodes - region)
            if not sub_wins[opponent]:
                wins[player].update(nodes)
                mine = strats[player]
                mine.update(sub_strats[player])
                mine.update(astrat)
                for v in targets:
                    if game.owner[v] == player:
                        mine[v] = next(u for u in game.succ[v] if u in nodes)
                return wins, strats
            # the opponent wins its attractor to its subgame region; solve the rest
            trap, bstrat = attractor(nodes, sub_wins[opponent], opponent)
            wins[opponent].update(trap)
            strats[opponent].update(bstrat)
            strats[opponent].update(sub_strats[opponent])
            nodes = nodes - trap
        return wins, strats

    wins, strats = solve(set(game.nodes))
    winner = {v: 0 for v in wins[0]}
    winner.update({v: 1 for v in wins[1]})
    return winner, {0: strats[0], 1: strats[1]}


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
    dpa = ltl_to_dpa(psi, used_letters, caps)
    game = build_product_game(arena, dpa, protagonist, caps=caps)
    winner, strategies = solve_parity(game)
    if winner[game.initial] != 0:
        return None
    choice_map, pairs = strategies[0], game.pairs

    def moves(i):
        return [choice_map[i]] if game.owner[i] == 0 else game.succ[i]

    # walked breadth-first: written memory names follow first appearance
    ids, succ, _ = reachable([game.initial], moves)
    v0, q0 = pairs[game.initial]
    update = {(dpa.initial, v0): q0}
    choice = {}
    for i, targets in zip(ids, succ):
        v, q = pairs[i]
        if game.owner[i] == 0:
            choice[(q, v)] = pairs[choice_map[i]][0]
        for j in targets:
            v2, q2 = pairs[ids[j]]
            update[(q, v2)] = q2
    return Strategy(protagonist, dpa.initial, update, choice, name="ltl-game-strategy")
