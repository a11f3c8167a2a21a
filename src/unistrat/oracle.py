"""Independent reference oracles for the acceptance suite.

Everything here reimplements its question from first principles with plain
graph searches, deliberately sharing no algorithmic machinery with the
synthesis pipeline: exact LTL evaluation on ultimately periodic words, a
twin-product diagnosability check, a team-semantics evaluator for
dependence logic, and a bounded evaluator for the full logic (R included)
on lasso-shaped plays.

The bounded evaluator is three-valued: it answers True or False only when
its structural fragment and horizon suffice, and None ("inconclusive")
otherwise, never guessing.
"""

from __future__ import annotations

from collections import deque
from itertools import product as iproduct

from .arena import Arena, Strategy
from .errors import UnistratError
from .formula import And, Atom, Const, Formula, Next, Not, R, Until, r_depth
from .transducer import EPSILON, Transducer

__all__ = [
    "lasso_eval", "twin_plant_diagnosable", "dl_eval", "bounded_semantics",
]


# ---------------------------------------------------------------------------
# Exact LTL evaluation on ultimately periodic words

def _until_on_lasso(a_vals, b_vals, stem_len, nxt):
    """Backward evaluation of an until over stem+cycle boolean arrays."""
    total = len(a_vals)
    vals = [False] * total
    cycle_idx = list(range(stem_len, total))
    anchor = next((k for k in cycle_idx if b_vals[k]), None)
    if anchor is not None:
        vals[anchor] = True
        k = anchor
        for _ in range(total - stem_len - 1):
            k = cycle_idx[(cycle_idx.index(k) - 1) % len(cycle_idx)]
            vals[k] = b_vals[k] or (a_vals[k] and vals[nxt(k)])
        vals[anchor] = b_vals[anchor] or (a_vals[anchor] and vals[nxt(anchor)])
    for k in range(stem_len - 1, -1, -1):
        vals[k] = b_vals[k] or (a_vals[k] and vals[k + 1])
    return vals


def lasso_eval(stem, cycle, phi: Formula) -> bool:
    """Does the infinite word stem . cycle^omega satisfy the LTL formula?

    Letters are sets of proposition names.  Values of every subformula are
    computed bottom-up as arrays over one stem plus one cycle unfolding;
    untils on the cycle are anchored at a point where the right argument
    holds (absent such a point they are false throughout the cycle).
    """
    if r_depth(phi) != 0:
        raise ValueError("lasso_eval needs a plain LTL formula")
    stem = [frozenset(x) for x in stem]
    cycle = [frozenset(x) for x in cycle]
    if not cycle:
        raise ValueError("cycle must be nonempty")
    letters = stem + cycle
    total = len(letters)
    stem_len = len(stem)

    def nxt(k):
        return k + 1 if k + 1 < total else stem_len

    values: dict = {}

    def compute(f: Formula):
        if f in values:
            return values[f]
        if isinstance(f, Const):
            vals = [f.value] * total
        elif isinstance(f, Atom):
            vals = [f.name in letters[k] for k in range(total)]
        elif isinstance(f, Not):
            sub = compute(f.sub)
            vals = [not x for x in sub]
        elif isinstance(f, And):
            left, right = compute(f.left), compute(f.right)
            vals = [x and y for x, y in zip(left, right)]
        elif isinstance(f, Next):
            sub = compute(f.sub)
            vals = [sub[nxt(k)] for k in range(total)]
        elif isinstance(f, Until):
            vals = _until_on_lasso(compute(f.left), compute(f.right), stem_len, nxt)
        else:
            raise ValueError(f"unexpected node {f!r}")
        values[f] = vals
        return vals

    return compute(phi)[0]


# ---------------------------------------------------------------------------
# Twin-product diagnosability

def twin_plant_diagnosable(sys) -> bool:
    """No faulty run shares its whole observable projection with a
    never-faulty run.

    Synchronized product: observable events fire jointly, unobservable ones
    advance one side alone; the right component is kept outside the faulty
    set.  A counterexample is a reachable left-faulty product state inside
    a strongly connected part where both sides still advance forever.
    """
    succ: dict = {}
    for s, e, s2 in sys.trans:
        succ.setdefault(s, []).append((e, s2))

    start = (sys.initial, sys.initial)
    if sys.initial in sys.faulty:
        return True  # no never-faulty run exists at all
    nodes = {start}
    edges = []          # (src, dst, advances_left, advances_right)
    queue = deque([start])
    while queue:
        s1, s2 = queue.popleft()
        moves = []
        for e, t1 in succ.get(s1, ()):
            if e not in sys.observable:
                moves.append(((t1, s2), True, False))
        for e, t2 in succ.get(s2, ()):
            if e not in sys.observable and t2 not in sys.faulty:
                moves.append(((s1, t2), False, True))
        for e, t1 in succ.get(s1, ()):
            if e in sys.observable:
                for e2, t2 in succ.get(s2, ()):
                    if e2 == e and t2 not in sys.faulty:
                        moves.append(((t1, t2), True, True))
        for tgt, left, right in moves:
            edges.append(((s1, s2), tgt, left, right))
            if tgt not in nodes:
                nodes.add(tgt)
                queue.append(tgt)

    # strongly connected components (iterative Tarjan)
    adjacency: dict = {n: [] for n in nodes}
    for src, dst, left, right in edges:
        adjacency[src].append(dst)
    index: dict = {}
    low: dict = {}
    on_stack = set()
    stack: list = []
    comp_of: dict = {}
    counter = [0]
    n_comp = [0]

    def strongconnect(root):
        work = [(root, iter(adjacency[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for child in it:
                if child not in index:
                    index[child] = low[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(adjacency[child])))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[node])
            if low[node] == index[node]:
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp_of[member] = n_comp[0]
                    if member == node:
                        break
                n_comp[0] += 1

    for node in nodes:
        if node not in index:
            strongconnect(node)

    left_alive = [False] * n_comp[0]
    right_alive = [False] * n_comp[0]
    for src, dst, left, right in edges:
        if comp_of[src] == comp_of[dst]:
            if left:
                left_alive[comp_of[src]] = True
            if right:
                right_alive[comp_of[src]] = True
    for (s1, s2) in nodes:
        if s1 in sys.faulty:
            c = comp_of[(s1, s2)]
            if left_alive[c] and right_alive[c]:
                return False
    return True


# ---------------------------------------------------------------------------
# Team semantics for dependence logic

def dl_eval(sentence, model) -> bool:
    """Standard team-semantics truth of a sentence in negation normal form.

    Teams are sets of assignments (stored as sorted item tuples);
    disjunction splits the team, existentials pick one witness value per
    assignment, dependence atoms assert functional dependence of the last
    term on the others over the whole team.
    """
    from .encoders import DlAtom, DlBin, DlQuant, dl_term_value

    def as_dict(assignment):
        return dict(assignment)

    def holds(node, team) -> bool:
        if isinstance(node, DlQuant):
            if node.kind == "forall":
                team2 = frozenset(
                    tuple(sorted((as_dict(s) | {node.var: a}).items()))
                    for s in team for a in model.domain
                )
                return holds(node.sub, team2)
            members = sorted(team)
            for pick in iproduct(model.domain, repeat=len(members)):
                team2 = frozenset(
                    tuple(sorted((as_dict(s) | {node.var: a}).items()))
                    for s, a in zip(members, pick)
                )
                if holds(node.sub, team2):
                    return True
            return False
        if isinstance(node, DlBin):
            if node.kind == "and":
                return holds(node.left, team) and holds(node.right, team)
            members = sorted(team)
            for mask in range(1 << len(members)):
                part = frozenset(m for i, m in enumerate(members) if mask >> i & 1)
                rest = team - part
                if holds(node.left, part) and holds(node.right, rest):
                    return True
            return False
        assert isinstance(node, DlAtom)
        if node.kind == "dep":
            if node.negated:
                return not team
            seen: dict = {}
            for s in team:
                sd = as_dict(s)
                key = tuple(dl_term_value(t, sd, model) for t in node.terms[:-1])
                val = dl_term_value(node.terms[-1], sd, model)
                if seen.setdefault(key, val) != val:
                    return False
            return True
        for s in team:
            sd = as_dict(s)
            if node.kind == "eq":
                ok = (dl_term_value(node.terms[0], sd, model)
                      == dl_term_value(node.terms[1], sd, model))
            else:
                tup = tuple(dl_term_value(t, sd, model) for t in node.terms)
                ok = tup in model.relations.get(node.rel_name, frozenset())
            if node.negated:
                ok = not ok
            if not ok:
                return False
        return True

    return holds(sentence, frozenset([()]))


# ---------------------------------------------------------------------------
# Bounded semantics of the full logic on lasso plays

_TRUE = (True, True)
_FALSE = (False, False)
_UNKNOWN = (False, True)


def _pair_not(p):
    return (not p[1], not p[0])


def _pair_and(p, q):
    return (p[0] and q[0], p[1] and q[1])


class _Universe:
    """Play universe as a plain graph: all plays of the arena, or all
    outcomes of a strategy (built here independently of the pipeline)."""

    def __init__(self, arena: Arena, sigma: Strategy | None):
        self.arena = arena
        if sigma is None:
            self.nodes = list(arena.positions)
            self.succ = {v: list(arena.successors(v)) for v in self.nodes}
            self.project = {v: v for v in self.nodes}
            self.initial = arena.initial
            return
        init = (arena.initial, sigma.advance(sigma.initial_memory, arena.initial))
        self.nodes = [init]
        self.succ = {}
        self.project = {init: arena.initial}
        queue = deque([init])
        while queue:
            node = queue.popleft()
            v, m = node
            if arena.owner[v] == sigma.player:
                targets = [sigma.move(m, v)]
            else:
                targets = arena.successors(v)
            outs = []
            for v2 in targets:
                node2 = (v2, sigma.advance(m, v2))
                outs.append(node2)
                if node2 not in self.project:
                    self.project[node2] = v2
                    self.nodes.append(node2)
                    queue.append(node2)
            self.succ[node] = outs
        self.initial = init

    def labels(self, node) -> frozenset:
        return self.arena.labels[self.project[node]]


def _is_present(f: Formula) -> bool:
    if isinstance(f, (Const, Atom)):
        return True
    if isinstance(f, Not):
        return _is_present(f.sub)
    if isinstance(f, And):
        return _is_present(f.left) and _is_present(f.right)
    return False


def _present_value(f: Formula, labels) -> bool:
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Atom):
        return f.name in labels
    if isinstance(f, Not):
        return not _present_value(f.sub, labels)
    if isinstance(f, And):
        return _present_value(f.left, labels) and _present_value(f.right, labels)
    raise ValueError("not a present-determined formula")


class _TraceChecker:
    """Three-valued universal/existential LTL checks over a universe graph,
    exact on a structural fragment (literals, next, untils over
    present-determined operands) and unknown elsewhere."""

    def __init__(self, universe: _Universe):
        self.u = universe
        self.memo: dict = {}

    def universal(self, node, f: Formula):
        key = ("A", node, f)
        if key in self.memo:
            return self.memo[key]
        out = self._universal(node, f)
        self.memo[key] = out
        return out

    def existential(self, node, f: Formula):
        key = ("E", node, f)
        if key in self.memo:
            return self.memo[key]
        out = self._existential(node, f)
        self.memo[key] = out
        return out

    def _universal(self, node, f):
        if _is_present(f):
            return _TRUE if _present_value(f, self.u.labels(node)) else _FALSE
        if isinstance(f, Not):
            return _pair_not(self.existential(node, f.sub))
        if isinstance(f, And):
            return _pair_and(self.universal(node, f.left),
                             self.universal(node, f.right))
        if isinstance(f, Next):
            out = _TRUE
            for node2 in self.u.succ[node]:
                out = _pair_and(out, self.universal(node2, f.sub))
            return out
        if isinstance(f, Until) and _is_present(f.left) and _is_present(f.right):
            return _TRUE if self._universal_until(node, f.left, f.right) else _FALSE
        return _UNKNOWN

    def _existential(self, node, f):
        if _is_present(f):
            return _TRUE if _present_value(f, self.u.labels(node)) else _FALSE
        if isinstance(f, Not):
            return _pair_not(self.universal(node, f.sub))
        if isinstance(f, And):
            if _is_present(f.left):
                here = _TRUE if _present_value(f.left, self.u.labels(node)) else _FALSE
                return _pair_and(here, self.existential(node, f.right))
            if _is_present(f.right):
                here = _TRUE if _present_value(f.right, self.u.labels(node)) else _FALSE
                return _pair_and(here, self.existential(node, f.left))
            return _UNKNOWN
        if isinstance(f, Next):
            best = _FALSE
            for node2 in self.u.succ[node]:
                val = self.existential(node2, f.sub)
                best = (best[0] or val[0], best[1] or val[1])
            return best
        if isinstance(f, Until) and _is_present(f.left):
            return self._existential_until(node, f.left, f.right)
        return _UNKNOWN

    def _universal_until(self, node, a, b) -> bool:
        def av(n):
            return _present_value(a, self.u.labels(n))

        def bv(n):
            return _present_value(b, self.u.labels(n))

        if bv(node):
            return True
        if not av(node):
            return False
        region = {node}
        queue = deque([node])
        while queue:
            x = queue.popleft()
            for y in self.u.succ[x]:
                if bv(y):
                    continue
                if not av(y):
                    return False
                if y not in region:
                    region.add(y)
                    queue.append(y)
        # a cycle inside the b-free a-region carries a violating trace
        color: dict = {}
        for start in region:
            if start in color:
                continue
            stack = [(start, iter(self.u.succ[start]))]
            color[start] = 1
            while stack:
                x, it = stack[-1]
                advanced = False
                for y in it:
                    if y not in region:
                        continue
                    if color.get(y) == 1:
                        return False
                    if y not in color:
                        color[y] = 1
                        stack.append((y, iter(self.u.succ[y])))
                        advanced = True
                        break
                if not advanced:
                    color[x] = 2
                    stack.pop()
        return True

    def _existential_until(self, node, a, b):
        def av(n):
            return _present_value(a, self.u.labels(n))

        seen = set()
        frontier = [node]
        best = _FALSE
        while frontier:
            x = frontier.pop()
            if x in seen:
                continue
            seen.add(x)
            val = self.existential(x, b)
            best = (best[0] or val[0], best[1] or val[1])
            if best == _TRUE:
                return _TRUE
            if av(x):
                frontier.extend(self.u.succ[x])
        return best


def bounded_semantics(arena: Arena, t: Transducer, universe, pi, i: int,
                      phi: Formula, horizon: int = 64):
    """Evaluate the full logic at point i of a lasso play.

    pi is (stem, cycle) over arena positions; universe is "all" for every
    play of the arena or a Strategy whose outcomes form the universe.  The
    R clause is resolved by an exact endpoint search over transducer
    configurations against the universe graph, followed by universal trace
    checks from every endpoint.  Returns True, False, or None when the
    structural fragment or the horizon does not suffice ("inconclusive").
    """
    stem, cycle = (list(pi[0]), list(pi[1]))
    if not cycle:
        raise ValueError("malformed lasso: empty cycle")
    if not arena.is_play(tuple(stem) + tuple(cycle)):
        raise ValueError("malformed lasso: not a play prefix")
    if cycle[0] not in arena.successors((stem + cycle)[-1]):
        raise ValueError("malformed lasso: cycle does not close")
    sigma = None if universe == "all" else universe
    uni = _Universe(arena, sigma)
    checker = _TraceChecker(uni)

    # group транsducer moves once: per state, split by input symbol
    eps_moves: dict = {q: [] for q in t.states}
    sym_moves: dict = {q: {} for q in t.states}
    for q, a, b, q2 in t.transitions:
        if a is EPSILON:
            eps_moves[q].append((b, q2))
        else:
            sym_moves[q].setdefault(a, []).append((b, q2))

    by_proj: dict = {}
    for node in uni.nodes:
        by_proj.setdefault(uni.project[node], []).append(node)

    def out_step(u_node, b):
        """Universe nodes reachable by writing symbol b after u_node."""
        if b is EPSILON:
            return [u_node]
        if u_node is None:
            return [n for n in by_proj.get(b, ()) if n == uni.initial]
        return [n for n in uni.succ[u_node] if uni.project[n] == b]

    def advance(configs, symbol):
        """One input symbol: closure over (state, consumed, universe node)."""
        out = set()
        stack = [(q, False, u) for (q, u) in configs]
        seen = set(stack)
        while stack:
            q, consumed, u_node = stack.pop()
            if consumed:
                out.add((q, u_node))
            items = [(b, q2, False) for b, q2 in eps_moves[q]]
            if not consumed:
                items += [(b, q2, True) for b, q2 in sym_moves[q].get(symbol, [])]
            for b, q2, consumes in items:
                consumed2 = consumed or consumes
                for u2 in out_step(u_node, b):
                    conf = (q2, consumed2, u2)
                    if conf not in seen:
                        seen.add(conf)
                        stack.append(conf)
        return frozenset(out)

    stem_len = len(stem)
    total_period = len(cycle)

    def play_pos(k):
        return stem[k] if k < stem_len else cycle[(k - stem_len) % total_period]

    # iterate prefix classes until the (phase, class) pair repeats
    classes = []
    current = frozenset([(t.initial, None)])
    seen_pairs: dict = {}
    k1 = k2 = None
    k = 0
    while k < max(horizon, stem_len + total_period + 1):
        current = advance(current, play_pos(k))
        classes.append(current)
        if k >= max(i, stem_len):
            pair = ((k - stem_len) % total_period, current)
            if pair in seen_pairs:
                k1, k2 = seen_pairs[pair], k
                break
            seen_pairs[pair] = k
        k += 1
    if k1 is None:
        return None

    def r_value(index, body: Formula):
        """Three-valued truth of [R] body at the given prefix index."""
        if r_depth(body) != 0:
            return _UNKNOWN
        endpoints = [u for (q, u) in classes[index]
                     if q in t.accepting and u is not None]
        out = _TRUE
        for u_node in endpoints:
            out = _pair_and(out, checker.universal(u_node, body))
        return out

    n_idx = k2  # evaluate over [0, k2) with wrap k2 -> k1
    count = n_idx

    def nxt(kk):
        return kk + 1 if kk + 1 < count else k1

    pair_values: dict = {}

    def compute(f: Formula):
        if f in pair_values:
            return pair_values[f]
        if isinstance(f, Const):
            vals = [_TRUE if f.value else _FALSE] * count
        elif isinstance(f, Atom):
            vals = [_TRUE if f.name in arena.labels[play_pos(kk)] else _FALSE
                    for kk in range(count)]
        elif isinstance(f, R):
            vals = [r_value(kk, f.sub) for kk in range(count)]
        elif isinstance(f, Not):
            vals = [_pair_not(x) for x in compute(f.sub)]
        elif isinstance(f, And):
            vals = [_pair_and(x, y) for x, y in zip(compute(f.left), compute(f.right))]
        elif isinstance(f, Next):
            sub = compute(f.sub)
            vals = [sub[nxt(kk)] for kk in range(count)]
        elif isinstance(f, Until):
            left, right = compute(f.left), compute(f.right)
            lo = _until_on_lasso([x[0] for x in left], [x[0] for x in right],
                                 k1, nxt)
            hi = _until_on_lasso([x[1] for x in left], [x[1] for x in right],
                                 k1, nxt)
            vals = list(zip(lo, hi))
        else:
            raise UnistratError(f"unexpected node {f!r}")
        pair_values[f] = vals
        return vals

    lo, hi = compute(phi)[i]
    if lo == hi:
        return lo
    return None
