"""Seeded workloads of the benchmark and the references that check them.

Each workload turns a seed into a fixed list of cases (the set-up: input
generation plus encoding), makes one timed library call per case
(`decide`), and checks every verdict afterwards against a reference that
the timed call does not produce (`check`).  Library functions are always
looked up through their module at call time, so the tracer in
`tracing.py` sees every call the benchmark makes.

Why each workload exists, and which layer it stresses, is recorded in
`BENCHMARK.json` and in `NOTES.md`.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import hashlib
import itertools
import pickle
import random
from dataclasses import dataclass, field
from pathlib import Path

from unistrat import arena as us_arena
from unistrat import encoders, ltlgame, oracle, synthesizer
from unistrat import transducer as us_transducer
from unistrat.formula import Not, format_formula, parse


@dataclass
class Case:
    """One input of a workload: `data` holds whatever decide/check need."""
    id: int
    rung: str
    data: dict = field(default_factory=dict)


def _rng(workload: str, seed: int, *salt) -> random.Random:
    # str seeds go through sha512 in `random`, so they ignore PYTHONHASHSEED
    return random.Random(":".join(map(str, (workload, seed) + salt)))


# ---------------------------------------------------------------------------
# Shared reference helpers

def lassos(arena, rng, limit=64):
    """Lassos (stem, cycle) of the arena, one through each of `limit`
    positions (all of them in smaller arenas): a shortest path from the
    initial position to the chosen one, then a seeded random walk until a
    position repeats."""
    parent = {arena.initial: None}
    queue = collections.deque([arena.initial])
    while queue:
        v = queue.popleft()
        for w in arena.successors(v):
            if w not in parent:
                parent[w] = v
                queue.append(w)
    targets = list(parent)
    if len(targets) > limit:
        targets = rng.sample(targets, limit)
    out = []
    for target in targets:
        path = [target]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        path.reverse()
        at = {v: i for i, v in enumerate(path)}
        while True:
            nxt = rng.choice(arena.successors(path[-1]))
            if nxt in at:
                out.append((path[:at[nxt]], path[at[nxt]:]))
                break
            at[nxt] = len(path)
            path.append(nxt)
    return out


def lasso_verdicts(arena, phi, rng):
    """lasso_eval of phi on sampled lassos of the arena (labels as letters)."""
    labels = arena.labels
    return [oracle.lasso_eval([labels[v] for v in stem], [labels[v] for v in cycle], phi)
            for stem, cycle in lassos(arena, rng)]


def check_ltl_verdict(game_arena, phi, protagonist, sigma, rng):
    """Error text, or None when the verdict of an LTL game holds up.

    An `exists` verdict (a strategy) must satisfy phi on sampled lassos of
    its outcome.  A `not_exists` verdict needs the opponent to win the dual
    game, not-phi with its own automata, and every sampled lasso of the
    spoiler's outcome to violate phi.
    """
    if sigma is not None:
        outcome = us_arena.outcome_arena(game_arena, sigma)
        if not all(lasso_verdicts(outcome, phi, rng)):
            return "a lasso of the witness outcome violates the objective"
        return None
    with reused_automata():
        spoiler = ltlgame.solve_ltl_game(game_arena, Not(phi), 3 - protagonist)
    if spoiler is None:
        return "verdict not_exists, but the opponent does not win the dual game"
    outcome = us_arena.outcome_arena(game_arena, spoiler)
    if any(lasso_verdicts(outcome, phi, rng)):
        return "a lasso of the spoiler outcome satisfies the objective"
    return None


# dual automata kept across runs, under a key that covers the library source
AUTOMATA_DIR = Path(__file__).resolve().parent / "out" / "automata"
_nbas, _dpas = {}, {}


@contextlib.contextmanager
def reused_automata():
    """Within the block, ltlgame builds each (formula, letters) NBA and its
    DPA once per process, and each DPA once per library version:
    determinizing a dual objective can take a minute, and the same few
    recur on every run.

    DPAs are pickled under AUTOMATA_DIR, keyed by the hash of the unistrat
    sources and of the NBA's input, so a changed library builds afresh.
    """
    build_nba, build_dpa = ltlgame.ltl_to_nba, ltlgame.determinize
    keys = {}

    def ltl_to_nba(psi, letters=None, caps=ltlgame.DEFAULT_CAPS):
        key = (format_formula(psi), None if letters is None else
               tuple(",".join(sorted(letter)) for letter in letters), caps)
        if key not in _nbas:
            _nbas[key] = build_nba(psi, letters=letters, caps=caps)
        keys[id(_nbas[key])] = key
        return _nbas[key]

    def determinize(nba, caps=ltlgame.DEFAULT_CAPS):
        key = (keys[id(nba)], caps)
        if key not in _dpas:
            digest = hashlib.sha256(_source_digest() + repr(key).encode()).hexdigest()
            path = AUTOMATA_DIR / f"{digest[:32]}.pickle"
            if path.exists():
                _dpas[key] = pickle.loads(path.read_bytes())
            else:
                _dpas[key] = build_dpa(nba, caps=caps)
                AUTOMATA_DIR.mkdir(parents=True, exist_ok=True)
                tmp = path.with_suffix(".tmp")
                tmp.write_bytes(pickle.dumps(_dpas[key]))
                tmp.replace(path)
        return _dpas[key]

    ltlgame.ltl_to_nba, ltlgame.determinize = ltl_to_nba, determinize
    try:
        yield
    finally:
        ltlgame.ltl_to_nba, ltlgame.determinize = build_nba, build_dpa


@functools.lru_cache(maxsize=None)
def _source_digest():
    h = hashlib.sha256()
    for path in sorted(Path(ltlgame.__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.digest()


# ---------------------------------------------------------------------------
# Generators

def random_alternating_arena(rng, n, label_of, degree=(1, 2), cycle=False, name="rand"):
    """Alternating arena v0..v{n-1}: even positions belong to Player 1, odd
    ones to Player 2, every position has `degree` successors of the other
    player.  With `cycle` (n even), one of them is the next position on the
    cycle v0 -> v1 -> ... -> v0, so every position is reachable."""
    names = [f"v{i}" for i in range(n)]
    owner = {v: 1 + i % 2 for i, v in enumerate(names)}
    side = {1: names[0::2], 2: names[1::2]}
    edges = []
    for i, v in enumerate(names):
        targets = side[3 - owner[v]]
        k = min(rng.randint(*degree), len(targets))
        if cycle:
            nxt = names[(i + 1) % n]
            chosen = [nxt] + rng.sample([t for t in targets if t != nxt], k - 1)
        else:
            chosen = rng.sample(targets, k)
        edges.extend((v, t) for t in chosen)
    labels = {v: label_of(i) for i, v in enumerate(names)}
    return us_arena.Arena(names, owner, edges, "v0", labels, name=name)


OBSERVABLE = ("o0", "o1", "o2")


def random_des(rng, n):
    """A live DES with persistent faults and no unobservable cycle.

    States s* are fault-free and f* faulty (about a third).  Every state
    has exactly two outgoing transitions; unobservable ones (`u0` and the
    fault event `f`) only go up in state order, so they form no cycle.
    Candidates where some state is unreachable are drawn again; this
    depends only on the shape, never on a verdict.
    """
    n_fault = max(1, n // 3)
    normal = [f"s{i}" for i in range(n - n_fault)]
    faulty = [f"f{i}" for i in range(n_fault)]
    states = normal + faulty
    rank = {s: i for i, s in enumerate(states)}
    while True:
        trans = set()
        for s in states:
            pool = faulty if s in faulty else normal
            out = set()
            while len(out) < 2:
                r = rng.random()
                if s in normal and r < 0.15:
                    out.add(("f", rng.choice(faulty)))
                elif r < 0.4:
                    higher = [t for t in pool if rank[t] > rank[s]]
                    if higher:
                        out.add(("u0", rng.choice(higher)))
                else:
                    out.add((rng.choice(OBSERVABLE), rng.choice(pool)))
            trans.update((s, e, s2) for e, s2 in out)
        system = encoders.DesSystem(
            tuple(states), OBSERVABLE + ("u0", "f"), frozenset(OBSERVABLE),
            tuple(sorted(trans)), normal[0], frozenset(faulty))
        succ = {}
        for s, _, s2 in trans:
            succ.setdefault(s, []).append(s2)
        seen = {normal[0]}
        stack = [normal[0]]
        while stack:
            for s2 in succ[stack.pop()]:
                if s2 not in seen:
                    seen.add(s2)
                    stack.append(s2)
        if len(seen) == n:
            return system


def random_impgame(rng, n):
    """Two-action game on n states, every action available everywhere, and
    a random observation partition into blocks of one to three states."""
    states = [f"s{i}" for i in range(n)]
    trans = {}
    for s in states:
        for a in ("a", "b"):
            trans[(s, a)] = tuple(sorted(rng.sample(states, rng.randint(1, 2))))
    shuffled = states[:]
    rng.shuffle(shuffled)
    blocks = []
    while shuffled:
        size = rng.randint(1, 3)
        blocks.append(tuple(shuffled[:size]))
        shuffled = shuffled[size:]
    return encoders.ImpGame(tuple(states), ("a", "b"), trans, "s0",
                            tuple(b for b in blocks if len(b) > 1))


def positional_strategies(arena, owned, forced=()):
    """Every memoryless Player 1 strategy choosing at `owned`, in product
    order; positions in `forced` take their first successor."""
    for combo in itertools.product(*(arena.successors(v) for v in owned)):
        update = {("m", v): "m" for v in arena.positions}
        choice = {("m", v): t for v, t in zip(owned, combo)}
        for v in forced:
            choice[("m", v)] = arena.successors(v)[0]
        yield us_arena.Strategy(1, "m", update, choice)


# ---------------------------------------------------------------------------
# Workloads

class Workload:
    name = ""
    rungs: tuple = ()

    def cases(self, seed, rungs=None, on_case=None):
        """Generate and encode every case of the given rungs (default all).

        `on_case(i)` runs before case i is made, so a tracer can tag spans.
        """
        out = []
        for rung in rungs or self.rungs:
            made = self.make(seed, rung)
            while True:
                if on_case is not None:
                    on_case(len(out))
                data = next(made, None)
                if data is None:
                    break
                out.append(Case(len(out), str(rung), data))
        return out

    def make(self, seed, rung):
        raise NotImplementedError

    def decide(self, case):
        raise NotImplementedError

    def summary(self, verdict):
        """A small value that must repeat on every pass over the same case."""
        raise NotImplementedError

    def check(self, cases, verdicts):
        """{case id: error text} for every verdict its reference rejects."""
        errors = {}
        for case, verdict in zip(cases, verdicts):
            try:
                err = self.check_one(case, verdict)
            except Exception as exc:  # a crashing reference is a failed case
                err = f"reference raised {type(exc).__name__}: {exc}"
            if err:
                errors[case.id] = err
        return errors

    def check_one(self, case, verdict):
        raise NotImplementedError


class DiagLadder(Workload):
    """Diagnosability of random DES: synthesis at R-depth 1."""
    name = "diag-ladder"
    rungs = (4, 5, 6)
    per_rung = 24

    def make(self, seed, n):
        rng = _rng(self.name, seed, n)
        for _ in range(self.per_rung):
            system = random_des(rng, n)
            yield {"des": system, "enc": encoders.encode_diagnosability(system)}

    def decide(self, case):
        return synthesizer.synthesize_fully_uniform(case.data["enc"].instance)

    def summary(self, verdict):
        return verdict.verdict

    def check_one(self, case, verdict):
        want = oracle.twin_plant_diagnosable(case.data["des"])
        if verdict.exists != want:
            return f"verdict {verdict.verdict}, twin plant says diagnosable={want}"
        if verdict.exists and not synthesizer.check_uniform(
                case.data["enc"].instance, verdict.strategy, "full").ok:
            return "the synthesized witness fails its full check"
        return None


# Rungs by number of conjuncts.  Eleven formulas, each on four arenas:
# sorted by cost, the median falls in the middle of the block of one
# formula and the tail (ten cases from the top) inside another block.
LTL_LADDER = {
    1: ("p U q", "G F p", "F G p", "G(p -> X q)", "F(p & X q)", "G(p -> F q)",
        "F G p | G F q"),
    2: ("G F p & G F q", "G F p & F G q", "G(p -> F q) & G F r"),
    3: ("G F p & G F q & F G r",),
}


class LtlLadder(Workload):
    """Plain LTL games: conjunction ladder on small random arenas."""
    name = "ltl-ladder"
    rungs = (1, 2, 3)
    # arena sizes by rung; the top rung's time is almost all NBA
    # construction, whatever the arena, so one arena is enough there and
    # leaves the run's time for more calls of the other cases
    sizes = {1: (16, 24, 32, 40), 2: (16, 24, 32, 40), 3: (40,)}
    props = ("p", "q", "r", "s")

    def make(self, seed, rung):
        for k, text in enumerate(LTL_LADDER[rung]):
            phi = parse(text)
            for n in self.sizes[rung]:
                rng = _rng(self.name, seed, rung, k, n)
                # the first 16 positions carry every letter over p, q, r, s,
                # so automaton sizes depend on the formula alone
                letters = [frozenset(x for b, x in enumerate(self.props) if m >> b & 1)
                           for m in range(16)]
                rng.shuffle(letters)

                def label_of(i, letters=letters, rng=rng):
                    if i < len(letters):
                        return letters[i]
                    return frozenset(x for x in self.props if rng.random() < 0.5)

                # a cycle through every position makes a case's cost follow
                # n, not how much of the arena the seed happens to reach
                arena = random_alternating_arena(rng, n, label_of, degree=(1, 3), cycle=True)
                yield {"arena": arena, "phi": phi, "text": text}

    def decide(self, case):
        return ltlgame.solve_ltl_game(case.data["arena"], case.data["phi"], 1)

    def summary(self, verdict):
        return verdict is not None

    def check_one(self, case, verdict):
        return check_ltl_verdict(case.data["arena"], case.data["phi"], 1, verdict,
                                 _rng(self.name, "lasso", case.id))


class LargeArena(Workload):
    """Identity relation on large random arenas: the marker's product."""
    name = "large-arena"
    rungs = (80, 110, 140, 170, 200)
    per_rung = 8
    formula = "G F [R](G F p & G F q) -> G F r"
    # under the identity relation, [R](G F p & G F q) holds exactly at the
    # positions m from which every trace visits p and q infinitely often
    reference = "G F m -> G F r"

    def make(self, seed, n):
        phi = parse(self.formula)
        for k in range(self.per_rung):
            rng = _rng(self.name, seed, n, k)
            r_share = rng.choice((0.02, 0.05, 0.1, 0.3))

            def label_of(i, rng=rng, r_share=r_share):
                labels = {x for x in ("p", "q") if rng.random() < 0.5}
                if rng.random() < r_share:
                    labels.add("r")
                return frozenset(labels)

            arena = random_alternating_arena(rng, n, label_of, name=f"large{n}")
            ident = us_transducer.identity_transducer(arena.positions)
            yield {"inst": synthesizer.FusInstance.make(arena, ident, phi)}

    def decide(self, case):
        return synthesizer.synthesize_fully_uniform(case.data["inst"])

    def summary(self, verdict):
        return verdict.verdict

    def check_one(self, case, verdict):
        inst = case.data["inst"]
        arena = inst.arena
        bad = set()
        for x in ("p", "q"):
            bad |= _can_stay_in(arena, {v for v in arena.positions if x not in arena.labels[v]})
        marked = us_arena.Arena(
            arena.positions, arena.owner, arena.edges, arena.initial,
            {v: arena.labels[v] | ({"m"} if v not in bad else set()) for v in arena.positions})
        return check_ltl_verdict(marked, parse(self.reference), inst.protagonist,
                                 verdict.strategy, _rng(self.name, "lasso", case.id))


def _can_stay_in(arena, allowed):
    """Positions with a trace that eventually stays in `allowed` forever:
    the ones that reach the part of `allowed` where a trace can stay."""
    core = set(allowed)
    shrinking = True
    while shrinking:
        dead = {v for v in core if not any(u in core for u in arena.successors(v))}
        core -= dead
        shrinking = bool(dead)
    pred = {}
    for v in arena.positions:
        for u in arena.successors(v):
            pred.setdefault(u, []).append(v)
    reach = set(core)
    stack = list(core)
    while stack:
        for w in pred.get(stack.pop(), ()):
            if w not in reach:
                reach.add(w)
                stack.append(w)
    return reach


DL_SENTENCES = {
    "dl2": (("forall x0 exists x1 (dep(x0, x1) & E(x0, x1))", "0,1"),
            ("forall x0 exists x1 (dep(x1) & E(x0, x1))", "0,1"),
            ("forall x0 forall x1 (E(x0, x1) | dep(x0, x1))", "0,1"),
            ("forall x0 forall x1 (x0 = x1 | dep(x0, x1))", "0,1")),
    "dl3": (("forall x0 exists x1 (dep(x0, x1) & E(x0, x1))", "0,1,2"),),
}


class StrictCheck(Workload):
    """Strict checking of every candidate strategy of small games."""
    name = "strict-check"
    rungs = ("imp", "dl2", "dl3")
    imp_sizes = (3, 4)

    def make(self, seed, rung):
        if rung == "imp":
            for n in self.imp_sizes:
                raw = random_impgame(_rng(self.name, seed, rung, n), n)
                enc = encoders.encode_imperfect_info(raw)
                arena = enc.instance.arena
                owned = [v for v in arena.positions if arena.owner[v] == 1]
                for sigma in positional_strategies(arena, owned):
                    yield {"kind": "imp", "game": f"imp{n}", "raw": raw,
                           "enc": enc, "sigma": sigma}
            return
        for k, (text, dom) in enumerate(DL_SENTENCES[rung]):
            rng = _rng(self.name, seed, rung, k)
            domain = dom.split(",")
            rel = [f"rel E {a},{b}" for a in domain for b in domain if rng.random() < 0.5]
            sentence, model = encoders.parse_dlgame(
                "\n".join(["dlgame", f"sentence {text}", f"dom {dom}"] + rel) + "\n")
            enc = encoders.encode_dependence_game(sentence, model)
            arena = enc.arena
            owned = list(enc.choice_positions)
            forced = [v for v in arena.positions
                      if arena.owner[v] == 1 and v not in owned]
            for sigma in positional_strategies(arena, owned, forced):
                yield {"kind": "dl", "game": f"{rung}.{k}", "sentence": sentence,
                       "model": model, "enc": enc, "sigma": sigma}

    def decide(self, case):
        return synthesizer.check_uniform(case.data["enc"].instance,
                                         case.data["sigma"], "strict")

    def summary(self, verdict):
        return verdict.ok

    def check(self, cases, verdicts):
        errors = super().check(cases, verdicts)
        # dependence logic: a winning uniform strategy exists iff the
        # sentence is true under team semantics
        games = {}
        for case, verdict in zip(cases, verdicts):
            if case.data["kind"] == "dl":
                games.setdefault(case.data["game"], []).append((case, verdict))
        for members in games.values():
            first = members[0][0].data
            truth = oracle.dl_eval(first["sentence"], first["model"])
            found = any(v.ok and _dl_winning(c.data) for c, v in members)
            if found != truth:
                for c, _ in members:
                    errors.setdefault(
                        c.id, f"winning uniform strategy found={found}, "
                              f"team semantics says {truth}")
        return errors

    def check_one(self, case, verdict):
        want = (_imp_observation_based(case.data) if case.data["kind"] == "imp"
                else _dl_uniform(case.data))
        if verdict.ok != want:
            return f"strict check says {verdict.ok}, direct definition says {want}"
        return None


def _reachable(arena, sigma):
    """Positions reached by a positional Player 1 strategy."""
    seen = {arena.initial}
    stack = [arena.initial]
    while stack:
        v = stack.pop()
        targets = ([sigma.choice[("m", v)]] if arena.owner[v] == 1
                   else arena.successors(v))
        for t in targets:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def _dl_winning(data):
    enc = data["enc"]
    reached = _reachable(enc.arena, data["sigma"])
    return all(w == 1 for v, w in enc.terminal_winner.items() if v in reached)


def _dl_uniform(data):
    """Reached positions of one dependence atom that agree on the first
    terms must agree on the last one."""
    enc = data["enc"]
    values = {}
    for v in _reachable(enc.arena, data["sigma"]):
        if v in enc.dep_positions:
            last = {x for x in enc.arena.labels[v] if x not in ("pd", "win1")}
            values.setdefault(enc.dep_positions[v], set()).update(last)
    return all(len(vals) == 1 for vals in values.values())


def _imp_observation_based(data):
    """Observation-based, by the definition: pairs of consistent histories
    with equal observations and actions never get different actions.

    The search runs over pairs of game states reached in lockstep, which is
    exact for memoryless strategies.
    """
    raw, enc, sigma = data["raw"], data["enc"], data["sigma"]
    block = {s: s for s in raw.states}
    for b in raw.obs_classes:
        for s in b:
            block[s] = b[0]

    def act(s):
        return enc.action_of[sigma.choice[("m", s)]]

    start = (raw.initial, raw.initial)
    seen = {start}
    stack = [start]
    while stack:
        s, s2 = stack.pop()
        a = act(s)
        if act(s2) != a:
            return False
        for t in raw.trans[(s, a)]:
            for t2 in raw.trans[(s2, a)]:
                if block[t] == block[t2] and (t, t2) not in seen:
                    seen.add((t, t2))
                    stack.append((t, t2))
    return True


WORKLOADS = {w.name: w for w in (DiagLadder(), LtlLadder(), LargeArena(), StrictCheck())}
