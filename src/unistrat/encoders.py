"""Builders turning concrete verification problems into uniform-strategy
instances: imperfect-information games, opacity, non-interference,
diagnosability/prognosability of discrete-event systems, and evaluation
games of dependence logic.

Each encoder produces a FusInstance (arena, play relation, formula,
protagonist) together with the intended checking mode and any auxiliary
artifacts (a canonical strategy, proposition maps) that callers need.
Every instance is made by `FusInstance.make`, which rejects an ill-formed
arena with its first `arena.validate` diagnostic.

Arenas built here are always bipartite: where a source framework moves the
same player twice in a row, an unlabeled pass-through position owned by the
other player is inserted, and the play relations are built to ignore such
positions (they are never observed and never related endpoints unless the
encoding wants exactly that).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .arena import Arena, Strategy, _directives
from .errors import EncodingError, InputFormatError
from .formula import MAX_DEPTH, parse as parse_formula
from .graph import reachable
from .synthesizer import FusInstance
from .transducer import (EPSILON, Transducer, build_morphism_equivalence,
                         build_observation_equivalence, identity_transducer,
                         position_groups, union)

__all__ = [
    "ImpGame", "DesSystem", "NiSystem", "DlModel",
    "parse_impgame", "parse_des", "parse_nisys", "parse_dlgame",
    "encode_imperfect_info", "encode_opacity", "encode_noninterference",
    "encode_diagnosability", "encode_prognosability", "encode_dependence_game",
    "parse_dl_sentence",
]

_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")


def _check_name(kind, name, lineno=None):
    if not _NAME_RE.match(name):
        raise InputFormatError(f"{kind} name {name!r} must be alphanumeric", lineno)


# ---------------------------------------------------------------------------
# Imperfect information (and opacity)

@dataclass
class ImpGame:
    """Action-labelled game with an observation partition on states."""
    states: tuple
    actions: tuple
    trans: dict          # (state, action) -> tuple of states
    initial: str
    obs_classes: tuple   # tuple of tuples of states; singletons implicit
    secrets: frozenset = frozenset()


def parse_impgame(text: str) -> ImpGame:
    states, actions, secrets = [], [], set()
    trans: dict = {}
    obs_blocks = []
    initial = None
    for lineno, kind, ops in _directives(text, {
            "impgame": (0, 0), "state": (1, None), "action": (1, 1),
            "trans": (3, 3), "obs": (1, None)}):
        if kind == "state":
            _check_name("state", ops[0], lineno)
            states.append(ops[0])
            for flag in ops[1:]:
                if flag == "init":
                    initial = ops[0]
                elif flag == "secret":
                    secrets.add(ops[0])
                else:
                    raise InputFormatError(f"unknown state flag {flag!r}", lineno)
        elif kind == "action":
            _check_name("action", ops[0], lineno)
            actions.append(ops[0])
        elif kind == "trans":
            trans.setdefault((ops[0], ops[1]), []).append(ops[2])
        elif kind == "obs":
            obs_blocks.append(tuple(ops))
    if initial is None:
        raise InputFormatError("impgame needs a state marked init")
    for (s, a), targets in trans.items():
        if s not in states or a not in actions or any(t not in states for t in targets):
            raise InputFormatError(f"trans ({s},{a}) references unknown names")
    return ImpGame(tuple(states), tuple(actions),
                   {k: tuple(v) for k, v in trans.items()},
                   initial, tuple(obs_blocks), frozenset(secrets))


def _imp_arena(raw: ImpGame, with_secret_label: bool) -> tuple:
    """The positions-with-actions arena: states belong to Player 1, chosen
    actions become intermediate Player 2 positions labelled by the action."""
    positions, owner, labels, edges = [], {}, {}, []
    action_of = {}
    available = {s: tuple(a for a in raw.actions if (s, a) in raw.trans)
                 for s in raw.states}
    for s in raw.states:
        if not available[s]:
            raise EncodingError(f"state {s!r} has no available action")
    for s in raw.states:
        positions.append(s)
        owner[s] = 1
        labs = {"p1"}
        if with_secret_label and s in raw.secrets:
            labs.add("pS")
        labels[s] = labs
    for s in raw.states:
        for a in available[s]:
            pos = f"({s},{a})"
            positions.append(pos)
            owner[pos] = 2
            labels[pos] = {f"p{a}"}
            action_of[pos] = a
            edges.append((s, pos))
            for s2 in raw.trans[(s, a)]:
                edges.append((pos, s2))
    arena = Arena(positions, owner, edges, raw.initial, labels, name="impinfo")
    return arena, action_of, available


def _obs_partition(raw: ImpGame, arena: Arena) -> list:
    blocks = [tuple(b) for b in raw.obs_classes]
    placed = {s for b in blocks for s in b}
    for b in blocks:
        for s in b:
            if s not in raw.states:
                raise EncodingError(f"obs class mentions unknown state {s!r}")
    blocks += [(s,) for s in raw.states if s not in placed]
    return blocks


def _check_action_availability(raw: ImpGame, available, blocks):
    for block in blocks:
        sets = {s: set(available[s]) for s in block}
        first = sets[block[0]]
        for s in block[1:]:
            if sets[s] != first:
                raise EncodingError(
                    "indistinguishable positions offer different actions: "
                    f"{block[0]!r} has {sorted(first)}, {s!r} has {sorted(sets[s])}")


@dataclass
class ImpInfoEncoding:
    instance: FusInstance
    mode: str
    formula_text: str
    action_of: dict
    arena: Arena
    shifted: bool = False


def encode_imperfect_info(raw: ImpGame, shifted: bool = False) -> ImpInfoEncoding:
    """Observation-based-strategy checking as a uniformity property.

    Plain form: strategies must repeat one action across observationally
    equivalent histories whenever it is Player 1's turn.  The shifted form
    uses the non-reflexive next-step relation and drops the turn test.
    """
    arena, action_of, available = _imp_arena(raw, with_secret_label=False)
    blocks = _obs_partition(raw, arena)
    _check_action_availability(raw, available, blocks)
    actions = tuple(a for a in raw.actions
                    if any(a in available[s] for s in raw.states))
    if not shifted:
        t = build_observation_equivalence(arena, blocks)
        text = "G(p1 -> (" + " | ".join(f"[R] X p{a}" for a in actions) + "))"
        inst = FusInstance.make(arena, t, parse_formula(text), protagonist=1)
        return ImpInfoEncoding(inst, "strict", text, action_of, arena)
    t = _shifted_observation_relation(arena, blocks)
    text = "G(" + " | ".join(f"[R] p{a}" for a in actions) + ")"
    inst = FusInstance.make(arena, t, parse_formula(text), protagonist=1)
    return ImpInfoEncoding(inst, "strict", text, action_of, arena, shifted=True)


def _shifted_observation_relation(arena: Arena, blocks) -> Transducer:
    """Relates a play ending at a Player 1 position to every one-step
    extension of an observationally equivalent play: state s1 means the
    last position read is Player 1's, and only there may the extra
    position be written."""
    groups = position_groups(arena, blocks)
    s0, s1, s2 = "s0", "s1", "s2"
    positions = frozenset(arena.positions)
    transitions = [(q, u, v, s1 if arena.owner[u] == 1 else s0)
                   for q in (s0, s1) for g in groups for u in g for v in g]
    transitions += [(s1, EPSILON, w, s2) for w in arena.positions]
    return Transducer([s0, s1, s2], positions, positions, s0, [s2],
                      transitions, name="obs-shift")


@dataclass
class OpacityEncoding:
    attacker: FusInstance      # Player 1 eventually pins the play inside S
    defender: FusInstance      # Player 2 keeps that from ever happening
    attacker_mode: str
    defender_mode: str
    attacker_formula: str
    defender_formula: str
    action_of: dict
    arena: Arena


def encode_opacity(raw: ImpGame) -> OpacityEncoding:
    """Two games on a secret-labelled imperfect-information arena: the
    observer tries to learn membership in the secret, the other player
    tries to keep the secret opaque forever."""
    if not raw.secrets <= set(raw.states):
        raise EncodingError("secret set mentions unknown states")
    arena, action_of, available = _imp_arena(raw, with_secret_label=True)
    blocks = _obs_partition(raw, arena)
    _check_action_availability(raw, available, blocks)
    t = build_observation_equivalence(arena, blocks)
    attacker_text = "F [R] pS"
    defender_text = "G ![R] pS"
    attacker = FusInstance.make(arena, t, parse_formula(attacker_text),
                                protagonist=1)
    # the same restricted relation: only the objective and the player differ
    defender = replace(attacker, phi=parse_formula(defender_text), protagonist=2)
    return OpacityEncoding(attacker, defender, "strict", "full",
                           attacker_text, defender_text, action_of, arena)


# ---------------------------------------------------------------------------
# Non-interference

@dataclass
class NiSystem:
    inputs: tuple                # input variable names
    high: frozenset              # the high-security subset
    outputs: tuple
    states: tuple
    initial: str
    trans: dict                  # (state, frozenset valuation) -> state
    output: dict                 # state -> frozenset valuation


def parse_nisys(text: str) -> NiSystem:
    inputs, outputs, states = [], [], []
    high = set()
    trans: dict = {}
    output: dict = {}
    initial = None

    def valuation(token, lineno, universe):
        if token == "-":
            return frozenset()
        vals = frozenset(token.split(","))
        unknown = vals - set(universe)
        if unknown:
            raise InputFormatError(
                f"valuation mentions undeclared variable {sorted(unknown)[0]!r}", lineno)
        return vals

    for lineno, kind, ops in _directives(text, {
            "nisys": (0, 0), "in": (1, 2), "out": (1, 1), "trans": (3, 3),
            "output": (2, 2)}):
        if kind == "in":
            _check_name("input variable", ops[0], lineno)
            inputs.append(ops[0])
            if len(ops) > 1:
                if ops[1] != "high":
                    raise InputFormatError(f"unknown input flag {ops[1]!r}", lineno)
                high.add(ops[0])
        elif kind == "out":
            _check_name("output variable", ops[0], lineno)
            outputs.append(ops[0])
        elif kind == "trans":
            s, val, s2 = ops[0], valuation(ops[1], lineno, inputs), ops[2]
            for st in (s, s2):
                if st not in states:
                    _check_name("state", st, lineno)
                    states.append(st)
            if initial is None:
                initial = s
            if (s, val) in trans:
                raise InputFormatError(f"duplicate transition from {s!r}", lineno)
            trans[(s, val)] = s2
        elif kind == "output":
            output[ops[0]] = valuation(ops[1], lineno, outputs)
    if initial is None:
        raise InputFormatError("nisys needs at least one transition")
    return NiSystem(tuple(inputs), frozenset(high), tuple(outputs),
                    tuple(states), initial, trans, output)


def _valstr(val: frozenset) -> str:
    return "_".join(sorted(val)) if val else "0"


def _input_valuations(sys: NiSystem) -> list:
    out = []
    n = len(sys.inputs)
    for mask in range(1 << n):
        out.append(frozenset(v for i, v in enumerate(sys.inputs) if mask >> i & 1))
    return sorted(out, key=_valstr)


@dataclass
class NonInterferenceEncoding:
    instance: FusInstance
    mode: str
    formula_text: str
    trivial_strategy: Strategy
    arena: Arena
    full_allowance: str          # the Player 2 position id granting all inputs


def encode_noninterference(sys: NiSystem) -> NonInterferenceEncoding:
    """Control for non-interference: Player 1 restricts the next allowed
    inputs, Player 2 picks one; outputs must agree along low-equivalent
    executions.  The all-allowing strategy encodes the plain property."""
    vals = _input_valuations(sys)
    for s in sys.states:
        if s not in sys.output:
            raise EncodingError(f"state {s!r} has no declared output")
        for val in vals:
            if (s, val) not in sys.trans:
                raise EncodingError(
                    f"incomplete system: state {s!r} lacks a transition for "
                    f"input {_valstr(val)!r}")

    subsets = []
    for mask in range(1, 1 << len(vals)):
        subsets.append(tuple(vals[i] for i in range(len(vals)) if mask >> i & 1))
    subsets.sort(key=lambda block: (len(block), [_valstr(v) for v in block]))

    def v1_id(a, s):
        return f"({'.' if a is None else _valstr(a)},{s})"

    def v2_id(s, block):
        return f"({s},{{{';'.join(_valstr(v) for v in block)}}})"

    positions, owner, labels, edges = [], {}, {}, []
    out_prop = {s: f"o{_valstr(sys.output[s])}" for s in sys.states}
    v1_positions = [(None, sys.initial)] + [(a, s) for s in sys.states for a in vals]
    for a, s in v1_positions:
        pid = v1_id(a, s)
        positions.append(pid)
        owner[pid] = 1
        labels[pid] = {out_prop[s]}
    v2_ids = {}
    for s in sys.states:
        for block in subsets:
            pid = v2_id(s, block)
            v2_ids[(s, block)] = pid
            positions.append(pid)
            owner[pid] = 2
            labels[pid] = {out_prop[s]}
    for a, s in v1_positions:
        pid = v1_id(a, s)
        for block in subsets:
            edges.append((pid, v2_ids[(s, block)]))
    for s in sys.states:
        for block in subsets:
            src = v2_ids[(s, block)]
            for a in block:
                edges.append((src, v1_id(a, sys.trans[(s, a)])))

    initial = v1_id(None, sys.initial)
    arena = Arena(positions, owner, edges, initial, labels, name="nisys")

    low = frozenset(v for v in sys.inputs if v not in sys.high)
    h = {}
    for pid in positions:
        h[pid] = None
    for a, s in v1_positions:
        if a is not None:
            h[v1_id(a, s)] = "l" + _valstr(a & low)
    t = build_morphism_equivalence(arena, h)

    props = sorted(set(out_prop.values()))
    text = "G(" + " & ".join(f"({p} -> [R] {p})" for p in props) + ")"
    inst = FusInstance.make(arena, t, parse_formula(text), protagonist=1)

    full_block = tuple(vals)
    mem = "m"
    update = {(mem, pid): mem for pid in positions}
    choice = {}
    for a, s in v1_positions:
        choice[(mem, v1_id(a, s))] = v2_ids[(s, full_block)]
    trivial = Strategy(1, mem, update, choice, name="allow-everything")
    return NonInterferenceEncoding(inst, "strict", text, trivial, arena,
                                   v2_ids[(sys.initial, full_block)])


# ---------------------------------------------------------------------------
# Discrete-event systems: diagnosability and prognosability

@dataclass
class DesSystem:
    states: tuple
    events: tuple
    observable: frozenset
    trans: tuple                 # (state, event, state) triples
    initial: str
    faulty: frozenset


def parse_des(text: str) -> DesSystem:
    states, events, trans = [], [], []
    observable, faulty = set(), set()
    initial = None
    for lineno, kind, ops in _directives(text, {
            "des": (0, 0), "state": (1, None), "event": (1, 2), "trans": (3, 3)}):
        if kind == "state":
            _check_name("state", ops[0], lineno)
            states.append(ops[0])
            for flag in ops[1:]:
                if flag == "init":
                    initial = ops[0]
                elif flag == "faulty":
                    faulty.add(ops[0])
                else:
                    raise InputFormatError(f"unknown state flag {flag!r}", lineno)
        elif kind == "event":
            _check_name("event", ops[0], lineno)
            events.append(ops[0])
            if len(ops) > 1:
                if ops[1] != "obs":
                    raise InputFormatError(f"unknown event flag {ops[1]!r}", lineno)
                observable.add(ops[0])
        elif kind == "trans":
            trans.append((ops[0], ops[1], ops[2]))
    if initial is None:
        raise InputFormatError("des needs a state marked init")
    for s, e, s2 in trans:
        if s not in states or s2 not in states or e not in events:
            raise InputFormatError(f"trans ({s},{e},{s2}) references unknown names")
    return DesSystem(tuple(states), tuple(events), frozenset(observable),
                     tuple(trans), initial, frozenset(faulty))


def _des_reachable(sys: DesSystem) -> set:
    succ: dict = {}
    for s, e, s2 in sys.trans:
        succ.setdefault(s, []).append(s2)
    nodes, _, _ = reachable([sys.initial], lambda s: succ.get(s, ()))
    return set(nodes)


def validate_des(sys: DesSystem):
    """Faults must be persistent and the reachable part deadlock-free."""
    reached = _des_reachable(sys)
    outgoing = {s: [tr for tr in sys.trans if tr[0] == s] for s in sys.states}
    for s in sorted(reached):
        if not outgoing[s]:
            raise EncodingError(f"deadlock: reachable state {s!r} has no transition")
        if s in sys.faulty:
            for _, e, s2 in outgoing[s]:
                if s2 not in sys.faulty:
                    raise EncodingError(
                        f"non-persistent fault: {s!r} -> {s2!r} leaves the faulty set")


@dataclass
class DesEncoding:
    instance: FusInstance
    mode: str
    formula_text: str
    arena: Arena
    real_positions: frozenset
    dummy_positions: frozenset


def _des_arena(sys: DesSystem) -> tuple:
    """One-player simulation arena with alternation restored by inserting a
    pass-through Player 1 position in front of every system move."""
    validate_des(sys)
    if "-" in sys.events:
        raise EncodingError("event name '-' is reserved")
    reached = _des_reachable(sys)

    def real_id(a, s):
        return f"({a},{s})"

    def dummy_id(a, s):
        return f">({a},{s})"

    positions, owner, labels, edges = [], {}, {}, []
    real_positions = [("-", sys.initial)]
    seen = {("-", sys.initial)}
    for s, e, s2 in sys.trans:
        if s in reached and (e, s2) not in seen:
            seen.add((e, s2))
            real_positions.append((e, s2))
    moves = [(s, e, s2) for (s, e, s2) in sys.trans if s in reached]

    for a, s in real_positions:
        pid = real_id(a, s)
        positions.append(pid)
        owner[pid] = 2
        labels[pid] = {"pf"} if s in sys.faulty else set()
    for a, s in real_positions:
        if any(m[1] == a and m[2] == s for m in moves):
            did = dummy_id(a, s)
            positions.append(did)
            owner[did] = 1
            labels[did] = set()
    dummies = {p for p in positions if p.startswith(">")}
    for a, s in real_positions:
        src = real_id(a, s)
        for s0, e, s2 in moves:
            if s0 == s:
                edges.append((src, dummy_id(e, s2)))
                edges.append((dummy_id(e, s2), real_id(e, s2)))

    arena = Arena(positions, owner, edges, real_id("-", sys.initial), labels,
                  name="des")

    h = {}
    for pid in positions:
        h[pid] = None
    for a, s in real_positions:
        if a in sys.observable:
            h[real_id(a, s)] = f"e_{a}"
    reals = frozenset(real_id(a, s) for a, s in real_positions)
    return arena, h, reals, frozenset(dummies)


def _des_encoding(sys: DesSystem, formula_text: str, endpoints: str) -> DesEncoding:
    arena, h, reals, dummies = _des_arena(sys)
    target = reals if endpoints == "real" else dummies
    t = build_morphism_equivalence(arena, h, ends_in=target)
    inst = FusInstance.make(arena, t, parse_formula(formula_text), protagonist=1)
    return DesEncoding(inst, "full", formula_text, arena, reals, dummies)


def encode_diagnosability(sys: DesSystem) -> DesEncoding:
    """Faults must eventually be certain from the observations alone:
    related plays are those with the same observable projection, and the
    related endpoints (system configurations) must all become faulty."""
    return _des_encoding(sys, "F pf -> F [R] pf", endpoints="real")


def encode_prognosability(sys: DesSystem) -> DesEncoding:
    """Faults must be announced one step ahead: just before a fault, every
    observation-compatible pending move leads into the faulty set.

    Related endpoints here are the pass-through positions, each of which
    determines the system move about to happen; requiring faultiness next
    quantifies over exactly those pending moves.
    """
    return _des_encoding(sys, "(!pf) W (!pf & [R] X pf)", endpoints="dummy")


# ---------------------------------------------------------------------------
# Dependence logic evaluation games

@dataclass(frozen=True)
class DlQuant:
    kind: str        # "forall" | "exists"
    var: str
    sub: "DlNode"
    nid: int


@dataclass(frozen=True)
class DlBin:
    kind: str        # "and" | "or"
    left: "DlNode"
    right: "DlNode"
    nid: int


@dataclass(frozen=True)
class DlAtom:
    kind: str        # "eq" | "rel" | "dep"
    terms: tuple
    negated: bool
    nid: int
    rel_name: str = ""


DlNode = object


@dataclass
class DlModel:
    domain: tuple
    relations: dict   # name -> frozenset of tuples


class _DlParser:
    """Recursive parser for negation-normal-form first-order sentences with
    dependence atoms: quantifiers, & and |, and possibly negated atoms."""

    def __init__(self, text):
        spaced = text.replace("(", " ( ").replace(")", " ) ").replace(",", " , ")
        spaced = spaced.replace("=", " = ").replace("!", " ! ").replace("|", " | ")
        spaced = spaced.replace("&", " & ")
        self.tokens = spaced.split()
        self.i = 0
        self.counter = 0

    def fresh(self):
        self.counter += 1
        return self.counter

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise InputFormatError("unexpected end of sentence")
        self.i += 1
        return tok

    def expect(self, tok):
        got = self.next()
        if got != tok:
            raise InputFormatError(f"expected {tok!r}, found {got!r} in sentence")

    def parse(self):
        out = self.parse_formula()
        if self.peek() is not None:
            raise InputFormatError(f"trailing sentence input {self.peek()!r}")
        return out

    def parse_formula(self):
        tok = self.peek()
        if tok in ("forall", "exists"):
            self.next()
            nid = self.fresh()
            var = self.next()
            _check_name("variable", var)
            return DlQuant(tok, var, self.parse_formula(), nid)
        return self.parse_or()

    def parse_or(self):
        left = self.parse_and()
        while self.peek() == "|":
            self.next()
            nid = self.fresh()
            right = self.parse_and()
            left = DlBin("or", left, right, nid)
        return left

    def parse_and(self):
        left = self.parse_unit()
        while self.peek() == "&":
            self.next()
            nid = self.fresh()
            right = self.parse_unit()
            left = DlBin("and", left, right, nid)
        return left

    def parse_unit(self):
        tok = self.peek()
        if tok == "(":
            self.next()
            inner = self.parse_formula()
            self.expect(")")
            return inner
        if tok in ("forall", "exists"):
            return self.parse_formula()
        negated = False
        if tok == "!":
            self.next()
            negated = True
            if self.peek() == "(":
                raise InputFormatError("negation is only allowed on atoms")
        return self.parse_atom(negated)

    def parse_atom(self, negated):
        nid = self.fresh()
        tok = self.next()
        if tok == "dep":
            self.expect("(")
            terms = self.parse_terms()
            return DlAtom("dep", terms, negated, nid)
        if self.peek() == "(":
            self.next()
            terms = self.parse_terms()
            return DlAtom("rel", terms, negated, nid, rel_name=tok)
        if self.peek() == "=":
            self.next()
            other = self.next()
            return DlAtom("eq", (tok, other), negated, nid)
        raise InputFormatError(f"cannot parse atom near {tok!r}")

    def parse_terms(self):
        terms = [self.next()]
        while self.peek() == ",":
            self.next()
            terms.append(self.next())
        self.expect(")")
        return tuple(terms)


def parse_dl_sentence(text: str) -> DlNode:
    """Parse a sentence.  Text nested too deeply for the recursive parser,
    or a sentence tree more than MAX_DEPTH levels deep, is rejected: the
    passes over the tree recurse once per level."""
    try:
        sentence = _DlParser(text).parse()
    except RecursionError:
        raise InputFormatError("sentence nested too deeply") from None
    height, stack = 0, [(sentence, 1)]
    while stack:
        node, level = stack.pop()
        height = max(height, level)
        if isinstance(node, DlQuant):
            stack.append((node.sub, level + 1))
        elif isinstance(node, DlBin):
            stack += [(node.left, level + 1), (node.right, level + 1)]
    if height > MAX_DEPTH:
        raise InputFormatError(f"sentence nested deeper than {MAX_DEPTH} levels")
    return sentence


def _dl_arities(sentence: DlNode) -> dict:
    """Relation name -> the number of terms its atoms take in the
    sentence; InputFormatError when one name takes two numbers."""
    arity, stack = {}, [sentence]
    while stack:
        node = stack.pop()
        if isinstance(node, DlQuant):
            stack.append(node.sub)
        elif isinstance(node, DlBin):
            stack += [node.left, node.right]
        elif node.kind == "rel":
            n = arity.setdefault(node.rel_name, len(node.terms))
            if n != len(node.terms):
                raise InputFormatError(f"relation {node.rel_name!r} takes {n} and "
                                       f"{len(node.terms)} terms in sentence")
    return arity


def parse_dlgame(text: str) -> tuple:
    """Parse the dependence-logic game format.  The sentence's errors name
    its line; every `rel` tuple must hold elements of `dom` (which may
    come after it) and as many as the sentence's atoms of that relation."""
    sentence_line = sentence_text = None
    domain = None
    tuples = []   # (line number, relation name, tuple)
    for lineno, kind, ops in _directives(text, {
            "dlgame": (0, 0), "sentence": (0, None), "dom": (0, None),
            "rel": (1, None)}):
        if kind == "sentence":
            sentence_line, sentence_text = lineno, " ".join(ops)
        elif kind == "dom":
            domain = tuple(x for x in " ".join(ops).split(",") if x)
            for d in domain:
                _check_name("domain element", d, lineno)
        elif kind == "rel":
            tup = tuple(x for x in " ".join(ops[1:]).split(",") if x)
            tuples.append((lineno, ops[0], tup))
    if sentence_text is None or domain is None:
        raise InputFormatError("dlgame needs sentence and dom lines")
    try:
        sentence = parse_dl_sentence(sentence_text)
        arity = _dl_arities(sentence)
    except InputFormatError as exc:
        raise InputFormatError(str(exc), sentence_line) from None
    relations: dict = {}
    for lineno, name, tup in tuples:
        stray = [x for x in tup if x not in domain]
        if stray:
            raise InputFormatError(f"rel element {stray[0]!r} is not in dom", lineno)
        if len(tup) != arity.get(name, len(tup)):
            raise InputFormatError(f"rel {name} takes {arity[name]} element(s), "
                                   f"found {len(tup)}", lineno)
        relations.setdefault(name, set()).add(tup)
    model = DlModel(domain, {k: frozenset(v) for k, v in relations.items()})
    return sentence, model


def _dl_free_vars(node, bound):
    if isinstance(node, DlQuant):
        return _dl_free_vars(node.sub, bound | {node.var})
    if isinstance(node, DlBin):
        return _dl_free_vars(node.left, bound) | _dl_free_vars(node.right, bound)
    return {t for t in node.terms if t not in bound}


def dl_term_value(term, assignment, model: DlModel):
    if term in assignment:
        return assignment[term]
    if term in model.domain:
        return term
    raise EncodingError(f"free variable {term!r} in sentence")


def _dl_atom_winner(atom: DlAtom, assignment, model: DlModel) -> int:
    """1 or 2, by the game rules at terminal positions."""
    if atom.kind == "dep":
        return 2 if atom.negated else 1
    if atom.kind == "eq":
        a = dl_term_value(atom.terms[0], assignment, model)
        b = dl_term_value(atom.terms[1], assignment, model)
        holds = a == b
    else:
        tup = tuple(dl_term_value(t, assignment, model) for t in atom.terms)
        holds = tup in model.relations.get(atom.rel_name, frozenset())
    if atom.negated:
        holds = not holds
    return 1 if holds else 2


@dataclass
class DlGameEncoding:
    instance: FusInstance
    mode: str
    agree_formula: str
    win_formula: str
    combined_formula: str
    arena: Arena
    dep_positions: dict        # position id -> (node id, first-terms value tuple)
    terminal_winner: dict      # terminal position id -> 1 | 2
    choice_positions: tuple    # Player 1 positions with a real choice


def encode_dependence_game(sentence: DlNode, model: DlModel) -> DlGameEncoding:
    """Evaluation game for a dependence-logic sentence on a finite model.

    Player 1 resolves disjunctions and existentials, Player 2 conjunctions
    and universals; atoms are absorbing.  Positions at (non-negated)
    dependence atoms carry both a marker proposition and the proposition of
    the last term's value; related plays end at the same syntactic atom
    with the first terms agreeing, so uniformity forces the last value to
    be a function of the first ones exactly on positions the strategy
    reaches.
    """
    free = _dl_free_vars(sentence, set()) - set(model.domain)
    if free:
        raise EncodingError(f"free variable {sorted(free)[0]!r} in sentence")
    if not model.domain:
        raise EncodingError("empty domain")

    def aid(assignment):
        if not assignment:
            return "{}"
        return "{" + ",".join(f"{k}={v}" for k, v in sorted(assignment.items())) + "}"

    def pid(node, assignment):
        return f"n{node.nid}{aid(assignment)}"

    positions, owner, labels, raw_edges = [], {}, {}, []
    dep_positions: dict = {}
    terminal_winner: dict = {}

    seen = set()

    def build(node, assignment):
        key = pid(node, assignment)
        if key in seen:
            return key
        seen.add(key)
        positions.append(key)
        labels[key] = set()
        if isinstance(node, DlQuant):
            owner[key] = 1 if node.kind == "exists" else 2
            for a in model.domain:
                sub = dict(assignment)
                sub[node.var] = a
                raw_edges.append((key, build(node.sub, sub)))
        elif isinstance(node, DlBin):
            owner[key] = 1 if node.kind == "or" else 2
            raw_edges.append((key, build(node.left, assignment)))
            raw_edges.append((key, build(node.right, assignment)))
        else:
            winner = _dl_atom_winner(node, assignment, model)
            owner[key] = 1
            terminal_winner[key] = winner
            if winner == 1:
                labels[key].add("win1")
            if node.kind == "dep" and not node.negated:
                labels[key].add("pd")
                last = dl_term_value(node.terms[-1], assignment, model)
                labels[key].add(f"p{last}")
                firsts = tuple(dl_term_value(t, assignment, model)
                               for t in node.terms[:-1])
                dep_positions[key] = (node.nid, firsts)
            raw_edges.append((key, key))
        return key

    initial = build(sentence, {})

    # restore alternation: same-owner edges pass through an unlabeled
    # position of the other player
    final_edges = []
    for src, dst in raw_edges:
        if owner[src] != owner[dst]:
            final_edges.append((src, dst))
            continue
        mid = f">{dst}"
        if mid not in owner:
            positions.append(mid)
            owner[mid] = 3 - owner[dst]
            labels[mid] = set()
        final_edges.append((src, mid))
        final_edges.append((mid, dst))

    arena = Arena(positions, owner, final_edges, initial, labels, name="dlgame")

    # related plays: identical, or ending at the same dependence atom with
    # the first terms agreeing
    keys = sorted(set(dep_positions.values()), key=str)
    key_of = {v: dep_positions.get(v) for v in positions}
    none_key = "_"
    states = [("lm", ki, ko) for ki in [none_key] + keys for ko in [none_key] + keys]
    lm_init = ("lm", none_key, none_key)
    lm_trans = []
    for _, ki, ko in states:
        for v in arena.positions:
            kv = key_of[v] if key_of[v] is not None else none_key
            lm_trans.append((("lm", ki, ko), v, EPSILON, ("lm", kv, ko)))
            lm_trans.append((("lm", ki, ko), EPSILON, v, ("lm", ki, kv)))
    lm_accept = [("lm", k, k) for k in keys]
    position_set = frozenset(arena.positions)
    lastmatch = Transducer(states, position_set, position_set, lm_init,
                           lm_accept, lm_trans, name="same-dep")
    t = union(identity_transducer(position_set), lastmatch)

    agree = "G(pd -> (" + " | ".join(f"[R] p{a}" for a in model.domain) + "))"
    win = "F win1"
    combined = f"({agree}) & {win}"
    inst = FusInstance.make(arena, t, parse_formula(agree), protagonist=1)
    choice_positions = tuple(
        v for v in arena.positions
        if arena.owner[v] == 1 and len(arena.successors(v)) > 1)
    return DlGameEncoding(inst, "strict", agree, win, combined, arena,
                          dep_positions, terminal_winner, choice_positions)
