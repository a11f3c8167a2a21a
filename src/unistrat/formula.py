"""Formulas of LTL extended with the bundle modality R.

Core nodes are the constants true and false, atoms, negation,
conjunction, next, until and R ("for all related plays").  Everything
else (->, |, F, G, W, <R>) is parser sugar expanded into the core: F f is
true U f and G f is !(true U !f).  ASTs are immutable and compared
structurally, so they can be used as dict keys and deduplicated by value.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

from .errors import FormulaParseError, NameCollisionError

__all__ = [
    "Formula", "Const", "Atom", "Not", "And", "Next", "Until", "R",
    "parse", "format_formula", "atoms", "subformulas", "r_depth",
    "depth1_r_subformulas", "substitute", "substitute_all", "is_state_formula", "holds",
    "muller_condition",
]


class Formula:
    """Base class for AST nodes.

    A node computes its hash, R-depth, atom set and height (levels of
    nesting, 1 for a leaf) from its children's when it is made, so none of
    them walks the subtree: formulas are queried far more often than made.
    """

    __slots__ = ("_hash", "_rdepth", "_atoms", "_height")

    def __post_init__(self):
        fields = tuple(getattr(self, name) for name in self.__match_args__)
        subs = [g for g in fields if isinstance(g, Formula)]
        if subs:
            rdepth = max(g._rdepth for g in subs) + isinstance(self, R)
            height = 1 + max(g._height for g in subs)
            names = subs[0]._atoms
            for g in subs[1:]:
                if not g._atoms <= names:
                    names = g._atoms if names <= g._atoms else names | g._atoms
        else:
            rdepth, height = 0, 1
            names = frozenset([self.name] if isinstance(self, Atom) else [])
        set_ = object.__setattr__
        set_(self, "_hash", hash((type(self).__name__, fields)))
        set_(self, "_rdepth", rdepth)
        set_(self, "_atoms", names)
        set_(self, "_height", height)

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # string hashes differ between processes: hash afresh when loaded
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __str__(self):
        return format_formula(self)


def _node(cls):
    """A frozen, slotted node class that keeps the cached hash (a
    `__hash__` of the class's own tells `dataclass` not to make one)."""
    cls.__hash__ = Formula.__hash__
    return dataclass(frozen=True, slots=True)(cls)


@_node
class Const(Formula):
    value: bool


@_node
class Atom(Formula):
    name: str


@_node
class Not(Formula):
    sub: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Next(Formula):
    sub: Formula


@_node
class Until(Formula):
    left: Formula
    right: Formula


@_node
class R(Formula):
    sub: Formula


def _or(f: Formula, g: Formula) -> Formula:
    return Not(And(Not(f), Not(g)))


def _implies(f: Formula, g: Formula) -> Formula:
    return Not(And(f, Not(g)))


def _finally(f: Formula) -> Formula:
    return Until(Const(True), f)


def _globally(f: Formula) -> Formula:
    return Not(_finally(Not(f)))


def _weak_until(f: Formula, g: Formula) -> Formula:
    return _or(Until(f, g), _globally(f))


def _r_diamond(f: Formula) -> Formula:
    return Not(R(Not(f)))


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<lbrak>\[R\])|(?P<dia><R>)|(?P<arrow>->)|"
    r"(?P<sym>[()!&|])|(?P<ident>[A-Za-z_@][A-Za-z0-9_@#]*))"
)

_KEYWORDS = {"X", "U", "W", "F", "G", "true", "false"}


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaParseError(f"unknown token {text[pos]!r}", pos)
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        kind, val, pos = self.next()
        if val != value:
            raise FormulaParseError(f"expected {value!r}, found {val!r}", pos)

    # grammar: f ::= f_impl (('U'|'W') f)?     with U/W right associative
    def parse_formula(self) -> Formula:
        left = self.parse_implies()
        kind, val, _ = self.peek()
        if kind == "ident" and val in ("U", "W"):
            self.next()
            right = self.parse_formula()
            return Until(left, right) if val == "U" else _weak_until(left, right)
        return left

    def parse_implies(self) -> Formula:
        left = self.parse_or()
        kind, val, _ = self.peek()
        if kind == "arrow":
            self.next()
            return _implies(left, self.parse_implies())
        return left

    def parse_or(self) -> Formula:
        out = self.parse_and()
        while self.peek()[1] == "|":
            self.next()
            out = _or(out, self.parse_and())
        return out

    def parse_and(self) -> Formula:
        out = self.parse_unary()
        while self.peek()[1] == "&":
            self.next()
            out = And(out, self.parse_unary())
        return out

    def parse_unary(self) -> Formula:
        kind, val, pos = self.next()
        if kind == "sym" and val == "!":
            return Not(self.parse_unary())
        if kind == "lbrak":
            return R(self.parse_unary())
        if kind == "dia":
            return _r_diamond(self.parse_unary())
        if kind == "ident" and val == "X":
            return Next(self.parse_unary())
        if kind == "ident" and val == "F":
            return _finally(self.parse_unary())
        if kind == "ident" and val == "G":
            return _globally(self.parse_unary())
        if kind == "ident" and val == "true":
            return Const(True)
        if kind == "ident" and val == "false":
            return Const(False)
        if kind == "ident" and val not in _KEYWORDS:
            return Atom(val)
        if kind == "sym" and val == "(":
            inner = self.parse_formula()
            self.expect(")")
            return inner
        raise FormulaParseError(f"unexpected token {val!r}", pos)


# The passes over formulas recurse once per level of nesting; this bound
# keeps them well inside the interpreter's default recursion limit.
MAX_DEPTH = 500


def parse(text: str) -> Formula:
    """Parse formula text into a core AST, expanding all sugar.

    Text nested too deeply for the recursive-descent parser, or giving a
    formula more than MAX_DEPTH levels deep, is rejected."""
    parser = _Parser(text)
    try:
        out = parser.parse_formula()
    except RecursionError:
        raise FormulaParseError("formula nested too deeply") from None
    kind, val, pos = parser.peek()
    if kind != "end":
        raise FormulaParseError(f"trailing input {val!r}", pos)
    if out._height > MAX_DEPTH:
        raise FormulaParseError(f"formula nested deeper than {MAX_DEPTH} levels")
    return out


# ---------------------------------------------------------------------------
# Printing (core connectives only; parse(format_formula(f)) == f)

def format_formula(f: Formula) -> str:
    def fmt(g: Formula, parent: str) -> str:
        if isinstance(g, Atom):
            return g.name
        if isinstance(g, Const):
            return "true" if g.value else "false"
        if isinstance(g, Not):
            return "!" + fmt(g.sub, "unary")
        if isinstance(g, Next):
            return "X " + fmt(g.sub, "unary")
        if isinstance(g, R):
            return "[R] " + fmt(g.sub, "unary")
        if isinstance(g, And):
            body = fmt(g.left, "and-left") + " & " + fmt(g.right, "and-right")
            return body if parent in ("root", "and-left") else "(" + body + ")"
        if isinstance(g, Until):
            body = fmt(g.left, "until-arg") + " U " + fmt(g.right, "root")
            return body if parent == "root" else "(" + body + ")"
        raise TypeError(f"not a formula node: {g!r}")

    # "until-arg"/"unary" positions require tighter-binding operands, which
    # fmt enforces by parenthesizing And/Until there.
    return fmt(f, "root")


# ---------------------------------------------------------------------------
# Structure

def subformulas(f: Formula) -> list[Formula]:
    """All subformulas including f itself, first-occurrence order, deduplicated."""
    seen: dict[Formula, None] = {}

    def walk(g: Formula):
        if g in seen:
            return
        seen[g] = None
        if isinstance(g, (Not, Next, R)):
            walk(g.sub)
        elif isinstance(g, (And, Until)):
            walk(g.left)
            walk(g.right)

    walk(f)
    return list(seen)


def atoms(f: Formula) -> frozenset[str]:
    return f._atoms


def r_depth(f: Formula) -> int:
    """Maximum nesting of R modalities; 0 means plain LTL."""
    return f._rdepth


def depth1_r_subformulas(f: Formula) -> list[Formula]:
    """Subformulas of shape [R] psi with LTL psi, first-occurrence order."""
    return [g for g in subformulas(f)
            if isinstance(g, R) and r_depth(g.sub) == 0]


def substitute(f: Formula, target: Formula, atom: str) -> Formula:
    """Replace every structural occurrence of target in f by Atom(atom):
    `substitute_all` with one target."""
    return substitute_all(f, {target: atom})


def substitute_all(f: Formula, names: dict) -> Formula:
    """Replace every structural occurrence of each target in f by the atom
    names[target], in one walk.

    No name may already occur in f, nor name two targets.  A subtree lower
    than every target, or of smaller R-depth, holds no occurrence and is
    returned as it is, so only the paths from the root to the occurrences
    are rebuilt: an R-free subtree holds no [R] target.
    """
    seen: set = set()
    for name in names.values():
        if name in f._atoms or name in seen:
            raise NameCollisionError(
                f"name collision: proposition {name!r} already occurs in the formula")
        seen.add(name)
    replacement = {target: Atom(name) for target, name in names.items()}
    height = min((g._height for g in replacement), default=f._height)
    rdepth = min((g._rdepth for g in replacement), default=0)

    def walk(g: Formula) -> Formula:
        if g._height <= height or g._rdepth < rdepth:   # no proper subtree is a target
            return replacement.get(g, g)
        hit = replacement.get(g)
        if hit is not None:
            return hit
        if isinstance(g, (Not, Next, R)):
            sub = walk(g.sub)
            return g if sub is g.sub else type(g)(sub)
        left, right = walk(g.left), walk(g.right)
        return g if left is g.left and right is g.right else type(g)(left, right)

    return walk(f)


def fresh_atom_name(index: int, body: Formula, used: set[str]) -> str:
    """Deterministic fresh proposition name for an eliminated [R] subformula."""
    digest = hashlib.sha256(format_formula(body).encode()).hexdigest()[:8]
    name = f"@R{index}#{digest}"
    salt = 0
    while name in used:
        salt += 1
        name = f"@R{index}#{digest}#{salt}"
    return name


# ---------------------------------------------------------------------------
# Shapes that need no Buchi automaton

def is_state_formula(f: Formula) -> bool:
    """Is f a Boolean combination of atoms and constants?"""
    if isinstance(f, Not):
        return is_state_formula(f.sub)
    if isinstance(f, And):
        return is_state_formula(f.left) and is_state_formula(f.right)
    return isinstance(f, (Atom, Const))


def holds(s: Formula, letter) -> bool:
    """Value of the state formula s on a letter (a set of atom names)."""
    if isinstance(s, Const):
        return s.value
    if isinstance(s, Atom):
        return s.name in letter
    if isinstance(s, Not):
        return not holds(s.sub, letter)
    return holds(s.left, letter) and holds(s.right, letter)


_TRUE = Const(True)


def muller_condition(psi: Formula):
    """psi as a Boolean combination of G F s and F G s over state formulas
    s, or None.  After sugar expansion F G s reads true U !(true U x) with
    x = !s, which is !G F x, and G F x is its negation.

    Returns (recs, accepts): recs lists the state formulas x of the G F x
    in first-occurrence order, and accepts(hit) tells whether psi holds on
    a word whose letters satisfy recs[i] infinitely often exactly for the
    bits i of hit.
    """
    recs: list = []

    def walk(f):
        if isinstance(f, Const):
            return lambda hit: f.value
        if isinstance(f, Not):
            sub = walk(f.sub)
            return sub and (lambda hit: not sub(hit))
        if isinstance(f, And):
            left, right = walk(f.left), walk(f.right)
            return left and right and (lambda hit: left(hit) and right(hit))
        if (isinstance(f, Until) and f.left == _TRUE and isinstance(f.right, Not)
                and isinstance(f.right.sub, Until) and f.right.sub.left == _TRUE
                and is_state_formula(f.right.sub.right)):
            x = f.right.sub.right
            if x not in recs:
                recs.append(x)
            bit = 1 << recs.index(x)
            return lambda hit: not hit & bit
        return None

    accepts = walk(psi)
    return None if accepts is None else (recs, accepts)
