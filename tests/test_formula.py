import pickle
import subprocess
import sys

import pytest

from conftest import child_env
from unistrat.errors import FormulaParseError, NameCollisionError
from unistrat.formula import (MAX_DEPTH, And, Atom, Const, Next, Not, R, Until,
                              atoms, depth1_r_subformulas, format_formula, parse,
                              r_depth, subformulas, substitute, substitute_all)


def test_parse_atom():
    assert parse("p") == Atom("p")


def test_parse_same_act_instance():
    f = parse("G(p1 -> ([R] X pa | [R] X pb))")
    assert r_depth(f) == 1
    subs = depth1_r_subformulas(f)
    assert subs == [R(Next(Atom("pa"))), R(Next(Atom("pb")))]


def test_parse_prognose_shape():
    f = parse("(!pf) W (!pf & [R] X pf)")
    assert r_depth(f) == 1
    assert depth1_r_subformulas(f) == [R(Next(Atom("pf")))]


def test_constants_and_their_sugar():
    assert parse("true") == Const(True)
    assert parse("false") == Const(False)
    assert parse("F p") == Until(Const(True), Atom("p"))
    assert parse("G p") == Not(Until(Const(True), Not(Atom("p"))))
    assert format_formula(parse("F p")) == "true U p"
    assert r_depth(parse("[R] true")) == 1
    assert subformulas(parse("X false")) == [Next(Const(False)), Const(False)]
    assert substitute(parse("F [R] p"), R(Atom("p")), "x") == parse("F x")
    for text in ("F p", "G p", "true", "!false", "p W q", "G F (p & X true)"):
        f = parse(text)
        assert parse(format_formula(f)) == f


def test_diamond_is_negated_box():
    assert parse("<R> q") == Not(R(Not(Atom("q"))))


def test_rdepth_examples():
    assert r_depth(parse("F p")) == 0
    assert r_depth(parse("[R] X [R] q")) == 2
    assert r_depth(parse("G(pd -> ([R] p0 | [R] p1))")) == 1


def test_depth1_subformulas_examples():
    assert depth1_r_subformulas(parse("[R] X [R] q")) == [R(Atom("q"))]
    assert depth1_r_subformulas(parse("F p")) == []
    assert depth1_r_subformulas(parse("([R] p) & ([R] p)")) == [R(Atom("p"))]


def test_substitute_examples():
    f = parse("[R] X [R] q")
    g = substitute(f, R(Atom("q")), "p_Rq")
    assert g == R(Next(Atom("p_Rq")))
    assert substitute(parse("F p"), R(Atom("q")), "x") == parse("F p")
    h = substitute(parse("([R] p) & X [R] p"), R(Atom("p")), "x")
    assert h == And(Atom("x"), Next(Atom("x")))
    # a subtree with no occurrence comes back as the same object
    f = parse("G F p & X [R] q")
    g = substitute(f, R(Atom("q")), "x")
    assert g == parse("G F p & X x") and g.left is f.left
    assert substitute(f, R(Atom("p")), "x") is f


def test_substitute_name_collision():
    with pytest.raises(NameCollisionError):
        substitute(parse("x & [R] p"), R(Atom("p")), "x")


def test_parse_errors():
    with pytest.raises(FormulaParseError):
        parse("p &")
    with pytest.raises(FormulaParseError):
        parse("(p")
    with pytest.raises(FormulaParseError):
        parse("p % q")


def test_parse_bounds_nesting():
    # the deepest formula the recursive passes take is MAX_DEPTH levels
    assert r_depth(parse(" & ".join(["p"] * MAX_DEPTH))) == 0
    with pytest.raises(FormulaParseError, match=f"deeper than {MAX_DEPTH} levels"):
        parse(" & ".join(["p"] * (MAX_DEPTH + 1)))
    with pytest.raises(FormulaParseError, match=f"deeper than {MAX_DEPTH} levels"):
        parse("G " * 200 + "p")
    # text the parser itself cannot descend into
    for text in ("!" * 2000 + "p", "(" * 400 + "p" + ")" * 400):
        with pytest.raises(FormulaParseError, match="nested too deeply"):
            parse(text)


def _random_core(rng, size, names=("p", "q", "r")):
    if size <= 1:
        return Atom(rng.choice(names))
    kind = rng.choice(["not", "and", "next", "until", "r"])
    if kind in ("not", "next", "r"):
        sub = _random_core(rng, size - 1, names)
        return {"not": Not, "next": Next, "r": R}[kind](sub)
    k = rng.randint(1, size - 2) if size > 2 else 1
    node = And if kind == "and" else Until
    return node(_random_core(rng, k, names), _random_core(rng, size - 1 - k, names))


def test_print_parse_round_trip(rng):
    for _ in range(300):
        f = _random_core(rng, rng.randint(1, 9))
        assert parse(format_formula(f)) == f


def test_substituting_all_depth1_decreases_rdepth(rng):
    trials = 0
    while trials < 100:
        f = _random_core(rng, rng.randint(2, 9))
        if r_depth(f) < 1:
            continue
        trials += 1
        used = set(atoms(f))
        g = f
        for i, sub in enumerate(depth1_r_subformulas(f)):
            g = substitute(g, sub, f"@R{i}")
        assert r_depth(g) == r_depth(f) - 1


def test_substitute_all_equals_substitutions_in_turn(rng):
    trials = 0
    while trials < 200:
        f = _random_core(rng, rng.randint(2, 9))
        if r_depth(f) < 1:
            continue
        trials += 1
        names = {sub: f"@R{i}" for i, sub in enumerate(depth1_r_subformulas(f))}
        g = f
        for sub, name in names.items():
            g = substitute(g, sub, name)
        assert substitute_all(f, names) == g
    # R-free subtrees come back as the same objects
    f = parse("(G F p & [R] q) U ([R] p & X r)")
    g = substitute_all(f, {R(Atom("q")): "x", R(Atom("p")): "y"})
    assert g == parse("(G F p & x) U (y & X r)")
    assert g.left.left is f.left.left and g.right.right is f.right.right
    assert substitute_all(f, {}) is f


def test_substitute_all_name_collisions():
    f = parse("x & [R] p & [R] q")
    with pytest.raises(NameCollisionError):
        substitute_all(f, {R(Atom("q")): "y", R(Atom("p")): "x"})
    with pytest.raises(NameCollisionError):
        substitute_all(f, {R(Atom("q")): "y", R(Atom("p")): "y"})


def test_subformulas_closed_under_subterms():
    f = parse("(p U q) & X !p")
    subs = subformulas(f)
    assert f in subs
    for g in subs:
        if isinstance(g, (Not, Next, R)):
            assert g.sub in subs
        elif isinstance(g, (And, Until)):
            assert g.left in subs and g.right in subs


def test_hash_cached_and_fresh_after_unpickling():
    f = parse("G(p -> X (q U !r)) & [R] F p")
    assert hash(f) == hash(parse(format_formula(f)))
    assert hash(Not(Atom("p"))) != hash(Next(Atom("p")))
    assert pickle.loads(pickle.dumps(f)) == f
    # string hashes differ between processes: a formula pickled under
    # another hash seed must hash as one made here
    script = ("import pickle, sys\n"
              "from unistrat.formula import parse\n"
              "sys.stdout.buffer.write(pickle.dumps(parse(sys.argv[1])))\n")
    for seed in ("0", "77"):
        proc = subprocess.run([sys.executable, "-c", script, format_formula(f)],
                              capture_output=True, env=child_env(PYTHONHASHSEED=seed))
        assert proc.returncode == 0, proc.stderr
        loaded = pickle.loads(proc.stdout)
        assert hash(loaded) == hash(f)
        assert loaded in {f} and atoms(loaded) == {"p", "q", "r"}
