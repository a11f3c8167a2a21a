import hashlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env, make_branching, make_g0
from unistrat.arena import Strategy, format_arena, format_strategy
from unistrat.cli import main
from unistrat.formula import parse
from unistrat.ltlgame import solve_ltl_game
from unistrat.transducer import format_transducer, length_transducer

ARENA_G0 = """arena G0
pos v0 owner=1 labels=p
pos v1 owner=2 labels=
edge v0 v1
edge v1 v0
init v0
"""

FST_ID = """fst id
state q0 init accept
trans q0 v0 v0 q0
trans q0 v1 v1 q0
"""

STRATEGY_G0 = """strategy player=1 memory=m init=m
upd m v0 -> m
upd m v1 -> m
choose m v0 -> v1
"""

DES_CONFUSABLE = """des
state s0 init
state s1
state s2 faulty
event o obs
event u
event f
trans s0 u s1
trans s0 f s2
trans s1 o s1
trans s2 o s2
"""

DES_DIAGNOSABLE = """des
state s0 init
state s1
state s2 faulty
event o obs
event u
event f
trans s0 u s1
trans s0 f s2
trans s1 u s1
trans s2 o s2
"""


@pytest.fixture
def g0_files(tmp_path):
    arena = tmp_path / "g0.arena"
    fst = tmp_path / "id.fst"
    arena.write_text(ARENA_G0)
    fst.write_text(FST_ID)
    return str(arena), str(fst)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_exists_writes_strategy(g0_files, tmp_path, capsys):
    arena, fst = g0_files
    out = tmp_path / "sigma.strategy"
    code, stdout, _ = run_cli(
        ["solve", arena, fst, "G([R] p | [R] !p)", "--out", str(out)], capsys)
    assert code == 0
    assert "verdict=exists" in stdout
    assert "iter0.rdepth=1" in stdout
    assert out.read_text().startswith("strategy player=1")


def test_solve_not_exists(g0_files, capsys):
    arena, fst = g0_files
    code, stdout, _ = run_cli(["solve", arena, fst, "[R] !p"], capsys)
    assert code == 1
    assert "verdict=not_exists" in stdout


def test_solve_always_restricts_to_plays(tmp_path, capsys):
    # the raw length relation also relates v0 to a and x, which carry p;
    # restricted to plays, v0 is related to itself alone
    arena = tmp_path / "b.arena"
    fst = tmp_path / "len.fst"
    arena.write_text(format_arena(make_branching()))
    fst.write_text(format_transducer(length_transducer(make_branching().positions)))
    code, stdout, _ = run_cli(["solve", str(arena), str(fst), "[R] !p"], capsys)
    assert code == 0
    assert "verdict=exists" in stdout
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(arena), str(fst), "[R] !p", "--no-restrict"])
    assert exc.value.code == 2


def test_solve_strict_mode_refused(g0_files, capsys):
    arena, fst = g0_files
    code, _, stderr = run_cli(
        ["solve", arena, fst, "[R] p", "--mode", "strict"], capsys)
    assert code == 2
    assert "open" in stderr


def test_solve_cap_exceeded_exit_2(g0_files, capsys):
    arena, fst = g0_files
    code, _, stderr = run_cli(
        ["solve", arena, fst, "[R] p", "--max-power-positions", "1"], capsys)
    assert code == 2
    assert "cap" in stderr


def test_solve_caps_play_relation(g0_files, capsys):
    # the identity relation restricted to the plays of G0 has 3 states
    arena, fst = g0_files
    code, stdout, stderr = run_cli(
        ["solve", arena, fst, "[R] p", "--max-product", "2"], capsys)
    assert code == 2
    assert "play relation states: 3 exceeds cap 2" in stderr
    assert stdout == ""


def test_solve_missing_formula(g0_files, capsys):
    arena, fst = g0_files
    code, _, stderr = run_cli(["solve", arena, fst], capsys)
    assert code == 2


def test_solve_dead_end_arena_rejected(g0_files, tmp_path, capsys):
    _, fst = g0_files
    arena = tmp_path / "dead.arena"
    arena.write_text(ARENA_G0.replace("edge v1 v0\n", ""))
    code, stdout, stderr = run_cli(["solve", str(arena), fst, "G F p"], capsys)
    assert code == 2
    assert "dead end: position 'v1' has no successor" in stderr
    assert "parity game node" not in stdout + stderr


def test_check_pass_and_fail(g0_files, tmp_path, capsys):
    arena, fst = g0_files
    strategy = tmp_path / "sigma.strategy"
    strategy.write_text(STRATEGY_G0)
    code, stdout, _ = run_cli(
        ["check", arena, fst, "G([R] p | [R] !p)", str(strategy),
         "--mode", "full"], capsys)
    assert code == 0
    assert "verdict=uniform" in stdout
    code, stdout, _ = run_cli(
        ["check", arena, fst, "[R] !p", str(strategy), "--mode", "strict"],
        capsys)
    assert code == 1
    assert "counterexample=v0" in stdout
    assert "violated=" in stdout


def test_check_rejects_non_numeric_player(g0_files, tmp_path, capsys):
    arena, fst = g0_files
    strategy = tmp_path / "bad.strategy"
    strategy.write_text(STRATEGY_G0.replace("player=1", "player=one"))
    code, stdout, stderr = run_cli(
        ["check", arena, fst, "[R] p", str(strategy), "--mode", "full"], capsys)
    assert code == 2
    assert "strategy needs player=1 or player=2" in stderr
    assert stdout == ""


@pytest.mark.parametrize("command, bad, line", [
    ("solve", "arena", "node v2"),
    ("solve", "arena", "edge v0"),
    ("solve", "arena", "edge v0 v1 v0"),
    ("solve", "arena", "arena G0 G1"),
    ("solve", "fst", "final q0"),
    ("solve", "fst", "trans q0 v0 v0"),
    ("solve", "fst", "trans q0 v0 v0 q0 q0"),
    ("solve", "fst", "fst id copy"),
    ("check", "strategy", "move m v0 -> v1"),
    ("check", "strategy", "upd m v0 ->"),
    ("check", "strategy", "upd m v0 -> m m"),
], ids=["arena-unknown", "arena-short", "arena-over", "arena-header-over",
        "fst-unknown", "fst-short", "fst-over", "fst-header-over",
        "strategy-unknown", "strategy-short", "strategy-over"])
def test_malformed_line_names_it(tmp_path, capsys, command, bad, line):
    # an unknown directive, or a line one operand short or over, appended to
    # a valid file: malformed input (exit 2) naming the line, no traceback
    texts = {"arena": ARENA_G0, "fst": FST_ID, "strategy": STRATEGY_G0}
    texts[bad] += line + "\n"
    paths = {}
    for kind, text in texts.items():
        paths[kind] = tmp_path / f"g0.{kind}"
        paths[kind].write_text(text)
    args = [command, str(paths["arena"]), str(paths["fst"]), "[R] p"]
    if command == "check":
        args += [str(paths["strategy"]), "--mode", "full"]
    code, stdout, stderr = run_cli(args, capsys)
    assert code == 2
    assert stderr.startswith(f"error: line {texts[bad].count(chr(10))}: ")
    assert "Traceback" not in stderr
    assert stdout == ""


@pytest.mark.parametrize("framework, text", [
    ("impinfo", "impgame\nstate\n"),
    ("impinfo", "impgame\nstate s0 init\naction\n"),
    ("impinfo", "impgame\nstate s0 init\naction a\ntrans s0 a s0\nobs\n"),
    ("diag", "des\nstate\n"),
    ("diag", "des\nstate s0 init\nevent\n"),
    ("noninterference", "nisys\nin\n"),
    ("noninterference", "nisys\nin h high\nout\n"),
    ("dlgame", "dlgame\nsentence forall x (x = x)\ndom 0,1\nrel\n"),
    ("impinfo", "impgame g\n"),
    ("diag", "des d\n"),
    ("noninterference", "nisys n\n"),
    ("dlgame", "dlgame g\n"),
    ("impinfo", "impgame\nstate s0 init\naction a b\n"),
    ("noninterference", "nisys\nin h high\nout x y\n"),
    ("diag", "des\nstate s0 init\nevent o obs x\n"),
    ("noninterference", "nisys\nin h high x\n"),
], ids=["impgame-state", "impgame-action", "impgame-obs", "des-state", "des-event",
        "nisys-in", "nisys-out", "dlgame-rel", "impgame-header-operand",
        "des-header-operand", "nisys-header-operand", "dlgame-header-operand",
        "impgame-action-extra", "nisys-out-extra", "des-event-extra", "nisys-in-extra"])
def test_encode_rejects_line_without_operand(tmp_path, capsys, framework, text):
    # the last line lacks its operand, or has one too many: malformed input
    # (exit 2), naming it
    source = tmp_path / "system.txt"
    source.write_text(text)
    code, stdout, stderr = run_cli(
        ["encode", framework, str(source), "--out-prefix", str(tmp_path / "out")], capsys)
    assert code == 2
    assert stderr.startswith(f"error: line {text.count(chr(10))}: ")
    assert stdout == ""


@pytest.mark.parametrize("text, line", [
    ("dlgame\nsentence forall x exists y E(x, y)\ndom 0,1\nrel E 0,7\n", 4),
    ("dlgame\nsentence forall x exists y E(x, y)\ndom 0,1\nrel E 1\n", 4),
    ("dlgame\ndom 0,1\nsentence forall x (x =\n", 3),
    ("dlgame\ndom 0,1\nsentence\n", 3),
    ("dlgame\nrel E 0,1\nrel E 0,2\nsentence forall x exists y E(x, y)\ndom 0,1\n", 3),
    ("dlgame\ndom 0,1\nsentence forall x exists y (E(x, y) | E(y))\n", 3),
], ids=["rel-outside-dom", "rel-arity", "sentence-cut-short", "sentence-empty",
        "rel-before-dom", "sentence-two-arities"])
def test_encode_dlgame_rejects_bad_sentence_or_tuple(tmp_path, capsys, text, line):
    # a malformed sentence, or a tuple the model cannot hold, is malformed
    # input (exit 2) naming its line, even when `dom` comes later
    source = tmp_path / "game.dl"
    source.write_text(text)
    code, stdout, stderr = run_cli(
        ["encode", "dlgame", str(source), "--out-prefix", str(tmp_path / "out")], capsys)
    assert code == 2
    assert stderr.startswith(f"error: line {line}: ")
    assert "Traceback" not in stderr
    assert stdout == ""


def test_encode_diag_solve_round_trip(tmp_path, capsys):
    des = tmp_path / "m.des"
    des.write_text(DES_CONFUSABLE)
    prefix = str(tmp_path / "diag")
    code, stdout, _ = run_cli(
        ["encode", "diag", str(des), "--out-prefix", prefix], capsys)
    assert code == 0
    code, stdout, _ = run_cli(
        ["solve", prefix + ".arena", prefix + ".fst",
         "--formula-file", prefix + ".formula"], capsys)
    assert code == 1

    des.write_text(DES_DIAGNOSABLE)
    code, _, _ = run_cli(["encode", "diag", str(des), "--out-prefix", prefix],
                         capsys)
    assert code == 0
    code, stdout, _ = run_cli(
        ["solve", prefix + ".arena", prefix + ".fst",
         "--formula-file", prefix + ".formula"], capsys)
    assert code == 0


def test_encode_impinfo_formula_text(tmp_path, capsys):
    imp = tmp_path / "toy.imp"
    imp.write_text("""impgame
state s0 init
state s1
state s2
state s3
action a
action b
trans s0 a s1
trans s0 a s2
trans s1 a s3
trans s1 b s3
trans s2 a s3
trans s2 b s3
trans s3 a s3
trans s3 b s3
obs s1 s2
""")
    prefix = str(tmp_path / "imp")
    code, _, _ = run_cli(["encode", "impinfo", str(imp), "--out-prefix", prefix],
                         capsys)
    assert code == 0
    formula = open(prefix + ".formula").read().strip()
    assert formula == "G(p1 -> ([R] X pa | [R] X pb))"


def test_encode_opacity_emits_two_instances(tmp_path, capsys):
    imp = tmp_path / "toy.imp"
    imp.write_text("""impgame
state s0 init
state s1 secret
state s2
action a
trans s0 a s1
trans s0 a s2
trans s1 a s1
trans s2 a s2
obs s1 s2
obs s0
""")
    prefix = str(tmp_path / "opa")
    code, stdout, _ = run_cli(
        ["encode", "opacity", str(imp), "--out-prefix", prefix], capsys)
    assert code == 0
    assert open(prefix + ".attacker.formula").read().strip() == "F [R] pS"
    assert open(prefix + ".defender.formula").read().strip() == "G ![R] pS"
    code, _, _ = run_cli(
        ["solve", prefix + ".defender.arena", prefix + ".defender.fst",
         "--formula-file", prefix + ".defender.formula",
         "--player", "2"], capsys)
    assert code == 0


def test_encode_noninterference_check_round_trip(tmp_path, capsys):
    ni = tmp_path / "sys.ni"
    ni.write_text("""nisys
in h high
out x
trans s0 - s0
trans s0 h s1
trans s1 - s1
trans s1 h s1
output s0 -
output s1 x
""")
    prefix = str(tmp_path / "ni")
    code, _, _ = run_cli(
        ["encode", "noninterference", str(ni), "--out-prefix", prefix], capsys)
    assert code == 0
    code, _, _ = run_cli(
        ["check", prefix + ".arena", prefix + ".fst",
         "--formula-file", prefix + ".formula", prefix + ".strategy",
         "--mode", "strict"], capsys)
    assert code == 1  # the system leaks, the all-allowing strategy fails


def test_encode_dlgame(tmp_path, capsys):
    dl = tmp_path / "pairs.dl"
    dl.write_text("""dlgame
sentence forall x0 forall x1 (x0 = x1 | dep(x0, x1))
dom 0,1
""")
    prefix = str(tmp_path / "dl")
    code, stdout, _ = run_cli(
        ["encode", "dlgame", str(dl), "--out-prefix", prefix], capsys)
    assert code == 0
    assert open(prefix + ".formula").read().strip() == \
        "G(pd -> ([R] p0 | [R] p1))"
    assert open(prefix + ".win.formula").read().strip() == "F win1"


@pytest.mark.parametrize("sentence, code", [
    ("forall x " + "(" * 300 + "x = x" + ")" * 300, 2),
    ("forall x (" + " & ".join(["x = x"] * 1000) + ")", 2),
    ("forall x " + "(" * 150 + "x = x" + ")" * 150, 0),
    ("forall x (" + " & ".join(["x = x"] * 50) + ")", 0),
], ids=["300-parentheses", "1000-conjuncts", "150-parentheses", "50-conjuncts"])
def test_encode_dlgame_deep_sentence_exit_codes(tmp_path, sentence, code):
    # too deep a sentence is malformed input (exit 2), never a crash (exit 1)
    dl = tmp_path / "deep.dl"
    dl.write_text(f"dlgame\nsentence {sentence}\ndom 0,1\n")
    proc = subprocess.run([sys.executable, "-m", "unistrat.cli", "encode", "dlgame", str(dl),
                           "--out-prefix", str(tmp_path / "dl")],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == code, proc.stderr[-300:]
    if code == 2:
        assert proc.stderr.count("\n") == 1 and "nested" in proc.stderr


def test_dump_powerset_deterministic(g0_files, capsys):
    arena, fst = g0_files
    outputs = []
    for _ in range(2):
        code, stdout, _ = run_cli(["dump", "powerset", arena, fst], capsys)
        assert code == 0
        outputs.append(stdout)
    assert outputs[0] == outputs[1]
    assert "I={v0}" in outputs[0]
    assert "I={v1}" in outputs[0]


def test_dump_marking(g0_files, capsys):
    arena, fst = g0_files
    code, stdout, _ = run_cli(["dump", "marking", arena, fst, "[R] p"], capsys)
    assert code == 0
    assert "atom @R0#" in stdout
    assert "rewritten: @R0#" in stdout
    assert "at v0|S=" in stdout
    code, stdout, _ = run_cli(["dump", "marking", arena, fst, "[R] F p"], capsys)
    assert code == 0
    assert ":= [R] (true U p)" in stdout
    assert "@true" not in stdout


def test_dump_dead_end_arena_rejected(g0_files, tmp_path, capsys):
    _, fst = g0_files
    arena = tmp_path / "dead.arena"
    arena.write_text(ARENA_G0.replace("edge v1 v0\n", ""))
    for args in (["powerset", str(arena), fst],
                 ["marking", str(arena), fst, "[R] G F p"]):
        code, stdout, stderr = run_cli(["dump"] + args, capsys)
        assert code == 2, args
        assert "dead end: position 'v1' has no successor" in stderr
        assert stdout == ""


def test_dump_rejects_stray_transducer_symbol(g0_files, tmp_path, capsys):
    arena, _ = g0_files
    fst = tmp_path / "zz.fst"
    fst.write_text(FST_ID + "trans q0 zz v1 q0\n")
    message = "transducer symbol 'zz' is not an arena position"
    code, _, stderr = run_cli(["solve", arena, str(fst), "[R] p"], capsys)
    assert code == 2
    assert message in stderr
    for args in (["powerset", arena, str(fst)],
                 ["marking", arena, str(fst), "[R] p"]):
        code, stdout, stderr = run_cli(["dump"] + args, capsys)
        assert code == 2, args
        assert message in stderr
        assert stdout == ""


def test_dump_honours_caps(g0_files, capsys):
    code, stdout, _ = run_cli(["dump", "automaton", "F(p & X q)"], capsys)
    assert code == 0
    assert "dpa states=3 priorities=[0, 1] construction=subset" in stdout
    code, _, stderr = run_cli(["dump", "automaton", "F(p & X q)",
                               "--max-dpa-states", "2"], capsys)
    assert code == 2
    assert "exceeds cap 2" in stderr
    arena, fst = g0_files
    # G(p -> F q) takes the automaton product, of 4 nodes here
    code, _, _ = run_cli(["dump", "marking", arena, fst, "[R] G(p -> F q)",
                          "--max-product", "4"], capsys)
    assert code == 0
    code, stdout, stderr = run_cli(["dump", "marking", arena, fst, "[R] G(p -> F q)",
                                    "--max-product", "3"], capsys)
    assert code == 2
    assert "marker product nodes" in stderr
    assert stdout == ""
    # the play relation, of 3 states here, is capped before the marker runs
    code, stdout, stderr = run_cli(["dump", "marking", arena, fst, "[R] F p",
                                    "--max-product", "1"], capsys)
    assert code == 2
    assert "play relation states: 2 exceeds cap 1" in stderr
    assert stdout == ""


def test_dump_automaton_inline(capsys):
    code, stdout, _ = run_cli(["dump", "automaton", "G F p"], capsys)
    assert code == 0
    assert "nba states=" in stdout
    assert "dpa states=" in stdout
    # the DPA that solve builds: a Muller objective needs no Safra trees
    code, stdout, _ = run_cli(["dump", "automaton", "G F p & F G q"], capsys)
    assert code == 0
    dpa_line = next(line for line in stdout.splitlines() if line.startswith("dpa "))
    assert dpa_line.endswith(" construction=zielonka-tree")
    assert int(dpa_line.split()[1].removeprefix("states=")) <= 8
    code, _, _ = run_cli(["dump", "automaton", "[R] p"], capsys)
    assert code == 2  # not plain temporal logic
    code, _, _ = run_cli(["dump", "automaton"], capsys)
    assert code == 2


@pytest.mark.parametrize("formula, code", [
    ("(" * 200 + "p" + ")" * 200, 2),
    (" & ".join(["p"] * 1000), 2),
    ("(" * 150 + "p" + ")" * 150, 0),
    (" & ".join(["p"] * 500), 0),
    ("X " * 300 + "p", 0),
], ids=["200-parentheses", "1000-conjuncts", "150-parentheses", "500-conjuncts", "300-next"])
def test_solve_deep_formula_exit_codes(g0_files, formula, code):
    # too deep a formula is malformed input (exit 2), never a crash (exit 1,
    # which means no strategy exists)
    arena, fst = g0_files
    proc = subprocess.run([sys.executable, "-m", "unistrat.cli", "solve", arena, fst, formula],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == code, proc.stderr[-300:]
    if code == 2:
        assert proc.stderr.count("\n") == 1 and "nested" in proc.stderr


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "unistrat.cli", "--help"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert "solve" in proc.stdout


def test_readme_library_example_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    (tmp_path / "game.arena").write_text(ARENA_G0)
    (tmp_path / "game.fst").write_text(FST_ID)
    (tmp_path / "game.strategy").write_text(STRATEGY_G0)
    monkeypatch.chdir(tmp_path)
    names: dict = {}
    exec(block, names)
    assert names["result"].verdict == "exists"
    assert names["check"].ok


def test_solve_then_check_written_strategy(g0_files, tmp_path, capsys):
    arena, fst = g0_files
    out = tmp_path / "sigma.strategy"
    code, _, _ = run_cli(
        ["solve", arena, fst, "G([R] p | [R] !p)", "--out", str(out)], capsys)
    assert code == 0
    code, stdout, _ = run_cli(
        ["check", arena, fst, "G([R] p | [R] !p)", str(out), "--mode", "full"],
        capsys)
    assert code == 0
    assert "verdict=uniform" in stdout


def test_written_strategy_bytes_pinned(tmp_path, capsys):
    # memory elements are automaton states (and, after pullback, outcome
    # positions holding them); the written names must not depend on how
    # they are built.
    # G(p -> X !p) has a deterministic Buchi automaton, used as the DPA
    sigma = solve_ltl_game(make_g0(), parse("G(p -> X !p)"), 1)
    assert format_strategy(sigma) == (
        "strategy player=1 memory=m0,m1 init=m0\n"
        "upd m0 v0 -> m1\n"
        "upd m1 v1 -> m0\n"
        "choose m1 v0 -> v1\n")
    des = tmp_path / "m.des"
    des.write_text(DES_DIAGNOSABLE)
    prefix = str(tmp_path / "diag")
    out = tmp_path / "diag.strategy"
    assert run_cli(["encode", "diag", str(des), "--out-prefix", prefix], capsys)[0] == 0
    code, _, _ = run_cli(
        ["solve", prefix + ".arena", prefix + ".fst", "--formula-file",
         prefix + ".formula", "--out", str(out)], capsys)
    assert code == 0
    assert out.read_text() == """\
strategy player=1 memory=m0,m1,m10,m2,m3,m4,m5,m6,m7,m8,m9 init=m0
upd m0 (-,s0) -> m1
upd m1 >(f,s2) -> m3
upd m1 >(u,s1) -> m2
upd m10 >(o,s2) -> m9
upd m2 (u,s1) -> m4
upd m3 (f,s2) -> m5
upd m4 >(u,s1) -> m6
upd m5 >(o,s2) -> m7
upd m6 (u,s1) -> m4
upd m7 (o,s2) -> m8
upd m8 >(o,s2) -> m9
upd m9 (o,s2) -> m10
choose m2 >(u,s1) -> (u,s1)
choose m3 >(f,s2) -> (f,s2)
choose m6 >(u,s1) -> (u,s1)
choose m7 >(o,s2) -> (o,s2)
choose m9 >(o,s2) -> (o,s2)
"""


def test_outputs_stable_across_hash_seeds(tmp_path):
    arena = tmp_path / "g.arena"
    fst = tmp_path / "g.fst"
    arena.write_text(ARENA_G0)
    fst.write_text(FST_ID)
    # depth two: the second round builds its power arena from a lifted view
    branching = tmp_path / "b.arena"
    length = tmp_path / "b.fst"
    branching.write_text(format_arena(make_branching()))
    length.write_text(format_transducer(length_transducer(make_branching().positions)))
    # a related play outside the outcome violates X [R] p: the full check
    # fails at R-depth 1, on the outcome of the final arena
    fixed = tmp_path / "b.strategy"
    fixed.write_text(format_strategy(Strategy(
        1, "m", {("m", v): "m" for v in make_branching().positions},
        {("m", "v0"): "a", ("m", "x"): "a", ("m", "y"): "b"})))
    # power positions are sets of relation states: summaries of the
    # diagnosability encoding hold several states, each with its last write
    des = tmp_path / "m.des"
    des.write_text(DES_CONFUSABLE)
    diag = str(tmp_path / "diag")
    proc = subprocess.run(
        [sys.executable, "-m", "unistrat.cli", "encode", "diag", str(des),
         "--out-prefix", diag],
        capture_output=True, text=True, env=child_env(PYTHONHASHSEED="0"))
    assert proc.returncode == 0
    dumps = {
        "diag powerset": ["powerset", diag + ".arena", diag + ".fst"],
        "diag marking": ["marking", diag + ".arena", diag + ".fst", "[R] pf"],
        "length powerset": ["powerset", str(branching), str(length)],
        "identity powerset": ["powerset", str(arena), str(fst)],
        "muller marking": ["marking", str(arena), str(fst), "[R] G F p"],
    }
    dump_stdouts = {name: set() for name in dumps}
    stdouts, automata, strategies, checks = set(), set(), set(), set()
    deep_stdouts, deep_strategies, full_checks = set(), set(), set()
    for seed in ("0", "5", "1234"):
        env = child_env(PYTHONHASHSEED=seed)
        for name, argv in dumps.items():
            proc = subprocess.run(
                [sys.executable, "-m", "unistrat.cli", "dump", *argv],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            dump_stdouts[name].add(proc.stdout)
        out = tmp_path / f"s{seed}.strategy"
        proc = subprocess.run(
            [sys.executable, "-m", "unistrat.cli", "solve", str(arena),
             str(fst), "G([R] p | [R] !p)", "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        stdouts.add(proc.stdout)
        strategies.add(out.read_text())
        proc = subprocess.run(
            [sys.executable, "-m", "unistrat.cli", "check", str(arena),
             str(fst), "[R] !p", str(out), "--mode", "strict"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert "counterexample=" in proc.stdout
        checks.add(proc.stdout)
        deep = tmp_path / f"d{seed}.strategy"
        proc = subprocess.run(
            [sys.executable, "-m", "unistrat.cli", "solve", str(branching),
             str(length), "F [R] G <R> !p", "--out", str(deep)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "iter2.fst=" in proc.stdout
        deep_stdouts.add(proc.stdout)
        deep_strategies.add(deep.read_text())
        proc = subprocess.run(
            [sys.executable, "-m", "unistrat.cli", "check", str(branching),
             str(length), "X [R] p", str(fixed), "--mode", "full"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert "counterexample=v0" in proc.stdout
        full_checks.add(proc.stdout)
        proc = subprocess.run(
            [sys.executable, "-m", "unistrat.cli", "dump", "automaton",
             "G F p & G F q & F G r"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        automata.add(proc.stdout)
    assert len(stdouts) == 1
    assert len(automata) == 1
    assert len(strategies) == 1
    assert len(checks) == 1
    assert len(deep_stdouts) == 1
    assert len(deep_strategies) == 1
    assert len(full_checks) == 1
    assert all(len(outs) == 1 for outs in dump_stdouts.values())
    # power arena text, pinned: positions, order, states and information sets
    digests = {name: hashlib.sha256(outs.pop().encode()).hexdigest()[:16]
               for name, outs in dump_stdouts.items() if name.endswith("powerset")}
    assert digests == {"diag powerset": "357ff9760b9a9740",
                       "length powerset": "9b613279c4f82b9e",
                       "identity powerset": "66305dad7f32397a"}
