import subprocess
import sys

import pytest

from conftest import child_env, make_branching, make_g0
from unistrat.arena import format_arena, format_strategy
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


def test_encode_diag_solve_round_trip(tmp_path, capsys):
    des = tmp_path / "m.des"
    des.write_text(DES_CONFUSABLE)
    prefix = str(tmp_path / "diag")
    code, stdout, _ = run_cli(
        ["encode", "diag", str(des), "--out-prefix", prefix], capsys)
    assert code == 0
    code, stdout, _ = run_cli(
        ["solve", prefix + ".arena", prefix + ".fst",
         "--formula-file", prefix + ".formula", "--no-restrict"], capsys)
    assert code == 1

    des.write_text(DES_DIAGNOSABLE)
    code, _, _ = run_cli(["encode", "diag", str(des), "--out-prefix", prefix],
                         capsys)
    assert code == 0
    code, stdout, _ = run_cli(
        ["solve", prefix + ".arena", prefix + ".fst",
         "--formula-file", prefix + ".formula", "--no-restrict"], capsys)
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
         "--formula-file", prefix + ".defender.formula", "--no-restrict",
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
         "--mode", "strict", "--no-restrict"], capsys)
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


def test_dump_automaton_inline(capsys):
    code, stdout, _ = run_cli(["dump", "automaton", "G F p"], capsys)
    assert code == 0
    assert "nba states=" in stdout
    assert "dpa states=" in stdout
    code, _, _ = run_cli(["dump", "automaton", "[R] p"], capsys)
    assert code == 2  # not plain temporal logic
    code, _, _ = run_cli(["dump", "automaton"], capsys)
    assert code == 2


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "unistrat.cli", "--help"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert "solve" in proc.stdout


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
    # memory elements are automaton states (and, after pullback, tuples
    # holding them); the written names must not depend on how they are built
    sigma = solve_ltl_game(make_g0(), parse("G(p -> X !p)"), 1)
    assert format_strategy(sigma) == (
        "strategy player=1 memory=m0,m1,m2 init=m0\n"
        "upd m0 v0 -> m1\n"
        "upd m1 v1 -> m2\n"
        "upd m2 v0 -> m1\n"
        "choose m1 v0 -> v1\n")
    des = tmp_path / "m.des"
    des.write_text(DES_DIAGNOSABLE)
    prefix = str(tmp_path / "diag")
    out = tmp_path / "diag.strategy"
    assert run_cli(["encode", "diag", str(des), "--out-prefix", prefix], capsys)[0] == 0
    code, _, _ = run_cli(
        ["solve", prefix + ".arena", prefix + ".fst", "--formula-file",
         prefix + ".formula", "--no-restrict", "--out", str(out)], capsys)
    assert code == 0
    assert out.read_text() == """\
strategy player=1 memory=m0,m1,m10,m11,m12,m2,m3,m4,m5,m6,m7,m8,m9 init=m0
upd m0 (-,s0) -> m1
upd m1 >(f,s2) -> m2
upd m1 >(u,s1) -> m10
upd m10 (u,s1) -> m11
upd m11 >(u,s1) -> m12
upd m12 (u,s1) -> m11
upd m2 (f,s2) -> m3
upd m3 >(o,s2) -> m4
upd m4 (o,s2) -> m5
upd m5 >(o,s2) -> m6
upd m6 (o,s2) -> m7
upd m7 >(o,s2) -> m8
upd m8 (o,s2) -> m9
upd m9 >(o,s2) -> m8
choose m10 >(u,s1) -> (u,s1)
choose m12 >(u,s1) -> (u,s1)
choose m2 >(f,s2) -> (f,s2)
choose m4 >(o,s2) -> (o,s2)
choose m6 >(o,s2) -> (o,s2)
choose m8 >(o,s2) -> (o,s2)
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
    stdouts, automata, strategies = set(), set(), set()
    deep_stdouts, deep_strategies = set(), set()
    for seed in ("0", "5", "1234"):
        env = child_env(PYTHONHASHSEED=seed)
        out = tmp_path / f"s{seed}.strategy"
        proc = subprocess.run(
            [sys.executable, "-m", "unistrat.cli", "solve", str(arena),
             str(fst), "G([R] p | [R] !p)", "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        stdouts.add(proc.stdout)
        strategies.add(out.read_text())
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
            [sys.executable, "-m", "unistrat.cli", "dump", "automaton",
             "G F p & G F q & F G r"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        automata.add(proc.stdout)
    assert len(stdouts) == 1
    assert len(automata) == 1
    assert len(strategies) == 1
    assert len(deep_stdouts) == 1
    assert len(deep_strategies) == 1
