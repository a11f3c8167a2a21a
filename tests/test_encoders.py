import importlib.util
import itertools
import random
import sys
from pathlib import Path

import pytest

from conftest import materialized, plays_up_to, positional_strategies
from unistrat.arena import Strategy, format_strategy, validate
from unistrat.encoders import (ImpGame, _des_arena, _obs_partition,
                               encode_dependence_game,
                               encode_diagnosability, encode_imperfect_info,
                               encode_noninterference, encode_opacity,
                               encode_prognosability, parse_des, parse_dlgame,
                               parse_impgame, parse_nisys)
from unistrat.errors import EncodingError, InputFormatError
from unistrat.marker import trace_counterexample
from unistrat.formula import parse as parse_formula
from unistrat.oracle import dl_eval
from unistrat.powerset import build_power_arena
from unistrat.synthesizer import (FusInstance, check_uniform,
                                  synthesize_fully_uniform)
from unistrat.transducer import (EPSILON, Transducer, build_morphism_equivalence,
                                 compose, position_groups, recognizes,
                                 restrict_to_plays)

IMP_TOY = """
impgame
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
"""


def test_impinfo_arena_shape_and_formula():
    enc = encode_imperfect_info(parse_impgame(IMP_TOY))
    assert enc.formula_text == "G(p1 -> ([R] X pa | [R] X pb))"
    arena = enc.instance.arena
    assert validate(arena) == []
    assert arena.labels["s0"] == frozenset({"p1"})
    assert arena.labels["(s0,a)"] == frozenset({"pa"})
    assert enc.action_of["(s1,b)"] == "b"


def test_impinfo_same_action_passes_divergent_fails():
    enc = encode_imperfect_info(parse_impgame(IMP_TOY))
    arena = enc.instance.arena
    update = {("m", v): "m" for v in arena.positions}

    def strat(choice_s1, choice_s2):
        choice = {("m", "s0"): "(s0,a)", ("m", "s1"): choice_s1,
                  ("m", "s2"): choice_s2, ("m", "s3"): "(s3,a)"}
        return Strategy(1, "m", update, choice)

    same = check_uniform(enc.instance, strat("(s1,a)", "(s2,a)"), "strict")
    assert same.ok
    diff = check_uniform(enc.instance, strat("(s1,a)", "(s2,b)"), "strict")
    assert not diff.ok
    assert diff.counterexample is not None


def test_impinfo_discrete_partition_everything_passes():
    text = IMP_TOY.replace("obs s1 s2\n", "")
    enc = encode_imperfect_info(parse_impgame(text))
    for sigma in positional_strategies(enc.instance.arena, 1):
        assert check_uniform(enc.instance, sigma, "strict").ok


def test_impinfo_availability_validation():
    bad = IMP_TOY.replace("trans s2 a s3\n", "")
    with pytest.raises(EncodingError):
        encode_imperfect_info(parse_impgame(bad))


@pytest.mark.parametrize("shifted", [False, True])
def test_impinfo_rejects_overlapping_classes(shifted):
    raw = parse_impgame(IMP_TOY + "obs s2 s3\n")
    with pytest.raises(EncodingError, match="non-partition: 's2' occurs in two classes"):
        encode_imperfect_info(raw, shifted=shifted)


def test_impinfo_shifted_variant_agrees():
    raw = parse_impgame(IMP_TOY)
    plain = encode_imperfect_info(raw)
    shifted = encode_imperfect_info(raw, shifted=True)
    assert shifted.formula_text == "G([R] pa | [R] pb)"
    for sigma in positional_strategies(plain.instance.arena, 1):
        a = check_uniform(plain.instance, sigma, "strict").ok
        b = check_uniform(shifted.instance, sigma, "strict").ok
        assert a == b


OPACITY_KEPT = """
impgame
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
"""

OPACITY_BROKEN = """
impgame
state s0 init
state s1 secret
state s2
action a
action b
trans s0 a s1
trans s0 b s2
trans s1 a s1
trans s2 b s2
obs s0
obs s1
obs s2
"""


def test_opacity_two_instances():
    enc = encode_opacity(parse_impgame(OPACITY_KEPT))
    assert enc.attacker_formula == "F [R] pS"
    assert enc.defender_formula == "G ![R] pS"
    assert enc.attacker.protagonist == 1
    assert enc.defender.protagonist == 2
    assert enc.arena.labels["s1"] == frozenset({"p1", "pS"})


def test_opacity_instances_share_one_restricted_relation():
    enc = encode_opacity(parse_impgame(OPACITY_KEPT))
    assert enc.defender.transducer is enc.attacker.transducer
    assert enc.defender.arena is enc.attacker.arena


def test_imp_encoders_reject_an_undeclared_target_through_make():
    """An ImpGame built in code skips the parser's name checks; the
    instance boundary rejects its arena with the first diagnostic."""
    raw = ImpGame(("s0", "s1"), ("a",),
                  {("s0", "a"): ("s1",), ("s1", "a"): ("s9",)}, "s0", ())
    message = "edge ('(s1,a)', 's9') references an undeclared position"
    for encode in (encode_imperfect_info, encode_opacity):
        with pytest.raises(EncodingError) as info:
            encode(raw)
        assert str(info.value) == message


def test_opacity_defender_wins_on_ambiguous_secret():
    enc = encode_opacity(parse_impgame(OPACITY_KEPT))
    result = synthesize_fully_uniform(enc.defender)
    assert result.exists
    assert check_uniform(enc.defender, result.strategy, "full").ok


def test_opacity_defender_loses_attacker_wins_on_unique_observation():
    enc = encode_opacity(parse_impgame(OPACITY_BROKEN))
    assert not synthesize_fully_uniform(enc.defender).exists
    arena = enc.attacker.arena
    update = {("m", v): "m" for v in arena.positions}
    choice = {("m", v): arena.successors(v)[0]
              for v in arena.positions if arena.owner[v] == 1}
    sigma = Strategy(1, "m", update, choice)
    assert check_uniform(enc.attacker, sigma, "strict").ok


def test_opacity_empty_secret_trivially_kept():
    enc = encode_opacity(parse_impgame(OPACITY_KEPT.replace(" secret", "")))
    result = synthesize_fully_uniform(enc.defender)
    assert result.exists


NI_SAFE = """
nisys
in h high
in l
out x
trans s0 - s0
trans s0 h s0
trans s0 l s1
trans s0 h,l s1
trans s1 - s1
trans s1 h s1
trans s1 l s0
trans s1 h,l s0
output s0 -
output s1 x
"""

NI_LEAK = """
nisys
in h high
out x
trans s0 - s0
trans s0 h s1
trans s1 - s1
trans s1 h s1
output s0 -
output s1 x
"""


def test_noninterference_trivial_strategy_decides_plain_property():
    safe = encode_noninterference(parse_nisys(NI_SAFE))
    assert check_uniform(safe.instance, safe.trivial_strategy, "strict").ok
    leak = encode_noninterference(parse_nisys(NI_LEAK))
    res = check_uniform(leak.instance, leak.trivial_strategy, "strict")
    assert not res.ok


def test_noninterference_controller_restores_property():
    leak = encode_noninterference(parse_nisys(NI_LEAK))
    arena = leak.arena
    update = {("m", v): "m" for v in arena.positions}
    choice = {}
    for v in arena.positions:
        if arena.owner[v] == 1:
            state = v.rsplit(",", 1)[1].rstrip(")")
            choice[("m", v)] = f"({state},{{0}})"
    controller = Strategy(1, "m", update, choice)
    assert check_uniform(leak.instance, controller, "strict").ok


def test_noninterference_single_input_letter_time_function():
    # with one input valuation class, relatedness is length equality on
    # executions; outputs must be a function of time
    text = """
nisys
in h high
out x
trans s0 - s1
trans s0 h s1
trans s1 - s0
trans s1 h s0
output s0 -
output s1 x
"""
    enc = encode_noninterference(parse_nisys(text))
    assert check_uniform(enc.instance, enc.trivial_strategy, "strict").ok
    text2 = text.replace("trans s0 h s1", "trans s0 h s0")
    enc2 = encode_noninterference(parse_nisys(text2))
    assert not check_uniform(enc2.instance, enc2.trivial_strategy, "strict").ok


def test_noninterference_incomplete_rejected():
    with pytest.raises(EncodingError):
        encode_noninterference(parse_nisys(NI_LEAK.replace("trans s1 h s1\n", "")))


DES_OK = """
des
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


def test_des_arena_is_bipartite_with_pass_through_positions():
    enc = encode_diagnosability(parse_des(DES_OK))
    assert validate(enc.arena) == []
    assert all(enc.arena.labels[d] == frozenset() for d in enc.dummy_positions)
    assert all(enc.arena.owner[d] == 1 for d in enc.dummy_positions)
    assert all(enc.arena.owner[r] == 2 for r in enc.real_positions)


def test_des_persistence_validation():
    bad = DES_OK.replace("trans s2 o s2", "trans s2 o s0")
    with pytest.raises(EncodingError):
        encode_diagnosability(parse_des(bad))


def test_des_deadlock_validation():
    bad = DES_OK.replace("trans s1 u s1\n", "")
    with pytest.raises(EncodingError):
        encode_diagnosability(parse_des(bad))


def test_no_faulty_states_trivially_diagnosable_and_prognosable():
    text = """
des
state s0 init
event o obs
trans s0 o s0
"""
    assert synthesize_fully_uniform(
        encode_diagnosability(parse_des(text)).instance).exists
    assert synthesize_fully_uniform(
        encode_prognosability(parse_des(text)).instance).exists


def test_prognosability_warning_event():
    prog = """
des
state s0 init
state s1
state s2 faulty
event w obs
event o obs
event u
trans s0 u s0
trans s0 w s1
trans s1 o s2
trans s2 o s2
"""
    assert synthesize_fully_uniform(
        encode_prognosability(parse_des(prog)).instance).exists
    noprog = """
des
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
    assert not synthesize_fully_uniform(
        encode_prognosability(parse_des(noprog)).instance).exists


DEP_PAIR_GAME = """
dlgame
sentence forall x0 forall x1 (x0 = x1 | dep(x0, x1))
dom {dom}
"""


def winning(enc, sigma):
    from unistrat.arena import outcome_arena
    product = outcome_arena(enc.arena, sigma)
    return trace_counterexample(product, product.initial,
                                parse_formula(enc.win_formula)) is None


def dl_strategies(enc):
    arena = enc.arena
    owned = list(enc.choice_positions)
    forced = [v for v in arena.positions
              if arena.owner[v] == 1 and v not in owned]
    for combo in itertools.product(*(arena.successors(v) for v in owned)):
        update = {("m", v): "m" for v in arena.positions}
        choice = {("m", v): t for v, t in zip(owned, combo)}
        for v in forced:
            choice[("m", v)] = arena.successors(v)[0]
        yield Strategy(1, "m", update, choice)


def test_dependence_game_three_elements_no_uniform_winner():
    sentence, model = parse_dlgame(DEP_PAIR_GAME.format(dom="0,1,2"))
    assert not dl_eval(sentence, model)
    enc = encode_dependence_game(sentence, model)
    winning_count = uniform_winning = 0
    for sigma in dl_strategies(enc):
        if not winning(enc, sigma):
            continue
        winning_count += 1
        if check_uniform(enc.instance, sigma, "strict").ok:
            uniform_winning += 1
    assert winning_count > 0
    assert uniform_winning == 0


def test_dependence_game_two_elements_uniform_winner():
    sentence, model = parse_dlgame(DEP_PAIR_GAME.format(dom="0,1"))
    assert dl_eval(sentence, model)
    enc = encode_dependence_game(sentence, model)
    assert any(winning(enc, s) and check_uniform(enc.instance, s, "strict").ok
               for s in dl_strategies(enc))


def test_dependence_game_no_dep_atoms_every_strategy_uniform():
    sentence, model = parse_dlgame(
        "dlgame\nsentence exists x (x = x)\ndom 0,1\n")
    enc = encode_dependence_game(sentence, model)
    for sigma in dl_strategies(enc):
        assert check_uniform(enc.instance, sigma, "strict").ok


def test_strict_checks_build_no_buchi_automaton(monkeypatch):
    """A strict check's residual formula is an invariant G s, whose
    counterexample automaton the marker builds itself: an
    imperfect-information and a dependence-logic encoding make no
    `ltl_to_nba` call, with the witnesses the translation gave."""
    from unistrat import ltlgame, marker

    def refused(psi, *args, **kwargs):
        raise AssertionError(f"Buchi automaton built for {psi}")

    monkeypatch.setattr(marker, "ltl_to_nba", refused)
    monkeypatch.setattr(ltlgame, "ltl_to_nba", refused)
    enc = encode_imperfect_info(parse_impgame(IMP_TOY))
    update = {("m", v): "m" for v in enc.instance.arena.positions}
    choice = {("m", "s0"): "(s0,a)", ("m", "s1"): "(s1,a)",
              ("m", "s2"): "(s2,b)", ("m", "s3"): "(s3,a)"}
    result = check_uniform(enc.instance, Strategy(1, "m", update, choice), "strict")
    assert result.counterexample == ("s0", "(s0,a)", "s1", "(s1,a)", "s3", "(s3,a)")
    sentence, model = parse_dlgame(DEP_PAIR_GAME.format(dom="0,1,2"))
    enc = encode_dependence_game(sentence, model)
    verdicts = [check_uniform(enc.instance, sigma, "strict") for sigma in dl_strategies(enc)]
    assert [v.ok for v in verdicts[:4]] == [True, True, True, False]
    assert verdicts[3].counterexample == (
        "n1{}", ">n2{x0=2}", "n2{x0=2}", "n4{x0=2,x1=1}",
        ">n5{x0=2,x1=1}", "n5{x0=2,x1=1}", ">n5{x0=2,x1=1}", "n5{x0=2,x1=1}")


def test_dependence_game_free_variable_rejected():
    sentence, model = parse_dlgame("dlgame\nsentence exists x (x = y)\ndom 0\n")
    with pytest.raises(EncodingError):
        encode_dependence_game(sentence, model)


def test_dl_parser_rejects_non_nnf():
    with pytest.raises(InputFormatError):
        parse_dlgame("dlgame\nsentence ! (exists x (x = x))\ndom 0\n")


def test_des_reserved_event_name():
    text = DES_OK.replace("event u", "event -")
    with pytest.raises(InputFormatError):
        parse_des(text)


DL_INSTANCES = [
    ("forall x0 forall x1 (x0 = x1 | dep(x0, x1))", "0,1", ()),
    ("forall x0 forall x1 (x0 = x1 | dep(x0, x1))", "0,1,2", ()),
    ("exists x dep(x)", "a,b", ()),
    ("forall x dep(x)", "a,b", ()),
    ("forall x exists y E(x, y)", "0,1", ("rel E 0,1", "rel E 1,0")),
    ("forall x exists y (E(x, y) & dep(y))", "0,1",
     ("rel E 0,0", "rel E 0,1", "rel E 1,0", "rel E 1,1")),
]


def test_dl_truth_matches_winning_uniform_strategy_existence():
    """Team-semantics truth iff the evaluation game has a winning uniform
    strategy, across at least five hand-built instances."""
    checked = 0
    for sentence_text, dom, rels in DL_INSTANCES:
        text = "dlgame\nsentence " + sentence_text + f"\ndom {dom}\n"
        text += "".join(r + "\n" for r in rels)
        sentence, model = parse_dlgame(text)
        want = dl_eval(sentence, model)
        enc = encode_dependence_game(sentence, model)
        got = any(winning(enc, s) and check_uniform(enc.instance, s, "strict").ok
                  for s in dl_strategies(enc))
        assert got == want, sentence_text
        checked += 1
    assert checked >= 5


NI_TIME_SAFE = """
nisys
in h high
out x
trans s0 - s1
trans s0 h s1
trans s1 - s0
trans s1 h s0
output s0 -
output s1 x
"""

NI_TIME_LEAK = NI_TIME_SAFE.replace("trans s0 h s1", "trans s0 h s0")

NI_TWO_LOW = """
nisys
in a
in b
out x
trans s0 - s0
trans s0 a s1
trans s0 b s0
trans s0 a,b s1
trans s1 - s1
trans s1 a s0
trans s1 b s1
trans s1 a,b s0
output s0 -
output s1 x
"""

NI_DELAYED_LEAK = """
nisys
in h high
out x
trans s0 - s1
trans s0 h s2
trans s1 - s1
trans s1 h s1
trans s2 - s3
trans s2 h s3
trans s3 - s3
trans s3 h s3
output s0 -
output s1 -
output s2 -
output s3 x
"""


def direct_noninterference(sys_, max_len=4):
    """Output comparison over low-equivalent input sequences."""
    from unistrat.encoders import _input_valuations

    vals = _input_valuations(sys_)
    low = [v for v in sys_.inputs if v not in sys_.high]

    def run(word):
        s = sys_.initial
        outs = [sys_.output[s]]
        for a in word:
            s = sys_.trans[(s, a)]
            outs.append(sys_.output[s])
        return tuple(outs)

    words = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (a,) for w in frontier for a in vals]
        words += frontier
    by_low = {}
    for w in words:
        key = tuple(frozenset(a) & frozenset(low) for a in w)
        by_low.setdefault(key, []).append(w)
    for group in by_low.values():
        outputs = {run(w) for w in group}
        if len(outputs) > 1:
            return False
    return True


def test_noninterference_matches_output_comparison():
    fixtures = [NI_SAFE, NI_LEAK, NI_TIME_SAFE, NI_TIME_LEAK, NI_TWO_LOW,
                NI_DELAYED_LEAK]
    checked = 0
    for text in fixtures:
        sys_ = parse_nisys(text)
        want = direct_noninterference(sys_)
        enc = encode_noninterference(sys_)
        got = check_uniform(enc.instance, enc.trivial_strategy, "strict").ok
        assert got == want
        checked += 1
    assert checked >= 5


def _bench_workloads():
    """bench/workloads.py, for its random DES and game generators."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _filter(arena, accept, name):
    """Identity transducer on nonempty words whose last position passes
    accept, as a separate automaton to compose with."""
    f0, good, bad = "f0", "f1", "f2"
    positions = frozenset(arena.positions)
    transitions = [(q, v, v, good if accept(v) else bad)
                   for q in (f0, good, bad) for v in arena.positions]
    return Transducer([f0, good, bad], positions, positions, f0, [good],
                      transitions, name=name)


def _composed_des_relation(arena, h, target):
    """Play-restricted morphism equivalence, composed with a filter on the
    written word's last position, and restricted again so that its states
    record their last write."""
    t = materialized(restrict_to_plays(build_morphism_equivalence(arena, h), arena))
    return restrict_to_plays(compose(t, _filter(arena, target.__contains__, "ends-in")),
                             arena)


def _composed_shift_relation(arena, blocks):
    """Observation equivalence followed by one written position, composed
    behind a filter on the read word ending at a Player 1 position."""
    positions = frozenset(arena.positions)
    transitions = [("s0", u, v, "s0") for g in position_groups(arena, blocks)
                   for u in g for v in g]
    transitions += [("s0", EPSILON, w, "s1") for w in arena.positions]
    shift = Transducer(["s0", "s1"], positions, positions, "s0", ["s1"],
                       transitions, name="obs-shift")
    ends_p1 = _filter(arena, lambda v: arena.owner[v] == 1, "ends-p1")
    return restrict_to_plays(compose(ends_p1, shift), arena)


def _power_shape(inst):
    """The power arena up to the names of transducer states: each power
    position's underlying position, information set and successors."""
    power = build_power_arena(inst.arena, inst.transducer).arena
    return [(p.v, sorted(p.info), [power.index(q) for q in power.successors(p)])
            for p in power.positions]


def _assert_same_instance(inst, reference, plays, strategies=()):
    """Same related plays, power arena shape, synthesis verdict, written
    strategy and strict check results; returns the synthesis verdict and
    the check results."""
    for r1 in plays:
        for r2 in plays:
            assert (recognizes(inst.transducer, r1, r2)
                    == recognizes(reference.transducer, r1, r2)), (r1, r2)
    assert _power_shape(inst) == _power_shape(reference)
    got = synthesize_fully_uniform(inst)
    want = synthesize_fully_uniform(reference)
    assert got.verdict == want.verdict
    if got.exists:
        assert format_strategy(got.strategy) == format_strategy(want.strategy)
    checks = [check_uniform(inst, sigma, "strict") for sigma in strategies]
    assert checks == [check_uniform(reference, sigma, "strict") for sigma in strategies]
    return [got.verdict] + [c.ok for c in checks]


def test_direct_filters_match_composed_reference():
    """The DES relation's ends_in state and the shifted relation's Player 1
    state relate the same plays as composing with a filter transducer, and
    give the same power arenas, verdicts and strategies."""
    workloads = _bench_workloads()
    rng = random.Random(4417)
    seen = set()
    for _ in range(12):
        des = workloads.random_des(rng, rng.randint(3, 4))
        arena, h, reals, dummies = _des_arena(des)
        for encode, target in ((encode_diagnosability, reals),
                               (encode_prognosability, dummies)):
            enc = encode(des)
            reference = FusInstance(arena, _composed_des_relation(arena, h, target),
                                    enc.instance.phi)
            seen.update(_assert_same_instance(enc.instance, reference,
                                              plays_up_to(arena, 4)))
    for _ in range(12):
        raw = workloads.random_impgame(rng, rng.randint(2, 4))
        enc = encode_imperfect_info(raw, shifted=True)
        arena = enc.instance.arena
        reference = FusInstance(
            arena, _composed_shift_relation(arena, _obs_partition(raw, arena)),
            enc.instance.phi)
        seen.update(_assert_same_instance(
            enc.instance, reference, plays_up_to(arena, 4),
            list(positional_strategies(arena, 1))))
    assert seen == {"exists", "not_exists", True, False}
