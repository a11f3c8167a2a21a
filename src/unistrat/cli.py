"""Command-line front end.

Subcommands: solve (decide the fully-uniform strategy problem), check
(strict/full uniformity of a given strategy), encode (translate one of the
six supported frameworks into arena/transducer/formula files), and dump
(powerset, automaton and marking inspection).  Every command that reads an
arena and a transducer loads them through `FusInstance.make`, so each
rejects malformed input with the same diagnostic.

Exit codes: 0 = property holds / strategy exists, 1 = it does not,
2 = error (bad input, refused request, or a state-space cap was hit).
All output is deterministic given identical inputs.
"""

from __future__ import annotations

import argparse
import sys

from . import encoders
from .arena import format_arena, format_strategy, parse_arena, parse_strategy
from .errors import StrictSynthesisUnsupported, UnistratError
from .formula import Const, format_formula, parse as parse_formula, r_depth
from .ltlgame import DEFAULT_CAPS, Caps, ltl_to_dpa, ltl_to_nba
from .marker import eliminate_r, format_marking_report
from .powerset import build_power_arena
from .synthesizer import FusInstance, check_uniform, synthesize_fully_uniform
from .transducer import format_transducer, parse_transducer


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _caps(args) -> Caps:
    return Caps(power_positions=args.max_power_positions,
                dpa_states=args.max_dpa_states,
                nba_states=args.max_dpa_states,
                product_nodes=args.max_product)


def _add_cap_flags(parser):
    parser.add_argument("--max-power-positions", type=int,
                        default=DEFAULT_CAPS.power_positions)
    parser.add_argument("--max-dpa-states", type=int, default=DEFAULT_CAPS.dpa_states)
    parser.add_argument("--max-product", type=int, default=DEFAULT_CAPS.product_nodes)


def _load_formula(args):
    if args.formula is not None:
        if getattr(args, "formula_file", None):
            print("warning: both inline formula and --formula-file given; "
                  "using the inline formula", file=sys.stderr)
        return parse_formula(args.formula)
    if getattr(args, "formula_file", None):
        return parse_formula(_read(args.formula_file))
    raise UnistratError("no formula given (inline or --formula-file)")


def _read_game(arena_path, fst_path):
    """The parsed arena and transducer, for `FusInstance.make` to check."""
    return parse_arena(_read(arena_path)), parse_transducer(_read(fst_path))


def _print_result_block(pairs, fmt):
    if fmt == "kv":
        for key, value in pairs:
            print(f"{key}={value}")
    else:
        for key, value in pairs:
            print(f"{key}: {value}")


def cmd_solve(args) -> int:
    if args.mode == "strict":
        raise StrictSynthesisUnsupported(
            "synthesis of strictly-uniform strategies is refused: whether the "
            "problem is decidable is open; use 'check --mode=strict' to verify "
            "a given strategy instead")
    caps = _caps(args)
    inst = FusInstance.make(*_read_game(args.arena, args.fst), _load_formula(args),
                            protagonist=args.player, caps=caps)
    result = synthesize_fully_uniform(inst, caps=caps)
    pairs = [("verdict", result.verdict),
             ("iterations", len(result.trace) - 1)]
    for k, stats in enumerate(result.trace):
        pairs.append((f"iter{k}.arena", stats.arena_positions))
        pairs.append((f"iter{k}.fst", stats.transducer_states))
        pairs.append((f"iter{k}.rdepth", stats.rdepth))
    _print_result_block(pairs, args.format)
    if result.exists and args.out:
        _write(args.out, format_strategy(result.strategy))
    return 0 if result.exists else 1


def cmd_check(args) -> int:
    caps = _caps(args)
    inst = FusInstance.make(*_read_game(args.arena, args.fst), _load_formula(args),
                            protagonist=args.player, caps=caps)
    sigma = parse_strategy(_read(args.strategy))
    result = check_uniform(inst, sigma, args.mode, caps=caps)
    if result.ok:
        _print_result_block([("verdict", "uniform"), ("mode", args.mode)], args.format)
        return 0
    _print_result_block(
        [("verdict", "not_uniform"), ("mode", args.mode),
         ("counterexample", " ".join(str(v) for v in result.counterexample)),
         ("violated", format_formula(inst.phi))],
        args.format)
    return 1


def cmd_encode(args) -> int:
    text = _read(args.input)
    prefix = args.out_prefix

    def emit(tag, instance, formula_text, strategy=None):
        lead = f"{prefix}{tag}" if tag else prefix
        _write(lead + ".arena", format_arena(instance.arena))
        _write(lead + ".fst", format_transducer(instance.transducer.t))
        _write(lead + ".formula", formula_text + "\n")
        if strategy is not None:
            _write(lead + ".strategy", format_strategy(strategy))
        print(f"wrote {lead}.arena / .fst / .formula"
              + (" / .strategy" if strategy is not None else ""))

    if args.framework == "impinfo":
        enc = encoders.encode_imperfect_info(encoders.parse_impgame(text),
                                             shifted=args.shifted)
        emit("", enc.instance, enc.formula_text)
        print(f"mode={enc.mode}")
    elif args.framework == "opacity":
        enc = encoders.encode_opacity(encoders.parse_impgame(text))
        emit(".attacker", enc.attacker, enc.attacker_formula)
        emit(".defender", enc.defender, enc.defender_formula)
        print(f"attacker: player 1, mode={enc.attacker_mode}; "
              f"defender: player 2, mode={enc.defender_mode}")
    elif args.framework == "noninterference":
        enc = encoders.encode_noninterference(encoders.parse_nisys(text))
        emit("", enc.instance, enc.formula_text, strategy=enc.trivial_strategy)
        print(f"mode={enc.mode}")
    elif args.framework == "diag":
        enc = encoders.encode_diagnosability(encoders.parse_des(text))
        emit("", enc.instance, enc.formula_text)
        print(f"mode={enc.mode}")
    elif args.framework == "prognosis":
        enc = encoders.encode_prognosability(encoders.parse_des(text))
        emit("", enc.instance, enc.formula_text)
        print(f"mode={enc.mode}")
    elif args.framework == "dlgame":
        sentence, model = encoders.parse_dlgame(text)
        enc = encoders.encode_dependence_game(sentence, model)
        emit("", enc.instance, enc.agree_formula)
        _write(prefix + ".win.formula", enc.win_formula + "\n")
        print(f"mode={enc.mode}; winning objective in {prefix}.win.formula")
    else:
        raise UnistratError(f"unknown framework {args.framework!r}")
    return 0


def _expect_inputs(args, count, usage):
    if len(args.inputs) != count:
        raise UnistratError(f"dump {args.what} expects {usage}")
    return args.inputs


def cmd_dump(args) -> int:
    if args.what == "powerset":
        arena_path, fst_path = _expect_inputs(args, 2, "<arena> <fst>")
        # the power arena reads the arena and the relation only
        inst = FusInstance.make(*_read_game(arena_path, fst_path), Const(True),
                                caps=_caps(args))
        power = build_power_arena(inst.arena, inst.transducer, cap=args.max_power_positions)
        sys.stdout.write(format_arena(power.arena))
    elif args.what == "automaton":
        (formula_text,) = _expect_inputs(args, 1, "<formula>")
        phi = parse_formula(formula_text)
        if r_depth(phi) != 0:
            raise UnistratError("automaton dump needs a plain LTL formula")
        caps = _caps(args)
        nba = ltl_to_nba(phi, caps=caps)
        print(f"nba states={len(nba.states)} initial={len(nba.initial)} "
              f"accepting={len(nba.accepting)}")
        dpa = ltl_to_dpa(phi, caps=caps)
        print(f"dpa states={len(dpa.states)} "
              f"priorities={sorted(set(dpa.priority.values()))} "
              f"construction={dpa.construction}")
    elif args.what == "marking":
        arena_path, fst_path, formula_text = _expect_inputs(
            args, 3, "<arena> <fst> <formula>")
        caps = _caps(args)
        inst = FusInstance.make(*_read_game(arena_path, fst_path),
                                parse_formula(formula_text), caps=caps)
        _, _, phi_hat, report = eliminate_r(inst.arena, inst.transducer, inst.phi, caps)
        sys.stdout.write(format_marking_report(report))
        print(f"rewritten: {format_formula(phi_hat)}")
    else:
        raise UnistratError(f"unknown dump kind {args.what!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unistrat",
        description="Synthesize and check uniform strategies over regular "
                    "play relations")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="decide fully-uniform strategy existence")
    p_solve.add_argument("arena")
    p_solve.add_argument("fst")
    p_solve.add_argument("formula", nargs="?", default=None)
    p_solve.add_argument("--formula-file")
    p_solve.add_argument("--player", type=int, choices=(1, 2), default=1)
    p_solve.add_argument("--mode", choices=("full", "strict"), default="full")
    p_solve.add_argument("--out", help="write the synthesized strategy here")
    p_solve.add_argument("--format", choices=("text", "kv"), default="kv")
    _add_cap_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="check a given finite-memory strategy")
    p_check.add_argument("arena")
    p_check.add_argument("fst")
    p_check.add_argument("formula", nargs="?", default=None)
    p_check.add_argument("strategy")
    p_check.add_argument("--formula-file")
    p_check.add_argument("--player", type=int, choices=(1, 2), default=1)
    p_check.add_argument("--mode", choices=("strict", "full"), required=True)
    p_check.add_argument("--format", choices=("text", "kv"), default="kv")
    _add_cap_flags(p_check)
    p_check.set_defaults(func=cmd_check)

    p_encode = sub.add_parser("encode", help="translate a framework input")
    p_encode.add_argument("framework",
                          choices=("impinfo", "opacity", "noninterference",
                                   "diag", "prognosis", "dlgame"))
    p_encode.add_argument("input")
    p_encode.add_argument("--out-prefix", required=True)
    p_encode.add_argument("--shifted", action="store_true",
                          help="impinfo: emit the next-step relation variant")
    p_encode.set_defaults(func=cmd_encode)

    p_dump = sub.add_parser("dump", help="inspect constructions")
    p_dump.add_argument("what", choices=("powerset", "automaton", "marking"))
    p_dump.add_argument("inputs", nargs="*",
                        help="powerset: arena fst; automaton: formula; "
                             "marking: arena fst formula")
    _add_cap_flags(p_dump)
    p_dump.set_defaults(func=cmd_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnistratError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
