"""Decision procedure for the fully-uniform strategy problem, plus the
strict/full uniformity checker for explicitly given finite-memory strategies.

Synthesis iterates R-elimination until the uniformity formula is plain LTL,
solves the residual LTL game on the final power arena, and pulls the
winning strategy back to the original arena through the chain of play
bijections.  Checking restricts attention to the outcomes of the given
strategy: in full mode the universe of related plays stays the whole game,
in strict mode the relation is lifted onto the outcome arena, the same
on-demand view synthesis uses for power arenas, so related plays are
themselves outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from .arena import Arena, Strategy, covering_step, outcome_arena, validate
from .errors import CapExceeded, EncodingError
from .formula import Formula, r_depth
from .ltlgame import Caps, DEFAULT_CAPS, solve_ltl_game
from .marker import eliminate_r, trace_counterexample
from .powerset import LiftedRelation
from .transducer import check_alphabet, restrict_to_plays

__all__ = [
    "FusInstance", "IterationStats", "SynthesisResult", "CheckResult",
    "synthesize_fully_uniform", "check_uniform", "pullback_strategy",
]


@dataclass(frozen=True)
class FusInstance:
    """One uniform-strategy problem: arena, play relation, formula, player.

    The stored relation is a `LiftedRelation` onto the arena, which
    relates pairs of plays only, as `make` makes it: `make` rejects a
    malformed arena with its first `arena.validate` diagnostic and a
    transducer symbol that is not a position, then restricts the relation
    to plays with `restrict_to_plays`, numbering at most
    caps.product_nodes states; the transducer given, trimmed, stays at
    `transducer.t`.  `make` is the one boundary: the CLI and every
    encoder make their instances with it, and none validates or restricts
    on its own.  Calling the constructor (or `dataclasses.replace`)
    directly trusts the relation as given.
    """

    arena: Arena
    transducer: LiftedRelation
    phi: Formula
    protagonist: int = 1

    @classmethod
    def make(cls, arena, transducer, phi, protagonist=1, caps=DEFAULT_CAPS):
        diagnostics = validate(arena)
        if diagnostics:
            raise EncodingError(diagnostics[0])
        check_alphabet(transducer, arena)
        return cls(arena, restrict_to_plays(transducer, arena, caps.product_nodes),
                   phi, protagonist)


class IterationStats:
    """Sizes of one round of the elimination tower: positions of its arena,
    states of its relation and R-depth of its formula.

    The relation is counted the first time `transducer_states` is read and
    then dropped, so no lifted view is explored only to fill a trace.  A
    lifted view counts under its cap, so that read raises CapExceeded
    when the view has more states than caps.product_nodes.
    """

    def __init__(self, arena_positions: int, relation, rdepth: int):
        self.arena_positions = arena_positions
        self.rdepth = rdepth
        self._relation = relation
        self._states = None

    @property
    def transducer_states(self) -> int:
        if self._relation is not None:
            self._states, self._relation = len(self._relation), None
        return self._states


@dataclass
class SynthesisResult:
    verdict: str                      # "exists" | "not_exists"
    strategy: Strategy | None
    trace: list = field(default_factory=list)

    @property
    def exists(self) -> bool:
        return self.verdict == "exists"


@dataclass
class CheckResult:
    ok: bool
    counterexample: tuple | None = None   # play prefix on the original arena

    def __bool__(self):
        return self.ok


def _eliminate_all(arena, transducer, phi, caps):
    """Run elimination rounds until the formula is plain LTL.

    Returns (rounds, chain): rounds lists the (arena, relation, formula)
    triple before each round and after the last one, chain the power
    arena of each round.  Each lifted relation is a view that only the
    next round explores, so nothing here counts its states; a view that
    outgrows its cap raises there, with that round's number.
    """
    rounds = [(arena, transducer, phi)]
    chain = []
    while r_depth(phi) > 0:
        try:
            arena, transducer, phi, report = eliminate_r(arena, transducer, phi, caps)
        except CapExceeded as exc:
            raise CapExceeded(exc.what, exc.size, exc.cap,
                              iteration=len(chain) + 1) from None
        chain.append(report.power)
        rounds.append((arena, transducer, phi))
    return rounds, chain


def synthesize_fully_uniform(inst: FusInstance, caps: Caps = DEFAULT_CAPS) -> SynthesisResult:
    """Decide the fully-uniform strategy problem and extract a witness.

    Per-iteration sizes are recorded so callers can observe the tower of
    exponentials instead of timing it.  Each trace entry counts its round's
    relation when first read, so until then a result keeps that relation
    (for a lifted view, with the power arena it covers) alive.
    """
    rounds, chain = _eliminate_all(inst.arena, inst.transducer, inst.phi, caps)
    trace = [IterationStats(len(arena), relation, r_depth(phi))
             for arena, relation, phi in rounds]
    arena, _, phi = rounds[-1]
    strategy_hat = solve_ltl_game(arena, phi, inst.protagonist, caps=caps)
    if strategy_hat is None:
        return SynthesisResult("not_exists", None, trace)
    strategy = pullback_strategy(strategy_hat, chain)
    return SynthesisResult("exists", strategy, trace)


def _projection(chain: list):
    """Projection of the last power arena of a chain onto the first arena:
    `.v` once per round (the identity for an empty chain)."""
    def down(p):
        for _ in chain:
            p = p.v
        return p
    return down


def pullback_strategy(product_strategy: Strategy, chain: list) -> Strategy:
    """Pull a strategy on the last arena of a power chain back to the first.

    The pulled strategy follows the outcome of the product strategy on
    the last power arena, which covers the first arena.  Its memory is the
    outcome position reached (None before the start), updated along the
    outcome's `covering_step`; at its own positions it moves to the
    projection of the outcome position's one successor.  An empty chain
    returns the strategy unchanged.
    """
    if not chain:
        return product_strategy
    outcome = outcome_arena(chain[-1].arena, product_strategy)
    project = _projection(chain)

    def down(o):
        return project(o[0])

    player = product_strategy.player
    choice = {(o, down(o)): down(outcome.successors(o)[0])
              for o in outcome.positions if outcome.owner[o] == player}
    return Strategy(player, None, covering_step(outcome, down), choice,
                    name=product_strategy.name + "~pulled")


def check_uniform(inst: FusInstance, sigma: Strategy, mode: str,
                  caps: Caps = DEFAULT_CAPS) -> CheckResult:
    """Does the given finite-memory strategy satisfy the uniformity property?

    full mode: related plays range over all plays of the arena, and the
    outcome of sigma is followed on the last power arena; strict
    mode: the relation is lifted onto the outcome arena of sigma, and its
    dead states dropped, before elimination runs there, so related plays
    range over outcomes of sigma at every nesting level.  On failure the
    counterexample is (the projection of) a violating play prefix.
    """
    if mode not in ("strict", "full"):
        raise ValueError("mode must be 'strict' or 'full'")
    if mode == "full":
        rounds, chain = _eliminate_all(inst.arena, inst.transducer, inst.phi, caps)
        final_arena, _, phi_n = rounds[-1]
        down = _projection(chain)
        monitored = outcome_arena(final_arena, sigma, down, caps.product_nodes)

        def original(node):
            return down(node[0])
    else:
        outcome = outcome_arena(inst.arena, sigma, cap=caps.product_nodes)
        relation = LiftedRelation(inst.transducer, outcome, itemgetter(0),
                                  caps.product_nodes, "strict relation states")
        if r_depth(inst.phi) > 0:   # only elimination reads the relation
            relation.drop_dead_states()
        rounds, chain = _eliminate_all(outcome, relation, inst.phi, caps)
        monitored, _, phi_n = rounds[-1]
        down = _projection(chain)

        def original(node):
            return down(node)[0]

    witness = trace_counterexample(monitored, monitored.initial, phi_n, caps=caps)
    if witness is None:
        return CheckResult(True, None)
    stem, cycle = witness
    prefix = tuple(original(n) for n in stem + cycle)
    return CheckResult(False, prefix)
