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

from .arena import Arena, Strategy, outcome_arena, validate
from .errors import CapExceeded, EncodingError
from .formula import Formula, r_depth
from .graph import reachable
from .ltlgame import Caps, DEFAULT_CAPS, solve_ltl_game
from .marker import eliminate_r, trace_counterexample
from .powerset import LiftedRelation
from .transducer import Transducer, check_alphabet, restrict_to_plays

__all__ = [
    "FusInstance", "IterationStats", "SynthesisResult", "CheckResult",
    "synthesize_fully_uniform", "check_uniform", "pullback_strategy",
]


@dataclass(frozen=True)
class FusInstance:
    """One uniform-strategy problem: arena, play relation, formula, player.

    The stored transducer must relate pairs of plays only, as `make` makes
    it: `make` rejects a malformed arena with its first `arena.validate`
    diagnostic and a transducer symbol that is not a position, then
    restricts the relation to plays with `restrict_to_plays`.  Calling the
    constructor directly trusts the transducer as given.
    """

    arena: Arena
    transducer: Transducer
    phi: Formula
    protagonist: int = 1

    @classmethod
    def make(cls, arena, transducer, phi, protagonist=1):
        diagnostics = validate(arena)
        if diagnostics:
            raise EncodingError(diagnostics[0])
        check_alphabet(transducer, arena)
        return cls(arena, restrict_to_plays(transducer, arena), phi, protagonist)


@dataclass(frozen=True)
class IterationStats:
    arena_positions: int
    transducer_states: int
    rdepth: int


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
    next round explores, so nothing here counts its states.
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
    exponentials instead of timing it; the trace holds only these counts,
    so a result keeps no power arena alive.
    """
    rounds, chain = _eliminate_all(inst.arena, inst.transducer, inst.phi, caps)
    trace = [IterationStats(len(arena), len(relation), r_depth(phi))
             for arena, relation, phi in rounds]
    arena, _, phi = rounds[-1]
    strategy_hat = solve_ltl_game(arena, phi, inst.protagonist, caps=caps)
    if strategy_hat is None:
        return SynthesisResult("not_exists", None, trace)
    strategy = pullback_strategy(strategy_hat, chain)
    return SynthesisResult("exists", strategy, trace)


def pullback_strategy(product_strategy: Strategy, chain: list) -> Strategy:
    """Pull a strategy on the last arena of a power chain back to the first.

    Resulting memory elements stack the current position of every chain
    layer on top of the product strategy's own memory; updates thread each
    new original position up through the deterministic layer successors.
    An empty chain returns the strategy unchanged.
    """
    if not chain:
        return product_strategy
    arena = chain[0].source
    player = product_strategy.player
    m0 = tuple(p.pre_initial for p in chain) + (product_strategy.initial_memory,)

    def advance(mem, v):
        layers = []
        x = v
        for k, power in enumerate(chain):
            x = power.step(mem[k], x)
            layers.append(x)
        inner = product_strategy.advance(mem[-1], x)
        return tuple(layers) + (inner,)

    def project_down(p):
        x = p
        for _ in chain:
            x = x.v
        return x

    update, choice = {}, {}
    init_mem = advance(m0, arena.initial)
    update[(m0, arena.initial)] = init_mem
    seen = {(arena.initial, init_mem)}
    stack = [(arena.initial, init_mem)]
    while stack:
        v, mem = stack.pop()
        if arena.owner[v] == player:
            lifted_target = product_strategy.move(mem[-1], mem[-2])
            chosen = project_down(lifted_target)
            choice[(mem, v)] = chosen
            targets = [chosen]
        else:
            targets = arena.successors(v)
        for v2 in targets:
            mem2 = advance(mem, v2)
            update[(mem, v2)] = mem2
            if (v2, mem2) not in seen:
                seen.add((v2, mem2))
                stack.append((v2, mem2))
    return Strategy(player, m0, update, choice, name=product_strategy.name + "~pulled")


def _monitored_outcome(outcome: Arena, chain: list, final_arena: Arena,
                       caps: Caps) -> Arena:
    """Product of an outcome arena with the lifted-position tracking of a
    power chain, reachable from the initial pair and capped by
    `caps.product_nodes`; labels come from the (marked) final arena."""
    if not chain:
        return outcome

    def chain_step(g, v):
        layers = []
        x = g
        for _ in chain:
            layers.append(x)
            x = x.v
        layers.reverse()   # layer k holds the level-(k+1) position
        x = v
        for k, power in enumerate(chain):
            x = power.step(layers[k], x)
        return x

    def successors(node):
        o, g = node
        return [(o2, chain_step(g, o2[0])) for o2 in outcome.successors(o)]

    nodes, succ, _ = reachable([(outcome.initial, final_arena.initial)], successors,
                               caps.product_nodes, "monitored outcome nodes")
    return Arena(
        positions=nodes,
        owner={n: outcome.owner[n[0]] for n in nodes},
        edges=[(node, nodes[j]) for node, row in zip(nodes, succ) for j in row],
        initial=nodes[0],
        labels={n: final_arena.labels[n[1]] for n in nodes},
        name=f"{outcome.name}@{final_arena.name}",
    )


def check_uniform(inst: FusInstance, sigma: Strategy, mode: str,
                  caps: Caps = DEFAULT_CAPS) -> CheckResult:
    """Does the given finite-memory strategy satisfy the uniformity property?

    full mode: related plays range over all plays of the arena; strict
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
        outcome = outcome_arena(inst.arena, sigma)
        monitored = _monitored_outcome(outcome, chain, final_arena, caps)

        def original(node):
            if not chain:
                return node[0]
            return node[0][0]
    else:
        outcome = outcome_arena(inst.arena, sigma)
        relation = LiftedRelation(inst.transducer, outcome, itemgetter(0))
        if r_depth(inst.phi) > 0:   # only elimination reads the relation
            relation.drop_dead_states(caps.product_nodes, "strict relation states")
        rounds, chain = _eliminate_all(outcome, relation, inst.phi, caps)
        monitored, _, phi_n = rounds[-1]

        def original(node):
            x = node
            for _ in chain:
                x = x.v
            return x[0]

    witness = trace_counterexample(monitored, monitored.initial, phi_n, caps=caps)
    if witness is None:
        return CheckResult(True, None)
    stem, cycle = witness
    prefix = tuple(original(n) for n in stem + cycle)
    return CheckResult(False, prefix)
