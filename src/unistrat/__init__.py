"""Uniform strategies over regular play relations: synthesis and checking.

The package decides whether a player of a finite turn-based game has a
strategy all of whose outcomes satisfy a temporal property that may
quantify over related plays (the R modality), where relatedness is given
by a finite state transducer.  It also checks strict/full uniformity of
explicitly given finite-memory strategies and ships encoders for games
with imperfect information, opacity, non-interference, diagnosability,
prognosability, and dependence-logic evaluation games.
"""

from .arena import Arena, Strategy, enumerate_plays, outcome_arena, validate
from .errors import (CapExceeded, EncodingError, FormulaParseError,
                     InputFormatError, NameCollisionError,
                     PartialStrategyError, StrictSynthesisUnsupported,
                     UnistratError)
from .formula import Formula, depth1_r_subformulas, format_formula, parse, r_depth, substitute
from .ltlgame import Caps, solve_ltl_game
from .marker import eliminate_r, position_models_ltl
from .powerset import build_power_arena, lift_transducer, power_step
from .synthesizer import (CheckResult, FusInstance, SynthesisResult,
                          check_uniform, pullback_strategy,
                          synthesize_fully_uniform)
from .transducer import (Transducer, build_morphism_equivalence,
                         build_observation_equivalence, compose, recognizes,
                         restrict_to_plays, trim)

__version__ = "0.1.0"
