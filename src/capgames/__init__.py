"""Capability transfer functions of games with nested strategy spaces.

Two layers: a generic engine for pure/mixed Nash equilibria of
capability-restricted games (``game``, ``bimatrix``, ``gamefile``), and an
exact solver plus brute-force verifier for the two-player gold-and-mines
coverage game (``goldmines``, ``oracle``).
"""

from .bimatrix import (
    MixedCtf,
    MixedEquilibrium,
    ctf_mixed,
    restrict_to_bimatrix,
    support_enumeration,
)
from .game import (
    CapabilityGame,
    Positivity,
    ctf_pure,
    enumerate_pure_ne,
    equilibrium_welfare_levels,
    is_capability_positive,
    is_pure_ne,
)
from .gamefile import load_game, parse_game
from .goldmines import (
    CoverageSummary,
    GameParams,
    build_complement_cover,
    build_equilibrium,
    equilibrium_payoff_grid,
    equilibrium_payoffs,
    pad_segments,
    payoff,
    perfect_cover,
    staircase,
    summarize,
)
from .oracle import VerificationReport, verify_closed_form

__version__ = "0.1.0"

__all__ = [
    "CapabilityGame",
    "CoverageSummary",
    "GameParams",
    "MixedCtf",
    "MixedEquilibrium",
    "Positivity",
    "VerificationReport",
    "build_complement_cover",
    "build_equilibrium",
    "ctf_mixed",
    "ctf_pure",
    "enumerate_pure_ne",
    "equilibrium_payoff_grid",
    "equilibrium_payoffs",
    "equilibrium_welfare_levels",
    "is_capability_positive",
    "is_pure_ne",
    "load_game",
    "pad_segments",
    "parse_game",
    "payoff",
    "perfect_cover",
    "restrict_to_bimatrix",
    "staircase",
    "summarize",
    "support_enumeration",
    "verify_closed_form",
]
