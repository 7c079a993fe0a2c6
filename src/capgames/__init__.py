"""Capability transfer functions of games with nested strategy spaces.

Two layers: a generic engine for pure/mixed Nash equilibria of
capability-restricted games (``game``, ``bimatrix``, ``gamefile``), and an
exact solver plus brute-force verifier for the two-player gold-and-mines
coverage game (``goldmines``, ``oracle``).

Each public name is imported from its module on first access (PEP 562), so
``import capgames`` loads no submodule and no numpy until a name is used.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(["MixedCtf", "MixedEquilibrium", "ctf_mixed",
                     "restrict_to_bimatrix", "support_enumeration"], "bimatrix"),
    **dict.fromkeys(["CapabilityGame", "Positivity", "ctf_pure", "enumerate_pure_ne",
                     "equilibrium_welfare_levels", "is_capability_positive",
                     "is_pure_ne"], "game"),
    **dict.fromkeys(["load_game", "parse_game"], "gamefile"),
    **dict.fromkeys(["CoverageSummary", "GameParams", "build_complement_cover",
                     "build_equilibrium", "equilibrium_payoff_grid",
                     "equilibrium_payoffs", "pad_segments", "payoff", "perfect_cover",
                     "staircase", "summarize"], "goldmines"),
    **dict.fromkeys(["VerificationReport", "verify_closed_form"], "oracle"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
