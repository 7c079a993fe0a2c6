"""Exception types shared across the package: one per kind of failure.

Everything derives from CapgamesError (itself a ValueError).  The CLI exits
2 on HypothesisViolation and 1 on every other class.
"""


class CapgamesError(ValueError):
    """Base class for all errors raised by this library."""


class GameFormatError(CapgamesError):
    """Malformed input: a game file or description (no players, an empty
    action list, an action list or cutoff chain that is no sequence, cutoffs
    that are no integers, do not strictly increase or do not end at the full
    action list, a payoff table without exactly one vector of the right
    length per profile), payoff matrices that are no shared nonempty
    rectangle, strategy bits of the wrong length or not 0/1, and a payoff or
    payoff parameter that is not an exact rational."""


class OutOfRange(CapgamesError):
    """A number outside its range, or no integer where one is needed: a
    player, capability, action, site, segment count, start bit or line,
    window or scale, and a value too large to render."""


class SizeLimitExceeded(CapgamesError):
    """A valid request past a fixed limit: a support-enumeration cell past
    ``bimatrix.DEFAULT_MAX_ACTIONS``, a board or capability grid past
    ``goldmines.MAX_CELLS``, and a scale whose brute-force table would pass
    ``oracle.MAX_TABLE_BYTES``."""


class PreconditionViolated(CapgamesError):
    """An operation that does not apply to its input: mixed analysis of a
    game without two players, welfare levels of players with unequal level
    counts, a complement cover of an unaligned strategy, a ``pad_segments``
    requirement, and an equilibrium class that does not exist at the given
    capabilities."""


class HypothesisViolation(CapgamesError):
    """Parameters fall outside the regime 0 < rho < -mu < 1 the closed form needs."""
