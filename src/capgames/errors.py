"""Exception types shared across the package.

Everything derives from CapgamesError (itself a ValueError) so callers can
catch broadly or pick the specific condition they care about.
"""


class CapgamesError(ValueError):
    """Base class for all errors raised by this library."""


# --- capability-game validation ---

class EmptyGame(CapgamesError):
    """A game has no players or a player has no actions."""


class HierarchyViolation(CapgamesError):
    """Capability cutoffs are not strictly increasing up to the full action list."""


class IncompletePayoffs(CapgamesError):
    """The payoff table does not assign one vector per full strategy profile."""


class OutOfBounds(CapgamesError):
    """A capability level or action index lies outside its valid range."""


class UnequalBounds(CapgamesError):
    """Players do not share a common number of capability levels."""


# --- bimatrix equilibrium search ---

class DimensionMismatch(CapgamesError):
    """Vector or matrix sizes do not line up."""


class SizeLimitExceeded(CapgamesError):
    """A matrix side passes the support-enumeration bound
    ``DEFAULT_MAX_ACTIONS``."""


class NotTwoPlayer(CapgamesError):
    """A two-player operation was applied to a game with n != 2."""


# --- gold-and-mines engine ---

class OutOfRange(CapgamesError):
    """A location index or segment count is outside its valid range."""


class LengthMismatch(CapgamesError):
    """Strategy bit strings do not match each other or the board length."""


class NonConformingInput(CapgamesError):
    """A strategy has a flip at a non-canonical location where one is required."""


class PreconditionViolated(CapgamesError):
    """A named requirement of the segment-padding routine does not hold."""


class InvalidStartLine(CapgamesError):
    """The requested equilibrium class is inconsistent with the capability regime."""


class HypothesisViolation(CapgamesError):
    """Parameters fall outside the regime 0 < rho < -mu < 1 the closed form needs."""


# --- brute-force oracle ---

class ScaleLimitExceeded(CapgamesError):
    """The board scale is too large for exhaustive enumeration."""


class GameFormatError(CapgamesError):
    """A game description is malformed: a JSON file's structure, or a payoff
    or payoff parameter that is not an exact rational."""
