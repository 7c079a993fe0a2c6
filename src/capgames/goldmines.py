"""Two-player gold-and-mines coverage game with exact closed-form equilibria.

The board has ``4*scale`` resource sites indexed left to right.  Site i sits
on line ``(i+1) % 2`` — so lines alternate 1,0,1,0,... — and is gold when
``i % 4`` is 0 or 1, a mine otherwise.  A strategy is a bit per site saying
which line the player occupies there; the player covers site i exactly when
it stands on the site's line.  Gold covered alone pays 1, gold covered by
both pays ``rho`` to each, and every covered mine costs ``mu`` (negative) to
each player covering it.  That site rule is stated once, in ``resource_line``,
``resource_type`` and ``covers``; ``summarize``, ``payoff`` and the oracle's
payoff table read it from them.

A strategy's cost is its number of maximal constant runs ("segments"); each
player may only use strategies with at most their capability's worth of
segments.  Under ``0 < rho < -mu < 1`` the pure equilibria of the
capability-restricted game have payoffs given by a closed form, implemented
here next to the constructions that realize them.

The closed form is one integer pass: with rho and mu over their common
denominator, each class payoff is an integer term in one capability plus one
in the other, built from the golds and mines that ``aligned_coverage_counts``
says an aligned strategy covers; ``_start_lines`` says which classes exist,
for the closed form and for ``build_equilibrium`` alike.
``equilibrium_payoff_grid`` checks its parameters once, computes each row's
and each column's terms once, and builds one Fraction per distinct
numerator; ``equilibrium_payoffs`` is its one-cell case.

``build_equilibrium`` has two regimes: staircases for both players when
either can afford 2*scale segments, else the lower player's staircase and the
other's complement cover, padded by copying the perfect cover block by block.
Each starts with a ``staircase``, which checks the board with
``require_board`` before building anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    CapgamesError,
    GameFormatError,
    HypothesisViolation,
    OutOfRange,
    PreconditionViolated,
    SizeLimitExceeded,
)
from .rationals import as_fraction, as_integer, scaled, spell

Strategy = tuple[int, ...]

GOLD = "gold"
MINE = "mine"

# most cells one capability grid, and most sites one board, may hold;
# larger requests are refused before anything is built
MAX_CELLS = 1 << 20


@dataclass(frozen=True)
class GameParams:
    """Board scale, payoff parameters, and the two capabilities.

    rho: payoff each player gets from a gold site both cover (0 < rho < 1).
    mu:  penalty per covered mine (mu < 0).

    The scale and capabilities must be integers (numpy integers included)
    and raise ``OutOfRange`` otherwise; rho and mu must be exact rationals
    and raise ``GameFormatError`` otherwise, floats included.
    """

    scale: int
    rho: Fraction
    mu: Fraction
    cap_a: int
    cap_b: int

    def __post_init__(self):
        for name in ("scale", "cap_a", "cap_b"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        for name in ("rho", "mu"):
            try:
                object.__setattr__(self, name, as_fraction(getattr(self, name)))
            except (TypeError, ValueError) as bad:
                raise GameFormatError(f"{name}: {bad}") from None
        if self.scale < 1:
            raise OutOfRange(f"scale must be at least 1, got {spell(self.scale)}")
        if not 0 < self.rho < 1:
            raise HypothesisViolation(f"need 0 < rho < 1, got rho = {spell(self.rho)}")
        if self.mu >= 0:
            raise HypothesisViolation(f"need mu < 0, got mu = {spell(self.mu)}")
        if self.cap_a < 1 or self.cap_b < 1:
            raise OutOfRange(f"capabilities must be at least 1, "
                             f"got {spell(self.cap_a)}, {spell(self.cap_b)}")

    @property
    def sites(self) -> int:
        return 4 * self.scale


def require_closed_form_regime(rho: Fraction, mu: Fraction) -> None:
    """The closed form needs 0 < rho < -mu < 1; raise otherwise."""
    if not (0 < rho < -mu < 1):
        raise HypothesisViolation(
            f"closed form needs 0 < rho < -mu < 1; got rho = {spell(rho)}, mu = {spell(mu)}")


def _integer(name: str, value, error: type[CapgamesError] = OutOfRange) -> int:
    """``value`` through ``as_integer`` (numpy integers yes, booleans and
    floats no); anything else raises ``error`` naming the argument."""
    try:
        return as_integer(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {spell(value, repr)}") from None


# --- board geometry ---

def require_board(scale: int) -> int:
    """The scale as an int; ``OutOfRange`` for a non-integer or a board below
    scale 1, ``SizeLimitExceeded`` for one of more than ``MAX_CELLS`` sites."""
    scale = _integer("board scale", scale)
    if scale < 1:
        raise OutOfRange(f"board scale must be a positive integer: {spell(scale)}")
    if 4 * scale > MAX_CELLS:
        raise SizeLimitExceeded(f"a board at M = {spell(scale)} has 4*M sites, "
                                f"over the {MAX_CELLS}-site limit")
    return scale


def _site(i: int, scale: int) -> int:
    if type(i) is not int or type(scale) is not int:  # summaries check every site
        i, scale = _integer("site", i), _integer("board scale", scale)
    if not 0 <= i < 4 * scale:
        raise OutOfRange(f"site {spell(i)} outside 0..{spell(4 * scale - 1)}")
    return i


def resource_line(i: int, scale: int) -> int:
    """Line (0 or 1) that site i sits on."""
    return (_site(i, scale) + 1) % 2


def resource_type(i: int, scale: int) -> str:
    """GOLD for i % 4 in {0, 1}, MINE otherwise."""
    return GOLD if _site(i, scale) % 4 <= 1 else MINE


def covers(f: Strategy, i: int) -> bool:
    """Whether the strategy stands on site i's line there."""
    return f[i] == resource_line(i, len(f) // 4)


# --- strategies ---

def _check_strategy(f: Sequence[int]) -> int:
    """Return the scale of a well-formed bit sequence."""
    if len(f) == 0 or len(f) % 4 != 0:
        raise GameFormatError(f"strategy length {len(f)} is not a positive multiple of 4")
    if any(b not in (0, 1) for b in f):
        raise GameFormatError("strategy entries must be bits")
    return len(f) // 4


def segment_count(f: Sequence[int]) -> int:
    """Number of maximal constant runs."""
    return 1 + sum(1 for a, b in zip(f, f[1:]) if a != b)


def format_strategy(f: Sequence[int]) -> str:
    return "".join(str(b) for b in f)


@dataclass(frozen=True)
class CoverageSummary:
    """What a single strategy covers, and its number of segments."""

    gold_sites: frozenset[int]
    mine_sites: frozenset[int]
    n_gold: int
    n_mine: int
    segments: int


def summarize(f: Sequence[int]) -> CoverageSummary:
    scale = _check_strategy(f)
    covered = frozenset(i for i in range(len(f)) if covers(f, i))
    gold = frozenset(i for i in covered if resource_type(i, scale) == GOLD)
    mine = covered - gold
    return CoverageSummary(gold, mine, len(gold), len(mine), segment_count(f))


def payoff(fa: Sequence[int], fb: Sequence[int], params: GameParams) -> tuple[Fraction, Fraction]:
    """Exact payoffs of a strategy pair under the given parameters."""
    n = params.sites
    if len(fa) != n or len(fb) != n:
        raise GameFormatError(
            f"strategies of length {len(fa)}, {len(fb)} on a board of {n} sites")
    sa, sb = summarize(fa), summarize(fb)
    # a gold both players cover pays each of them rho instead of 1
    shared = len(sa.gold_sites & sb.gold_sites)
    ua = sa.n_gold - shared * (1 - params.rho) + sa.n_mine * params.mu
    ub = sb.n_gold - shared * (1 - params.rho) + sb.n_mine * params.mu
    return ua, ub


# --- structure of best responses ---

def is_aligned(f: Sequence[int]) -> bool:
    """True when every upward flip sits between a block's two mines
    (i % 4 == 2) and every downward flip between its two golds (i % 4 == 0).

    Best responses always have this shape: flipping anywhere else either
    drops a gold or picks up a mine for free.
    """
    _check_strategy(f)
    for i in range(len(f) - 1):
        if f[i] == 0 and f[i + 1] == 1 and i % 4 != 2:
            return False
        if f[i] == 1 and f[i + 1] == 0 and i % 4 != 0:
            return False
    return True


def aligned_coverage_counts(segments: int, start: int, scale: int) -> tuple[int, int]:
    """(golds covered, mines covered) of any aligned strategy, from its shape alone.

    ``start`` is the strategy's bit at site 0.  Valid for integers (numpy
    integers included) with 1 <= segments <= 2*scale + 1.
    """
    segments, start = _integer("segments", segments), _integer("start bit", start)
    scale = _integer("scale", scale)
    if start not in (0, 1):
        raise OutOfRange(f"start bit must be 0 or 1, got {spell(start)}")
    if not 1 <= segments <= 2 * scale + 1:
        raise OutOfRange(
            f"segments {spell(segments)} outside 1..{spell(2 * scale + 1)} "
            f"at scale {spell(scale)}")
    n_gold = scale + (segments + start - 1) // 2
    n_mine = scale - (segments - start) // 2
    return n_gold, n_mine


def is_perfect_cover(f: Sequence[int], lo: int, hi: int) -> bool:
    """Covers every gold and no mine among sites lo..hi (inclusive)."""
    scale = _check_strategy(f)
    lo, hi = _integer("lo", lo), _integer("hi", hi)
    if not 0 <= lo <= hi < 4 * scale:
        raise OutOfRange(
            f"window {spell(lo)}..{spell(hi)} outside 0..{4 * scale - 1}")
    return all(covers(f, i) == (resource_type(i, scale) == GOLD)
               for i in range(lo, hi + 1))


def staircase(scale: int, segments: int, start: int) -> Strategy:
    """Canonical aligned strategy with exactly ``segments`` runs, flipping as
    early as possible from the given start bit.

    With start = 1 this walks the unique full perfect cover from the left;
    with start = 0 it perfectly covers everything right of site 0 once the
    budget allows.  Needs a board ``require_board`` admits and
    segments <= 2*scale + start.
    """
    scale = require_board(scale)
    segments, start = _integer("segments", segments), _integer("start bit", start)
    if start not in (0, 1):
        raise OutOfRange(f"start bit must be 0 or 1, got {spell(start)}")
    limit = 2 * scale + 1 if start == 1 else 2 * scale
    if not 1 <= segments <= limit:
        raise OutOfRange(f"segments {spell(segments)} outside 1..{limit} "
                         f"for start {start} at scale {scale}")
    # the flips follow sites first, first + 2, ...; site i is past
    # (i - first + 1) // 2 of them, up to all segments - 1
    first = 0 if start == 1 else 2
    return tuple(start ^ (min(max(i - first + 1, 0) // 2, segments - 1) & 1)
                 for i in range(4 * scale))


def perfect_cover(scale: int) -> Strategy:
    """The unique strategy covering every gold and no mine; costs 2*scale + 1 runs."""
    return staircase(scale, 2 * scale + 1, 1)


def build_complement_cover(fb: Sequence[int]) -> Strategy:
    """Aligned response whose gold coverage completes fb's to the whole board.

    Block by block the response takes the opposite line at the block's edges
    (sites 4k and 4k+3); when the edges disagree the single flip in between
    goes at the canonical spot: down at 4k, or up at 4k+2.  The result never
    uses more segments than fb.
    """
    scale = _check_strategy(fb)
    if not is_aligned(fb):
        raise PreconditionViolated("complement construction needs an aligned strategy")
    bits: list[int] = []
    for k in range(scale):
        left, right = 1 - fb[4 * k], 1 - fb[4 * k + 3]
        bits += [left, left & right, left & right, right]
    return tuple(bits)


def pad_segments(f_prime: Sequence[int], target: int, scale: int) -> Strategy:
    """Grow an aligned strategy to exactly ``target`` segments without losing
    any covered gold or moving its start bit.

    While two or more segments are missing, step k copies the perfect cover's
    0, 0, 1, 1 over sites 4k+1..4k+4: an aligned strategy flips down only at
    4k|4k+1 and up only at 4k+2|4k+3, so one copy serves whatever block k held.
    A last missing segment lifts the final site or ends the board 1, 1, 0, 0, 0.
    Steps recount only the runs they change, so this is linear.  Needs, each
    reported by name: integer target and scale, scale >= 2, 1 <= target <=
    2*scale - 1, an aligned input within budget, and an imperfect last block.
    """
    target = _integer("target segments", target, PreconditionViolated)
    scale = _integer("scale", scale, PreconditionViolated)
    if scale < 2:
        raise PreconditionViolated("padding needs scale >= 2")
    if not 1 <= target <= 2 * scale - 1:
        raise PreconditionViolated(f"target segments {spell(target)} "
                                   f"outside 1..{spell(2 * scale - 1)}")
    if len(f_prime) != 4 * scale:
        raise PreconditionViolated(
            f"strategy length {len(f_prime)} does not match scale {spell(scale)}")
    if not is_aligned(f_prime):
        raise PreconditionViolated("input strategy must be aligned")
    count = segment_count(f_prime)
    if count > target:
        raise PreconditionViolated(
            f"input already has {count} segments, over target {target}")
    n = 4 * scale
    if is_perfect_cover(f_prime, n - 4, n - 1):
        raise PreconditionViolated("last four sites must be imperfectly covered")

    f, perfect = list(f_prime), perfect_cover(scale)
    missing = target - count
    k = 0
    while missing >= 2:
        # the step rewrites sites 4k+1..4k+4; recount the runs they touch
        window = slice(max(4 * k - 1, 0), 4 * k + 6)
        missing += segment_count(f[window])
        f[4 * k + 1:4 * k + 5] = perfect[4 * k + 1:4 * k + 5]
        missing -= segment_count(f[window])
        k += 1
    if missing == 1:
        if f[n - 1] == 0:
            f[n - 1] = 1
        else:
            f[n - 5:] = [1, 1, 0, 0, 0]
    return tuple(f)


# --- equilibrium constructions and the closed form ---

def build_equilibrium(params: GameParams, start_a: int) -> tuple[Strategy, Strategy]:
    """One pure equilibrium of the requested class.

    ``start_a`` selects the class by fixing player A's bit at site 0; B
    starts on the other line.  A player who can afford the perfect cover
    (2*scale + 1 segments) plays it, which forces a restricted opponent onto
    line 0.  When either capability reaches 2*scale both players play
    staircases; otherwise the lower-capability player's staircase meets the
    other's complement cover, padded to exactly its capability.
    """
    require_closed_form_regime(params.rho, params.mu)
    start_a = _integer("start line", start_a)
    if start_a not in (0, 1):
        raise OutOfRange(f"start line must be 0 or 1, got {spell(start_a)}")
    scale, ca, cb = params.scale, params.cap_a, params.cap_b
    full = 2 * scale + 1
    if start_a not in _start_lines(ca, cb, 2 * scale):
        restricted = "A" if cb >= full else "B"
        raise PreconditionViolated(
            f"only the class with player {restricted} starting on line 0 exists here")
    if max(ca, cb) >= 2 * scale:
        return tuple(staircase(scale, min(c, full), 1 if c >= full else t)
                     for c, t in ((ca, start_a), (cb, 1 - start_a)))
    a_low = ca < cb
    low, high, t = (ca, cb, start_a) if a_low else (cb, ca, 1 - start_a)
    f = staircase(scale, low, t)
    # the complement covers every gold f misses, with at most high segments
    comp = build_complement_cover(f)
    g = comp if segment_count(comp) == high else pad_segments(comp, high, scale)
    return (f, g) if a_low else (g, f)


def _start_lines(cap_a: int, cap_b: int, top: int) -> tuple[int, ...]:
    if (cap_a <= top) == (cap_b <= top):
        # both restricted: two classes; both unrestricted: one equilibrium,
        # same payoffs either way
        return (0, 1)
    return (0,) if cap_a <= top else (1,)  # the restricted player starts on 0


def equilibrium_payoffs(params: GameParams) -> frozenset[tuple[Fraction, Fraction]]:
    """Closed-form payoff set over all pure equilibria of the game.

    Capabilities act only through min(cap, 2*scale + 1).  Generically two
    payoff vectors when both players are restricted (one per class), one
    otherwise.  This is the one-cell case of ``equilibrium_payoff_grid``.
    """
    return _payoff_sets(params, (params.cap_a,), (params.cap_b,))[0]


def equilibrium_payoff_grid(
    scale: int, rho: Fraction, mu: Fraction, ca_max: int, cb_max: int
) -> list[frozenset[tuple[Fraction, Fraction]]]:
    """``equilibrium_payoffs`` of every capability pair (ca, cb) with
    1 <= ca <= ca_max and 1 <= cb <= cb_max, in row-major order.

    The parameters, the regime and the two maxima are checked once for the
    whole grid, as one ``GameParams`` with the maxima as its capabilities.
    A grid of more than ``MAX_CELLS`` cells raises ``SizeLimitExceeded``.
    """
    params = GameParams(scale, rho, mu, ca_max, cb_max)
    if params.cap_a * params.cap_b > MAX_CELLS:
        raise SizeLimitExceeded(f"a {spell(params.cap_a)} x {spell(params.cap_b)} "
                                f"capability grid is over the {MAX_CELLS}-cell limit")
    return _payoff_sets(params, range(1, params.cap_a + 1), range(1, params.cap_b + 1))


def _payoff_sets(
    params: GameParams, caps_a: Sequence[int], caps_b: Sequence[int]
) -> list[frozenset[tuple[Fraction, Fraction]]]:
    """Closed-form payoff sets of the cells (ca, cb), ca in ``caps_a`` and cb
    in ``caps_b``, in row-major order, from one integer pass.

    With rho and mu over their common denominator, each player's payoff in
    an equilibrium class is an integer numerator: a term in its own
    capability and start line, plus a term in the opponent's.  Both are
    computed once per row and once per column, and each distinct numerator
    becomes one Fraction.
    """
    require_closed_form_regime(params.rho, params.mu)
    scale = params.scale
    (rho, mu), den = scaled((params.rho, params.mu))

    def terms(cap: int, start: int) -> tuple[int, int]:
        # the two players cover every gold between them, so each gold a
        # player covers past ``scale`` is one the opponent covers too: it
        # pays both of them rho instead of 1
        golds, mines = aligned_coverage_counts(min(cap, 2 * scale + 1), start, scale)
        shared = golds - scale
        return golds * den + shared * (rho - den) + mines * mu, shared * (rho - den)

    rows = [(ca, [terms(ca, t) for t in (0, 1)]) for ca in caps_a]
    cols = [(cb, [terms(cb, 1 - t) for t in (0, 1)]) for cb in caps_b]
    top = 2 * scale
    cells = [[(a[t][0] + b[t][1], b[t][0] + a[t][1]) for t in _start_lines(ca, cb, top)]
             for ca, a in rows for cb, b in cols]
    numerators = {n for cell in cells for pair in cell for n in pair}
    exact = {n: Fraction(n, den) for n in numerators}
    return [frozenset([(exact[ua], exact[ub]) for ua, ub in cell]) for cell in cells]
