"""Brute-force verification of the gold-and-mines closed form.

Everything here works from the game definition alone: strategies are
enumerated exhaustively, payoffs come from coverage counting, and equilibria
are found by comparing against every deviation.  None of the closed-form
expressions are consulted except as the prediction being tested, so a match
is genuine evidence.

Payoffs over all strategy pairs are held as one integer matrix (every value
is scaled by the common denominator of rho and mu) in the narrowest dtype
that holds them exactly, int16 for small denominators (32 MB at M = 3 rather
than 134 MB as int64), falling back to Python integers past int64.  Each
table checks a sample of its own entries against goldmines.payoff at build
time.  The "at most L segments" spaces are nested, so the table is a
two-player capability game whose levels are segment counts, and the generic
engine's one pass (``game.ne_cells``) maps every capability cell to its
equilibria; each cell is then a lookup into that map.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import goldmines
from .errors import OutOfRange, ScaleLimitExceeded
from .game import MAX_TABLE_BYTES, _payoff_dtype, ne_cells
from .goldmines import GameParams, Strategy
from .rationals import scaled, spell

_SELF_CHECK_PAIRS = 200


def table_bytes(scale: int) -> int:
    """Size of the int64 payoff table over every strategy pair at ``scale``."""
    return (2 ** (4 * scale)) ** 2 * 8


def _strategy_bits(scale: int) -> tuple[np.ndarray, np.ndarray]:
    """Every strategy at ``scale`` as a row of bits, in lexicographic order,
    and its segment count.  Refuses a board whose payoff table would not fit
    before anything is allocated: this is the one place that decides
    whether brute force can check a board."""
    if scale < 1:
        raise OutOfRange(f"scale must be at least 1, got {spell(scale)}")
    # table_bytes(scale) is 2**(8*scale + 3): comparing exponents refuses a
    # huge scale without building a huge integer
    if 8 * scale + 3 >= MAX_TABLE_BYTES.bit_length():
        # past M = 100 the estimate runs to hundreds of digits (and past
        # M = 1,790 to more than str() converts), so give it as a power;
        # a scale with more digits than that is named by its bits
        size = table_bytes(scale) if scale <= 100 else f"2**{spell(8 * scale + 3)}"
        raise ScaleLimitExceeded(
            f"scale {spell(scale)} needs a {size}-byte payoff table, "
            f"over the {MAX_TABLE_BYTES}-byte limit")
    sites = 4 * scale
    # row i holds the binary digits of i, most significant first
    bits = (np.arange(2**sites)[:, None] >> np.arange(sites - 1, -1, -1)) & 1
    segments = 1 + np.count_nonzero(bits[:, 1:] != bits[:, :-1], axis=1)
    return bits, segments


class PayoffTable:
    """Scaled-integer payoff matrix over every strategy at one (scale, rho, mu).

    ``ua[a, b]`` is player A's payoff times ``denominator`` when A plays
    strategy index a and B plays b; the game is symmetric, so B's payoff is
    the transposed entry.  Entries use the narrowest integer dtype that holds
    every payoff exactly, with Python integers beyond int64.
    """

    def __init__(self, scale: int, rho: Fraction, mu: Fraction):
        # checked before anything is allocated; the caps play no part in a payoff
        self._params = GameParams(scale, rho, mu, 1, 1)
        scale, rho, mu = self._params.scale, self._params.rho, self._params.mu
        bits, self.segments = _strategy_bits(scale)
        self.strategies: list[Strategy] = list(zip(*bits.T.tolist()))
        n, sites = bits.shape
        cover = bits == [goldmines.resource_line(i, scale) for i in range(sites)]
        gold = np.array([goldmines.resource_type(i, scale) == goldmines.GOLD
                         for i in range(sites)])
        n_gold = cover[:, gold].sum(axis=1)
        n_mine = cover[:, ~gold].sum(axis=1)

        # shared[a, b]: golds both strategies cover, at most 2*scale
        shared = np.zeros((n, n), dtype=np.uint8)
        for g in np.flatnonzero(gold):
            col = cover[:, g].astype(np.uint8)
            shared += col[:, None] & col

        (rho_scaled, mu_scaled), den = scaled((rho, mu))
        self.denominator = den
        # bounds every entry and every partial sum below
        bound = 2 * scale * (2 * den + abs(rho_scaled) + abs(mu_scaled))
        dtype = _payoff_dtype(bound)
        # ua[a, b] = what a earns alone, minus what each shared gold costs
        # it; the per-strategy sums are Python integers, exact at any width
        alone = n_gold.astype(object) * den + n_mine.astype(object) * mu_scaled
        self.ua = shared.astype(dtype)
        del shared
        self.ua *= rho_scaled - den
        self.ua += alone.astype(dtype)[:, None]
        self._self_check()

    def _self_check(self) -> None:
        """Compare a sample of table entries against the direct payoff rule."""
        n = len(self.strategies)
        rng = random.Random(0xC0FFEE ^ n)
        for _ in range(_SELF_CHECK_PAIRS):
            a, b = rng.randrange(n), rng.randrange(n)
            ua, ub = goldmines.payoff(self.strategies[a], self.strategies[b], self._params)
            if ua * self.denominator != int(self.ua[a, b]):
                raise AssertionError(
                    f"payoff table disagrees with direct evaluation at pair {a},{b}")
            if ub * self.denominator != int(self.ua[b, a]):
                raise AssertionError(
                    f"payoff table asymmetry at pair {a},{b}")

    def payoff_pair(self, a: int, b: int) -> tuple[Fraction, Fraction]:
        den = self.denominator
        return (
            Fraction(int(self.ua[a, b]), den),
            Fraction(int(self.ua[b, a]), den),
        )

    @cached_property
    def _cells(self) -> dict[tuple[int, int], list[tuple[int, int]]]:
        """``game.ne_cells`` over this table: the two players' levels are
        their strategies' segment counts.  Computed on first use."""
        return ne_cells((self.ua, self.ua.T), (self.segments, self.segments))

    def pure_equilibria(self, cap_a: int, cap_b: int) -> list[tuple[int, int]]:
        """Index pairs where neither player can improve inside their space,
        in lexicographic order."""
        # caps past the most segments clamp to it; caps below 1 have no cell
        top = int(self.segments.max())
        return list(self._cells.get((min(cap_a, top), min(cap_b, top)), ()))


# one table at a time: at M=3 each holds at least 32 MB
@lru_cache(maxsize=1)
def _table(scale: int, rho: Fraction, mu: Fraction) -> PayoffTable:
    return PayoffTable(scale, rho, mu)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking the closed-form payoff set against brute force."""

    params: GameParams
    predicted: frozenset[tuple[Fraction, Fraction]]
    observed: frozenset[tuple[Fraction, Fraction]]
    equilibria_found: int
    match: bool
    counterexamples: tuple[tuple[tuple[Strategy, Strategy], tuple[Fraction, Fraction]], ...]


def verify_closed_form(params: GameParams) -> VerificationReport:
    """Compare the closed-form payoff set with the exhaustively observed one."""
    goldmines.require_closed_form_regime(params.rho, params.mu)
    table = _table(params.scale, params.rho, params.mu)
    predicted = goldmines.equilibrium_payoffs(params)
    pairs = table.pure_equilibria(params.cap_a, params.cap_b)
    observed = set()
    counterexamples = []
    for a, b in pairs:
        value = table.payoff_pair(a, b)
        observed.add(value)
        if value not in predicted and len(counterexamples) < 10:
            counterexamples.append(
                ((table.strategies[a], table.strategies[b]), value))
    return VerificationReport(
        params=params,
        predicted=predicted,
        observed=frozenset(observed),
        equilibria_found=len(pairs),
        match=frozenset(observed) == predicted,
        counterexamples=tuple(counterexamples),
    )

