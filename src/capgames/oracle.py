"""Brute-force verification of the gold-and-mines closed form.

Everything here works from the game definition alone (every strategy is
counted, payoffs come from coverage counting, equilibria are checked against
every deviation), so a match with the closed form is genuine evidence.

A strategy meets its opponent only through the opponent's gold set, so the
strategies with one gold set G and mine count m pay alike against everything;
as mu < 0, such a class is strictly dominated wherever a class (G, m' < m) is
also open.  A DP over the sites finds each class and its level (the fewest
segments that reach it), and the payoff table is the game between the classes
undominated at their level: complete enumeration less strictly dominated
strategies, with payoff-equivalent ones merged.  The generic engine's one
pass (``game.ne_boxes``) finds each equilibrium's box of capability cells.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import goldmines
from .errors import SizeLimitExceeded
from .game import _payoff_dtype, cell, ne_boxes
from .goldmines import GameParams, Strategy
from .rationals import scaled, spell

_SELF_CHECK_PAIRS = 200

# the most bytes the class DP and the class table (at int64 width) may take
# together, checked before either is allocated: M = 5 fits, M = 6 does not
MAX_TABLE_BYTES = 1 << 30


def _classes(scale: int) -> tuple[np.ndarray, ...]:
    """Each undominated class's gold set (bit j for the j-th gold), mine
    count, level, representative (its lexicographically first strategy at
    its level, as bits, site 0 first) and ``mult[c]``, its strategies with at
    most c segments; in the representatives' order.  Refuses a board that
    might not fit before allocating: the one place that decides whether
    brute force can check a board."""
    sites, k = 4 * scale, 2 * scale
    # at most one class per gold set and mine count: the table then takes at
    # most 8 * bound**2 >= 2**(4M+3) bytes, so comparing exponents first
    # refuses a huge scale without building a huge integer
    bound = 4**scale * (k + 1) if 4 * scale + 3 < MAX_TABLE_BYTES.bit_length() else 0
    need = 8 * bound * (bound + 4 * (sites + 1))  # the table and the DP's two arrays
    if not bound or need > MAX_TABLE_BYTES:
        size = f"up to {need}" if bound else f"2**{spell(4 * scale + 3)} or more"
        raise SizeLimitExceeded(f"scale {spell(scale)} may need {size} bytes for its class "
                                f"table and DP, over the {MAX_TABLE_BYTES}-byte limit")
    # count[last bit, segments, gold set, mines] and the first strategy of
    # each, over the sites so far; no strategy codes as 1 << sites
    shape, none = (2, sites + 1, 4**scale, k + 1), 1 << sites
    count, first = np.zeros(shape, np.int64), np.full(shape, none, np.int64)
    count[:, 1, 0, 0], first[:, 1, 0, 0] = 1, (0, 1)
    golds = 0
    for i in range(sites):
        if i:  # extend by each bit; a changed bit starts a segment
            count = count + np.roll(count[::-1], 1, axis=1)
            first = np.minimum(first, np.roll(first[::-1], 1, axis=1)) * 2 + [[[[0]]], [[[1]]]]
            np.minimum(first, none, out=first)
        # the bit on site i's line covers it (the rolls wrap only empty entries in)
        v, gold = goldmines.resource_line(i, scale), goldmines.resource_type(i, scale)
        shift, axis = (1 << golds, 1) if gold == goldmines.GOLD else (1, 2)
        golds += gold == goldmines.GOLD
        count[v], first[v] = np.roll(count[v], shift, axis), np.roll(first[v], shift, axis)
    mult = count.sum(axis=0).cumsum(axis=0)  # [cap, gold set, mines]
    level = np.where(mult[-1] > 0, np.argmax(mult > 0, axis=0), sites + 1)
    # undominated: every class of its gold set with fewer mines needs more segments
    keep = mult[-1] > 0
    keep[:, 1:] &= level[:, 1:] < np.minimum.accumulate(level, axis=1)[:, :-1]
    sets, mines = np.nonzero(keep)
    reps = first[:, level[sets, mines], sets, mines].min(axis=0)
    order = np.argsort(reps)
    sets, mines = sets[order], mines[order]
    return sets, mines, level[sets, mines], reps[order], mult[:, sets, mines]


class PayoffTable:
    """Scaled-integer payoff matrix of the class game at one (scale, rho, mu).

    ``ua[a, b]`` is A's payoff times ``denominator`` when A plays class a and
    B class b (B's is the transposed entry); ``strategies[a]`` is class a's
    representative, ``segments[a]`` its level, ``mult[c, a]`` its strategies
    with at most c segments.  Entries take the narrowest dtype holding every
    payoff exactly; past int64 they share at most (2M+1)^3 Python integers.
    """

    def __init__(self, scale: int, rho: Fraction, mu: Fraction):
        # checked before anything is allocated; the caps play no part in a payoff
        self._params = GameParams(scale, rho, mu, 1, 1)
        scale, rho, mu = self._params.scale, self._params.rho, self._params.mu
        sets, mines, self.segments, reps, self.mult = _classes(scale)
        self.strategies: list[Strategy] = list(
            map(tuple, ((reps[:, None] >> np.arange(4 * scale - 1, -1, -1)) & 1).tolist()))
        (rho_scaled, mu_scaled), den = scaled((rho, mu))
        self.denominator = den
        bound = 2 * scale * (2 * den + abs(rho_scaled) + abs(mu_scaled))  # of every entry
        # value[g, m, s]: A's payoff for covering g golds and m mines, s of
        # the golds also covered by B; built in Python integers, so exact
        count = np.arange(2 * scale + 1).astype(object)
        value = (den * count[:, None, None] + mu_scaled * count[:, None]
                 + (rho_scaled - den) * count).astype(_payoff_dtype(bound))
        # 128 rows at a time, gather from value by the shared-gold counts
        # |G_a & G_b| <= 2M, read from a table of each gold set's popcount:
        # the block's int64 gold sets are the largest temporary, 5 MB at M = 5
        popcount = np.zeros(4**scale, np.uint8)
        for bit in range(2 * scale):
            popcount[1 << bit:2 << bit] = popcount[:1 << bit] + 1
        g, n = popcount[sets], len(sets)
        self.ua = np.empty((n, n), value.dtype)
        for r in (slice(lo, lo + 128) for lo in range(0, n, 128)):
            self.ua[r] = value[g[r, None], mines[r, None], popcount[sets[r, None] & sets]]
        self._self_check()

    def _self_check(self) -> None:
        """Check a sample of entries against the direct rule on representatives."""
        n = len(self.strategies)
        rng = random.Random(0xC0FFEE ^ n)
        for _ in range(_SELF_CHECK_PAIRS):
            a, b = rng.randrange(n), rng.randrange(n)
            ua, ub = goldmines.payoff(self.strategies[a], self.strategies[b], self._params)
            if ua * self.denominator != int(self.ua[a, b]):
                raise AssertionError(f"payoff table disagrees with the rule at pair {a},{b}")
            if ub * self.denominator != int(self.ua[b, a]):
                raise AssertionError(f"payoff table asymmetry at pair {a},{b}")

    def payoff_pair(self, a: int, b: int) -> tuple[Fraction, Fraction]:
        den = self.denominator
        return Fraction(int(self.ua[a, b]), den), Fraction(int(self.ua[b, a]), den)

    @cached_property
    def _boxes(self):
        """``game.ne_boxes`` over this table at the classes' levels, on first use."""
        return ne_boxes((self.ua, self.ua.T), (self.segments, self.segments))

    def _level(self, cap: int) -> int:
        """``cap`` clamped to the most segments; below 1, no class is open."""
        return min(cap, len(self.mult) - 1)

    def pure_equilibria(self, cap_a: int, cap_b: int) -> list[tuple[int, int]]:
        """Class index pairs where neither player can improve, in lexicographic order."""
        return cell(self._boxes, (self._level(cap_a), self._level(cap_b)))


# one table at a time: at M = 5 one holds 52 MB or more
@lru_cache(maxsize=1)
def _table(scale: int, rho: Fraction, mu: Fraction) -> PayoffTable:
    return PayoffTable(scale, rho, mu)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking the closed-form payoff set against brute force.
    ``equilibria_found`` counts strategy pairs; each counterexample is one
    class pair off the prediction, given by its representatives."""

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
    mult_a, mult_b = (table.mult[table._level(cap)] for cap in (params.cap_a, params.cap_b))
    observed, found, counterexamples = set(), 0, []
    for a, b in table.pure_equilibria(params.cap_a, params.cap_b):
        value = table.payoff_pair(a, b)
        observed.add(value)
        found += int(mult_a[a]) * int(mult_b[b])
        if value not in predicted and len(counterexamples) < 10:
            counterexamples.append(((table.strategies[a], table.strategies[b]), value))
    observed = frozenset(observed)
    return VerificationReport(params, predicted, observed, found, observed == predicted,
                              tuple(counterexamples))
