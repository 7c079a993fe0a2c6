"""Exact mixed Nash equilibria of two-player games by support enumeration.

Every candidate support pair of equal size induces square indifference
systems that are solved over the rationals, so the equilibria (and the
degeneracy verdicts) are exact.  Unequal-support equilibria only occur in
degenerate games, and there only basic solutions are reported, never whole
continua.  The degenerate flag covers a singular system or a zero support
weight only: a best reply outside the support that ties is not flagged, so
a continuum can go unmarked.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence, Set
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from .errors import DimensionMismatch, GameFormatError, NotTwoPlayer, SizeLimitExceeded
from .game import CapabilityGame, restricted_sizes
from .rationals import as_fraction, scaled

DEFAULT_MAX_ACTIONS = 8

Matrix = tuple[tuple[Fraction, ...], ...]
# a string row would split into characters, and a set or a mapping has no columns
_NOT_ROWS = (str, bytes, Set, Mapping)


@dataclass(frozen=True)
class Bimatrix:
    """Payoff matrices of a two-player game; rows belong to player 1.  Building
    one is the one check of a matrix pair, ``from_matrices``'s too: a bad shape
    raises ``DimensionMismatch``, an entry ``as_fraction`` refuses ``GameFormatError``."""

    a: Matrix
    b: Matrix

    def __post_init__(self):
        try:
            a, b = (list(m) for m in (self.a, self.b))
            ragged = any(isinstance(r, _NOT_ROWS) or len(r) != len(a[0]) for r in a + b)
        except (TypeError, IndexError):  # a matrix or a row that is no sequence, or no row
            ragged = True
        if ragged or not a or len(b) != len(a) or len(a[0]) == 0:
            raise DimensionMismatch("payoff matrices need one nonempty rectangular shape")
        for name, m in zip("ab", (a, b)):
            try:
                object.__setattr__(self, name, tuple(tuple(map(as_fraction, r)) for r in m))
            except (TypeError, ValueError) as bad:
                raise GameFormatError(f"payoff matrix {name}: {bad}") from None

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.a), len(self.a[0])


@dataclass(frozen=True)
class MixedEquilibrium:
    """One equilibrium point: mixing vectors, payoffs, and a degeneracy marker.

    ``degenerate`` is set when an indifference system was singular or a
    support probability came out exactly zero — both signs that the point may
    sit on a continuum of equilibria.
    """

    x: tuple[Fraction, ...]
    y: tuple[Fraction, ...]
    values: tuple[Fraction, Fraction]
    degenerate: bool


def _solve(rows: list[list[int]], nvars: int):
    """Gauss-Jordan over the integers on an augmented matrix.

    Rows are combined fraction-free (each step scales the target row by the
    pivot and divides out the row's gcd), so the pivot columns, and with
    them the reduced row echelon form, are those of elimination over the
    rationals; only the solution is built from Fractions.  Returns
    (solution, status) where status is "unique", "degenerate" (consistent
    but underdetermined; free variables pinned to zero) or "inconsistent"
    (solution is None).
    """
    work = [row[:] for row in rows]
    n = len(work)
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(nvars):
        pivot = next((i for i in range(r, n) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        top = work[r]
        p = top[c]
        for i in range(n):
            f = work[i][c]
            if i != r and f != 0:
                row = [p * v - f * w for v, w in zip(work[i], top)]
                g = gcd(*row)
                work[i] = [v // g for v in row] if g > 1 else row
        pivots.append((r, c))
        r += 1
        if r == n:
            break
    for i in range(r, n):
        if work[i][nvars] != 0:
            return None, "inconsistent"
    solution = [Fraction(0)] * nvars
    for row, col in pivots:
        solution[col] = Fraction(work[row][nvars], work[row][col])
    return solution, ("unique" if len(pivots) == nvars else "degenerate")


def _reply(lines, own: tuple[int, ...], other: tuple[int, ...]):
    """The mix over ``other`` that makes every line in ``own`` pay the same,
    as ``(weights, value, degenerate)``; None if it is no probability vector
    or some line pays more than ``value`` against it.

    ``lines`` holds ``rationals.scaled`` of each row of A (solving for y,
    ``own`` = support rows) or of each column of B (solving for x, ``own`` =
    support columns).  Scaling an equation leaves its solutions alone, so
    each line's scale multiplies its -1 on the value variable, and the reply
    check runs in integers.  ``degenerate``: a singular system or a 0 weight.
    """
    r = len(other)
    system = [[lines[i][0][j] for j in other] + [-lines[i][1], 0] for i in own]
    system.append([1] * r + [0, 1])
    solution, status = _solve(system, r + 1)
    if status == "inconsistent" or any(w < 0 for w in solution[:r]):
        return None
    *weights, value = solution
    (target, *mix), _ = scaled([value, *weights])
    if any(sum(line[j] * w for j, w in zip(other, mix)) > scale * target
           for line, scale in lines):
        return None
    return weights, value, status == "degenerate" or 0 in weights


def _embed(weights: list[Fraction], support: tuple[int, ...], size: int) -> tuple[Fraction, ...]:
    full = [Fraction(0)] * size
    for w, idx in zip(weights, support):
        full[idx] = w
    return tuple(full)


def support_enumeration(game: Bimatrix) -> list[MixedEquilibrium]:
    """All equilibria on equal-size supports, in support-bitmask order.

    Complete for nondegenerate games.  For degenerate ones every emitted
    point is still exact and verified, and unequal-support continua are
    represented only through their basic points.  The degenerate flag marks
    a singular indifference system or a zero support weight, not a tie with
    a best reply outside the support.
    """
    m, k = game.shape
    if m > DEFAULT_MAX_ACTIONS or k > DEFAULT_MAX_ACTIONS:
        raise SizeLimitExceeded(f"{m}x{k} exceeds the {DEFAULT_MAX_ACTIONS}-action bound")
    a_rows = [scaled(row) for row in game.a]
    b_cols = [scaled(col) for col in zip(*game.b)]
    found: dict[tuple, MixedEquilibrium] = {}
    for size in range(1, min(m, k) + 1):
        for rows in combinations(range(m), size):
            for cols in combinations(range(k), size):
                # the indifference equations make x'Ay = u and x'By = v, so
                # the two reply checks together are the equilibrium test; y
                # comes first, so x is solved for fewer pairs
                y_reply = _reply(a_rows, rows, cols)
                x_reply = _reply(b_cols, cols, rows) if y_reply else None
                if x_reply is None:
                    continue
                (ys, u, y_degenerate), (xs, v, x_degenerate) = y_reply, x_reply
                x, y = _embed(xs, rows, m), _embed(ys, cols, k)
                # supports grow, so a point met again has a zero weight, which _reply flags
                found[x, y] = MixedEquilibrium(x, y, (u, v), x_degenerate or y_degenerate)
    return list(found.values())


@dataclass(frozen=True)
class MixedCtf:
    """Payoff set of the mixed transfer function at one capability profile."""

    payoffs: frozenset[tuple[Fraction, Fraction]]
    degenerate: bool


def restrict_to_bimatrix(game: CapabilityGame, capability: Sequence[int]) -> Bimatrix:
    """Restricted payoff matrices of a two-player capability game."""
    if game.n_players != 2:
        raise NotTwoPlayer(f"mixed analysis needs 2 players, got {game.n_players}")
    ra, rb = restricted_sizes(game, capability)
    a = tuple(tuple(game.payoffs[i, j][0] for j in range(rb)) for i in range(ra))
    b = tuple(tuple(game.payoffs[i, j][1] for j in range(rb)) for i in range(ra))
    return Bimatrix(a, b)


def ctf_mixed(game: CapabilityGame, capability: Sequence[int]) -> MixedCtf:
    """Mixed capability transfer function of a two-player game at one profile."""
    restricted = restrict_to_bimatrix(game, capability)
    equilibria = support_enumeration(restricted)
    return MixedCtf(
        frozenset(e.values for e in equilibria),
        any(e.degenerate for e in equilibria),
    )
