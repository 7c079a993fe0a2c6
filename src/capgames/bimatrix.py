"""Exact mixed Nash equilibria of two-player capability games by support
enumeration; a bimatrix game is the one-level game of ``from_matrices``.

Every candidate support pair of equal size induces square indifference systems
over the game's integer form, the one the pure engine reads, so the equilibria
(and the degeneracy verdicts) are exact; pairs with a conditionally dominated
line (Porter, Nudelman & Shoham 2008) fail at every cell and go unsolved.
Unequal-support equilibria only occur in degenerate games, and there only basic
solutions are reported, never whole continua.  The first ``ctf_mixed`` or
``support_enumeration`` call on a game solves each support pair once and keeps
its box; every call reads its cell from the boxes.  The degenerate flag covers
a singular system or a zero support weight only: a best reply outside the
support that ties is not flagged, so a continuum can go unmarked.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from .errors import PreconditionViolated, SizeLimitExceeded
from .game import Boxes, CapabilityGame, _checked, cell

DEFAULT_MAX_ACTIONS = 8


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
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) on an integer
    augmented matrix: each row but the pivot row becomes ``(p * row - f * top)
    // prev``, an exact division, so every entry stays a minor of the input.
    The pivot is the column's first nonzero entry, so the pivot columns and the
    solution are those of elimination over the rationals.  Returns (numerators,
    den, status): the solution is ``numerators / den`` with ``den`` > 0, the
    last pivot up to sign; status is "unique", "degenerate" (consistent but
    underdetermined; free variables pinned to zero) or "inconsistent"
    (numerators is None).
    """
    work = [row[:] for row in rows]
    n = len(work)
    pivots: list[tuple[int, int]] = []
    prev = 1
    for c in range(nvars):
        r = len(pivots)
        pivot = next((i for i in range(r, n) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        top = work[r]
        p = top[c]
        for i in range(n):
            f = work[i][c]
            # with f == 0 the update only rescales the row by p / prev
            if i != r and (f != 0 or p != prev):
                work[i] = [(p * v - f * w) // prev for v, w in zip(work[i], top)]
        pivots.append((r, c))
        prev = p
        if r + 1 == n:
            break
    if any(row[nvars] != 0 for row in work[len(pivots):]):
        return None, 0, "inconsistent"
    sign = -1 if prev < 0 else 1
    numerators = [0] * nvars
    for row, col in pivots:
        numerators[col] = sign * work[row][nvars]
    return numerators, sign * prev, ("unique" if len(pivots) == nvars else "degenerate")


def _embed(nums: list[int], den: int, support: tuple[int, ...], size: int) -> tuple[Fraction, ...]:
    full = [Fraction(0)] * size
    for w, idx in zip(nums, support):  # the value's numerator, past the weights, is dropped
        full[idx] = Fraction(w, den)
    return tuple(full)


def support_enumeration(game: CapabilityGame) -> list[MixedEquilibrium]:
    """All equilibria on equal-size supports of a two-player game's top cell,
    ``game.bounds``, by support size, then rows, then columns, lexicographically.

    Complete for nondegenerate games.  For degenerate ones every emitted
    point is still exact and verified, and unequal-support continua are
    represented only through their basic points.  The degenerate flag marks
    a singular indifference system or a zero support weight, not a tie with
    a best reply outside the support.
    """
    # supports grow, so a point met again has a zero weight, which is flagged
    return list({(p.x, p.y): p for p in _mixed_cell(game, game.bounds)}.values())


@dataclass(frozen=True)
class MixedCtf:
    """Payoff set of the mixed transfer function at one capability profile."""

    payoffs: frozenset[tuple[Fraction, Fraction]]
    degenerate: bool


def _two_player_cell(game: CapabilityGame, capability: Sequence[int]):
    """``capability`` checked, and the space sizes it gives, in a two-player game."""
    if game.n_players != 2:
        raise PreconditionViolated(f"mixed analysis needs 2 players, got {game.n_players}")
    return _checked(game, capability)


def restrict_to_bimatrix(game: CapabilityGame, capability: Sequence[int]) -> CapabilityGame:
    """The one-level game of a two-player capability game's cell at
    ``capability``: each player's actions at that level, and their payoffs."""
    _, sizes = _two_player_cell(game, capability)
    return CapabilityGame(tuple(acts[:n] for acts, n in zip(game.actions, sizes)),
                          tuple((n,) for n in sizes),
                          {s: game.payoffs[s] for s in product(*map(range, sizes))})


def _beaten(lines: list[list[int]], level: list[int]) -> list[list[int]]:
    """Per bitmask S of the other player's lines and own line t, the bitmask of own lines
    strictly beaten on all of S by a line of level <= ``level[t]``; ``level`` as in ``sides``."""
    grid, own = np.array(lines), np.array(level[:-1])
    subsets = np.arange(1 << grid.shape[1])[:, None] >> np.arange(grid.shape[1]) & 1 == 1  # [S, j]
    # [S, h, i]: line h beats line i at every index in S
    covers = ~((grid[:, None] <= grid[None])[None] & subsets[:, None, None]).any(-1)
    low = np.where(covers, own[:, None], level[-1]).min(axis=1)  # [S, i]: lowest beating level
    return ((low[:, None] <= own[:, None]) << np.arange(len(own))).sum(-1).tolist()


def _pair_boxes(game: CapabilityGame) -> tuple[list[MixedEquilibrium], Boxes]:
    """The points of the equal-size support pairs (R, C) of a two-player game's
    top-left subgame within the action bound that are equilibria at some
    capability cell, by support size, then rows, then columns, lexicographically,
    and their boxes, whose rows ``cell`` reads as indices into the points.  The
    indifference systems depend only on the supports, so the pair is an
    equilibrium at (ca, cb) exactly when ``lo <= (ca, cb) <= hi``: ``lo`` holds
    the levels of R's last row and C's last column, ``hi`` ends just below the
    level of the first row (column) that strictly beats the value.  A pair is
    skipped unsolved when a row of R is strictly beaten on all of C, in A, by a
    row of level at most ``lo``'s (or a column of C on all of R, in B): that
    row beats the value against any y on C, so the pair fails at ``lo``.  The
    systems run on the game's integer rows of A (for y) and columns of B (for
    x): one scale per player leaves the weights alone and scales the value,
    which is then divided by the player's denominator.  A solve returns integers
    over one positive denominator, so the sign and beat checks use integers and
    Fractions are built only for the points emitted.
    """
    utilities, levels, (den_a, den_b) = game._integer_form
    m, k = (max(c for c in chain if c <= DEFAULT_MAX_ACTIONS) for chain in game.cutoffs)
    a, b = (u[:m, :k] for u in utilities)
    # each line's level, and past the last line the level that no line beats
    sides = [(lines, np.append(level[:n], level[n - 1] + 1).tolist())
             for lines, level, n in zip((a.tolist(), b.T.tolist()), levels, (m, k))]
    beaten_rows, beaten_cols = (_beaten(lines, level) for lines, level in sides)
    points, boxes = [], []
    for size in range(1, min(m, k) + 1):
        col_sets = [(cols, sum(1 << j for j in cols)) for cols in combinations(range(k), size)]
        for rows in combinations(range(m), size):
            rmask = sum(1 << i for i in rows)
            for cols, cmask in col_sets:
                if rmask & beaten_rows[cmask][rows[-1]] or cmask & beaten_cols[rmask][cols[-1]]:
                    continue
                # indifference makes x'Ay = u and x'By = v, so the two beat checks
                # are the equilibrium test; x waits until y holds at the lowest cell
                replies = []
                for (lines, level), own, other in zip(sides, (rows, cols), (cols, rows)):
                    system = [[lines[i][j] for j in other] + [-1, 0] for i in own]
                    system.append([1] * size + [0, 1])
                    solution, den, status = _solve(system, size + 1)
                    if status == "inconsistent" or any(w < 0 for w in solution[:size]):
                        break
                    *mix, target = solution
                    beat = next((i for i, line in enumerate(lines) if sum(
                        line[j] * w for j, w in zip(other, mix)) > target), len(lines))
                    if level[beat] <= level[own[-1]]:
                        break
                    replies.append((solution, den, status == "degenerate" or 0 in mix,
                                    level[own[-1]], level[beat] - 1))
                else:
                    (ys, y_den, y_flag, lo_a, hi_a), (xs, x_den, x_flag, lo_b, hi_b) = replies
                    values = (Fraction(ys[-1], y_den * den_a), Fraction(xs[-1], x_den * den_b))
                    points.append(MixedEquilibrium(_embed(xs, x_den, rows, m),
                                                   _embed(ys, y_den, cols, k),
                                                   values, x_flag or y_flag))
                    boxes.append((lo_a, lo_b, hi_a, hi_b))
    boxes = np.array(boxes, dtype=int).reshape(-1, 4)
    return points, Boxes(np.arange(len(points))[:, None], boxes[:, :2], boxes[:, 2:])


def _mixed_cell(game: CapabilityGame, capability: Sequence[int]) -> list[MixedEquilibrium]:
    """The points of the game's pair boxes that hold at ``capability``."""
    capability, (m, k) = _two_player_cell(game, capability)
    if m > DEFAULT_MAX_ACTIONS or k > DEFAULT_MAX_ACTIONS:
        raise SizeLimitExceeded(f"{m}x{k} exceeds the {DEFAULT_MAX_ACTIONS}-action bound")
    points, boxes = game._pair_boxes
    return [points[i] for i, in cell(boxes, capability)]


def ctf_mixed(game: CapabilityGame, capability: Sequence[int]) -> MixedCtf:
    """Mixed capability transfer function of a two-player game at one profile."""
    inside = _mixed_cell(game, capability)
    return MixedCtf(frozenset(p.values for p in inside), any(p.degenerate for p in inside))
