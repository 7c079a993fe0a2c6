"""Finite games with nested capability-restricted strategy spaces.

A capability game is an n-player normal-form game whose players each own a
chain of nested strategy spaces: level j of player i consists of the first
``cutoffs[i][j-1]`` entries of that player's action list.  A capability
profile picks one level per player, and the capability transfer function
maps each profile to the set of equilibrium payoff vectors of the induced
restricted game.

All payoffs are exact rationals; nothing here is ever rounded.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, product
from typing import Iterable, Mapping, Sequence

from .errors import (
    EmptyGame,
    HierarchyViolation,
    IncompletePayoffs,
    OutOfBounds,
    UnequalBounds,
)
from .rationals import as_fraction

PayoffVector = tuple[Fraction, ...]


@dataclass(frozen=True)
class CapabilityGame:
    """Normal-form game plus one nested strategy-space chain per player.

    Attributes:
        actions: per player, the full ordered tuple of action labels.
        cutoffs: per player, strictly increasing sizes of the nested spaces;
            the last cutoff equals the length of the action list, so the top
            level is always the unrestricted game.
        payoffs: payoff vector (one exact rational per player) for every full
            strategy profile, keyed by tuples of 0-based action indices.
    """

    actions: tuple[tuple[str, ...], ...]
    cutoffs: tuple[tuple[int, ...], ...]
    payoffs: Mapping[tuple[int, ...], PayoffVector]

    @property
    def n_players(self) -> int:
        return len(self.actions)

    @property
    def bounds(self) -> tuple[int, ...]:
        """Number of capability levels available to each player."""
        return tuple(len(c) for c in self.cutoffs)

    def space_size(self, player: int, level: int) -> int:
        """Number of actions open to ``player`` at capability ``level`` (1-based)."""
        b = len(self.cutoffs[player])
        if not 1 <= level <= b:
            raise OutOfBounds(
                f"capability {level} for player {player + 1} outside 1..{b}")
        return self.cutoffs[player][level - 1]

    @classmethod
    def from_matrices(
        cls,
        u1: Sequence[Sequence],
        u2: Sequence[Sequence],
        cutoffs1: Iterable[int] | None = None,
        cutoffs2: Iterable[int] | None = None,
    ) -> "CapabilityGame":
        """Build a two-player game from payoff matrices (rows = player 1)."""
        rows, cols = len(u1), len(u1[0]) if u1 else 0
        pay = {
            (i, j): (as_fraction(u1[i][j]), as_fraction(u2[i][j]))
            for i in range(rows)
            for j in range(cols)
        }
        c1 = tuple(cutoffs1) if cutoffs1 is not None else (rows,)
        c2 = tuple(cutoffs2) if cutoffs2 is not None else (cols,)
        acts1 = tuple(f"r{i + 1}" for i in range(rows))
        acts2 = tuple(f"c{j + 1}" for j in range(cols))
        return cls((acts1, acts2), (c1, c2), pay)

    @cached_property
    def _pure_transfer(self) -> dict[tuple[int, ...], frozenset[PayoffVector]]:
        """Every capability profile's pure-NE payoff set, from one pass.

        Levels are prefixes of the action list, so profile s is an
        equilibrium on a box of capability profiles: player p's level must
        contain s_p and must end before p's first strictly better deviation
        against s_-p.  Each profile's payoff vector is added to every cell of
        its box.  Computed on first use; the game must not be mutated after.
        """
        counts = [len(a) for a in self.actions]
        profiles = list(product(*(range(k) for k in counts)))
        vectors = [self.payoffs[s] for s in profiles]
        # top[p][i]: number of p's levels that exclude p's first strictly
        # better deviation from profiles[i] (all levels when there is none)
        top = []
        stride = len(profiles)
        for p, (k, chain) in enumerate(zip(counts, self.cutoffs)):
            stride //= k
            ends = [0] * len(profiles)
            for base, s in enumerate(profiles):
                if s[p]:
                    continue
                column = [vectors[base + a * stride][p] for a in range(k)]
                # the first action strictly better than v is the first place
                # the running maximum exceeds v
                running = list(accumulate(column, max))
                for a, v in enumerate(column):
                    ends[base + a * stride] = bisect_right(chain, bisect_right(running, v))
            top.append(ends)
        # bottom[p][a]: number of p's levels too small to contain action a
        bottom = [[bisect_right(chain, a) for a in range(k)]
                  for k, chain in zip(counts, self.cutoffs)]
        cells: dict[tuple[int, ...], set[PayoffVector]] = {
            cap: set() for cap in product(*(range(1, len(c) + 1) for c in self.cutoffs))}
        for i, s in enumerate(profiles):
            box = []
            for p, a in enumerate(s):
                lo, hi = bottom[p][a], top[p][i]
                if lo >= hi:
                    break
                box.append(range(lo + 1, hi + 1))
            else:
                vec = vectors[i]
                for cap in product(*box):
                    cells[cap].add(vec)
        return {cap: frozenset(v) for cap, v in cells.items()}


class Positivity(enum.Enum):
    """Tri-state verdict on whether equal capability growth can hurt welfare."""

    POSITIVE = "positive"
    NOT_POSITIVE = "not-positive"
    UNDETERMINED = "undetermined"


def validate_game(game: CapabilityGame) -> None:
    """Check structural invariants; raise a specific error on the first failure."""
    if game.n_players == 0:
        raise EmptyGame("a game needs at least one player")
    for p, acts in enumerate(game.actions):
        if len(acts) == 0:
            raise EmptyGame(f"player {p + 1} has no actions")
    if len(game.cutoffs) != game.n_players:
        raise HierarchyViolation("one cutoff chain required per player")
    for p, chain in enumerate(game.cutoffs):
        if len(chain) == 0 or chain[0] < 1:
            raise HierarchyViolation(f"player {p + 1}: cutoffs must start at 1 or more")
        if any(a >= b for a, b in zip(chain, chain[1:])):
            raise HierarchyViolation(f"player {p + 1}: cutoffs must strictly increase")
        if chain[-1] != len(game.actions[p]):
            raise HierarchyViolation(
                f"player {p + 1}: top level must equal the full action list "
                f"({chain[-1]} != {len(game.actions[p])})")
    counts = tuple(len(a) for a in game.actions)
    expected = 1
    for k in counts:
        expected *= k
    if len(game.payoffs) != expected:
        raise IncompletePayoffs(
            f"{len(game.payoffs)} payoff entries for {expected} profiles")
    for profile in product(*(range(k) for k in counts)):
        vec = game.payoffs.get(profile)
        if vec is None:
            raise IncompletePayoffs(f"missing payoff for profile {profile}")
        if len(vec) != game.n_players:
            raise IncompletePayoffs(
                f"payoff for {profile} has {len(vec)} entries, want {game.n_players}")


def restricted_sizes(game: CapabilityGame, capability: Sequence[int]) -> tuple[int, ...]:
    """Per-player action counts at the given capability profile."""
    if len(capability) != game.n_players:
        raise OutOfBounds(
            f"capability profile has {len(capability)} entries for "
            f"{game.n_players} players")
    return tuple(game.space_size(p, c) for p, c in enumerate(capability))


def is_pure_ne(
    game: CapabilityGame,
    capability: Sequence[int],
    profile: Sequence[int],
) -> bool:
    """True if no player can gain by deviating inside their restricted space.

    Deviations outside the capability-restricted space are never consulted.
    """
    sizes = restricted_sizes(game, capability)
    s = tuple(profile)
    if len(s) != game.n_players:
        raise OutOfBounds(f"profile has {len(s)} entries for {game.n_players} players")
    for p, a in enumerate(s):
        if not 0 <= a < sizes[p]:
            raise OutOfBounds(
                f"action {a} of player {p + 1} outside restricted space of size {sizes[p]}")
    for p in range(game.n_players):
        here = game.payoffs[s][p]
        for alt in range(sizes[p]):
            if alt == s[p]:
                continue
            dev = s[:p] + (alt,) + s[p + 1:]
            if game.payoffs[dev][p] > here:
                return False
    return True


def enumerate_pure_ne(
    game: CapabilityGame, capability: Sequence[int]
) -> list[tuple[int, ...]]:
    """All pure equilibria of the restricted game, in lexicographic order."""
    sizes = restricted_sizes(game, capability)
    return [
        s
        for s in product(*(range(k) for k in sizes))
        if is_pure_ne(game, capability, s)
    ]


def ctf_pure(
    game: CapabilityGame, capability: Sequence[int]
) -> frozenset[PayoffVector]:
    """Pure capability transfer function: equilibrium payoff vectors at ``capability``.

    The first call on a game computes every capability profile in one pass
    over the full profiles; later calls are lookups.
    """
    restricted_sizes(game, capability)
    return game._pure_transfer[tuple(capability)]


def equilibrium_welfare_levels(game: CapabilityGame) -> list[frozenset[Fraction]]:
    """For each shared capability level b, the set of total welfares over pure NE.

    Requires every player to have the same number of levels.
    """
    bounds = game.bounds
    if len(set(bounds)) > 1:
        raise UnequalBounds(f"players have different level counts {bounds}")
    levels = []
    for b in range(1, bounds[0] + 1):
        vectors = ctf_pure(game, (b,) * game.n_players)
        levels.append(frozenset(sum(v, Fraction(0)) for v in vectors))
    return levels


def is_capability_positive(game: CapabilityGame) -> Positivity:
    """Judge whether growing everyone's capability can never lower total welfare.

    Positive means max welfare at each level is at most min welfare at the
    next.  Any level without a pure equilibrium leaves the comparison
    undetermined rather than guessed.
    """
    levels = equilibrium_welfare_levels(game)
    if any(len(w) == 0 for w in levels):
        return Positivity.UNDETERMINED
    for lo, hi in zip(levels, levels[1:]):
        if max(lo) > min(hi):
            return Positivity.NOT_POSITIVE
    return Positivity.POSITIVE
