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
from types import MappingProxyType
from collections.abc import Iterable, Mapping, Sequence, Set
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import prod

import numpy as np

from .errors import GameFormatError, OutOfRange, PreconditionViolated
from .rationals import as_fraction, as_integer, scaled, spell

PayoffVector = tuple[Fraction, ...]
Profile = tuple[int, ...]
_NOT_ROWS = (str, bytes, Set, Mapping)  # a string row would split; a set has no column order


def _rows(value, what: str) -> tuple:
    """``value`` as a tuple; ``GameFormatError`` for no sequence, or a str,
    bytes, set or mapping, which would split or lose its order."""
    if not isinstance(value, _NOT_ROWS):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise GameFormatError(f"{what} must be a sequence, got {spell(value, repr)}")


@dataclass(frozen=True)
class CapabilityGame:
    """Normal-form game plus one nested strategy-space chain per player.

    Attributes:
        actions: per player, the full ordered tuple of action labels.
        cutoffs: per player, strictly increasing sizes of the nested spaces;
            the last cutoff equals the length of the action list, so the top
            level is always the unrestricted game.
        payoffs: for every full strategy profile (a tuple of 0-based action
            indices), one exact rational per player.
        Building the game checks all three and keeps its own copies: tuples of
        the actions and cutoffs, and a read-only row-major mapping of
        ``Fraction`` vectors, so the forms cached from it never go stale.
        A game hashes by its actions and cutoffs.
    """

    actions: tuple[tuple[str, ...], ...]
    cutoffs: tuple[tuple[int, ...], ...]
    payoffs: Mapping[tuple[int, ...], PayoffVector] = field(hash=False)

    def __post_init__(self):
        actions = tuple(_rows(acts, f"player {p + 1}: actions")
                        for p, acts in enumerate(_rows(self.actions, "actions")))
        object.__setattr__(self, "actions", actions)
        if self.n_players == 0:
            raise GameFormatError("a game needs at least one player")
        for p, acts in enumerate(actions):
            if len(acts) == 0:
                raise GameFormatError(f"player {p + 1} has no actions")
        chains = _rows(self.cutoffs, "cutoffs")
        if len(chains) != self.n_players:
            raise GameFormatError("one cutoff chain required per player")
        cutoffs = []
        for p, chain in enumerate(chains):
            try:
                chain = tuple(map(as_integer, chain))
            except TypeError:
                raise GameFormatError(f"player {p + 1}: cutoffs must be integers, "
                                      f"got {spell(chain, repr)}") from None
            cutoffs.append(chain)
            if len(chain) == 0 or chain[0] < 1:
                raise GameFormatError(f"player {p + 1}: cutoffs must start at 1 or more")
            if any(a >= b for a, b in zip(chain, chain[1:])):
                raise GameFormatError(f"player {p + 1}: cutoffs must strictly increase")
            if chain[-1] != len(actions[p]):
                raise GameFormatError(
                    f"player {p + 1}: top level must equal the full action list "
                    f"({spell(chain[-1])} != {len(actions[p])})")
        object.__setattr__(self, "cutoffs", tuple(cutoffs))
        if not isinstance(self.payoffs, Mapping):
            raise GameFormatError(
                f"payoffs must map profiles to vectors, got {spell(self.payoffs, repr)}")
        counts = tuple(len(a) for a in self.actions)
        if len(self.payoffs) != prod(counts):
            raise GameFormatError(
                f"{len(self.payoffs)} payoff entries for {prod(counts)} profiles")
        # one Fraction per distinct exact int or str: True == 1 hashes alike
        shared = {}
        def exact(v):
            if type(v) not in (int, str):
                return as_fraction(v)
            if v not in shared:
                shared[v] = as_fraction(v)
            return shared[v]
        payoffs = {}
        for profile in product(*(range(k) for k in counts)):
            if profile not in self.payoffs:
                raise GameFormatError(f"missing payoff for profile {profile}")
            vec = self.payoffs[profile]
            if not isinstance(vec, Sequence) or isinstance(vec, (str, bytes)):
                # a string would split into characters
                raise GameFormatError(
                    f"payoff for {profile} must be a sequence, got {spell(vec, repr)}")
            if len(vec) != self.n_players:
                raise GameFormatError(
                    f"payoff for {profile} has {len(vec)} entries, want {self.n_players}")
            try:
                payoffs[profile] = tuple(map(exact, vec))
            except (TypeError, ValueError) as bad:
                raise GameFormatError(f"profile {profile}: {bad}") from None
        object.__setattr__(self, "payoffs", MappingProxyType(payoffs))

    def __reduce__(self):
        # a mapping proxy does not pickle; the game rebuilds from a plain dict
        return type(self), (self.actions, self.cutoffs, dict(self.payoffs))

    @property
    def n_players(self) -> int:
        return len(self.actions)

    @property
    def bounds(self) -> tuple[int, ...]:
        """Number of capability levels available to each player."""
        return tuple(len(c) for c in self.cutoffs)

    def space_size(self, player: int, level: int) -> int:
        """Number of actions open to ``player`` (0-based) at capability
        ``level`` (1-based); ``OutOfRange`` for anything else."""
        try:
            player, level = as_integer(player), as_integer(level)
        except TypeError:
            raise OutOfRange("player and capability must be integers, "
                             f"got {spell(player, repr)}, {spell(level, repr)}") from None
        if not 0 <= player < self.n_players:
            raise OutOfRange(f"player {spell(player)} outside 0..{self.n_players - 1}")
        return self._size(player, level)

    def _size(self, player: int, level: int) -> int:
        """``space_size`` once ``player`` is checked and ``level`` an integer."""
        b = len(self.cutoffs[player])
        if not 0 < level <= b:
            raise OutOfRange(f"capability {spell(level)} for player {player + 1} outside 1..{b}")
        return self.cutoffs[player][level - 1]

    @classmethod
    def from_matrices(
        cls,
        u1: Sequence[Sequence],
        u2: Sequence[Sequence],
        cutoffs1: Iterable[int] | None = None,
        cutoffs2: Iterable[int] | None = None,
    ) -> "CapabilityGame":
        """Build a two-player game from payoff matrices (rows = player 1), the
        one matrix constructor: a shape that is not one nonempty rectangle shared
        by both raises ``GameFormatError``, and the game checks each entry."""
        try:
            a, b = list(u1), list(u2)
            ragged = any(isinstance(r, _NOT_ROWS) or len(r) != len(a[0]) for r in a + b)
        except (TypeError, IndexError):  # a matrix or a row that is no sequence, or no row
            ragged = True
        if ragged or not a or len(b) != len(a) or len(a[0]) == 0:
            raise GameFormatError("payoff matrices need one nonempty rectangular shape")
        rows, cols = len(a), len(a[0])
        pay = {(i, j): pair for i, ab in enumerate(zip(a, b)) for j, pair in enumerate(zip(*ab))}
        c1 = cutoffs1 if cutoffs1 is not None else (rows,)
        c2 = cutoffs2 if cutoffs2 is not None else (cols,)
        acts1 = tuple(f"r{i + 1}" for i in range(rows))
        acts2 = tuple(f"c{j + 1}" for j in range(cols))
        return cls((acts1, acts2), (c1, c2), pay)

    @cached_property
    def _integer_form(self) -> tuple[list[np.ndarray], list[np.ndarray], list[int]]:
        """The one integer form of this game, which both engines read, computed
        on first use: ``(utilities, levels, denominators)``, each player's payoffs
        scaled to integers over their common denominator, each action's level
        read off the checked, so gap-free, cutoff chain, and each denominator."""
        counts = tuple(len(a) for a in self.actions)
        vectors = list(self.payoffs.values())
        utilities, denominators = [], []
        for p in range(self.n_players):
            ints, den = scaled(v[p] for v in vectors)
            dtype = _payoff_dtype(max(map(abs, ints)))
            utilities.append(np.array(ints, dtype=dtype).reshape(counts))
            denominators.append(den)
        levels = [np.searchsorted(chain, np.arange(k), side="right") + 1
                  for k, chain in zip(counts, self.cutoffs)]
        return utilities, levels, denominators

    @cached_property
    def _boxes(self) -> Boxes:
        """``ne_boxes`` over this game's integer form, computed on first use."""
        return ne_boxes(*self._integer_form[:2])

    @cached_property
    def _pair_boxes(self):
        """``bimatrix._pair_boxes`` over this two-player game's integer form,
        computed on first use."""
        from .bimatrix import _pair_boxes  # bimatrix imports this module
        return _pair_boxes(self)


class Boxes:
    """Equilibria and their boxes of capability cells: ``profiles[i]`` is an
    equilibrium at every c with ``lo[i] <= c <= hi[i]``, one column per player."""

    def __init__(self, profiles: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        self.profiles, self.lo, self.hi = profiles, lo, hi
        # per player, each level's bitset once read; past the top hi, none
        self._open = [[None] * top for top in hi.max(axis=0, initial=0).tolist()]

    def open_at(self, player: int, level: int) -> int:
        """Bit i set when row i's box holds ``level`` for ``player``."""
        bitsets = self._open[player]
        if not 0 < level <= len(bitsets):
            return 0
        if bitsets[level - 1] is None:
            inside = (self.lo[:, player] <= level) & (level <= self.hi[:, player])
            bitsets[level - 1] = int.from_bytes(np.packbits(inside, bitorder="little"), "little")
        return bitsets[level - 1]


def _payoff_dtype(bound: int):
    """Narrowest integer dtype holding every value up to ``bound`` in
    magnitude; object (Python integers) past 2**62."""
    for dtype in (np.int16, np.int32):
        if bound <= np.iinfo(dtype).max:
            return dtype
    return np.int64 if bound < 2**62 else object


def ne_boxes(
    utilities: Sequence[np.ndarray], levels: Sequence[Sequence[int]]
) -> Boxes:
    """Every pure Nash equilibrium of every capability profile, from one pass.

    ``utilities[p]`` is player p's exact integer payoff at every full
    profile, as an n-dimensional array; ``levels[p][a]`` is the lowest level
    of player p whose space holds action a, and level L's space is every
    action at level L or below.  The levels must be gap-free: every level
    from 1 to ``max(levels[p])`` holds at least one action of player p, as
    in a cutoff chain or the oracle's segment counts.  The spaces are
    nested, so s is an equilibrium at capability c exactly when
    ``lo[p] <= c_p <= hi[p]`` for every player p: ``lo[p]`` is s_p's level
    and ``hi[p]`` the number of levels whose best reply to s_-p is no better
    than s_p.

    Returns ``Boxes(profiles, lo, hi)``, three arrays of one row per profile
    that is an equilibrium at some capability, in lexicographic order: the
    profile's action indices and its box.  ``cell`` reads one capability
    profile's equilibria from them, through one bitset of rows per player
    and level, built on the first read of that level.
    """
    shape = utilities[0].shape
    ranks = [np.asarray(lv) - 1 for lv in levels]
    best = []
    for p, (u, rank) in enumerate(zip(utilities, ranks)):
        # best[p][j, t]: p's best payoff within level j + 1's space against
        # the t-th opponent profile (flat, axis p removed)
        by_action = np.moveaxis(u, p, 0)
        per_level = np.stack([by_action[rank == j].max(axis=0)
                              for j in range(rank.max() + 1)])
        per_level = per_level.reshape(len(per_level), -1)
        np.maximum.accumulate(per_level, axis=0, out=per_level)
        best.append(per_level)

    def opponents(p, flat):
        # flat index of s_-p over the profile shape with axis p removed
        stride = prod(shape[p + 1:])
        return flat // (shape[p] * stride) * stride + flat % stride

    # only the first player's check is dense, one level's rows at a time;
    # the others run by gather on the profiles where the first player is
    # already best-replying (a dense check over the oracle's transposed
    # table costs several times the pass)
    first = utilities[0].reshape(shape[0], -1)
    hits = []
    for j, level_best in enumerate(best[0]):
        rows = np.flatnonzero(ranks[0] == j)
        row, col = np.divmod(np.flatnonzero(first[rows] == level_best), first.shape[1])
        hits.append(rows[row] * first.shape[1] + col)
    # each level's hits are sorted; the stable sort only merges the runs
    profiles = np.sort(np.concatenate(hits), kind="stable")
    for p in range(1, len(shape)):
        s = np.unravel_index(profiles, shape)
        own = best[p][ranks[p][s[p]], opponents(p, profiles)]
        profiles = profiles[utilities[p][s] == own]

    s = np.unravel_index(profiles, shape)
    lo = np.stack([rank[s[p]] + 1 for p, rank in enumerate(ranks)], axis=1)
    hi = np.zeros_like(lo)
    for p, u in enumerate(utilities):  # a level at a time: no levels x profiles array
        opp, own = opponents(p, profiles), u[s]
        for level_best in best[p]:
            hi[:, p] += level_best[opp] <= own
    return Boxes(np.stack(s, axis=1), lo, hi)


def cell(boxes: Boxes, capability: Sequence[int]) -> list[Profile]:
    """The equilibria at one capability profile, in lexicographic order: the
    rows of ``ne_boxes``'s answer whose box holds ``capability``.  It ANDs one
    bitset of rows per player, each built on the first read of its level, so
    what the boxes keep grows with rows times levels read, never with cells."""
    inside = -1
    for p, c in enumerate(capability):
        inside &= boxes.open_at(p, c)
    if not inside:
        return []
    rows = len(boxes.profiles)
    bits = np.frombuffer(inside.to_bytes((rows + 7) // 8, "little"), dtype=np.uint8)
    keep = np.unpackbits(bits, count=rows, bitorder="little").view(bool)
    return list(map(tuple, boxes.profiles[keep].tolist()))


class Positivity(enum.Enum):
    """Tri-state verdict on whether equal capability growth can hurt welfare."""

    POSITIVE = "positive"
    NOT_POSITIVE = "not-positive"
    UNDETERMINED = "undetermined"


def _profile(values: Sequence[int], n: int, what: str) -> tuple[int, ...]:
    """``values`` as n ints, numpy integers included; ``OutOfRange`` for a
    wrong length or an entry that is no integer, such as 1.0."""
    try:
        ints = tuple(map(as_integer, values))
    except TypeError:
        raise OutOfRange(f"{what} must hold integers, got {spell(values, repr)}") from None
    if len(ints) != n:
        raise OutOfRange(f"{what} has {len(ints)} entries for {n} players")
    return ints


def _checked(game: CapabilityGame, capability: Sequence[int]) -> tuple[Profile, Profile]:
    """``capability`` as a checked tuple, and the space sizes it gives."""
    capability = _profile(capability, game.n_players, "capability profile")
    return capability, tuple([game._size(p, c) for p, c in enumerate(capability)])


def is_pure_ne(
    game: CapabilityGame,
    capability: Sequence[int],
    profile: Sequence[int],
) -> bool:
    """True if no player can gain by deviating inside their restricted space.

    Deviations outside the capability-restricted space are never consulted.
    It reads the same cell as ``ctf_pure`` and ``enumerate_pure_ne``.
    """
    capability, sizes = _checked(game, capability)
    s = _profile(profile, game.n_players, "profile")
    for p, a in enumerate(s):
        if not 0 <= a < sizes[p]:
            raise OutOfRange(f"action {spell(a)} of player {p + 1} "
                             f"outside restricted space of size {sizes[p]}")
    return s in cell(game._boxes, capability)


def enumerate_pure_ne(
    game: CapabilityGame, capability: Sequence[int]
) -> list[tuple[int, ...]]:
    """All pure equilibria of the restricted game, in lexicographic order."""
    capability, _ = _checked(game, capability)
    return cell(game._boxes, capability)


def ctf_pure(
    game: CapabilityGame, capability: Sequence[int]
) -> frozenset[PayoffVector]:
    """Pure capability transfer function: equilibrium payoff vectors at ``capability``.

    The first call on a game finds every equilibrium's box in one pass over
    the full profiles; each call then reads its cell from the boxes.
    """
    capability, _ = _checked(game, capability)
    return frozenset([game.payoffs[s] for s in cell(game._boxes, capability)])


def equilibrium_welfare_levels(game: CapabilityGame) -> list[frozenset[Fraction]]:
    """For each shared capability level b, the set of total welfares over pure NE.

    Requires every player to have the same number of levels.
    """
    bounds = game.bounds
    if len(set(bounds)) > 1:
        raise PreconditionViolated(f"players have different level counts {bounds}")
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
