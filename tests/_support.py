"""Independent re-implementations used as test oracles.

These deliberately recompute things from first principles (the covers-rule,
raw deviation sweeps) rather than calling the code paths under test, so a
bug in the library cannot hide behind itself.  The last section is the
exception: helpers that only tests use, which may call the library.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import lcm

import numpy as np


def coverage_by_rule(f):
    """(gold sites, mine sites) covered, straight from the stands-on-line rule."""
    covered = [i for i in range(len(f)) if f[i] == (i + 1) % 2]
    gold = {i for i in covered if i % 4 <= 1}
    mine = {i for i in covered if i % 4 >= 2}
    return gold, mine


def random_aligned(rng: random.Random, scale: int, flip_prob: float = 0.5):
    """Uniform-ish aligned strategy: walk the board, flipping only where the
    alignment rule allows."""
    v = rng.randint(0, 1)
    bits = []
    for i in range(4 * scale):
        bits.append(v)
        if i < 4 * scale - 1:
            legal = (v == 0 and i % 4 == 2) or (v == 1 and i % 4 == 0)
            if legal and rng.random() < flip_prob:
                v = 1 - v
    return tuple(bits)


def naive_payoff(fa, fb, rho, mu):
    """Location-by-location payoff, written independently of the library."""
    ua = ub = 0
    for i in range(len(fa)):
        on_a = fa[i] == (i + 1) % 2
        on_b = fb[i] == (i + 1) % 2
        if i % 4 <= 1:
            if on_a and on_b:
                ua, ub = ua + rho, ub + rho
            elif on_a:
                ua += 1
            elif on_b:
                ub += 1
        else:
            if on_a:
                ua += mu
            if on_b:
                ub += mu
    return ua, ub


def class_payoffs_by_fractions(params, start_a):
    """Closed-form payoffs of one equilibrium class, cell by cell in
    Fraction arithmetic: the formula as first written."""
    scale = params.scale
    ca = min(params.cap_a, 2 * scale + 1)
    cb = min(params.cap_b, 2 * scale + 1)
    t = start_a
    rho, mu = params.rho, params.mu
    base = (mu + 1) * scale
    ua = ((ca + t - 1) // 2) * rho - ((ca - t) // 2) * mu + ((cb - t) // 2) * (rho - 1) + base
    ub = ((cb - t) // 2) * rho - ((cb + t - 1) // 2) * mu + ((ca + t - 1) // 2) * (rho - 1) + base
    return ua, ub


def is_equilibrium_by_sweep(fa, fb, space_a, space_b, rho, mu):
    """Raw deviation check over explicit strategy spaces."""
    ua, ub = naive_payoff(fa, fb, rho, mu)
    if any(naive_payoff(alt, fb, rho, mu)[0] > ua for alt in space_a):
        return False
    if any(naive_payoff(fa, alt, rho, mu)[1] > ub for alt in space_b):
        return False
    return True


def segments_of(f):
    return 1 + sum(1 for a, b in zip(f, f[1:]) if a != b)


def all_strategies(scale):
    return list(product((0, 1), repeat=4 * scale))


def payoff_table_by_sites(scale, rho, mu):
    """Player A's payoff times the lcm of rho's and mu's denominators at
    every strategy pair (A's strategy the row, B's the column, in
    lexicographic order), counting shared golds one gold site at a time:
    the oracle's table as first built."""
    den = lcm(rho.denominator, mu.denominator)
    rho_scaled, mu_scaled = int(rho * den), int(mu * den)
    sites = range(4 * scale)
    cover = np.array(all_strategies(scale)) == [(i + 1) % 2 for i in sites]
    gold = np.array([i % 4 <= 1 for i in sites])
    shared = np.zeros((len(cover), len(cover)), dtype=np.uint8)
    for g in np.flatnonzero(gold):
        col = cover[:, g].astype(np.uint8)
        shared += col[:, None] & col
    alone = (cover[:, gold].sum(axis=1).astype(object) * den
             + cover[:, ~gold].sum(axis=1).astype(object) * mu_scaled)
    bound = 2 * scale * (2 * den + abs(rho_scaled) + abs(mu_scaled))
    table = shared.astype(np.int64 if bound < 2**62 else object)
    table *= rho_scaled - den
    table += alone.astype(table.dtype)[:, None]
    return table


# --- the gold-and-mines constructions as first written ---
# Slow references for identity tests: valid inputs only, since the library's
# own tests pin its error messages.

def staircase_by_flip_set(scale, segments, start):
    """Earliest-flip staircase, walking the board and flipping at each
    member of an explicit flip set."""
    first = 0 if start == 1 else 2
    flips = set(range(first, first + 2 * (segments - 1), 2))
    bits = []
    v = start
    for i in range(4 * scale):
        bits.append(v)
        if i in flips:
            v = 1 - v
    return tuple(bits)


def complement_by_cases(fb):
    """Complement cover of an aligned strategy, block by block, with one
    case per pair of edge lines."""
    bits = []
    for k in range(len(fb) // 4):
        left = 1 - fb[4 * k]
        right = 1 - fb[4 * k + 3]
        if left == right:
            bits += [left] * 4
        elif left == 1:
            bits += [1, 0, 0, 0]  # downward flip at 4k
        else:
            bits += [0, 0, 0, 1]  # upward flip at 4k+2
    return tuple(bits)


def pad_by_rescan(f_prime, target, scale):
    """Segment padding that recounts the whole strategy on every step."""
    f = list(f_prime)
    n = 4 * scale
    k = 0
    while target - segments_of(f) >= 2:
        if f[4 * k + 3] == 0:
            f[4 * k + 3] = 1
            if k + 1 < scale:
                f[4 * k + 4] = 1
        elif k > 0 or f[4 * k] == 1:
            f[4 * k + 1] = 0
            f[4 * k + 2] = 0
        k += 1
    if target - segments_of(f) == 1:
        if f[n - 1] == 0:
            f[n - 1] = 1
        elif f[n - 2] == 1:
            f[n - 3] = 0
            f[n - 2] = 0
            f[n - 1] = 0
        else:
            f[n - 5] = 1
            f[n - 4] = 1
            f[n - 1] = 0
    return tuple(f)


def equilibrium_by_cases(params, start_a):
    """One equilibrium of an admissible class, by the five cases the
    construction was first written with: both, B only, or A only able to
    afford the perfect cover; then the higher-capability player's response
    to the other's staircase, a staircase itself at 2*scale segments."""
    scale, ca, cb = params.scale, params.cap_a, params.cap_b
    full = 2 * scale + 1
    pc = staircase_by_flip_set(scale, full, 1)
    if ca >= full and cb >= full:
        return pc, pc
    if cb >= full:
        return staircase_by_flip_set(scale, ca, 0), pc
    if ca >= full:
        return pc, staircase_by_flip_set(scale, cb, 0)

    def respond(opponent, cap, start):
        if cap == 2 * scale:
            return staircase_by_flip_set(scale, cap, start)
        comp = complement_by_cases(opponent)
        return comp if segments_of(comp) == cap else pad_by_rescan(comp, cap, scale)

    if ca >= cb:
        fb = staircase_by_flip_set(scale, cb, 1 - start_a)
        return respond(fb, ca, start_a), fb
    fa = staircase_by_flip_set(scale, ca, start_a)
    return fa, respond(fa, cb, 1 - start_a)


def pure_ne_by_sweep(game, capability):
    """Every pure equilibrium at ``capability``, in lexicographic order, by
    a raw deviation sweep over the restricted spaces read off
    ``game.cutoffs``."""
    sizes = [game.cutoffs[p][c - 1] for p, c in enumerate(capability)]
    found = []
    for s in product(*(range(k) for k in sizes)):
        here = game.payoffs[s]
        if all(game.payoffs[s[:p] + (alt,) + s[p + 1:]][p] <= here[p]
               for p in range(len(sizes)) for alt in range(sizes[p])):
            found.append(s)
    return found


def pure_equilibria_by_levels(utilities, levels, capability):
    """Every pure equilibrium, in lexicographic order, when
    player p may play exactly the actions a with ``levels[p][a] <=
    capability[p]``, by a raw deviation sweep over those spaces."""
    shape = utilities[0].shape
    spaces = [[a for a in range(k) if levels[p][a] <= c]
              for p, (k, c) in enumerate(zip(shape, capability))]
    found = []
    for s in product(*spaces):
        if all(utilities[p][s[:p] + (alt,) + s[p + 1:]] <= utilities[p][s]
               for p in range(len(shape)) for alt in spaces[p]):
            found.append(s)
    return found


def cell_by_scan(profiles, lo, hi, capability):
    """The rows of ``profiles`` whose box ``lo <= capability <= hi`` holds
    ``capability``, in row order, by one scan of every box: the slow
    reference for ``game.cell``."""
    inside = ((lo <= capability) & (capability <= hi)).all(axis=1)
    return list(map(tuple, profiles[inside].tolist()))


def pure_equilibria_by_cell(table, cap_a, cap_b, exact=False):
    """Index pairs of every pure equilibrium of a ``StrategyTable`` or an
    ``oracle.PayoffTable`` with at most (with ``exact``, exactly) ``cap_a`` /
    ``cap_b`` segments (a class's level, in the class game), by
    masking the table down to the two spaces and comparing each entry with
    its column's best reply.  An empty space has no equilibrium."""
    within = np.equal if exact else np.less_equal
    rows = np.flatnonzero(within(table.segments, cap_a))
    cols = np.flatnonzero(within(table.segments, cap_b))
    if rows.size == 0 or cols.size == 0:
        return []
    ua = table.ua[np.ix_(rows, cols)]
    ub_t = table.ua[np.ix_(cols, rows)]  # ub_t[j, i] = payoff to B at (rows[i], cols[j])
    best_a = ua == ua.max(axis=0, keepdims=True)
    best_b = (ub_t == ub_t.max(axis=0, keepdims=True)).T
    return [(int(rows[i]), int(cols[j])) for i, j in np.argwhere(best_a & best_b)]


def _solve_over_fractions(rows, nvars):
    """Gauss-Jordan over Fractions; free variables pinned to zero."""
    work = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(nvars):
        r = len(pivots)
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        work[r] = [v / work[r][c] for v in work[r]]
        for i in range(len(work)):
            if i != r:
                work[i] = [v - work[i][c] * w for v, w in zip(work[i], work[r])]
        pivots.append((r, c))
    if any(row[nvars] != 0 for row in work[len(pivots):]):
        return None, "inconsistent"
    solution = [Fraction(0)] * nvars
    for r, c in pivots:
        solution[c] = work[r][nvars]
    return solution, ("unique" if len(pivots) == nvars else "degenerate")


def support_enumeration_over_fractions(a, b):
    """(x, y, values, degenerate) of every equal-support equilibrium of the
    bimatrix game (a, b), in the order and with the flags of
    ``bimatrix.support_enumeration``, by elimination over Fractions and a
    full pure-deviation check."""
    m, k = len(a), len(a[0])
    found = {}
    for size in range(1, min(m, k) + 1):
        for rows, cols in product(combinations(range(m), size),
                                  combinations(range(k), size)):
            ys, y_status = _solve_over_fractions(
                [[a[i][j] for j in cols] + [-1, 0] for i in rows]
                + [[1] * size + [0, 1]], size + 1)
            xs, x_status = _solve_over_fractions(
                [[b[i][j] for i in rows] + [-1, 0] for j in cols]
                + [[1] * size + [0, 1]], size + 1)
            if "inconsistent" in (x_status, y_status):
                continue
            x, y = [Fraction(0)] * m, [Fraction(0)] * k
            for w, i in zip(xs, rows):
                x[i] = w
            for w, j in zip(ys, cols):
                y[j] = w
            x, y = tuple(x), tuple(y)
            if min(x + y) < 0:
                continue
            va = sum(x[i] * a[i][j] * y[j] for i in range(m) for j in range(k))
            vb = sum(x[i] * b[i][j] * y[j] for i in range(m) for j in range(k))
            if (any(sum(a[i][j] * y[j] for j in range(k)) > va for i in range(m))
                    or any(sum(x[i] * b[i][j] for i in range(m)) > vb for j in range(k))):
                continue
            degenerate = ("degenerate" in (x_status, y_status)
                          or 0 in [x[i] for i in rows] + [y[j] for j in cols])
            prev = found.get((x, y))
            found[(x, y)] = (x, y, (va, vb), degenerate or (prev is not None and prev[3]))
    return list(found.values())


# --- helpers that left the library ---
# Tests use these as conveniences and references; no library path needs
# them.  Unlike everything above, they may call the library: for its input
# checks, its site rule, its one-pass engine and its class rule.

from capgames import goldmines, oracle
from capgames.errors import (
    DimensionMismatch,
    LengthMismatch,
    NonConformingInput,
    OutOfRange,
    ScaleLimitExceeded,
)
from capgames.game import _payoff_dtype, cell, ne_boxes
from capgames.goldmines import GameParams, require_closed_form_regime
from capgames.rationals import format_rational, scaled, spell


def parse_strategy(text):
    """A strategy from its 0/1 text; whitespace is ignored."""
    cleaned = "".join(text.split())
    if not all(ch in "01" for ch in cleaned):
        raise NonConformingInput(f"strategy text must be 0/1 characters: {text!r}")
    f = tuple(int(ch) for ch in cleaned)
    goldmines._check_strategy(f)
    return f


def is_complete_gold_coverage(fa, fb):
    """Do the two strategies jointly cover all 2*scale gold sites?"""
    if len(fa) != len(fb):
        raise LengthMismatch(f"strategy lengths differ: {len(fa)} vs {len(fb)}")
    for f in (fa, fb):
        goldmines._check_strategy(f)
    return len(coverage_by_rule(fa)[0] | coverage_by_rule(fb)[0]) == len(fa) // 2


def admissible_start_lines(params):
    """Equilibrium classes that exist for these capabilities: the rule
    ``build_equilibrium`` and the closed form share."""
    return goldmines._start_lines(params.cap_a, params.cap_b, 2 * params.scale)


def equal_capability_welfare(scale, rho, mu, cap):
    """Total welfare at any equilibrium when both capabilities equal ``cap``.

    Both classes then have the same total, so it is the sum of one class's
    ``class_payoffs_by_fractions``.  The slope per useful segment is
    2*rho - mu - 1, so welfare falls as shared capability grows exactly when
    rho < (1 + mu) / 2.
    """
    p = GameParams(scale, rho, mu, cap, cap)
    require_closed_form_regime(p.rho, p.mu)
    return sum(class_payoffs_by_fractions(p, 0))


def table_bytes(scale):
    """Size of the int64 payoff table over every strategy pair at ``scale``."""
    return (2 ** (4 * scale)) ** 2 * 8


def strategy_bits(scale):
    """Every strategy at ``scale`` as a row of bits, in lexicographic order,
    and its segment count.  Refuses a board whose strategy table would pass
    ``oracle.MAX_TABLE_BYTES`` before anything is allocated."""
    if scale < 1:
        raise OutOfRange(f"scale must be at least 1, got {spell(scale)}")
    # table_bytes(scale) is 2**(8*scale + 3): comparing exponents refuses a
    # huge scale without building a huge integer
    if 8 * scale + 3 >= oracle.MAX_TABLE_BYTES.bit_length():
        # past M = 100 the estimate runs to hundreds of digits (and past
        # M = 1,790 to more than str() converts), so give it as a power;
        # a scale with more digits than that is named by its bits
        size = table_bytes(scale) if scale <= 100 else f"2**{spell(8 * scale + 3)}"
        raise ScaleLimitExceeded(
            f"scale {spell(scale)} needs a {size}-byte payoff table, "
            f"over the {oracle.MAX_TABLE_BYTES}-byte limit")
    sites = 4 * scale
    # row i holds the binary digits of i, most significant first
    bits = (np.arange(2**sites)[:, None] >> np.arange(sites - 1, -1, -1)) & 1
    segments = 1 + np.count_nonzero(bits[:, 1:] != bits[:, :-1], axis=1)
    return bits, segments


class StrategyTable:
    """Scaled-integer payoffs over every strategy pair at one (scale, rho,
    mu): the slow reference for the class game of ``oracle.PayoffTable``.

    ``ua[a, b]`` is player A's payoff times ``denominator`` when A plays
    strategy index a and B plays b (lexicographic order); B's payoff is the
    transposed entry, and ``segments[a]`` is strategy a's segment count.
    """

    def __init__(self, scale, rho, mu):
        params = GameParams(scale, rho, mu, 1, 1)
        scale, rho, mu = params.scale, params.rho, params.mu
        bits, self.segments = strategy_bits(scale)
        self.strategies = list(zip(*bits.T.tolist()))
        sites = range(bits.shape[1])
        cover = bits == [goldmines.resource_line(i, scale) for i in sites]
        gold = np.array([goldmines.resource_type(i, scale) == goldmines.GOLD for i in sites])
        golds, k = cover[:, gold], 2 * scale
        (rho_scaled, mu_scaled), den = scaled((rho, mu))
        self.denominator = den
        bound = 2 * scale * (2 * den + abs(rho_scaled) + abs(mu_scaled))
        count = np.arange(k + 1).astype(object)
        value = (den * count[:, None, None] + mu_scaled * count[:, None]
                 + (rho_scaled - den) * count).astype(_payoff_dtype(bound))
        # B enters only through its gold set: by_set[a, G] is A's payoff
        # against gold set G (bit i for the i-th gold); ua takes B's column
        sets = (np.arange(2**k)[:, None] >> np.arange(k)) & 1
        by_set = value[golds.sum(axis=1)[:, None], cover[:, ~gold].sum(axis=1)[:, None],
                       golds @ sets.T]
        self.ua = by_set.take(golds @ (1 << np.arange(k)), axis=1)

    def payoff_pair(self, a, b):
        den = self.denominator
        return Fraction(int(self.ua[a, b]), den), Fraction(int(self.ua[b, a]), den)

    @cached_property
    def _boxes(self):
        return ne_boxes((self.ua, self.ua.T), (self.segments, self.segments))

    def pure_equilibria(self, cap_a, cap_b):
        """Index pairs where neither player can improve inside their space,
        in lexicographic order."""
        top = int(self.segments.max())
        return cell(self._boxes, (min(cap_a, top), min(cap_b, top)))


# one reference table at a time: at M = 3 it holds 32 MB
reference_table = lru_cache(maxsize=1)(StrategyTable)


def enumerate_pure_equilibria(params, strict=False):
    """Every pure equilibrium of the capability-restricted game as strategy
    pairs, in lexicographic profile order, from the strategy-level reference
    table: its one pass for the "at most" spaces, ``pure_equilibria_by_cell``
    for the exact-count ones."""
    table = reference_table(params.scale, params.rho, params.mu)
    if strict:
        pairs = pure_equilibria_by_cell(table, params.cap_a, params.cap_b, exact=True)
    else:
        pairs = table.pure_equilibria(params.cap_a, params.cap_b)
    return [(table.strategies[a], table.strategies[b]) for a, b in pairs]


def verify_strict_ne_coverage(params):
    """Do all pure equilibria over exact-segment spaces jointly cover every gold?

    Expected to hold whenever 0 < rho < -mu < 1; the check runs regardless
    and simply reports what it finds.
    """
    return all(is_complete_gold_coverage(fa, fb)
               for fa, fb in enumerate_pure_equilibria(params, strict=True))


def _check_distribution(p, size, label):
    if len(p) != size:
        raise DimensionMismatch(f"{label} has {len(p)} entries, want {size}")
    if any(v < 0 for v in p) or sum(p) != 1:
        raise DimensionMismatch(f"{label} is not a probability vector")


def expected_payoff(game, x, y):
    """Exact expected payoffs x'Ay and x'By of a ``bimatrix.Bimatrix``."""
    m, k = game.shape
    _check_distribution(x, m, "row strategy")
    _check_distribution(y, k, "column strategy")
    va = sum(x[i] * game.a[i][j] * y[j] for i in range(m) for j in range(k))
    vb = sum(x[i] * game.b[i][j] * y[j] for i in range(m) for j in range(k))
    return Fraction(va), Fraction(vb)


def is_mixed_ne(game, x, y):
    """Equilibrium test via pure deviations, which suffice by linearity."""
    m, k = game.shape
    va, vb = expected_payoff(game, x, y)
    for i in range(m):
        if sum(game.a[i][j] * y[j] for j in range(k)) > va:
            return False
    for j in range(k):
        if sum(x[i] * game.b[i][j] for i in range(m)) > vb:
            return False
    return True


def game_to_json(game):
    """Inverse of ``gamefile.parse_game``, producing plain JSON-serializable data."""
    flat = [
        [format_rational(v) if v.denominator != 1 else v.numerator for v in vec]
        for vec in game.payoffs.values()
    ]
    return {
        "players": [
            {"actions": list(a), "cutoffs": list(c)}
            for a, c in zip(game.actions, game.cutoffs)
        ],
        "payoffs": flat,
    }
