"""Independent re-implementations used as test oracles.

These deliberately recompute things from first principles (the covers-rule,
raw deviation sweeps) rather than calling the code paths under test, so a
bug in the library cannot hide behind itself.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

import numpy as np


def coverage_by_rule(f):
    """(gold sites, mine sites) covered, straight from the stands-on-line rule."""
    covered = [i for i in range(len(f)) if f[i] == (i + 1) % 2]
    gold = {i for i in covered if i % 4 <= 1}
    mine = {i for i in covered if i % 4 >= 2}
    return gold, mine


def flips_by_scan(f):
    """(upward flips, downward flips) by pairwise scan."""
    up = {i for i in range(len(f) - 1) if (f[i], f[i + 1]) == (0, 1)}
    down = {i for i in range(len(f) - 1) if (f[i], f[i + 1]) == (1, 0)}
    return up, down


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


def pure_equilibria_by_cell(table, cap_a, cap_b):
    """Index pairs of every pure equilibrium of an ``oracle.PayoffTable`` with
    at most ``cap_a`` / ``cap_b`` segments, by masking the table down to the
    two spaces and comparing each entry with its column's best reply."""
    rows = np.flatnonzero(table.segments <= cap_a)
    cols = np.flatnonzero(table.segments <= cap_b)
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
