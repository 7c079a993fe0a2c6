"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single ``ACCEPTANCE n (<name>): PASS/FAIL`` line (visible
with ``pytest -s``) and fails loudly if the guarantee does not hold.  All
comparisons are exact rational equality; the only tolerances anywhere are
the two wall-clock budgets, which are part of the guarantees themselves.
"""

import random
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

from capgames.bimatrix import support_enumeration
from capgames.cli import cmd_game_ctf
from capgames.game import CapabilityGame
from capgames.goldmines import (
    GameParams,
    aligned_coverage_counts,
    equilibrium_payoffs,
    is_aligned,
    is_perfect_cover,
    pad_segments,
    segment_count,
    summarize,
)
from capgames.oracle import verify_closed_form
from tests._support import random_aligned, verify_strict_ne_coverage

F = Fraction
FIXTURE = str(Path(__file__).parent / "data" / "capability_decrease.json")

PARAM_PAIRS = [
    (F(1, 2), F(-3, 4)),
    (F(1, 4), F(-1, 2)),
    (F(3, 5), F(-7, 10)),
]


def report(n, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    tail = f" — {detail}" if detail else ""
    print(f"ACCEPTANCE {n} ({name}): {verdict}{tail}")
    assert ok, f"acceptance check {n} ({name}) failed{tail}"


def _payoff_cells(mode):
    table = cmd_game_ctf(FIXTURE, mode=mode)
    return {tuple(row[:2]): set(row[2]) for row in table.rows}


def test_1_fixture_transfer_function_exact():
    start = time.perf_counter()
    pure = _payoff_cells("pure")
    mixed = _payoff_cells("mixed")
    elapsed = time.perf_counter() - start
    ok = (
        pure[(1, 1)] == {(1, 2)}
        and pure[(2, 1)] == {(0, 2)}
        and mixed[(1, 1)] == {(1, 2)}
        and mixed[(2, 1)] == {(0, 2)}
        and elapsed < 1.0
    )
    report(1, "fixture transfer function, pure and mixed", ok,
           f"f(1,1)={sorted(pure[(1, 1)])}, f(2,1)={sorted(pure[(2, 1)])}, "
           f"{elapsed:.3f}s")


def test_2_closed_form_matches_brute_force_everywhere():
    failures = []
    checked = 0
    slow_part = 0.0
    for scale in (1, 2):
        t0 = time.perf_counter()
        for (rho, mu), ca, cb in product(
            PARAM_PAIRS, range(1, 2 * scale + 3), range(1, 2 * scale + 3)
        ):
            r = verify_closed_form(GameParams(scale, rho, mu, ca, cb))
            checked += 1
            if not r.match:
                failures.append((scale, str(rho), str(mu), ca, cb))
        if scale == 2:
            slow_part = time.perf_counter() - t0
    ok = not failures and slow_part < 60.0
    report(2, "closed form equals brute force on the capability grid", ok,
           f"{checked} parameter points, scale-2 sweep {slow_part:.1f}s"
           + (f", failures: {failures[:5]}" if failures else ""))


def test_3_aligned_coverage_counts_agree_with_summaries():
    bad = 0
    checked = 0
    for scale in (1, 2):
        for f in product((0, 1), repeat=4 * scale):
            if not is_aligned(f):
                continue
            s = summarize(f)
            checked += 1
            if aligned_coverage_counts(s.segments, f[0], scale) != (s.n_gold, s.n_mine):
                bad += 1
    rng = random.Random(0xA11E5)
    for scale in (3, 4, 5):
        for _ in range(1000):
            f = random_aligned(rng, scale)
            s = summarize(f)
            checked += 1
            if aligned_coverage_counts(s.segments, f[0], scale) != (s.n_gold, s.n_mine):
                bad += 1
    report(3, "coverage counts from shape alone", bad == 0,
           f"{checked} aligned strategies, {bad} disagreements")


def test_4_strict_equilibria_jointly_cover_every_gold():
    bad = []
    for scale in (1, 2):
        for (rho, mu), ca, cb in product(
            PARAM_PAIRS, range(1, 2 * scale + 2), range(1, 2 * scale + 2)
        ):
            if not verify_strict_ne_coverage(GameParams(scale, rho, mu, ca, cb)):
                bad.append((scale, str(rho), str(mu), ca, cb))
    report(4, "exact-segment equilibria always cover all golds", not bad,
           f"failures: {bad[:5]}" if bad else "all capability pairs checked")


def test_5_padding_postconditions_on_random_inputs():
    bad = 0
    for scale in (2, 3):
        rng = random.Random(0x5EED + scale)
        done = 0
        while done < 500:
            f = random_aligned(rng, scale)
            if is_perfect_cover(f, 4 * scale - 4, 4 * scale - 1):
                continue
            if segment_count(f) > 2 * scale - 1:
                continue
            target = rng.randint(segment_count(f), 2 * scale - 1)
            out = pad_segments(f, target, scale)
            if not (
                segment_count(out) == target
                and summarize(f).gold_sites <= summarize(out).gold_sites
                and out[0] == f[0]
                and is_aligned(out)
            ):
                bad += 1
            done += 1
    report(5, "segment padding keeps gold, start bit, and alignment", bad == 0,
           f"1000 randomized inputs, {bad} postcondition violations")


def test_6_welfare_identity_on_the_equal_capability_diagonal():
    bad = []
    for scale in (1, 2):
        for (rho, mu), cap in product(PARAM_PAIRS, range(1, 2 * scale + 3)):
            expected = (2 * rho - mu - 1) * (min(cap, 2 * scale + 1) - 1) \
                + 2 * (mu + 1) * scale
            vectors = equilibrium_payoffs(GameParams(scale, rho, mu, cap, cap))
            if any(u + v != expected for u, v in vectors):
                bad.append((scale, str(rho), str(mu), cap))
    report(6, "equal-capability welfare identity", not bad,
           f"failures: {bad[:5]}" if bad else "every payoff vector sums to the formula")


def test_7_more_options_can_strictly_hurt():
    pure = _payoff_cells("pure")
    mixed = _payoff_cells("mixed")
    lo_pure = min(v[0] for v in pure[(1, 1)])
    hi_pure = max(v[0] for v in pure[(2, 1)])
    lo_mixed = min(v[0] for v in mixed[(1, 1)])
    hi_mixed = max(v[0] for v in mixed[(2, 1)])
    ok = lo_pure > hi_pure and lo_mixed > hi_mixed
    report(7, "player 1's payoff drops when only their space grows", ok,
           f"min f1(1,1)={lo_pure} > max f1(2,1)={hi_pure}")


def test_8_matching_pennies_solves_exactly():
    pennies = CapabilityGame.from_matrices(((1, -1), (-1, 1)), ((-1, 1), (1, -1)))
    found = support_enumeration(pennies)
    half = F(1, 2)
    ok = (
        len(found) == 1
        and found[0].x == (half, half)
        and found[0].y == (half, half)
        and found[0].values == (0, 0)
    )
    report(8, "matching pennies has exactly the uniform equilibrium", ok,
           f"{len(found)} equilibrium point(s)")
