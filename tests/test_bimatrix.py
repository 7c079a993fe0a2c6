import random
import re
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capgames import bimatrix
from capgames import (
    CapabilityGame,
    MixedCtf,
    MixedEquilibrium,
    ctf_mixed,
    ctf_pure,
    restrict_to_bimatrix,
    support_enumeration,
)
from capgames.errors import GameFormatError, PreconditionViolated, SizeLimitExceeded
from capgames.game import cell
from tests._support import (
    cell_by_scan,
    expected_payoff,
    is_mixed_ne,
    support_enumeration_over_fractions,
)

F = Fraction

PENNIES = CapabilityGame.from_matrices(((1, -1), (-1, 1)), ((-1, 1), (1, -1)))

COORDINATION = CapabilityGame.from_matrices(((1, 0), (0, 2)), ((1, 0), (0, 2)))


def test_from_matrices_takes_numpy_integers_and_refuses_inexact_entries():
    build = CapabilityGame.from_matrices
    lists = build([[1, 2]], [[3, 4]])
    assert build(np.array([[1, 2]]), np.array([[3, 4]])) == lists
    assert build([[1, 2]], np.array([[3, 4]])) == lists
    for bad in ([[1.5]], [[True]], [["0.5"]], [[np.float64(1)]]):
        # the game checks each entry, so the refusal names its profile
        with pytest.raises(GameFormatError, match=r"^profile \(0, 0\): "):
            build(bad, [[0]])


def test_expected_payoff_rejects_non_distributions():
    with pytest.raises(GameFormatError):
        expected_payoff(PENNIES, (F(1, 2), F(1, 2), 0), (1, 0))
    with pytest.raises(GameFormatError):
        expected_payoff(PENNIES, (F(3, 4), F(1, 2)), (1, 0))
    with pytest.raises(GameFormatError):
        expected_payoff(PENNIES, (F(3, 2), F(-1, 2)), (1, 0))


def test_matching_pennies_has_exactly_the_uniform_equilibrium():
    found = support_enumeration(PENNIES)
    assert len(found) == 1
    eq = found[0]
    assert eq.x == (F(1, 2), F(1, 2))
    assert eq.y == (F(1, 2), F(1, 2))
    assert eq.values == (0, 0)
    assert not eq.degenerate
    # at (r1, c2) the row player gains by moving to r2; at (r1, c1) the row
    # player is content and the column player gains by moving to c2
    assert not is_mixed_ne(PENNIES, (1, 0), (0, 1))
    assert not is_mixed_ne(PENNIES, (1, 0), (1, 0))


def test_coordination_game_has_three_equilibria():
    found = support_enumeration(COORDINATION)
    keyed = {(eq.x, eq.y): eq for eq in found}
    assert set(keyed) == {
        ((1, 0), (1, 0)),
        ((0, 1), (0, 1)),
        ((F(2, 3), F(1, 3)), (F(2, 3), F(1, 3))),
    }
    assert keyed[(F(2, 3), F(1, 3)), (F(2, 3), F(1, 3))].values == (F(2, 3), F(2, 3))
    assert not any(eq.degenerate for eq in found)


def test_zero_game_flags_degeneracy():
    zero = CapabilityGame.from_matrices(((0, 0), (0, 0)), ((0, 0), (0, 0)))
    found = support_enumeration(zero)
    assert {eq.values for eq in found} == {(0, 0)}
    assert any(eq.degenerate for eq in found)


@pytest.mark.xfail(strict=True, reason=(
    "the degenerate flag misses a best reply outside the support that ties with "
    "the value: both points, (1, 2) and (1, 1), report degenerate=False"))
def test_a_tie_outside_the_support_flags_the_continuum():
    # every mix of the two rows is an equilibrium: payoffs (1, 1 + p), p in [0, 1]
    tie = CapabilityGame.from_matrices([[1], [1]], [[2], [1]])
    assert ctf_mixed(tie, (1, 1)).degenerate is True


def test_support_enumeration_lists_points_by_support_size_then_rows_then_columns():
    # the pure point (r3, c3) comes before the {r1, r2} mix, whose row
    # bitmask 3 is below r3's 4: the order is not the bitmask order
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    found = support_enumeration(CapabilityGame.from_matrices(eye, eye))
    supports = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    expected = []
    for support in supports:
        mix = tuple(F(1, len(support)) if i in support else F(0) for i in range(3))
        expected.append((mix, mix, (F(1, len(support)),) * 2, False))
    assert [(eq.x, eq.y, eq.values, eq.degenerate) for eq in found] == expected


def test_every_reported_equilibrium_verifies():
    rng = random.Random(7341)
    for _ in range(40):
        m, k = rng.randint(2, 4), rng.randint(2, 4)
        a = tuple(tuple(rng.randint(-4, 4) for _ in range(k)) for _ in range(m))
        b = tuple(tuple(rng.randint(-4, 4) for _ in range(k)) for _ in range(m))
        game = CapabilityGame.from_matrices(a, b)
        found = support_enumeration(game)
        assert found, "support enumeration found nothing"
        for eq in found:
            assert is_mixed_ne(game, eq.x, eq.y)
            assert sum(eq.x) == 1 and sum(eq.y) == 1
            assert all(p >= 0 for p in eq.x + eq.y)
            assert eq.values == expected_payoff(game, eq.x, eq.y)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_support_enumeration_matches_elimination_over_fractions(data):
    # small value sets make ties, singular systems and degenerate cells
    # common; the halves, thirds and sevenths exercise the scaling to
    # integers, one scale per player, which a row's own lcm need not equal
    values = st.sampled_from((F(-1), F(0), F(1), F(2), F(1, 2), F(-2, 3), F(5, 7), F(-1000)))
    m, k = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    a, b = (data.draw(st.lists(st.lists(values, min_size=k, max_size=k),
                               min_size=m, max_size=m)) for _ in range(2))
    found = support_enumeration(CapabilityGame.from_matrices(a, b))
    assert [(eq.x, eq.y, eq.values, eq.degenerate) for eq in found] == (
        support_enumeration_over_fractions(a, b))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_support_enumeration_answers_the_top_cell_of_a_multi_level_game(data):
    # read from the pair boxes of a game with random cutoff chains, the top
    # cell's points, order and flags included, are those of the restricted
    # one-level game and of the one-level game of the same matrices
    values = st.sampled_from((F(-1), F(0), F(1), F(2), F(1, 2), F(-2, 3), F(5, 7), F(-1000)))
    m, k = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    a, b = (data.draw(st.lists(st.lists(values, min_size=k, max_size=k),
                               min_size=m, max_size=m)) for _ in range(2))
    c1, c2 = ([i for i in range(1, size) if data.draw(st.booleans())] + [size]
              for size in (m, k))
    game = CapabilityGame.from_matrices(a, b, c1, c2)
    found = support_enumeration(game)
    assert found == support_enumeration(restrict_to_bimatrix(game, game.bounds))
    assert found == support_enumeration(CapabilityGame.from_matrices(a, b))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_ctf_mixed_matches_elimination_over_fractions_at_every_cell(data):
    # random cutoff chains over the same small value sets
    values = st.sampled_from((F(-1), F(0), F(1), F(2), F(1, 2), F(-2, 3), F(5, 7), F(-1000)))
    m, k = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    a, b = (data.draw(st.lists(st.lists(values, min_size=k, max_size=k),
                               min_size=m, max_size=m)) for _ in range(2))
    c1, c2 = ([i for i in range(1, size) if data.draw(st.booleans())] + [size]
              for size in (m, k))
    _assert_every_cell_matches_elimination_over_fractions(a, b, c1, c2)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cell_reads_the_support_pairs_a_scan_of_every_box_finds(data):
    # payoffs 0..2 tie often, so boxes overlap; each level from 0 to one
    # past the top, where no pair is open
    m, k = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    a, b = (data.draw(st.lists(st.lists(st.integers(0, 2), min_size=k, max_size=k),
                               min_size=m, max_size=m)) for _ in range(2))
    c1, c2 = ([i for i in range(1, size) if data.draw(st.booleans())] + [size]
              for size in (m, k))
    _, boxes = bimatrix._pair_boxes(CapabilityGame.from_matrices(a, b, c1, c2))
    for cap in product(range(len(c1) + 2), range(len(c2) + 2)):
        assert cell(boxes, cap) == cell_by_scan(boxes.profiles, boxes.lo, boxes.hi, cap)


def _assert_every_cell_matches_elimination_over_fractions(a, b, c1, c2):
    """Check ``ctf_mixed`` at every cell of the game (a, b) with the given
    cutoff chains against the reference run on the cell's restricted
    matrices; returns the game."""
    game = CapabilityGame.from_matrices(a, b, c1, c2)
    for (la, rows), (lb, cols) in product(enumerate(c1, 1), enumerate(c2, 1)):
        reference = support_enumeration_over_fractions([row[:cols] for row in a[:rows]],
                                                       [row[:cols] for row in b[:rows]])
        assert ctf_mixed(game, (la, lb)) == MixedCtf(
            frozenset(pair for _, _, pair, _ in reference),
            any(degenerate for *_, degenerate in reference)), (la, lb)
    return game


def test_pure_equilibria_appear_as_unit_vectors():
    rng = random.Random(99)
    for _ in range(25):
        a = tuple(tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3))
        b = tuple(tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3))
        game = CapabilityGame.from_matrices(a, b)
        pure_by_scan = {
            (i, j)
            for i, j in product(range(3), range(3))
            if all(a[r][j] <= a[i][j] for r in range(3))
            and all(b[i][c] <= b[i][j] for c in range(3))
        }
        from_mixed = {
            (eq.x.index(1), eq.y.index(1))
            for eq in support_enumeration(game)
            if set(eq.x) <= {0, 1} and set(eq.y) <= {0, 1}
        }
        assert pure_by_scan == from_mixed


def test_size_limit_guard():
    zeros = [[0] * 9] * 9
    big = CapabilityGame.from_matrices(zeros, zeros)
    with pytest.raises(SizeLimitExceeded, match=r"^9x9 exceeds the 8-action bound$"):
        support_enumeration(big)


def _shrink_game():
    # player 2 has no capability variation: a single level with both columns
    return CapabilityGame.from_matrices(
        [[1, -1], [2, 0]],
        [[2, 1], [1, 2]],
        cutoffs1=(1, 2),
        cutoffs2=(2,),
    )


def test_restriction_to_bimatrix():
    g = _shrink_game()
    sub = restrict_to_bimatrix(g, (1, 1))
    assert sub == CapabilityGame((("r1",), ("c1", "c2")), ((1,), (2,)),
                                 {(0, 0): (1, 2), (0, 1): (-1, 1)})
    three = CapabilityGame(
        actions=(("x",), ("x",), ("x",)),
        cutoffs=((1,), (1,), (1,)),
        payoffs={(0, 0, 0): (0, 0, 0)},
    )
    with pytest.raises(PreconditionViolated):
        restrict_to_bimatrix(three, (1, 1, 1))
    with pytest.raises(PreconditionViolated):
        ctf_mixed(three, (1, 1, 1))
    with pytest.raises(PreconditionViolated, match="^mixed analysis needs 2 players, got 3$"):
        support_enumeration(three)


def test_mixed_ctf_agrees_with_pure_on_the_shrinking_example():
    g = _shrink_game()
    for caps in [(1, 1), (2, 1)]:
        result = ctf_mixed(g, caps)
        assert result.payoffs == ctf_pure(g, caps)
        assert not result.degenerate
    assert ctf_mixed(g, (1, 1)).payoffs == frozenset({(1, 2)})
    assert ctf_mixed(g, (2, 1)).payoffs == frozenset({(0, 2)})


@pytest.mark.parametrize("stray", [None, (2, 2)])
def test_a_game_with_a_missing_profile_never_reaches_ctf_mixed(stray):
    # ctf_mixed reads only the restricted cells: unchecked, this game would
    # answer capability (1, 1) and fail only at (2, 1), where (1, 1) is read
    payoffs = {(0, 0): (1, 2), (0, 1): (-1, 1), (1, 0): (2, 1)}
    if stray is not None:
        payoffs[stray] = (0, 0)  # the right count, under a key that is no profile
    with pytest.raises(GameFormatError):
        ctf_mixed(CapabilityGame((("r1", "r2"), ("c1", "c2")), ((1, 2), (2,)), payoffs),
                  (1, 1))


def test_mixed_ctf_includes_strictly_mixed_points():
    pennies_game = CapabilityGame.from_matrices(
        [[1, -1], [-1, 1]],
        [[-1, 1], [1, -1]],
    )
    assert ctf_pure(pennies_game, (1, 1)) == frozenset()
    assert ctf_mixed(pennies_game, (1, 1)).payoffs == frozenset({(0, 0)})


def test_ctf_mixed_answers_each_cell_within_the_bound_and_refuses_the_rest():
    # a tie-heavy 10x10 game: the cells within the 8-action bound are read
    # from the boxes of its top-left 8x8 subgame, the others are refused
    rng = random.Random(2210)
    a, b = ([[rng.randint(0, 3) for _ in range(10)] for _ in range(10)] for _ in range(2))
    cutoffs = (4, 8, 10)
    game = CapabilityGame.from_matrices(a, b, cutoffs, cutoffs)
    for caps in product((1, 2, 3), repeat=2):
        ra, rb = (cutoffs[c - 1] for c in caps)
        if max(ra, rb) > 8:
            with pytest.raises(SizeLimitExceeded,
                               match=re.escape(f"{ra}x{rb} exceeds the 8-action bound")):
                ctf_mixed(game, caps)
            continue
        reference = support_enumeration(restrict_to_bimatrix(game, caps))
        assert ctf_mixed(game, caps) == MixedCtf(
            frozenset(eq.values for eq in reference),
            any(eq.degenerate for eq in reference)), caps


def test_the_grid_solves_each_support_pair_of_the_game_at_most_once(monkeypatch):
    rng = random.Random(923)
    a, b = ([[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)] for _ in range(2))
    game = CapabilityGame.from_matrices(a, b, (2, 4, 6), (2, 4, 6))
    top = support_enumeration(CapabilityGame.from_matrices(a, b))
    solve, calls = bimatrix._solve, []
    monkeypatch.setattr(bimatrix, "_solve", lambda *args: calls.append(args) or solve(*args))

    def no_restriction(*args):
        raise AssertionError("the grid reads the game's integer form, not a restricted game")

    monkeypatch.setattr(bimatrix, "restrict_to_bimatrix", no_restriction)
    cells = list(product((1, 2, 3), repeat=2))
    for caps in cells:
        ctf_mixed(game, caps)
    # the full game has sum C(6, s)**2 = 923 support pairs, two systems each
    assert 0 < len(calls) <= 2 * 923
    # pairs with a conditionally dominated line go unsolved: 1,006 calls without
    assert len(calls) == 320
    calls.clear()
    for caps in cells:
        ctf_mixed(game, caps)
    # the top cell is read from the same boxes, and equals the one-level game's
    assert support_enumeration(game) == top
    assert calls == []


@pytest.mark.parametrize("width, dtype", [(30_000, np.int16), (2**70, object)],
                         ids=["int16", "object"])
def test_wide_payoffs_match_elimination_over_fractions(width, dtype):
    # int16 payoffs whose products overflow int16, and payoffs past int64:
    # the solver must do its arithmetic on Python integers, never on numpy
    # scalars (an overflow warning fails the run)
    rng = random.Random(width % 1009)
    values = (-width, 1 - width, width - 1, width)
    for _ in range(30):
        m, k = rng.randint(1, 4), rng.randint(1, 4)
        a, b = ([[rng.choice(values) for _ in range(k)] for _ in range(m)] for _ in range(2))
        c1, c2 = ([i for i in range(1, size) if rng.random() < 0.5] + [size]
                  for size in (m, k))
        game = _assert_every_cell_matches_elimination_over_fractions(a, b, c1, c2)
        assert all(u.dtype == dtype for u in game._integer_form[0])
        found = support_enumeration(CapabilityGame.from_matrices(a, b))
        assert [(eq.x, eq.y, eq.values, eq.degenerate) for eq in found] == (
            support_enumeration_over_fractions(a, b))


def test_conditional_dominance_skips_only_pairs_that_fail_on_five_and_six_action_games():
    # sizes where most support pairs are skipped unsolved: every cell, and
    # the top cell's points with their order and flags, against the
    # reference, which solves every pair over Fractions
    rng = random.Random(3060)
    for n, (lo, hi) in product((5, 6), ((-1000, 1000), (0, 2))):
        a, b = ([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)] for _ in range(2))
        c1, c2 = ([i for i in range(1, n) if rng.random() < 0.5] + [n] for _ in range(2))
        game = _assert_every_cell_matches_elimination_over_fractions(a, b, c1, c2)
        assert [(eq.x, eq.y, eq.values, eq.degenerate) for eq in support_enumeration(game)] == (
            support_enumeration_over_fractions(a, b))


@pytest.mark.parametrize("name", ["zero", "identity"])
def test_zero_and_identity_8x8_games_keep_every_point_and_box(name, monkeypatch):
    # 8x8, levels 2, 4, 6, 8: no line strictly beats another on a whole
    # support of two or more, so the skip may drop nothing.  In the zero game
    # every pair is a (degenerate past size 1) equilibrium on the unit
    # vectors of its first row and column; in the identity game the diagonal
    # pairs are, uniformly mixed; no line ever beats the value
    eye = [[int(i == j) for j in range(8)] for i in range(8)]
    matrix = [[0] * 8] * 8 if name == "zero" else eye
    solve, calls = bimatrix._solve, []
    monkeypatch.setattr(bimatrix, "_solve", lambda *args: calls.append(args) or solve(*args))
    points, boxes = bimatrix._pair_boxes(
        CapabilityGame.from_matrices(matrix, matrix, (2, 4, 6, 8), (2, 4, 6, 8)))
    expected, lows = [], []
    for size in range(1, 9):
        for rows, cols in product(combinations(range(8), size), repeat=2):
            if name == "zero":
                x, y = ([F(int(i == s[0])) for i in range(8)] for s in (rows, cols))
                expected.append(MixedEquilibrium(tuple(x), tuple(y), (0, 0), size > 1))
            elif rows == cols:
                mix = tuple(F(1, size) if i in rows else F(0) for i in range(8))
                expected.append(MixedEquilibrium(mix, mix, (F(1, size),) * 2, False))
            else:
                continue
            lows.append((rows[-1] // 2 + 1, cols[-1] // 2 + 1))
    assert points == expected
    assert boxes.lo.tolist() == [list(low) for low in lows]
    assert boxes.hi.tolist() == [[4, 4]] * len(points)
    if name == "zero":
        assert len(calls) == 2 * 12869  # nothing is beaten, so every pair is solved
