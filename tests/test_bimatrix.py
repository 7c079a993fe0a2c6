import random
import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capgames import bimatrix
from capgames import (
    Bimatrix,
    CapabilityGame,
    MixedCtf,
    ctf_mixed,
    ctf_pure,
    restrict_to_bimatrix,
    support_enumeration,
)
from capgames.errors import (
    DimensionMismatch,
    GameFormatError,
    IncompletePayoffs,
    NotTwoPlayer,
    SizeLimitExceeded,
)
from capgames.game import cell
from tests._support import (
    cell_by_scan,
    expected_payoff,
    is_mixed_ne,
    support_enumeration_over_fractions,
)

F = Fraction

PENNIES = Bimatrix(
    a=((1, -1), (-1, 1)),
    b=((-1, 1), (1, -1)),
)

COORDINATION = Bimatrix(
    a=((1, 0), (0, 2)),
    b=((1, 0), (0, 2)),
)


def test_shape_validation():
    with pytest.raises(DimensionMismatch):
        Bimatrix(a=((1, 2), (3,)), b=((0, 0), (0, 0)))
    with pytest.raises(DimensionMismatch):
        Bimatrix(a=((1, 2),), b=((0,),))
    with pytest.raises(DimensionMismatch):
        Bimatrix(a=(), b=())
    with pytest.raises(DimensionMismatch):
        Bimatrix(a=[1], b=[1])
    with pytest.raises(DimensionMismatch):
        Bimatrix(a=None, b=None)
    with pytest.raises(DimensionMismatch):
        Bimatrix(a=["ab"], b=["ab"])
    with pytest.raises(DimensionMismatch):
        Bimatrix(a=[{1, 2}], b=[{3, 4}])


@pytest.mark.parametrize("build", [Bimatrix, CapabilityGame.from_matrices],
                         ids=["Bimatrix", "from_matrices"])
def test_both_constructors_take_numpy_integers_and_refuse_inexact_entries(build):
    lists = build([[1, 2]], [[3, 4]])
    assert build(np.array([[1, 2]]), np.array([[3, 4]])) == lists
    assert build([[1, 2]], np.array([[3, 4]])) == lists
    for bad in ([[1.5]], [[True]], [["0.5"]], [[np.float64(1)]]):
        with pytest.raises(GameFormatError):
            build(bad, [[0]])


def test_expected_payoff_rejects_non_distributions():
    with pytest.raises(DimensionMismatch):
        expected_payoff(PENNIES, (F(1, 2), F(1, 2), 0), (1, 0))
    with pytest.raises(DimensionMismatch):
        expected_payoff(PENNIES, (F(3, 4), F(1, 2)), (1, 0))
    with pytest.raises(DimensionMismatch):
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
    zero = Bimatrix(a=((0, 0), (0, 0)), b=((0, 0), (0, 0)))
    found = support_enumeration(zero)
    assert {eq.values for eq in found} == {(0, 0)}
    assert any(eq.degenerate for eq in found)


def test_every_reported_equilibrium_verifies():
    rng = random.Random(7341)
    for _ in range(40):
        m, k = rng.randint(2, 4), rng.randint(2, 4)
        a = tuple(tuple(rng.randint(-4, 4) for _ in range(k)) for _ in range(m))
        b = tuple(tuple(rng.randint(-4, 4) for _ in range(k)) for _ in range(m))
        game = Bimatrix(a=a, b=b)
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
    found = support_enumeration(Bimatrix(a=a, b=b))
    assert [(eq.x, eq.y, eq.values, eq.degenerate) for eq in found] == (
        support_enumeration_over_fractions(a, b))


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
        game = Bimatrix(a=a, b=b)
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
    n = 9
    zero_row = tuple(0 for _ in range(n))
    big = Bimatrix(a=(zero_row,) * n, b=(zero_row,) * n)
    with pytest.raises(SizeLimitExceeded):
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
    assert sub.a == ((1, -1),)
    assert sub.b == ((2, 1),)
    three = CapabilityGame(
        actions=(("x",), ("x",), ("x",)),
        cutoffs=((1,), (1,), (1,)),
        payoffs={(0, 0, 0): (0, 0, 0)},
    )
    with pytest.raises(NotTwoPlayer):
        restrict_to_bimatrix(three, (1, 1, 1))
    with pytest.raises(NotTwoPlayer):
        ctf_mixed(three, (1, 1, 1))


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
    with pytest.raises(IncompletePayoffs):
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
    solve, calls = bimatrix._solve, []
    monkeypatch.setattr(bimatrix, "_solve", lambda *args: calls.append(args) or solve(*args))

    def no_bimatrix(*args):
        raise AssertionError("the grid reads the game's integer form, not a Bimatrix")

    monkeypatch.setattr(bimatrix, "restrict_to_bimatrix", no_bimatrix)
    cells = list(product((1, 2, 3), repeat=2))
    for caps in cells:
        ctf_mixed(game, caps)
    # the full game has sum C(6, s)**2 = 923 support pairs, two systems each
    assert 0 < len(calls) <= 2 * 923
    calls.clear()
    for caps in cells:
        ctf_mixed(game, caps)
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
        found = support_enumeration(Bimatrix(a, b))
        assert [(eq.x, eq.y, eq.values, eq.degenerate) for eq in found] == (
            support_enumeration_over_fractions(a, b))
