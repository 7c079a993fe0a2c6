import random
import tracemalloc
from fractions import Fraction
from itertools import product
from math import prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capgames import (
    CapabilityGame,
    Positivity,
    ctf_pure,
    enumerate_pure_ne,
    equilibrium_welfare_levels,
    is_capability_positive,
    is_pure_ne,
)
from capgames.errors import (
    DimensionMismatch,
    EmptyGame,
    GameFormatError,
    HierarchyViolation,
    IncompletePayoffs,
    OutOfBounds,
    UnequalBounds,
)
from capgames.game import cell, ne_boxes, restricted_sizes
from tests._support import cell_by_scan, pure_equilibria_by_levels, pure_ne_by_sweep

# 2x2 game in which giving player 1 a second action strictly lowers their
# equilibrium payoff: the canonical "more options can hurt" example used
# throughout the suite.  Player 2's space never varies (a single level).
SHRINK = CapabilityGame.from_matrices(
    [[1, -1], [2, 0]],
    [[2, 1], [1, 2]],
    cutoffs1=(1, 2),
    cutoffs2=(2,),
)


def _full_payoffs(shape, value=(0, 0)):
    return {p: value for p in product(*(range(k) for k in shape))}


def test_from_matrices_round_trip():
    g = SHRINK
    assert g.actions == (("r1", "r2"), ("c1", "c2"))
    assert g.payoffs[(0, 1)] == (-1, 1)
    assert g.payoffs[(1, 0)] == (2, 1)
    assert g.n_players == 2
    assert g.bounds == (2, 1)
    assert all(type(v) is Fraction for vec in g.payoffs.values() for v in vec)


@pytest.mark.parametrize(
    "u1,u2",
    [
        ([[1, 2], [3]], [[1, 2], [3, 4]]),  # short row in u1
        ([[1, 2], [3, 4]], [[1, 2], [3]]),  # short row in u2
        ([[1, 2], [3, 4]], [[1, 2], [3, 4], [5, 6]]),  # extra row in u2
        ([[1, 2], [3, 4]], [[1, 2, 0], [3, 4, 0]]),  # extra column in u2
        ([[1, 2], [3, 4]], [[1, 2]]),  # missing row in u2
        ([1], [1]),  # rows that are no sequences
        ([[1]], [1]),  # a row of u2 that is no sequence
        (None, [[1]]),  # a matrix that is no sequence
        (["ab"], ["ab"]),  # rows that are strings would split into characters
        ([], []),  # no rows
        ([[]], [[]]),  # no columns
        ([{5: 1}], [[0]]),  # a row with no column order
    ],
)
def test_from_matrices_rejects_ragged_or_mismatched_matrices(u1, u2):
    with pytest.raises(DimensionMismatch):
        CapabilityGame.from_matrices(u1, u2)


def test_from_matrices_hands_its_cutoffs_to_the_game_check():
    with pytest.raises(HierarchyViolation, match="cutoffs must be integers, got 5"):
        CapabilityGame.from_matrices([[1]], [[1]], 5, None)
    game = CapabilityGame.from_matrices([[1, 2]], [[1, 2]], None, np.array([1, 2]))
    assert game.cutoffs == ((1,), (1, 2))
    assert all(type(c) is int for c in game.cutoffs[1])


def test_construction_rejects_no_players():
    with pytest.raises(EmptyGame):
        CapabilityGame(actions=(), cutoffs=(), payoffs={})


def test_construction_rejects_empty_action_list():
    with pytest.raises(EmptyGame):
        CapabilityGame(actions=(("a",), ()), cutoffs=((1,), (0,)), payoffs={})


def test_construction_rejects_a_missing_chain():
    with pytest.raises(HierarchyViolation, match="one cutoff chain required per player"):
        CapabilityGame((("a",), ("l",)), ((1,),), {(0, 0): (0, 0)})


@pytest.mark.parametrize(
    "bad",
    [
        (2, 1),  # decreasing
        (2, 2),  # not strict
        (1,),  # last != action count
        (0, 2),  # zero level
        (),  # empty chain
    ],
)
def test_construction_rejects_bad_cutoffs(bad):
    with pytest.raises(HierarchyViolation):
        CapabilityGame(
            actions=(("a", "b"), ("l", "r")),
            cutoffs=(bad, (1, 2)),
            payoffs=_full_payoffs((2, 2)),
        )


def test_construction_rejects_missing_and_extra_profiles():
    full = _full_payoffs((2, 2))
    partial = dict(full)
    del partial[(1, 1)]
    with pytest.raises(IncompletePayoffs):
        CapabilityGame((("a", "b"), ("l", "r")), ((1, 2), (1, 2)), partial)
    # the right number of entries, one of them under a key that is no profile
    wrong_key = dict(partial)
    wrong_key[(2, 2)] = (0, 0)
    with pytest.raises(IncompletePayoffs, match="missing payoff for profile"):
        CapabilityGame((("a", "b"), ("l", "r")), ((1, 2), (1, 2)), wrong_key)
    short_vector = dict(full)
    short_vector[(1, 1)] = (0,)
    with pytest.raises(IncompletePayoffs):
        CapabilityGame((("a", "b"), ("l", "r")), ((1, 2), (1, 2)), short_vector)


def test_construction_rejects_a_payoff_that_is_no_sequence():
    with pytest.raises(IncompletePayoffs, match="must be a sequence"):
        CapabilityGame((("a",),), ((1,),), {(0,): 5})


def test_construction_rejects_a_null_payoff_vector():
    # a listed None is a vector of the wrong kind, not a missing one
    with pytest.raises(IncompletePayoffs, match="must be a sequence, got None"):
        CapabilityGame((("a",),), ((1,),), {(0,): None})


def test_construction_rejects_a_string_payoff_vector():
    # one character, one player: "7" must not pass as the vector (7,)
    with pytest.raises(IncompletePayoffs, match="must be a sequence"):
        CapabilityGame((("a",),), ((1,),), {(0,): "7"})


def test_construction_rejects_a_string_cutoff():
    for cutoff in ("1", True):  # a boolean is no integer either
        with pytest.raises(HierarchyViolation, match="cutoffs must be integers"):
            CapabilityGame((("a",),), ((cutoff,),), {(0,): (7,)})


def test_construction_keeps_integer_cutoffs():
    g = CapabilityGame((("a", "b"),), ((np.int64(1), 2),), {(0,): (1,), (1,): (2,)})
    assert g.cutoffs == ((1, 2),)
    assert all(type(c) is int for c in g.cutoffs[0])


def test_space_size_rejects_a_level_that_is_no_integer():
    for level in (1.0, True):
        with pytest.raises(OutOfBounds, match="must be integers"):
            SHRINK.space_size(0, level)


def test_space_size_rejects_a_player_out_of_range():
    with pytest.raises(OutOfBounds, match="player 3 outside 0..1"):
        SHRINK.space_size(3, 1)
    with pytest.raises(OutOfBounds, match="player -1 outside 0..1"):
        SHRINK.space_size(-1, 1)
    assert SHRINK.space_size(np.int64(1), np.int64(1)) == 2


def test_construction_rejects_a_repeated_cutoff():
    # a repeated cutoff would leave level 2 of player 2 without an action
    with pytest.raises(HierarchyViolation):
        CapabilityGame.from_matrices([[1, 2]], [[1, 2]], cutoffs2=(1, 1, 2))


@pytest.mark.parametrize("bad", [0.5, 1.0, "0.5", True, None],
                         ids=["float", "whole-float", "decimal-string", "bool", "none"])
def test_construction_rejects_an_inexact_payoff(bad):
    payoffs = _full_payoffs((2, 2))
    payoffs[(1, 0)] = (0, bad)
    with pytest.raises(GameFormatError, match=r"profile \(1, 0\)"):
        CapabilityGame((("a", "b"), ("l", "r")), ((1, 2), (2,)), payoffs)


def test_equal_payoffs_share_one_fraction():
    g = CapabilityGame((("a", "b"), ("x",)), ((2,), (1,)),
                       {(0, 0): (3, "1/2"), (1, 0): ("1/2", 3)})
    (three, half), (half_again, three_again) = g.payoffs.values()
    assert three is three_again and half is half_again
    assert (three, half) == (3, Fraction(1, 2))


@pytest.mark.parametrize("flag", [True, np.bool_(True)], ids=["bool", "numpy-bool"])
def test_a_boolean_after_an_equal_integer_is_still_refused(flag):
    # True == 1 and np.bool_(True) == 1, with equal hashes
    payoffs = _full_payoffs((2, 2), (1, 1))
    payoffs[(1, 1)] = (1, flag)
    why = "booleans are not rationals" if flag is True else "expected an exact rational, got bool"
    with pytest.raises(GameFormatError, match=rf"^profile \(1, 1\): {why}"):
        CapabilityGame((("a", "b"), ("l", "r")), ((1, 2), (2,)), payoffs)


def test_game_keeps_its_own_payoffs():
    payoffs = {(0, 0): (1, 2), (0, 1): (-1, 1), (1, 0): (2, 1), (1, 1): (0, 2)}
    g = CapabilityGame((("r1", "r2"), ("c1", "c2")), ((1, 2), (2,)), payoffs)
    payoffs[(0, 0)] = (5, 5)
    assert g.payoffs[(0, 0)] == (1, 2)
    assert ctf_pure(g, (1, 1)) == ctf_pure(SHRINK, (1, 1)) == {(1, 2)}


def test_restricted_sizes_and_bounds_checks():
    assert restricted_sizes(SHRINK, (1, 1)) == (1, 2)
    assert restricted_sizes(SHRINK, (2, 1)) == (2, 2)
    with pytest.raises(OutOfBounds):
        restricted_sizes(SHRINK, (0, 1))
    with pytest.raises(OutOfBounds):
        restricted_sizes(SHRINK, (3, 1))
    with pytest.raises(OutOfBounds):
        restricted_sizes(SHRINK, (1, 2))  # player 2 has a single level
    with pytest.raises(OutOfBounds):
        restricted_sizes(SHRINK, (1, 1, 1))
    with pytest.raises(OutOfBounds):
        is_pure_ne(SHRINK, (1, 1), (1, 0))  # action outside the level-1 space
    with pytest.raises(OutOfBounds):
        is_pure_ne(SHRINK, (1, 1), (0,))  # one action for two players
    with pytest.raises(OutOfBounds):
        ctf_pure(SHRINK, (3, 1))
    with pytest.raises(OutOfBounds):
        ctf_pure(SHRINK, (1, 1, 1))


@pytest.mark.parametrize("read,message", [
    (lambda: ctf_pure(SHRINK, (0, 1)), "capability 0 for player 1 outside 1..2"),
    (lambda: ctf_pure(SHRINK, (1, 2)), "capability 2 for player 2 outside 1..1"),
    (lambda: ctf_pure(SHRINK, (1.0, 1)), "capability profile must hold integers, got (1.0, 1)"),
    (lambda: SHRINK.space_size(0, 0), "capability 0 for player 1 outside 1..2"),
    (lambda: SHRINK.space_size(0, 3), "capability 3 for player 1 outside 1..2"),
    (lambda: SHRINK.space_size(0, 1.0), "player and capability must be integers, got 0, 1.0"),
], ids=["ctf-zero", "ctf-past-top", "ctf-float", "size-zero", "size-past-top", "size-float"])
def test_ctf_pure_and_space_size_refuse_a_bad_level_with_its_message(read, message):
    with pytest.raises(OutOfBounds) as refused:
        read()
    assert str(refused.value) == message


def test_capabilities_and_actions_must_be_integers():
    with pytest.raises(OutOfBounds, match="must hold integers"):
        ctf_pure(SHRINK, (1.0, 1))
    with pytest.raises(OutOfBounds, match="must hold integers"):
        restricted_sizes(SHRINK, ("1", 1))
    with pytest.raises(OutOfBounds, match="must hold integers"):
        ctf_pure(SHRINK, (True, 1))  # a boolean would read as level 1
    # 1.0 lies inside the restricted space of size 2, so only its type is wrong
    with pytest.raises(OutOfBounds, match="must hold integers"):
        is_pure_ne(SHRINK, (1, 1), (0, 1.0))
    # numpy integers are integers
    assert ctf_pure(SHRINK, (np.int64(2), np.int32(1))) == {(0, 2)}
    assert is_pure_ne(SHRINK, (np.int64(1), 1), (np.int64(0), np.int16(0)))


def test_pure_ne_respects_restriction():
    # With player 1 held to r1, (r1, c1) is the only equilibrium even though
    # player 1 would deviate to r2 if allowed.
    assert is_pure_ne(SHRINK, (1, 1), (0, 0))
    assert not is_pure_ne(SHRINK, (2, 1), (0, 0))
    assert enumerate_pure_ne(SHRINK, (1, 1)) == [(0, 0)]
    assert enumerate_pure_ne(SHRINK, (2, 1)) == [(1, 1)]
    # a capability profile may also be an iterator, read once, or an array
    for form in (tuple, iter, np.array):
        assert is_pure_ne(SHRINK, form((1, 1)), (0, 0))
        assert not is_pure_ne(SHRINK, form((2, 1)), (0, 0))
        assert enumerate_pure_ne(SHRINK, form((1, 1))) == [(0, 0)]
        assert ctf_pure(SHRINK, form((1, 1))) == {(1, 2)}


def test_ctf_on_shrinking_example():
    assert ctf_pure(SHRINK, (1, 1)) == frozenset({(1, 2)})
    assert ctf_pure(SHRINK, (2, 1)) == frozenset({(0, 2)})
    assert ctf_pure(SHRINK, [2, 1]) == frozenset({(0, 2)})


def test_player_one_payoff_drops_when_their_space_grows():
    lo = ctf_pure(SHRINK, (1, 1))
    hi = ctf_pure(SHRINK, (2, 1))
    assert min(v[0] for v in lo) > max(v[0] for v in hi)


def _random_game(rng, n_players, n_actions, n_levels):
    cut = sorted(rng.sample(range(1, n_actions), n_levels - 1)) + [n_actions]
    cutoffs = tuple(tuple(cut) for _ in range(n_players))
    actions = tuple(
        tuple(f"a{i}" for i in range(n_actions)) for _ in range(n_players))
    payoffs = {
        p: tuple(rng.randint(-3, 3) for _ in range(n_players))
        for p in product(range(n_actions), repeat=n_players)
    }
    return CapabilityGame(actions, cutoffs, payoffs)


def test_enumerate_matches_definition_on_random_games():
    rng = random.Random(20240917)
    for _ in range(60):
        n_players = rng.randint(2, 3)
        n_actions = rng.randint(2, 4)
        g = _random_game(rng, n_players, n_actions, rng.randint(1, 2))
        caps = tuple(rng.randint(1, len(g.cutoffs[i])) for i in range(n_players))
        assert enumerate_pure_ne(g, caps) == pure_ne_by_sweep(g, caps)


TIED_VALUES = (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1))


@st.composite
def tied_games(draw):
    """1-4 players with 1-4 actions each, random nested level chains, and
    payoffs from a four-value set so that ties are common."""
    counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    cutoffs = tuple(
        tuple(sorted(draw(st.sets(st.integers(1, k - 1))))) + (k,) if k > 1 else (1,)
        for k in counts)
    actions = tuple(tuple(f"a{i}" for i in range(k)) for k in counts)
    payoffs = {
        s: tuple(draw(st.sampled_from(TIED_VALUES)) for _ in counts)
        for s in product(*(range(k) for k in counts))
    }
    return CapabilityGame(actions, cutoffs, payoffs)


@settings(max_examples=150, deadline=None)
@given(tied_games())
def test_ctf_pure_matches_a_deviation_sweep_on_every_cell(g):
    cells = list(product(*(range(1, b + 1) for b in g.bounds)))
    by_sweep = {cap: pure_ne_by_sweep(g, cap) for cap in cells}
    for cap in cells:
        assert enumerate_pure_ne(g, cap) == by_sweep[cap]
        assert ctf_pure(g, cap) == {g.payoffs[s] for s in by_sweep[cap]}
        for s in product(*(range(k) for k in restricted_sizes(g, cap))):
            assert is_pure_ne(g, cap, s) == (s in by_sweep[cap])
    if len(set(g.bounds)) == 1:
        assert equilibrium_welfare_levels(g) == [
            {sum(g.payoffs[s]) for s in by_sweep[(b,) * g.n_players]}
            for b in range(1, g.bounds[0] + 1)
        ]


def _gap_free(levels):
    """Renumber the levels 1, 2, ... in their order, so that none is skipped
    and the actions that shared a level still share one."""
    present = sorted(set(levels))
    return [present.index(v) + 1 for v in levels]


@st.composite
def level_games(draw):
    """1-3 players with 1-4 actions each, a level per action, not monotone
    in the action order but gap-free (as ``ne_boxes`` requires), and
    integer payoffs from -1..1 so that ties are common."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    levels = [_gap_free(draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)))
              for k in shape]
    size = prod(shape)
    utilities = [
        np.array(draw(st.lists(st.integers(-1, 1), min_size=size, max_size=size)),
                 dtype=np.int16).reshape(shape)
        for _ in shape
    ]
    return utilities, levels


@settings(max_examples=200, deadline=None)
@given(level_games())
@example(([np.array([0, 1, 1, 0], dtype=np.int16)], [[2, 1, 3, 1]]))
@example(([np.array([[1], [0], [1]]), np.array([[0], [2], [1]])], [[2, 1, 1], [1]]))
def test_ne_cells_match_a_deviation_sweep_on_every_cell(g):
    utilities, levels = g
    boxes = ne_boxes(utilities, levels)
    for cap in product(*(range(1, max(lv) + 1) for lv in levels)):
        assert cell(boxes, cap) == pure_equilibria_by_levels(utilities, levels, cap)


@settings(max_examples=200, deadline=None)
@given(level_games())
def test_cell_reads_the_rows_a_scan_of_every_box_finds(g):
    # each entry from 0 to one past the top level: a level outside the game
    # opens no row, as in the scan
    utilities, levels = g
    boxes = ne_boxes(utilities, levels)
    for cap in product(*(range(max(lv) + 2) for lv in levels)):
        assert cell(boxes, cap) == cell_by_scan(boxes.profiles, boxes.lo, boxes.hi, cap)


def test_ctf_pure_is_exact_past_int64():
    # scaled over the common denominator 3**45 these payoffs pass 2**62, so
    # the engine holds them as Python integers; the two large values differ
    # by 3**-45, far below float resolution
    tiny, huge = Fraction(1, 3**45), Fraction(2**70)
    values = (tiny, huge, huge + tiny, -huge, Fraction(0))
    rng = random.Random(7)
    g = CapabilityGame(
        (("a", "b", "c"), ("x", "y", "z")),
        ((1, 2, 3), (1, 3)),
        {s: (rng.choice(values), rng.choice(values)) for s in product(range(3), repeat=2)},
    )
    for cap in product(range(1, 4), range(1, 3)):
        assert ctf_pure(g, cap) == {g.payoffs[s] for s in pure_ne_by_sweep(g, cap)}


def test_welfare_levels_requires_equal_bounds():
    g = CapabilityGame(
        (("a", "b"), ("l", "r")),
        ((1, 2), (2,)),
        _full_payoffs((2, 2)),
    )
    with pytest.raises(UnequalBounds):
        equilibrium_welfare_levels(g)


def test_prisoners_dilemma_is_not_positive():
    # Adding the defect action collapses total welfare from 6 to 2.
    pd = CapabilityGame.from_matrices(
        [[3, 0], [5, 1]],
        [[3, 5], [0, 1]],
        cutoffs1=(1, 2),
        cutoffs2=(1, 2),
    )
    assert equilibrium_welfare_levels(pd) == [{6}, {2}]
    assert is_capability_positive(pd) is Positivity.NOT_POSITIVE


def test_no_pure_ne_level_makes_verdict_undetermined():
    pennies = CapabilityGame.from_matrices(
        [[1, -1], [-1, 1]],
        [[-1, 1], [1, -1]],
        cutoffs1=(1, 2),
        cutoffs2=(1, 2),
    )
    assert equilibrium_welfare_levels(pennies) == [{0}, set()]
    assert is_capability_positive(pennies) is Positivity.UNDETERMINED


def test_coordination_game_is_positive():
    coord = CapabilityGame.from_matrices(
        [[1, 0], [0, 2]],
        [[1, 0], [0, 2]],
        cutoffs1=(1, 2),
        cutoffs2=(1, 2),
    )
    assert is_capability_positive(coord) is Positivity.POSITIVE


def _peak_bytes(call):
    """``call()``'s answer and the peak of what it allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        answer = call()
        return answer, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ne_boxes_answer_every_cell_of_all_ties_arrays():
    # all ties: every profile is an equilibrium, and action a of a player on
    # levels 1..6 sits in the 6 - a levels a + 1..6, so the cells together
    # hold (6 + 5 + ... + 1)**3 = 21**3 = 9261 entries
    boxes = ne_boxes([np.zeros((6, 6, 6), dtype=np.int16)] * 3, [np.arange(1, 7)] * 3)
    assert sum(len(cell(boxes, cap)) for cap in product(range(1, 7), repeat=3)) == 9261
    # 6 players on 8 levels: a map of every cell would hold 36**6 entries,
    # about 17 GB; the boxes hold one row per profile
    boxes = ne_boxes([np.zeros((8,) * 6, dtype=np.int16)] * 6, [np.arange(1, 9)] * 6)
    assert cell(boxes, (8,) * 6) == list(product(range(8), repeat=6))
    assert cell(boxes, (1,) * 6) == [(0,) * 6]


def test_ne_boxes_count_each_bound_without_a_levels_by_profiles_array():
    # 400 x 400 all ties: 160,000 equilibria on 400 levels each; counting
    # their upper bounds over every level at once takes about 200 MB
    k = 400
    ties = [np.zeros((k, k), dtype=np.int16)] * 2
    boxes, peak = _peak_bytes(lambda: ne_boxes(ties, [np.arange(1, k + 1)] * 2))
    assert peak < 40_000_000
    # the reads keep a 20 kB bitset per level they read, five in all; a
    # bitset for every level would keep 16 MB
    tracemalloc.start()
    try:
        assert cell(boxes, (1, 1)) == [(0, 0)]
        assert len(cell(boxes, (k, k))) == k * k
        assert cell(boxes, (2, k))[-1] == (1, k - 1)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 1_000_000


def test_an_all_ties_game_answers_its_top_cell_from_the_boxes():
    # 5 players, 6 actions on 6 levels each, all ties: the 7,776 profiles
    # are equilibria on 4,084,101 cells in all, but one cell is all a call reads
    g = CapabilityGame((tuple("abcdef"),) * 5, ((1, 2, 3, 4, 5, 6),) * 5,
                       {s: (0,) * 5 for s in product(range(6), repeat=5)})
    payoffs, peak = _peak_bytes(lambda: ctf_pure(g, (6,) * 5))
    assert payoffs == {(0,) * 5}
    assert peak < 10_000_000
    found, peak = _peak_bytes(lambda: enumerate_pure_ne(g, (6,) * 5))
    assert found == list(product(range(6), repeat=5))
    assert peak < 10_000_000
