import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import capgames
from capgames import goldmines, oracle
from capgames.errors import (
    GameFormatError,
    HypothesisViolation,
    OutOfRange,
    PreconditionViolated,
    SizeLimitExceeded,
)
from capgames.goldmines import (
    GameParams,
    build_equilibrium,
    equilibrium_payoff_grid,
    equilibrium_payoffs,
    payoff,
    perfect_cover,
    segment_count,
    summarize,
)
from tests._support import (
    admissible_start_lines,
    class_payoffs_by_fractions,
    enumerate_pure_equilibria,
    equal_capability_welfare,
    equilibrium_by_cases,
    is_complete_gold_coverage,
)

F = Fraction

STANDARD_PARAMS = [
    (F(1, 2), F(-3, 4)),
    (F(1, 4), F(-1, 2)),
    (F(3, 5), F(-7, 10)),
]


def gm(scale, ca, cb, rho=F(1, 2), mu=F(-3, 4)):
    return GameParams(scale, rho, mu, ca, cb)


class TestClosedFormValues:
    def test_unit_board_frozen_values(self):
        assert equilibrium_payoffs(gm(1, 1, 1)) == {(F(1, 4), F(1, 4))}
        assert equilibrium_payoffs(gm(1, 3, 1)) == {(F(3, 2), F(-1, 4))}
        assert equilibrium_payoffs(gm(1, 1, 3)) == {(F(-1, 4), F(3, 2))}
        assert equilibrium_payoffs(gm(1, 3, 3)) == {(1, 1)}

    def test_two_block_board_frozen_values(self):
        rho, mu = F(1, 4), F(-1, 2)
        assert equilibrium_payoffs(gm(2, 2, 2, rho, mu)) == {
            (F(3, 4), F(5, 4)),
            (F(5, 4), F(3, 4)),
        }
        assert equilibrium_payoffs(gm(2, 3, 4, rho, mu)) == {
            (F(1, 4), F(5, 4)),
            (1, F(3, 2)),
        }

    def test_capability_saturates_above_full_cover_cost(self):
        for ca, cb in [(3, 3), (9, 3), (3, 7), (40, 40)]:
            assert equilibrium_payoffs(gm(1, ca, cb)) == {(1, 1)}
        assert equilibrium_payoffs(gm(2, 6, 2)) == equilibrium_payoffs(gm(2, 5, 2))

    def test_payoff_sets_swap_under_player_swap(self):
        for scale, (rho, mu) in product((1, 2, 3), STANDARD_PARAMS):
            for ca, cb in product(range(1, 2 * scale + 3), repeat=2):
                forward = equilibrium_payoffs(gm(scale, ca, cb, rho, mu))
                backward = equilibrium_payoffs(gm(scale, cb, ca, rho, mu))
                assert forward == {(v, u) for u, v in backward}

    def test_rejects_parameters_outside_the_regime(self):
        with pytest.raises(HypothesisViolation):
            equilibrium_payoffs(gm(1, 1, 1, F(1, 2), F(-1, 2)))
        with pytest.raises(HypothesisViolation):
            equilibrium_payoffs(gm(1, 1, 1, F(1, 2), F(-9, 8)))


class TestAdmissibleClasses:
    def test_both_restricted_gives_both_classes(self):
        assert admissible_start_lines(gm(2, 4, 4)) == (0, 1)
        assert admissible_start_lines(gm(2, 1, 4)) == (0, 1)

    def test_one_full_cover_player_forces_the_class(self):
        assert admissible_start_lines(gm(2, 4, 5)) == (0,)
        assert admissible_start_lines(gm(2, 5, 4)) == (1,)

    def test_both_full_cover_players_have_one_equilibrium(self):
        p = gm(2, 5, 5)
        assert len(equilibrium_payoffs(p)) == 1


class TestBuildEquilibrium:
    def test_bad_start_line_rejected(self):
        with pytest.raises(OutOfRange):
            build_equilibrium(gm(1, 1, 1), 2)
        # A needs the full cover here, so the class with A on line 0 is gone.
        with pytest.raises(PreconditionViolated, match="player B"):
            build_equilibrium(gm(1, 3, 1), 0)
        with pytest.raises(PreconditionViolated, match="player A"):
            build_equilibrium(gm(1, 1, 3), 1)

    def test_regime_guard_runs_first(self):
        with pytest.raises(HypothesisViolation):
            build_equilibrium(gm(1, 1, 1, F(1, 2), F(-1, 2)), 0)

    @pytest.mark.parametrize("scale", [1, 2, 3])
    def test_refuses_exactly_the_classes_that_do_not_exist(self, scale):
        for ca, cb in product(range(1, 2 * scale + 3), repeat=2):
            p = gm(scale, ca, cb)
            for t in (0, 1):
                if t not in admissible_start_lines(p):
                    with pytest.raises(PreconditionViolated, match="starting on line 0"):
                        build_equilibrium(p, t)
                else:
                    fa, fb = build_equilibrium(p, t)
                    assert payoff(fa, fb, p) in equilibrium_payoffs(p), (ca, cb, t)

    def test_unit_board_pair_is_the_first_brute_force_pair_of_its_class(self):
        # Pins the construction at scale 1 to the pair an exhaustive search
        # returns: the first equilibrium, in lexicographic order, with A on
        # line t at site 0 and B on the other line.
        grid = [F(p, q) for q in range(2, 6) for p in range(1, q)]
        for rho, neg_mu in product(grid, repeat=2):
            if not rho < neg_mu:
                continue
            for ca, cb in product((1, 2), repeat=2):
                p = gm(1, ca, cb, rho, -neg_mu)
                found = enumerate_pure_equilibria(p)
                for t in (0, 1):
                    first = next(e for e in found if e[0][0] == t and e[1][0] == 1 - t)
                    assert build_equilibrium(p, t) == first

    def test_both_full_cover_players_stack_on_the_golds(self):
        fa, fb = build_equilibrium(gm(2, 5, 5), 0)
        assert fa == fb == perfect_cover(2)

    def test_worked_example(self):
        p = gm(2, 3, 4, F(1, 4), F(-1, 2))
        fa, fb = build_equilibrium(p, 0)
        assert fa == (0, 0, 0, 1, 1, 0, 0, 0)
        assert fb == (1, 0, 0, 1, 1, 0, 0, 0)
        assert payoff(fa, fb, p) == (F(1, 4), F(5, 4))

    @pytest.mark.parametrize("rho,mu", STANDARD_PARAMS)
    @pytest.mark.parametrize("scale", [1, 2])
    def test_constructions_are_equilibria_with_the_predicted_payoffs(
        self, scale, rho, mu
    ):
        for ca, cb in product(range(1, 2 * scale + 3), repeat=2):
            p = gm(scale, ca, cb, rho, mu)
            genuine = set(enumerate_pure_equilibria(p))
            by_class = set()
            for t in admissible_start_lines(p):
                fa, fb = build_equilibrium(p, t)
                assert (fa, fb) in genuine
                assert segment_count(fa) <= ca and segment_count(fb) <= cb
                assert is_complete_gold_coverage(fa, fb)
                if ca <= 2 * scale and cb <= 2 * scale:
                    assert fa[0] == t and fb[0] == 1 - t
                by_class.add(payoff(fa, fb, p))
            assert by_class == equilibrium_payoffs(p)

    @pytest.mark.parametrize("rho,mu", STANDARD_PARAMS[:2])
    @pytest.mark.parametrize("scale", range(1, 9))
    def test_matches_the_construction_as_first_written(self, scale, rho, mu):
        for ca, cb in product(range(1, 2 * scale + 3), repeat=2):
            p = gm(scale, ca, cb, rho, mu)
            for t in admissible_start_lines(p):
                assert build_equilibrium(p, t) == equilibrium_by_cases(p, t), (ca, cb, t)

    def test_padding_scans_a_linear_number_of_sites(self, monkeypatch):
        # two whole-board counts (the complement, the padding's input), then
        # at most 2 x 7 sites per padding step and one step per block: at most
        # 5.5 boards, where a recount of the board per step is thousands
        scanned = []
        count = goldmines.segment_count
        monkeypatch.setattr(goldmines, "segment_count",
                            lambda f: scanned.append(len(f)) or count(f))
        scale = 4000
        fa, fb = build_equilibrium(gm(scale, 6000, 4000, F(1, 4), F(-1, 2)), 1)
        assert (count(fa), count(fb)) == (6000, 4000)
        assert len(scanned) > 1000  # one padding step per missing pair of segments
        assert sum(scanned) <= 6 * (4 * scale)

    def test_refuses_a_board_over_the_site_limit_before_building_it(self):
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitExceeded, match="M = 1000000000 has 4.M sites"):
                build_equilibrium(gm(10**9, 1, 1), 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_mixed_regime_payoffs_come_from_the_construction(self):
        # One player exactly at the full-cover cost, one above it.
        p = gm(3, 7, 6, F(3, 5), F(-7, 10))
        (t,) = admissible_start_lines(p)
        fa, fb = build_equilibrium(p, t)
        assert fa == perfect_cover(3)
        assert segment_count(fb) == 6
        assert {payoff(fa, fb, p)} == equilibrium_payoffs(p)


class TestWelfare:
    @pytest.mark.parametrize("rho,mu", STANDARD_PARAMS)
    @pytest.mark.parametrize("scale", [1, 2, 3])
    def test_matches_the_payoff_sums(self, scale, rho, mu):
        for cap in range(1, 2 * scale + 3):
            w = equal_capability_welfare(scale, rho, mu, cap)
            sums = {u + v for u, v in equilibrium_payoffs(gm(scale, cap, cap, rho, mu))}
            assert sums == {w}

    def test_can_fall_as_shared_capability_grows(self):
        rho, mu = F(1, 10), F(-1, 2)
        values = [equal_capability_welfare(1, rho, mu, cap) for cap in (1, 2, 3, 4)]
        assert values == [1, F(7, 10), F(2, 5), F(2, 5)]
        assert values[0] > values[1] > values[2] == values[3]

    def test_rises_when_sharing_is_rich_enough(self):
        rho, mu = F(1, 2), F(-3, 4)
        values = [equal_capability_welfare(1, rho, mu, cap) for cap in (1, 2, 3)]
        assert values == [F(1, 2), F(5, 4), 2]

    def test_regime_and_range_guards(self):
        with pytest.raises(HypothesisViolation):
            equal_capability_welfare(1, F(1, 2), F(-1, 2), 1)
        with pytest.raises(OutOfRange):
            equal_capability_welfare(0, F(1, 2), F(-3, 4), 1)
        with pytest.raises(OutOfRange):
            equal_capability_welfare(1, F(1, 2), F(-3, 4), 0)

    def test_integer_and_rational_guards(self):
        with pytest.raises(OutOfRange, match="cap_a must be an integer"):
            equal_capability_welfare(2, F(1, 3), F(-1, 2), 2.5)
        with pytest.raises(OutOfRange, match="scale must be an integer"):
            equal_capability_welfare("2", F(1, 3), F(-1, 2), 2)
        with pytest.raises(GameFormatError, match="rho"):
            equal_capability_welfare(2, 1 / 3, F(-1, 2), 2)
        with pytest.raises(GameFormatError, match="mu"):
            equal_capability_welfare(2, F(1, 3), -0.5, 2)
        assert equal_capability_welfare(np.int64(2), F(1, 3), F(-1, 2), np.int64(2)) == F(13, 6)


class TestPayoffGrid:
    def test_cells_run_row_major(self):
        grid = equilibrium_payoff_grid(1, F(1, 2), F(-3, 4), 3, 2)
        assert grid == [equilibrium_payoffs(gm(1, ca, cb))
                        for ca in (1, 2, 3) for cb in (1, 2)]
        assert grid[1] == {(F(-1, 4), F(3, 4)), (F(1, 4), 1)}

    def test_is_exported(self):
        assert capgames.equilibrium_payoff_grid is equilibrium_payoff_grid
        assert "equilibrium_payoff_grid" in capgames.__all__

    def test_checks_run_for_the_whole_grid(self):
        with pytest.raises(HypothesisViolation):
            equilibrium_payoff_grid(1, F(1, 2), F(-1, 4), 2, 2)  # -mu below rho
        with pytest.raises(OutOfRange):
            equilibrium_payoff_grid(0, F(1, 2), F(-3, 4), 2, 2)
        with pytest.raises(OutOfRange):
            equilibrium_payoff_grid(1, F(1, 2), F(-3, 4), 2, 0)
        with pytest.raises(OutOfRange, match="cap_a must be an integer"):
            equilibrium_payoff_grid(1, F(1, 2), F(-3, 4), 2.0, 2)
        with pytest.raises(GameFormatError):
            equilibrium_payoff_grid(1, 0.5, F(-3, 4), 2, 2)

    def test_refuses_a_huge_grid_before_building_it(self):
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitExceeded, match="1000000 x 1000000"):
                equilibrium_payoff_grid(1, F(1, 2), F(-3, 4), 10**6, 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_cell_limit_boundary(self, monkeypatch):
        monkeypatch.setattr(goldmines, "MAX_CELLS", 6)
        assert len(equilibrium_payoff_grid(1, F(1, 2), F(-3, 4), 3, 2)) == 6
        with pytest.raises(SizeLimitExceeded, match="7 x 1 .* 6-cell limit"):
            equilibrium_payoff_grid(1, F(1, 2), F(-3, 4), 7, 1)


@st.composite
def closed_form_grids(draw):
    """A board inside the closed-form regime, rho = p/q and mu = -r/s with
    q and s up to 10**6, and maxima up to two past the full cover's cost."""
    scale = draw(st.integers(1, 60))
    q = draw(st.integers(2, 10**6))
    p = draw(st.integers(1, q - 1))
    s = draw(st.integers(2, 10**6))
    r_min = p * s // q + 1  # smallest r with r/s > p/q
    assume(r_min < s)
    r = draw(st.integers(r_min, s - 1))
    ca_max = draw(st.integers(1, 2 * scale + 3))
    cb_max = draw(st.integers(1, 2 * scale + 3))
    return scale, F(p, q), F(-r, s), ca_max, cb_max


@settings(max_examples=20, deadline=None)
@given(closed_form_grids())
def test_payoff_grid_matches_the_fraction_formula(board):
    scale, rho, mu, ca_max, cb_max = board
    grid = equilibrium_payoff_grid(scale, rho, mu, ca_max, cb_max)
    cells = list(product(range(1, ca_max + 1), range(1, cb_max + 1)))
    assert len(grid) == len(cells)
    for (ca, cb), payoffs in zip(cells, grid):
        p = gm(scale, ca, cb, rho, mu)
        expected = {class_payoffs_by_fractions(p, t) for t in admissible_start_lines(p)}
        assert payoffs == expected, (ca, cb)
        assert equilibrium_payoffs(p) == payoffs, (ca, cb)


@settings(max_examples=30, deadline=None)
@given(
    rho=st.fractions(min_value=F(1, 20), max_value=F(19, 20), max_denominator=20),
    gap=st.fractions(min_value=0, max_value=1, max_denominator=20),
    ca=st.integers(1, 4),
    cb=st.integers(1, 4),
)
def test_closed_form_matches_brute_force_for_random_parameters(rho, gap, ca, cb):
    # mu is placed strictly between -1 and -rho so the regime always holds.
    mu = -(rho + gap * (1 - rho))
    assume(0 < rho < -mu < 1)
    report = oracle.verify_closed_form(GameParams(1, rho, mu, ca, cb))
    assert report.match, report
