import random
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capgames import goldmines, oracle
from capgames.cli import verify_json
from capgames.errors import (
    GameFormatError,
    HypothesisViolation,
    OutOfRange,
    ScaleLimitExceeded,
)
from capgames.goldmines import GameParams
from capgames.oracle import PayoffTable, verify_closed_form
from tests._support import (
    all_strategies,
    coverage_by_rule,
    enumerate_pure_equilibria,
    is_equilibrium_by_sweep,
    payoff_table_by_sites,
    pure_equilibria_by_cell,
    segments_of,
    verify_strict_ne_coverage,
)

F = Fraction


def gm(scale, ca, cb, rho=F(1, 2), mu=F(-3, 4)):
    return GameParams(scale, rho, mu, ca, cb)


class TestEnumeration:
    """The strategy rows and segment counts every payoff table is built on."""

    def test_cap_at_board_size_yields_every_strategy(self):
        for scale in (1, 2, 3):
            bits, segments = oracle._strategy_bits(scale)
            assert [tuple(row) for row in bits.tolist()] == all_strategies(scale)
            assert len(segments) == 2 ** (4 * scale)
            assert segments.max() == 4 * scale
        assert PayoffTable(1, F(1, 2), F(-3, 4)).strategies == all_strategies(1)

    def test_lexicographic_order(self):
        table = PayoffTable(1, F(1, 2), F(-3, 4))
        out = [f for f, n in zip(table.strategies, table.segments) if n <= 2]
        assert out == sorted(out)
        assert out[0] == (0, 0, 0, 0)

    # M = 3 is the largest board the payoff-table limit admits; caps run
    # one past the most segments a strategy can have
    @pytest.mark.parametrize("scale,top_cap", [(2, 8), (3, 13)])
    def test_strict_spaces_partition_the_loose_one(self, scale, top_cap):
        bits, segments = oracle._strategy_bits(scale)
        rows = [tuple(row) for row in bits.tolist()]
        every = [(f, segments_of(f)) for f in all_strategies(scale)]
        for cap in range(1, top_cap + 1):
            # the rows an at-most cap and an exact-count cap select
            loose = np.flatnonzero(segments <= cap).tolist()
            strict = np.flatnonzero(segments == cap).tolist()
            layered = [i for c in range(1, cap + 1) for i in np.flatnonzero(segments == c)]
            assert sorted(layered) == loose
            assert [rows[i] for i in loose] == [f for f, n in every if n <= cap]
            assert [rows[i] for i in strict] == [f for f, n in every if n == cap]

    def test_bounds(self, monkeypatch):
        with pytest.raises(ScaleLimitExceeded):
            oracle._strategy_bits(4)
        with pytest.raises(OutOfRange):
            oracle._strategy_bits(0)
        monkeypatch.setattr(oracle, "MAX_TABLE_BYTES", oracle.table_bytes(1) - 1)
        with pytest.raises(ScaleLimitExceeded, match=str(oracle.table_bytes(1))):
            oracle._strategy_bits(1)


class TestPayoffTable:
    def test_every_entry_matches_the_direct_rule_on_the_unit_board(self):
        p = gm(1, 4, 4)
        table = PayoffTable(1, p.rho, p.mu)
        for a, fa in enumerate(table.strategies):
            for b, fb in enumerate(table.strategies):
                assert table.payoff_pair(a, b) == goldmines.payoff(fa, fb, p)

    def test_sampled_entries_match_on_the_two_block_board(self):
        p = gm(2, 8, 8, F(3, 5), F(-7, 10))
        table = PayoffTable(2, p.rho, p.mu)
        rng = random.Random(2718)
        n = len(table.strategies)
        for _ in range(500):
            a, b = rng.randrange(n), rng.randrange(n)
            assert table.payoff_pair(a, b) == goldmines.payoff(
                table.strategies[a], table.strategies[b], p)

    def test_segment_counts_and_denominator(self):
        table = PayoffTable(1, F(1, 2), F(-3, 4))
        assert table.denominator == 4
        for idx, f in enumerate(table.strategies):
            assert table.segments[idx] == segments_of(f)

    def test_size_estimate(self):
        assert oracle.table_bytes(3) == 134_217_728
        assert oracle.table_bytes(4) == 34_359_738_368
        assert oracle.table_bytes(3) <= oracle.MAX_TABLE_BYTES < oracle.table_bytes(4)
        assert oracle._strategy_bits(3)[0].shape == (2**12, 12)
        with pytest.raises(ScaleLimitExceeded):
            oracle._strategy_bits(4)

    # a direct payoff one off for one player; the table must notice either
    @pytest.mark.parametrize("player,reason", [(0, "disagrees"), (1, "asymmetry")])
    def test_self_check_catches_a_wrong_entry(self, monkeypatch, player, reason):
        direct = goldmines.payoff

        def one_off(fa, fb, params):
            pair = list(direct(fa, fb, params))
            pair[player] += 1
            return tuple(pair)

        monkeypatch.setattr(goldmines, "payoff", one_off)
        with pytest.raises(AssertionError, match=reason):
            PayoffTable(1, F(1, 2), F(-3, 4))

    def test_checks_its_parameters_before_it_allocates(self):
        # a rho of 2 at M = 3 is refused before its 51.5 MB table is built
        tracemalloc.start()
        try:
            with pytest.raises(HypothesisViolation):
                PayoffTable(3, F(2), F(-1, 2))
            with pytest.raises(GameFormatError):
                PayoffTable(1, 0.5, F(-3, 4))
            with pytest.raises(OutOfRange):
                PayoffTable(1.0, F(1, 2), F(-3, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_refuses_a_table_over_the_byte_limit(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_TABLE_BYTES", oracle.table_bytes(2) - 1)
        with pytest.raises(ScaleLimitExceeded, match=str(oracle.table_bytes(2))):
            PayoffTable(2, F(1, 2), F(-3, 4))

    def test_refuses_a_huge_board_without_building_its_size(self):
        # 2**(8M + 3) bytes: at M = 2000 its digits pass the str() limit, at
        # M = 10**9 the integer alone would take a gigabyte
        for scale in (2000, 10**9):
            with pytest.raises(ScaleLimitExceeded, match=rf"2\*\*{8 * scale + 3}-byte"):
                oracle._strategy_bits(scale)
        # past the digits str() converts, the scale is named by its bits
        huge = 10**5000
        with pytest.raises(ScaleLimitExceeded, match=f"scale <{huge.bit_length()}-bit integer>"):
            oracle._strategy_bits(huge)
        with pytest.raises(ScaleLimitExceeded, match=f"scale <{huge.bit_length()}-bit integer>"):
            verify_closed_form(GameParams(huge, F(1, 2), F(-3, 4), 1, 1))


class TestOnePass:
    @settings(max_examples=25, deadline=None)
    @given(
        scale=st.sampled_from([1, 2]),
        rho=st.fractions(0, 1, max_denominator=12).filter(lambda r: 0 < r < 1),
        mu=st.fractions(-2, 0, max_denominator=12).filter(lambda m: m < 0),
    )
    @example(scale=2, rho=F(1, 2), mu=F(-3, 4))  # inside the closed-form regime
    @example(scale=2, rho=F(1, 2), mu=F(-2, 5))  # outside it: -mu < rho
    def test_matches_the_per_cell_check_on_every_cell(self, scale, rho, mu):
        table = PayoffTable(scale, rho, mu)
        # capabilities past the largest segment count (4 * scale) included
        for ca, cb in product(range(1, 4 * scale + 3), repeat=2):
            assert table.pure_equilibria(ca, cb) == \
                pure_equilibria_by_cell(table, ca, cb)

    def test_matches_the_per_cell_check_on_the_three_block_board(self):
        table = PayoffTable(3, F(1, 2), F(-3, 4))
        cells = {(1, 8), (8, 1)} | {(k, k) for k in range(1, 9)}
        for ca, cb in sorted(cells):
            assert table.pure_equilibria(ca, cb) == \
                pure_equilibria_by_cell(table, ca, cb)

    @pytest.mark.parametrize("dtype,rho,mu", [
        (np.int16, F(1, 2), F(-3, 4)),
        (np.int32, F(1, 10007), F(-1, 2)),
        (np.int64, F(1, 1000003), F(-1, 999983)),
        (object, F(1, 3**40), F(-1, 2)),
    ])
    def test_each_payoff_width_is_exact(self, dtype, rho, mu):
        table = PayoffTable(1, rho, mu)
        assert table.ua.dtype == dtype
        p = GameParams(1, rho, mu, 4, 4)
        for a, fa in enumerate(table.strategies):
            for b, fb in enumerate(table.strategies):
                assert table.payoff_pair(a, b) == goldmines.payoff(fa, fb, p)
        for ca, cb in product(range(1, 7), repeat=2):
            assert table.pure_equilibria(ca, cb) == \
                pure_equilibria_by_cell(table, ca, cb)
        wider = PayoffTable(2, rho, mu)
        assert wider.ua.dtype == dtype
        assert wider.segments.tolist() == [segments_of(f) for f in wider.strategies]

    # the widths above: int16 at M = 3, the wider ones at M = 2 (M = 1 is
    # checked against goldmines.payoff above)
    @pytest.mark.parametrize("scale,rho,mu", [
        (3, F(1, 2), F(-3, 4)),
        (2, F(1, 10007), F(-1, 2)),
        (2, F(1, 1000003), F(-1, 999983)),
        (2, F(1, 3**40), F(-1, 2)),
    ])
    def test_every_entry_matches_a_count_by_gold_site(self, scale, rho, mu):
        table = PayoffTable(scale, rho, mu)
        assert np.array_equal(table.ua, payoff_table_by_sites(scale, rho, mu))

    def test_build_and_pass_stay_within_the_table_estimate(self):
        # the int16 table at M = 3 is 32 MB; the build and the pass may add
        # half as much again
        tracemalloc.start()
        try:
            table = PayoffTable(3, F(1, 3), F(-1, 2))
            table.pure_equilibria(1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * table.ua.nbytes

    def test_a_python_integer_table_shares_its_integers(self):
        # each entry refers to one of at most 5**3 integers, so the 65,536
        # entries cost a pointer apiece rather than a 6,341-bit integer each
        rho = F(1, 3**4000)
        tracemalloc.start()
        try:
            PayoffTable(2, rho, F(-1, 2)).pure_equilibria(1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


class TestEquilibriumSweep:
    @pytest.mark.parametrize("ca,cb", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 4)])
    def test_matches_an_independent_deviation_sweep(self, ca, cb):
        rho, mu = F(1, 2), F(-3, 4)
        space_a = [f for f in all_strategies(1) if segments_of(f) <= ca]
        space_b = [f for f in all_strategies(1) if segments_of(f) <= cb]
        expected = [
            (fa, fb)
            for fa, fb in product(space_a, space_b)
            if is_equilibrium_by_sweep(fa, fb, space_a, space_b, rho, mu)
        ]
        assert enumerate_pure_equilibria(gm(1, ca, cb)) == expected

    # (1, 4) reaches the top exact-count space; cap 5 holds no strategy,
    # so an exact-count cap past the top is empty rather than clamped
    @pytest.mark.parametrize("ca,cb", [(2, 2), (3, 2), (4, 4), (1, 4), (1, 5), (5, 5)])
    def test_strict_spaces_match_sweep(self, ca, cb):
        rho, mu = F(1, 2), F(-3, 4)
        space_a = [f for f in all_strategies(1) if segments_of(f) == ca]
        space_b = [f for f in all_strategies(1) if segments_of(f) == cb]
        expected = [
            (fa, fb)
            for fa, fb in product(space_a, space_b)
            if is_equilibrium_by_sweep(fa, fb, space_a, space_b, rho, mu)
        ]
        assert enumerate_pure_equilibria(gm(1, ca, cb), strict=True) == expected

    def test_strict_spaces_change_the_answer(self):
        # With both budgets at the full four segments, the exact-count space
        # holds only the two alternating strategies; the perfect-cover pair
        # that dominates the at-most space is unreachable there.
        loose = enumerate_pure_equilibria(gm(1, 4, 4))
        strict = enumerate_pure_equilibria(gm(1, 4, 4), strict=True)
        assert loose == [((1, 0, 0, 1), (1, 0, 0, 1))]
        assert strict == [
            ((0, 1, 0, 1), (1, 0, 1, 0)),
            ((1, 0, 1, 0), (0, 1, 0, 1)),
        ]

    def test_scale_guard(self):
        with pytest.raises(ScaleLimitExceeded):
            enumerate_pure_equilibria(gm(4, 1, 1))


class TestVerification:
    def test_report_matches_on_the_unit_board(self):
        report = verify_closed_form(gm(1, 1, 1))
        assert report.match
        assert report.predicted == report.observed == {(F(1, 4), F(1, 4))}
        assert report.counterexamples == ()
        assert report.equilibria_found >= 1

    def test_report_counts_every_equilibrium(self):
        p = gm(1, 2, 2)
        report = verify_closed_form(p)
        assert report.equilibria_found == len(enumerate_pure_equilibria(p))
        assert report.match

    def test_json_round_trip_shape(self):
        d = verify_json(verify_closed_form(gm(1, 3, 1)))
        assert d == {
            "scale": 1,
            "rho": "1/2",
            "mu": "-3/4",
            "cap_a": 3,
            "cap_b": 1,
            "predicted": [["3/2", "-1/4"]],
            "observed": [["3/2", "-1/4"]],
            "equilibria_found": d["equilibria_found"],
            "match": True,
            "counterexamples": [],
        }
        assert isinstance(d["equilibria_found"], int)

    def test_counterexamples_are_the_first_equilibria_off_the_prediction(self, monkeypatch):
        # all 12 equilibria of this cell pay (5/4, 5/4), so under a wrong
        # prediction each is a counterexample and the first 10 are kept
        p = gm(2, 3, 3)
        found = [(pair, goldmines.payoff(*pair, p)) for pair in enumerate_pure_equilibria(p)]
        monkeypatch.setattr(goldmines, "equilibrium_payoffs",
                            lambda params: frozenset({(F(0), F(0))}))
        report = verify_closed_form(p)
        assert not report.match
        assert report.equilibria_found == len(found) == 12
        assert list(report.counterexamples) == found[:10]

    def test_cache_holds_one_table(self):
        verify_closed_form(gm(2, 1, 1))
        verify_closed_form(gm(2, 1, 1, F(3, 5), F(-7, 10)))
        assert oracle._table.cache_info().currsize == 1

    def test_regime_guard(self):
        with pytest.raises(HypothesisViolation):
            verify_closed_form(gm(1, 1, 1, F(1, 2), F(-2, 5)))

    def test_scale_guard(self):
        with pytest.raises(ScaleLimitExceeded):
            verify_closed_form(gm(4, 1, 1))


class TestStrictCoverage:
    def test_holds_on_the_unit_board(self):
        for ca, cb in product(range(1, 4), repeat=2):
            assert verify_strict_ne_coverage(gm(1, ca, cb))

    # at rho = 1/3, mu = -2 the only exact-count equilibrium is (0001, 0001),
    # which leaves gold site 0 uncovered
    @pytest.mark.parametrize("rho,mu,holds", [(F(1, 2), F(-2, 5), True),
                                              (F(1, 3), F(-2), False)])
    def test_runs_outside_the_closed_form_regime(self, rho, mu, holds):
        space = [f for f in all_strategies(1) if segments_of(f) == 2]
        golds = [coverage_by_rule(fa)[0] | coverage_by_rule(fb)[0]
                 for fa, fb in product(space, space)
                 if is_equilibrium_by_sweep(fa, fb, space, space, rho, mu)]
        assert golds and all(g == {0, 1} for g in golds) is holds
        assert verify_strict_ne_coverage(gm(1, 2, 2, rho, mu)) is holds

    def test_scale_guard(self):
        with pytest.raises(ScaleLimitExceeded):
            verify_strict_ne_coverage(gm(4, 1, 1))
