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
    SizeLimitExceeded,
)
from capgames.goldmines import GameParams
from capgames.oracle import PayoffTable, verify_closed_form
from tests._support import (
    StrategyTable,
    all_strategies,
    coverage_by_rule,
    enumerate_pure_equilibria,
    is_equilibrium_by_sweep,
    payoff_table_by_sites,
    pure_equilibria_by_cell,
    segments_of,
    strategy_bits,
    table_bytes,
    verify_strict_ne_coverage,
)

F = Fraction


def gm(scale, ca, cb, rho=F(1, 2), mu=F(-3, 4)):
    return GameParams(scale, rho, mu, ca, cb)


def class_need(scale):
    """The bytes the class game may take at ``scale``: a table over at most
    one class per gold set and mine count, at int64 width, and the DP's two
    int64 arrays of 2 * (4M + 1) entries per such class."""
    bound = 4**scale * (2 * scale + 1)
    return 8 * bound * bound + 2 * 8 * 2 * (4 * scale + 1) * bound


def index_of(f):
    """A strategy's row in the lexicographic order of every strategy."""
    return int("".join(map(str, f)), 2)


def classes_by_rule(scale):
    """Every strategy grouped by (gold sites covered, mines covered), from
    the covers-rule: {class: [(segments, strategy), ...]} in lexicographic
    order of the strategies."""
    groups = {}
    for f in all_strategies(scale):
        gold, mine = coverage_by_rule(f)
        groups.setdefault((frozenset(gold), len(mine)), []).append((segments_of(f), f))
    return groups


def representative_by_rule(groups, f):
    """The lexicographically first strategy with the fewest segments in
    ``f``'s class."""
    gold, mine = coverage_by_rule(f)
    members = groups[(frozenset(gold), len(mine))]
    fewest = min(n for n, _ in members)
    return min(g for n, g in members if n == fewest)


class TestEnumeration:
    """The strategy rows and segment counts of the reference table, and the
    classes the class game is built on."""

    def test_cap_at_board_size_yields_every_strategy(self):
        for scale in (1, 2, 3):
            bits, segments = strategy_bits(scale)
            assert [tuple(row) for row in bits.tolist()] == all_strategies(scale)
            assert len(segments) == 2 ** (4 * scale)
            assert segments.max() == 4 * scale
        assert StrategyTable(1, F(1, 2), F(-3, 4)).strategies == all_strategies(1)

    def test_lexicographic_order(self):
        table = StrategyTable(1, F(1, 2), F(-3, 4))
        out = [f for f, n in zip(table.strategies, table.segments) if n <= 2]
        assert out == sorted(out)
        assert out[0] == (0, 0, 0, 0)
        # the class game orders its classes by their representatives
        for scale in (1, 2, 3):
            reps = PayoffTable(scale, F(1, 2), F(-3, 4)).strategies
            assert reps == sorted(set(reps))

    @pytest.mark.parametrize("scale", [1, 2, 3])
    def test_classes_match_a_grouping_by_the_covers_rule(self, scale):
        table = PayoffTable(scale, F(1, 4), F(-1, 2))
        groups = classes_by_rule(scale)
        level = {key: min(n for n, _ in members) for key, members in groups.items()}
        # a class is kept exactly when no class of its gold set with fewer
        # mines is open at its level
        kept = {(gold, mines) for gold, mines in groups
                if all(level[(gold, m)] > level[(gold, mines)]
                       for m in range(mines) if (gold, m) in level)}
        assert len(table.strategies) == len(kept)
        for a, rep in enumerate(table.strategies):
            gold, mine = coverage_by_rule(rep)
            key = (frozenset(gold), len(mine))
            assert key in kept
            assert table.segments[a] == level[key] == segments_of(rep)
            assert rep == representative_by_rule(groups, rep)
            for cap in range(4 * scale + 1):
                assert table.mult[cap, a] == sum(n <= cap for n, _ in groups[key])

    def test_levels_are_gap_free(self):
        # ne_boxes needs every level from 1 to the top to hold a class
        for scale in range(1, 6):
            table = PayoffTable(scale, F(1, 4), F(-1, 2))
            assert set(table.segments.tolist()) == set(range(1, 4 * scale + 1))
            assert len(table.mult) == 4 * scale + 1
            assert table.mult[-1].sum() <= 2 ** (4 * scale)

    # M = 3 is the largest board the strategy table's limit admits; caps run
    # one past the most segments a strategy can have
    @pytest.mark.parametrize("scale,top_cap", [(2, 8), (3, 13)])
    def test_strict_spaces_partition_the_loose_one(self, scale, top_cap):
        bits, segments = strategy_bits(scale)
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
        with pytest.raises(SizeLimitExceeded):
            strategy_bits(4)
        with pytest.raises(OutOfRange):
            strategy_bits(0)
        monkeypatch.setattr(oracle, "MAX_TABLE_BYTES", table_bytes(1) - 1)
        with pytest.raises(SizeLimitExceeded, match=str(table_bytes(1))):
            strategy_bits(1)


class TestPayoffTable:
    """The class game's table, checked on its classes' representatives."""

    def test_every_entry_matches_the_direct_rule_on_the_unit_board(self):
        p = gm(1, 4, 4)
        for table in (PayoffTable(1, p.rho, p.mu), StrategyTable(1, p.rho, p.mu)):
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
        # the strategy table: M = 3 fits the limit, M = 4 does not
        assert table_bytes(3) == 134_217_728
        assert table_bytes(4) == 34_359_738_368
        assert table_bytes(3) <= oracle.MAX_TABLE_BYTES < table_bytes(4)
        assert strategy_bits(3)[0].shape == (2**12, 12)
        with pytest.raises(SizeLimitExceeded):
            strategy_bits(4)
        # the class game: M = 5 fits, M = 6 does not
        assert class_need(5) == 1_022_590_976
        assert class_need(6) == 22_725_394_432
        assert class_need(5) <= oracle.MAX_TABLE_BYTES < class_need(6)
        with pytest.raises(SizeLimitExceeded, match=f"up to {class_need(6)} bytes"):
            PayoffTable(6, F(1, 4), F(-1, 2))

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
        # a rho of 2 at M = 5 is refused before its 52 MB table is built
        tracemalloc.start()
        try:
            with pytest.raises(HypothesisViolation):
                PayoffTable(5, F(2), F(-1, 2))
            with pytest.raises(GameFormatError):
                PayoffTable(1, 0.5, F(-3, 4))
            with pytest.raises(OutOfRange):
                PayoffTable(1.0, F(1, 2), F(-3, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_refuses_a_table_over_the_byte_limit(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_TABLE_BYTES", class_need(2) - 1)
        with pytest.raises(SizeLimitExceeded, match=f"up to {class_need(2)} bytes"):
            PayoffTable(2, F(1, 2), F(-3, 4))
        monkeypatch.setattr(oracle, "MAX_TABLE_BYTES", class_need(2))
        assert len(PayoffTable(2, F(1, 2), F(-3, 4)).strategies) == 44

    def test_refuses_a_huge_board_without_building_its_size(self):
        # at least 2**(4M + 3) bytes: at M = 2000 the bound's digits pass the
        # str() limit, at M = 10**9 the integer alone would take 500 MB
        tracemalloc.start()
        try:
            for scale in (2000, 10**9):
                with pytest.raises(SizeLimitExceeded,
                                   match=rf"2\*\*{4 * scale + 3} or more bytes"):
                    PayoffTable(scale, F(1, 2), F(-3, 4))
            # past the digits str() converts, the scale is named by its bits
            huge = 10**5000
            with pytest.raises(SizeLimitExceeded,
                               match=f"scale <{huge.bit_length()}-bit integer>"):
                PayoffTable(huge, F(1, 2), F(-3, 4))
            with pytest.raises(SizeLimitExceeded,
                               match=f"scale <{huge.bit_length()}-bit integer>"):
                verify_closed_form(GameParams(huge, F(1, 2), F(-3, 4), 1, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestOnePass:
    """The engine's one pass over the class game, against a per-cell check
    of the same table."""

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
        for ca, cb in product(range(1, 15), repeat=2):
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
        by_sites = payoff_table_by_sites(scale, rho, mu)
        assert np.array_equal(StrategyTable(scale, rho, mu).ua, by_sites)
        # the class table is the strategy table's rows and columns at the
        # classes' representatives
        table = PayoffTable(scale, rho, mu)
        rows = [index_of(f) for f in table.strategies]
        assert np.array_equal(table.ua, by_sites[np.ix_(rows, rows)])

    def test_build_and_pass_stay_within_the_table_estimate(self):
        # the int16 table at M = 5 is 52 MB; the DP, the build and the pass
        # may add half as much again
        tracemalloc.start()
        try:
            table = PayoffTable(5, F(1, 3), F(-1, 2))
            table.pure_equilibria(1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * table.ua.nbytes

    def test_a_python_integer_table_shares_its_integers(self):
        # each entry refers to one of at most 7**3 integers, so the 50,176
        # entries cost a pointer apiece rather than a 6,341-bit integer each
        rho = F(1, 3**4000)
        tracemalloc.start()
        try:
            PayoffTable(3, rho, F(-1, 2)).pure_equilibria(1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


def observed_by_reference(table, ca, cb):
    """(equilibria, payoff set) of one cell of a ``StrategyTable``."""
    pairs = table.pure_equilibria(ca, cb)
    return len(pairs), {table.payoff_pair(a, b) for a, b in pairs}


def observed_by_classes(table, ca, cb):
    """(strategy pairs the class pairs stand for, payoff set) of one cell of
    the class game."""
    top = len(table.mult) - 1
    pairs = table.pure_equilibria(ca, cb)
    count = sum(int(table.mult[min(ca, top), a]) * int(table.mult[min(cb, top), b])
                for a, b in pairs)
    return count, {table.payoff_pair(a, b) for a, b in pairs}


class TestClassGame:
    """The class game against the strategy-level reference, in and out of
    the closed-form regime, and against the closed form past it."""

    @settings(max_examples=20, deadline=None)
    @given(
        scale=st.sampled_from([1, 2, 3]),
        rho=st.fractions(0, 1, max_denominator=12).filter(lambda r: 0 < r < 1),
        mu=st.fractions(-3, 0, max_denominator=12).filter(lambda m: m < 0),
    )
    @example(scale=3, rho=F(1, 4), mu=F(-1, 2))  # inside the closed-form regime
    @example(scale=3, rho=F(1, 2), mu=F(-1, 2))  # on its edge: rho = -mu
    @example(scale=3, rho=F(3, 4), mu=F(-1, 4))  # outside it: -mu < rho
    @example(scale=3, rho=F(1, 3), mu=F(-5, 2))  # outside it: mu < -1
    def test_every_cell_matches_the_strategy_table(self, scale, rho, mu):
        classes, strategies = PayoffTable(scale, rho, mu), StrategyTable(scale, rho, mu)
        # capabilities past the largest segment count (4 * scale) included
        for ca, cb in product(range(1, 4 * scale + 3), repeat=2):
            assert observed_by_classes(classes, ca, cb) == \
                observed_by_reference(strategies, ca, cb), (ca, cb)

    @pytest.mark.parametrize("rho,mu", [(F(1, 4), F(-1, 2)), (F(1, 2), F(-3, 4))])
    def test_every_cell_at_m3_matches_the_closed_form(self, rho, mu):
        for ca, cb in product(range(1, 15), repeat=2):
            report = verify_closed_form(gm(3, ca, cb, rho, mu))
            assert report.match, report

    def test_every_cell_at_m4_matches_the_closed_form(self):
        for ca, cb in product(range(1, 17), repeat=2):
            report = verify_closed_form(gm(4, ca, cb, F(1, 4), F(-1, 2)))
            assert report.match, report
            assert report.equilibria_found >= len(report.observed) >= 1


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
        with pytest.raises(SizeLimitExceeded):
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
        # all 12 equilibria of this cell pay (5/4, 5/4), each in a class pair
        # of its own, so under a wrong prediction each class pair is a
        # counterexample, named by its classes' representatives in
        # lexicographic order, and the first 10 are kept
        p = gm(2, 3, 3)
        found = [(pair, goldmines.payoff(*pair, p)) for pair in enumerate_pure_equilibria(p)]
        groups = classes_by_rule(2)
        by_class = sorted({((representative_by_rule(groups, fa),
                             representative_by_rule(groups, fb)), value)
                           for (fa, fb), value in found})
        monkeypatch.setattr(goldmines, "equilibrium_payoffs",
                            lambda params: frozenset({(F(0), F(0))}))
        report = verify_closed_form(p)
        assert not report.match
        assert report.equilibria_found == len(found) == 12
        assert len(by_class) == 12
        assert list(report.counterexamples) == by_class[:10]
        assert set(report.counterexamples) <= set(found)

    def test_cache_holds_one_table(self):
        verify_closed_form(gm(2, 1, 1))
        verify_closed_form(gm(2, 1, 1, F(3, 5), F(-7, 10)))
        assert oracle._table.cache_info().currsize == 1

    def test_regime_guard(self):
        with pytest.raises(HypothesisViolation):
            verify_closed_form(gm(1, 1, 1, F(1, 2), F(-2, 5)))

    def test_scale_guard(self):
        with pytest.raises(SizeLimitExceeded):
            verify_closed_form(gm(6, 1, 1))
        for scale in (4, 5):
            assert verify_closed_form(gm(scale, 2, 3)).match


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
        with pytest.raises(SizeLimitExceeded):
            verify_strict_ne_coverage(gm(4, 1, 1))
