import random
from fractions import Fraction
from functools import cache
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from capgames.errors import (
    GameFormatError,
    HypothesisViolation,
    OutOfRange,
    PreconditionViolated,
    SizeLimitExceeded,
)
from capgames.goldmines import (
    GOLD,
    MINE,
    GameParams,
    aligned_coverage_counts,
    build_complement_cover,
    build_equilibrium,
    covers,
    format_strategy,
    is_aligned,
    is_perfect_cover,
    pad_segments,
    payoff,
    perfect_cover,
    require_board,
    require_closed_form_regime,
    resource_line,
    resource_type,
    segment_count,
    staircase,
    summarize,
)
from tests._support import (
    complement_by_cases,
    coverage_by_rule,
    is_complete_gold_coverage,
    naive_payoff,
    pad_by_rescan,
    parse_strategy,
    random_aligned,
    segments_of,
    staircase_by_flip_set,
)

F = Fraction


def params(scale, rho=F(1, 2), mu=F(-3, 4), ca=1, cb=1):
    return GameParams(scale, rho, mu, ca, cb)


@cache
def aligned_boards(scale):
    return [f for f in product((0, 1), repeat=4 * scale) if is_aligned(f)]


# each integer argument of a strategy tool refuses what as_integer refuses,
# with the tool's own error class
NON_INTEGER_CALLS = {
    "require_board-float": (lambda: require_board(2.5), OutOfRange),
    "staircase-segments-float": (lambda: staircase(2, 2.0, 1), OutOfRange),
    "staircase-scale-float": (lambda: staircase(2.0, 2, 1), OutOfRange),
    "staircase-segments-str": (lambda: staircase(2, "2", 1), OutOfRange),
    "staircase-start-bool": (lambda: staircase(2, 2, True), OutOfRange),
    "perfect_cover-float": (lambda: perfect_cover(2.0), OutOfRange),
    "is_perfect_cover-float": (lambda: is_perfect_cover((1, 0, 0, 1), 0.0, 3), OutOfRange),
    "pad_segments-scale-float": (
        lambda: pad_segments((1, 0, 0, 0, 0, 0, 0, 0), 3, 2.0), PreconditionViolated),
    "pad_segments-target-str": (
        lambda: pad_segments((1, 0, 0, 0, 0, 0, 0, 0), "3", 2), PreconditionViolated),
    "pad_segments-target-float": (
        lambda: pad_segments((1, 0, 0, 0, 0, 0, 0, 0), 3.0, 2), PreconditionViolated),
    "build_equilibrium-float": (
        lambda: build_equilibrium(GameParams(2, F(1, 4), F(-1, 2), 2, 3), 1.0), OutOfRange),
    "build_equilibrium-bool": (
        lambda: build_equilibrium(GameParams(2, F(1, 4), F(-1, 2), 2, 3), True), OutOfRange),
}


@pytest.mark.parametrize("call,error", NON_INTEGER_CALLS.values(), ids=NON_INTEGER_CALLS.keys())
def test_integer_arguments_refuse_anything_else(call, error):
    with pytest.raises(error, match="must be an integer, got"):
        call()


def test_numpy_integer_arguments_become_ints():
    fa, fb = build_equilibrium(GameParams(2, F(1, 4), F(-1, 2), 2, 3), np.int64(1))
    assert (fa, fb) == build_equilibrium(GameParams(2, F(1, 4), F(-1, 2), 2, 3), 1)
    assert all(type(b) is int for b in fa + fb + staircase(np.int64(2), np.int32(3), np.uint8(0)))
    assert require_board(np.int64(3)) == 3 and type(require_board(np.int64(3))) is int


class TestBoardLayout:
    def test_lines_alternate_starting_at_one(self):
        assert [resource_line(i, 2) for i in range(8)] == [1, 0, 1, 0, 1, 0, 1, 0]

    def test_types_repeat_gold_gold_mine_mine(self):
        expected = [GOLD, GOLD, MINE, MINE] * 2
        assert [resource_type(i, 2) for i in range(8)] == expected

    def test_site_index_bounds(self):
        # off the board, a fraction of a site, a boolean, and a fractional scale
        for bad, scale in ((-1, 1), (4, 1), (1.5, 1), (True, 1), (0, 1.5)):
            with pytest.raises(OutOfRange):
                resource_line(bad, scale)
            with pytest.raises(OutOfRange):
                resource_type(bad, scale)
        assert resource_line(np.int64(1), np.int64(1)) == 0
        assert resource_type(np.int64(3), 1) == MINE

    def test_covers_is_the_standing_on_line_rule(self):
        f = (0, 0, 1, 1)
        assert [covers(f, i) for i in range(4)] == [False, True, True, False]


class TestSummaries:
    def test_flat_zero_strategy(self):
        s = summarize((0, 0, 0, 0))
        assert s.gold_sites == {1}
        assert s.mine_sites == {3}
        assert (s.n_gold, s.n_mine) == (1, 1)
        assert s.segments == 1

    def test_perfect_cover_unit(self):
        s = summarize((1, 0, 0, 1))
        assert s.gold_sites == {0, 1}
        assert s.mine_sites == set()
        assert s.segments == 3

    def test_against_rule_oracle_exhaustively_small(self):
        for scale in (1, 2):
            for f in product((0, 1), repeat=4 * scale):
                s = summarize(f)
                gold, mine = coverage_by_rule(f)
                assert s.gold_sites == gold
                assert s.mine_sites == mine
                assert (s.n_gold, s.n_mine) == (len(gold), len(mine))
                assert s.segments == segments_of(f)
                assert segment_count(f) == s.segments

    def test_against_rule_oracle_randomly_large(self):
        rng = random.Random(41)
        for _ in range(300):
            scale = rng.randint(3, 6)
            f = tuple(rng.randint(0, 1) for _ in range(4 * scale))
            gold, mine = coverage_by_rule(f)
            s = summarize(f)
            assert (s.gold_sites, s.mine_sites) == (gold, mine)

    def test_rejects_bad_lengths_and_entries(self):
        with pytest.raises(GameFormatError):
            summarize(())
        with pytest.raises(GameFormatError):
            summarize((0, 1, 0))
        with pytest.raises(GameFormatError):
            summarize((0, 1, 2, 1))


class TestPayoff:
    def test_two_flat_walkers(self):
        # Both cover gold 1 (shared, rho each) and mine 3 (mu each).
        p = params(1)
        assert payoff((0, 0, 0, 0), (0, 0, 0, 0), p) == (F(-1, 4), F(-1, 4))

    def test_perfect_cover_against_flat_rival(self):
        p = params(1)
        # A takes gold 0 alone and splits gold 1; B also eats mine 3.
        assert payoff((1, 0, 0, 1), (0, 0, 0, 0), p) == (F(3, 2), F(-1, 4))

    def test_matches_site_loop_oracle(self):
        rng = random.Random(1213)
        for _ in range(250):
            scale = rng.randint(1, 4)
            p = params(scale, F(2, 5), F(-1, 2))
            fa = tuple(rng.randint(0, 1) for _ in range(4 * scale))
            fb = tuple(rng.randint(0, 1) for _ in range(4 * scale))
            assert payoff(fa, fb, p) == naive_payoff(fa, fb, p.rho, p.mu)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(GameFormatError):
            payoff((0, 0, 0, 0), (0,) * 8, params(1))
        with pytest.raises(GameFormatError):
            payoff((0, 0, 0, 0), (0, 0, 0, 0), params(2))


class TestAlignment:
    def test_examples(self):
        assert is_aligned((0, 0, 0, 0))
        assert is_aligned((1, 0, 0, 1))
        assert is_aligned((0, 0, 0, 1))  # upward flip between the mines
        assert is_aligned((1, 1, 1, 1, 1, 0, 0, 0))
        assert not is_aligned((0, 0, 1, 1))  # upward flip on a gold
        assert not is_aligned((1, 1, 0, 0))  # downward flip between golds
        assert not is_aligned((0, 1, 0, 0))

    def test_random_walks_conform(self):
        rng = random.Random(5)
        for _ in range(200):
            assert is_aligned(random_aligned(rng, rng.randint(1, 5)))

    def test_counts_match_summary_exhaustively(self):
        for scale in (1, 2):
            for f in product((0, 1), repeat=4 * scale):
                if not is_aligned(f):
                    continue
                s = summarize(f)
                assert aligned_coverage_counts(s.segments, f[0], scale) == (
                    s.n_gold,
                    s.n_mine,
                )

    def test_counts_formula_values(self):
        assert aligned_coverage_counts(1, 0, 1) == (1, 1)
        assert aligned_coverage_counts(1, 1, 1) == (1, 1)
        assert aligned_coverage_counts(3, 1, 1) == (2, 0)
        assert aligned_coverage_counts(4, 1, 2) == (4, 1)

    def test_counts_range_checked(self):
        with pytest.raises(OutOfRange):
            aligned_coverage_counts(0, 0, 1)
        with pytest.raises(OutOfRange):
            aligned_coverage_counts(4, 0, 1)
        with pytest.raises(OutOfRange):
            aligned_coverage_counts(2, 2, 1)
        with pytest.raises(OutOfRange):
            aligned_coverage_counts(1.5, 0, 1)
        with pytest.raises(OutOfRange):
            aligned_coverage_counts(2, 0, 1.0)


class TestStaircase:
    def test_start_line_one_flips_from_the_left_edge(self):
        assert staircase(1, 1, 1) == (1, 1, 1, 1)
        assert staircase(1, 2, 1) == (1, 0, 0, 0)
        assert staircase(1, 3, 1) == (1, 0, 0, 1)
        assert staircase(2, 3, 1) == (1, 0, 0, 1, 1, 1, 1, 1)

    def test_start_line_zero_first_flips_at_site_two(self):
        assert staircase(1, 1, 0) == (0, 0, 0, 0)
        assert staircase(1, 2, 0) == (0, 0, 0, 1)
        assert staircase(2, 3, 0) == (0, 0, 0, 1, 1, 0, 0, 0)

    def test_segment_count_alignment_and_start(self):
        for scale in (1, 2, 3):
            for start in (0, 1):
                for seg in range(1, 2 * scale + start + 1):
                    f = staircase(scale, seg, start)
                    assert is_aligned(f)
                    assert segment_count(f) == seg
                    assert f[0] == start

    def test_rejects_out_of_range_requests(self):
        with pytest.raises(OutOfRange):
            staircase(1, 0, 1)
        with pytest.raises(OutOfRange):
            staircase(1, 3, 0)  # start 0 tops out at 2*scale
        with pytest.raises(OutOfRange):
            staircase(1, 4, 1)
        with pytest.raises(OutOfRange):
            staircase(1, 1, 2)

    def test_refuses_a_board_outside_the_site_limit(self):
        with pytest.raises(OutOfRange, match="board scale must be a positive integer: 0"):
            staircase(0, 1, 1)
        with pytest.raises(SizeLimitExceeded, match="1048576-site limit"):
            perfect_cover(10**9)
        # past the digits str() converts, a scale is named by its bits
        huge = 10**5000
        with pytest.raises(SizeLimitExceeded, match=f"M = <{huge.bit_length()}-bit integer> has"):
            staircase(huge, 1, 1)
        for refused in (lambda: resource_line(-1, huge), lambda: resource_type(-1, huge),
                        lambda: aligned_coverage_counts(0, 0, huge)):
            with pytest.raises(OutOfRange, match="-bit integer>"):
                refused()
        for target in (0, 1):
            with pytest.raises(PreconditionViolated, match="-bit integer>"):
                pad_segments((0,) * 8, target, huge)

    def test_matches_the_flip_set_walk(self):
        for scale in range(1, 7):
            for start in (0, 1):
                for seg in range(1, 2 * scale + start + 1):
                    assert staircase(scale, seg, start) == staircase_by_flip_set(scale, seg, start)

    def test_perfect_cover_is_the_maximal_staircase(self):
        for scale in (1, 2, 3):
            f = perfect_cover(scale)
            assert f == staircase(scale, 2 * scale + 1, 1)
            assert f == (1, 0, 0, 1) * scale
            s = summarize(f)
            assert (s.n_gold, s.n_mine) == (2 * scale, 0)

    def test_perfect_cover_is_unique_exhaustively(self):
        for scale in (1, 2):
            winners = [
                f
                for f in product((0, 1), repeat=4 * scale)
                if (summarize(f).n_gold, summarize(f).n_mine) == (2 * scale, 0)
            ]
            assert winners == [perfect_cover(scale)]


class TestCoveragePredicates:
    def test_windowed_perfect_cover(self):
        f = (1, 0, 0, 1, 0, 0, 0, 0)
        assert is_perfect_cover(f, 0, 3)
        assert not is_perfect_cover(f, 4, 7)
        assert not is_perfect_cover(f, 0, 7)
        with pytest.raises(OutOfRange):
            is_perfect_cover(f, 0, 8)
        with pytest.raises(OutOfRange):
            is_perfect_cover(f, -1, 3)

    def test_joint_gold_coverage(self):
        assert is_complete_gold_coverage(perfect_cover(2), (0,) * 8)
        assert is_complete_gold_coverage((1, 1, 1, 1), (0, 0, 0, 0))
        assert not is_complete_gold_coverage((0, 0, 0, 0), (0, 0, 0, 0))
        with pytest.raises(GameFormatError):
            is_complete_gold_coverage((0, 0, 0, 0), (0,) * 8)


class TestComplementCover:
    def test_requires_aligned_input(self):
        with pytest.raises(PreconditionViolated):
            build_complement_cover((0, 1, 0, 0))

    def test_covers_everything_the_input_missed(self):
        rng = random.Random(86)
        for _ in range(300):
            scale = rng.randint(1, 5)
            fb = random_aligned(rng, scale)
            fa = build_complement_cover(fb)
            assert is_aligned(fa)
            assert is_complete_gold_coverage(fa, fb)
            assert segment_count(fa) <= segment_count(fb)

    def test_matches_the_case_by_case_blocks_exhaustively(self):
        aligned = [f for scale in range(1, 5) for f in aligned_boards(scale)]
        assert len(aligned) == 141
        for f in aligned:
            assert build_complement_cover(f) == complement_by_cases(f), f

    def test_last_block_never_ends_perfectly_covered(self):
        rng = random.Random(87)
        for _ in range(200):
            scale = rng.randint(1, 4)
            fa = build_complement_cover(random_aligned(rng, scale))
            assert not is_perfect_cover(fa, 4 * scale - 4, 4 * scale - 1)


class TestPadSegments:
    def test_precondition_errors_name_the_failing_clause(self):
        with pytest.raises(PreconditionViolated, match="scale"):
            pad_segments((1, 0, 0, 0), 2, 1)
        ok = (1, 0, 0, 0, 0, 0, 0, 0)
        with pytest.raises(PreconditionViolated, match="target segments"):
            pad_segments(ok, 4, 2)  # above the 2*scale - 1 ceiling
        with pytest.raises(PreconditionViolated, match="length"):
            pad_segments((1, 0, 0, 0), 2, 2)
        with pytest.raises(PreconditionViolated, match="aligned"):
            pad_segments((0, 1, 0, 0, 0, 0, 0, 0), 3, 2)
        with pytest.raises(PreconditionViolated, match="over target"):
            pad_segments((1, 0, 0, 1, 1, 1, 1, 1), 2, 2)  # already has 3
        with pytest.raises(PreconditionViolated, match="last four"):
            pad_segments((1, 1, 1, 1, 1, 0, 0, 1), 3, 2)

    def test_no_op_when_target_already_met(self):
        f = (1, 0, 0, 0, 0, 0, 0, 0)
        assert pad_segments(f, 2, 2) == f

    def test_small_worked_example(self):
        # All-high with one run: raising to 3 segments carves out the first
        # block's mines, keeping golds 0 and 4 covered.
        out = pad_segments((1, 1, 1, 1, 1, 1, 1, 1), 3, 2)
        assert out == (1, 0, 0, 1, 1, 1, 1, 1)

    @pytest.mark.parametrize("scale", [2, 3])
    def test_randomized_postconditions(self, scale):
        rng = random.Random(1000 + scale)
        done = 0
        while done < 500:
            f = random_aligned(rng, scale)
            if is_perfect_cover(f, 4 * scale - 4, 4 * scale - 1):
                continue
            if segment_count(f) > 2 * scale - 1:
                continue
            target = rng.randint(segment_count(f), 2 * scale - 1)
            out = pad_segments(f, target, scale)
            assert is_aligned(out)
            assert segment_count(out) == target
            assert out[0] == f[0]
            assert summarize(f).gold_sites <= summarize(out).gold_sites
            done += 1


    def test_matches_the_rescanning_reference_exhaustively(self):
        # every aligned board at M = 2..4 the preconditions admit, at every
        # target from its segment count up to 2M - 1
        pairs = 0
        for scale in range(2, 5):
            for f in aligned_boards(scale):
                if (is_perfect_cover(f, 4 * scale - 4, 4 * scale - 1)
                        or segment_count(f) > 2 * scale - 1):
                    continue
                for target in range(segment_count(f), 2 * scale):
                    assert pad_segments(f, target, scale) == pad_by_rescan(f, target, scale)
                    pairs += 1
        assert pairs == 356

    def test_refuses_a_board_over_the_site_limit(self):
        scale = 2**18 + 1
        with pytest.raises(SizeLimitExceeded, match="1048576-site limit"):
            pad_segments((1,) * (4 * scale - 4) + (1, 0, 0, 0), 3, scale)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.integers(2, 10),
           flip_prob=st.sampled_from([0.2, 0.5, 0.8]))
    def test_matches_the_rescanning_reference(self, seed, scale, flip_prob):
        f = random_aligned(random.Random(seed), scale, flip_prob)
        assume(not is_perfect_cover(f, 4 * scale - 4, 4 * scale - 1))
        assume(segment_count(f) <= 2 * scale - 1)
        for target in range(segment_count(f), 2 * scale):
            assert pad_segments(f, target, scale) == pad_by_rescan(f, target, scale), target


class TestStrategyText:
    def test_round_trip(self):
        assert parse_strategy("1001") == (1, 0, 0, 1)
        assert parse_strategy(" 1001\n") == (1, 0, 0, 1)
        assert format_strategy((1, 0, 0, 1)) == "1001"

    def test_rejects_garbage(self):
        with pytest.raises(GameFormatError):
            parse_strategy("10x1")
        for bad in ["", "101", "10011"]:
            with pytest.raises(GameFormatError):
                parse_strategy(bad)


class TestGameParams:
    def test_validation(self):
        with pytest.raises(OutOfRange):
            GameParams(0, F(1, 2), F(-3, 4), 1, 1)
        with pytest.raises(OutOfRange):
            GameParams(1, F(1, 2), F(-3, 4), 0, 1)
        with pytest.raises(OutOfRange):
            GameParams(1, F(1, 2), F(-3, 4), 1, -2)
        with pytest.raises(HypothesisViolation):
            GameParams(1, F(3, 2), F(-3, 4), 1, 1)  # shared payoff above 1
        with pytest.raises(HypothesisViolation):
            GameParams(1, F(1, 2), F(1, 4), 1, 1)  # penalty must be negative

    def test_accepts_rational_strings(self):
        p = GameParams(1, "1/2", "-3/4", 1, 1)
        assert (p.rho, p.mu) == (F(1, 2), F(-3, 4))
        with pytest.raises(GameFormatError, match="rho"):
            GameParams(1, 0.5, F(-3, 4), 1, 1)
        with pytest.raises(GameFormatError, match="mu"):
            GameParams(1, F(1, 2), -0.75, 1, 1)
        with pytest.raises(GameFormatError, match="mu"):
            GameParams(1, F(1, 2), "-0.75", 1, 1)

    @pytest.mark.parametrize("field", [0, 3, 4])
    @pytest.mark.parametrize("bad", [1.0, "3", None, F(2), True])
    def test_scale_and_capabilities_must_be_integers(self, field, bad):
        args = [2, F(1, 3), F(-1, 2), 1, 2]
        args[field] = bad
        with pytest.raises(OutOfRange, match="must be an integer"):
            GameParams(*args)

    def test_numpy_integers_become_ints(self):
        p = GameParams(np.int64(2), F(1, 3), F(-1, 2), np.int32(1), np.uint8(2))
        assert (p.scale, p.cap_a, p.cap_b) == (2, 1, 2)
        assert all(type(v) is int for v in (p.scale, p.cap_a, p.cap_b))

    def test_closed_form_regime_is_stricter_than_construction(self):
        # Valid game parameters that the closed form nevertheless rejects:
        require_closed_form_regime(F(1, 2), F(-3, 4))
        with pytest.raises(HypothesisViolation):
            require_closed_form_regime(F(1, 2), F(-1, 4))  # -mu below rho
        with pytest.raises(HypothesisViolation):
            require_closed_form_regime(F(1, 2), F(-5, 4))  # -mu above 1
        with pytest.raises(HypothesisViolation):
            require_closed_form_regime(F(1, 2), F(-1, 2))  # boundary rho == -mu

    def test_sites_property(self):
        assert params(3).sites == 12
