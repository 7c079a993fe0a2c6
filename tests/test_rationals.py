from fractions import Fraction

import numpy as np
import pytest

from capgames import goldmines, oracle
from capgames.errors import CapgamesError, OutOfRange
from capgames.game import CapabilityGame, ctf_pure, is_pure_ne
from capgames.goldmines import GameParams
from capgames.rationals import (
    as_fraction,
    as_integer,
    format_rational,
    parse_rational,
    scaled,
)

F = Fraction


def test_parse_accepts_integers_and_fractions():
    assert parse_rational("1/2") == F(1, 2)
    assert parse_rational("-3/4") == F(-3, 4)
    assert parse_rational("+2") == 2
    assert parse_rational("7") == 7
    assert parse_rational(" 5/10 ") == F(1, 2)
    assert parse_rational("0") == 0


@pytest.mark.parametrize(
    "bad",
    ["0.5", ".5", "1e3", "1/0", "a", "1/2/3", "1 / 2", "", "--1", "1/-2"],
)
def test_parse_rejects_everything_else(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_is_the_parsing_inverse():
    for text in ["1/2", "-3/4", "7", "0", "-11"]:
        assert format_rational(parse_rational(text)) == text
    assert format_rational(F(4, 2)) == "2"
    assert format_rational(F(1, 2), decimal=True) == "0.5"
    assert format_rational(F(-3, 4), decimal=True) == "-0.75"


@pytest.mark.parametrize("big", [F(10**400), F(-(10**400), 3)])
def test_decimal_past_float_range_is_out_of_range(big):
    with pytest.raises(OutOfRange, match="too large to render as a decimal"):
        format_rational(big, decimal=True)
    assert format_rational(big) == str(big)


def test_more_digits_than_str_converts_is_out_of_range():
    # both denominators print; their sum's (about 8,600 digits) does not
    x = F(1, 10**4299 - 1) + F(1, 10**4299 - 3)
    with pytest.raises(OutOfRange, match="^value too large to render$"):
        format_rational(x)


H = 10**5000  # more digits than str() converts
UNIT = CapabilityGame.from_matrices([[1]], [[1]])


# each call's message has to name H
HUGE_VALUE_CALLS = {
    "GameParams-caps": lambda: GameParams(1, F(1, 2), F(-3, 4), H, 0),
    "GameParams-scale": lambda: GameParams(-H, F(1, 2), F(-3, 4), 1, 1),
    "require_board": lambda: goldmines.require_board(-H),
    "resource_line": lambda: goldmines.resource_line(H, 1),
    "resource_type": lambda: goldmines.resource_type(H, 1),
    "aligned_coverage_counts": lambda: goldmines.aligned_coverage_counts(H, 0, 1),
    "staircase-segments": lambda: goldmines.staircase(1, H, 1),
    "staircase-start": lambda: goldmines.staircase(1, 1, H),
    "pad_segments": lambda: goldmines.pad_segments((0,) * 8, H, 2),
    "payoff_grid": lambda: goldmines.equilibrium_payoff_grid(1, F(1, 2), F(-3, 4), H, 2),
    "is_perfect_cover": lambda: goldmines.is_perfect_cover((1, 0, 0, 1), 0, H),
    "build_equilibrium": lambda: goldmines.build_equilibrium(
        GameParams(1, F(1, 4), F(-1, 2), 1, 1), H),
    "PayoffTable": lambda: oracle.PayoffTable(-H, F(1, 2), F(-3, 4)),
    "space_size": lambda: UNIT.space_size(0, H),
    "is_pure_ne": lambda: is_pure_ne(UNIT, (1, 1), (H, 0)),
    # Fractions, and values spelled with repr, name H as well
    "GameParams-fraction-scale": lambda: GameParams(F(H, 3), F(1, 2), F(-3, 4), 1, 1),
    "GameParams-rho": lambda: GameParams(1, F(H, 1), F(-3, 4), 1, 1),
    "GameParams-mu": lambda: GameParams(1, F(1, 2), F(H, 3), 1, 1),
    "require_closed_form_regime": lambda: goldmines.require_closed_form_regime(
        F(1, 2), F(-1, H)),
    "cutoff-chain": lambda: CapabilityGame((("a",),), ((F(H, 3),),), {(0,): (1,)}),
    "top-cutoff": lambda: CapabilityGame((("a",),), ((H,),), {(0,): (1,)}),
    "payoff-vector": lambda: CapabilityGame((("a",),), ((1,),), {(0,): H}),
    "space_size-fraction": lambda: UNIT.space_size(0, F(H, 3)),
    "ctf_pure": lambda: ctf_pure(UNIT, (F(H, 3), 1)),
}


@pytest.mark.parametrize("call", HUGE_VALUE_CALLS.values(), ids=HUGE_VALUE_CALLS.keys())
def test_library_messages_spell_huge_integers(call):
    with pytest.raises(CapgamesError, match=f"<{H.bit_length()}-bit integer>"):
        call()


def test_as_fraction_coercions():
    assert as_fraction(3) == F(3)
    assert as_fraction(F(2, 7)) == F(2, 7)
    assert as_fraction("-5/6") == F(-5, 6)
    with pytest.raises(TypeError):
        as_fraction(0.5)
    with pytest.raises(TypeError):
        as_fraction(True)
    with pytest.raises(ValueError):
        as_fraction("0.5")
    # numpy integers are exact integers here as they are for as_integer
    assert as_fraction(np.int64(-3)) == F(-3) and type(as_fraction(np.int64(-3))) is Fraction
    with pytest.raises(TypeError, match="booleans are not rationals"):
        as_fraction(True)
    with pytest.raises(TypeError, match="got float64"):
        as_fraction(np.float64(1))
    # a numpy boolean is refused as a Python one is, under every numpy version
    with pytest.raises(TypeError, match="^booleans are not rationals$"):
        as_fraction(np.True_)
    with pytest.raises(TypeError, match="^booleans are not integers$"):
        as_integer(np.True_)


def test_scaled_puts_every_value_over_the_lcm_of_the_denominators():
    assert scaled([F(1, 2), F(-3, 4), F(2), F(5, 6)]) == ([6, -9, 24, 10], 12)
    assert scaled(iter([F(-1, 3)])) == ([-1], 3)
    assert scaled([F(2**70), F(1, 3**45)]) == ([2**70 * 3**45, 1], 3**45)
