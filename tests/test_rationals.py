from fractions import Fraction

import pytest

from capgames.errors import OutOfRange
from capgames.rationals import as_fraction, format_rational, parse_rational, scaled

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


def test_scaled_puts_every_value_over_the_lcm_of_the_denominators():
    assert scaled([F(1, 2), F(-3, 4), F(2), F(5, 6)]) == ([6, -9, 24, 10], 12)
    assert scaled(iter([F(-1, 3)])) == ([-1], 3)
    assert scaled([F(2**70), F(1, 3**45)]) == ([2**70 * 3**45, 1], 3**45)
