import json
from fractions import Fraction
from pathlib import Path

import pytest

from capgames import game_to_json, load_game, parse_game
from capgames.errors import GameFormatError, HierarchyViolation, IncompletePayoffs

FIXTURES = Path(__file__).parent / "data"

GOOD = {
    "players": [
        {"actions": ["top", "bottom"], "cutoffs": [1, 2]},
        {"actions": ["left", "right"], "cutoffs": [2]},
    ],
    "payoffs": [[1, 2], ["-1", 1], [2, 1], [0, 2]],
}


def test_fixture_loads_with_expected_content():
    game = load_game(FIXTURES / "capability_decrease.json")
    assert game.actions == (("top", "bottom"), ("left", "right"))
    assert game.cutoffs == ((1, 2), (2,))
    assert game.payoffs[(0, 0)] == (1, 2)
    assert game.payoffs[(0, 1)] == (-1, 1)
    assert game.payoffs[(1, 0)] == (2, 1)
    assert game.payoffs[(1, 1)] == (0, 2)


def test_parse_reads_row_major_payoff_order():
    game = parse_game(GOOD)
    assert game.payoffs[(0, 1)] == (-1, 1)
    assert game.payoffs[(1, 0)] == (2, 1)


def test_round_trip_through_json():
    game = parse_game(GOOD)
    again = parse_game(game_to_json(game))
    assert again == game


def test_round_trip_keeps_fractions_as_strings():
    doc = {
        "players": [{"actions": ["x", "y"], "cutoffs": [2]},
                    {"actions": ["l"], "cutoffs": [1]}],
        "payoffs": [["1/3", 0], ["-2/7", 1]],
    }
    game = parse_game(doc)
    assert game.payoffs[(0, 0)] == (Fraction(1, 3), 0)
    out = game_to_json(game)
    assert out["payoffs"][0] == ["1/3", 0]
    assert out["payoffs"][1] == ["-2/7", 1]
    json.dumps(out)  # must be serializable as-is


@pytest.mark.parametrize(
    "mangle,error",
    [
        (lambda d: [], GameFormatError),  # top level not an object
        (lambda d: {k: v for k, v in d.items() if k != "players"}, GameFormatError),
        (lambda d: {k: v for k, v in d.items() if k != "payoffs"}, GameFormatError),
        (lambda d: {**d, "players": []}, GameFormatError),
        (lambda d: {**d, "players": [{"actions": ["a"]}, d["players"][1]]},
         GameFormatError),  # missing cutoffs
        (lambda d: {**d, "players": [{"actions": [1, 2], "cutoffs": [2]},
                                     d["players"][1]]}, GameFormatError),
        (lambda d: {**d, "players": [{"actions": ["a", "b"], "cutoffs": [True, 2]},
                                     d["players"][1]]}, GameFormatError),
        (lambda d: {**d, "payoffs": d["payoffs"][:3]}, IncompletePayoffs),
        (lambda d: {**d, "payoffs": "nope"}, IncompletePayoffs),
        (lambda d: {**d, "payoffs": [[1, 2, 3]] + d["payoffs"][1:]},
         IncompletePayoffs),  # wrong arity
        # a string vector would split into one entry per character
        (lambda d: {**d, "payoffs": ["12"] + d["payoffs"][1:]}, IncompletePayoffs),
        # so would an object, into its keys
        (lambda d: {**d, "payoffs": [{"a": 1, "b": 2}] + d["payoffs"][1:]},
         IncompletePayoffs),
        # one vector too many: the profile loop would drop it unseen
        (lambda d: {**d, "payoffs": d["payoffs"] + [[0, 0]]}, IncompletePayoffs),
        (lambda d: {**d, "payoffs": [[0.5, 2]] + d["payoffs"][1:]},
         GameFormatError),  # decimals are rejected
        (lambda d: {**d, "payoffs": [["1.5", 2]] + d["payoffs"][1:]},
         GameFormatError),
        (lambda d: {**d, "players": [
            {"actions": ["a", "b"], "cutoffs": [2, 1]},
            d["players"][1]]}, HierarchyViolation),  # validated after parsing
        # actions and cutoffs must be arrays: a number is not iterable and a
        # string would split into one action per character
        (lambda d: {**d, "players": [{"actions": 5, "cutoffs": [2]},
                                     d["players"][1]]}, GameFormatError),
        (lambda d: {**d, "players": [{"actions": ["a", "b"], "cutoffs": 1},
                                     d["players"][1]]}, GameFormatError),
        (lambda d: {**d, "players": [{"actions": "ab", "cutoffs": [1, 2]},
                                     d["players"][1]]}, GameFormatError),
    ],
)
def test_malformed_documents_raise_specific_errors(mangle, error):
    with pytest.raises(error):
        parse_game(mangle(dict(GOOD)))


def test_load_propagates_json_position_info(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"players": [,]}')
    with pytest.raises(json.JSONDecodeError) as info:
        load_game(bad)
    assert info.value.lineno == 1


def test_load_missing_file_is_an_oserror(tmp_path):
    with pytest.raises(OSError):
        load_game(tmp_path / "absent.json")
