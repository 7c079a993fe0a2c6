import json
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from capgames import CapabilityGame, load_game, parse_game
from capgames.errors import CapgamesError, GameFormatError
from tests._support import game_to_json

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
    assert game.payoffs == {(0, 0): (1, 2), (0, 1): (-1, 1), (1, 0): (2, 1), (1, 1): (0, 2)}
    assert all(type(v) is Fraction for vec in game.payoffs.values() for v in vec)


def test_a_boolean_after_an_equal_integer_in_a_file_is_refused(tmp_path):
    path = tmp_path / "flag.json"
    path.write_text(json.dumps({**GOOD, "payoffs": [[1, 2], [-1, 1], [2, 1], [1, True]]}))
    with pytest.raises(GameFormatError, match=r"^profile \(1, 1\): booleans are not rationals"):
        load_game(path)


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


# every case raises GameFormatError; ``kind`` names what the case breaks,
# the document's format, its payoff list or its cutoff hierarchy, and
# gives the case its id
@pytest.mark.parametrize(
    "mangle,kind",
    [
        (lambda d: [], "GameFormatError"),  # top level not an object
        (lambda d: {k: v for k, v in d.items() if k != "players"}, "GameFormatError"),
        (lambda d: {k: v for k, v in d.items() if k != "payoffs"}, "GameFormatError"),
        (lambda d: {**d, "players": []}, "GameFormatError"),
        (lambda d: {**d, "players": [{"actions": ["a"]}, d["players"][1]]},
         "GameFormatError"),  # missing cutoffs
        (lambda d: {**d, "players": [{"actions": [1, 2], "cutoffs": [2]},
                                     d["players"][1]]}, "GameFormatError"),
        (lambda d: {**d, "players": [5, d["players"][1]]},
         "GameFormatError"),  # a player entry that is no object
        (lambda d: {**d, "payoffs": d["payoffs"][:3]}, "IncompletePayoffs"),
        (lambda d: {**d, "payoffs": "nope"}, "IncompletePayoffs"),
        (lambda d: {**d, "payoffs": [[1, 2, 3]] + d["payoffs"][1:]},
         "IncompletePayoffs"),  # wrong arity
        # a string vector would split into one entry per character
        (lambda d: {**d, "payoffs": ["12"] + d["payoffs"][1:]}, "IncompletePayoffs"),
        # so would an object, into its keys
        (lambda d: {**d, "payoffs": [{"a": 1, "b": 2}] + d["payoffs"][1:]},
         "IncompletePayoffs"),
        # one vector too many: the profile loop would drop it unseen
        (lambda d: {**d, "payoffs": d["payoffs"] + [[0, 0]]}, "IncompletePayoffs"),
        (lambda d: {**d, "payoffs": [[0.5, 2]] + d["payoffs"][1:]},
         "GameFormatError"),  # decimals are rejected
        (lambda d: {**d, "payoffs": [["1.5", 2]] + d["payoffs"][1:]},
         "GameFormatError"),
        (lambda d: {**d, "players": [
            {"actions": ["a", "b"], "cutoffs": [2, 1]},
            d["players"][1]]}, "HierarchyViolation"),  # validated after parsing
        # actions and cutoffs must be arrays: a number is not iterable and a
        # string would split into one action per character
        (lambda d: {**d, "players": [{"actions": 5, "cutoffs": [2]},
                                     d["players"][1]]}, "GameFormatError"),
        (lambda d: {**d, "payoffs": [["1/0", 2]] + d["payoffs"][1:]},
         "GameFormatError"),  # zero denominator
        (lambda d: {**d, "players": [{"actions": "ab", "cutoffs": [1, 2]},
                                     d["players"][1]]}, "GameFormatError"),
    ],
)
def test_malformed_documents_raise_specific_errors(mangle, kind):
    with pytest.raises(GameFormatError):
        parse_game(mangle(dict(GOOD)))


# CapabilityGame refuses every cutoff chain that is no array of integers
@pytest.mark.parametrize("cutoffs", [[True, 2], 1, "12", None, [1.0, 2]])
def test_cutoff_chains_that_are_no_integer_arrays_raise_hierarchy_violation(cutoffs):
    doc = {**GOOD, "players": [{"actions": ["a", "b"], "cutoffs": cutoffs},
                               GOOD["players"][1]]}
    with pytest.raises(GameFormatError):
        parse_game(doc)


def test_load_propagates_json_position_info(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"players": [,]}')
    with pytest.raises(GameFormatError, match="line 1, column"):
        load_game(bad)


def test_load_missing_file_is_an_oserror(tmp_path):
    with pytest.raises(OSError):
        load_game(tmp_path / "absent.json")


# JSON text, built by hand: json.dumps cannot write an integer of more digits
# than str() converts, and the reader has to meet those too
_LEAVES = st.one_of(
    st.none().map(json.dumps), st.booleans().map(json.dumps),
    st.integers().map(json.dumps), st.floats().map(json.dumps),
    st.text(max_size=4).map(json.dumps),
    st.sampled_from(["1/2", "-3/4", "1/0", "0.5"]).map(json.dumps),
    st.integers(4301, 4400).map(lambda digits: "7" * digits),
)


def _array(items):
    return "[" + ", ".join(items) + "]"


def _object(fields):
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in fields.items()) + "}"


_JSON = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4).map(_array),
    st.dictionaries(st.text(max_size=4), inner, max_size=4).map(_object)), max_leaves=12)
_ENTRIES = st.one_of(st.integers(-9, 9).map(json.dumps),
                     st.sampled_from(["1/2", "-3/4"]).map(json.dumps))


@st.composite
def _game_documents(draw):
    """A valid game's JSON text, but for a field or two that holds any JSON
    value instead, so that most documents reach CapabilityGame."""
    def field(valid: str) -> str:
        return draw(_JSON) if draw(st.sampled_from([False] * 7 + [True])) else valid

    counts = draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
    players = [_object({"actions": field(json.dumps(["a", "b"][:k])),
                        "cutoffs": field(json.dumps(draw(st.sampled_from([[k], [1, k]]))))})
               for k in counts]
    payoffs = [field(_array([field(draw(_ENTRIES)) for _ in counts]))
               for _ in range(prod(counts))]
    return _object({"players": field(_array(players)), "payoffs": field(_array(payoffs))})


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.binary(), _JSON.map(str.encode), _game_documents().map(str.encode)))
def test_any_file_loads_as_a_game_or_raises_a_capgames_error(tmp_path, data):
    path = tmp_path / "game.json"
    path.write_bytes(data)
    try:
        game = load_game(path)
    except CapgamesError:
        return
    assert isinstance(game, CapabilityGame)
