"""Reading capability games from JSON.

Format::

    {
      "players": [
        {"actions": ["top", "bottom"], "cutoffs": [1, 2]},
        {"actions": ["left", "right"], "cutoffs": [2]}
      ],
      "payoffs": [[1, 2], ["-1", 1], [2, 1], [0, 2]]
    }

``payoffs`` is a flat list with one n-entry vector per full strategy
profile, in row-major profile order (the first player's action index varies
slowest).  Rationals are bare integers or "p/q" strings; decimal literals
are rejected to keep everything exact.
"""

from __future__ import annotations

import json
from itertools import product
from math import prod
from pathlib import Path

from .errors import GameFormatError
from .game import CapabilityGame


def parse_game(obj) -> CapabilityGame:
    """Build a game from decoded JSON data; ``CapabilityGame`` checks it."""
    if not isinstance(obj, dict):
        raise GameFormatError("top level must be an object")
    try:
        players = obj["players"]
        raw_payoffs = obj["payoffs"]
    except KeyError as missing:
        raise GameFormatError(f"missing field {missing}") from None
    if not isinstance(players, list) or not players:
        raise GameFormatError('"players" must be a nonempty array')

    actions, cutoffs = [], []
    for p, entry in enumerate(players):
        try:
            acts = entry["actions"]
            cuts = entry["cutoffs"]
        except (TypeError, KeyError):
            raise GameFormatError(
                f'player {p + 1} needs "actions" and "cutoffs"') from None
        if not isinstance(acts, list) or not all(isinstance(a, str) for a in acts):
            raise GameFormatError(f"player {p + 1}: actions must be an array of strings")
        actions.append(acts)
        cutoffs.append(cuts)

    counts = [len(a) for a in actions]
    expected = prod(counts)
    if not isinstance(raw_payoffs, list) or len(raw_payoffs) != expected:
        raise GameFormatError(
            f'"payoffs" must list exactly {expected} vectors, got '
            f"{len(raw_payoffs) if isinstance(raw_payoffs, list) else type(raw_payoffs).__name__}")

    payoffs = dict(zip(product(*(range(k) for k in counts)), raw_payoffs))
    return CapabilityGame(actions, cutoffs, payoffs)


def load_game(path: str | Path) -> CapabilityGame:
    """Load a game description from a JSON file, read as UTF-8.

    A file that cannot be opened raises OSError; every other failure, to
    decode it or in the game it holds, raises a CapgamesError.
    """
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as bad:
        raise GameFormatError(
            f"bad JSON at line {bad.lineno}, column {bad.colno}: {bad.msg}") from None
    except (ValueError, RecursionError) as bad:  # not UTF-8, too deep, an over-long integer
        raise GameFormatError(f"cannot read the game file: {bad}") from None
    return parse_game(obj)

