"""Output checks for benchmark calls.

Every call must exit 0 and print what its request asks for.  Pure
equilibrium cells are recomputed by a small brute-force reference that
lives here and does not import ``capgames``; the gold-and-mines calls are
checked through their own ``match`` verdicts and row counts.  At the default
seed each call's stdout must also hash to the digest recorded at the seed
commit (``digests.json``).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import re
from fractions import Fraction
from itertools import product

from workloads import Game, Request

PURE_SAMPLE = 24  # random pure cells recomputed per call, besides the top cell


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


# --- brute-force reference ---

def pure_ne_payoffs(game: Game, caps) -> set[tuple[int, ...]]:
    """Payoff vectors of every pure NE of ``game`` restricted to ``caps``."""
    n = len(game.counts)
    sizes = [game.cutoffs[p][c - 1] for p, c in enumerate(caps)]
    strides = [1] * n
    for p in range(n - 2, -1, -1):
        strides[p] = strides[p + 1] * game.counts[p + 1]
    pay = game.payoffs
    found = set()
    for profile in product(*(range(k) for k in sizes)):
        idx = sum(a * s for a, s in zip(profile, strides))
        here = pay[idx]
        if all(
            pay[idx + (alt - a) * strides[p]][p] <= here[p]
            for p, a in enumerate(profile)
            for alt in range(sizes[p])
        ):
            found.add(here)
    return found


def welfare_levels(game: Game) -> list[set[int]]:
    return [
        {sum(v) for v in pure_ne_payoffs(game, (b,) * len(game.counts))}
        for b in range(1, len(game.cutoffs[0]) + 1)
    ]


def verdict(levels: list[set[int]]) -> str:
    if any(not w for w in levels):
        return "undetermined"
    if any(max(lo) > min(hi) for lo, hi in zip(levels, levels[1:])):
        return "not-positive"
    return "positive"


def vector_set_text(vectors) -> str:
    """The CLI's rendering of a set of integer payoff vectors."""
    parts = []
    for vec in sorted(vectors):
        inner = ", ".join(str(v) for v in vec)
        parts.append(inner if len(vec) == 1 else f"({inner})")
    return ";".join(parts) if parts else "{}"


def parse_vector_set(text: str) -> set[tuple[Fraction, ...]]:
    if text == "{}":
        return set()
    return {
        tuple(Fraction(v) for v in part.strip("()").split(", "))
        for part in text.split(";")
    }


# --- output parsing ---

def _json_cell(cell) -> str:
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, (int, str)):
        return str(cell)
    parts = [", ".join(vec) if len(vec) == 1 else f"({', '.join(vec)})" for vec in cell]
    return ";".join(parts) if parts else "{}"


def parse_table(text: str, fmt: str) -> list[list[str]]:
    """Header plus rows, every cell as the table format would print it."""
    if fmt == "json":
        doc = json.loads(text)
        return [doc["header"]] + [[_json_cell(c) for c in row] for row in doc["rows"]]
    if fmt == "csv":
        return [row for row in csv.reader(io.StringIO(text))]
    return [re.split(r" {2,}", line.rstrip()) for line in text.splitlines()]


# --- per-kind checks ---

def _grid(game: Game):
    return list(product(*(range(1, len(c) + 1) for c in game.cutoffs)))


def _check_pure(req: Request, rows, rng: random.Random) -> str | None:
    game = req.game
    cells = _grid(game)
    if len(rows) != len(cells) + 1:
        return f"{len(rows) - 1} rows for {len(cells)} cells"
    n = len(game.counts)
    picks = set(range(len(cells)))
    if len(cells) > PURE_SAMPLE:
        picks = {len(cells) - 1} | set(rng.sample(range(len(cells)), PURE_SAMPLE))
    for i in sorted(picks):
        row = rows[i + 1]
        if tuple(int(c) for c in row[:n]) != cells[i]:
            return f"row {i} labels {row[:n]}, want {cells[i]}"
        want = vector_set_text(pure_ne_payoffs(game, cells[i]))
        if row[n] != want:
            return f"cell {cells[i]}: {row[n]!r}, reference {want!r}"
    return None


def _check_mixed(req: Request, rows) -> str | None:
    game = req.game
    cells = _grid(game)
    if len(rows) != len(cells) + 1:
        return f"{len(rows) - 1} rows for {len(cells)} cells"
    for caps, row in zip(cells, rows[1:]):
        if row[3] not in ("true", "false"):
            return f"cell {caps}: degenerate flag {row[3]!r}"
        pure = {tuple(Fraction(v) for v in vec) for vec in pure_ne_payoffs(game, caps)}
        if not pure <= parse_vector_set(row[2]):
            return f"cell {caps}: pure equilibria missing from {row[2]!r}"
    return None


def _check_positive(req: Request, rows) -> str | None:
    levels = welfare_levels(req.game)
    want = [["level", "welfare"]]
    want += [[str(b), vector_set_text((w,) for w in ws)] for b, ws in enumerate(levels, 1)]
    want.append(["verdict", verdict(levels)])
    return None if rows == want else f"rows {rows}, reference {want}"


def _check_verify(req: Request, text: str) -> str | None:
    if req.fmt == "json":
        return None if json.loads(text)["match"] is True else "match is not true"
    fields = dict(row[:2] for row in parse_table(text, req.fmt)[1:])
    return None if fields.get("match") == "true" else f"match is {fields.get('match')!r}"


def check_call(req: Request, code: int, stdout: bytes, want_digest: str | None) -> str | None:
    """None when the call is correct, else the reason it is not."""
    if code != 0:
        return f"exit code {code}"
    if want_digest is not None and digest(stdout) != want_digest:
        return "stdout differs from the recorded digest"
    text = stdout.decode()
    try:
        if req.kind == "gm_verify":
            return _check_verify(req, text)
        rows = parse_table(text, req.fmt)
        if req.kind == "pure_ctf":
            return _check_pure(req, rows, random.Random(req.rid))
        if req.kind == "mixed_ctf":
            return _check_mixed(req, rows)
        if req.kind == "positive":
            return _check_positive(req, rows)
        if len(rows) - 1 != req.expect["rows"]:
            return f"{len(rows) - 1} rows, want {req.expect['rows']}"
        if req.expect.get("match"):
            col = rows[0].index("match")
            if any(row[col] != "true" for row in rows[1:]):
                return "a match cell is not true"
        return None
    except (ValueError, KeyError, IndexError) as bad:
        return f"unparseable output: {bad!r}"
