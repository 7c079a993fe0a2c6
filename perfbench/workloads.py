"""Seeded inputs for the four benchmark workloads.

``generate(workload, seed, out_dir, root)`` writes every game file the workload
needs into ``out_dir`` and returns the request list.  The same seed always
gives byte-identical files and the same requests.  Every request is valid:
each one must exit 0 at a correct ``capgames``.

Nothing here sets ``CAPGAMES_MAX_SCALE``; brute-force requests stay at
M <= 3, the library's default bound.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("engine_generic", "engine_tied", "goldmines_verify", "cli_calls")

# tests/data ships with the repository; its levels are unequal, so only
# `game ctf` runs on it (`capability-positive` exits 1 there, as documented)
FIXTURE = "tests/data/capability_decrease.json"


@dataclass(frozen=True)
class Game:
    """A generated game: the JSON written to ``path`` plus the same data in
    memory, so the checker's reference never has to parse the file."""

    path: str
    counts: tuple[int, ...]
    cutoffs: tuple[tuple[int, ...], ...]
    payoffs: tuple[tuple[int, ...], ...]  # row-major, one vector per profile


@dataclass(frozen=True)
class Request:
    """One CLI call: ``argv`` follows ``python -m capgames.cli``.

    ``kind`` selects the output check; ``game`` is the generated game the
    call reads, if any.
    """

    rid: str
    kind: str
    argv: tuple[str, ...]
    fmt: str = "table"
    game: Game | None = None
    expect: dict = field(default_factory=dict)


def write_game(rng: random.Random, path: Path, counts, cutoffs, lo: int, hi: int) -> Game:
    """Uniform integer payoffs in lo..hi for every profile, row-major."""
    n_profiles = 1
    for k in counts:
        n_profiles *= k
    payoffs = tuple(
        tuple(rng.randint(lo, hi) for _ in counts) for _ in range(n_profiles))
    doc = {
        "players": [
            {"actions": [f"a{j}" for j in range(k)], "cutoffs": list(c)}
            for k, c in zip(counts, cutoffs)
        ],
        "payoffs": [list(v) for v in payoffs],
    }
    path.write_text(json.dumps(doc, separators=(",", ":")))
    return Game(str(path), tuple(counts), tuple(tuple(c) for c in cutoffs), payoffs)


def _rational(rng: random.Random) -> tuple[Fraction, Fraction]:
    """A (rho, mu) pair in the closed-form regime 0 < rho < -mu < 1."""
    while True:
        q = rng.randint(2, 9)
        rho = Fraction(rng.randint(1, q - 1), q)
        s = rng.randint(2, 9)
        mu = -Fraction(rng.randint(1, s - 1), s)
        if 0 < rho < -mu < 1:
            return rho, mu


def _text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _board(scale: int, rho: Fraction, mu: Fraction) -> tuple[str, ...]:
    return ("--M", str(scale), "--rho", _text(rho), "--mu", _text(mu))


def _engine(rng: random.Random, out: Path, lo: int, hi: int, positive: bool) -> list[Request]:
    # per pass, pure ctf on one n=4 k=5 and four n=5 k=4 games, mixed ctf on
    # two 6x6 games: the n=5 k=4 calls, whose time varies least from game to
    # game, sit between the others, so the median call falls among them.
    # capability-positive (mostly interpreter start) runs on the n=4 k=5 game
    # only, so that these short calls stay one in eight (see README.md)
    shapes = (("n5k4-0", 4, 5), ("6x6-0", 6, 2), ("n4k5-0", 5, 4), ("n5k4-1", 4, 5),
              ("6x6-1", 6, 2), ("n5k4-2", 4, 5), ("n5k4-3", 4, 5))
    reqs = []
    for tag, k, n in shapes:
        if n == 2:
            g = write_game(rng, out / f"mixed{tag}.json", (k, k), [(2, 4, 6)] * 2, lo, hi)
            reqs.append(Request(f"mixed-{tag}", "mixed_ctf",
                                ("game", "ctf", g.path, "--mode", "mixed"), game=g))
            continue
        g = write_game(rng, out / f"{tag}.json", (k,) * n, [range(1, k + 1)] * n, lo, hi)
        reqs.append(Request(f"ctf-{tag}", "pure_ctf", ("game", "ctf", g.path), game=g))
        if positive and k == 5:
            reqs.append(Request(f"positive-{tag}", "positive",
                                ("game", "capability-positive", g.path), game=g))
    return reqs


def _goldmines_verify(rng: random.Random) -> list[Request]:
    pairs = [_rational(rng) for _ in range(3)]
    reqs = [
        Request(f"sweep-{i}", "gm_ctf",
                ("goldmines", "ctf", *_board(3, rho, mu),
                 "--ca-max", "8", "--cb-max", "8", "--verify"),
                expect={"rows": 64, "match": True})
        for i, (rho, mu) in enumerate(pairs[:2])
    ]
    rho, mu = pairs[2]
    for i in range(9):
        fmt = "json" if i % 3 == 2 else "table"
        ca, cb = rng.randint(1, 8), rng.randint(1, 8)
        reqs.append(Request(
            f"verify-{i}", "gm_verify",
            ("goldmines", "verify", *_board(3, rho, mu), "--ca", str(ca), "--cb", str(cb),
             "--format", fmt), fmt=fmt))
    return reqs


def read_game(path: str) -> Game:
    """The in-memory form of an integer-payoff game file."""
    doc = json.loads(Path(path).read_text())
    counts = tuple(len(p["actions"]) for p in doc["players"])
    cutoffs = tuple(tuple(p["cutoffs"]) for p in doc["players"])
    return Game(path, counts, cutoffs, tuple(tuple(v) for v in doc["payoffs"]))


def _cli_calls(rng: random.Random, out: Path, root: Path) -> list[Request]:
    fmts = ("table", "csv", "json")
    fixture = read_game(str(root / FIXTURE))
    small = write_game(rng, out / "small3.json", (3, 3, 3), [(1, 2, 3)] * 3, -5, 5)
    reqs = []

    def add(kind, argv, fmt="table", game=None, **expect):
        rid = f"{len(reqs):03d}-{kind}"
        reqs.append(Request(rid, kind, (*argv, "--format", fmt), fmt, game, expect))

    for _ in range(15):
        scale = rng.randint(1, 50)
        add("layout", ("goldmines", "layout", "--M", str(scale)), rng.choice(fmts),
            rows=4 * scale)
    for _ in range(18):
        scale = rng.randint(2, 50)
        rho, mu = _rational(rng)
        ca, cb = rng.randint(1, 2 * scale), rng.randint(1, 2 * scale)
        add("equilibrium", ("goldmines", "equilibrium", *_board(scale, rho, mu),
                            "--ca", str(ca), "--cb", str(cb), "--t", str(rng.randint(0, 1))),
            rng.choice(fmts), rows=2)
    for _ in range(8):
        scale = rng.randint(1, 20)
        rho, mu = _rational(rng)
        ca_max, cb_max = rng.randint(1, 2 * scale + 2), rng.randint(1, 2 * scale + 2)
        add("gm_ctf", ("goldmines", "ctf", *_board(scale, rho, mu),
                       "--ca-max", str(ca_max), "--cb-max", str(cb_max)),
            rng.choice(fmts), rows=ca_max * cb_max)
    # the tail: 20 closed-form grids at M=50 (one of them 101x101), so that
    # call_tail_ms, the 11th slowest call, is the middle one of them and not
    # the slowest of the short calls, which only the host's noise picks
    for i in range(20):
        side = 101 if i == 0 else 41
        rho, mu = _rational(rng)
        add("gm_ctf", ("goldmines", "ctf", *_board(50, rho, mu),
                       "--ca-max", str(side), "--cb-max", str(side)), rows=side * side)
    for i in range(8):
        scale = 1 + i % 2
        rho, mu = _rational(rng)
        ca, cb = rng.randint(1, 4 * scale), rng.randint(1, 4 * scale)
        add("gm_verify", ("goldmines", "verify", *_board(scale, rho, mu),
                          "--ca", str(ca), "--cb", str(cb)), rng.choice(fmts))
    for _ in range(6):
        add("pure_ctf", ("game", "ctf", FIXTURE), rng.choice(fmts), game=fixture)
    for _ in range(5):
        add("mixed_ctf", ("game", "ctf", FIXTURE, "--mode", "mixed"), rng.choice(fmts),
            game=fixture)
    for _ in range(6):
        add("positive", ("game", "capability-positive", small.path), rng.choice(fmts),
            game=small)
    # mixed order, so that a slow spell of the host does not fall on one kind
    rng.shuffle(reqs)
    return reqs


def generate(workload: str, seed: int, out_dir: Path, root: Path) -> list[Request]:
    """Write the workload's game files into ``out_dir``; return its requests.

    ``root`` is the repository checkout the requests run in."""
    rng = random.Random(f"{workload}/{seed}")
    out_dir = Path(out_dir)
    if workload == "engine_generic":
        return _engine(rng, out_dir, -1000, 1000, positive=False)
    if workload == "engine_tied":
        return _engine(rng, out_dir, 0, 2, positive=True)
    if workload == "goldmines_verify":
        return _goldmines_verify(rng)
    if workload == "cli_calls":
        return _cli_calls(rng, out_dir, Path(root))
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
