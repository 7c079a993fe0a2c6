"""A committed set of mutants of the fast paths, each with the test file that
kills it (mutation analysis: DeMillo, Lipton & Sayward 1978, *IEEE Computer* 11).

Run it from anywhere with ``python tests/mutants.py``.  For each mutant it
copies the tree to a new temporary directory, replaces the entry's old text
with its new text there and runs ``python -m pytest -x -q <test file>`` with
the copy as the working directory and ``PYTHONPATH`` at the copy's ``src``,
one mutant at a time; the checkout is never edited.  A mutant is killed when
pytest reports a failed test.  The run exits 1 if any entry is stale (its old
text does not occur exactly once, or its test file is missing), if a mutant
survives that is not marked equivalent, if a mutant marked equivalent is
killed, or if pytest cannot run at all.

The file name keeps pytest from collecting it; ``test_mutants.py`` checks in
tier-1 that every entry still applies, and runs no mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                              ".perfbench", ".benchmarks", "*.egg-info", "build")


class Mutant(NamedTuple):
    what: str
    file: str  # relative to the repository root, as is ``kills``
    old: str
    new: str
    kills: str
    equivalent: str = ""  # why no test can tell it from the original, if none can


GAME, BIMATRIX, ORACLE, GOLDMINES, RATIONALS = (
    f"src/capgames/{name}.py" for name in ("game", "bimatrix", "oracle", "goldmines", "rationals"))

MUTANTS = [
    Mutant("ne_boxes: a level's best is not carried up",
           GAME, "np.maximum.accumulate(per_level, axis=0, out=per_level)",
           "np.minimum.accumulate(per_level, axis=0, out=per_level)", "tests/test_game.py"),
    Mutant("ne_boxes: hi stops at a tying level",
           GAME, "hi[:, p] += level_best[opp] <= own", "hi[:, p] += level_best[opp] < own",
           "tests/test_game.py"),
    Mutant("ne_boxes: lo one level high",
           GAME, "lo = np.stack([rank[s[p]] + 1 for", "lo = np.stack([rank[s[p]] + 2 for",
           "tests/test_game.py"),
    Mutant("cell: bits read in the wrong order",
           GAME, 'count=rows, bitorder="little")', 'count=rows, bitorder="big")',
           "tests/test_game.py"),
    Mutant("Boxes.open_at: the top level reads as closed",
           GAME, "if not 0 < level <= len(bitsets):", "if not 0 < level < len(bitsets):",
           "tests/test_game.py"),
    Mutant("Boxes.open_at: a box's hi is open",
           GAME, "(level <= self.hi[:, player])", "(level < self.hi[:, player])",
           "tests/test_game.py"),
    Mutant("_beaten: weak dominance skips a pair",
           BIMATRIX, "(grid[:, None] <= grid[None])", "(grid[:, None] < grid[None])",
           "tests/test_bimatrix.py"),
    Mutant("_beaten: a beater one level too high counts",
           BIMATRIX, "np.where(covers, own[:, None], level[-1])",
           "np.where(covers, own[:, None] - 1, level[-1])", "tests/test_bimatrix.py"),
    Mutant("_pair_boxes: a beater at the pair's level passes",
           BIMATRIX, "if level[beat] <= level[own[-1]]:", "if level[beat] < level[own[-1]]:",
           "tests/test_bimatrix.py"),
    Mutant("_pair_boxes: hi reaches the beating level",
           BIMATRIX, "level[own[-1]], level[beat] - 1))", "level[own[-1]], level[beat]))",
           "tests/test_bimatrix.py"),
    Mutant("_pair_boxes: a zero weight is not flagged",
           BIMATRIX, 'status == "degenerate" or 0 in mix', 'status == "degenerate"',
           "tests/test_bimatrix.py"),
    Mutant("_solve: rows are added, not eliminated",
           BIMATRIX, "[(p * v - f * w) // prev for", "[(p * v + f * w) // prev for",
           "tests/test_bimatrix.py"),
    Mutant("_solve: no elimination above the pivot",
           BIMATRIX, "if i != r and (f != 0", "if i > r and (f != 0", "tests/test_bimatrix.py"),
    Mutant("_solve: rows are not divided by the previous pivot",
           BIMATRIX, "f * w) // prev for", "f * w) // 1 for", "tests/test_bimatrix.py"),
    Mutant("_solve: the denominator keeps the last pivot's sign",
           BIMATRIX, "sign = -1 if prev < 0 else 1", "sign = 1", "tests/test_bimatrix.py"),
    Mutant("_solve: a row with a 0 in the pivot column is never rescaled",
           BIMATRIX, "(f != 0 or p != prev)", "f != 0", "tests/test_bimatrix.py"),
    Mutant("_solve: every row is rescaled, a 0 in the pivot column or not",
           BIMATRIX, "if i != r and (f != 0 or p != prev):", "if i != r:",
           "tests/test_bimatrix.py",
           equivalent="with f == 0 and p == prev the update is (p * v) // prev == v, so it "
                      "leaves the row as it was and changes only the time taken"),
    Mutant("_classes: a class tying its gold set's fewer-mine level is kept",
           ORACLE, "level[:, 1:] < np.minimum.accumulate", "level[:, 1:] <= np.minimum.accumulate",
           "tests/test_oracle.py"),
    Mutant("PayoffTable: shared golds gathered from the union",
           ORACLE, "popcount[sets[r, None] & sets]", "popcount[sets[r, None] | sets]",
           "tests/test_oracle.py"),
    Mutant("PayoffTable._level: clamp one below the most segments",
           ORACLE, "return min(cap, len(self.mult) - 1)", "return min(cap, len(self.mult) - 2)",
           "tests/test_oracle.py",
           equivalent="only the two fully alternating strategies need all 4M segments, and "
                      "their classes (all golds with 2M mines, no golds with no mines) are "
                      "in no equilibrium at any capability"),
    Mutant("_payoff_sets: capability not capped at the perfect cover",
           GOLDMINES, "aligned_coverage_counts(min(cap, 2 * scale + 1), start, scale)",
           "aligned_coverage_counts(min(cap, 2 * scale), start, scale)",
           "tests/test_equilibria.py"),
    Mutant("_payoff_sets: shared golds pay the opponent in full",
           GOLDMINES, "mines * mu, shared * (rho - den)", "mines * mu, shared * rho",
           "tests/test_equilibria.py"),
    Mutant("_start_lines: the restricted player starts on line 1",
           GOLDMINES, "return (0,) if cap_a <= top else (1,)",
           "return (1,) if cap_a <= top else (0,)", "tests/test_acceptance.py"),
    Mutant("aligned_coverage_counts: one mine too few",
           GOLDMINES, "n_mine = scale - (segments - start) // 2",
           "n_mine = scale - (segments - start + 1) // 2", "tests/test_goldmines.py"),
    Mutant("pad_segments: the recount window misses site 4k + 5",
           GOLDMINES, "window = slice(max(4 * k - 1, 0), 4 * k + 6)",
           "window = slice(max(4 * k - 1, 0), 4 * k + 5)", "tests/test_goldmines.py"),
    Mutant("pad_segments: the last segment lifts a covered final site",
           GOLDMINES, "if f[n - 1] == 0:", "if f[n - 1] == 1:", "tests/test_goldmines.py"),
    Mutant("scaled: the largest denominator instead of the lcm",
           RATIONALS, "den = lcm(*(v.denominator for v in values))",
           "den = max(v.denominator for v in values)", "tests/test_rationals.py"),
]


def stale(mutant: Mutant) -> str:
    """Why ``mutant`` no longer applies to the checkout; empty if it does."""
    count = (ROOT / mutant.file).read_text().count(mutant.old)
    if count != 1:
        return f"old text occurs {count} times in {mutant.file}"
    if not (ROOT / mutant.kills).is_file():
        return f"no test file {mutant.kills}"
    return ""


def run(mutant: Mutant) -> tuple[int, float, str]:
    """Pytest's exit code, its seconds and its output on a mutated copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="capgames-mutant-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        path = copy / mutant.file
        path.write_text(path.read_text().replace(mutant.old, mutant.new))
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", mutant.kills],
                              cwd=copy, env={**os.environ, "PYTHONPATH": str(copy / "src")},
                              capture_output=True, text=True)
        return proc.returncode, time.perf_counter() - start, proc.stdout + proc.stderr


def main() -> int:
    problems = [f"stale: {m.what}: {why}" for m in MUTANTS if (why := stale(m))]
    if problems:
        print(*problems, sep="\n")
        return 1
    start = time.perf_counter()
    for m in MUTANTS:
        code, seconds, output = run(m)
        # pytest exits 1 when a test failed and 0 when all passed
        verdict = {1: "killed", 0: "survived"}.get(code, f"error {code}")
        if code == 0 and m.equivalent:
            verdict = "equivalent"
        print(f"{verdict:10} {seconds:5.1f} s  {m.kills:25}  {m.what}", flush=True)
        failed = [line for line in output.splitlines() if line.startswith("FAILED ")]
        for note in failed[:1] + ([m.equivalent] if m.equivalent else []):
            print(f"{'':10} {note}")
        if code != (0 if m.equivalent else 1):
            problems.append(m.what)
            if code not in (0, 1):
                print(output[-2000:])
    print(f"{len(MUTANTS)} mutants, {len(problems)} failing, "
          f"{time.perf_counter() - start:.0f} s in total")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
