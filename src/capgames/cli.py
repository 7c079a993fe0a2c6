"""Command-line front end.

Two command groups: ``goldmines`` (closed-form transfer functions,
equilibrium construction, board layout, brute-force verification) and
``game`` (transfer functions and capability positivity for JSON game files).
Every command renders an OutputTable as aligned text, CSV, or JSON; all
numbers are exact rationals unless --decimal is passed.

The CLI holds no game logic of its own — each cell is produced by a library
call, so scripting against the library reproduces every printed number, and
only the oracle decides which boards brute force can check.

Exit codes: 0 success (and verification matched), 1 usage or input errors,
2 parameter-hypothesis violations, 3 verification mismatch.
"""

from __future__ import annotations

import argparse
import io
import os
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

# capgames calls no BLAS routine (every array holds integers), so the thread
# pool OpenBLAS starts when numpy loads only costs start-up time; a value the
# user has set wins.  Importing the library alone touches no environment.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# the rest of the library loads in the command that uses it
from .errors import CapgamesError, HypothesisViolation
from .game import ctf_pure, equilibrium_welfare_levels, is_capability_positive
from .rationals import format_rational, parse_rational

# a cell is a string, int, bool, Fraction, or a sorted tuple of payoff vectors
Cell = object
VectorSet = tuple[tuple[Fraction, ...], ...]


@dataclass
class OutputTable:
    """Rectangular output: one header row plus data rows."""

    header: list[str]
    rows: list[list[Cell]] = field(default_factory=list)


def _vector_set(values) -> VectorSet:
    return tuple(sorted(tuple(v) for v in values))


def _cell_json(cell: Cell, decimal: bool):
    """The one spelling of a cell: JSON renders it as is, text from it."""
    if isinstance(cell, (str, bool, int)):
        return cell
    if isinstance(cell, Fraction):
        return format_rational(cell, decimal)
    return [[format_rational(v, decimal) for v in vec] for vec in cell]


def _cell_text(cell: Cell, decimal: bool) -> str:
    value = _cell_json(cell, decimal)
    if isinstance(value, bool):
        return "true" if value else "false"
    if not isinstance(value, list):
        return str(value)
    parts = [vec[0] if len(vec) == 1 else f"({', '.join(vec)})" for vec in value]
    return ";".join(parts) or "{}"


def render(table: OutputTable, fmt: str, decimal: bool = False) -> str:
    """Serialize a table as aligned text, CSV, or JSON."""
    if fmt == "json":
        import json
        payload = {
            "header": table.header,
            "rows": [[_cell_json(c, decimal) for c in row] for row in table.rows],
        }
        return json.dumps(payload, indent=2)
    text_rows = [table.header] + [
        [_cell_text(c, decimal) for c in row] for row in table.rows
    ]
    if fmt == "csv":
        import csv
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(text_rows)
        return buf.getvalue().rstrip("\n")
    widths = [max(len(r[i]) for r in text_rows) for i in range(len(table.header))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in text_rows
    ]
    return "\n".join(lines)


# --- goldmines commands ---

def cmd_goldmines_ctf(
    scale: int,
    rho: Fraction,
    mu: Fraction,
    ca_max: int,
    cb_max: int,
    verify: bool = False,
) -> OutputTable:
    """Closed-form payoff sets over the capability grid, from one
    ``equilibrium_payoff_grid`` pass, optionally checked cell by cell against
    brute force, which refuses a board past its table limit."""
    from . import goldmines
    if verify:
        from . import oracle
    header = ["cap_a", "cap_b", "payoffs"] + (["match"] if verify else [])
    table = OutputTable(header)
    grid = goldmines.equilibrium_payoff_grid(scale, rho, mu, ca_max, cb_max)
    cells = product(range(1, ca_max + 1), range(1, cb_max + 1))
    for (ca, cb), payoffs in zip(cells, grid):
        row: list[Cell] = [ca, cb, _vector_set(payoffs)]
        if verify:
            params = goldmines.GameParams(scale, rho, mu, ca, cb)
            row.append(oracle.verify_closed_form(params).match)
        table.rows.append(row)
    return table


def cmd_goldmines_equilibrium(
    scale: int, rho: Fraction, mu: Fraction, ca: int, cb: int, start_a: int
) -> OutputTable:
    from . import goldmines
    params = goldmines.GameParams(scale, rho, mu, ca, cb)
    fa, fb = goldmines.build_equilibrium(params, start_a)
    ua, ub = goldmines.payoff(fa, fb, params)
    table = OutputTable(
        ["player", "strategy", "segments", "golds_covered", "mines_covered", "payoff"])
    for name, f, u in (("A", fa, ua), ("B", fb, ub)):
        s = goldmines.summarize(f)
        table.rows.append(
            [name, goldmines.format_strategy(f), s.segments, s.n_gold, s.n_mine, u])
    return table


def cmd_goldmines_layout(scale: int) -> OutputTable:
    from . import goldmines
    goldmines.require_board(scale)
    table = OutputTable(["site", "line", "type"])
    for i in range(4 * scale):
        table.rows.append(
            [i, goldmines.resource_line(i, scale), goldmines.resource_type(i, scale)])
    return table


def cmd_goldmines_verify(
    scale: int, rho: Fraction, mu: Fraction, ca: int, cb: int, decimal: bool = False
) -> tuple[OutputTable, oracle.VerificationReport]:
    from . import goldmines, oracle
    params = goldmines.GameParams(scale, rho, mu, ca, cb)
    report = oracle.verify_closed_form(params)
    table = OutputTable(["field", "value"])
    table.rows = [
        ["scale", scale],
        ["rho", rho],
        ["mu", mu],
        ["cap_a", ca],
        ["cap_b", cb],
        ["equilibria_found", report.equilibria_found],
        ["predicted", _vector_set(report.predicted)],
        ["observed", _vector_set(report.observed)],
        ["match", report.match],
    ]
    for (fa, fb), value in report.counterexamples:
        pretty = (f"{goldmines.format_strategy(fa)} {goldmines.format_strategy(fb)}"
                  f" -> {_cell_text((value,), decimal)}")
        table.rows.append(["counterexample", pretty])
    return table, report


# --- generic game commands ---

def cmd_game_ctf(path: str, mode: str = "pure") -> OutputTable:
    """Transfer function of a JSON game, one row per capability profile."""
    from . import gamefile
    game = gamefile.load_game(path)
    caps = [f"c{p + 1}" for p in range(game.n_players)]
    header = caps + ["payoffs"] + (["degenerate"] if mode == "mixed" else [])
    table = OutputTable(header)
    if mode == "mixed":
        from . import bimatrix
    for profile in product(*(range(1, b + 1) for b in game.bounds)):
        if mode == "mixed":
            result = bimatrix.ctf_mixed(game, profile)
            row = [*profile, _vector_set(result.payoffs), result.degenerate]
        else:
            row = [*profile, _vector_set(ctf_pure(game, profile))]
        table.rows.append(row)
    return table


def cmd_game_capability_positive(path: str) -> OutputTable:
    from . import gamefile
    game = gamefile.load_game(path)
    table = OutputTable(["level", "welfare"])
    for b, welfare in enumerate(equilibrium_welfare_levels(game), start=1):
        table.rows.append([b, _vector_set((w,) for w in welfare)])
    table.rows.append(["verdict", is_capability_positive(game).value])
    return table


# --- printing a command's table and choosing the exit code ---

def _show(table: OutputTable, args: argparse.Namespace) -> int:
    print(render(table, args.format, args.decimal))
    return 0


def _run_goldmines_ctf(args: argparse.Namespace) -> int:
    table = cmd_goldmines_ctf(args.scale, args.rho, args.mu, args.ca_max, args.cb_max,
                              verify=args.verify)
    _show(table, args)
    # with --verify, the match column is the last one
    return 3 if args.verify and not all(row[-1] for row in table.rows) else 0


def verify_json(report: oracle.VerificationReport, decimal: bool = False) -> dict:
    """``goldmines verify --format json``'s document, spelled by ``_cell_json``."""
    from . import goldmines
    p, as_json = report.params, lambda cell: _cell_json(cell, decimal)
    return {
        "scale": p.scale, "rho": as_json(p.rho), "mu": as_json(p.mu), "cap_a": p.cap_a,
        "cap_b": p.cap_b, "predicted": as_json(_vector_set(report.predicted)),
        "observed": as_json(_vector_set(report.observed)),
        "equilibria_found": report.equilibria_found, "match": report.match,
        "counterexamples": [{"strategy_a": goldmines.format_strategy(fa),
                             "strategy_b": goldmines.format_strategy(fb),
                             "payoff": as_json((value,))[0]}
                            for (fa, fb), value in report.counterexamples],
    }


def _run_goldmines_verify(args: argparse.Namespace) -> int:
    table, report = cmd_goldmines_verify(args.scale, args.rho, args.mu,
                                         args.ca, args.cb, args.decimal)
    if args.format == "json":
        import json
        print(json.dumps(verify_json(report, args.decimal), indent=2))
    else:
        _show(table, args)
    return 0 if report.match else 3


# --- argument plumbing ---

class _Parser(argparse.ArgumentParser):
    """argparse parser that exits 1 (not 2) on usage errors and lets values
    like -3/4 through as arguments rather than mistaking them for flags."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as bad:
        raise argparse.ArgumentTypeError(str(bad)) from None


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("--decimal", action="store_true",
                   help="render values as decimals instead of exact rationals")


def _add_game_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--M", dest="scale", type=int, required=True,
                   help="board scale: 4*M sites, 2*M golds, 2*M mines")
    p.add_argument("--rho", type=_rational, required=True,
                   help="shared-gold payoff, as p/q")
    p.add_argument("--mu", type=_rational, required=True,
                   help="mine penalty, as p/q (negative)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="capgames",
                     description="Capability transfer functions, exactly.")
    groups = parser.add_subparsers(dest="group", required=True)

    gm = groups.add_parser("goldmines", help="gold-and-mines coverage game")
    gm_cmds = gm.add_subparsers(dest="command", required=True)

    p = gm_cmds.add_parser("ctf", help="closed-form payoff sets over a capability grid")
    _add_game_params(p)
    p.add_argument("--ca-max", type=int, required=True)
    p.add_argument("--cb-max", type=int, required=True)
    p.add_argument("--verify", action="store_true",
                   help="check each cell against brute-force enumeration")
    _add_format(p)
    p.set_defaults(run=_run_goldmines_ctf)

    p = gm_cmds.add_parser("equilibrium", help="construct one pure equilibrium")
    _add_game_params(p)
    p.add_argument("--ca", type=int, required=True)
    p.add_argument("--cb", type=int, required=True)
    p.add_argument("--t", dest="start_a", type=int, required=True, choices=(0, 1),
                   help="equilibrium class: player A's line at site 0")
    _add_format(p)
    p.set_defaults(run=lambda a: _show(cmd_goldmines_equilibrium(
        a.scale, a.rho, a.mu, a.ca, a.cb, a.start_a), a))

    p = gm_cmds.add_parser("layout", help="print the board")
    p.add_argument("--M", dest="scale", type=int, required=True)
    _add_format(p)
    p.set_defaults(run=lambda a: _show(cmd_goldmines_layout(a.scale), a))

    p = gm_cmds.add_parser("verify", help="brute-force check of the closed form")
    _add_game_params(p)
    p.add_argument("--ca", type=int, required=True)
    p.add_argument("--cb", type=int, required=True)
    _add_format(p)
    p.set_defaults(run=_run_goldmines_verify)

    game = groups.add_parser("game", help="generic capability games from JSON files")
    game_cmds = game.add_subparsers(dest="command", required=True)

    p = game_cmds.add_parser("ctf", help="equilibrium payoff sets per capability profile")
    p.add_argument("file")
    p.add_argument("--mode", choices=("pure", "mixed"), default="pure")
    _add_format(p)
    p.set_defaults(run=lambda a: _show(cmd_game_ctf(a.file, a.mode), a))

    p = game_cmds.add_parser("capability-positive",
                             help="per-level welfare sets and the positivity verdict")
    p.add_argument("file")
    _add_format(p)
    p.set_defaults(run=lambda a: _show(cmd_game_capability_positive(a.file), a))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the exit's flush
        return code
    except BrokenPipeError:
        # the reader went away (`capgames ... | head -1`): print nothing, and
        # point stdout at devnull so that the interpreter's last flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except HypothesisViolation as bad:
        print(f"capgames: parameter hypothesis violated: {bad}", file=sys.stderr)
        return 2
    except (CapgamesError, OSError) as bad:
        print(f"capgames: {bad}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
