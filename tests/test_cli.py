import csv
import io
import json
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from capgames import goldmines, oracle
from capgames.cli import (
    cmd_game_ctf,
    cmd_goldmines_ctf,
    main,
)
from capgames.goldmines import GameParams, equilibrium_payoffs
from capgames.oracle import VerificationReport

F = Fraction
FIXTURE = str(Path(__file__).parent / "data" / "capability_decrease.json")

PD_DOC = {
    "players": [
        {"actions": ["cooperate", "defect"], "cutoffs": [1, 2]},
        {"actions": ["cooperate", "defect"], "cutoffs": [1, 2]},
    ],
    "payoffs": [[3, 3], [0, 5], [5, 0], [1, 1]],
}

PENNIES_DOC = {
    "players": [
        {"actions": ["heads", "tails"], "cutoffs": [1, 2]},
        {"actions": ["heads", "tails"], "cutoffs": [1, 2]},
    ],
    "payoffs": [[1, -1], [-1, 1], [-1, 1], [1, -1]],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_layout_text_output(capsys):
    code, out, err = run(capsys, "goldmines", "layout", "--M", "1")
    assert code == 0 and err == ""
    assert out == (
        "site  line  type\n"
        "0     1     gold\n"
        "1     0     gold\n"
        "2     1     mine\n"
        "3     0     mine\n"
    )


def test_layout_rejects_nonpositive_scale(capsys):
    code, out, err = run(capsys, "goldmines", "layout", "--M", "0")
    assert code == 1 and out == ""
    assert "positive integer" in err


def test_equilibrium_construction_output(capsys):
    code, out, _ = run(
        capsys, "goldmines", "equilibrium", "--M", "2", "--rho", "1/4",
        "--mu", "-1/2", "--ca", "3", "--cb", "4", "--t", "0",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == [
        "player", "strategy", "segments", "golds_covered", "mines_covered", "payoff"]
    assert lines[1].split() == ["A", "00011000", "3", "3", "1", "1/4"]
    assert lines[2].split() == ["B", "10011000", "4", "4", "1", "5/4"]

    code, out, _ = run(
        capsys, "goldmines", "equilibrium", "--M", "2", "--rho", "1/4",
        "--mu", "-1/2", "--ca", "3", "--cb", "4", "--t", "0", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["rows"] == [
        ["A", "00011000", 3, 3, 1, "1/4"],
        ["B", "10011000", 4, 4, 1, "5/4"],
    ]


def test_ctf_grid_with_verification(capsys):
    code, out, _ = run(
        capsys, "goldmines", "ctf", "--M", "1", "--rho", "1/2", "--mu", "-3/4",
        "--ca-max", "3", "--cb-max", "3", "--verify",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["cap_a", "cap_b", "payoffs", "match"]
    assert len(lines) == 10
    assert all(line.split()[-1] == "true" for line in lines[1:])
    assert lines[1].split() == ["1", "1", "(1/4,", "1/4)", "true"]


def test_ctf_cells_are_reproducible_from_the_library(capsys):
    _, out, _ = run(
        capsys, "goldmines", "ctf", "--M", "2", "--rho", "1/4", "--mu", "-1/2",
        "--ca-max", "5", "--cb-max", "5", "--format", "csv",
    )
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["cap_a", "cap_b", "payoffs"]
    for ca, cb, cell in rows[1:]:
        predicted = equilibrium_payoffs(GameParams(2, F(1, 4), F(-1, 2), int(ca), int(cb)))
        expected = ";".join(
            "(" + ", ".join(
                str(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
                for v in vec
            ) + ")"
            for vec in sorted(predicted)
        )
        assert cell == expected


def test_ctf_json_structure(capsys):
    code, out, _ = run(
        capsys, "goldmines", "ctf", "--M", "1", "--rho", "1/2", "--mu", "-3/4",
        "--ca-max", "1", "--cb-max", "2", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["header"] == ["cap_a", "cap_b", "payoffs"]
    assert doc["rows"] == [
        [1, 1, [["1/4", "1/4"]]],
        [1, 2, [["-1/4", "3/4"], ["1/4", "1"]]],
    ]


def test_decimal_rendering(capsys):
    _, out, _ = run(
        capsys, "goldmines", "ctf", "--M", "1", "--rho", "1/2", "--mu", "-3/4",
        "--ca-max", "1", "--cb-max", "1", "--decimal",
    )
    assert "(0.25, 0.25)" in out


def test_output_is_deterministic(capsys):
    args = ("goldmines", "ctf", "--M", "1", "--rho", "3/5", "--mu", "-7/10",
            "--ca-max", "3", "--cb-max", "3", "--verify", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_verify_command_table_and_json(capsys):
    code, out, _ = run(
        capsys, "goldmines", "verify", "--M", "1", "--rho", "1/2", "--mu", "-3/4",
        "--ca", "3", "--cb", "1",
    )
    assert code == 0
    assert "match" in out and "true" in out
    assert "(3/2, -1/4)" in out

    code, out, _ = run(
        capsys, "goldmines", "verify", "--M", "1", "--rho", "1/2", "--mu", "-3/4",
        "--ca", "3", "--cb", "1", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["match"] is True
    assert doc["predicted"] == [["3/2", "-1/4"]]
    assert doc["rho"] == "1/2"


def test_negative_rational_option_values_parse():
    # regression: values like -3/4 must not be mistaken for option flags
    code = main(["goldmines", "verify", "--M", "1", "--rho", "1/2",
                 "--mu", "-3/4", "--ca", "1", "--cb", "1"])
    assert code == 0


def test_hypothesis_violation_exits_2(capsys):
    code, _, err = run(
        capsys, "goldmines", "ctf", "--M", "1", "--rho", "1/2", "--mu", "-1/2",
        "--ca-max", "1", "--cb-max", "1",
    )
    assert code == 2
    assert "parameter hypothesis violated" in err
    assert "0 < rho < -mu < 1" in err


@pytest.mark.parametrize("ca_max,cb_max", [("0", "2"), ("2", "-1")])
def test_ctf_grid_below_capability_1_exits_1(capsys, ca_max, cb_max):
    code, out, err = run(
        capsys, "goldmines", "ctf", "--M", "1", "--rho", "1/2", "--mu", "-3/4",
        "--ca-max", ca_max, "--cb-max", cb_max,
    )
    assert code == 1 and out == ""
    assert "capabilities must be at least 1" in err


def test_ctf_checks_its_board_before_its_caps(capsys):
    # one GameParams checks the grid: scale, rho and mu come before the caps
    board = ("--rho", "1/2", "--mu", "-3/4", "--ca-max", "0", "--cb-max", "1")
    code, out, err = run(capsys, "goldmines", "ctf", "--M", "0", *board)
    assert code == 1 and out == ""
    assert "scale must be at least 1" in err
    code, _, err = run(capsys, "goldmines", "ctf", "--M", "1", "--rho", "3/2",
                       *board[2:])
    assert code == 2
    assert "need 0 < rho < 1" in err


def test_huge_outputs_are_refused_before_they_are_built(capsys):
    tracemalloc.start()
    try:
        layout = run(capsys, "goldmines", "layout", "--M", str(10**9))
        grid = run(capsys, "goldmines", "ctf", "--M", "1", "--rho", "1/2",
                   "--mu", "-3/4", "--ca-max", str(10**6), "--cb-max", str(10**6))
        pair = run(capsys, "goldmines", "equilibrium", "--M", str(10**9), "--rho", "1/2",
                   "--mu", "-3/4", "--ca", "1", "--cb", "1", "--t", "0")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    board = ("capgames: a board at M = 1000000000 has 4*M sites, "
             "over the 1048576-site limit\n")
    assert layout == (1, "", board)
    assert pair == (1, "", board)
    assert grid == (1, "", "capgames: a 1000000 x 1000000 capability grid is "
                           "over the 1048576-cell limit\n")
    assert peak < 1_000_000  # the argument parser, not the output


def test_output_limit_boundary(capsys, monkeypatch):
    monkeypatch.setattr(goldmines, "MAX_CELLS", 8)
    code, out, _ = run(capsys, "goldmines", "layout", "--M", "2")
    assert code == 0 and len(out.splitlines()) == 1 + 8
    code, out, err = run(capsys, "goldmines", "layout", "--M", "3")
    assert code == 1 and out == "" and "8-site limit" in err

    pair = ("goldmines", "equilibrium", "--rho", "1/2", "--mu", "-3/4",
            "--ca", "1", "--cb", "1", "--t", "0")
    code, out, _ = run(capsys, *pair, "--M", "2")
    assert code == 0 and "00000000" in out
    code, out, err = run(capsys, *pair, "--M", "3")
    assert code == 1 and out == "" and "8-site limit" in err

    board = ("goldmines", "ctf", "--M", "1", "--rho", "1/2", "--mu", "-3/4")
    code, out, _ = run(capsys, *board, "--ca-max", "4", "--cb-max", "2")
    assert code == 0 and len(out.splitlines()) == 1 + 8
    code, out, err = run(capsys, *board, "--ca-max", "3", "--cb-max", "3")
    assert code == 1 and out == "" and "3 x 3 capability grid" in err


def test_decimal_past_float_range_exits_1(capsys, tmp_path):
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"players": [{"actions": ["a"], "cutoffs": [1]}],
                                "payoffs": [[10**400]]}))
    for argv in (("game", "ctf", str(huge)),
                 ("goldmines", "ctf", "--M", "1" + "0" * 400, "--rho", "1/2",
                  "--mu", "-3/4", "--ca-max", "1", "--cb-max", "1")):
        code, out, err = run(capsys, *argv, "--decimal")
        assert (code, out) == (1, "")
        assert err == "capgames: value too large to render as a decimal\n"
        code, _, _ = run(capsys, *argv)  # exact rendering has no range to leave
        assert code == 0


def test_ctf_verify_refuses_a_board_past_brute_force(capsys):
    tracemalloc.start()
    try:
        code, out, err = run(
            capsys, "goldmines", "ctf", "--M", "6", "--rho", "1/2", "--mu", "-3/4",
            "--ca-max", "2", "--cb-max", "2", "--verify",
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    # 4**6 gold sets times 13 mine counts bound the classes: a 22.7 GB table
    assert err == ("capgames: scale 6 may need up to 22725394432 bytes for its class "
                   "table and DP, over the 1073741824-byte limit\n")
    assert peak < 1 << 20
    code, out, _ = run(
        capsys, "goldmines", "ctf", "--M", "6", "--rho", "1/2", "--mu", "-3/4",
        "--ca-max", "2", "--cb-max", "2",
    )
    assert code == 0 and out.splitlines()[0].split() == ["cap_a", "cap_b", "payoffs"]


@pytest.mark.parametrize("scale", [4, 5])
def test_verify_answers_past_the_strategy_table(capsys, scale):
    # the class game reaches M = 5; every cell of a grid at M = 4 and one
    # cell at M = 5 match the closed form
    board = ("--M", str(scale), "--rho", "1/4", "--mu", "-1/2")
    if scale == 4:
        code, out, _ = run(capsys, "goldmines", "ctf", *board,
                           "--ca-max", "16", "--cb-max", "16", "--verify")
        rows = out.splitlines()[1:]
        assert code == 0 and len(rows) == 256
        assert all(row.split()[-1] == "true" for row in rows)
    code, out, _ = run(capsys, "goldmines", "verify", *board, "--ca", "7", "--cb", "9")
    fields = dict(line.split(None, 1) for line in out.splitlines()[1:])
    assert code == 0 and fields["match"] == "true"
    assert int(fields["equilibria_found"]) >= 1


def test_values_past_the_digits_str_converts_exit_1(capsys, tmp_path):
    # each payoff has 4,299 digits and prints; their sum, the welfare, has
    # about 8,600 in its denominator
    a, b = 10**4299 - 1, 10**4299 - 3
    path = tmp_path / "long.json"
    path.write_text(json.dumps({
        "players": [{"actions": ["x"], "cutoffs": [1]}, {"actions": ["y"], "cutoffs": [1]}],
        "payoffs": [[f"1/{a}", f"1/{b}"]]}))
    code, out, err = run(capsys, "game", "capability-positive", str(path))
    assert (code, out, err) == (1, "", "capgames: value too large to render\n")
    code, out, _ = run(capsys, "game", "ctf", str(path))
    assert code == 0 and f"1/{a}" in out


def test_impossible_equilibrium_class_exits_1(capsys):
    code, _, err = run(
        capsys, "goldmines", "equilibrium", "--M", "1", "--rho", "1/2",
        "--mu", "-3/4", "--ca", "1", "--cb", "3", "--t", "1",
    )
    assert code == 1
    assert "player A starting on line 0" in err


def test_verification_mismatch_exits_3(capsys, monkeypatch):
    params = GameParams(1, F(1, 2), F(-3, 4), 1, 1)
    doctored = VerificationReport(
        params=params,
        predicted=frozenset({(F(1, 4), F(1, 4))}),
        observed=frozenset({(F(0), F(0))}),
        equilibria_found=1,
        match=False,
        counterexamples=((((0, 0, 0, 0), (0, 0, 0, 0)), (F(0), F(0))),),
    )
    monkeypatch.setattr(oracle, "verify_closed_form", lambda p: doctored)
    code, out, _ = run(
        capsys, "goldmines", "verify", "--M", "1", "--rho", "1/2", "--mu", "-3/4",
        "--ca", "1", "--cb", "1",
    )
    assert code == 3
    assert "counterexample" in out
    assert "0000 0000 -> (0, 0)" in out

    code, _, _ = run(
        capsys, "goldmines", "ctf", "--M", "1", "--rho", "1/2", "--mu", "-3/4",
        "--ca-max", "1", "--cb-max", "1", "--verify",
    )
    assert code == 3


def test_verify_renders_decimals_in_json_and_counterexamples(capsys, monkeypatch):
    argv = ("goldmines", "verify", "--M", "1", "--rho", "1/2", "--mu", "-3/4",
            "--ca", "3", "--cb", "1", "--decimal")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["rho"], doc["mu"]) == ("0.5", "-0.75")
    assert doc["predicted"] == doc["observed"] == [["1.5", "-0.25"]]

    doctored = VerificationReport(
        params=GameParams(1, F(1, 2), F(-3, 4), 3, 1),
        predicted=frozenset({(F(3, 2), F(-1, 4))}),
        observed=frozenset({(F(1, 2), F(-1, 4))}),
        equilibria_found=1,
        match=False,
        counterexamples=((((0, 0, 0, 0), (1, 1, 1, 1)), (F(1, 2), F(-1, 4))),),
    )
    monkeypatch.setattr(oracle, "verify_closed_form", lambda p: doctored)
    code, out, _ = run(capsys, *argv)
    assert code == 3
    assert "0000 1111 -> (0.5, -0.25)" in out
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 3
    assert json.loads(out)["counterexamples"][0]["payoff"] == ["0.5", "-0.25"]


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as info:
        main(["goldmines", "ctf", "--M", "1", "--rho", "0.5", "--mu", "-3/4",
              "--ca-max", "1", "--cb-max", "1"])
    assert info.value.code == 1
    assert "not a rational literal" in capsys.readouterr().err

    with pytest.raises(SystemExit) as info:
        main(["goldmines"])
    assert info.value.code == 1


def test_table_byte_limit(capsys, monkeypatch):
    # under a limit below the smallest class game, M = 1 is past brute force:
    # ctf --verify refuses it as verify does, with the same line.  At M = 1
    # the classes are at most 4 gold sets times 3 mine counts, so the table
    # and the DP's two arrays may take 8 * 12 * (12 + 4 * 5) bytes
    need = 3072
    monkeypatch.setattr(oracle, "MAX_TABLE_BYTES", need - 1)
    oracle._table.cache_clear()  # a cached table predates the lowered limit
    code, out, ctf_err = run(
        capsys, "goldmines", "ctf", "--M", "1", "--rho", "1/2", "--mu", "-3/4",
        "--ca-max", "1", "--cb-max", "1", "--verify",
    )
    assert (code, out) == (1, "")
    assert f"up to {need} bytes" in ctf_err

    code, _, err = run(
        capsys, "goldmines", "verify", "--M", "1", "--rho", "1/2", "--mu", "-3/4",
        "--ca", "1", "--cb", "1",
    )
    assert code == 1
    assert err == ctf_err

    code, _, err = run(
        capsys, "goldmines", "verify", "--M", "2000", "--rho", "1/2", "--mu", "-3/4",
        "--ca", "1", "--cb", "1",
    )
    assert code == 1
    assert err.startswith("capgames: ")


def test_game_ctf_pure_and_mixed(capsys):
    code, out, _ = run(capsys, "game", "ctf", FIXTURE)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["c1", "c2", "payoffs"]
    assert lines[1].split() == ["1", "1", "(1,", "2)"]
    assert lines[2].split() == ["2", "1", "(0,", "2)"]

    code, out, _ = run(capsys, "game", "ctf", FIXTURE, "--mode", "mixed",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["header"] == ["c1", "c2", "payoffs", "degenerate"]
    assert doc["rows"] == [
        [1, 1, [["1", "2"]], False],
        [2, 1, [["0", "2"]], False],
    ]


@pytest.mark.parametrize("name", ["generic", "tied"])
def test_game_ctf_mixed_on_6x6_games_prints_its_recorded_table(capsys, name):
    # payoffs -1000..1000 and 0..2, levels 2, 4, 6: most support pairs are
    # skipped unsolved, and the table must be the one recorded before the skip
    data = Path(__file__).parent / "data"
    code, out, _ = run(capsys, "game", "ctf", str(data / f"mixed_6x6_{name}.json"),
                       "--mode", "mixed")
    assert code == 0
    assert out == (data / f"mixed_6x6_{name}.mixed.txt").read_text()


def test_game_ctf_empty_payoff_set_renders_braces(capsys, tmp_path):
    path = tmp_path / "pennies.json"
    path.write_text(json.dumps(PENNIES_DOC))
    code, out, _ = run(capsys, "game", "ctf", str(path))
    assert code == 0
    assert out.splitlines()[4].split() == ["2", "2", "{}"]


def test_capability_positive_verdicts(capsys, tmp_path):
    pd = tmp_path / "pd.json"
    pd.write_text(json.dumps(PD_DOC))
    code, out, _ = run(capsys, "game", "capability-positive", str(pd))
    assert code == 0
    lines = out.splitlines()
    assert lines[1].split() == ["1", "6"]
    assert lines[2].split() == ["2", "2"]
    assert lines[3].split() == ["verdict", "not-positive"]

    pennies = tmp_path / "pennies.json"
    pennies.write_text(json.dumps(PENNIES_DOC))
    _, out, _ = run(capsys, "game", "capability-positive", str(pennies))
    assert out.splitlines()[-1].split() == ["verdict", "undetermined"]


def test_game_file_errors_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope}")
    code, _, err = run(capsys, "game", "ctf", str(bad))
    assert code == 1
    assert "line 1" in err

    code, _, err = run(capsys, "game", "ctf", str(tmp_path / "absent.json"))
    assert code == 1

    scalar = tmp_path / "scalar.json"
    scalar.write_text(json.dumps({
        "players": [{"actions": 5, "cutoffs": [1]},
                    {"actions": ["l"], "cutoffs": [1]}],
        "payoffs": [[0, 0]],
    }))
    code, _, err = run(capsys, "game", "ctf", str(scalar))
    assert code == 1
    assert err.startswith("capgames: ")
    assert "Traceback" not in err

    unequal = tmp_path / "unequal.json"
    unequal.write_text(json.dumps({
        "players": [
            {"actions": ["a", "b"], "cutoffs": [1, 2]},
            {"actions": ["l", "r"], "cutoffs": [2]},
        ],
        "payoffs": [[0, 0], [0, 0], [0, 0], [0, 0]],
    }))
    code, _, err = run(capsys, "game", "capability-positive", str(unequal))
    assert code == 1
    assert "different level counts" in err


def test_unreadable_game_files_exit_1(capsys, tmp_path):
    # a UTF-16 byte order mark is no UTF-8, 100,000 open brackets nest past
    # Python's recursion limit, and an integer of 5,000 digits is more than
    # int() converts, in a payoff or a cutoff; each gives one line and no
    # traceback
    huge = b"9" * 5000
    cases = {
        b"\xff\xfe{\x00}\x00": "'utf-8' codec can't decode byte 0xff in position 0",
        b"[" * 100_000: "recursion",
        b'{"players": [{"actions": ["a"], "cutoffs": [1]}], "payoffs": [[' + huge + b"]]}":
            "Exceeds the limit",
        b'{"players": [{"actions": ["a"], "cutoffs": [' + huge + b']}], "payoffs": [[1]]}':
            "Exceeds the limit",
    }
    path = tmp_path / "unreadable.json"
    for data, reason in cases.items():
        path.write_bytes(data)
        code, out, err = run(capsys, "game", "ctf", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("capgames: cannot read the game file: ")
        assert reason in err and err.count("\n") == 1
        assert "Traceback" not in err


def test_command_functions_return_tables_directly():
    table = cmd_game_ctf(FIXTURE, mode="pure")
    assert table.header == ["c1", "c2", "payoffs"]
    assert table.rows == [[1, 1, ((1, 2),)], [2, 1, ((0, 2),)]]

    grid = cmd_goldmines_ctf(1, F(1, 2), F(-3, 4), 2, 1)
    assert [row[:2] for row in grid.rows] == [[1, 1], [2, 1]]
