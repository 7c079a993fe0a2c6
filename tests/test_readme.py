import ast
import inspect
import re
import shlex
import shutil
from fractions import Fraction
from pathlib import Path

import capgames
from capgames import bimatrix, cli, errors, game, gamefile, goldmines, oracle, rationals
from capgames.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_values_hold(monkeypatch):
    # The README's python block runs from the repository root, statement by
    # statement; each expression with a trailing "# value" comment must
    # equal that value.
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    lines = block.splitlines()
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        code = ast.get_source_segment(block, stmt)
        comment = lines[stmt.end_lineno - 1][stmt.end_col_offset:].partition("#")[2]
        if isinstance(stmt, ast.Expr) and comment.strip():
            expected = re.sub(r"^cap_a=\d+, cap_b=\d+:", "", comment.strip())
            assert eval(code, namespace) == eval(expected, {"Fraction": Fraction}), code
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 6


def test_cli_examples_print_what_the_readme_shows(capsys, monkeypatch, tmp_path):
    # Each "$ capgames ..." block runs from a directory holding the game
    # file at the path the README names and the README's game-file json
    # block as dilemma.json; its stdout must be the rest of the block.
    readme = (ROOT / "README.md").read_text()
    (tmp_path / "tests" / "data").mkdir(parents=True)
    fixture = Path("tests", "data", "capability_decrease.json")
    shutil.copy(ROOT / fixture, tmp_path / fixture)
    (game,) = re.findall(r"^```json\n(.*?)^```$", readme, re.S | re.M)
    (tmp_path / "dilemma.json").write_text(game)
    monkeypatch.chdir(tmp_path)
    examples = re.findall(r"^```\n\$ capgames (.*?)\n(.*?)^```$", readme, re.S | re.M)
    for command, shown in examples:
        assert main(shlex.split(command)) == 0, command
        assert capsys.readouterr().out == shown, command
    assert len(examples) == 6


PUBLIC_API = [
    "CapabilityGame", "CoverageSummary", "GameParams", "MixedCtf",
    "MixedEquilibrium", "Positivity", "VerificationReport",
    "build_complement_cover", "build_equilibrium", "ctf_mixed", "ctf_pure",
    "enumerate_pure_ne", "equilibrium_payoff_grid", "equilibrium_payoffs",
    "equilibrium_welfare_levels", "is_capability_positive", "is_pure_ne",
    "load_game", "pad_segments", "parse_game", "payoff", "perfect_cover",
    "restrict_to_bimatrix", "staircase", "summarize", "support_enumeration",
    "verify_closed_form",
]

# names the library no longer carries; tests/_support.py keeps each one
# (the oracle's strategy rows as ``strategy_bits``) but ``Bimatrix``, whose
# games ``CapabilityGame.from_matrices`` builds, ``restricted_sizes``,
# which ``space_size`` answers, and the error classes merged into the six
# of ``errors``
REMOVED = {
    errors: ["EmptyGame", "HierarchyViolation", "IncompletePayoffs", "DimensionMismatch",
             "LengthMismatch", "OutOfBounds", "InvalidStartLine", "ScaleLimitExceeded",
             "NotTwoPlayer", "UnequalBounds", "NonConformingInput"],
    goldmines: ["parse_strategy", "is_complete_gold_coverage",
                "admissible_start_lines", "equal_capability_welfare"],
    bimatrix: ["expected_payoff", "is_mixed_ne", "_check_distribution", "Bimatrix"],
    game: ["restricted_sizes"],
    gamefile: ["game_to_json"],
    oracle: ["enumerate_pure_equilibria", "verify_strict_ne_coverage",
             "_strategy_bits", "table_bytes"],
}


def test_the_package_exports_exactly_its_public_api():
    assert sorted(capgames.__all__) == PUBLIC_API
    for name in PUBLIC_API:
        assert getattr(capgames, name) is not None, name
    for module, names in REMOVED.items():
        for name in names:
            assert not hasattr(capgames, name), name
            assert not hasattr(module, name), (module.__name__, name)
    for module in (bimatrix, cli, game, gamefile, goldmines, oracle, rationals):
        assert not set(REMOVED[errors]) & set(vars(module)), module.__name__
    assert not {"up_flips", "down_flips"} & set(goldmines.CoverageSummary.__dataclass_fields__)
    assert list(inspect.signature(oracle.PayoffTable.pure_equilibria).parameters) == \
        ["self", "cap_a", "cap_b"]
