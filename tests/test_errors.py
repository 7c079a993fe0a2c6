import ast
import inspect
import json
from pathlib import Path

import pytest

import capgames
from capgames import errors
from capgames.cli import build_parser, main


def _doc(n_players, payoffs):
    return {"players": [{"actions": ["a", "b"], "cutoffs": [1, 2]}] * n_players,
            "payoffs": payoffs}


MISSING_PAYOFF = _doc(2, [[1, 2], [0, 1], [2, 0]])  # one payoff vector missing
THREE_PLAYERS = _doc(3, [[0, 0, 0]] * 8)

# per subclass, one request that raises it and the exit code it gets
REQUESTS = {
    errors.GameFormatError: (["game", "ctf", "missing_payoff.json"], 1),
    errors.OutOfRange: (["goldmines", "layout", "--M", "0"], 1),
    errors.SizeLimitExceeded: (["goldmines", "verify", "--M", "6", "--rho", "1/4",
                                "--mu", "-1/2", "--ca", "1", "--cb", "1"], 1),
    errors.PreconditionViolated: (["game", "ctf", "three_players.json", "--mode", "mixed"], 1),
    errors.HypothesisViolation: (["goldmines", "ctf", "--M", "1", "--rho", "3/4",
                                  "--mu", "-1/2", "--ca-max", "2", "--cb-max", "2"], 2),
}


def test_the_library_has_one_error_class_per_kind_of_failure():
    defined = {name for name, value in vars(errors).items() if inspect.isclass(value)}
    assert defined == {"CapgamesError", *(cls.__name__ for cls in REQUESTS)}
    assert all(cls.__bases__ == (errors.CapgamesError,) for cls in REQUESTS)


def test_each_subclass_is_raised_somewhere_in_the_library():
    raised = set()
    for path in Path(capgames.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
                    and isinstance(node.exc.func, ast.Name):
                raised.add(node.exc.func.id)
    assert {cls.__name__ for cls in REQUESTS} <= raised


@pytest.mark.parametrize("error", REQUESTS, ids=lambda cls: cls.__name__)
def test_each_class_exits_with_its_code_and_one_stderr_line(error, capsys, monkeypatch,
                                                            tmp_path):
    (tmp_path / "missing_payoff.json").write_text(json.dumps(MISSING_PAYOFF))
    (tmp_path / "three_players.json").write_text(json.dumps(THREE_PLAYERS))
    monkeypatch.chdir(tmp_path)
    argv, code = REQUESTS[error]
    args = build_parser().parse_args(argv)
    with pytest.raises(error) as refused:
        args.run(args)
    assert type(refused.value) is error
    assert main(argv) == code
    out, err = capsys.readouterr()
    prefix = "parameter hypothesis violated: " if code == 2 else ""
    assert (out, err) == ("", f"capgames: {prefix}{refused.value}\n")
    assert len(err.splitlines()) == 1
