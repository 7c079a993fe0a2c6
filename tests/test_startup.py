"""What a fresh interpreter loads: ``import capgames`` loads no submodule, a
CLI call loads the modules its command runs, and only ``capgames.cli`` sets
``OPENBLAS_NUM_THREADS``.  Each check runs in a subprocess whose environment
holds nothing but the path to the sources."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import capgames

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = str(ROOT / "tests" / "data" / "capability_decrease.json")
# a game with equal level counts, which capability-positive requires
EQUAL_BOUNDS = {
    "players": [{"actions": ["c", "d"], "cutoffs": [1, 2]}] * 2,
    "payoffs": [[3, 3], [0, 5], [5, 0], [1, 1]],
}


def python(code: str, *argv: str, **env: str) -> str:
    """Run ``code`` in a fresh interpreter; return its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env={"PYTHONPATH": str(ROOT / "src"), **env},
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    loaded = json.loads(python(
        "import json, sys, capgames\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m == 'numpy' or m.startswith('capgames.'))))"))
    assert loaded == []


def test_every_export_resolves_on_first_use():
    names = json.loads(python(
        "import json, capgames\n"
        "listed = dir(capgames)\n"
        "values = [getattr(capgames, name) for name in capgames.__all__]\n"
        "star = {}\n"
        "exec('from capgames import *', star)\n"
        "star.pop('__builtins__')\n"
        "assert all(value is not None for value in values)\n"
        "print(json.dumps([listed, sorted(star)]))"))
    listed, star = names
    assert set(capgames.__all__) <= set(listed)
    assert star == sorted(capgames.__all__)
    # each name maps to the module that defines it, not one that re-imports it
    for name in capgames.__all__:
        assert getattr(capgames, name).__module__ == "capgames." + capgames._EXPORTS[name], name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        capgames.no_such_name


LOADED_BY = """
import contextlib, io, json, sys
from capgames.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m[len("capgames."):] for m in sys.modules
                               if m.startswith("capgames."))]))
"""
ALWAYS = ["cli", "errors", "game", "rationals"]


@pytest.mark.parametrize("argv, extra", [
    (["goldmines", "layout", "--M", "1"], ["goldmines"]),
    (["goldmines", "ctf", "--M", "1", "--rho", "1/4", "--mu", "-1/2",
      "--ca-max", "2", "--cb-max", "2"], ["goldmines"]),
    (["goldmines", "ctf", "--M", "1", "--rho", "1/4", "--mu", "-1/2",
      "--ca-max", "2", "--cb-max", "2", "--verify"], ["goldmines", "oracle"]),
    (["goldmines", "equilibrium", "--M", "2", "--rho", "1/4", "--mu", "-1/2",
      "--ca", "1", "--cb", "1", "--t", "0"], ["goldmines"]),
    (["goldmines", "verify", "--M", "1", "--rho", "1/4", "--mu", "-1/2",
      "--ca", "1", "--cb", "1"], ["goldmines", "oracle"]),
    (["game", "ctf", FIXTURE], ["gamefile"]),
    (["game", "ctf", FIXTURE, "--mode", "mixed"], ["bimatrix", "gamefile"]),
    (["game", "capability-positive", "equal.json"], ["gamefile"]),
], ids=["layout", "ctf", "ctf-verify", "equilibrium", "verify", "game-ctf", "game-ctf-mixed",
        "capability-positive"])
def test_a_command_loads_only_the_modules_it_runs(argv, extra, tmp_path):
    equal = tmp_path / "equal.json"
    equal.write_text(json.dumps(EQUAL_BOUNDS))
    argv = [str(equal) if arg == equal.name else arg for arg in argv]
    code, modules = json.loads(python(LOADED_BY, *argv))
    assert code == 0
    assert modules == sorted(ALWAYS + extra)


SHOW_THREADS = "import os, {}; print(os.environ.get('OPENBLAS_NUM_THREADS'))"


def test_the_cli_runs_one_blas_thread_unless_told_otherwise():
    assert python(SHOW_THREADS.format("capgames.cli")) == "1\n"
    assert python(SHOW_THREADS.format("capgames.cli"), OPENBLAS_NUM_THREADS="3") == "3\n"


def test_importing_the_library_sets_no_environment_variable():
    assert python(SHOW_THREADS.format("capgames.game")) == "None\n"
    assert python(SHOW_THREADS.format("capgames, capgames.oracle")) == "None\n"


@pytest.mark.parametrize("scale", ["1", "1000"])
def test_a_closed_pipe_ends_the_call_quietly(scale):
    # the reader is gone before the first write: a short table fails in
    # main's flush, a long one inside print
    proc = subprocess.Popen(
        [sys.executable, "-m", "capgames.cli", "goldmines", "layout", "--M", scale],
        env={"PYTHONPATH": str(ROOT / "src")},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""
