"""Tests of the benchmark's own logic; run with ``python -m pytest perfbench``."""

from __future__ import annotations

import random
import statistics
from pathlib import Path

import pytest

import check
import run
import tracing
import workloads


def test_tail_is_highest_percentile_with_ten_calls_beyond():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    assert run.tail(values) == (90, 90.0, 100)
    assert run.tail(range(11)) == (0, 100 / 11, 11)


def test_tail_is_not_below_the_median_from_min_calls_on():
    for n in range(run.MIN_CALLS, run.MIN_CALLS + 5):
        assert run.tail(range(n))[0] >= statistics.median(range(n))


def test_tail_falls_back_to_the_maximum_below_eleven_calls():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert run.tail(range(10)) == (9, 100.0, 10)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["outer", "r", 0.0, 10.0, None],
        ["mid", "r", 1.0, 4.0, 0],
        ["inner", "r", 2.0, 3.0, 1],
        ["mid", "r", 5.0, 6.0, 0],
    ]
    assert tracing.self_times(spans) == {"outer": 6.0, "mid": 3.0, "inner": 1.0}


def test_tracer_links_nested_calls_to_their_parent():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: 1)
    outer = tracer.wrap("outer", lambda: inner() + inner())
    tracer.rid = "req"
    assert outer() == 2
    names = [(s[0], s[1], s[4]) for s in tracer.spans]
    assert names == [("outer", "req", None), ("inner", "req", 0), ("inner", "req", 0)]
    selfs = tracing.self_times(tracer.spans)
    assert 0 <= selfs["outer"] <= tracer.spans[0][3] - tracer.spans[0][2]


def _snapshot(name: str, seed: int, out: Path):
    reqs = workloads.generate(name, seed, out, run.ROOT)
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    argvs = [tuple(a.replace(str(out), "<dir>") for a in r.argv) for r in reqs]
    return files, argvs


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_determined_by_the_seed(name, tmp_path):
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = _snapshot(name, 7, dirs[0])
    assert _snapshot(name, 7, dirs[1]) == first
    assert _snapshot(name, 8, dirs[2]) != first


def test_generator_never_raises_the_brute_force_bound(tmp_path):
    for name in workloads.WORKLOADS:
        (tmp_path / name).mkdir()
        for req in workloads.generate(name, 3, tmp_path / name, run.ROOT):
            if "verify" in req.argv or "--verify" in req.argv:
                assert int(req.argv[req.argv.index("--M") + 1]) <= 3


def _pure_request(tmp_path) -> workloads.Request:
    game = workloads.write_game(random.Random(5), tmp_path / "g.json",
                                (3, 3), [(1, 2, 3)] * 2, 0, 2)
    return workloads.Request("r", "pure_ctf", ("game", "ctf", game.path), game=game)


def _reference_stdout(req: workloads.Request) -> bytes:
    """The table the CLI prints, built from the benchmark's own reference."""
    rows = [["c1", "c2", "payoffs"]]
    for caps in check._grid(req.game):
        rows.append([*map(str, caps), check.vector_set_text(check.pure_ne_payoffs(req.game, caps))])
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows]
    return ("\n".join(lines) + "\n").encode()


def test_injected_wrong_output_counts_as_a_failure(tmp_path):
    req = _pure_request(tmp_path)
    good = _reference_stdout(req)
    bad = good.replace(b"(", b"(9", 1)
    assert check.check_call(req, 0, good, None) is None
    assert check.check_call(req, 0, bad, None) is not None
    assert check.check_call(req, 1, good, None) == "exit code 1"
    assert check.check_call(req, 0, good, check.digest(bad)) is not None

    checker = run.Checker("engine_tied", seed=run.DEFAULT_SEED + 1)
    for stdout in (good, bad, good):
        checker(req, 0, stdout)
    assert checker.attempted == 3 and len(checker.failures) == 1


def test_traced_counts_repeat_and_wrappers_are_removed():
    import capgames.cli as cli
    import capgames.game as game

    original = game.ctf_pure
    fixture = str(run.ROOT / workloads.FIXTURE)
    req = workloads.Request("fixture", "pure_ctf", ("game", "ctf", fixture))
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            assert cli.ctf_pure is not original and game.ctf_pure is cli.ctf_pure
            [(code, _)], _ = tracing.run_in_process([req], tracer)
        assert code == 0
        counts.append(tracing.layer_metrics(tracer))
    assert cli.ctf_pure is original and game.ctf_pure is original
    assert counts[0]["game.cells"] == 2 and counts[0]["game.profiles_scanned"] == 6
    assert {k: v for k, v in counts[0].items() if not k.endswith("_ms")} == \
        {k: v for k, v in counts[1].items() if not k.endswith("_ms")}


class _SteadyLauncher:
    """Stands in for run.Launcher: every call exits 0 after one second."""

    def __init__(self):
        self.calls = []

    def spawn(self, argv, out_dir):
        self.calls.append(argv)
        return 0, 1.0, 1024, b"", b""


@pytest.mark.parametrize("seconds, passes", [(0, 5), (35, 7), (39.9, 7)])
def test_timed_run_makes_whole_passes_by_scaled_time(seconds, passes, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "calibrate", lambda: run.CALIBRATION_S)
    requests = [workloads.Request(f"r{i}", "layout", (str(i),)) for i in range(5)]
    launcher = _SteadyLauncher()
    result = run.timed_run(requests, seconds, launcher, tmp_path, lambda *call: None)
    # at least MIN_CALLS calls, in whole passes of 5 one-second calls
    assert launcher.calls == [(str(i),) for i in range(5)] * passes
    assert result["metrics"]["wall_s"] == (5.0, "s")
    assert result["metrics"]["call_p50_ms"] == (1000.0, "ms")
    assert result["metrics"]["peak_rss_mb"] == (1.0, "MB")


def test_scaled_time_is_the_raw_time_at_reference_speed():
    assert run.scaled(2.0, run.CALIBRATION_S) == 2.0
    assert run.scaled(2.0, 2 * run.CALIBRATION_S) == 1.0
    assert run.calibrate() > 0
