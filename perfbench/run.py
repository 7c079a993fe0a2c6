"""capgames benchmark: seeded CLI workloads, end to end and per layer.

Run from the repository root (stdlib only; the package need not be
installed, children get ``PYTHONPATH=<root>/src``):

    python3 perfbench/run.py --workload engine_generic --seed 1 --seconds 27 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 27 --trace 0

``--trace 0`` sends the workload's requests through the CLI, one
``python -m capgames.cli`` subprocess at a time (a closed loop with one
client), repeating whole passes: as many as fit in ``--seconds`` at the
first pass's calibrated speed, and at least MIN_CALLS calls.
``--trace 1`` runs the same requests in-process, once plain and once with
spans at the layer boundaries (see tracing.py), and reports per-layer
metrics.  Every call's output is checked (see check.py).  The last stdout
line is one JSON object: correct, attempted, failed, metrics.

Scratch inputs go under ``<root>/.perfbench/`` and are deleted at exit;
traced runs leave their spans there as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

import check
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
SETUPS = 5
CALL_TIMEOUT = 60  # seconds; a call this slow is killed and counted failed
TAIL_BEYOND = 10
# with fewer calls the tail percentile (10 calls beyond it) is below the median
MIN_CALLS = 2 * TAIL_BEYOND + 1
WARMUP = ("goldmines", "layout", "--M", "1")
# The host's speed drifts by up to a third within minutes, and CPU time
# drifts with it.  Before a timed call (unless it did so less than
# CALIBRATE_EVERY ago) the runner times calibrate(), a fixed mix of
# interpreter and memory work, and reports the call's time scaled by
# CALIBRATION_S / (that mix's time): the time the call would take on a host
# where the mix takes CALIBRATION_S, about its median on the machine
# README.md names.  Raw times are printed in the summary.
CALIBRATION_S = 0.070
CALIBRATE_EVERY = 0.5  # seconds; short calls share a calibration
_CALIBRATION_KEYS = list(range(100_000))
_CALIBRATION_BYTES = 16 << 20


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """(value, percentile, n): the highest nearest-rank percentile with at
    least ``beyond`` values above its rank.  With ``beyond`` or fewer values
    no percentile qualifies, and the maximum (percentile 100) is reported."""
    ordered = sorted(values)
    n = len(ordered)
    rank = n - beyond if n > beyond else n
    return ordered[rank - 1], 100.0 * rank / n, n


def calibrate() -> float:
    """Seconds for a fixed mix of the work CLI calls do: dict stores and a
    keyed sort, Fraction arithmetic, and filling and copying fresh memory
    (as process start and imports do).  Each part alone tracks some calls
    better than others; their sum tracks every workload's calls."""
    keys, n = _CALIBRATION_KEYS, len(_CALIBRATION_KEYS)
    start = time.perf_counter()
    table = {}
    for i in range(0, n, 7):
        table[keys[(i * 7919) % n]] = i
    sorted(table.items(), key=lambda kv: -kv[1])
    acc = Fraction(0)
    for i in range(1, 3000):
        acc += Fraction(i % 97 + 1, i % 89 + 2) * Fraction(3, i + 1)
    buf = bytearray(_CALIBRATION_BYTES)
    for _ in range(2):
        bytes(buf)
    del buf
    return time.perf_counter() - start


def scaled(seconds: float, calibration: float) -> float:
    """``seconds`` at the reference host speed (see CALIBRATION_S)."""
    return seconds * CALIBRATION_S / calibration


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Launcher:
    """Runs CLI calls through launch.py (see there for why), one at a time.

    Use as a context manager: the launcher process is stopped and waited
    for on every way out."""

    def __init__(self, env):
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "launch.py")], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.pid = None  # of the call in flight

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.pid is not None:  # left during a call
            with contextlib.suppress(ProcessLookupError):
                os.kill(self.pid, signal.SIGKILL)
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CALL_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def spawn(self, argv, out_dir: Path) -> tuple[int, float, int, bytes, bytes]:
        """Run one CLI call; return (exit code, seconds, max RSS in KiB,
        stdout, stderr)."""
        out, err = out_dir / "stdout", out_dir / "stderr"
        command = [sys.executable, "-m", "capgames.cli", *argv]
        self.proc.stdin.write(json.dumps([command, str(out), str(err)]) + "\n")
        self.proc.stdin.flush()
        self.pid = json.loads(self.proc.stdout.readline())["pid"]
        killer = threading.Timer(CALL_TIMEOUT, os.kill, (self.pid, signal.SIGKILL))
        killer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            killer.cancel()
        self.pid = None
        code, seconds, kib = json.loads(line)
        return code, seconds, kib, out.read_bytes(), err.read_bytes()


def set_up(name: str, seed: int, tmp: Path, launcher: Launcher) -> tuple[list, float, float]:
    """Generate the inputs and make one warm-up call, SETUPS times; return
    the last request list and the median set-up time, scaled and raw."""
    times, raw = [], []
    for i in range(SETUPS):
        inputs = tmp / f"inputs-{i}"
        inputs.mkdir()
        calibration = calibrate()
        start = time.perf_counter()
        requests = workloads.generate(name, seed, inputs, ROOT)
        code, *_ = launcher.spawn(WARMUP, inputs)
        raw.append(time.perf_counter() - start)
        times.append(scaled(raw[-1], calibration))
        if code != 0:
            raise RuntimeError(f"warm-up call exited {code}")
    return requests, statistics.median(times), statistics.median(raw)


class Checker:
    """Checks outputs, re-using the verdict for bytes already checked."""

    def __init__(self, name: str, seed: int):
        # None: no digest check; at the default seed a missing entry fails
        self.digests = (json.loads(DIGESTS.read_text()).get(name, {})
                        if seed == DEFAULT_SEED else None)
        self.seen: dict[tuple, str | None] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, req, code: int, stdout: bytes, stderr: bytes = b"") -> None:
        key = (req.rid, code, check.digest(stdout))
        if key not in self.seen:
            want = None if self.digests is None else self.digests.get(req.rid, "")
            self.seen[key] = check.check_call(req, code, stdout, want)
        self.attempted += 1
        if self.seen[key] is not None:
            last = stderr.decode(errors="replace").strip().splitlines()[-1:]
            self.failures.append(f"{req.rid}: {self.seen[key]} {' '.join(last)}".rstrip())


def timed_run(requests, seconds: float, launcher: Launcher, tmp: Path,
              checker: Checker) -> dict:
    """Whole passes over ``requests``: as many as fit in ``seconds`` at the
    first pass's scaled time, and at least enough for MIN_CALLS calls.
    Counting passes by scaled time, not by the clock, keeps the number of
    calls, and so the call each percentile picks, the same on a slow host
    as on a fast one.  Times are scaled (see CALIBRATION_S); a pass's time
    is the sum of its calls' times."""
    passes = -(-MIN_CALLS // len(requests))
    walls, times, rss, raw, calibrations = [], [], [], [], []
    by_kind = {}
    call_dir = tmp / "call"
    call_dir.mkdir()
    calibrated_at = -math.inf
    while len(walls) < passes:
        wall = 0.0
        for req in requests:
            if time.perf_counter() - calibrated_at >= CALIBRATE_EVERY:
                calibration = calibrate()
                calibrated_at = time.perf_counter()
            code, secs, kib, stdout, stderr = launcher.spawn(req.argv, call_dir)
            checker(req, code, stdout, stderr)
            times.append(scaled(secs, calibration))
            wall += times[-1]
            by_kind.setdefault(req.kind, []).append(times[-1])
            raw.append(secs)
            calibrations.append(calibration)
            rss.append(kib)
        walls.append(wall)
        if len(walls) == 1:
            passes = max(passes, int(seconds // wall))
    tail_ms, tail_pct, n = tail([1000 * t for t in times])
    return {
        "metrics": {
            "wall_s": (statistics.median(walls), "s"),
            "call_p50_ms": (1000 * statistics.median(times), "ms"),
            "call_tail_ms": (tail_ms, "ms"),
            "peak_rss_mb": (max(rss) / 1024, "MB"),
        },
        "notes": f"{passes} passes, {n} calls, tail = p{tail_pct:.1f}; "
                 f"raw call p50 {1000 * statistics.median(raw):.1f} ms, "
                 f"calibration p50 {1000 * statistics.median(calibrations):.1f} ms "
                 f"(reference {1000 * CALIBRATION_S:.0f} ms); scaled median ms per kind: "
                 + ", ".join(f"{k} {1000 * statistics.median(v):.0f} (x{len(v)})"
                             for k, v in by_kind.items()),
    }


def import_times(env) -> tuple[float, float]:
    """Median cumulative import time (ms) of capgames.cli and of numpy in a
    fresh interpreter, from ``-X importtime``."""
    cli_ms, numpy_ms = [], []
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import capgames.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, module = line[len("import time:"):].split("|")
                if cum.strip().isdigit():
                    cumulative[module.strip()] = int(cum) / 1000
        cli_ms.append(cumulative["capgames.cli"])
        numpy_ms.append(cumulative["numpy"])
    return statistics.median(cli_ms), statistics.median(numpy_ms)


def traced_run(name: str, seed: int, requests, env, checker: Checker) -> dict:
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    tracing.run_in_process([workloads.Request("warm-up", "layout", WARMUP)])
    plain, plain_wall = tracing.run_in_process(requests)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced, traced_wall = tracing.run_in_process(requests, tracer)
    for results in (plain, traced):
        for req, (code, stdout) in zip(requests, results):
            checker(req, code, stdout)
    metrics = {k: (v, tracing.unit(k)) for k, v in tracing.layer_metrics(tracer).items()}
    cli_ms, numpy_ms = import_times(env)
    metrics["cli.import_ms"] = (cli_ms, "ms")
    metrics["cli.numpy_import_ms"] = (numpy_ms, "ms")
    metrics["trace.overhead_ms"] = (1000 * (traced_wall - plain_wall), "ms")
    WORK.mkdir(exist_ok=True)
    spans = WORK / f"spans-{name}-seed{seed}.json"
    spans.write_text(json.dumps(
        [dict(zip(("name", "rid", "start", "end", "parent"), s)) for s in tracer.spans]))
    return {"metrics": metrics,
            "notes": f"{len(tracer.spans)} spans in {spans.relative_to(ROOT)}"}


def run_workload(name: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    env = child_env()
    checker = Checker(name, seed)
    with Launcher(env) as launcher:
        requests, setup_s, raw_setup_s = set_up(name, seed, tmp, launcher)
        if not trace:
            result = timed_run(requests, seconds, launcher, tmp, checker)
            result["metrics"]["setup_s"] = (setup_s, "s")
            result["notes"] += f"; raw setup {raw_setup_s:.4f} s"
    if trace:
        result = traced_run(name, seed, requests, env, checker)
    result.update(attempted=checker.attempted, failures=checker.failures)
    return result


def summary(name: str, seed: int, result: dict) -> str:
    lines = [f"== {name} (seed {seed}): {result['notes']}"]
    for metric, (value, unit) in result["metrics"].items():
        lines.append(f"  {metric:<28} {value:>14.4f} {unit}")
    failed, attempted = len(result["failures"]), result["attempted"]
    lines.append(f"  {'fail_frac':<28} {failed / attempted:>14.4f} "
                 f"({failed} of {attempted} calls)")
    lines += [f"  FAIL {f}" for f in result["failures"][:20]]
    return "\n".join(lines)


def record_digests(tmp: Path) -> None:
    """Write the stdout digests of one checked pass at DEFAULT_SEED."""
    table = {}
    with Launcher(child_env()) as launcher:
        for name in workloads.WORKLOADS:
            inputs = tmp / name
            inputs.mkdir()
            table[name] = {}
            for req in workloads.generate(name, DEFAULT_SEED, inputs, ROOT):
                code, _, _, stdout, _ = launcher.spawn(req.argv, inputs)
                reason = check.check_call(req, code, stdout, None)
                if reason is not None:
                    raise SystemExit(f"{name} {req.rid}: {reason}")
                table[name][req.rid] = check.digest(stdout)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def environment() -> str:
    return (f"python {platform.python_version()}, "
            f"numpy {importlib.metadata.version('numpy')}, "
            f"nproc {os.cpu_count()}, {platform.machine()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=27)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help=f"rewrite {DIGESTS.name} from seed {DEFAULT_SEED} outputs")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind as on any error: the launcher and its call are
    # stopped and waited for, and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "capgames" / "cli.py").is_file():
        print(f"run.py: no capgames sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # requests name the fixture relative to the checkout
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=WORK))
    try:
        if args.record_digests:
            record_digests(tmp)
            return 0
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        print(environment())
        for name in names:
            sub = tmp / name
            sub.mkdir()
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), sub)
            print(summary(name, args.seed, results[name]), flush=True)
    finally:
        shutil.rmtree(tmp)
    prefix = len(names) > 1
    metrics = {
        (f"{name}.{metric}" if prefix else metric): {"value": value, "unit": unit}
        for name, result in results.items()
        for metric, (value, unit) in result["metrics"].items()
    }
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(len(r["failures"]) for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
