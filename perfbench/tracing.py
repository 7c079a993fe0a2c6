"""In-process traced run: spans and counters at each layer boundary.

The same requests as the timed run go through ``capgames.cli.main(argv)``
with stdout captured.  Each function in ``BOUNDARIES`` is replaced, at every
module attribute bound to it, by a wrapper that records a span (name,
request id, start, end, parent) and updates counters from the call's
arguments and return value, so the counts repeat exactly between runs.
Per-profile functions (``is_pure_ne``, ``goldmines.payoff``,
``segment_count``, ...) are deliberately not wrapped, which keeps the
tracing overhead small.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import time
from collections import Counter, defaultdict


class Tracer:
    """Spans kept in memory as [name, rid, start, end, parent-index] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.rid: str | None = None
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, self.rid, time.perf_counter(), None, parent]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self, args, result)
            return result
        return traced

def self_times(spans) -> dict[str, float]:
    """Seconds per span name, each span less the time its child spans cover.

    Calls are single-threaded, so a span's children are disjoint and their
    durations simply add up.
    """
    child_time = defaultdict(float)
    for name, _rid, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = defaultdict(float)
    for i, (name, _rid, start, end, _parent) in enumerate(spans):
        out[name] += end - start - child_time[i]
    return dict(out)


# --- counters, computed from arguments and public return values ---

def _count_main(t, args, result):
    t.counts["cli.calls"] += 1


def _count_load(t, args, game):
    t.counts["gamefile.profiles_loaded"] += len(game.payoffs)


def _count_ctf_pure(t, args, payoffs):
    game, capability = args[0], args[1]
    t.counts["game.cells"] += 1
    t.counts["game.profiles_scanned"] += math.prod(
        game.space_size(p, c) for p, c in enumerate(capability))
    t.counts["game.payoff_vectors"] += len(payoffs)
    t.counts["game.empty_cells"] += not payoffs


def _count_ctf_mixed(t, args, result):
    t.counts["bimatrix.cells"] += 1
    t.counts["bimatrix.degenerate_cells"] += result.degenerate


def _count_support_enumeration(t, args, equilibria):
    m, k = args[0].shape
    t.counts["bimatrix.support_pairs"] += sum(
        math.comb(m, s) * math.comb(k, s) for s in range(1, min(m, k) + 1))
    t.counts["bimatrix.equilibria"] += len(equilibria)


def _count_closed_form(t, args, result):
    t.counts["goldmines.closed_form_cells"] += 1


def _count_build(t, args, result):
    t.counts["goldmines.builds"] += 1


def _count_table(t, args, table):
    t.counts["oracle.tables_built"] += 1
    # the largest single table, which is what moves peak RSS
    t.counts["oracle.table_bytes"] = max(t.counts["oracle.table_bytes"], table.ua.nbytes)


def _count_verify(t, args, report):
    t.counts["oracle.cells_verified"] += 1
    t.counts["oracle.equilibria_found"] += report.equilibria_found


# (module, attribute, counter) for every wrapped layer boundary
BOUNDARIES = (
    ("cli", "main", _count_main),
    ("cli", "render", None),
    ("gamefile", "load_game", _count_load),
    ("gamefile", "parse_game", None),
    ("game", "ctf_pure", _count_ctf_pure),
    ("game", "equilibrium_welfare_levels", None),
    ("game", "is_capability_positive", None),
    ("bimatrix", "ctf_mixed", _count_ctf_mixed),
    ("bimatrix", "restrict_to_bimatrix", None),
    ("bimatrix", "support_enumeration", _count_support_enumeration),
    ("goldmines", "equilibrium_payoffs", _count_closed_form),
    ("goldmines", "build_equilibrium", _count_build),
    ("oracle", "PayoffTable", _count_table),
    ("oracle", "verify_closed_form", _count_verify),
)

# per-layer time metric -> the spans whose self time it sums
TIME_METRICS = {
    "cli.render_ms": ("cli.render",),
    "gamefile.load_ms": ("gamefile.load_game", "gamefile.parse_game"),
    "game.ctf_pure_ms": ("game.ctf_pure",),
    "game.welfare_ms": ("game.equilibrium_welfare_levels", "game.is_capability_positive"),
    "bimatrix.support_enum_ms": ("bimatrix.ctf_mixed", "bimatrix.restrict_to_bimatrix",
                                 "bimatrix.support_enumeration"),
    "goldmines.closed_form_ms": ("goldmines.equilibrium_payoffs",),
    "goldmines.build_ms": ("goldmines.build_equilibrium",),
    "oracle.table_build_ms": ("oracle.PayoffTable",),
    "oracle.verify_ms": ("oracle.verify_closed_form",),
}

COUNT_METRICS = (
    "cli.calls", "gamefile.profiles_loaded",
    "game.cells", "game.profiles_scanned", "game.payoff_vectors", "game.empty_cells",
    "bimatrix.cells", "bimatrix.support_pairs", "bimatrix.equilibria",
    "bimatrix.degenerate_cells",
    "goldmines.closed_form_cells", "goldmines.builds",
    "oracle.tables_built", "oracle.table_bytes", "oracle.cells_verified",
    "oracle.equilibria_found",
)


def _modules():
    import capgames
    from capgames import bimatrix, cli, game, gamefile, goldmines, oracle
    return capgames, {"cli": cli, "gamefile": gamefile, "game": game,
                      "bimatrix": bimatrix, "goldmines": goldmines, "oracle": oracle}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every boundary function for its traced wrapper, then restore."""
    package, mods = _modules()
    restore = []
    try:
        for mod_name, attr, count in BOUNDARIES:
            original = getattr(mods[mod_name], attr)
            wrapper = tracer.wrap(f"{mod_name}.{attr}", original, count)
            for mod in (package, *mods.values()):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        restore.append((mod, key, original))
        yield tracer
    finally:
        for mod, key, original in reversed(restore):
            setattr(mod, key, original)


def run_in_process(requests, tracer: Tracer | None = None):
    """Run each request through ``cli.main``; return [(code, stdout)] and
    the wall time of the whole pass."""
    _, mods = _modules()
    results = []
    start = time.perf_counter()
    for req in requests:
        # each CLI call is a fresh process, so no payoff table outlives it
        mods["oracle"]._table.cache_clear()
        if tracer is not None:
            tracer.rid = req.rid
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = mods["cli"].main(list(req.argv))
            except SystemExit as exit_:
                code = exit_.code
        results.append((code, out.getvalue().encode()))
    return results, time.perf_counter() - start


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer times (ms of self time) and counters from one traced pass."""
    selfs = self_times(tracer.spans)
    out = {name: 1000 * sum(selfs.get(s, 0.0) for s in spans)
           for name, spans in TIME_METRICS.items()}
    for name in COUNT_METRICS:
        out[name] = tracer.counts[name]
    pairs = out["bimatrix.support_pairs"]
    out["bimatrix.eq_per_pair"] = out["bimatrix.equilibria"] / pairs if pairs else 0.0
    return out


def unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric == "oracle.table_bytes":
        return "bytes"
    if metric == "bimatrix.eq_per_pair":
        return "ratio"
    return "count"
