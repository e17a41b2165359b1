"""Traced in-process replay of one CLI run, for the per-layer metrics.

The replay calls `kurapart.cli.main` with the same arguments as a timed
child run, after wrapping the public functions of `graph_core`,
`bipartition_analysis` and `dynamics` that the CLI path reaches, at the
module attributes through which they are looked up.  Each call becomes a
span (name, start, end, parent, run id).  Spans stay in memory and are
written as JSON when the benchmark run ends.  `src/` is not modified: a
function that a later version stops calling simply records no spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "run")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.results: dict[str, list] = defaultdict(list)
        self.run_id = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, keep=None):
        """fn with a span around each call; keep(result) is stored per run if given."""

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.run_id)
            if keep is not None:
                self.results[name].append((self.run_id, keep(result)))
            return result

        return traced

    def run_spans(self, run_id: int) -> list[tuple[int, tuple]]:
        return [(i, s) for i, s in enumerate(self.spans) if s[4] == run_id]

    def write(self, path: Path, meta: dict) -> None:
        payload = {**meta, "fields": list(SPAN_FIELDS), "spans": self.spans}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(path)


def _targets(gc, ban, dyn) -> list[tuple[object, str, str, object]]:
    """(module, attribute, span name, result summary) for every traced call."""
    return [
        (gc, "read_edge_list", "graph_core.load", None),
        (gc, "cycle_graph", "graph_core.load", None),
        (gc, "complete_graph", "graph_core.load", None),
        (gc, "degree_profile", "graph_core.degree_profile", None),
        (ban, "degree_profile", "graph_core.degree_profile", None),
        (gc, "is_equitable", "graph_core.is_equitable", None),
        (ban, "is_equitable", "graph_core.is_equitable", None),
        (ban, "build_condition2_system", "bipartition_analysis.build_system", None),
        (ban, "solve_condition2", "bipartition_analysis.solve", lambda sol: sol.kind != "empty"),
        (ban, "classify_bipartition", "bipartition_analysis.classify", None),
        (ban, "search_all_bipartitions", "bipartition_analysis.search", None),
        (ban, "format_search_report", "bipartition_analysis.format", lambda text: len(text.encode())),
        (dyn, "integrate", "dynamics.integrate", lambda traj: traj.final_state()),
        (dyn, "trajectory_to_csv", "dynamics.csv", lambda text: len(text.encode())),
        (dyn, "exact_sync_partition", "dynamics.exact_sync", None),
        (dyn, "asymptotic_sync_clusters", "dynamics.asym_sync", None),
    ]


@contextmanager
def traced_modules(tracer: Tracer):
    from kurapart import bipartition_analysis as ban
    from kurapart import dynamics as dyn
    from kurapart import graph_core as gc

    saved = []
    try:
        for module, attr, name, keep in _targets(gc, ban, dyn):
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(name, fn, keep))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def replay(tracer: Tracer, argv: list[str]) -> int:
    """One traced in-process CLI run; returns its exit code."""
    from kurapart import cli

    tracer.run_id += 1
    with traced_modules(tracer):
        return tracer.wrap("cli.main", cli.main)(argv)


def layer_times(tracer: Tracer, run_id: int) -> tuple[dict[str, float], dict[str, float], float, float]:
    """Inclusive and self seconds per span name, the root's duration, and the
    sum of the root's direct children."""
    spans = tracer.run_spans(run_id)
    child_ns: dict[int, int] = defaultdict(int)
    for _, (_, start, end, parent, _) in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    incl: dict[str, float] = defaultdict(float)
    self_: dict[str, float] = defaultdict(float)
    root_s = children_s = 0.0
    root = next(i for i, s in spans if s[0] == "cli.main")
    for i, (name, start, end, parent, _) in spans:
        dur = (end - start) * 1e-9
        incl[name] += dur
        self_[name] += dur - child_ns[i] * 1e-9
        if i == root:
            root_s = dur
        elif parent == root:
            children_s += dur
    return incl, self_, root_s, children_s
