"""The four benchmark workloads and the seeded generation of their inputs.

The load is a closed loop: one client issues one `kurapart` CLI run at a
time, always with `--jobs 1`.  The workload seed is an argument of the
benchmark, never of the program.  It derives a fixed list of sub-seeds, and
successive CLI runs take them in turn, because the cost of one input varies
with the seed (by about 10% between relabellings of linear:6, and with the
accepted step count between initial states) and a median over eight inputs
is steadier than one over fewer.  For the search workloads a
sub-seed relabels the vertices with a random permutation and the relabelled
graph reaches the program as an edge-list file.  For the simulate workloads
a sub-seed is handed to the program as `--seed`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SUBSEED_GENERATOR = "numpy.random.SeedSequence(seed).generate_state(count)"
PERMUTATION_GENERATOR = "numpy.random.Generator(numpy.random.PCG64(subseed)).permutation(n) + 1"


def linear_family_edges(p: int) -> tuple[int, list[tuple[int, int]]]:
    """The hub graph of the linear family: hub 1, spokes 2..p+1, each spoke
    carrying a pendant p+2..2p+1, pendants paired by consecutive edges."""
    n = 2 * p + 1
    edges = [(1, i) for i in range(2, p + 2)]
    edges += [(i, i + p) for i in range(2, p + 2)]
    edges += [(a, a + 1) for a in range(p + 2, n + 1, 2)]
    return n, edges


def circulant_edges(n: int, jumps: tuple[int, ...]) -> tuple[int, list[tuple[int, int]]]:
    edges = {tuple(sorted((i + 1, (i + j) % n + 1))) for i in range(n) for j in jumps}
    return n, sorted(edges)


def cycle_edges(n: int) -> tuple[int, list[tuple[int, int]]]:
    return circulant_edges(n, (1,))


def complete_edges(n: int) -> tuple[int, list[tuple[int, int]]]:
    return n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]


def relabel(edges: list[tuple[int, int]], perm: np.ndarray) -> list[tuple[int, int]]:
    """Map vertex v to perm[v - 1]; edges come back canonical and sorted."""
    return sorted(tuple(sorted((int(perm[u - 1]), int(perm[v - 1])))) for u, v in edges)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "search" or "simulate"
    base: str  # how the unrelabelled graph is known to users
    n: int
    edges: tuple[tuple[int, int], ...]
    subseeds: int
    alpha: float | None = None
    t_end: float | None = None
    oracle_dt: float | None = None

    @property
    def rows(self) -> int | None:
        return (1 << (self.n - 1)) - 1 if self.kind == "search" else None

    def meta(self) -> dict:
        return {
            "kind": self.kind,
            "graph": self.base,
            "n": self.n,
            "edges": len(self.edges),
            "rows": self.rows,
            "t_end": self.t_end,
            "alpha": self.alpha,
            "subseeds": self.subseeds,
        }


def _search(name: str, base: str, graph: tuple[int, list[tuple[int, int]]], subseeds: int) -> Workload:
    n, edges = graph
    return Workload(name, "search", base, n, tuple(edges), subseeds)


def _simulate(
    name: str, base: str, graph: tuple[int, list[tuple[int, int]]], alpha: float,
    t_end: float, subseeds: int, oracle_dt: float,
) -> Workload:
    n, edges = graph
    return Workload(name, "simulate", base, n, tuple(edges), subseeds, alpha, t_end, oracle_dt)


WORKLOADS = {
    w.name: w
    for w in (
        _search("search-hub", "linear:6", linear_family_edges(6), 8),
        _search("search-regular", "circulant C12(1,2)", circulant_edges(12, (1, 2)), 8),
        _simulate("simulate-ring", "cycle:200", cycle_edges(200), 0.7, 10.0, 8, 1 / 200),
        _simulate("simulate-dense", "complete:48", complete_edges(48), 1.0, 100.0, 8, 1 / 200),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Everything one seed makes for one workload, one slot per sub-seed."""

    workload: Workload
    seed: int
    seeds: tuple[int, ...]
    edge_sets: tuple[tuple[tuple[int, int], ...], ...]  # as the program sees them
    graph_files: tuple[Path, ...]  # search only

    def slot(self, index: int) -> int:
        """Sub-seed slot of the index-th CLI run."""
        return index % len(self.seeds)

    def edges(self, index: int) -> tuple[tuple[int, int], ...]:
        return self.edge_sets[self.slot(index)]

    def argv(self, index: int, out: Path) -> list[str]:
        """CLI arguments of the index-th run, writing its results to out."""
        w, k = self.workload, self.slot(index)
        if w.kind == "search":
            return ["search", "--graph", str(self.graph_files[k]), "--jobs", "1", "--out", str(out)]
        return [
            "simulate", "--builtin", w.base, "--alpha", repr(w.alpha), "--init-random",
            "--seed", str(self.seeds[k]), "--t-end", repr(w.t_end), "--out", str(out),
        ]

    def load_code(self) -> str:
        """Python statement loading the graph as the CLI does for this workload."""
        if self.workload.kind == "search":
            return f"gc.read_edge_list(open({str(self.graph_files[0])!r}).read())"
        kind, _, size = self.workload.base.partition(":")
        return f"gc.{kind}_graph({int(size)})"

    def meta(self) -> dict:
        search = self.workload.kind == "search"
        return {
            "seed": self.seed,
            "subseed_values": list(self.seeds),
            "generator": SUBSEED_GENERATOR + (f", then {PERMUTATION_GENERATOR}" if search else ""),
            "input": "vertex relabelling as a --graph edge list" if search else "--init-random --seed",
        }


def make_inputs(w: Workload, seed: int, work: Path) -> Inputs:
    seeds = tuple(int(s) for s in np.random.SeedSequence(seed).generate_state(w.subseeds))
    if w.kind == "simulate":
        return Inputs(w, seed, seeds, (w.edges,) * len(seeds), ())
    edge_sets, files = [], []
    for k, sub in enumerate(seeds):
        perm = np.random.Generator(np.random.PCG64(sub)).permutation(w.n) + 1
        edges = tuple(relabel(list(w.edges), perm))
        path = work / f"{w.name}-seed{seed}-{k}.edges"
        lines = [f"# {w.base} relabelled by {PERMUTATION_GENERATOR}, subseed {sub}", f"n {w.n}"]
        path.write_text("\n".join(lines + [f"{u} {v}" for u, v in edges]) + "\n")
        edge_sets.append(edges)
        files.append(path)
    return Inputs(w, seed, seeds, tuple(edge_sets), tuple(files))


def random_init(n: int, seed: int) -> np.ndarray:
    """The CLI's documented --init-random state: PCG64, uniform on [0, 2*pi)."""
    return np.random.Generator(np.random.PCG64(seed)).uniform(0.0, 2.0 * math.pi, size=n)
