"""Slow reference implementations the tests compare against.

Everything here is written from first principles on top of the Graph edge
list alone, so a bug in the library's partition machinery cannot hide by
appearing on both sides of an assertion.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from kurapart import (
    Graph,
    SearchRow,
    SolutionSet,
    VertexPartition,
    classify_bipartition,
)
from kurapart.graph_core import bipartition_from_mask


def adjacency_sets(g: Graph) -> dict[int, set[int]]:
    nbrs: dict[int, set[int]] = {v: set() for v in range(1, g.n + 1)}
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def condition2_rows(g: Graph, blocks) -> list[tuple[int, int, int]]:
    """Rows (c_mu1, c_mu2, rhs) of mu1*c_mu1 + mu2*c_mu2 - r = rhs, one per vertex."""
    nbrs = adjacency_sets(g)
    s1, s2 = (set(b) for b in blocks)
    rows = [(len(nbrs[v] & s2), 0, len(nbrs[v] & s1)) for v in sorted(s1)]
    rows += [(0, len(nbrs[v] & s1), len(nbrs[v] & s2)) for v in sorted(s2)]
    return rows


def condition2_solution_slow(g: Graph, blocks) -> SolutionSet:
    """Exact Gauss-Jordan elimination of the per-vertex rows; unknowns (mu1, mu2, r)."""
    aug = [
        [Fraction(a), Fraction(b), Fraction(-1), Fraction(rhs)]
        for a, b, rhs in condition2_rows(g, blocks)
    ]
    ncols = 3
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(aug)) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for r in range(len(aug)):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == len(aug):
            break
    if any(aug[r][ncols] != 0 for r in range(row, len(aug))):
        return SolutionSet("empty", None, ())
    base = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        base[col] = aug[i][ncols]
    directions = []
    for fc in (c for c in range(ncols) if c not in pivots):
        d = [Fraction(0)] * ncols
        d[fc] = Fraction(1)
        for i, col in enumerate(pivots):
            d[col] = -aug[i][fc]
        directions.append(tuple(d))
    kind = {0: "point", 1: "line", 2: "plane"}[len(directions)]
    return SolutionSet(kind, tuple(base), tuple(directions))


def search_rows_slow(g: Graph) -> list[SearchRow]:
    """The search one row at a time: decode each mask into a partition and
    classify it through its degree profile, with no batch filter."""
    rows = []
    for mask in range(1, 1 << (g.n - 1)):
        bip = bipartition_from_mask(g.n, mask)
        res = classify_bipartition(g, bip)
        rows.append(SearchRow(mask, bip.blocks[1], res.classification, res.certificate, res.family))
    return rows


def all_partitions(items: list[int]):
    """Yield every set partition of items as a list of lists.

    Restricted-growth encoding: item k may open at most one new block.
    """
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in all_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
        yield [[first]] + sub


def is_equitable_slow(g: Graph, blocks: list[list[int]]) -> bool:
    nbrs = adjacency_sets(g)
    for block in blocks:
        for target in blocks:
            counts = {len(nbrs[v] & set(target)) for v in block}
            if len(counts) != 1:
                return False
    return True


def coarsest_equitable_slow(g: Graph) -> VertexPartition:
    """Unique equitable partition with the fewest blocks, by enumeration."""
    best: list[list[int]] | None = None
    ties = 0
    for blocks in all_partitions(list(range(1, g.n + 1))):
        if not is_equitable_slow(g, blocks):
            continue
        if best is None or len(blocks) < len(best):
            best, ties = blocks, 1
        elif len(blocks) == len(best):
            ties += 1
    assert best is not None  # singletons are always equitable
    assert ties == 1, "coarsest equitable partition must be unique"
    return VertexPartition.from_blocks(best)


def automorphisms_slow(g: Graph) -> list[tuple[int, ...]]:
    """All adjacency-preserving vertex bijections, n! scan.  Keep n <= 7."""
    edges = {frozenset(e) for e in g.edges}
    found = []
    for perm in itertools.permutations(range(1, g.n + 1)):
        image = {frozenset((perm[u - 1], perm[v - 1])) for u, v in g.edges}
        if image == edges:
            found.append(perm)
    return found


def orbit_blocks(perm: tuple[int, ...]) -> list[list[int]]:
    seen: set[int] = set()
    blocks = []
    for start in range(1, len(perm) + 1):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        v = perm[start - 1]
        while v != start:
            cycle.append(v)
            seen.add(v)
            v = perm[v - 1]
        blocks.append(cycle)
    return blocks


def random_connected_graph(rng: np.random.Generator, n: int, extra: float = 0.3) -> Graph:
    """Random tree by root attachment, then each chord kept with prob extra."""
    edges = []
    for v in range(2, n + 1):
        u = int(rng.integers(1, v))
        edges.append((u, v))
    present = {frozenset(e) for e in edges}
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if frozenset((u, v)) not in present and rng.random() < extra:
                edges.append((u, v))
    return Graph(n, tuple(edges))
