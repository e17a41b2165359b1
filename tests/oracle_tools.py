"""Slow reference implementations the tests compare against.

Everything here is written from first principles on top of the Graph edge
list alone, so a bug in the library's partition machinery cannot hide by
appearing on both sides of an assertion.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from kurapart import (
    BadParameterError,
    Classification,
    Condition2Certificate,
    FamilySegment,
    FormatError,
    Graph,
    NonFiniteStateError,
    RunStats,
    SearchReport,
    SolutionSet,
    StepUnderflowError,
    SyncReport,
    TooShortError,
    Trajectory,
    VertexPartition,
    alpha_from_mu,
    classify_bipartition,
)
from kurapart import dynamics as dyn
from kurapart.bipartition_analysis import bipartition_from_mask


def adjacency_sets(g: Graph) -> dict[int, set[int]]:
    nbrs: dict[int, set[int]] = {v: set() for v in range(1, g.n + 1)}
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def has_edge(g: Graph, u: int, v: int) -> bool:
    return 1 <= u <= g.n and v in g.adjacency[u]


def refines(fine: VertexPartition, coarse: VertexPartition) -> bool:
    """True when every block of fine sits inside a single block of coarse."""
    where = coarse.index_map()
    return all(b[0] in where and len({where.get(v) for v in b}) == 1 for b in fine.blocks)


def write_edge_list(g: Graph) -> str:
    """The 'n <count>' header, then one 'u v' line per edge: read_edge_list's format."""
    return "".join([f"n {g.n}\n", *(f"{u} {v}\n" for u, v in g.edges)])


def partition_to_json(p: VertexPartition) -> str:
    """{"blocks": [[...], ...]}: partition_from_json's format."""
    return json.dumps({"blocks": [list(b) for b in p.blocks]})


def adjacency_matrix_slow(g: Graph) -> np.ndarray:
    """Dense 0/1 adjacency matrix, one edge at a time."""
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u - 1, v - 1] = 1.0
        a[v - 1, u - 1] = 1.0
    return a


def condition2_rows(g: Graph, blocks) -> list[tuple[int, int, int]]:
    """Rows (c_mu1, c_mu2, rhs) of mu1*c_mu1 + mu2*c_mu2 - r = rhs, one per vertex."""
    nbrs = adjacency_sets(g)
    s1, s2 = (set(b) for b in blocks)
    rows = [(len(nbrs[v] & s2), 0, len(nbrs[v] & s1)) for v in sorted(s1)]
    rows += [(0, len(nbrs[v] & s1), len(nbrs[v] & s2)) for v in sorted(s2)]
    return rows


def condition2_solution_slow(g: Graph, blocks) -> SolutionSet:
    """Exact Gauss-Jordan elimination of the per-vertex rows; unknowns (mu1, mu2, r)."""
    return gauss_jordan_slow(condition2_rows(g, blocks))


def gauss_jordan_slow(rows) -> SolutionSet:
    """Exact Gauss-Jordan elimination of rows (c_mu1, c_mu2, rhs) of
    mu1*c_mu1 + mu2*c_mu2 - r = rhs; unknowns (mu1, mu2, r)."""
    aug = [[Fraction(a), Fraction(b), Fraction(-1), Fraction(rhs)] for a, b, rhs in rows]
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


def line_family_slow(sol: SolutionSet) -> FamilySegment:
    """Feasible segment of a solution line by intersecting three generic
    open half-lines A + B*t > 0, any of which may leave an end unbounded."""
    (p1, p2, _), ((d1, d2, _),) = sol.basepoint, sol.directions
    # gain order, then both offset limits
    constraints = [
        (p1 - p2, d1 - d2),
        (2 - (p1 + p2), -(d1 + d2)),
        ((p1 + p2) + 2, d1 + d2),
    ]
    lo: Fraction | None = None
    hi: Fraction | None = None
    for a, b in constraints:
        if b == 0:
            if a <= 0:
                return FamilySegment(feasible=False, dim=1)
        elif b > 0:
            lo = -a / b if lo is None else max(lo, -a / b)
        else:
            hi = -a / b if hi is None else min(hi, -a / b)
    if lo is not None and hi is not None and lo >= hi:
        return FamilySegment(feasible=False, dim=1)

    def alpha_at(t: Fraction | None) -> float | None:
        return None if t is None else alpha_from_mu(p1 + t * d1, p2 + t * d2).value

    if lo is not None and hi is not None:
        t_mid = (lo + hi) / 2
    elif lo is not None:
        t_mid = lo + 1
    elif hi is not None:
        t_mid = hi - 1
    else:
        t_mid = Fraction(0)
    return FamilySegment(True, 1, lo, hi, alpha_at(lo), alpha_at(hi), alpha_at(t_mid))


def enumerate_bipartitions(g: Graph) -> Iterator[VertexPartition]:
    """Yield every unordered 2-block partition of 1..n exactly once.

    Vertex 1 stays in the first block; the complement runs through all
    2**(n-1) - 1 nonempty proper subsets of 2..n in ascending mask order.
    """
    if g.n < 2:
        raise BadParameterError("bipartitions need n >= 2")
    for mask in range(1, 1 << (g.n - 1)):
        yield bipartition_from_mask(g.n, mask)


@dataclass(frozen=True)
class SearchRow:
    mask: int
    s2: tuple[int, ...]
    classification: Classification
    certificate: Condition2Certificate | None
    family: FamilySegment | None


def search_report_rows(report: SearchReport) -> tuple[SearchRow, ...]:
    """Decode a search report's columns into one SearchRow per mask 1..total.

    A mask the report does not store is Infeasible with nothing else; a
    stored one takes the solution of its solved row, whose certificate, if
    any, gains the vertex sets the mask encodes.
    """
    found = dict(zip(report.masks, report.which))
    rows = []
    for mask in range(1, report.total + 1):
        s1, s2 = bipartition_from_mask(report.n, mask).blocks
        if mask not in found:
            rows.append(SearchRow(mask, s2, Classification.INFEASIBLE, None, None))
            continue
        res = report.solutions[found[mask]]
        cert = res.certificate
        if cert is not None:
            cert = cert._replace(s1=s1, s2=s2)
        rows.append(SearchRow(mask, s2, res.classification, cert, res.family))
    return tuple(rows)


def search_rows_slow(g: Graph) -> list[SearchRow]:
    """The search one row at a time: decode each mask into a partition and
    classify it through its degree profile, with no batch filter."""
    rows = []
    for mask in range(1, 1 << (g.n - 1)):
        bip = bipartition_from_mask(g.n, mask)
        res = classify_bipartition(g, bip)
        rows.append(SearchRow(mask, bip.blocks[1], res.classification, res.certificate, res.family))
    return rows


def solve_rows_batch(x: np.ndarray, to_s2: np.ndarray, degree: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve mu_b * d_cross - r = d_in for every row of a batch, in int64.

    x is the (rows, n) indicator of the second block, to_s2 every vertex's
    neighbour count into that block and degree the vertex degrees.  Each
    block's count points (d_cross, d_in) must lie on the line through its
    points A and B of smallest and largest d_cross or, when all share one
    d_cross, coincide.  A block with two distinct d_cross values pins
    r = (d_B c_A - d_A c_B) / (c_B - c_A); when both blocks pin r the two
    values must agree.  Returns whether each row's solution set is nonempty
    and one int64 row per mask, (line, r_num, r_den, c1, d1, c2, d2), in
    the library's solved-row layout, meaningful where it is nonempty.
    Every product is bounded by Delta**3 for the maximum degree Delta, so
    the solve is exact while Delta < 2**21.
    """
    assert int(degree.max()) < 1 << 21, "int64 products overflow from a degree of 2**21"
    cross = np.where(x == 1, degree - to_s2, to_s2)
    d_in = degree - cross
    ok = np.ones(x.shape[0], dtype=bool)
    rows = np.arange(x.shape[0])[:, None]
    blocks = []
    for member in (x == 0, x == 1):
        # pad non-members past every count: n above, -1 below
        lo = np.argmin(np.where(member, cross, x.shape[1]), axis=1)[:, None]
        hi = np.argmax(np.where(member, cross, -1), axis=1)[:, None]
        ca, da, cb, db = cross[rows, lo], d_in[rows, lo], cross[rows, hi], d_in[rows, hi]
        span = cb - ca
        on_line = ((d_in - da) * span == (db - da) * (cross - ca)) & ((span > 0) | (d_in == da))
        ok &= np.all(on_line | ~member, axis=1)
        blocks.append([a[:, 0] for a in (db * ca - da * cb, span, cb, db)])
    (num1, den1, c1, d1), (num2, den2, c2, d2) = blocks
    ok &= (den1 == 0) | (den2 == 0) | (num1 * den2 == num2 * den1)
    r_num = np.where(den1 > 0, num1, np.where(den2 > 0, num2, 0))
    r_den = np.where(den1 > 0, den1, np.where(den2 > 0, den2, 1))
    return ok, np.column_stack([(den1 == 0) & (den2 == 0), r_num, r_den, c1, d1, c2, d2])


def search_batch_slow(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """solve_rows_batch on every mask of g at once, with the int64
    indicator rows X of the masks and their neighbour counts X @ A."""
    total = (1 << (g.n - 1)) - 1
    x = np.zeros((total, g.n), dtype=np.int64)
    x[:, 1:] = np.arange(1, total + 1)[:, None] >> np.arange(g.n - 1) & 1
    adj = adjacency_matrix_slow(g).astype(np.int64)
    return solve_rows_batch(x, x @ adj, adj.sum(axis=1))


def search_tree_slow(g: Graph) -> tuple[int, int]:
    """(nodes, pruned) of the pruned depth-first search, by brute force.

    Vertices go in BFS order from vertex 1, neighbours in ascending order.
    Each assignment of the first k + 1 of them (vertex 1 in the first
    block) is a node at depth k; it is entered when its parent's is and
    not cut, and cut when the count points it fixes, those of the placed
    vertices whose neighbours are all placed, have no exact solution.
    """
    nbrs = adjacency_sets(g)
    order = [1]
    for v in order:
        order += [w for w in sorted(nbrs[v]) if w not in order]
    nodes = pruned = 0
    alive = [frozenset()]  # second blocks of the live nodes one depth up
    for k in range(1, g.n):
        placed = set(order[: k + 1])
        fixed = [v for v in placed if nbrs[v] <= placed]
        deeper = []
        for s2 in alive:
            for child in (s2, s2 | {order[k]}):
                nodes += 1
                s1 = placed - child
                rows = [
                    (0, len(nbrs[v] & s1), len(nbrs[v] & child)) if v in child
                    else (len(nbrs[v] & child), 0, len(nbrs[v] & s1))
                    for v in fixed
                ]
                if rows and gauss_jordan_slow(rows).kind == "empty":
                    pruned += 1
                else:
                    deeper.append(child)
        alive = deeper
    return nodes, pruned


def format_search_report_slow(n: int, rows: list[SearchRow]) -> str:
    """The search report rendered one SearchRow object at a time."""
    width = len(str((1 << (n - 1)) - 1))
    lines = []
    counts = {c.value: 0 for c in Classification}
    for row in rows:
        counts[row.classification.value] += 1
        parts = [
            str(row.mask).rjust(width, "0"),
            "s2=" + ",".join(map(str, row.s2)),
            row.classification.value,
        ]
        cert = row.certificate
        if cert is not None:
            parts.append(f"mu1={cert.mu1} mu2={cert.mu2} r={cert.r}")
            parts.append(
                f"alpha={cert.alpha:.17g} beta={cert.beta:.17g} offset={cert.offset:.17g}"
            )
            if not cert.feasible:
                flags = []
                if cert.mu_equal:
                    flags.append("mu_equal")
                if cert.offset_at_limit:
                    flags.append("offset_at_limit")
                parts.append("flags=" + ",".join(flags))
        if row.family is not None:
            parts.append(f"dim={row.family.dim} feasible={'yes' if row.family.feasible else 'no'}")
        lines.append(" ".join(parts))
    summary = " ".join(f"{k}={v}" for k, v in counts.items())
    lines.append(f"# total={len(rows)} {summary}")
    return "\n".join(lines) + "\n"


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


def coarsest_equitable_refinement_slow(g: Graph, seed: VertexPartition) -> VertexPartition:
    """Refine seed by per-block neighbour-count vectors, one length-k count
    tuple per vertex per pass, regrouping inside each block until no block
    splits; blocks ordered by their smallest vertex."""
    nbrs = adjacency_sets(g)
    blocks = [list(b) for b in seed.blocks]
    while True:
        index = {v: i for i, b in enumerate(blocks) for v in b}
        sig = {}
        for v in range(1, g.n + 1):
            counts = [0] * len(blocks)
            for w in nbrs[v]:
                counts[index[w]] += 1
            sig[v] = tuple(counts)
        new_blocks: list[list[int]] = []
        for b in blocks:
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in b:
                groups.setdefault(sig[v], []).append(v)
            new_blocks.extend(sorted(groups.values(), key=min))
        if len(new_blocks) == len(blocks):
            return VertexPartition.from_blocks(blocks)
        blocks = sorted(new_blocks, key=min)


def automorphisms_slow(g: Graph) -> list[tuple[int, ...]]:
    """All adjacency-preserving vertex bijections, n! scan.  Keep n <= 8."""
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


def orbit_partitions_slow(g: Graph) -> set[VertexPartition]:
    """The distinct cycle partitions of single automorphisms of g."""
    return {VertexPartition.from_blocks(orbit_blocks(perm)) for perm in automorphisms_slow(g)}


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


# An edge mask of a graph on n vertices reads its vertex pairs (i, j), i < j,
# 0-based, in the order (0, 1), (0, 2), (1, 2), (0, 3), ... as binary digits
# from the most significant: labelling vertex j fixes the next j digits.


def mask_edges(n: int, mask: int) -> tuple[tuple[int, int], ...]:
    """The 1-based edges an edge mask of an n-vertex graph holds."""
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    top = len(pairs) - 1
    return tuple((i + 1, j + 1) for p, (i, j) in enumerate(pairs) if mask >> (top - p) & 1)


def least_mask(adjacency: list[int]) -> int:
    """The least edge mask over every relabelling of the graph whose vertex
    v has the neighbour bits adjacency[v].

    Labels are handed out in order, and handing out label k fixes the next k
    digits of the mask, the new vertex's pairs with labels 0..k-1, so only
    the branches whose digits so far are least can end least.  Two branches
    with the same labelled set and the same digits for every vertex left
    have the same futures, and are kept once."""
    n = len(adjacency)
    level = {(0, (0,) * n)}  # (labelled bits, each unlabelled vertex's next digits)
    mask = 0
    for k in range(n):
        best = min(codes[v] for done, codes in level for v in range(n) if not done >> v & 1)
        following = set()
        for done, codes in level:
            for v in range(n):
                if done >> v & 1 or codes[v] != best:
                    continue
                now = done | 1 << v
                following.add((now, tuple(
                    0 if now >> w & 1 else code << 1 | adjacency[w] >> v & 1
                    for w, code in enumerate(codes)
                )))
        level = following
        mask = mask << k | best
    return mask


def connected_graphs(n_max: int) -> dict[int, list[int]]:
    """Every connected graph on 1..n_max vertices up to isomorphism, as the
    sorted least edge masks per vertex count (see least_mask).

    Each graph on n - 1 vertices gains a vertex n with every nonempty
    neighbourhood.  That reaches every connected graph on n vertices: a
    leaf of its spanning tree is a vertex whose removal leaves it connected."""
    graphs = {1: [0]}
    for n in range(2, n_max + 1):
        found = set()
        for mask in graphs[n - 1]:
            adjacency = [0] * n
            for u, v in mask_edges(n - 1, mask):
                adjacency[u - 1] |= 1 << (v - 1)
                adjacency[v - 1] |= 1 << (u - 1)
            for nbrs in range(1, 1 << (n - 1)):
                joined = [bits | (nbrs >> v & 1) << (n - 1) for v, bits in enumerate(adjacency[:-1])]
                found.add(least_mask(joined + [nbrs]))
        graphs[n] = sorted(found)
    return graphs


def certificate_motion_slow(cert: Condition2Certificate, c: float, times) -> tuple[np.ndarray, np.ndarray]:
    """The certificate's rigid motion sampled as it was built before
    LinearTrajectory took one common rate: the start c with the offset
    added on s2, the rate repeated per vertex, the states start + t rate
    and the derivatives rate tiled per row."""
    start = np.full(max(cert.s1 + cert.s2), float(c))
    start[np.array(cert.s2) - 1] += cert.offset
    rate = np.full(start.shape, float(float(cert.r) * math.sin(cert.alpha)))
    ts = np.asarray(times, dtype=float)
    return start[None, :] + np.outer(ts, rate), np.tile(rate, (ts.size, 1))


def _pairwise_max_dev_slow(states: np.ndarray) -> np.ndarray:
    """Every pair's largest absolute phase gap over the rows: n x n."""
    n = states.shape[1]
    out = np.zeros((n, n))
    for i in range(n):
        d = np.abs(states[:, i + 1 :] - states[:, i : i + 1])
        if d.size:
            out[i, i + 1 :] = d.max(axis=0)
    return np.maximum(out, out.T)


def _merge_components_slow(n: int, linked: np.ndarray) -> list[list[int]]:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if linked[i, j]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v + 1)
    return sorted(groups.values(), key=min)


def _exact_sync_slow(dev: np.ndarray, tol: float):
    partition = VertexPartition.from_blocks(_merge_components_slow(dev.shape[0], dev < tol))
    flagged = []
    for block in partition.blocks:
        for a in range(len(block)):
            for b in range(a + 1, len(block)):
                i, j = block[a], block[b]
                d = dev[i - 1, j - 1]
                if d >= tol:
                    flagged.append((i, j, float(d)))
    return partition, tuple(flagged)


def exact_sync_chains_slow(traj: Trajectory, tol: float = 1e-8):
    """Exact single-linkage partition and chained pairs from the full n x n
    deviation matrix."""
    return _exact_sync_slow(_pairwise_max_dev_slow(traj.states), tol)


def sync_report_slow(
    traj: Trajectory, tail_fraction: float = 0.2, tol: float = 1e-4, exact_tol: float = 1e-8
) -> SyncReport:
    """The all-pairs sync report: n x n deviation matrices over the whole
    record, the tail and the window before it, and a label for every pair,
    "desynchronised" included.  A tail window of fewer than 10 points gives
    the exact part alone, with tail_skipped saying why."""
    if not 0.0 < tail_fraction <= 0.5:
        raise BadParameterError(f"tail_fraction must lie in (0, 0.5], got {tail_fraction}")
    times = traj.times
    span = float(times[-1] - times[0])
    tail_lo = times[-1] - tail_fraction * span
    prev_lo = times[-1] - 2.0 * tail_fraction * span
    tail_rows = np.nonzero(times >= tail_lo - 1e-12)[0]
    prev_rows = np.nonzero((times >= prev_lo - 1e-12) & (times < tail_lo - 1e-12))[0]
    n = traj.dimension
    dev_full = _pairwise_max_dev_slow(traj.states)
    exact, chained = _exact_sync_slow(dev_full, exact_tol)
    if tail_rows.size < 10:
        skipped = f"tail window holds {tail_rows.size} recorded points, need at least 10"
        return SyncReport(exact, exact_tol, chained, tail_fraction, tol, tail_skipped=skipped)
    dev_tail = _pairwise_max_dev_slow(traj.states[tail_rows])
    dev_prev = _pairwise_max_dev_slow(traj.states[prev_rows]) if prev_rows.size else None
    linked = dev_tail < tol
    if dev_prev is not None:
        linked &= dev_tail <= dev_prev + 1e-12
    clusters = VertexPartition.from_blocks(_merge_components_slow(n, linked))
    cmap = clusters.index_map()
    means = np.empty((traj.n_recorded, clusters.k))
    for b, block in enumerate(clusters.blocks):
        means[:, b] = traj.states[:, [v - 1 for v in block]].mean(axis=1)
    tail_dev = []
    for b, block in enumerate(clusters.blocks):
        gap = traj.states[np.ix_(tail_rows, [v - 1 for v in block])] - means[tail_rows, b : b + 1]
        tail_dev.append(float(np.abs(gap).max()) if gap.size else 0.0)
    emap = exact.index_map()
    pair_classes = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if emap[i] == emap[j] and dev_full[i - 1, j - 1] < exact_tol:
                label = "synchronised"
            elif cmap[i] == cmap[j]:
                label = "asymptotic"
            else:
                label = "desynchronised"
            pair_classes.append((i, j, label, float(dev_tail[i - 1, j - 1])))
    return SyncReport(
        exact_partition=exact,
        exact_tol=exact_tol,
        chained_pairs=chained,
        clusters=clusters,
        tail_fraction=tail_fraction,
        tail_tol=tol,
        tail_start=float(max(tail_lo, 0.0)),
        tail_max_deviation=tuple(tail_dev),
        pair_classes=tuple(pair_classes),
    )


def trajectory_to_csv_slow(traj: Trajectory) -> str:
    """One f-string per value: header t,theta_1,...,theta_n, then 17
    significant digits throughout."""
    n = traj.dimension
    lines = ["t," + ",".join(f"theta_{i}" for i in range(1, n + 1))]
    for t, row in zip(traj.times, traj.states):
        lines.append(",".join(f"{x:.17g}" for x in [t, *row]))
    return "\n".join(lines) + "\n"


def trajectory_from_csv(text: str) -> Trajectory:
    """Parse trajectory_to_csv's format: header t,theta_1,...,theta_n, then
    one row of floats per recorded time."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty trajectory file")
    header = lines[0].split(",")
    if header[0] != "t" or len(header) < 2:
        raise FormatError(f"bad trajectory header {lines[0]!r}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise FormatError(f"row width {len(parts)} does not match header")
        try:
            rows.append([float(x) for x in parts])
        except ValueError:
            raise FormatError(f"non-numeric value in row {ln!r}") from None
    if not rows:
        raise FormatError("trajectory file has no data rows")
    data = np.array(rows)
    return Trajectory(data[:, 0], data[:, 1:])


# The integrator as it stood before its right-hand sides kept their work
# arrays: every call allocates its own, and every stage slices the tableau.
# The arithmetic is the same, so results must agree bit for bit.


def coupling_rhs_slow(src, bins, w, matrix, n, alpha, omega=0.0, coupling=1.0):
    """The coupling right-hand side with fresh arrays on every call."""
    rot = complex(coupling * math.cos(alpha), -coupling * math.sin(alpha))
    dense = matrix() if dyn._dense_sums(src.size, n) else None

    def f(y):
        z = np.empty(n, dtype=complex)
        np.cos(y, out=z.real)
        np.sin(y, out=z.imag)
        if dense is not None:
            pull = (dense @ z.view(float).reshape(n, 2)).view(complex).reshape(n)
        else:
            parts = z[src].view(float)
            if w is not None:
                parts *= w
            pull = np.bincount(bins, weights=parts, minlength=2 * n).view(complex)
        np.conjugate(z, out=z)
        z *= rot
        z *= pull
        return z.imag + omega

    return f


def interleaved_bins_slow(dst: np.ndarray) -> np.ndarray:
    """Scatter bins 2 d, 2 d + 1 for each arc destination d, in arc order."""
    return np.array([b for d in dst.tolist() for b in (2 * d, 2 * d + 1)], dtype=np.intp)


def graph_rhs_slow(g: Graph, params):
    """The graph's right-hand side from its edge list: both directions of
    every edge as 0-based arcs sorted by (dst, src), their interleaved
    bins, and the dense weights W[dst, src] = 1."""
    arcs = sorted((v - 1, u - 1) for a, b in g.edges for u, v in ((a, b), (b, a)))
    dst = np.array([d for d, _ in arcs], dtype=np.intp)
    src = np.array([s for _, s in arcs], dtype=np.intp)
    return coupling_rhs_slow(
        src, interleaved_bins_slow(dst), None, lambda: adjacency_matrix_slow(g), g.n,
        params.alpha, params.omega, params.coupling,
    )


def gamma_rhs_slow(gamma, alpha: float):
    gm = np.array(gamma.gamma, dtype=float)
    dst, src = np.nonzero(gm)
    return coupling_rhs_slow(
        src, interleaved_bins_slow(dst), np.repeat(gm[dst, src], 2), lambda: gm, gamma.k, alpha
    )


def residual_max_slow(g: Graph, traj: Trajectory, params) -> float:
    """Largest gap between recorded and model phase velocity, one row at a
    time: closed-form derivatives at every row when the trajectory carries
    them, else three-point differences at every interior row."""
    times, states = traj.times, traj.states
    if traj.derivatives is None:
        if times.size < 3:
            raise TooShortError("numeric residual needs at least three recorded times")
        rows = range(1, times.size - 1)
    else:
        rows = range(times.size)
    f = graph_rhs_slow(g, params)
    worst = 0.0
    for r in rows:
        if traj.derivatives is not None:
            deriv = traj.derivatives[r]
        else:
            h1 = times[r] - times[r - 1]
            h2 = times[r + 1] - times[r]
            w0 = -h2 / (h1 * (h1 + h2))
            w1 = (h2 - h1) / (h1 * h2)
            w2 = h1 / (h2 * (h1 + h2))
            deriv = w0 * states[r - 1] + w1 * states[r] + w2 * states[r + 1]
        worst = max(worst, float(np.abs(deriv - f(states[r])).max()))
    return worst


def _check_finite_slow(y, where):
    if not np.all(np.isfinite(y)):
        raise NonFiniteStateError(f"non-finite state {where}")


def tableau_slow(rows):
    """Square strictly lower-triangular Runge-Kutta matrix from its rows
    below the first; its last row holds the propagating weights."""
    a = np.zeros((len(rows) + 1, len(rows) + 1))
    for i, row in enumerate(rows, start=1):
        a[i, :i] = row
    return a


# classical RK4, and Dormand-Prince 4(5) with its 5th- minus 4th-order weights
RK4_A_SLOW = tableau_slow([[1 / 2], [0, 1 / 2], [0, 0, 1], [1 / 6, 1 / 3, 1 / 3, 1 / 6]])
DP_A_SLOW = tableau_slow(
    [
        [1 / 5],
        [3 / 40, 9 / 40],
        [44 / 45, -56 / 15, 32 / 9],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
        [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
    ]
)
DP_E_SLOW = DP_A_SLOW[6] - np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def rk_stages_slow(f, y, h, a, k, arg):
    """Fill k[1:] for one step of size h from y, given k[0] = f(y); return the new state."""
    last = a.shape[0] - 1
    for i in range(1, last + 1):
        y_i = arg if i < last else np.empty_like(y)
        np.dot(a[i, :i], k[:i], out=y_i)
        y_i *= h
        y_i += y
        k[i] = f(y_i)
    return y_i


def rk4_path_slow(f, y0, cfg):
    """Fixed-step classical RK4: recorded times, states and the run's RunStats."""
    dt = float(cfg.dt)
    t_end = cfg.t_end
    n_steps, last = dyn._rk4_steps(t_end, dt)
    times, states = [0.0], [y0]
    y = y0
    k = np.empty((RK4_A_SLOW.shape[0], y.size))
    arg = np.empty(y.size)
    k[0] = f(y)
    for i in range(1, n_steps + 1):
        y = rk_stages_slow(f, y, dt if i < n_steps else last, RK4_A_SLOW, k, arg)
        k[0] = k[-1]
        _check_finite_slow(y, f"after step {i}")
        if i == n_steps or i % cfg.record_every == 0:
            times.append(t_end if i == n_steps else i * dt)
            states.append(y)
    if times[-1] < t_end:
        times.append(t_end)
        states.append(y)
    sizes = [dt] * (n_steps > 1) + [last] * (n_steps > 0)
    h_min, h_max = min(sizes, default=None), max(sizes, default=None)
    return times, states, RunStats(n_steps, 0, 1 + 4 * n_steps, h_min, h_max)


def rk45_path_slow(f, y0, cfg, t_eval):
    """Adaptive Dormand-Prince 4(5): recorded times, states and the run's RunStats."""
    t_goal = cfg.t_end if t_eval is None else float(t_eval[-1])
    times, states = [0.0], [y0]
    y = y0
    abs_y = np.abs(y)
    t = 0.0
    h = min(t_goal, max(t_goal / 100.0, 1e-6))
    eval_idx = 1
    accepted = 0
    steps = 0
    h_min, h_max = math.inf, 0.0
    k = np.empty((DP_A_SLOW.shape[0], y.size))
    arg, err_vec, scale = np.empty((3, y.size))
    k[0] = f(y)
    while t < t_goal:
        steps += 1
        if steps > dyn.MAX_ADAPTIVE_STEPS:
            raise StepUnderflowError(f"step budget exhausted at t={t}")
        if h < dyn.MIN_ADAPTIVE_STEP:
            raise StepUnderflowError(f"adaptive step fell below {dyn.MIN_ADAPTIVE_STEP} at t={t}")
        boundary = t_eval[eval_idx] if t_eval is not None else t_goal
        clipped = t + h >= boundary
        h_step = boundary - t if clipped else h
        y_new = rk_stages_slow(f, y, h_step, DP_A_SLOW, k, arg)
        abs_new = np.abs(y_new)
        np.maximum(abs_y, abs_new, out=scale)
        scale *= cfg.rel_tol
        scale += cfg.abs_tol
        np.dot(DP_E_SLOW, k, out=err_vec)
        with np.errstate(over="ignore"):
            err_vec /= scale
            err = h_step * math.sqrt(float(err_vec @ err_vec) / y.size)
        if err <= 1.0:
            t = boundary if clipped else t + h_step
            y, abs_y = y_new, abs_new
            k[0] = k[-1]
            _check_finite_slow(y, f"at t={t}")
            accepted += 1
            h_min, h_max = min(h_min, h_step), max(h_max, h_step)
            if t_eval is None:
                keep = accepted % cfg.record_every == 0 or t >= t_goal
            else:
                keep, eval_idx = clipped, eval_idx + clipped
            if keep and t > times[-1]:
                times.append(float(t))
                states.append(y)
        factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        h = h_step * factor if (not clipped or err > 1.0) else h * factor
        h = min(h, t_goal)
    h_range = (float(h_min), float(h_max)) if accepted else (None, None)
    return times, states, RunStats(accepted, steps - accepted, 1 + 6 * steps, *h_range)


def integrate_slow(f, init, cfg, t_eval=None) -> Trajectory:
    """A whole run through the slow paths, with the run's stats attached."""
    y0 = np.asarray(init, dtype=float).copy()
    _check_finite_slow(y0, "in initial condition")
    if cfg.method == "rk4":
        times, states, stats = rk4_path_slow(f, y0, cfg)
    else:
        te = None if t_eval is None else np.asarray(t_eval, dtype=float)
        times, states, stats = rk45_path_slow(f, y0, cfg, te)
    return Trajectory(np.array(times), np.array(states), stats=stats)
