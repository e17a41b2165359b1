"""Graphs, vertex partitions, and equitability machinery.

Vertices are labelled 1..n everywhere a caller can see them.  Graphs are
simple, undirected, and connected; connectivity is enforced at construction
so downstream dynamics never has to special-case isolated components.

Graphs, partitions and neighbour counts are Python ints and tuples.  The
one count table, each vertex's neighbours per block, is taken by one pass
over the adjacency, and no array is built here: the arc arrays the
right-hand sides need are built in dynamics.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, NamedTuple

from . import _EXPORTS
from .errors import (
    BadParameterError,
    DisconnectedError,
    EmptyGraphError,
    FormatError,
    PartitionMismatchError,
    SelfLoopError,
    VertexOutOfRangeError,
)

__all__ = list(_EXPORTS["graph_core"])


class Graph:
    """Simple undirected connected graph on vertices 1..n; read-only, equal by n and edges."""

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...]) -> None:
        _check_count("n", n)
        if n < 1:
            raise EmptyGraphError(f"graph needs at least one vertex, got n={n}")
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise SelfLoopError(f"self loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise VertexOutOfRangeError(f"edge ({u}, {v}) outside 1..{n}")
            seen.add((min(u, v), max(u, v)))
        # a connected graph has at least n - 1 edges: a count that cannot
        # connect is rejected before anything is allocated per vertex
        if len(seen) < n - 1:
            raise DisconnectedError(f"{len(seen)} distinct edges cannot connect {n} vertices")
        canonical = tuple(sorted(seen))
        nbrs: list[list[int]] = [[] for _ in range(n + 1)]
        for u, v in canonical:
            nbrs[u].append(v)
            nbrs[v].append(u)
        reached, frontier = {1}, [1]
        while frontier:
            for w in nbrs[frontier.pop()]:
                if w not in reached:
                    reached.add(w)
                    frontier.append(w)
        if len(reached) != n:
            missing = [v for v in range(1, n + 1) if v not in reached]
            raise DisconnectedError(f"{len(missing)} vertices unreachable from vertex 1: {_few(missing)}")
        # past __setattr__, which refuses every assignment
        # each list is ascending, walked from the sorted edges: (w, v), then (v, w)
        vars(self).update(n=n, edges=canonical, adjacency=tuple(map(tuple, nbrs)))

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot set or delete {name!r}: a Graph is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return (self.n, self.edges) == (other.n, other.edges) if same else NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(n={self.n!r}, edges={self.edges!r})"

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 1 <= v <= self.n:
            raise VertexOutOfRangeError(f"vertex {v} outside 1..{self.n}")
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))


def from_edge_list(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from unordered vertex pairs; duplicates collapse."""
    return Graph(n, tuple(pairs))


class _Blocks(NamedTuple):
    blocks: tuple[tuple[int, ...], ...]


class VertexPartition(_Blocks):
    """Ordered partition of 1..n; blocks sorted by their smallest vertex."""

    __slots__ = ()
    # namedtuple's _make, which _replace calls, would skip the checks of __new__
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, blocks: tuple[tuple[int, ...], ...]) -> VertexPartition:
        if not blocks:
            raise PartitionMismatchError("partition has no blocks")
        seen: set[int] = set()
        for b in blocks:
            if not b:
                raise PartitionMismatchError("empty block")
            for v in b:
                if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                    raise PartitionMismatchError(f"bad vertex label {v!r}")
                if v in seen:
                    raise PartitionMismatchError(f"vertex {v} appears in two blocks")
                seen.add(v)
        return super().__new__(cls, tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0])))

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "VertexPartition":
        return cls(tuple(tuple(b) for b in blocks))

    @property
    def k(self) -> int:
        return len(self.blocks)

    def vertices(self) -> frozenset[int]:
        return frozenset(v for b in self.blocks for v in b)

    def index_map(self) -> dict[int, int]:
        """Vertex -> block position."""
        return {v: i for i, b in enumerate(self.blocks) for v in b}


def _check_count(name: str, count: object) -> None:
    """Graph's and the named constructors' one check of a count's type."""
    if isinstance(count, bool) or not isinstance(count, int):
        raise BadParameterError(f"{name} must be an int, got {count!r}")


def _few(labels: list[int], shown: int = 10) -> str:
    """At most `shown` labels, then how many more, so messages stay short."""
    more = f" and {len(labels) - shown} more" if len(labels) > shown else ""
    return ", ".join(map(str, labels[:shown])) + more


def _block_index(p: VertexPartition, n: int) -> list[int]:
    """Block position of each vertex, indexed by v - 1, after checking that
    p partitions exactly 1..n.

    Labels are distinct positive ints, so they are exactly 1..n when there
    are n of them and the largest is n; nothing of size n is built before
    that holds.
    """
    count = sum(map(len, p.blocks))
    top = max(b[-1] for b in p.blocks)
    if count != n or top != n:
        raise PartitionMismatchError(f"partition has {count} vertices up to {top}, graph has 1..{n}")
    index = [0] * n
    for i, b in enumerate(p.blocks):
        for v in b:
            index[v - 1] = i
    return index


class DegreeProfile(NamedTuple):
    """Per-vertex neighbour counts into each block of a partition.

    Row v-1 holds, for vertex v, the number of its neighbours inside each
    block, in block order.  Row sums equal vertex degrees.
    """

    delta: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.delta[0]) if self.delta else 0

    def row(self, v: int) -> tuple[int, ...]:
        return self.delta[v - 1]


class QuotientMatrix(NamedTuple):
    """Block-to-block neighbour counts of an equitable partition."""

    gamma: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.gamma)


def _block_counts(g: Graph, p: VertexPartition) -> tuple[list[list[int]], list[int]]:
    """The count table: row v - 1 counts vertex v's neighbours in each block
    of p, taken by one pass over the adjacency; and _block_index(p, g.n)."""
    index = _block_index(p, g.n)
    rows = []
    for nbrs in g.adjacency[1:]:
        row = [0] * p.k
        for w in nbrs:
            row[index[w - 1]] += 1
        rows.append(row)
    return rows, index


def degree_profile(g: Graph, p: VertexPartition) -> DegreeProfile:
    """Count each vertex's neighbours per block of p."""
    return DegreeProfile(tuple(map(tuple, _block_counts(g, p)[0])))


def is_equitable(g: Graph, p: VertexPartition) -> QuotientMatrix | None:
    """Return the quotient matrix when every block sees constant counts, else
    None: each vertex's counts must equal its block's first vertex's."""
    rows, index = _block_counts(g, p)
    gamma = [rows[b[0] - 1] for b in p.blocks]
    if any(row != gamma[i] for row, i in zip(rows, index)):
        return None
    return QuotientMatrix(tuple(map(tuple, gamma)))


def coarsest_equitable_refinement(g: Graph, seed: VertexPartition) -> VertexPartition:
    """Colour refinement: split blocks of seed by neighbour-block multisets
    until stable.

    Each pass keys every vertex by its own block and the sorted tuple of its
    neighbours' blocks, the same test as equal per-block neighbour counts,
    and numbers the keys in order of first appearance over 1..n.  Splitting
    is forced: two vertices can stay together only while their keys agree,
    so the fixpoint is refined by every equitable partition that refines
    the seed.  Numbering by first appearance keeps the blocks in canonical
    order (ascending smallest vertex), so the result is deterministic.  One
    pass costs O(|E| log Delta); refinement stops at the first pass that
    splits no block.
    """
    label = _block_index(seed, g.n)
    k = seed.k
    while True:
        keys: dict[tuple[int, tuple[int, ...]], int] = {}
        label = [
            keys.setdefault((own, tuple(sorted([label[w - 1] for w in nbrs]))), len(keys))
            for own, nbrs in zip(label, g.adjacency[1:])
        ]
        if len(keys) == k:
            break
        k = len(keys)
    blocks: list[list[int]] = [[] for _ in range(k)]
    for v, b in enumerate(label, start=1):
        blocks[b].append(v)
    return VertexPartition.from_blocks(blocks)


# Named graph constructions.

def linear_family_graph(p: int) -> tuple[Graph, VertexPartition]:
    """Hub-and-matching construction on 2p+1 vertices, p even and >= 4.

    Vertex 1 joins 2..p+1; a perfect matching pairs i with i+p for
    i in 2..p+1; p/2 independent edges pair p+2..2p+1 consecutively.
    Returned with the hub-versus-rest bipartition, which is not equitable
    but admits a unique exact parameter triple.
    """
    _check_count("p", p)
    if p < 4 or p % 2 != 0:
        raise BadParameterError(f"p must be even and >= 4, got {p}")
    edges = []
    for i in range(2, p + 2):
        edges.append((1, i))
        edges.append((i, i + p))
    for a in range(p + 2, 2 * p + 2, 2):
        edges.append((a, a + 1))
    g = from_edge_list(2 * p + 1, edges)
    part = VertexPartition.from_blocks([[1], list(range(2, 2 * p + 2))])
    return g, part


def latoro_profile_graph() -> tuple[Graph, VertexPartition]:
    """Seven-vertex graph whose hub bipartition has counts (0,4) at the hub,
    (1,1) at four vertices, and (0,2) at two."""
    edges = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 6), (3, 7), (4, 5), (6, 7)]
    g = from_edge_list(7, edges)
    part = VertexPartition.from_blocks([[1], [2, 3, 4, 5, 6, 7]])
    return g, part


def right_angle_profile_graph() -> tuple[Graph, VertexPartition]:
    """Ten-vertex graph whose 5+5 bipartition solves to equal block gains.

    Counts satisfy d_in = d_cross / 2 on both sides, forcing the unique
    parameter triple (1/2, 1/2, 0): a right-angle boundary case with a
    constant closed-form solution at cross-block offset 2*pi/3.
    """
    edges = [
        (1, 5), (2, 5), (3, 4),
        (6, 10), (7, 10), (8, 9),
        (5, 6), (5, 7), (5, 8), (5, 9),
        (1, 10), (2, 10), (3, 10), (4, 10),
        (1, 6), (2, 7), (3, 8), (4, 9),
    ]
    g = from_edge_list(10, edges)
    part = VertexPartition.from_blocks([[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]])
    return g, part


def star_graph(leaves: int) -> tuple[Graph, VertexPartition]:
    """Centre vertex 1 joined to leaves 2..leaves+1."""
    _check_count("leaves", leaves)
    if leaves < 1:
        raise BadParameterError(f"star needs >= 1 leaf, got {leaves}")
    g = from_edge_list(leaves + 1, [(1, i) for i in range(2, leaves + 2)])
    part = VertexPartition.from_blocks([[1], list(range(2, leaves + 2))])
    return g, part


def cycle_graph(n: int) -> Graph:
    _check_count("n", n)
    if n < 3:
        raise BadParameterError(f"cycle needs n >= 3, got {n}")
    return from_edge_list(n, [(i, i % n + 1) for i in range(1, n + 1)])


def complete_graph(n: int) -> Graph:
    _check_count("n", n)
    if n < 2:
        raise BadParameterError(f"complete graph needs n >= 2, got {n}")
    return from_edge_list(n, list(itertools.combinations(range(1, n + 1), 2)))


def path_graph(n: int) -> Graph:
    _check_count("n", n)
    if n < 2:
        raise BadParameterError(f"path needs n >= 2, got {n}")
    return from_edge_list(n, [(i, i + 1) for i in range(1, n)])


def petersen_graph() -> Graph:
    outer = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(6, 8), (8, 10), (10, 7), (7, 9), (9, 6)]
    return from_edge_list(10, outer + spokes + inner)


# Plain-text and JSON formats.

def read_edge_list(text: str, check_n: Callable[[int], None] | None = None) -> Graph:
    """Parse 'u v' lines; '#' starts a comment; optional 'n <count>' header.

    check_n, when given, sees the vertex count, the header or else the
    largest label, before the graph is built, and may raise to refuse it.
    """
    n: int | None = None
    # flat u1 v1 u2 v2 ...: no tuple per edge while check_n may still refuse
    labels: list[int] = []
    max_label = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if n is not None or len(parts) != 2:
                raise FormatError(f"line {lineno}: bad header {raw!r}")
            try:
                n = int(parts[1])
            except ValueError:
                raise FormatError(f"line {lineno}: bad vertex count {parts[1]!r}") from None
            continue
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer label in {raw!r}") from None
        labels += (u, v)
        max_label = max(max_label, u, v)
    if n is None:
        n = max_label
    if n < 1:
        raise FormatError("no vertices")
    if check_n is not None:
        check_n(n)
    return from_edge_list(n, zip(labels[::2], labels[1::2]))


def partition_from_json(text: str) -> VertexPartition:
    """Parse {"blocks": [[...], ...]} into a partition."""
    import json

    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad JSON: {exc}") from None
    if not isinstance(data, dict) or "blocks" not in data:
        raise FormatError('partition JSON needs a "blocks" key')
    blocks = data["blocks"]
    if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
        raise FormatError('"blocks" must be a list of lists')
    for b in blocks:
        for v in b:
            if isinstance(v, bool) or not isinstance(v, int):
                raise FormatError(f"non-integer vertex {v!r}")
    return VertexPartition.from_blocks(blocks)

