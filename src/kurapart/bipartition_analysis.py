"""Exact characterisation of two-block phase-locked structures.

A bipartition (S1, S2) admits a family of rigid solutions, equal phase on
each block with a fixed cross-block offset, exactly when the integer count
table supports a common triple (mu1, mu2, r):

    mu1 * d_cross(i) - r = d_in(i)   for every i in S1
    mu2 * d_cross(j) - r = d_in(j)   for every j in S2

where d_in counts a vertex's neighbours inside its own block and d_cross
those across.  Each block's vertices give count points (d_cross, d_in) that
must lie on the line d_in = mu * d_cross - r, with r shared by both blocks.
On a connected graph every block has a point with d_cross > 0, so the
solution set is a line exactly when each block has a single distinct point
(the partition is equitable) and otherwise a point or empty.  The phase lag
and the cross-block offset then follow from

    alpha  = atan2(sqrt(4 - (mu1+mu2)^2), mu1 - mu2)
    offset = acos(-(mu1+mu2)/2),   beta = offset - alpha,

defined when |mu1 + mu2| <= 2 and mu1 >= mu2, strict on the interior.
Equality mu1 = mu2 pins alpha to a right angle and |mu1 + mu2| = 2
degenerates the offset; both are reported as boundary flags.

One rule serves every bipartition: _add adds one count point to its
block, in Python ints, and refuses it when no (mu1, mu2, r) fits the
points so far; _row reads the solved row (line, r_num, r_den, c1, d1, c2,
d2) off two blocks that took all their points.  _solution turns a solved
row into the one result record, a BipartitionClassification whose
certificate leaves s1 and s2 empty, and _classified fills in the vertex
sets.  classify_bipartition adds every vertex's point from graph_core's
count table.  The search (_walk) is a depth-first search over the
vertices in BFS order from vertex 1, each placed in the first block, then
the second, as bits of Python-int masks: a vertex's point is fixed once
it and all its neighbours are placed, with neighbour counts from
int.bit_count, and a point _add refuses cuts the node's whole subtree,
every mask of which is Infeasible (pruned backtracking; Knuth, TAOCP 4B,
section 7.2.2).  The report keeps the masks with a nonempty solution set,
sorted, and the index of each into the distinct solved rows, as stdlib
array columns; it counts the nodes entered and the subtrees cut.
SearchReport.solutions runs _solution once per distinct solved row, and
the counts and the rendered text both read that list.
No numpy is imported by a search.  Masks are int64 columns, so the
search stops at n = 63.
"""

from __future__ import annotations

import bisect
import enum
import functools
import math
import os
from array import array
from collections import Counter
from fractions import Fraction
from itertools import chain
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from . import _EXPORTS
from .errors import (
    BadParameterError,
    InfeasibleMuError,
    NotBipartitionError,
    PartitionMismatchError,
    TooLargeError,
)
from .graph_core import (
    Graph,
    QuotientMatrix,
    VertexPartition,
    _block_counts,
    _block_index,
    _check_count,
)

# the integrator is imported by the two functions that run the dynamics,
# so a search never loads it
if TYPE_CHECKING:
    from .dynamics import LinearTrajectory

__all__ = list(_EXPORTS["bipartition_analysis"])

RationalLike = Fraction | int | str

# low mask bits a search report decodes from one label table
LABEL_BITS = 10
# largest n the search runs without force: 2**21 rows
SEARCH_MAX_N = 22


class Classification(str, enum.Enum):
    EQUITABLE = "Equitable"
    CONDITION2_UNIQUE = "Condition2Unique"
    CONDITION2_FAMILY = "Condition2Family"
    BOUNDARY = "Boundary"
    INFEASIBLE = "Infeasible"


class SolutionSet(NamedTuple):
    """Affine solution set in (mu1, mu2, r) space, exact rationals."""

    kind: str  # "empty" | "point" | "line"
    basepoint: tuple[Fraction, Fraction, Fraction] | None
    directions: tuple[tuple[Fraction, Fraction, Fraction], ...]

    @property
    def dim(self) -> int:
        # -1 marks the empty set so point/line map to 0/1
        return -1 if self.kind == "empty" else len(self.directions)


_EMPTY = SolutionSet("empty", None, ())


# A block's count points so far: () before the first, then (cA, dA, cB, dB),
# its points A and B of least and greatest d_cross.  cA == cB means every
# point so far is A.  The points fix r when they span two d_cross values,
# through the line from A to B, or when all sit at d_cross 0, where
# mu * 0 - r = d gives r = -dA; otherwise r is free.
Block = tuple[int, ...]
_NO_POINTS: Block = ()


def _r(block: Block) -> tuple[int, int]:
    """r = r_num / r_den of a block whose points fix it."""
    ca, da, cb, db = block
    return (db * ca - da * cb, cb - ca) if cb > ca else (-da, 1)


def _add(block: Block, other: Block, c: int, d: int) -> Block | None:
    """The block after it gains the count point (c, d), or None when no
    (mu1, mu2, r) fits: the point leaves the line through the block's
    points, or the block's points come to fix an r other than the one
    other's points fix.  The one rule both count sources use:
    classify_bipartition adds every vertex's point, the search adds each
    point once it is fixed.  Points on a line share d where they share c,
    so A and B move only to a point of strictly smaller or larger
    d_cross, and r, once fixed, stays."""
    if not block:
        new = (c, d, c, d)
        if c:
            return new  # one point off d_cross 0 leaves r free
    else:
        ca, da, cb, db = block
        if ca == cb and c == ca:
            return block if d == da else None
        if ca < cb and (d - da) * (cb - ca) != (db - da) * (c - ca):
            return None
        new = (c, d, cb, db) if c < ca else (ca, da, c, d) if c > cb else block
        if ca < cb or ca == 0:
            return new  # r was fixed already, and checked then
    # new fixes r first now: other must leave it free or fix the same
    if other and (other[0] < other[2] or other[2] == 0):
        (num, den), (other_num, other_den) = _r(new), _r(other)
        if num * other_den != other_num * den:
            return None
    return new


def _row(b1: Block, b2: Block) -> tuple[int, ...]:
    """The solved row of two nonempty blocks that passed _add,

        (line, r_num, r_den, c1, d1, c2, d2):

    line marks one point per block (r is free; r_num / r_den = 0 / 1 gives
    the line's base), r_num / r_den comes from the first block whose two
    d_cross values fix it, and (c_b, d_b) is block b's point B, so mu_b =
    (d_b r_den + r_num) / (c_b r_den).  Connectivity makes c_b > 0."""
    (ca1, _, c1, d1), (ca2, _, c2, d2) = b1, b2
    r = _r(b1) if ca1 < c1 else _r(b2) if ca2 < c2 else (0, 1)
    return (int(ca1 == c1 and ca2 == c2), *r, c1, d1, c2, d2)


def _solve(points: Iterable[tuple[bool, int, int]]) -> tuple[int, ...] | None:
    """The solved row of a bipartition's count points (in_s2, d_cross,
    d_in), one per vertex, or None when its solution set is empty."""
    b1 = b2 = _NO_POINTS
    for in_s2, c, d in points:
        if in_s2:
            b2 = _add(b2, b1, c, d)
        else:
            b1 = _add(b1, b2, c, d)
        if b1 is None or b2 is None:
            return None
    return _row(b1, b2)


class AlphaResult(NamedTuple):
    """Phase lag recovered from the gain pair, with boundary flags."""

    value: float
    mu_equal: bool
    sum_at_limit: bool


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise BadParameterError(f"expected an exact rational, got {type(x).__name__}")


def alpha_from_mu(mu1: RationalLike, mu2: RationalLike) -> AlphaResult:
    """Recover the phase lag from the two block gains.

    Requires mu1 >= mu2 and |mu1 + mu2| <= 2; the interior gives a lag in
    (0, pi/2), equality mu1 = mu2 returns exactly pi/2, and |mu1 + mu2| = 2
    collapses the lag to 0 (flagged, outside the open model range).
    """
    m1, m2 = _as_fraction(mu1), _as_fraction(mu2)
    s = m1 + m2
    if m1 < m2:
        raise InfeasibleMuError(f"mu1 < mu2 ({m1} < {m2})")
    if abs(s) > 2:
        raise InfeasibleMuError(f"|mu1 + mu2| = {abs(s)} exceeds 2")
    if m1 == m2:
        # exact right angle even at mu1 = mu2 = +-1, where atan2 degenerates
        value = math.pi / 2
    else:
        value = math.atan2(math.sqrt(float(4 - s * s)), float(m1 - m2))
    return AlphaResult(value=value, mu_equal=m1 == m2, sum_at_limit=abs(s) == 2)


def _offset(m1: Fraction, m2: Fraction) -> float:
    """Cross-block offset acos(-(mu1+mu2)/2) of a gain pair that alpha_from_mu accepts."""
    return math.acos(float(-(m1 + m2) / 2))


def beta_from_mu(mu1: RationalLike, mu2: RationalLike) -> float:
    """Cross-block offset minus lag: acos(-(mu1+mu2)/2) - alpha, principal branch."""
    m1, m2 = _as_fraction(mu1), _as_fraction(mu2)
    alpha = alpha_from_mu(m1, m2).value
    return _offset(m1, m2) - alpha


class Condition2Certificate(NamedTuple):
    """Exact gains plus derived angles witnessing a rigid two-block solution."""

    mu1: Fraction
    mu2: Fraction
    r: Fraction
    alpha: float
    beta: float
    offset: float
    mu_equal: bool
    offset_at_limit: bool
    feasible: bool
    s1: tuple[int, ...]
    s2: tuple[int, ...]


class FamilySegment(NamedTuple):
    """Feasible piece of a positive-dimensional solution set.

    For a line the parameter runs over a bounded open interval; lag values
    at the endpoints and an interior sample are for orientation only, no
    single lag is certified.
    """

    feasible: bool
    dim: int
    param_lo: Fraction | None = None
    param_hi: Fraction | None = None
    alpha_at_lo: float | None = None
    alpha_at_hi: float | None = None
    alpha_at_interior: float | None = None


class BipartitionClassification(NamedTuple):
    """What one bipartition admits: its classification and solution set,
    with a certificate for a point solution and the quotient and family
    segment for the equitable line."""

    classification: Classification
    solution_set: SolutionSet
    certificate: Condition2Certificate | None = None
    quotient: QuotientMatrix | None = None
    family: FamilySegment | None = None


def _equitable_family(c1: int, d1: int, c2: int, d2: int) -> FamilySegment:
    """Feasible segment of the equitable line mu_b(t) = (d_b + t) / c_b.

    With S = 1/c1 + 1/c2 > 0 and p = d1/c1 + d2/c2, |mu1 + mu2| < 2 is the
    interval t in (-(p + 2)/S, (2 - p)/S).  mu1 > mu2 reads gap + slope*t > 0
    for gap = d1/c1 - d2/c2 and slope = 1/c1 - 1/c2, so it moves one end to
    -gap/slope, or keeps all of the interval or none of it when c1 = c2.
    """
    s, p = Fraction(c1 + c2, c1 * c2), Fraction(d1 * c2 + d2 * c1, c1 * c2)
    lo, hi = -(p + 2) / s, (2 - p) / s
    if c1 != c2:
        cut = Fraction(d2 * c1 - d1 * c2, c2 - c1)  # -gap / slope
        lo, hi = (max(lo, cut), hi) if c2 > c1 else (lo, min(hi, cut))
    if lo >= hi or (c1 == c2 and d1 <= d2):
        return FamilySegment(feasible=False, dim=1)

    def alpha_at(t: Fraction) -> float:
        return alpha_from_mu((d1 + t) / c1, (d2 + t) / c2).value

    return FamilySegment(True, 1, lo, hi, alpha_at(lo), alpha_at(hi), alpha_at((lo + hi) / 2))


def classify_bipartition(g: Graph, bip: VertexPartition) -> BipartitionClassification:
    """Decide what kind of rigid two-block structure the bipartition admits.

    Every vertex's count point is read off graph_core's count table, so no
    n x n matrix is built, and goes through _solve, _solution and
    _classified: the rule, solved row and tail the exhaustive search uses.
    One count point per block is the equitable case: the solution set is a
    line, reported as `Equitable` with its quotient and family segment.
    Otherwise the set is one point or empty: a strictly feasible point
    certifies the bipartition, equality cases are boundary hits, and
    everything else is infeasible.
    `Condition2Family` is never returned, because a connected graph never
    gives a non-equitable line.  The rule works in Python ints, so it is
    exact at any degree.
    """
    if bip.k != 2:
        raise NotBipartitionError(f"need exactly 2 blocks, got {bip.k}")
    # block positions are 0 / 1, so the index is the second block's indicator
    rows, index = _block_counts(g, bip)
    # (in_s2, d_cross, d_in): a row is (to_s1, to_s2)
    row = _solve((side, counts[1 - side], counts[side]) for side, counts in zip(index, rows))
    return _classified(_NO_SOLUTION if row is None else _solution(*row), *bip.blocks)


# what an empty solution set fixes
_NO_SOLUTION = BipartitionClassification(Classification.INFEASIBLE, _EMPTY)


def _solution(line: int, r_num: int, r_den: int, c1: int, d1: int, c2: int, d2: int) -> BipartitionClassification:
    """The classification a nonempty solved row fixes apart from its vertex
    sets: a certificate leaves s1 and s2 empty for _classified to fill.
    alpha_from_mu alone judges a point: a pair it refuses is Infeasible, a
    boundary flag makes a Boundary certificate.  Fractions are built only
    for what is printed."""
    if line:
        base = (Fraction(d1, c1), Fraction(d2, c2), Fraction(0))
        sol = SolutionSet("line", base, ((Fraction(1, c1), Fraction(1, c2), Fraction(1)),))
        gamma = QuotientMatrix(((d1, c1), (c2, d2)))
        family = _equitable_family(c1, d1, c2, d2)
        return BipartitionClassification(Classification.EQUITABLE, sol, quotient=gamma, family=family)
    m1 = Fraction(d1 * r_den + r_num, c1 * r_den)
    m2 = Fraction(d2 * r_den + r_num, c2 * r_den)
    r = Fraction(r_num, r_den)
    sol = SolutionSet("point", (m1, m2, r), ())
    try:
        lag = alpha_from_mu(m1, m2)
    except InfeasibleMuError:
        return BipartitionClassification(Classification.INFEASIBLE, sol)
    feasible = not (lag.mu_equal or lag.sum_at_limit)
    label = Classification.CONDITION2_UNIQUE if feasible else Classification.BOUNDARY
    offset = _offset(m1, m2)
    cert = Condition2Certificate(
        mu1=m1, mu2=m2, r=r, alpha=lag.value, beta=offset - lag.value, offset=offset,
        mu_equal=lag.mu_equal, offset_at_limit=lag.sum_at_limit, feasible=feasible, s1=(), s2=(),
    )
    return BipartitionClassification(label, sol, cert)


def _classified(
    solution: BipartitionClassification, s1: tuple[int, ...], s2: tuple[int, ...]
) -> BipartitionClassification:
    """The classification a solution gives the bipartition (s1, s2): its
    certificate, if it has one, gains the vertex sets."""
    cert = solution.certificate
    if cert is None:
        return solution
    return solution._replace(certificate=cert._replace(s1=s1, s2=s2))


def certificate_to_solution(cert: Condition2Certificate, c: float = 0.0) -> LinearTrajectory:
    """Closed-form motion the certificate promises: phase c + r sin(alpha) t on
    s1 and the same plus the cross-block offset on s2.  The start vector lifts
    c and c + offset through the block index of (s1, s2), which must split 1..n."""
    import numpy as np

    from .dynamics import LinearTrajectory

    if not cert.s1 + cert.s2:
        # the certificates of SearchReport.solutions are shared by many masks
        raise PartitionMismatchError("certificate has no vertex sets s1 and s2")
    index = _block_index(VertexPartition((cert.s1, cert.s2)), max(cert.s1 + cert.s2))
    levels = [float(c), float(c) + cert.offset]
    if 1 in cert.s2:  # a partition's first block is the one holding vertex 1
        levels.reverse()
    return LinearTrajectory(np.array(levels)[index], float(cert.r) * math.sin(cert.alpha))


def verify_certificate(
    g: Graph,
    bip: VertexPartition,
    cert: Condition2Certificate,
    c: float = 0.0,
    grid: Sequence[float] | None = None,
) -> float:
    """Residual of the certificate's closed form under the full dynamics.

    Zero (to rounding) exactly when the count equations hold with the
    certified gains, so this is an end-to-end consistency check of the
    gains, the lag, and the offset against the graph itself.
    """
    import numpy as np

    from .dynamics import ModelParams, residual_max

    if bip.blocks != (cert.s1, cert.s2):
        raise PartitionMismatchError("certificate was issued for a different bipartition")
    ts = np.linspace(0.0, 10.0, 101) if grid is None else np.asarray(grid, dtype=float)
    traj = certificate_to_solution(cert, c).sample(ts)
    params = ModelParams(alpha=cert.alpha)
    return residual_max(g, traj, params)


def _labels(mask: int, first: int) -> str:
    """Comma-joined labels first + v of the set bits v of mask."""
    return ",".join([str(first + v) for v in range(mask.bit_length()) if mask >> v & 1])


def bipartition_from_mask(n: int, mask: int) -> VertexPartition:
    """Bipartition of 1..n whose second block holds vertex v + 2 for each set
    bit v of mask, one of 1 .. 2^(n-1) - 1."""
    if not 0 < mask < 1 << (n - 1):
        raise BadParameterError(f"mask {mask} outside 1..{(1 << (n - 1)) - 1} for n={n}")
    s1, s2 = [1], []
    for v in range(2, n + 1):
        (s2 if mask >> (v - 2) & 1 else s1).append(v)
    return VertexPartition.from_blocks([s1, s2])


class SearchReport:
    """Every bipartition of an n-vertex graph, kept as compact columns.

    masks holds, in ascending order, the masks whose solution set is
    nonempty, and which the index of each into solved, the distinct solved
    rows (line, r_num, r_den, c1, d1, c2, d2) in sorted order, the
    arguments of _solution.  Every other mask in 1 .. total is Infeasible
    with an empty set, so it is never stored.  nodes and pruned count the
    search-tree nodes the search entered and the subtrees it cut.
    """

    def __init__(self, n: int, masks: array, which: array, solved: tuple[tuple[int, ...], ...],
                 nodes: int = 0, pruned: int = 0) -> None:
        self.n, self.masks, self.which, self.solved = n, masks, which, solved
        self.nodes, self.pruned = nodes, pruned

    def __repr__(self) -> str:
        columns = f"n={self.n!r}, masks={self.masks!r}, which={self.which!r}, solved={self.solved!r}"
        return f"{type(self).__qualname__}({columns}, nodes={self.nodes!r}, pruned={self.pruned!r})"

    @property
    def total(self) -> int:
        """Number of bipartitions, the largest mask."""
        return (1 << (self.n - 1)) - 1

    @functools.cached_property
    def solutions(self) -> list[BipartitionClassification]:
        """The _solution of each distinct solved row; the only place a
        search calls _solution."""
        return [_solution(*row) for row in self.solved]

    @property
    def counts(self) -> dict[str, int]:
        out = {c.value: 0 for c in Classification}
        out[Classification.INFEASIBLE.value] = self.total - len(self.masks)
        for i, count in Counter(self.which).items():
            out[self.solutions[i].classification.value] += count
        return out


# the search order as vertex bits, and per depth the (bit, neighbour mask,
# degree) of each vertex whose count point that depth fixes
Plan = tuple[list[int], list[list[tuple[int, int, int]]]]


def _plan(g: Graph) -> Plan:
    """The search order and what each depth fixes.  Vertices go in BFS
    order from vertex 1 as bits 1 << (v - 1); fixes[k] lists (bit,
    neighbour mask, degree) for each vertex whose count point is fixed
    once the vertex at depth k is placed: the deepest of it and its
    neighbours.  Connectivity leaves fixes[0] empty."""
    pos = {1: 0}
    order = [1]
    for v in order:
        for w in g.adjacency[v]:
            if w not in pos:
                pos[w] = len(order)
                order.append(w)
    fixes: list[list[tuple[int, int, int]]] = [[] for _ in order]
    for v in order:
        nbrs = g.adjacency[v]
        deepest = max(pos[v], *map(pos.__getitem__, nbrs))
        fixes[deepest].append((1 << (v - 1), sum(1 << (w - 1) for w in nbrs), len(nbrs)))
    return [1 << (v - 1) for v in order], fixes


# a search-tree node: the depth of the next vertex to place, the bits of
# the vertices placed in the second block, and both blocks' states
Node = tuple[int, int, Block, Block]
_ROOT: Node = (1, 0, _NO_POINTS, _NO_POINTS)


class _Walk(NamedTuple):
    """What walking some subtrees found: the nonempty masks in the order
    reached, each one's index into rows (the distinct solved rows in the
    order first reached), the nodes left at the stop depth, and the nodes
    entered and subtrees cut."""

    masks: array
    which: array
    rows: list[tuple[int, ...]]
    frontier: list[Node]
    nodes: int
    pruned: int


def _walk(plan: Plan, root: Node, stop: int) -> _Walk:
    """Depth-first search below root, placing the vertex of each
    depth in the first block, then the second.  A node fixes the count
    points of plan's fixes at its depth and adds each to its block with
    _add; a point that leaves no solution cuts the node's whole subtree,
    whose masks are all Infeasible.  A leaf with a nonempty second block
    records its mask with the _row of its blocks.  Nodes reaching depth
    stop are kept in frontier, not walked."""
    bits, fixes = plan
    n = len(bits)
    masks, which, frontier = array("q"), array("I"), []
    seen: dict[tuple[Block, Block], int] = {}  # block states -> row index
    index: dict[tuple[int, ...], int] = {}  # solved row -> row index
    nodes = pruned = 0

    def visit(k: int, s2: int, b1: Block, b2: Block) -> None:
        nonlocal nodes, pruned
        nodes += 2
        for t2 in (s2, s2 | bits[k]):
            c1, c2 = b1, b2
            for bit, nbrs, degree in fixes[k]:
                # neighbours across, then inside, the vertex's block
                into = (nbrs & t2).bit_count()
                if bit & t2:
                    c2 = _add(c2, c1, degree - into, into)
                    if c2 is None:
                        break
                else:
                    c1 = _add(c1, c2, into, degree - into)
                    if c1 is None:
                        break
            else:
                if k + 1 < n:
                    if k + 1 == stop:
                        frontier.append((k + 1, t2, c1, c2))
                    else:
                        visit(k + 1, t2, c1, c2)
                elif t2:
                    i = seen.get((c1, c2))
                    if i is None:
                        i = seen[c1, c2] = index.setdefault(_row(c1, c2), len(index))
                    masks.append(t2 >> 1)
                    which.append(i)
                continue
            pruned += 1

    visit(*root)
    return _Walk(masks, which, list(index), frontier, nodes, pruned)


def _walk_task(args: tuple[Plan, Node]) -> _Walk:
    """One worker's subtree: everything below a frontier node."""
    return _walk(*args, 0)


def _report(n: int, parts: Sequence[_Walk]) -> SearchReport:
    """The report of walks that together cover the tree: their rows made
    distinct and sorted, and their masks sorted with each one's index into
    those rows.  The order of the parts and of their masks is immaterial,
    so the report is the same however the tree was split."""
    solved = tuple(sorted({row for part in parts for row in part.rows}))
    rank = {row: i for i, row in enumerate(solved)}
    # each mask with its row's rank in the low 32 bits, sorted as one int
    keys: list[int] = []
    for part in parts:
        ranks = [rank[row] for row in part.rows]
        keys += [mask << 32 | ranks[i] for mask, i in zip(part.masks, part.which)]
    keys.sort()
    masks = array("q", [key >> 32 for key in keys])
    which = array("I", [key & 0xFFFFFFFF for key in keys])
    nodes = sum(part.nodes for part in parts)
    pruned = sum(part.pruned for part in parts)
    return SearchReport(n, masks, which, solved, nodes, pruned)


def _check_search_size(n: int, force: bool) -> None:
    """Raise TooLargeError unless a search over n vertices may run: n >= 64
    never fits the int64 masks, and n > SEARCH_MAX_N needs force."""
    if n >= 64:
        raise TooLargeError(f"n={n} exceeds 63, the most that int64 search masks hold")
    if n > SEARCH_MAX_N and not force:
        raise TooLargeError(f"n={n} exceeds cap {SEARCH_MAX_N}; pass force to override")


def search_all_bipartitions(g: Graph, force: bool = False, jobs: int = 1) -> SearchReport:
    """Classify every bipartition of g, in ascending mask order.

    A bipartition is the bitmask of which of vertices 2..n sit opposite
    vertex 1.  A depth-first search places the vertices in BFS order from
    vertex 1 and feeds each count point to _add once the point is fixed,
    so one point off its block's line cuts every mask below it at once
    (see _walk).  The report keeps only the nonempty masks, in ascending
    order, and the index of each into the distinct solved rows, as array
    columns; no per-row object is built here.  On first use,
    SearchReport.solutions runs _solution, which classify_bipartition
    also uses, once per distinct solved row.
    n > SEARCH_MAX_N raises TooLargeError unless force is set; masks are
    int64, so n >= 64 raises it even with force.  With jobs > 1 this
    process walks the top of the tree and at most os.cpu_count() worker
    processes walk the subtrees below it; _report sorts what they found,
    so the report is identical for any job count.
    """
    _check_search_size(g.n, force)
    _check_count("jobs", jobs)
    if jobs < 1:
        raise BadParameterError(f"jobs must be >= 1, got {jobs}")
    total = (1 << (g.n - 1)) - 1
    if total < 1:
        raise BadParameterError("bipartitions need n >= 2")
    plan = _plan(g)
    workers = min(jobs, os.cpu_count() or 1)
    if workers == 1 or total < 4 * workers:
        return _report(g.n, [_walk(plan, _ROOT, 0)])
    # at least 4 subtrees per worker below the stop depth, which is below
    # the root and above the leaves, since total >= 4 * workers
    top = _walk(plan, _ROOT, min(g.n - 1, (4 * workers).bit_length() + 1))
    # imported here, so runs without a pool never load it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(_walk_task, [(plan, node) for node in top.frontier]))
    return _report(g.n, [top, *parts])


def classification_report(
    bip: VertexPartition,
    result: BipartitionClassification,
    residual: float | None = None,
) -> dict:
    """JSON-ready view of one classification; exact gains stay as strings."""
    cert = result.certificate
    family = result.family._asdict() if result.family else None
    report = {
        "bipartition": {"s1": list(bip.blocks[0]), "s2": list(bip.blocks[1]) if bip.k == 2 else None},
        "classification": result.classification.value,
        "solution_kind": result.solution_set.kind,
        **{k: str(getattr(cert, k)) if cert else None for k in ("mu1", "mu2", "r")},
        **{k: getattr(cert, k) if cert else None for k in ("alpha", "beta", "offset")},
        "residual": residual,
        "flags": {k: getattr(cert, k) for k in ("mu_equal", "offset_at_limit", "feasible")} if cert else None,
        "gamma": [list(row) for row in result.quotient.gamma] if result.quotient else None,
        # FamilySegment's own fields, exact Fractions as strings
        "family": {k: str(v) if isinstance(v, Fraction) else v for k, v in family.items()} if family else None,
    }
    return report


def _tail_text(solution: BipartitionClassification) -> str:
    """Report text after the s2 field for a solution."""
    cert, family = solution.certificate, solution.family
    parts = [solution.classification.value]
    if cert is not None:
        parts.append(f"mu1={cert.mu1} mu2={cert.mu2} r={cert.r}")
        parts.append(f"alpha={cert.alpha:.17g} beta={cert.beta:.17g} offset={cert.offset:.17g}")
        if not cert.feasible:
            flags = [name for name in ("mu_equal", "offset_at_limit") if getattr(cert, name)]
            parts.append("flags=" + ",".join(flags))
    if family is not None:
        parts.append(f"dim={family.dim} feasible={'yes' if family.feasible else 'no'}")
    return " ".join(parts)


def _tail_count(report: SearchReport) -> int:
    """How many distinct tail texts the report's lines carry."""
    tails = set(map(_tail_text, report.solutions))
    if len(report.masks) < report.total:
        tails.add(_tail_text(_NO_SOLUTION))
    return len(tails)


def format_search_report(report: SearchReport) -> str:
    """Stable text rendering: one line per bipartition plus a summary.

    Each line is the zero-padded mask, the s2 field and a tail.  The tail
    is rendered once per distinct solution, and every mask with an empty
    solution set shares the tail "Infeasible".  Lines go out in mask order
    in blocks of 2**LABEL_BITS masks that share their high bits: the s2
    field is a label table entry for the low bits, then the high bits'
    labels, decoded once per block, so no row object is built, and each
    block is one `%` of a repeated line template, whose high labels (digits
    and commas) are part of it.
    """
    total, n = report.total, report.n
    width = len(str(total))
    tails = [_tail_text(s) for s in report.solutions]
    infeasible = _tail_text(_NO_SOLUTION)
    low = min(n - 1, LABEL_BITS)
    size = 1 << low
    # the label table: entry m lists the vertices v + 2 of the set bits v of m
    alone = [""]
    for v in range(low):
        label = str(v + 2)
        alone += [s + "," + label if s else label for s in alone]
    # before a nonempty high part, a nonempty low part needs a comma
    joined = [s and s + "," for s in alone]
    masks, which = report.masks, report.which
    chunks = []
    done = 0  # masks of earlier blocks
    for base in range(0, total + 1, size):
        block = [infeasible] * size
        end = bisect.bisect_left(masks, base + size, done)
        for mask, i in zip(masks[done:end], which[done:end]):
            block[mask - base] = tails[i]
        done = end
        first = 1 if base == 0 else 0  # mask 0 is no bipartition
        lows = joined if base else alone
        high = _labels(base >> low, low + 2)
        fields = zip(range(base + first, base + size), lows[first:], block[first:])
        template = f"%0{width}d s2=%s{high} %s\n" * (size - first)
        chunks.append(template % tuple(chain.from_iterable(fields)))
    summary = " ".join(f"{k}={v}" for k, v in report.counts.items())
    chunks.append(f"# total={total} {summary}\n")
    return "".join(chunks)
