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

One solve serves every bipartition: _solve_rows takes a batch of
bipartitions as int64 indicator rows with their neighbour counts and
decides emptiness, r and each block's gain point in int64
cross-multiplication alone.  _solution turns a solved row into the one
result record, a BipartitionClassification whose certificate leaves s1
and s2 empty, and _classified fills in the vertex sets.
classify_bipartition feeds the solve one row of graph_core's count table
and passes the result through both.  The search feeds it batches of
SEARCH_BATCH_ROWS masks with counts from one product X @ A, faster than
arc sums for 1024 rows of at most 63 vertices, and keeps the masks with a
nonempty solution set and their solved rows; every other mask is
Infeasible.  SearchReport._distinct runs _solution once per distinct
solved row, and the counts, the rendered text and SearchReport.rows all
read that list.  Masks are int64, so the search stops at n = 63.
"""

from __future__ import annotations

import enum
import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

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
)

# the integrator is imported by the two functions that run the dynamics,
# so a search never loads it
if TYPE_CHECKING:
    from .dynamics import LinearTrajectory

__all__ = list(_EXPORTS["bipartition_analysis"])

RationalLike = Fraction | int | str

# masks per batch of the bipartition search; fixed, so batch memory is bounded
SEARCH_BATCH_ROWS = 1024
# largest n the search runs without force: 2**21 rows
SEARCH_MAX_N = 22


class Classification(str, enum.Enum):
    EQUITABLE = "Equitable"
    CONDITION2_UNIQUE = "Condition2Unique"
    CONDITION2_FAMILY = "Condition2Family"
    BOUNDARY = "Boundary"
    INFEASIBLE = "Infeasible"


@dataclass(frozen=True)
class SolutionSet:
    """Affine solution set in (mu1, mu2, r) space, exact rationals."""

    kind: str  # "empty" | "point" | "line"
    basepoint: tuple[Fraction, Fraction, Fraction] | None
    directions: tuple[tuple[Fraction, Fraction, Fraction], ...]

    @property
    def dim(self) -> int:
        # -1 marks the empty set so point/line map to 0/1
        return -1 if self.kind == "empty" else len(self.directions)


_EMPTY = SolutionSet("empty", None, ())


def _solve_rows(x: np.ndarray, to_s2: np.ndarray, degree: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve mu_b * d_cross - r = d_in for every row of a batch, in int64.

    x is the (rows, n) indicator of the second block, to_s2 every vertex's
    neighbour count into that block and degree the vertex degrees.  Each
    block's count points (d_cross, d_in) must lie on the line through its
    points A and B of smallest and largest d_cross or, when all share one
    d_cross, coincide.  A block with two distinct d_cross values pins
    r = (d_B c_A - d_A c_B) / (c_B - c_A); when both blocks pin r the two
    values must agree.  Returns whether each row's solution set is nonempty
    and one int64 row per mask,

        (line, r_num, r_den, c1, d1, c2, d2),

    meaningful where it is nonempty: line marks one point per block (r is
    free; r_num / r_den = 0 / 1 gives the line's base), r_num / r_den comes
    from the first block that pins it, and (c_b, d_b) is block b's point B,
    so mu_b = (d_b r_den + r_num) / (c_b r_den).  Connectivity makes c_b > 0.
    Every product is bounded by Delta**3 for the maximum degree Delta, so
    the solve is exact while Delta < 2**21.
    """
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


@dataclass(frozen=True)
class AlphaResult:
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


@dataclass(frozen=True)
class Condition2Certificate:
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


@dataclass(frozen=True)
class FamilySegment:
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


@dataclass(frozen=True)
class BipartitionClassification:
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

    The bipartition becomes a one-row batch: its second block's indicator
    and every vertex's neighbour count into that block, read with the
    degrees off graph_core's count table, so no n x n matrix is built.
    The batch goes through _solve_rows, _solution and _classified, the
    same solve and tail the exhaustive search uses.  One count point per
    block is the equitable case: the solution set is a line, reported as
    `Equitable` with its quotient and family segment.  Otherwise the set
    is one point or empty: a strictly feasible point certifies the
    bipartition, equality cases are boundary hits, and everything else is
    infeasible.
    `Condition2Family` is never returned, because a connected graph never
    gives a non-equitable line.  The int64 solve is exact while the
    maximum degree is below 2**21; larger degrees raise TooLargeError.
    """
    if bip.k != 2:
        raise NotBipartitionError(f"need exactly 2 blocks, got {bip.k}")
    # block positions are 0 / 1, so the index is the second block's indicator
    counts, index = _block_counts(g, bip)
    to_s1, to_s2 = counts.T
    # two columns add far faster than counts.sum(axis=1) reduces short rows
    degree = to_s1 + to_s2
    if degree.max() >= 1 << 21:
        raise TooLargeError(f"maximum degree {degree.max()} reaches 2**21, past exact int64 products")
    nonempty, solved = _solve_rows(index.astype(np.int64)[None], to_s2[None], degree)
    # tolist hands _solution Python ints, never numpy scalars
    return _classified(_solution(*solved[0].tolist()) if nonempty[0] else _NO_SOLUTION, *bip.blocks)


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
    cert = Condition2Certificate(**{**vars(cert), "s1": s1, "s2": s2})
    return BipartitionClassification(solution.classification, solution.solution_set, cert)


def certificate_to_solution(cert: Condition2Certificate, c: float = 0.0) -> LinearTrajectory:
    """Closed-form motion the certificate promises: phase c + r sin(alpha) t on
    s1 and the same plus the cross-block offset on s2.  The start vector is c
    everywhere with the offset added on s2; s1 and s2 must split 1..n."""
    from .dynamics import LinearTrajectory

    n = max(cert.s1 + cert.s2)
    _block_index(VertexPartition((cert.s1, cert.s2)), n)
    start = np.full(n, float(c))
    start[np.array(cert.s2) - 1] += cert.offset
    rate = float(cert.r) * math.sin(cert.alpha)
    return LinearTrajectory(start, rate)


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
    from .dynamics import ModelParams, residual_max

    if bip.blocks != (cert.s1, cert.s2):
        raise PartitionMismatchError("certificate was issued for a different bipartition")
    ts = np.linspace(0.0, 10.0, 101) if grid is None else np.asarray(grid, dtype=float)
    traj = certificate_to_solution(cert, c).sample(ts)
    params = ModelParams(alpha=cert.alpha)
    return residual_max(g, traj, params)


@dataclass(frozen=True)
class SearchRow:
    mask: int
    s2: tuple[int, ...]
    classification: Classification
    certificate: Condition2Certificate | None
    family: FamilySegment | None


def _mask_bits(masks: np.ndarray, n: int) -> np.ndarray:
    """(rows, n) int64 indicator of each mask's second block; bit v stands
    for vertex v + 2, and vertex 1 always sits in the first block."""
    x = np.zeros((masks.size, n), dtype=np.int64)
    x[:, 1:] = masks[:, None] >> np.arange(n - 1) & 1
    return x


def _labels(member: np.ndarray, names: Sequence) -> tuple[list, Iterator[tuple[int, int]]]:
    """The names of a boolean batch's set entries, row after row, and each
    row's (begin, end) span in that flat list."""
    flat = [names[i] for i in np.nonzero(member)[1].tolist()]
    ends = np.cumsum(member.sum(axis=1)).tolist()
    return flat, zip([0, *ends], ends)


def _batches(lo: int, hi: int) -> Iterator[np.ndarray]:
    """Masks lo..hi-1 as int64 arrays of at most SEARCH_BATCH_ROWS each."""
    for start in range(lo, hi, SEARCH_BATCH_ROWS):
        yield np.arange(start, min(start + SEARCH_BATCH_ROWS, hi), dtype=np.int64)


@dataclass(eq=False)
class SearchReport:
    """Every bipartition of an n-vertex graph, kept as array data.

    masks holds, in ascending order, the masks whose solution set is
    nonempty, and solved their rows of _solve_rows: (line, r_num, r_den,
    c1, d1, c2, d2), the arguments of _solution.  Every other mask in
    1 .. total is Infeasible with an empty set, so it is never stored.
    rows builds the SearchRow tuples on first use; counts and
    format_search_report never do.
    """

    n: int
    masks: np.ndarray
    solved: np.ndarray

    @property
    def total(self) -> int:
        """Number of bipartitions, the largest mask."""
        return (1 << (self.n - 1)) - 1

    @functools.cached_property
    def _distinct(self) -> tuple[list[BipartitionClassification], np.ndarray]:
        """The _solution of each distinct solved row, and each stored row's
        index into that list; the only place a search calls _solution."""
        # one 56-byte key per row: far faster than np.unique(axis=0)
        keys = np.ascontiguousarray(self.solved).view(np.dtype((np.void, 8 * 7))).ravel()
        rows, inverse = np.unique(keys, return_inverse=True)
        return [_solution(*row) for row in rows.view(np.int64).reshape(-1, 7).tolist()], inverse.reshape(-1)

    def _which(self, batch: np.ndarray) -> np.ndarray:
        """Each mask of a contiguous batch's index into _distinct's
        solutions, or their count for an Infeasible mask never stored."""
        solutions, inverse = self._distinct
        lo, hi = np.searchsorted(self.masks, [batch[0], batch[-1] + 1])
        which = np.full(batch.size, len(solutions))
        which[self.masks[lo:hi] - batch[0]] = inverse[lo:hi]
        return which

    @functools.cached_property
    def rows(self) -> tuple[SearchRow, ...]:
        """One SearchRow per mask, through _classified, the tail that
        classify_bipartition uses."""
        solutions = [*self._distinct[0], _NO_SOLUTION]
        names = range(1, self.n + 1)
        out: list[SearchRow] = []
        for masks in _batches(1, self.total + 1):
            x = _mask_bits(masks, self.n)
            (s1s, spans1), (s2s, spans2) = _labels(x == 0, names), _labels(x == 1, names)
            for mask, i, (a, b), (c, d) in zip(masks.tolist(), self._which(masks).tolist(), spans1, spans2):
                s2 = tuple(s2s[c:d])
                res = _classified(solutions[i], tuple(s1s[a:b]), s2)
                out.append(SearchRow(mask, s2, res.classification, res.certificate, res.family))
        return tuple(out)

    @property
    def counts(self) -> dict[str, int]:
        out = {c.value: 0 for c in Classification}
        out[Classification.INFEASIBLE.value] = self.total - self.masks.size
        solutions, inverse = self._distinct
        for solution, count in zip(solutions, np.bincount(inverse, minlength=len(solutions)).tolist()):
            out[solution.classification.value] += count
        return out


def _solve_chunk(args: tuple[Graph, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Solve masks lo..hi-1 (lo < hi), SEARCH_BATCH_ROWS at a time; returns
    the nonempty masks and their solved rows, as SearchReport stores them."""
    g, lo, hi = args
    adj = g.adjacency_matrix().astype(np.int64)
    degree = adj.sum(axis=1)
    masks_out, solved_out = [], []
    for masks in _batches(lo, hi):
        x = _mask_bits(masks, g.n)
        nonempty, solved = _solve_rows(x, x @ adj, degree)
        masks_out.append(masks[nonempty])
        solved_out.append(solved[nonempty])
    return np.concatenate(masks_out), np.concatenate(solved_out)


def _check_search_size(n: int, force: bool) -> None:
    """Raise TooLargeError unless a search over n vertices may run: n >= 64
    never fits the int64 masks, and n > SEARCH_MAX_N needs force."""
    if n >= 64:
        raise TooLargeError(f"n={n} exceeds 63, the most that int64 search masks hold")
    if n > SEARCH_MAX_N and not force:
        raise TooLargeError(f"n={n} exceeds cap {SEARCH_MAX_N}; pass force to override")


def search_all_bipartitions(g: Graph, force: bool = False, jobs: int = 1) -> SearchReport:
    """Classify every bipartition of g, in ascending mask order.

    The 2**(n-1) - 1 subsets are enumerated by the bitmask of which of
    vertices 2..n sit opposite vertex 1, SEARCH_BATCH_ROWS masks at a time.
    Each batch decodes to an int64 indicator matrix X, every neighbour
    count comes from one product X @ A, and _solve_rows solves every row
    in int64: emptiness, r and the gains.  The report keeps only the
    nonempty masks and their solved rows as int64 arrays; no per-row
    object is built here.  Its rows, built on first use, pass each
    distinct solved row's solution through _classified, the tail
    classify_bipartition also uses.
    n > SEARCH_MAX_N raises TooLargeError unless force is set; masks are
    int64, so n >= 64 raises it even with force.  With jobs > 1 the mask
    range is split into contiguous chunks handled by at most
    os.cpu_count() worker processes, which return their arrays, and the
    arrays are joined in range order, so the report is identical for any
    job count.
    """
    _check_search_size(g.n, force)
    if jobs < 1:
        raise BadParameterError(f"jobs must be >= 1, got {jobs}")
    total = (1 << (g.n - 1)) - 1
    if total < 1:
        raise BadParameterError("bipartitions need n >= 2")
    workers = min(jobs, os.cpu_count() or 1)
    if workers == 1 or total < 4 * workers:
        masks, solved = _solve_chunk((g, 1, total + 1))
    else:
        bounds = np.linspace(1, total + 1, workers + 1).astype(int)
        chunks = [(g, int(bounds[i]), int(bounds[i + 1])) for i in range(workers)]
        # imported here, so runs without a pool never load it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_solve_chunk, chunks))
        masks = np.concatenate([m for m, _ in parts])
        solved = np.concatenate([r for _, r in parts])
    return SearchReport(g.n, masks, solved)


def classification_report(
    bip: VertexPartition,
    result: BipartitionClassification,
    residual: float | None = None,
) -> dict:
    """JSON-ready view of one classification; exact gains stay as strings."""
    cert = result.certificate
    family = vars(result.family) if result.family else None
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
    tails = set(map(_tail_text, report._distinct[0]))
    if report.masks.size < report.total:
        tails.add(_tail_text(_NO_SOLUTION))
    return len(tails)


def format_search_report(report: SearchReport) -> str:
    """Stable text rendering: one line per bipartition plus a summary.

    Each line is the zero-padded mask, the s2 field and a tail.  The tail
    is rendered once per distinct solution, and every mask with an empty
    solution set shares the tail "Infeasible".  Lines are built batch by
    batch straight from the report's arrays, with each batch of masks
    decoded into s2 labels at once; no SearchRow is built.
    """
    total = report.total
    line = f"{{:0{len(str(total))}d}} s2={{}} {{}}\n".format
    # _which gives the masks never stored the index past the solutions
    tails = np.array([_tail_text(s) for s in [*report._distinct[0], _NO_SOLUTION]], dtype=object)
    names = [str(v) for v in range(1, report.n + 1)]
    chunks = []
    for masks in _batches(1, total + 1):
        flat, spans = _labels(_mask_bits(masks, report.n) == 1, names)
        s2 = [",".join(flat[a:b]) for a, b in spans]
        # freed before the join: a live label list between two chunk strings
        # fragments the heap, about 3 MB more peak RSS on linear:10
        del flat
        chunks.append("".join(map(line, masks.tolist(), s2, tails[report._which(masks)].tolist())))
    summary = " ".join(f"{k}={v}" for k, v in report.counts.items())
    chunks.append(f"# total={total} {summary}\n")
    return "".join(chunks)
