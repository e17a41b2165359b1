"""Exact characterisation of two-block phase-locked structures.

A bipartition (S1, S2) admits a family of rigid solutions, equal phase on
each block with a fixed cross-block offset, exactly when the integer count
table supports a common triple (mu1, mu2, r):

    mu1 * d_cross(i) - r = d_in(i)   for every i in S1
    mu2 * d_cross(j) - r = d_in(j)   for every j in S2

where d_in counts a vertex's neighbours inside its own block and d_cross
those across.  The linear system is solved exactly over the rationals; the
phase lag and the cross-block offset then follow from

    alpha  = atan2(sqrt(4 - (mu1+mu2)^2), mu1 - mu2)
    offset = acos(-(mu1+mu2)/2),   beta = offset - alpha,

defined when |mu1 + mu2| <= 2 and mu1 >= mu2, strict on the interior.
Equality mu1 = mu2 pins alpha to a right angle and |mu1 + mu2| = 2
degenerates the offset; both are reported as boundary flags.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    BadParameterError,
    InfeasibleMuError,
    NotBipartitionError,
    PartitionMismatchError,
    TooLargeError,
)
from .dynamics import LinearTrajectory, ModelParams, residual_max
from .graph_core import Graph, QuotientMatrix, VertexPartition, degree_profile, is_equitable

__all__ = [
    "Classification",
    "Condition2System",
    "SolutionSet",
    "AlphaResult",
    "Condition2Certificate",
    "FamilySegment",
    "BipartitionClassification",
    "SearchRow",
    "SearchReport",
    "build_condition2_system",
    "solve_condition2",
    "alpha_from_mu",
    "beta_from_mu",
    "classify_bipartition",
    "certificate_to_solution",
    "verify_certificate",
    "search_all_bipartitions",
    "classification_report",
    "format_search_report",
]

RationalLike = Fraction | int | str


class Classification(str, enum.Enum):
    EQUITABLE = "Equitable"
    CONDITION2_UNIQUE = "Condition2Unique"
    CONDITION2_FAMILY = "Condition2Family"
    BOUNDARY = "Boundary"
    INFEASIBLE = "Infeasible"


@dataclass(frozen=True)
class Condition2Row:
    """One equation mu1*c1 + mu2*c2 - r = rhs attached to a vertex."""

    vertex: int
    c_mu1: int
    c_mu2: int
    rhs: int


@dataclass(frozen=True)
class Condition2System:
    rows: tuple[Condition2Row, ...]

    @property
    def size(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class SolutionSet:
    """Affine solution set in (mu1, mu2, r) space, exact rationals."""

    kind: str  # "empty" | "point" | "line" | "plane"
    basepoint: tuple[Fraction, Fraction, Fraction] | None
    directions: tuple[tuple[Fraction, Fraction, Fraction], ...]

    @property
    def dim(self) -> int:
        # -1 marks the empty set so point/line/plane map to 0/1/2
        return -1 if self.kind == "empty" else len(self.directions)


def build_condition2_system(g: Graph, bip: VertexPartition) -> Condition2System:
    """Assemble the per-vertex equations for a 2-block partition."""
    if bip.k != 2:
        raise NotBipartitionError(f"need exactly 2 blocks, got {bip.k}")
    prof = degree_profile(g, bip)
    s1, s2 = bip.blocks
    rows = []
    for v in s1:
        d_in, d_cross = prof.row(v)
        rows.append(Condition2Row(v, d_cross, 0, d_in))
    for v in s2:
        d_cross, d_in = prof.row(v)
        rows.append(Condition2Row(v, 0, d_cross, d_in))
    return Condition2System(tuple(rows))


def solve_condition2(system: Condition2System) -> SolutionSet:
    """Exact Gauss-Jordan elimination; unknowns ordered (mu1, mu2, r)."""
    aug = [
        [Fraction(r.c_mu1), Fraction(r.c_mu2), Fraction(-1), Fraction(r.rhs)]
        for r in system.rows
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
    for r in range(row, len(aug)):
        if aug[r][ncols] != 0:
            return SolutionSet("empty", None, ())
    free = [c for c in range(ncols) if c not in pivots]
    base = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        base[col] = aug[i][ncols]
    directions = []
    for fc in free:
        d = [Fraction(0)] * ncols
        d[fc] = Fraction(1)
        for i, col in enumerate(pivots):
            d[col] = -aug[i][fc]
        directions.append(tuple(d))
    kind = {0: "point", 1: "line", 2: "plane"}[len(free)]
    return SolutionSet(kind, tuple(base), tuple(directions))


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


def beta_from_mu(mu1: RationalLike, mu2: RationalLike) -> float:
    """Cross-block offset minus lag: acos(-(mu1+mu2)/2) - alpha, principal branch."""
    m1, m2 = _as_fraction(mu1), _as_fraction(mu2)
    alpha = alpha_from_mu(m1, m2).value
    return math.acos(float(-(m1 + m2) / 2)) - alpha


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

    For a line the parameter runs over an open interval (None marks an
    unbounded end); lag values at the endpoints and an interior sample are
    for orientation only, no single lag is certified.
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


def _alpha_value(m1: Fraction, m2: Fraction) -> float:
    return alpha_from_mu(m1, m2).value


def _make_certificate(
    m1: Fraction, m2: Fraction, r: Fraction, bip: VertexPartition
) -> Condition2Certificate:
    s = m1 + m2
    alpha = _alpha_value(m1, m2)
    offset = math.acos(float(-s / 2))
    return Condition2Certificate(
        mu1=m1,
        mu2=m2,
        r=r,
        alpha=alpha,
        beta=offset - alpha,
        offset=offset,
        mu_equal=m1 == m2,
        offset_at_limit=abs(s) == 2,
        feasible=abs(s) < 2 and m1 > m2,
        s1=bip.blocks[0],
        s2=bip.blocks[1],
    )


def _line_family(sol: SolutionSet) -> FamilySegment:
    # Connectivity gives each block a vertex with a cross edge, so the rows
    # (a, 0, -1) and (0, b, -1) are independent and the set is at most a line.
    (p1, p2, _), ((d1, d2, _),) = sol.basepoint, sol.directions
    # Open constraints A + B*t > 0: gain order, and both offset limits.
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
            bound = -a / b
            lo = bound if lo is None else max(lo, bound)
        else:
            bound = -a / b
            hi = bound if hi is None else min(hi, bound)
    if lo is not None and hi is not None and lo >= hi:
        return FamilySegment(feasible=False, dim=1)

    def mu_at(t: Fraction) -> tuple[Fraction, Fraction]:
        return p1 + t * d1, p2 + t * d2

    if lo is not None and hi is not None:
        t_mid = (lo + hi) / 2
    elif lo is not None:
        t_mid = lo + 1
    elif hi is not None:
        t_mid = hi - 1
    else:
        t_mid = Fraction(0)
    return FamilySegment(
        feasible=True,
        dim=1,
        param_lo=lo,
        param_hi=hi,
        alpha_at_lo=_alpha_value(*mu_at(lo)) if lo is not None else None,
        alpha_at_hi=_alpha_value(*mu_at(hi)) if hi is not None else None,
        alpha_at_interior=_alpha_value(*mu_at(t_mid)),
    )


def classify_bipartition(g: Graph, bip: VertexPartition) -> BipartitionClassification:
    """Decide what kind of rigid two-block structure the bipartition admits.

    Equitable partitions are reported as such and win over any solution-set
    label.  Otherwise a unique strictly feasible triple certifies the
    bipartition, equality cases are boundary hits, positive-dimensional
    sets defer to a family description, and everything else is infeasible.
    """
    if bip.k != 2:
        raise NotBipartitionError(f"need exactly 2 blocks, got {bip.k}")
    gamma = is_equitable(g, bip)
    sol = solve_condition2(build_condition2_system(g, bip))
    if gamma is not None:
        family = _line_family(sol) if sol.kind == "line" else None
        return BipartitionClassification(
            Classification.EQUITABLE, solution_set=sol, quotient=gamma, family=family
        )
    if sol.kind == "empty":
        return BipartitionClassification(Classification.INFEASIBLE, solution_set=sol)
    if sol.kind == "point":
        m1, m2, r = sol.basepoint
        if m1 < m2 or abs(m1 + m2) > 2:
            return BipartitionClassification(Classification.INFEASIBLE, solution_set=sol)
        cert = _make_certificate(m1, m2, r, bip)
        label = Classification.CONDITION2_UNIQUE if cert.feasible else Classification.BOUNDARY
        return BipartitionClassification(label, solution_set=sol, certificate=cert)
    return BipartitionClassification(
        Classification.CONDITION2_FAMILY, solution_set=sol, family=_line_family(sol)
    )


def certificate_to_solution(cert: Condition2Certificate, c: float = 0.0) -> LinearTrajectory:
    """Closed-form motion the certificate promises: phase c + r sin(alpha) t on
    the first block and the same plus the cross-block offset on the second."""
    vertices = sorted(cert.s1 + cert.s2)
    n = vertices[-1]
    if vertices != list(range(1, n + 1)):
        raise PartitionMismatchError("certificate blocks must cover 1..n")
    start = np.full(n, float(c))
    for v in cert.s2:
        start[v - 1] += cert.offset
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


@dataclass
class SearchReport:
    n: int
    rows: tuple[SearchRow, ...]

    @property
    def counts(self) -> dict[str, int]:
        out = {c.value: 0 for c in Classification}
        for row in self.rows:
            out[row.classification.value] += 1
        return out


def _bipartition_from_mask(n: int, mask: int) -> VertexPartition:
    chosen = {v for v in range(2, n + 1) if mask >> (v - 2) & 1}
    s1 = [v for v in range(1, n + 1) if v not in chosen]
    return VertexPartition.from_blocks([s1, sorted(chosen)])


def _row_for_mask(g: Graph, mask: int) -> SearchRow:
    bip = _bipartition_from_mask(g.n, mask)
    result = classify_bipartition(g, bip)
    return SearchRow(
        mask=mask,
        s2=bip.blocks[1],
        classification=result.classification,
        certificate=result.certificate,
        family=result.family,
    )


def _classify_chunk(args: tuple[Graph, int, int]) -> list[SearchRow]:
    g, lo, hi = args
    return [_row_for_mask(g, mask) for mask in range(lo, hi)]


def search_all_bipartitions(
    g: Graph, cap: int = 22, force: bool = False, jobs: int = 1
) -> SearchReport:
    """Classify every bipartition of g, in ascending mask order.

    The 2**(n-1) - 1 subsets are enumerated by the bitmask of which of
    vertices 2..n sit opposite vertex 1.  With jobs > 1 the mask range is
    split into contiguous chunks handled by worker processes and merged
    back in range order, so the report is identical for any job count.
    """
    if g.n > cap and not force:
        raise TooLargeError(f"n={g.n} exceeds cap {cap}; pass force to override")
    if jobs < 1:
        raise BadParameterError(f"jobs must be >= 1, got {jobs}")
    total = (1 << (g.n - 1)) - 1
    if total < 1:
        raise BadParameterError("bipartitions need n >= 2")
    if jobs == 1 or total < 4 * jobs:
        rows = _classify_chunk((g, 1, total + 1))
    else:
        bounds = np.linspace(1, total + 1, jobs + 1).astype(int)
        chunks = [(g, int(bounds[i]), int(bounds[i + 1])) for i in range(jobs)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = [row for chunk in pool.map(_classify_chunk, chunks) for row in chunk]
    return SearchReport(n=g.n, rows=tuple(rows))


def _frac_str(x: Fraction | None) -> str | None:
    return None if x is None else str(x)


def classification_report(
    bip: VertexPartition,
    result: BipartitionClassification,
    residual: float | None = None,
) -> dict:
    """JSON-ready view of one classification; exact gains stay as strings."""
    cert = result.certificate
    report = {
        "bipartition": {"s1": list(bip.blocks[0]), "s2": list(bip.blocks[1]) if bip.k == 2 else None},
        "classification": result.classification.value,
        "solution_kind": result.solution_set.kind,
        "mu1": _frac_str(cert.mu1) if cert else None,
        "mu2": _frac_str(cert.mu2) if cert else None,
        "r": _frac_str(cert.r) if cert else None,
        "alpha": cert.alpha if cert else None,
        "beta": cert.beta if cert else None,
        "offset": cert.offset if cert else None,
        "residual": residual,
        "flags": {
            "mu_equal": cert.mu_equal,
            "offset_at_limit": cert.offset_at_limit,
            "feasible": cert.feasible,
        }
        if cert
        else None,
        "gamma": [list(row) for row in result.quotient.gamma] if result.quotient else None,
        "family": {
            "feasible": result.family.feasible,
            "dim": result.family.dim,
            "param_lo": _frac_str(result.family.param_lo),
            "param_hi": _frac_str(result.family.param_hi),
            "alpha_at_lo": result.family.alpha_at_lo,
            "alpha_at_hi": result.family.alpha_at_hi,
            "alpha_at_interior": result.family.alpha_at_interior,
        }
        if result.family
        else None,
    }
    return report


def format_search_report(report: SearchReport) -> str:
    """Stable text rendering: one line per bipartition plus a summary."""
    width = len(str((1 << (report.n - 1)) - 1))
    lines = []
    for row in report.rows:
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
    summary = " ".join(f"{k}={v}" for k, v in report.counts.items())
    lines.append(f"# total={len(report.rows)} {summary}")
    return "\n".join(lines) + "\n"
