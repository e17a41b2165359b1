"""Phase dynamics on graphs: right-hand sides, integration, sync detection.

The model couples each vertex to its neighbours through a sine with a fixed
phase lag, so equal phases are not stationary in general; rigid rotations
are.  Both the full vertex system and the block quotient system share one
right-hand side over a weighted arc list, evaluated through the angle-sum
identity from one complex exponential per vertex, with neighbour sums over
the arcs or, on dense graphs, by one matrix product.  They also share one
checked entry and one step loop, which hands on the last stage, checks,
records and counts the steps of either classical fixed-step RK4 or an
embedded Dormand-Prince 4(5) pair with proportional step control.  Each
integration reports its step and evaluation counts.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, NamedTuple, Protocol, Sequence

import numpy as np

from . import _EXPORTS
from .errors import (
    BadParameterError,
    DimensionMismatchError,
    EmptyTrajectoryError,
    KurapartError,
    NonFiniteStateError,
    StepUnderflowError,
    TooShortError,
)
from .graph_core import Graph, QuotientMatrix, VertexPartition, _block_index, _check_count

__all__ = list(_EXPORTS["dynamics"])

MIN_ADAPTIVE_STEP = 1e-12
MAX_ADAPTIVE_STEPS = 10_000_000
# an rk4 run whose recorded states would take more bytes is refused before
# its right-hand side is built, an rk45 run when its next row would pass it;
# the CSV would be about 2.4 times as large
MAX_RECORD_BYTES = 2**28


class Rhs(Protocol):
    """A right-hand side: y -> dy/dt, written into out when it is given."""

    def __call__(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray: ...


class _Model(NamedTuple):
    alpha: float
    omega: float = 0.0
    coupling: float = 1.0


class ModelParams(_Model):
    """Phase-lag oscillator parameters: lag alpha, drift omega, coupling gain."""

    __slots__ = ()
    # namedtuple's _make, which _replace calls, would skip the checks of __new__
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, *args: float, **kwargs: float) -> ModelParams:
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 < self.alpha <= math.pi / 2:
            raise BadParameterError(f"alpha must lie in (0, pi/2], got {self.alpha}")
        if not 0.0 < self.coupling < math.inf:
            raise BadParameterError(f"coupling must be positive and finite, got {self.coupling}")
        if not math.isfinite(self.omega):
            raise BadParameterError(f"omega must be finite, got {self.omega}")
        _refuse_bools(self)
        return self

    @property
    def at_right_angle(self) -> bool:
        return self.alpha == math.pi / 2


def _refuse_bools(params: tuple) -> None:
    """A bool passes the numeric checks as 0 or 1, but is no parameter value."""
    for name, value in zip(params._fields, params):
        if isinstance(value, bool):
            raise BadParameterError(f"{name} must be a number, got {value!r}")


class _Config(NamedTuple):
    t_end: float
    method: str = "rk45"
    dt: float | None = None
    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    record_every: int = 1


class IntegratorConfig(_Config):
    """How to march in time and what to record.

    method "rk4" takes fixed steps of dt; "rk45" adapts its step so the
    embedded local error estimate stays below abs_tol + rel_tol * |theta|.
    Every record_every-th step is recorded, plus the final time.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, *args: object, **kwargs: object) -> IntegratorConfig:
        self = super().__new__(cls, *args, **kwargs)
        if self.method not in ("rk4", "rk45"):
            raise BadParameterError(f"unknown method {self.method!r}")
        if not (math.isfinite(self.t_end) and self.t_end >= 0.0):
            raise BadParameterError(f"t_end must be finite and >= 0, got {self.t_end}")
        if self.method == "rk4":
            if self.dt is None or not 0.0 < self.dt < math.inf:
                raise BadParameterError(f"rk4 needs a finite dt > 0, got {self.dt}")
            if _rk4_steps(self.t_end, self.dt)[0] > MAX_ADAPTIVE_STEPS:
                raise BadParameterError(f"rk4 takes over {MAX_ADAPTIVE_STEPS} steps of {self.dt}")
        elif self.dt is not None:
            raise BadParameterError("dt applies to rk4 only")
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise BadParameterError(
                f"tolerances must be positive and finite, got {self.rel_tol}, {self.abs_tol}"
            )
        _check_count("record_every", self.record_every)
        if self.record_every < 1:
            raise BadParameterError(f"record_every must be >= 1, got {self.record_every}")
        _refuse_bools(self)
        return self


class RunStats(NamedTuple):
    """What one integration did: accepted and rejected steps, right-hand side
    evaluations, and the smallest and largest accepted step size (None when
    no step was taken)."""

    accepted: int
    rejected: int
    rhs_calls: int
    h_min: float | None
    h_max: float | None


class Trajectory:
    """Recorded phases over time: times (m,), states (m, n).

    Optional derivatives hold closed-form time derivatives at the recorded
    times, supplied by analytic constructions; integrator output leaves them
    unset so residual checks stay independent of the solver.  Integrator
    output carries the run's stats instead, which no file format records.
    """

    def __init__(
        self,
        times: np.ndarray,
        states: np.ndarray,
        derivatives: np.ndarray | None = None,
        stats: RunStats | None = None,
    ) -> None:
        times = _time_grid(times, "recorded times", EmptyTrajectoryError)
        states = np.asarray(states, dtype=float)
        if states.ndim != 2 or states.shape[0] != times.size:
            raise DimensionMismatchError(
                f"states shape {states.shape} does not match {times.size} times"
            )
        if derivatives is not None:
            derivatives = np.asarray(derivatives, dtype=float)
            if derivatives.shape != states.shape:
                raise DimensionMismatchError("derivatives shape must match states")
        self.times = times
        self.states = states
        self.derivatives = derivatives
        self.stats = stats

    @property
    def dimension(self) -> int:
        return self.states.shape[1]

    @property
    def n_recorded(self) -> int:
        return self.times.size

    def initial_state(self) -> np.ndarray:
        return self.states[0].copy()

    def final_state(self) -> np.ndarray:
        return self.states[-1].copy()


class LinearTrajectory:
    """Rigid motion theta(t) = start + rate * t, every phase turning at one
    common rate."""

    def __init__(self, start: Sequence[float], rate: float) -> None:
        if np.ndim(rate):
            raise BadParameterError("rate must be one number, the common rate of every phase")
        self.start = np.asarray(start, dtype=float)
        self.rate = float(rate)

    def sample(self, times: Sequence[float]) -> Trajectory:
        """The motion at each time, its derivative the rate on every row."""
        ts = np.asarray(times, dtype=float)
        states = self.start + np.outer(ts, self.rate)
        return Trajectory(ts, states, derivatives=np.full(states.shape, self.rate))


# Neighbour sums run as one dense product once a graph has more than this
# share of n^2 arcs, and as a gather plus bincount over the arcs below it.
# Measured with one BLAS thread on a 2-vCPU x86 host with 2 MiB of L2 cache
# per core (table in README): an arc costs about 10 ns and a matrix entry
# about 0.3 ns while the n x n float64 matrix fits in 2 MiB, so the kernels
# break even near n^2/25 arcs.  Past DENSE_CACHED_N the matrix no longer
# fits, an entry costs about 1.3 ns, and the break-even share is three
# times as large.
DENSE_ARC_SHARE = 1 / 25
DENSE_CACHED_N = 512


def _dense_sums(n_arcs: int, n: int) -> bool:
    """The kernel rule: True when n vertices with n_arcs arcs sum their
    neighbours by one dense product rather than over the arcs."""
    share = DENSE_ARC_SHARE if n <= DENSE_CACHED_N else 3 * DENSE_ARC_SHARE
    return n_arcs > share * n * n


def _coupling_rhs(
    src: np.ndarray,
    dst: np.ndarray,
    w: np.ndarray | None,
    n: int,
    alpha: float,
    omega: float = 0.0,
    coupling: float = 1.0,
) -> Rhs:
    """y -> omega + coupling * sum over arcs src->dst of w sin(y_src - y_dst - alpha).

    The one place the coupling sum is evaluated, over one arc list: w holds
    one weight per arc, or is None for unit weights.  By the angle-sum
    identity the sum at vertex i is Im(e^{-i alpha} conj(z_i) S_i), where
    z = e^{iy} and S_i sums w z_src over the arcs into i.  A call costs n
    complex exponentials, the neighbour sums S and O(n) more.  _dense_sums
    picks how S is formed, and the kernel's arrays are built here, once per
    right-hand side:

    * dense: one float64 product W @ (re, im) of z, with the n x n weights
      W[dst, src] = w; O(n^2), summed in BLAS order;
    * sparse: one gather of z over the arcs and one bincount of the
      gathered (re, im) parts, both scaled by the arc's weight, into the
      interleaved bins (2 dst, 2 dst + 1); O(arcs), summed in arc order.

    Either order is fixed for a given arc list, so results are
    deterministic.  The lag enters as the constant rotation
    coupling * e^{-i alpha}, never as y + alpha, which would round at
    ulp(|y|).

    The returned f(y, out=None) writes its result into out, or into a fresh
    array when out is None.  Its work arrays, z and, for the dense kernel,
    S, are allocated here once and reused by every call, so one f must not
    run twice at the same time.  Each kernel has its own f, numpy bound once.
    """
    # rot and omega are 0-d arrays, which a ufunc takes without the Python
    # scalar conversion it would pay on every call; the product is the
    # matrix's bound dot, which skips np.dot's __array_function__ dispatch.
    # The values, and so every rounding, are the same
    rot = np.array(complex(coupling * math.cos(alpha), -coupling * math.sin(alpha)))
    omega = np.array(float(omega))
    z = np.empty(n, dtype=complex)
    z_re, z_im = z.real, z.imag
    cos, sin, conjugate, multiply, add = np.cos, np.sin, np.conjugate, np.multiply, np.add
    if _dense_sums(src.size, n):
        matrix = np.zeros((n, n))
        matrix[dst, src] = 1.0 if w is None else w
        z_pairs = z.view(float).reshape(n, 2)
        pull = np.empty(n, dtype=complex)
        pull_pairs = pull.view(float).reshape(n, 2)
        pull_in = matrix.dot

        def f_dense(y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            cos(y, z_re)
            sin(y, z_im)
            pull_in(z_pairs, pull_pairs)
            conjugate(z, z)
            multiply(z, rot, z)
            multiply(z, pull, z)
            return add(z_im, omega, out)

        return f_dense
    bins = np.stack((2 * dst, 2 * dst + 1), axis=1).ravel()
    if w is not None:
        w = np.repeat(w, 2)  # one per (re, im) part, as bins

    def f_sparse(y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        cos(y, z_re)
        sin(y, z_im)
        parts = z[src].view(float)
        if w is not None:
            multiply(parts, w, parts)
        sums = np.bincount(bins, parts, 2 * n).view(complex)
        conjugate(z, z)
        multiply(z, rot, z)
        multiply(z, sums, z)
        return add(z_im, omega, out)

    return f_sparse


def _arcs(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """0-based (src, dst) arrays holding both directions of every edge,
    sorted by (dst, src): each vertex's sorted neighbours in turn."""
    degrees = [len(a) for a in g.adjacency[1:]]
    src = np.fromiter(itertools.chain.from_iterable(g.adjacency), np.intp, sum(degrees))
    return src - 1, np.repeat(np.arange(g.n, dtype=np.intp), degrees)


def _graph_rhs(g: Graph, params: ModelParams) -> Rhs:
    # each vertex pulled by its sorted neighbours, unit weight
    return _coupling_rhs(*_arcs(g), None, g.n, *params)


def _gamma_rhs(gamma: QuotientMatrix, alpha: float) -> Rhs:
    # block j pulls block i with weight gamma_ij; nonzero() yields (dst, src) order
    k = gamma.k
    if k == 0 or any(len(row) != k for row in gamma.gamma):
        raise DimensionMismatchError(
            f"gamma must be a nonempty k x k table, got rows of {[len(r) for r in gamma.gamma]}"
        )
    gm = np.array(gamma.gamma, dtype=float)
    dst, src = np.nonzero(gm)
    return _coupling_rhs(src, dst, gm[dst, src], k, alpha)


def _state(values: Sequence[float], name: str, size: int) -> np.ndarray:
    """values as floats, after checking they are one phase per vertex
    (name "n") or per block (name "k") of a system of that size."""
    y = np.asarray(values, dtype=float)
    if y.shape != (size,):
        raise DimensionMismatchError(f"state length {y.shape} does not match {name}={size}")
    return y


def _time_grid(times: Sequence[float], name: str, empty: type[KurapartError]) -> np.ndarray:
    """The one rule for recorded and requested times: a 1-D grid from 0,
    strictly increasing.  One that is not 1-D or holds no time raises empty."""
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise empty(f"{name} must be 1-D and hold at least one time")
    if ts[0] != 0.0:
        raise BadParameterError(f"{name} must start at 0, got {ts[0]}")
    if ts.size > 1 and not np.all(np.diff(ts) > 0.0):
        raise BadParameterError(f"{name} must increase strictly")
    return ts


def kuramoto_rhs(g: Graph, theta: Sequence[float], params: ModelParams) -> np.ndarray:
    """Phase velocities: omega + coupling * sum_j A_ij sin(theta_j - theta_i - alpha)."""
    th = _state(theta, "n", g.n)
    return _graph_rhs(g, params)(th)


def quotient_rhs(gamma: QuotientMatrix, f: Sequence[float], alpha: float) -> np.ndarray:
    """Block system: f_i' = sum_j gamma_ij sin(f_j - f_i - alpha)."""
    fv = _state(f, "k", gamma.k)
    return _gamma_rhs(gamma, alpha)(fv)


def _tableau(rows: list[list[float]]) -> np.ndarray:
    """Square strictly lower-triangular matrix from its rows below the first."""
    a = np.zeros((len(rows) + 1, len(rows) + 1))
    for i, row in enumerate(rows, start=1):
        a[i, :i] = row
    return a


# Explicit Runge-Kutta matrices whose last row holds the propagating weights,
# so the last stage argument is the new state and its derivative is the next
# step's first stage (FSAL).  _DP_E is the Dormand-Prince 4(5) difference
# between the 5th-order and the embedded 4th-order weights.
_RK4_A = _tableau([[1 / 2], [0, 1 / 2], [0, 0, 1], [1 / 6, 1 / 3, 1 / 3, 1 / 6]])
_DP_A = _tableau(
    [
        [1 / 5],
        [3 / 40, 9 / 40],
        [44 / 45, -56 / 15, 32 / 9],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
        [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
    ]
)
_DP_E = _DP_A[6] - np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def _rk4_steps(t_end: float, dt: float) -> tuple[int, float]:
    """Number of rk4 steps from 0 to t_end and the size of the last; the others are dt.

    The ratio is capped, so one too large for int() still counts as over budget."""
    n_full = int(math.floor(min(t_end / dt, 2.0 * MAX_ADAPTIVE_STEPS) + 1e-9))
    remainder = t_end - n_full * dt
    return (n_full + 1, remainder) if remainder > 1e-9 * max(dt, 1.0) else (n_full, dt)


def _rk4_rows(cfg: IntegratorConfig) -> int:
    """Rows an rk4 run records: the start, every record_every-th step and the
    last one, or t_end alone when the horizon is below the step tolerance."""
    steps = _rk4_steps(cfg.t_end, cfg.dt)[0]
    return 1 + (-(-steps // cfg.record_every) if steps else int(cfg.t_end > 0.0))


def _row_cap(n: int) -> int:
    """Rows of n phases that fit MAX_RECORD_BYTES; n = 0 fails the RHS build."""
    return MAX_RECORD_BYTES // (8 * max(n, 1))


def _rk_path(
    f: Rhs, y0: np.ndarray, cfg: IntegratorConfig, t_eval: np.ndarray | None
) -> tuple[list[float], list[np.ndarray], RunStats]:
    """The step loop of both methods: recorded times, states and RunStats.

    rk45 clips each step to its boundary, the next t_eval time or t_end,
    and accepts it when the error norm is at most 1 (never when NaN); only
    a step that is not clipped must reach MIN_ADAPTIVE_STEP.  rk4 accepts
    every step of _rk4_steps and labels step i as i * dt, the last as t_end;
    a horizon below its step tolerance takes no step but still records t_end.
    A row past _row_cap is refused, which only rk45 can reach:
    _integrate_core has bounded rk4 beforehand.
    """
    adaptive = cfg.method == "rk45"
    t_goal = cfg.t_end if t_eval is None else float(t_eval[-1])
    if adaptive:
        a, budget = _DP_A, MAX_ADAPTIVE_STEPS
        h = min(t_goal, max(t_goal / 100.0, 1e-6))
    else:
        a, h = _RK4_A, float(cfg.dt)
        budget, last = _rk4_steps(t_goal, h)  # validated within MAX_ADAPTIVE_STEPS
    times, states = [0.0], [y0]
    row_cap = _row_cap(y0.size)
    y = y0
    abs_y = np.abs(y)  # carried from each accepted step to the next
    t = 0.0
    eval_idx = 1  # t_eval[0] == 0 already recorded
    accepted = steps = 0
    h_min, h_max = math.inf, 0.0
    k = np.empty((a.shape[0], y.size))
    *inner, (last_dot, k_before_last, k_last) = [
        (a[i, :i].dot, k[:i], k[i]) for i in range(1, len(a))
    ]
    arg, err_vec, scale = np.empty((3, y.size))
    # numpy bound once per run, outputs passed positionally.  Every scalar
    # operand is a 0-d array: a ufunc takes one without the Python scalar
    # conversion it pays on each call, and h_arr is refilled once per attempt.
    # Every product is a bound ndarray.dot, which skips np.dot's
    # __array_function__ dispatch.  Neither changes a value or a rounding
    multiply, add, divide, absolute = np.multiply, np.add, np.divide, np.absolute
    maximum, largest, err_dot = np.maximum, np.maximum.reduce, _DP_E.dot
    rel_tol, abs_tol = np.array(float(cfg.rel_tol)), np.array(float(cfg.abs_tol))
    h_arr = np.empty(())
    # a derivative, state or error norm that overflows to inf or NaN is
    # reported below: the norm rejects the step, the finite check the state
    with np.errstate(over="ignore", invalid="ignore"):
        f(y, k[0])
        while t < t_goal and steps < budget:
            steps += 1
            if adaptive:
                boundary = t_eval[eval_idx] if t_eval is not None else t_goal
                clipped = t + h >= boundary
                if h < MIN_ADAPTIVE_STEP and not clipped:
                    raise StepUnderflowError(
                        f"adaptive step fell below {MIN_ADAPTIVE_STEP} at t={t}"
                    )
                h_step, t_next = (boundary - t, boundary) if clipped else (h, t + h)
            else:
                h_step, t_next = (last, t_goal) if steps == budget else (h, steps * h)
            h_arr[()] = h_step
            for row_dot, k_before, k_i in inner:
                row_dot(k_before, arg)
                multiply(arg, h_arr, arg)
                add(arg, y, arg)
                f(arg, k_i)
            y_new = last_dot(k_before_last)
            multiply(y_new, h_arr, y_new)
            add(y_new, y, y_new)
            f(y_new, k_last)
            abs_new = absolute(y_new)
            if adaptive:
                maximum(abs_y, abs_new, out=scale)  # numpy 2.4 deprecates a positional out
                multiply(scale, rel_tol, scale)
                add(scale, abs_tol, scale)
                err_dot(k, err_vec)
                divide(err_vec, scale, err_vec)
                # RMS of h * (E @ k) / scale, with h taken out of the norm
                err = h_step * math.sqrt(float(err_vec.dot(err_vec)) / y.size)
                factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
                h = h_step * factor if (not clipped or err > 1.0) else h * factor
                h = min(h, t_goal)
                if not err <= 1.0:
                    continue
                abs_y = abs_new
            t, y = t_next, y_new
            k[0] = k_last
            if not math.isfinite(largest(abs_new)):  # NaN and inf both fail
                raise NonFiniteStateError(f"non-finite state at t={t}")
            accepted += 1
            h_min, h_max = min(h_min, h_step), max(h_max, h_step)
            if t_eval is None:
                keep = accepted % cfg.record_every == 0 or t >= t_goal
            else:
                keep, eval_idx = clipped, eval_idx + clipped
            if keep and t > times[-1]:
                if len(times) >= row_cap:
                    raise BadParameterError(
                        f"{cfg.method} would record {len(times) + 1} rows of {y.size} phases "
                        f"by t={t}, over {MAX_RECORD_BYTES} bytes; raise record_every"
                    )
                times.append(float(t))
                states.append(y)
    if t < t_goal:
        if adaptive:
            raise StepUnderflowError(f"step budget exhausted at t={t}")
        times.append(t_goal)
        states.append(y)
    h_range = (float(h_min), float(h_max)) if accepted else (None, None)
    return times, states, RunStats(accepted, steps - accepted, 1 + (len(a) - 1) * steps, *h_range)


def _integrate_core(
    build: Callable[[], Rhs], init: Sequence[float], name: str, size: int,
    cfg: IntegratorConfig, t_eval: Sequence[float] | None,
) -> Trajectory:
    """The one entry into the step loop, for either system: init must hold
    size phases, one per vertex (name "n") or block ("k"), and an rk4 record
    must fit _row_cap before build makes the right-hand side, which may be
    an n x n matrix; then init must be finite, and t_eval, which only rk45
    takes, a time grid within t_end."""
    y0 = _state(init, name, size).copy()
    rows = _rk4_rows(cfg) if cfg.method == "rk4" else 0
    if rows > _row_cap(size):
        raise BadParameterError(
            f"rk4 would record {rows} rows of {size} phases, over {MAX_RECORD_BYTES} bytes"
        )
    f = build()
    if not np.isfinite(y0).all():
        raise NonFiniteStateError("non-finite state in initial condition")
    te = None
    if t_eval is not None:
        te = _time_grid(t_eval, "t_eval", BadParameterError)
        if te[-1] > cfg.t_end + 1e-12:
            raise BadParameterError("t_eval extends past t_end")
        if cfg.method == "rk4":
            raise BadParameterError("t_eval is supported by rk45 only")
    times, states, stats = _rk_path(f, y0, cfg, te)
    return Trajectory(np.array(times), np.array(states), stats=stats)


def integrate(
    g: Graph,
    init: Sequence[float],
    params: ModelParams,
    cfg: IntegratorConfig,
    t_eval: Sequence[float] | None = None,
) -> Trajectory:
    """March the full vertex system from init; deterministic for fixed inputs.

    When t_eval is given (rk45 only), steps are clipped to land exactly on
    those times and only they are recorded, which gives directly comparable
    grids across runs of different dimension.
    """
    return _integrate_core(lambda: _graph_rhs(g, params), init, "n", g.n, cfg, t_eval)


def integrate_quotient(
    gamma: QuotientMatrix,
    init: Sequence[float],
    alpha: float,
    cfg: IntegratorConfig,
    t_eval: Sequence[float] | None = None,
) -> Trajectory:
    """March the k-dimensional block system under the quotient counts."""
    return _integrate_core(lambda: _gamma_rhs(gamma, alpha), init, "k", gamma.k, cfg, t_eval)


def lift_quotient_trajectory(
    p: VertexPartition,
    qt: Trajectory,
    gamma: QuotientMatrix | None = None,
    alpha: float | None = None,
) -> Trajectory:
    """Copy each block trajectory onto every vertex of its block.

    With gamma and alpha supplied, the lifted trajectory carries the block
    system's derivative at each recorded time, so a residual check against
    the full system verifies the block-consistency identity rather than the
    integrator.  One of the two without the other is refused.
    """
    if (gamma is None) != (alpha is None):
        raise BadParameterError("gamma and alpha must be given together")
    if qt.dimension != p.k or (gamma is not None and gamma.k != p.k):
        raise DimensionMismatchError(
            f"quotient dimension {qt.dimension} or gamma size does not match {p.k} blocks"
        )
    cols = _block_index(p, max(b[-1] for b in p.blocks))
    states = qt.states[:, cols]
    derivs = None
    if gamma is not None:
        rhs = _gamma_rhs(gamma, alpha)
        derivs = np.array([rhs(fk) for fk in qt.states])[:, cols]
    elif qt.derivatives is not None:
        derivs = qt.derivatives[:, cols]
    return Trajectory(qt.times.copy(), states, derivatives=derivs)


def _pairwise_max_devs(states: np.ndarray, starts: list[int]) -> np.ndarray:
    """Per window of rows from starts[w] (the first 0) up to the next, the
    symmetric matrix of each column pair's largest absolute gap in it."""
    n = states.shape[1]
    out = np.zeros((len(starts), n, n))
    for i in range(n - 1):
        gaps = states[:, i + 1 :] - states[:, i : i + 1]
        out[:, i, i + 1 :] = np.maximum.reduceat(np.abs(gaps, out=gaps), starts)
    return np.maximum(out, out.transpose(0, 2, 1))


def _merge_components(linked: np.ndarray) -> list[list[int]]:
    """Single-linkage groups of a symmetric boolean matrix: ascending index
    lists, ordered by their least index."""
    parent = list(range(linked.shape[0]))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in zip(*(a.tolist() for a in np.nonzero(np.triu(linked, 1)))):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
    groups: dict[int, list[int]] = {}
    for v in range(len(parent)):
        groups.setdefault(find(v), []).append(v)
    return list(groups.values())


def _with_singletons(n: int, blocks: list[list[int]]) -> VertexPartition:
    placed = {v for block in blocks for v in block}
    return VertexPartition.from_blocks(blocks + [[v] for v in range(1, n + 1) if v not in placed])


def _check_sync_thresholds(exact_tol: float, tol: float, tail_fraction: float) -> None:
    """The one rule for the sync thresholds: exact_tol and the tail tol
    positive, tail_fraction in (0, 0.5].  NaN fails every comparison, so it
    is refused."""
    if not exact_tol > 0.0:
        raise BadParameterError(f"exact tol must be positive, got {exact_tol}")
    if not tol > 0.0:
        raise BadParameterError(f"tail tol must be positive, got {tol}")
    if not 0.0 < tail_fraction <= 0.5:
        raise BadParameterError(f"tail_fraction must lie in (0, 0.5], got {tail_fraction}")


class SyncReport(NamedTuple):
    """Synchronisation diagnostics for one trajectory.

    pair_classes lists, in lexicographic order, only the pairs labelled
    "synchronised" (same exact block, own gap below exact_tol) or
    "asymptotic" (same tail cluster), each with its tail-window maximum gap;
    every pair not listed is desynchronised.  When the tail window holds
    too few points, tail_skipped says so and the fields after it are None.
    """

    exact_partition: VertexPartition
    exact_tol: float
    chained_pairs: tuple[tuple[int, int, float], ...]
    tail_fraction: float
    tail_tol: float
    tail_skipped: str | None = None
    clusters: VertexPartition | None = None
    tail_start: float | None = None
    tail_max_deviation: tuple[float, ...] | None = None
    pair_classes: tuple[tuple[int, int, str, float], ...] | None = None


def asymptotic_sync_clusters(
    traj: Trajectory,
    tail_fraction: float = 0.2,
    tol: float = 1e-4,
    exact_tol: float = 1e-8,
) -> SyncReport:
    """Cluster vertices that stay tol-close over the trailing window.

    A pair joins a cluster when its phase gap stays below tol throughout the
    tail window and its tail maximum does not exceed the maximum over the
    window immediately before, a cheap monotonicity proxy for convergence.
    The exact partition groups, under single linkage, the vertices whose
    phases agree within exact_tol at every recorded time; its chained pairs
    are members of one block whose own gap reached exact_tol.  A tail
    window of fewer than 10 points is skipped, and the report says why.
    Thresholds are echoed in the report rather than applied silently.

    Both partitions are found by sort-then-verify: the final phases are
    sorted and cut where neighbours sit max(tol, exact_tol) or more apart,
    and one loop checks each run of two or more vertices in one pass over
    the record, which takes each pair's largest gap in the rows before the
    previous window, in that window and in the tail, whose maximum is the
    whole record's.  No block, cluster or listed pair straddles a cut, so
    each run labels its groups on its own, and vertices in different runs
    are desynchronised and left out of pair_classes.  For n vertices and
    m rows the cost is O(n m + n log n), plus O(r^2 m) for each run of r.
    """
    _check_sync_thresholds(exact_tol, tol, tail_fraction)
    times, states = traj.times, traj.states
    n, n_rows = traj.dimension, traj.n_recorded
    span = float(times[-1] - times[0])
    tail_lo = times[-1] - tail_fraction * span
    prev_lo = times[-1] - 2.0 * tail_fraction * span
    # row windows 0, 1, 2: before the previous window, the previous window, the tail
    edges = [0, *np.searchsorted(times, [prev_lo - 1e-12, tail_lo - 1e-12]).tolist(), n_rows]
    windows = [w for w in range(3) if edges[w] < edges[w + 1]]
    tail_lo_row = edges[2]
    short = n_rows - tail_lo_row < 10
    order = np.argsort(states[-1])
    # runs are cut where sorted final neighbours sit max(tol, exact_tol) or more
    # apart (or are not numbers); every exact- or tail-linked pair is closer at
    # the last row, so no block, cluster or listed pair spans two runs
    bounds = np.r_[0, np.flatnonzero(~(np.diff(states[-1, order]) < max(tol, exact_tol))) + 1, n]
    exact_blocks, chains, blocks, tail_dev, pairs = [], {}, [], {}, []
    for r in np.flatnonzero(np.diff(bounds) > 1).tolist():
        cols = np.sort(order[bounds[r] : bounds[r + 1]])
        sub = states[:, cols]
        devs = _pairwise_max_devs(sub, [edges[w] for w in windows])
        dev_full = np.maximum.reduce(devs)  # exact, and NaN wins
        window_dev = dict(zip(windows, devs))
        for group in _merge_components(dev_full < exact_tol):
            block = cols[group] + 1
            exact_blocks.append(block.tolist())
            if len(group) > 1:
                dev = dev_full[np.ix_(group, group)]
                a, b = np.nonzero(np.triu(dev >= exact_tol, 1))
                gaps = dev[a, b].tolist()
                chains[exact_blocks[-1][0]] = list(zip(block[a].tolist(), block[b].tolist(), gaps))
        if short:
            continue
        dev_tail = window_dev[2]
        linked = dev_tail < tol
        if 1 in window_dev:
            linked &= dev_tail <= window_dev[1] + 1e-12
        together = np.zeros_like(linked)
        for group in _merge_components(linked):
            block = cols[group]
            blocks.append((block + 1).tolist())
            if len(group) > 1:
                together[np.ix_(group, group)] = True
                # a cluster's mean is taken over every row, then cut to the tail:
                # a mean of the tail rows alone can differ in the last bit
                mean = states[:, block].mean(axis=1)[tail_lo_row:, None]
                gap = np.abs(states[tail_lo_row:, block] - mean).max()
                tail_dev[blocks[-1][0]] = float(gap)
        a, b = np.triu_indices(cols.size, 1)
        # a pair below exact_tol over every row is linked, so in one exact block
        sync = dev_full[a, b] < exact_tol
        keep = sync | together[a, b]
        a, b, sync = a[keep], b[keep], sync[keep]
        pairs += zip(
            (cols[a] + 1).tolist(),
            (cols[b] + 1).tolist(),
            np.where(sync, "synchronised", "asymptotic").tolist(),
            dev_tail[a, b].tolist(),
        )
    exact = _with_singletons(n, exact_blocks)
    chained = tuple(pair for block in exact.blocks for pair in chains.get(block[0], ()))
    if short:
        skipped = f"tail window holds {n_rows - tail_lo_row} recorded points, need at least 10"
        return SyncReport(exact, exact_tol, chained, tail_fraction, tol, tail_skipped=skipped)
    clusters = _with_singletons(n, blocks)
    # a singleton's gap from itself: 0, or nan where its tail is not finite
    lone = [block[0] for block in clusters.blocks if len(block) == 1]
    x = states[tail_lo_row:, [v - 1 for v in lone]]
    x -= x
    tail_dev.update(zip(lone, np.abs(x, out=x).max(axis=0).tolist()))
    return SyncReport(
        exact_partition=exact,
        exact_tol=exact_tol,
        chained_pairs=chained,
        tail_fraction=tail_fraction,
        tail_tol=tol,
        clusters=clusters,
        tail_start=float(max(tail_lo, 0.0)),
        tail_max_deviation=tuple(tail_dev[block[0]] for block in clusters.blocks),
        pair_classes=tuple(sorted(pairs)),
    )


def analytic_regular_solution(
    d: int, alpha: float, n: int, t_grid: Sequence[float]
) -> Trajectory:
    """Rigid rotation of a d-regular graph: every phase equals -d sin(alpha) t."""
    if d < 0 or n < 1:
        raise BadParameterError(f"need d >= 0 and n >= 1, got d={d}, n={n}")
    return LinearTrajectory(np.zeros(n), -d * math.sin(alpha)).sample(t_grid)


def residual_max(g: Graph, traj: Trajectory, params: ModelParams) -> float:
    """Worst-case gap between recorded phase velocity and the model velocity.

    The derivatives come from the closed form at every recorded time when
    the trajectory carries one, else from three-point differences at every
    interior time, a coarse but solver-independent estimate.  Each
    difference row is formed from three weight arrays only when it is
    checked, so no second (m, n) array is built.
    """
    if traj.dimension != g.n:
        raise DimensionMismatchError(f"trajectory width {traj.dimension} vs n={g.n}")
    times, states = traj.times, traj.states
    if traj.derivatives is not None:
        derivs: Iterable[np.ndarray] = traj.derivatives
        rows = states
    else:
        if times.size < 3:
            raise TooShortError("numeric residual needs at least three recorded times")
        h1, h2 = times[1:-1] - times[:-2], times[2:] - times[1:-1]
        w0 = -h2 / (h1 * (h1 + h2))
        w1 = (h2 - h1) / (h1 * h2)
        w2 = h1 / (h2 * (h1 + h2))
        derivs = (
            w0[i] * states[i] + w1[i] * states[i + 1] + w2[i] * states[i + 2]
            for i in range(times.size - 2)
        )
        rows = states[1:-1]
    f = _graph_rhs(g, params)
    worst = 0.0
    for deriv, y in zip(derivs, rows):
        worst = max(worst, float(np.abs(deriv - f(y)).max()))
    return worst


# trajectory_to_csv lays each value out in 40 bytes, five 8-byte words:
# "-0.000", the first digit and a point, then the other 16 digits each
# followed by a point, the last by the separator.  A byte mask per (exponent,
# last nonzero digit, sign) zeroes what '%.17g' would not print, and one
# translate drops the zeros.
# Blocks of 8192 values ran no faster and doubled the temporaries.
_CSV_BLOCK = 4096  # values per block, whose temporaries peak near 130 bytes a value
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for 53-bit doubles


def _veltkamp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split doubles into high and low halves of at most 26 bits each."""
    t = a * _SPLIT
    hi = t - (t - a)
    return hi, a - hi


_POW10 = np.array([float(10**k) for k in range(21)])  # exact: 5**k < 2**53 up to k = 22
_POW10_HI, _POW10_LO = _veltkamp(_POW10)


def _csv_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 8-byte words "-0.000d." per first digit d and "a.b.c.d." per
    four digits abcd, and the 40-byte masks per code of _csv_block."""
    head = np.frombuffer(b"".join(b"-0.000%d." % d for d in range(10)), dtype=np.uint64)
    quad = np.empty((10, 10, 10, 10, 8), dtype=np.uint8)
    quad[..., 1::2] = ord(".")
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for i in range(4):
        quad[..., 2 * i] = digits.reshape([10 if j == i else 1 for j in range(4)])
    x, last, neg, col = np.ix_(np.arange(-4, 17), np.arange(17), np.arange(2), np.arange(40))
    digit = (col - 6) // 2  # the digit at an even byte from 6, or the one a point follows
    keep = (
        (col == 0) & (neg == 1)
        | (x < 0) & (col >= 1) & (col < 2 - x)  # "0." and -x - 1 zeros
        | (col >= 6) & (col % 2 == 0) & (digit <= np.maximum(last, x))
        | (col % 2 == 1) & (col > 6) & (digit == x) & (last > x)
        | (col == 39)
    )
    masks = np.broadcast_to(keep, (21, 17, 2, 40)).reshape(-1, 40) * np.uint8(255)
    return head, quad.view(np.uint64).ravel(), masks.view(np.uint64)


_CSV_HEAD, _CSV_QUAD, _CSV_MASKS = _csv_tables()


def _times_pow10(a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**(16 - x) as p + e exactly (Dekker's two-product), 0 <= 16 - x <= 20."""
    k = 16 - x
    p = a * _POW10.take(k)
    ah, al = _veltkamp(a)
    ch, cl = _POW10_HI.take(k), _POW10_LO.take(k)
    e = ah * ch
    e -= p
    e += ah * cl
    e += al * ch
    e += al * cl
    return p, e


def _mantissas(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17-digit mantissa of each value, rounded half to even, its
    decimal exponent, and whether '%' must format it instead: 0, nan, inf
    and exponents outside -4..16, which '%.17g' writes in exponent notation."""
    a = np.abs(values)
    with np.errstate(divide="ignore", invalid="ignore"):
        xf = np.floor(np.log10(a))
    special = ~((xf >= -4) & (xf <= 16))
    if special.any():
        a[special] = 1.0
        xf[special] = 0.0
    x = xf.astype(np.intp)
    p, e = _times_pow10(a, x)
    # x is the exponent once 1e16 <= p + e < 1e17; log10 may miss by one.
    # A double below 10**(x + 1) gives p + e <= 1e17 - 8.3 (the closest is
    # the one below 0.1), so p == 1e17 means p + e >= 1e17, and no mantissa
    # rounds up to 1e17, which would carry into the exponent
    while True:
        low = (p < 1e16) | ((p == 1e16) & (e < 0))
        high = p >= 1e17
        moved = np.flatnonzero(low | high)
        if moved.size == 0:
            break
        x[moved] += high[moved]
        x[moved] -= low[moved]
        out = moved[(x[moved] < -4) | (x[moved] > 16)]
        special[out], a[out], x[out] = True, 1.0, 0
        p[moved], e[moved] = _times_pow10(a[moved], x[moved])
    # p >= 1e16 is an even integer, so rounding p + e half to even is p + rint(e)
    d = p.astype(np.int64)
    d += np.rint(e).astype(np.int64)
    return d, x, special


def _csv_block(values: np.ndarray, sep: np.ndarray) -> str:
    """The values as '%.17g' prints them, each followed by its separator byte."""
    d, x, special = _mantissas(values)
    first = d // 10**16
    d -= first * 10**16
    hi = d // 10**8
    lo = (d - hi * 10**8).astype(np.uint32)
    hi = hi.astype(np.uint32)
    del d
    # the last nonzero digit: 8 or 16 less the trailing zeros of the last nonzero half
    zero_lo = lo == 0
    u = np.where(zero_lo, hi, lo)
    last = np.where(zero_lo, 8, 16)
    for step, width in ((10**4, 4), (100, 2), (10, 1)):
        top = u // step
        zeros = u == top * step
        u = np.where(zeros, top, u)
        last -= zeros * width
    last[u == 0] = 0
    code = (x + 4) * 34
    code += last * 2
    code += values < 0
    words = _CSV_MASKS.take(code, axis=0)
    words[:, 0] &= _CSV_HEAD.take(first)
    for col, half in ((1, hi), (3, lo)):
        top = half // 10**4
        words[:, col] &= _CSV_QUAD.take(top)
        words[:, col + 1] &= _CSV_QUAD.take(half - top * 10**4)
    text = words.view(np.uint8)
    text[:, -1] = sep
    if special.any():
        where = np.flatnonzero(special)
        padded = ("%-24.17g" * where.size) % tuple(values[where].tolist())
        text[where, :24] = np.frombuffer(padded.encode(), dtype=np.uint8).reshape(-1, 24)
        text[where, 24:-1] = 0
    laid_out = words.tobytes()
    del words, text  # 40 bytes a value, freed before translate copies the rest
    return laid_out.translate(None, b" \0").decode()


def trajectory_to_csv(traj: Trajectory) -> str:
    """Header t,theta_1,...,theta_n, then one row per recorded time, each
    value written exactly as '%.17g' % x writes it, _CSV_BLOCK values a block.

    A value whose exponent estimate floor(log10|x|) lies in -4..16 is
    formatted in numpy.  Dekker's two-product gives v = |x| * 10**(16 - X)
    exactly as p + e, as 10**k is an exact double for k <= 22.  The exponent
    X is right when 1e16 <= v < 1e17, decided exactly from p and e; else it
    moves by one and v is recomputed.  Then p is an even integer, so the
    17-digit mantissa rounded half to even is p + rint(e), and it stays
    below 1e17 for every double.  Its digits are laid out for '%.17g''s fixed
    notation, trailing zeros and a bare point dropped.  Every other value
    (0, -0, nan, inf, exponent notation, and the few neighbours of 1e-4 and
    1e17 whose estimate falls outside) goes through one '%' call per block.
    A block's temporaries peak near 130 bytes a value, about 0.5 MB, so once
    the text passes that the traced peak is twice the text: its blocks and
    their join.
    """
    n = traj.dimension
    rows = max(1, _CSV_BLOCK // (n + 1))
    sep = np.full(rows * (n + 1), ord(","), dtype=np.uint8)
    sep[n :: n + 1] = ord("\n")
    chunks = ["t," + ",".join(f"theta_{i}" for i in range(1, n + 1)) + "\n"]
    for lo in range(0, traj.n_recorded, rows):
        values = np.column_stack((traj.times[lo : lo + rows], traj.states[lo : lo + rows]))
        chunks.append(_csv_block(values.ravel(), sep[: values.size]))
    return "".join(chunks)
