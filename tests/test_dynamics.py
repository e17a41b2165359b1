import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import kurapart as kp
from kurapart import dynamics as dyn
from oracle_tools import (
    adjacency_matrix_slow,
    exact_sync_chains_slow,
    gamma_rhs_slow,
    graph_rhs_slow,
    integrate_slow,
    random_connected_graph,
    residual_max_slow,
    sync_report_slow,
    trajectory_from_csv,
    trajectory_to_csv_slow,
)


def rhs_slow(g, theta, alpha, omega=0.0, coupling=1.0):
    out = np.zeros(g.n)
    for i in range(1, g.n + 1):
        acc = 0.0
        for j in g.neighbors(i):
            acc += math.sin(theta[j - 1] - theta[i - 1] - alpha)
        out[i - 1] = omega + coupling * acc
    return out


class TestModelParams:
    def test_defaults(self):
        p = kp.ModelParams(alpha=0.5)
        assert p.omega == 0.0 and p.coupling == 1.0
        assert not p.at_right_angle

    def test_right_angle_flag(self):
        assert kp.ModelParams(alpha=math.pi / 2).at_right_angle

    def test_alpha_range_enforced(self):
        for bad in (0.0, -0.1, math.pi / 2 + 1e-9, math.nan):
            with pytest.raises(kp.BadParameterError):
                kp.ModelParams(alpha=bad)

    def test_coupling_positive(self):
        with pytest.raises(kp.BadParameterError):
            kp.ModelParams(alpha=0.5, coupling=0.0)

    def test_coupling_finite(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(kp.BadParameterError):
                kp.ModelParams(alpha=0.5, coupling=bad)

    def test_omega_finite(self):
        with pytest.raises(kp.BadParameterError):
            kp.ModelParams(alpha=0.5, omega=math.inf)


# unrefused, each passed as the number 1 or 0
@pytest.mark.parametrize(
    "make, kwargs",
    [
        (kp.IntegratorConfig, {"t_end": True}),
        (kp.IntegratorConfig, {"t_end": 1.0, "rel_tol": True}),
        (kp.IntegratorConfig, {"t_end": 1.0, "abs_tol": True}),
        (kp.IntegratorConfig, {"t_end": 1.0, "method": "rk4", "dt": True}),
        (kp.ModelParams, {"alpha": True}),
        (kp.ModelParams, {"alpha": 1.0, "coupling": True}),
        (kp.ModelParams, {"alpha": 1.0, "omega": False}),
    ],
)
def test_bool_is_no_parameter_value(make, kwargs):
    with pytest.raises(kp.BadParameterError, match="must be a number, got (True|False)"):
        make(**kwargs)


class TestIntegratorConfig:
    def test_rk4_needs_dt(self):
        with pytest.raises(kp.BadParameterError):
            kp.IntegratorConfig(t_end=1.0, method="rk4")

    def test_rk4_needs_finite_dt(self):
        for dt in (float("inf"), float("nan")):
            with pytest.raises(kp.BadParameterError):
                kp.IntegratorConfig(t_end=1.0, method="rk4", dt=dt)

    def test_rk45_rejects_dt(self):
        with pytest.raises(kp.BadParameterError):
            kp.IntegratorConfig(t_end=1.0, method="rk45", dt=0.1)

    def test_horizon_nonnegative(self):
        with pytest.raises(kp.BadParameterError):
            kp.IntegratorConfig(t_end=-1.0)

    # unrefused, 2.5 would record every 5th step and True would pass as 1
    @pytest.mark.parametrize("every", [0, 2.5, True])
    def test_record_every_positive_int(self, every):
        with pytest.raises(kp.BadParameterError):
            kp.IntegratorConfig(t_end=1.0, record_every=every)

    def test_tolerances_positive(self):
        with pytest.raises(kp.BadParameterError):
            kp.IntegratorConfig(t_end=1.0, rel_tol=0.0)
        with pytest.raises(kp.BadParameterError):
            kp.IntegratorConfig(t_end=1.0, abs_tol=-1e-9)

    def test_tolerances_finite(self):
        for bad in ({"rel_tol": math.inf}, {"abs_tol": math.inf}, {"rel_tol": math.nan}):
            with pytest.raises(kp.BadParameterError):
                kp.IntegratorConfig(t_end=1.0, **bad)

    def test_unknown_method(self):
        with pytest.raises(kp.BadParameterError):
            kp.IntegratorConfig(t_end=1.0, method="euler")

    @pytest.mark.parametrize(
        "t_end, dt",
        [(1e6, 1e-6), (1e7 + 0.5, 1.0), (1.0, 5e-324)],
        ids=["1e12", "budget+1", "inf-ratio"],
    )
    def test_rk4_step_budget(self, t_end, dt):
        # rk4 obeys the rk45 step budget and is refused before anything is allocated
        with pytest.raises(kp.BadParameterError, match="steps"):
            kp.IntegratorConfig(t_end=t_end, method="rk4", dt=dt)

    def test_rk4_exactly_at_budget_accepted(self):
        cfg = kp.IntegratorConfig(t_end=float(dyn.MAX_ADAPTIVE_STEPS), method="rk4", dt=1.0)
        assert dyn._rk4_steps(cfg.t_end, cfg.dt) == (dyn.MAX_ADAPTIVE_STEPS, 1.0)


class TestRecordBound:
    @pytest.mark.parametrize(
        "t_end, dt, every",
        [(1.0, 0.25, 1), (1.0, 0.3, 1), (1.0, 0.1, 3), (0.95, 0.2, 2), (0.7, 0.1, 4),
         (1.0, 0.1, 10), (1.0, 0.1, 11), (2.0, 0.3, 7), (1e-12, 0.5, 1), (0.0, 0.1, 1)],
    )
    def test_rk4_rows_is_the_recorded_count(self, t_end, dt, every):
        cfg = kp.IntegratorConfig(t_end=t_end, method="rk4", dt=dt, record_every=every)
        traj = kp.integrate(kp.cycle_graph(4), np.zeros(4), kp.ModelParams(alpha=0.5), cfg)
        assert dyn._rk4_rows(cfg) == traj.n_recorded

    def test_huge_record_refused_before_allocating(self):
        # 10**7 + 1 rows of 1000 phases would take 74.5 GiB
        cfg = kp.IntegratorConfig(t_end=10.0, method="rk4", dt=1e-6)
        g = kp.cycle_graph(1000)
        tracemalloc.start()
        try:
            with pytest.raises(kp.BadParameterError, match="record 10000001 rows of 1000 phases"):
                kp.integrate(g, np.zeros(g.n), kp.ModelParams(alpha=0.5), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_bound_is_exact(self, monkeypatch):
        cfg = kp.IntegratorConfig(t_end=1.0, method="rk4", dt=0.25)
        g, params = kp.cycle_graph(4), kp.ModelParams(alpha=0.5)
        gamma = kp.QuotientMatrix(((1, 1), (1, 1)))
        monkeypatch.setattr(dyn, "MAX_RECORD_BYTES", 5 * 4 * 8)
        assert kp.integrate(g, np.zeros(4), params, cfg).states.nbytes == dyn.MAX_RECORD_BYTES
        monkeypatch.setattr(dyn, "MAX_RECORD_BYTES", 5 * 4 * 8 - 1)
        with pytest.raises(kp.BadParameterError, match="record 5 rows of 4 phases"):
            kp.integrate(g, np.zeros(4), params, cfg)
        monkeypatch.setattr(dyn, "MAX_RECORD_BYTES", 5 * 2 * 8 - 1)
        with pytest.raises(kp.BadParameterError, match="record 5 rows of 2 phases"):
            kp.integrate_quotient(gamma, [0.0, 1.0], 0.5, cfg)

    def test_rk45_bound_is_exact(self, monkeypatch):
        # rk45 records as it goes, so _rk_path refuses the row that passes the bound
        g, params, cfg = kp.cycle_graph(4), kp.ModelParams(alpha=0.5), kp.IntegratorConfig(t_end=1.0)
        assert kp.integrate(g, np.zeros(4), params, cfg).n_recorded == 5
        monkeypatch.setattr(dyn, "MAX_RECORD_BYTES", 5 * 4 * 8)
        assert kp.integrate(g, np.zeros(4), params, cfg).states.nbytes == dyn.MAX_RECORD_BYTES
        monkeypatch.setattr(dyn, "MAX_RECORD_BYTES", 5 * 4 * 8 - 1)
        with pytest.raises(kp.BadParameterError, match="rk45 would record 5 rows of 4 phases"):
            kp.integrate(g, np.zeros(4), params, cfg)
        gamma = kp.QuotientMatrix(((1, 1), (1, 1)))
        monkeypatch.setattr(dyn, "MAX_RECORD_BYTES", 2 * 2 * 8 - 1)
        with pytest.raises(kp.BadParameterError, match="rk45 would record 2 rows of 2 phases"):
            kp.integrate_quotient(gamma, [0.0, 1.0], 0.5, cfg)

    def test_rk45_record_refused_as_it_grows(self, monkeypatch):
        g, params = kp.cycle_graph(4), kp.ModelParams(alpha=0.5)
        init = [0.0, 1.0, 2.0, 3.0]
        full = kp.integrate(g, init, params, kp.IntegratorConfig(t_end=10.0))
        assert full.n_recorded > 100
        monkeypatch.setattr(dyn, "MAX_RECORD_BYTES", 10 * 4 * 8)
        with pytest.raises(kp.BadParameterError, match="rk45 would record 11 rows of 4 phases by t="):
            kp.integrate(g, init, params, kp.IntegratorConfig(t_end=10.0))
        # a large record_every keeps the start, every 1000th step and the last
        sparse = kp.integrate(g, init, params, kp.IntegratorConfig(t_end=10.0, record_every=1000))
        assert np.array_equal(sparse.times, full.times[[0, -1]])
        assert np.array_equal(sparse.states, full.states[[0, -1]])


class TestTrajectory:
    def test_validation(self):
        with pytest.raises(kp.EmptyTrajectoryError):
            kp.Trajectory(np.array([]), np.zeros((0, 2)))
        with pytest.raises(kp.BadParameterError):
            kp.Trajectory(np.array([1.0, 2.0]), np.zeros((2, 2)))
        with pytest.raises(kp.BadParameterError):
            kp.Trajectory(np.array([0.0, 0.0]), np.zeros((2, 2)))
        with pytest.raises(kp.DimensionMismatchError):
            kp.Trajectory(np.array([0.0, 1.0]), np.zeros((3, 2)))
        with pytest.raises(kp.DimensionMismatchError, match="derivatives shape"):
            kp.Trajectory(np.array([0.0, 1.0]), np.zeros((2, 2)), derivatives=np.zeros((2, 3)))

    def test_accessors(self):
        t = kp.Trajectory(np.array([0.0, 1.0]), np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert t.dimension == 2 and t.n_recorded == 2
        assert np.array_equal(t.initial_state(), [1.0, 2.0])
        assert np.array_equal(t.final_state(), [3.0, 4.0])


class TestShapeRefusals:
    """Inputs of the wrong shape or range, each refused with its own error."""

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: kp.LinearTrajectory([0.0, 1.0], [1.0, 2.0, 3.0]),
             kp.BadParameterError, "one number, the common rate"),
            (lambda: kp.kuramoto_rhs(kp.cycle_graph(4), np.zeros(3), kp.ModelParams(alpha=0.5)),
             kp.DimensionMismatchError, "does not match n=4"),
            (lambda: kp.quotient_rhs(kp.QuotientMatrix(((0, 6), (1, 0))), np.zeros(3), 0.5),
             kp.DimensionMismatchError, "does not match k=2"),
            (lambda: kp.analytic_regular_solution(-1, 0.5, 4, [0.0, 1.0]),
             kp.BadParameterError, "d=-1"),
            (lambda: kp.analytic_regular_solution(2, 0.5, 0, [0.0, 1.0]),
             kp.BadParameterError, "n=0"),
            (lambda: kp.residual_max(
                kp.cycle_graph(4), kp.Trajectory([0.0, 1.0, 2.0], np.zeros((3, 3))), kp.ModelParams(alpha=0.5)),
             kp.DimensionMismatchError, "trajectory width 3"),
        ],
        ids=[
            "linear-trajectory-rate", "kuramoto-rhs-state", "quotient-rhs-state",
            "regular-negative-degree", "regular-no-vertices", "residual-width",
        ],
    )
    def test_refused(self, call, error, message):
        with pytest.raises(error, match=message):
            call()


class TestQuotientShape:
    """A gamma that is not a nonempty k x k table is refused by every entry
    point that builds its right-hand side."""

    @pytest.mark.parametrize(
        "rows", [(), ((1, 2), (3,)), ((1, 2),)], ids=["empty", "ragged", "not-square"]
    )
    @pytest.mark.parametrize(
        "entry",
        [
            lambda gamma, k: kp.quotient_rhs(gamma, np.zeros(k), 0.5),
            lambda gamma, k: kp.integrate_quotient(
                gamma, np.zeros(k), 0.5, kp.IntegratorConfig(t_end=1.0)
            ),
            # a partition has a block, so the empty gamma fails the size check
            lambda gamma, k: kp.lift_quotient_trajectory(
                kp.VertexPartition.from_blocks([[v] for v in range(1, k + 1)] or [[1]]),
                kp.Trajectory([0.0], np.zeros((1, k))),
                gamma=gamma,
                alpha=0.5,
            ),
        ],
        ids=["quotient_rhs", "integrate_quotient", "lift_quotient_trajectory"],
    )
    def test_refused(self, rows, entry):
        gamma = kp.QuotientMatrix(rows)
        with pytest.raises(kp.DimensionMismatchError, match="nonempty k x k table|gamma size"):
            entry(gamma, gamma.k)


class TestLinearTrajectory:
    def test_scalar_rate(self):
        lt = kp.LinearTrajectory(np.array([0.0, 1.0]), -2.0)
        assert np.allclose(lt.sample([0.0, 0.5]).states[1], [-1.0, 0.0])

    def test_vector_rate(self):
        # a rigid motion turns every phase at one rate; a rate per vertex,
        # even one of the right length, is refused
        with pytest.raises(kp.BadParameterError, match="common rate"):
            kp.LinearTrajectory(np.array([0.0, 1.0]), np.array([1.0, -1.0]))

    def test_sample_attaches_derivatives(self):
        lt = kp.LinearTrajectory(np.array([0.0, 1.0]), -2.0)
        traj = lt.sample(np.linspace(0.0, 1.0, 5))
        assert traj.derivatives is not None
        assert np.allclose(traj.derivatives, -2.0)


class TestRhs:
    def test_matches_slow_formula(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(2, 8)))
            theta = rng.uniform(-3, 3, g.n)
            alpha = float(rng.uniform(0.05, math.pi / 2))
            omega = float(rng.uniform(-1, 1))
            coupling = float(rng.uniform(0.1, 2.0))
            params = kp.ModelParams(alpha=alpha, omega=omega, coupling=coupling)
            got = kp.kuramoto_rhs(g, theta, params)
            want = rhs_slow(g, theta, alpha, omega, coupling)
            assert np.allclose(got, want, atol=1e-14)

    def test_two_vertex_hand_value(self):
        g = kp.path_graph(2)
        params = kp.ModelParams(alpha=0.3)
        got = kp.kuramoto_rhs(g, np.array([0.0, 1.0]), params)
        assert got[0] == pytest.approx(math.sin(1.0 - 0.3))
        assert got[1] == pytest.approx(math.sin(-1.0 - 0.3))

    def test_quotient_rhs_star(self):
        gamma = kp.QuotientMatrix(((0, 6), (1, 0)))
        f = np.array([0.2, 1.0])
        got = kp.quotient_rhs(gamma, f, 0.7)
        assert got[0] == pytest.approx(6 * math.sin(1.0 - 0.2 - 0.7))
        assert got[1] == pytest.approx(math.sin(0.2 - 1.0 - 0.7))


class TestIntegration:
    def test_rk4_grid_layout(self):
        g = kp.cycle_graph(4)
        cfg = kp.IntegratorConfig(t_end=1.0, method="rk4", dt=0.3)
        traj = kp.integrate(g, np.zeros(4), kp.ModelParams(alpha=0.5), cfg)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == 1.0
        assert np.allclose(traj.times[:4], [0.0, 0.3, 0.6, 0.9])

    def test_record_every_keeps_final(self):
        g = kp.cycle_graph(4)
        cfg = kp.IntegratorConfig(t_end=1.0, method="rk4", dt=0.1, record_every=3)
        traj = kp.integrate(g, np.zeros(4), kp.ModelParams(alpha=0.5), cfg)
        assert traj.times[-1] == 1.0
        assert np.allclose(traj.times[:3], [0.0, 0.3, 0.6])

    def test_zero_horizon_single_row(self):
        g = kp.cycle_graph(4)
        cfg = kp.IntegratorConfig(t_end=0.0)
        traj = kp.integrate(g, np.full(4, 0.25), kp.ModelParams(alpha=0.5), cfg)
        assert traj.n_recorded == 1
        assert np.array_equal(traj.initial_state(), np.full(4, 0.25))

    def test_rk45_t_eval_grid(self):
        g = kp.cycle_graph(4)
        grid = np.linspace(0.0, 2.0, 21)
        cfg = kp.IntegratorConfig(t_end=2.0)
        init = np.array([0.0, 1.3, 2.1, 0.4])
        traj = kp.integrate(g, init, kp.ModelParams(alpha=0.7), cfg, t_eval=grid)
        assert np.array_equal(traj.times, grid)

    @pytest.mark.parametrize(
        "method, dt, grid, message",
        [
            ("rk45", None, [0.5, 1.0], "start at 0"),
            ("rk45", None, [0.0, 1.0, 1.0], "increase strictly"),
            ("rk45", None, [0.0, 2.5], "past t_end"),
            ("rk4", 0.1, [0.0, 1.0], "rk45 only"),
        ],
        ids=["late-start", "repeated", "past-end", "rk4"],
    )
    def test_t_eval_rejected(self, method, dt, grid, message):
        cfg = kp.IntegratorConfig(t_end=2.0, method=method, dt=dt)
        params = kp.ModelParams(alpha=0.5)
        with pytest.raises(kp.BadParameterError, match=message):
            kp.integrate(kp.cycle_graph(4), np.zeros(4), params, cfg, t_eval=grid)

    def test_rk45_agrees_with_rk4(self):
        g = kp.cycle_graph(4)
        init = np.array([0.0, 1.3, 2.1, 0.4])
        params = kp.ModelParams(alpha=0.7)
        fine = kp.IntegratorConfig(t_end=5.0, method="rk4", dt=0.001)
        a = kp.integrate(g, init, params, fine)
        b = kp.integrate(
            g,
            init,
            params,
            kp.IntegratorConfig(t_end=5.0, rel_tol=1e-11, abs_tol=1e-13),
        )
        assert np.abs(a.final_state() - b.final_state()).max() < 1e-9

    def test_phase_shift_equivariance(self):
        g = kp.cycle_graph(5)
        init = np.array([0.0, 1.0, 2.0, 0.5, 1.5])
        params = kp.ModelParams(alpha=0.6)
        cfg = kp.IntegratorConfig(t_end=5.0, method="rk4", dt=0.01)
        base = kp.integrate(g, init, params, cfg)
        shifted = kp.integrate(g, init + 0.8, params, cfg)
        assert np.abs(shifted.states - base.states - 0.8).max() < 1e-9

    def test_deterministic(self):
        g = kp.cycle_graph(5)
        init = np.array([0.0, 1.0, 2.0, 0.5, 1.5])
        params = kp.ModelParams(alpha=0.6)
        cfg = kp.IntegratorConfig(t_end=5.0)
        a = kp.integrate(g, init, params, cfg)
        b = kp.integrate(g, init, params, cfg)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)

    def test_init_length_checked(self):
        g = kp.cycle_graph(4)
        with pytest.raises(kp.DimensionMismatchError):
            kp.integrate(g, np.zeros(3), kp.ModelParams(alpha=0.5), kp.IntegratorConfig(t_end=1.0))
        with pytest.raises(kp.DimensionMismatchError, match="does not match k=2"):
            kp.integrate_quotient(
                kp.QuotientMatrix(((0, 2), (2, 0))), np.zeros(3), 0.5, kp.IntegratorConfig(t_end=1.0)
            )

    def test_nonfinite_init_rejected(self):
        g = kp.cycle_graph(4)
        init = np.array([0.0, math.inf, 0.0, 0.0])
        with pytest.raises(kp.NonFiniteStateError):
            kp.integrate(g, init, kp.ModelParams(alpha=0.5), kp.IntegratorConfig(t_end=1.0))

    def test_state_turning_non_finite_mid_run(self):
        # coupling 1e308 overflows the first step's stage sums; rk4 accepts
        # every step, so the new state's own check stops the run
        cfg = kp.IntegratorConfig(t_end=1.0, method="rk4", dt=0.1)
        params = kp.ModelParams(alpha=0.5, coupling=1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(kp.NonFiniteStateError, match=r"^non-finite state at t=0\.1$"):
                kp.integrate(kp.complete_graph(4), [0.0, 1.0, 2.0, 3.0], params, cfg)

    def test_step_underflow(self):
        g = kp.cycle_graph(4)
        cfg = kp.IntegratorConfig(t_end=1.0, rel_tol=1e-300, abs_tol=1e-320)
        init = np.array([0.0, 1.3, 2.1, 0.4])
        with pytest.raises(kp.StepUnderflowError):
            kp.integrate(g, init, kp.ModelParams(alpha=0.5), cfg)

    def test_rk45_horizon_below_min_step_is_one_clipped_step(self):
        # the first step is the whole horizon, not a step that collapsed
        cfg = kp.IntegratorConfig(t_end=1e-13)
        traj = kp.integrate(kp.cycle_graph(4), np.zeros(4), kp.ModelParams(alpha=0.5), cfg)
        assert traj.times.tolist() == [0.0, 1e-13]
        assert traj.stats == kp.RunStats(1, 0, 7, 1e-13, 1e-13)
        rigid = -2 * math.sin(0.5) * 1e-13
        assert np.allclose(traj.final_state(), rigid, rtol=1e-12, atol=0.0)

    def test_step_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(dyn, "MAX_ADAPTIVE_STEPS", 5)
        init = np.array([0.0, 1.3, 2.1, 0.4])
        with pytest.raises(kp.StepUnderflowError, match="step budget exhausted"):
            kp.integrate(kp.cycle_graph(4), init, kp.ModelParams(alpha=0.5), kp.IntegratorConfig(t_end=1.0))


def _stage_row_recorder(g):
    """The graph's right-hand side and the list of the out addresses it
    was called with, one per evaluation."""
    rhs = dyn._graph_rhs(g, kp.ModelParams(alpha=0.7))
    addresses = []

    def f(y, out=None):
        addresses.append(out.__array_interface__["data"][0])
        return rhs(y, out)

    return f, addresses


def _attempts(addresses, n):
    """Attempted rk45 steps from the stage rows written: the first call
    fills row 0 of the stage matrix, then each attempt fills rows 1 to 6 in
    order and never row 0, which takes the last stage of the step before
    (FSAL)."""
    rows = [(a - addresses[0]) // (8 * n) for a in addresses]
    attempts = (len(rows) - 1) // 6
    assert rows == [0] + [1, 2, 3, 4, 5, 6] * attempts
    return attempts


class TestRunStats:
    def test_rk45_counts_every_attempt_and_rhs_call(self):
        f, addresses = _stage_row_recorder(kp.cycle_graph(6))
        cfg = kp.IntegratorConfig(t_end=5.0, rel_tol=1e-12, abs_tol=1e-14)
        init = np.array([0.0, 1.3, 2.1, 0.4, 2.9, 5.0])
        traj = dyn._integrate_core(lambda: f, init, "n", 6, cfg, None)
        stats = traj.stats
        attempts = _attempts(addresses, 6)
        assert stats.rejected > 0
        assert stats.accepted + stats.rejected == attempts
        assert stats.rhs_calls == len(addresses) == 1 + 6 * attempts
        # record_every 1 records every accepted step
        assert stats.accepted == traj.n_recorded - 1
        h = np.diff(traj.times)
        assert stats.h_min == pytest.approx(h.min(), rel=1e-12)
        assert stats.h_max == pytest.approx(h.max(), rel=1e-12)

    def test_rk4_counts_fixed_steps(self):
        cfg = kp.IntegratorConfig(t_end=1.0, method="rk4", dt=0.3)
        traj = kp.integrate(kp.cycle_graph(4), np.zeros(4), kp.ModelParams(alpha=0.5), cfg)
        stats = traj.stats
        assert (stats.accepted, stats.rejected, stats.rhs_calls) == (4, 0, 1 + 4 * 4)
        assert stats.h_max == 0.3
        assert stats.h_min == pytest.approx(0.1, rel=1e-12)

    @pytest.mark.parametrize("method, dt", [("rk45", None), ("rk4", 0.1)])
    def test_no_step_on_a_zero_horizon(self, method, dt):
        cfg = kp.IntegratorConfig(t_end=0.0, method=method, dt=dt)
        traj = kp.integrate(kp.cycle_graph(4), np.zeros(4), kp.ModelParams(alpha=0.5), cfg)
        assert traj.stats == kp.RunStats(0, 0, 1, None, None)

    def test_quotient_run_counted(self):
        gamma = kp.QuotientMatrix(((0, 6), (1, 0)))
        traj = kp.integrate_quotient(gamma, [0.2, 1.0], 0.7, kp.IntegratorConfig(t_end=3.0))
        stats = traj.stats
        assert stats.accepted == traj.n_recorded - 1
        assert stats.rhs_calls == 1 + 6 * (stats.accepted + stats.rejected)

    def test_stats_stay_out_of_the_csv(self):
        cfg = kp.IntegratorConfig(t_end=2.0)
        traj = kp.integrate(kp.cycle_graph(5), np.arange(5.0), kp.ModelParams(alpha=0.6), cfg)
        assert traj.stats is not None
        text = kp.trajectory_to_csv(traj)
        assert text == kp.trajectory_to_csv(kp.Trajectory(traj.times, traj.states))
        assert trajectory_from_csv(text).stats is None


class TestQuotientIntegration:
    def test_lift_matches_full(self):
        g, part = kp.star_graph(4)
        gamma = kp.is_equitable(g, part)
        cfg = kp.IntegratorConfig(t_end=3.0)
        qt = kp.integrate_quotient(gamma, np.array([0.0, 1.0]), 0.7, cfg)
        lifted = kp.lift_quotient_trajectory(part, qt, gamma=gamma, alpha=0.7)
        full = kp.integrate(
            g, lifted.initial_state(), kp.ModelParams(alpha=0.7), cfg, t_eval=qt.times
        )
        assert np.abs(full.states - lifted.states).max() < 1e-8

    def test_lift_carries_closed_form_derivatives(self):
        # C4's rigid rotation on two blocks: two recorded times suffice, since
        # the residual reads the lifted derivatives, not differences
        part = kp.VertexPartition.from_blocks([[1, 3], [2, 4]])
        qt = kp.analytic_regular_solution(2, 0.6, 2, [0.0, 1.5])
        lifted = kp.lift_quotient_trajectory(part, qt)
        assert np.array_equal(lifted.derivatives, np.full((2, 4), -2 * math.sin(0.6)))
        assert kp.residual_max(kp.cycle_graph(4), lifted, kp.ModelParams(alpha=0.6)) < 1e-12

    def test_lift_preserves_initial_values(self):
        part = kp.VertexPartition.from_blocks([[1, 3], [2, 4]])
        qt = kp.Trajectory(np.array([0.0, 1.0]), np.array([[0.5, 1.5], [0.6, 1.4]]))
        lifted = kp.lift_quotient_trajectory(part, qt)
        assert np.array_equal(lifted.initial_state(), [0.5, 1.5, 0.5, 1.5])

    def test_lift_refuses_half_of_gamma_and_alpha(self):
        # either alone would leave the lift without derivatives, unsaid
        g, part = kp.star_graph(3)
        gamma = kp.is_equitable(g, part)
        qt = kp.integrate_quotient(gamma, np.array([0.0, 1.0]), 0.7, kp.IntegratorConfig(t_end=1.0))
        with pytest.raises(kp.BadParameterError):
            kp.lift_quotient_trajectory(part, qt, gamma=gamma)
        with pytest.raises(kp.BadParameterError):
            kp.lift_quotient_trajectory(part, qt, alpha=0.7)

    def test_lift_checks_block_count(self):
        part = kp.VertexPartition.from_blocks([[1, 2], [3, 4]])
        qt = kp.Trajectory(np.array([0.0, 1.0]), np.zeros((2, 3)))
        with pytest.raises(kp.DimensionMismatchError):
            kp.lift_quotient_trajectory(part, qt)

    def test_lift_rejects_huge_label_without_allocating(self):
        part = kp.VertexPartition.from_blocks([[1, 2], [10**7]])
        qt = kp.Trajectory(np.array([0.0, 1.0]), np.zeros((2, 2)))
        tracemalloc.start()
        try:
            with pytest.raises(kp.PartitionMismatchError):
                kp.lift_quotient_trajectory(part, qt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_single_block_lift_all_identical(self):
        part = kp.VertexPartition.from_blocks([[1, 2, 3]])
        qt = kp.Trajectory(np.array([0.0, 1.0, 2.0]), np.array([[0.1], [0.4], [0.9]]))
        lifted = kp.lift_quotient_trajectory(part, qt)
        for row in lifted.states:
            assert row[0] == row[1] == row[2]


class TestSyncDetection:
    def test_exact_blocks(self):
        times = np.linspace(0.0, 1.0, 11)
        states = np.column_stack([times, times, times + 0.5])
        traj = kp.Trajectory(times, states)
        rep = kp.asymptotic_sync_clusters(traj, exact_tol=1e-8).exact_partition
        assert rep.blocks == ((1, 2), (3,))

    def test_exact_is_partition_of_within_tol_relation(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            times = np.linspace(0.0, 1.0, 7)
            ref = rng.uniform(-1, 1, n)
            states = np.tile(ref, (7, 1)) + rng.uniform(-1e-10, 1e-10, (7, n))
            traj = kp.Trajectory(times, states)
            rep = kp.asymptotic_sync_clusters(traj, exact_tol=1e-8).exact_partition
            assert rep.vertices() == frozenset(range(1, n + 1))

    def test_single_linkage_chain_merges(self):
        # 1 and 3 sit 1.2 tol apart but both touch 2, so all three merge
        tol = 1e-6
        times = np.linspace(0.0, 1.0, 11)
        states = np.column_stack(
            [np.zeros(11), np.full(11, 0.6 * tol), np.full(11, 1.2 * tol)]
        )
        traj = kp.Trajectory(times, states)
        assert kp.asymptotic_sync_clusters(traj, exact_tol=tol).exact_partition.blocks == ((1, 2, 3),)

    def test_chained_pairs_flagged_in_report(self):
        tol = 1e-6
        times = np.linspace(0.0, 50.0, 101)
        states = np.column_stack(
            [np.zeros(101), np.full(101, 0.6 * tol), np.full(101, 1.2 * tol)]
        )
        traj = kp.Trajectory(times, states)
        rep = kp.asymptotic_sync_clusters(traj, tail_fraction=0.2, tol=1e-4, exact_tol=tol)
        assert rep.exact_partition.blocks == ((1, 2, 3),)
        assert [(i, j) for i, j, _ in rep.chained_pairs] == [(1, 3)]

    def test_nan_tolerances_rejected(self):
        times = np.linspace(0.0, 50.0, 101)
        traj = kp.Trajectory(times, np.column_stack([times, times]))
        nan = float("nan")
        with pytest.raises(kp.BadParameterError):
            kp.asymptotic_sync_clusters(traj, tol=nan)
        with pytest.raises(kp.BadParameterError):
            kp.asymptotic_sync_clusters(traj, exact_tol=nan)

    def test_exact_part_without_a_tail(self):
        tol = 1e-6
        t = np.linspace(0.0, 1.0, 5)
        traj = kp.Trajectory(t, np.column_stack([t, t + 0.6 * tol, t + 1.2 * tol]))
        rep = kp.asymptotic_sync_clusters(traj, exact_tol=tol)
        assert rep.tail_skipped is not None and rep.clusters is None
        assert rep.exact_partition.blocks == ((1, 2, 3),)
        assert [(i, j) for i, j, _ in rep.chained_pairs] == [(1, 3)]

    def test_generic_path_init_stays_split(self):
        g = kp.path_graph(3)
        cfg = kp.IntegratorConfig(t_end=10.0, method="rk4", dt=0.05)
        traj = kp.integrate(g, np.array([0.2, 1.7, 2.9]), kp.ModelParams(alpha=0.6), cfg)
        assert kp.asymptotic_sync_clusters(traj).exact_partition.blocks == ((1,), (2,), (3,))

    def test_perturbed_star_converges_to_two_clusters(self):
        g, _ = kp.star_graph(6)
        rng = np.random.default_rng(99)
        init = np.array([0.0] + [1.0] * 6) + rng.uniform(-1e-3, 1e-3, 7)
        cfg = kp.IntegratorConfig(t_end=50.0, method="rk4", dt=0.1)
        traj = kp.integrate(g, init, kp.ModelParams(alpha=0.7), cfg)
        rep = kp.asymptotic_sync_clusters(traj, tail_fraction=0.2, tol=1e-4)
        assert rep.clusters.blocks == ((1,), (2, 3, 4, 5, 6, 7))
        assert max(rep.tail_max_deviation) < 1e-4

    def test_exact_sync_input_gives_identical_clusters(self):
        times = np.linspace(0.0, 50.0, 101)
        states = np.column_stack([times * 0.2, times * 0.2, np.cos(times)])
        traj = kp.Trajectory(times, states)
        rep = kp.asymptotic_sync_clusters(traj, tail_fraction=0.2, tol=1e-4)
        assert rep.clusters == rep.exact_partition

    def test_asymptotic_converging_pair(self):
        times = np.linspace(0.0, 50.0, 501)
        gap = np.exp(-times)
        states = np.column_stack([np.zeros_like(times), gap])
        traj = kp.Trajectory(times, states)
        rep = kp.asymptotic_sync_clusters(traj, tail_fraction=0.2, tol=1e-4)
        assert rep.clusters.blocks == ((1, 2),)
        labels = {(i, j): label for i, j, label, _ in rep.pair_classes}
        assert labels[(1, 2)] == "asymptotic"

    def test_asymptotic_constant_offset_stays_split(self):
        times = np.linspace(0.0, 50.0, 501)
        states = np.column_stack([times * 0.1, times * 0.1 + 0.7])
        traj = kp.Trajectory(times, states)
        rep = kp.asymptotic_sync_clusters(traj, tail_fraction=0.2, tol=1e-4)
        assert rep.clusters.blocks == ((1,), (2,))
        labels = {(i, j): label for i, j, label, _ in rep.pair_classes}
        assert (1, 2) not in labels

    def test_exact_pair_labelled_synchronised(self):
        times = np.linspace(0.0, 50.0, 501)
        states = np.column_stack([times * 0.1, times * 0.1])
        traj = kp.Trajectory(times, states)
        rep = kp.asymptotic_sync_clusters(traj, tail_fraction=0.2, tol=1e-4)
        labels = {(i, j): label for i, j, label, _ in rep.pair_classes}
        assert labels[(1, 2)] == "synchronised"

    def test_too_short_tail(self):
        times = np.linspace(0.0, 1.0, 20)
        traj = kp.Trajectory(times, np.zeros((20, 2)))
        rep = kp.asymptotic_sync_clusters(traj, tail_fraction=0.2, tol=1e-4)
        assert rep.tail_skipped == "tail window holds 4 recorded points, need at least 10"
        tail = (rep.clusters, rep.tail_start, rep.tail_max_deviation, rep.pair_classes)
        assert tail == (None, None, None, None)
        assert (rep.tail_fraction, rep.tail_tol) == (0.2, 1e-4)
        assert rep.exact_partition.blocks == ((1, 2),) and rep.chained_pairs == ()

    def test_tail_fraction_validated(self):
        times = np.linspace(0.0, 1.0, 100)
        traj = kp.Trajectory(times, np.zeros((100, 2)))
        for bad in (0.0, 0.6, -0.1):
            with pytest.raises(kp.BadParameterError):
                kp.asymptotic_sync_clusters(traj, tail_fraction=bad, tol=1e-4)


class TestResiduals:
    def test_analytic_regular_solution(self):
        grid = np.linspace(0.0, 10.0, 101)
        traj = kp.analytic_regular_solution(2, 0.7, 4, grid)
        g = kp.cycle_graph(4)
        r = kp.residual_max(g, traj, kp.ModelParams(alpha=0.7))
        assert r <= 1e-14

    def test_finite_difference_path(self):
        g = kp.cycle_graph(4)
        init = np.array([0.0, 1.3, 2.1, 0.4])
        cfg = kp.IntegratorConfig(t_end=2.0, method="rk4", dt=0.001)
        traj = kp.integrate(g, init, kp.ModelParams(alpha=0.7), cfg)
        r = kp.residual_max(g, traj, kp.ModelParams(alpha=0.7))
        # second-order differencing on a dense smooth path
        assert r < 1e-5

    def test_needs_three_points(self):
        g = kp.path_graph(2)
        traj = kp.Trajectory(np.array([0.0, 1.0]), np.zeros((2, 2)))
        with pytest.raises(kp.TooShortError):
            kp.residual_max(g, traj, kp.ModelParams(alpha=0.5))

    @pytest.mark.parametrize("method", ["rk45", "rk4"])
    def test_matches_slow_oracle_on_runs(self, method):
        # rk45 steps vary and rk4 ends on a short step, so both grids are
        # non-uniform; the three-point weights must match bit for bit
        rng = np.random.default_rng(19)
        dt = 0.01 if method == "rk4" else None
        cfg = kp.IntegratorConfig(t_end=2.05, method=method, dt=dt, record_every=3)
        for g in (kp.cycle_graph(7), kp.complete_graph(9), random_connected_graph(rng, 11)):
            params = kp.ModelParams(alpha=float(rng.uniform(0.1, 1.5)), omega=0.2)
            traj = kp.integrate(g, rng.uniform(0.0, 2 * math.pi, g.n), params, cfg)
            assert np.unique(np.diff(traj.times)).size > 1
            assert kp.residual_max(g, traj, params) == residual_max_slow(g, traj, params)

    def test_matches_slow_oracle_on_closed_forms(self):
        g = kp.cycle_graph(6)
        params = kp.ModelParams(alpha=0.9)
        grid = np.cumsum(np.random.default_rng(5).uniform(0.01, 0.3, 40)) - 0.01
        grid[0] = 0.0
        # a closed form with one rate per vertex, so not a rigid motion
        rates = np.array([0.3, -0.1, 0.2, 0.0, 0.5, -0.4])
        states = np.linspace(0.0, 1.0, 6) + np.outer(grid, rates)
        closed = kp.Trajectory(grid, states, derivatives=np.tile(rates, (grid.size, 1)))
        numeric = kp.Trajectory(closed.times, closed.states)
        for traj in (closed, numeric):
            assert kp.residual_max(g, traj, params) == residual_max_slow(g, traj, params)
        # a lifted quotient carries the block system's derivatives
        g, part = kp.star_graph(5)
        gamma = kp.is_equitable(g, part)
        qt = kp.integrate_quotient(gamma, np.array([0.0, 1.0]), 0.7, kp.IntegratorConfig(t_end=3.0))
        lifted = kp.lift_quotient_trajectory(part, qt, gamma=gamma, alpha=0.7)
        params = kp.ModelParams(alpha=0.7)
        assert kp.residual_max(g, lifted, params) == residual_max_slow(g, lifted, params)

    def test_numeric_residual_builds_no_derivative_array(self):
        # an (m, n) derivative array would be 8 MB here
        g = kp.cycle_graph(50)
        params = kp.ModelParams(alpha=0.7)
        cfg = kp.IntegratorConfig(t_end=10.0, method="rk4", dt=5e-4)
        traj = kp.integrate(g, np.linspace(0.0, 3.0, 50), params, cfg)
        assert traj.states.shape == (20_001, 50)
        tracemalloc.start()
        try:
            kp.residual_max(g, traj, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20



class TestTrajectoryCsv:
    def test_round_trip(self):
        g = kp.cycle_graph(3)
        init = np.array([0.0, 1.0, 2.0])
        cfg = kp.IntegratorConfig(t_end=1.0)
        traj = kp.integrate(g, init, kp.ModelParams(alpha=0.5), cfg)
        again = trajectory_from_csv(kp.trajectory_to_csv(traj))
        assert np.array_equal(again.times, traj.times)
        assert np.array_equal(again.states, traj.states)

    def test_header_shape(self):
        traj = kp.Trajectory(np.array([0.0]), np.array([[0.5, 1.5]]))
        text = kp.trajectory_to_csv(traj)
        assert text.splitlines()[0] == "t,theta_1,theta_2"

    def test_malformed_rejected(self):
        with pytest.raises(kp.FormatError):
            trajectory_from_csv("t,theta_1\n0,not_a_number\n")
        with pytest.raises(kp.FormatError):
            trajectory_from_csv("wrong,header\n0,1\n")
        for text, message in [
            ("", "empty trajectory file"),
            ("\n  \n", "empty trajectory file"),
            ("t,theta_1\n0,1,2\n", "row width 3"),
            ("t,theta_1,theta_2\n", "no data rows"),
        ]:
            with pytest.raises(kp.FormatError, match=message):
                trajectory_from_csv(text)


    def test_bytes_match_per_value_writer(self):
        g = kp.cycle_graph(7)
        init = np.random.default_rng(5).uniform(0.0, 2.0 * math.pi, g.n)
        params = kp.ModelParams(alpha=0.9)
        trajs = [
            kp.integrate(g, init, params, kp.IntegratorConfig(t_end=3.0)),
            kp.integrate(g, init, params, kp.IntegratorConfig(t_end=1.0, method="rk4", dt=0.1)),
            kp.integrate(g, np.zeros(g.n), params, kp.IntegratorConfig(t_end=0.0)),
        ]
        for traj in trajs:
            assert kp.trajectory_to_csv(traj) == trajectory_to_csv_slow(traj)

    @pytest.mark.parametrize(
        "n, m",
        [
            (1, dyn._CSV_BLOCK + 1),
            (100, dyn._CSV_BLOCK // 101),
            (100, 2 * (dyn._CSV_BLOCK // 101) + 1),
            (dyn._CSV_BLOCK - 1, 3),
            (dyn._CSV_BLOCK + 904, 2),
        ],
    )
    def test_bytes_match_per_value_writer_across_blocks(self, n, m):
        # blocks of _CSV_BLOCK // (n + 1) rows: full blocks, a short last block, one row each
        rng = np.random.default_rng(n + m)
        times = np.r_[0.0, np.cumsum(rng.uniform(1e-3, 1.0, m - 1))]
        traj = kp.Trajectory(times, rng.normal(0.0, 10.0, (m, n)))
        assert kp.trajectory_to_csv(traj) == trajectory_to_csv_slow(traj)

    def test_bytes_match_per_value_writer_on_special_values(self):
        values = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan, 0.1,
                  1.7976931348623157e308, -1.7976931348623157e308, 2.2250738585072014e-308,
                  2.225073858507201e-308, -1e-310]
        states = np.array([values, values[::-1]])
        traj = kp.Trajectory(np.array([0.0, 5e-324]), states)
        text = kp.trajectory_to_csv(traj)
        assert text == trajectory_to_csv_slow(traj) == _percent_csv(traj)
        assert ",-0," in text and ",4.9406564584124654e-324," in text and ",nan," in text
        assert ",1.7976931348623157e+308," in text and ",-9.9999999999999694e-311," in text

    @pytest.mark.parametrize("seed", range(10))
    def test_bytes_match_on_random_bit_patterns(self, seed):
        # 10 x 10**5 doubles of every kind (both signs, subnormals, nan
        # payloads, inf), of which only 3% have an exponent '%.17g' writes in
        # fixed notation, then 5 x 10**4 random doubles from 2**-16 to 2**60
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2**64, 10**5, dtype=np.uint64)
        fixed = rng.integers(0, 2**52, 5 * 10**4, dtype=np.uint64)
        fixed |= rng.integers(1023 - 16, 1023 + 61, fixed.size, dtype=np.uint64) << np.uint64(52)
        fixed |= rng.integers(0, 2, fixed.size, dtype=np.uint64) << np.uint64(63)
        values = np.concatenate([bits, fixed]).view(np.float64).reshape(1500, 100)
        traj = kp.Trajectory(np.arange(1500.0), values)
        text = kp.trajectory_to_csv(traj)
        assert text == trajectory_to_csv_slow(traj) == _percent_csv(traj)

    def test_bytes_match_around_powers_of_ten(self):
        # exponents -5..17 straddle both ends of '%.17g''s fixed notation and
        # every place where log10 may misjudge the exponent
        near = []
        for k in range(-5, 18):
            x = up = down = float(f"1e{k}")
            for _ in range(4):
                up, down = np.nextafter(up, math.inf), np.nextafter(down, -math.inf)
                near += [up, down]
            near.append(x)
        near += [99999999999999999.0, 9999999999999999.0, 0.00009999999999999999]
        values = np.array(near + [-x for x in near])
        traj = kp.Trajectory(np.arange(float(values.size)), values[:, None])
        assert kp.trajectory_to_csv(traj) == trajectory_to_csv_slow(traj) == _percent_csv(traj)

    @pytest.mark.parametrize("skew", [-0.5, 0.5])
    def test_exponent_estimate_corrected_either_way(self, monkeypatch, skew):
        # log10 may miss the exponent by one next to a power of ten; skewed by
        # half a decade it misses for about half of all values, one way or
        # the other, and for 10**j itself
        rng = np.random.default_rng(11)
        powers = [float(f"1e{k}") for k in range(-5, 18)]
        wide = rng.uniform(-1.0, 1.0, 6000) * 10.0 ** rng.uniform(-5, 18, 6000)
        values = np.concatenate([powers, wide])
        traj = kp.Trajectory(np.arange(float(values.size)), values[:, None])
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + skew)
        text = kp.trajectory_to_csv(traj)
        monkeypatch.undo()
        assert text == _percent_csv(traj)

    @pytest.mark.parametrize("j", range(-3, 18))
    def test_no_double_rounds_up_to_the_next_exponent(self, j):
        # the writer relies on this: scaled to 17 digits, the largest double
        # below 10**j stays more than 8 below 1e17, so it neither rounds to
        # 1e17 as a double nor as a 17-digit mantissa
        power = Fraction(10) ** j
        below = float(power)
        if Fraction(below) >= power:
            below = math.nextafter(below, 0.0)
        assert 10**17 - Fraction(below) * 10 ** (17 - j) > 8

    def test_exact_ties_round_half_to_even(self):
        # M / 2**(k+1) times 10**k is (M * 5**k) / 2, a 17-digit mantissa plus
        # exactly one half when M * 5**k is odd; k = 2..24 spans exponents 14..-8
        rng = np.random.default_rng(7)
        ties = []
        for k in range(2, 25):
            lo, hi = -(-2 * 10**16 // 5**k), min(2 * 10**17 // 5**k, 2**53)
            for m in rng.integers(lo, hi, 40).tolist():
                m -= 1 - m % 2 if m + 1 >= hi else -(1 - m % 2)  # odd, in range
                tie = math.ldexp(m, -(k + 1))
                assert Fraction(tie) * 10**k * 2 == m * 5**k
                ties += [tie, -tie]
        traj = kp.Trajectory(np.arange(len(ties) / 2), np.array(ties).reshape(-1, 2))
        text = kp.trajectory_to_csv(traj)
        assert text == trajectory_to_csv_slow(traj) == _percent_csv(traj)
        # both ways of rounding occur
        kept = [("%.17g" % t).rstrip("0") for t in ties[::2]]
        assert len({s[-1] for s in kept}) > 2

    def test_traced_peak_stays_near_twice_the_text(self):
        # the blocks and their join hold about two copies of the text; the
        # temporaries of one block add under half a copy at 10**5 values
        rng = np.random.default_rng(3)
        times = np.r_[0.0, np.cumsum(rng.uniform(1e-3, 1.0, 999))]
        traj = kp.Trajectory(times, rng.normal(0.0, 10.0, (1000, 100)))
        kp.trajectory_to_csv(traj)
        tracemalloc.start()
        try:
            text = kp.trajectory_to_csv(traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * len(text)


def _percent_csv(traj):
    """The writer's format through one '%.17g' % per value."""
    n = traj.dimension
    lines = ["t," + ",".join(f"theta_{i}" for i in range(1, n + 1))]
    for t, row in zip(traj.times.tolist(), traj.states.tolist()):
        lines.append(",".join("%.17g" % x for x in [t, *row]))
    return "\n".join(lines) + "\n"


def _assert_sync_matches_oracle(traj, short_rows=1, **kw):
    """Sort-then-verify against the all-pairs oracle, desynchronised pairs
    left out; short_rows is the tail length of the record's first 5 rows."""
    new = kp.asymptotic_sync_clusters(traj, **kw)
    old = sync_report_slow(traj, **kw)
    assert new.exact_partition == old.exact_partition
    assert new.chained_pairs == old.chained_pairs
    assert new.clusters == old.clusters
    np.testing.assert_array_equal(new.tail_max_deviation, old.tail_max_deviation)
    assert new.pair_classes == tuple(p for p in old.pair_classes if p[2] != "desynchronised")
    exact_tol = kw.get("exact_tol", 1e-8)
    assert (new.exact_partition, new.chained_pairs) == exact_sync_chains_slow(traj, exact_tol)
    # a 5-row prefix has too short a tail: the exact part alone, as the oracle gives it
    prefix = kp.Trajectory(traj.times[:5], traj.states[:5])
    short, short_old = kp.asymptotic_sync_clusters(prefix, **kw), sync_report_slow(prefix, **kw)
    assert (short.exact_partition, short.chained_pairs) == exact_sync_chains_slow(prefix, exact_tol)
    assert short._asdict() == short_old._asdict()
    assert short.tail_skipped == f"tail window holds {short_rows} recorded points, need at least 10"
    return new


def _synthetic(*columns):
    t = np.linspace(0.0, 50.0, 101)
    return kp.Trajectory(t, np.column_stack([np.broadcast_to(c(t), t.shape) for c in columns]))


def _offsets(*xs):
    """Rigid rotation at rate 0.1 with constant offsets xs."""
    return _synthetic(*[(lambda x: lambda t: 0.1 * t + x)(x) for x in xs])


def _interleaved():
    # blocks {1, 5, 9} and {2, 3}, the rest far apart; {2, 3} ends 5e-5 from
    # {1, 5, 9}, inside one sorted run, but sits 1e-3 away when the tail starts
    t = np.linspace(0.0, 50.0, 101)
    cols = [np.full(t.shape, 1.0 + 0.2 * v) for v in range(10)]
    for v in (0, 4, 8):
        cols[v] = 0.1 * t
    for v in (1, 2):
        cols[v] = 0.1 * t + 5e-5 + 1e-4 * (50.0 - t)
    cols[2] = cols[2] + 2e-9 * np.sin(t)
    return kp.Trajectory(t, np.column_stack(cols))


SYNTHETIC_SYNC_CASES = {
    # the gap shrinks to zero at the last row only
    "close-at-last-row": (
        _synthetic(lambda t: 0.1 * t, lambda t: 0.1 * t + 0.02 * (50.0 - t)),
        {},
    ),
    # equal final phases reached from different histories, and identical columns
    "final-ties": (
        _synthetic(
            lambda t: 0.0 * t,
            lambda t: 1e-3 * (50.0 - t),
            lambda t: 0.0 * t,
            lambda t: 1e-7 * (50.0 - t),
            lambda t: -1e-7 * (50.0 - t),
            lambda t: 0.0 * t + 3.0,
        ),
        {"exact_tol": 1e-6},
    ),
    # six links of 0.6 tol span 3.6 tol: every step below tol, the ends far apart
    "long-chain": (_offsets(*[0.6e-6 * k for k in (6, 0, 3, 1, 5, 2, 4)]), {"exact_tol": 1e-6}),
    # the tail gap stays below tol but grows, so the proxy rejects the pair
    "proxy-rejects": (
        _synthetic(lambda t: 0.1 * t, lambda t: 0.1 * t + 1e-6 * t / 50.0, lambda t: 0.2 * t),
        {},
    ),
    # exact_tol above tol: exact blocks wider than the tail clusters
    "exact-tol-above-tol": (_offsets(0.0, 5e-6, 1e-5, 2e-4), {"tol": 1e-6, "exact_tol": 1e-4}),
    # chained blocks {1, 3, 6, 7} and {2, 4, 5}: block order is not the
    # lexicographic order of their chained pairs
    "interleaved-chains": (
        _offsets(0.0, 1.0, 0.6e-6, 1.0 + 0.6e-6, 1.0 + 1.2e-6, 1.2e-6, 1.8e-6),
        {"exact_tol": 1e-6},
    ),
    "interleaved-blocks": (_interleaved(), {"exact_tol": 1e-6}),
    "one-vertex": (_synthetic(lambda t: 0.3 * t), {}),
    # non-finite final phases never link
    "non-finite": (
        _synthetic(
            lambda t: np.where(t < 50.0, 0.0, math.nan),
            lambda t: np.where(t < 50.0, 0.0, math.nan),
            lambda t: np.where(t < 50.0, 0.0, math.inf),
            lambda t: np.where(t < 50.0, 0.0, math.inf),
            lambda t: np.where(t < 1.0, math.nan, 0.0),
            lambda t: 0.0 * t,
        ),
        {},
    ),
}


def _sync_case(name):
    traj, kw = SYNTHETIC_SYNC_CASES[name]
    with np.errstate(invalid="ignore"):  # nan and inf - inf gaps
        return _assert_sync_matches_oracle(traj, **kw)


class TestSyncOracle:
    @pytest.mark.parametrize("name", sorted(SYNTHETIC_SYNC_CASES))
    def test_synthetic_trajectories_match_all_pairs_oracle(self, name):
        _sync_case(name)

    def test_synthetic_cases_reach_their_branches(self):
        long = _sync_case("long-chain")
        assert long.exact_partition.k == 1 and len(long.chained_pairs) > 6
        proxy = _sync_case("proxy-rejects")
        assert proxy.clusters.k == 3 and proxy.pair_classes == ()
        wide = _sync_case("exact-tol-above-tol")
        assert wide.exact_partition.blocks == ((1, 2, 3), (4,)) and wide.clusters.k == 4
        chains = _sync_case("interleaved-chains")
        assert [p[:2] for p in chains.chained_pairs] == [(1, 6), (1, 7), (3, 7), (2, 5)]
        mixed = _sync_case("interleaved-blocks")
        assert mixed.exact_partition.blocks[:2] == ((1, 5, 9), (2, 3))
        assert mixed.clusters.blocks[:2] == ((1, 5, 9), (2, 3))
        assert [p[:2] for p in mixed.pair_classes] == [(1, 5), (1, 9), (2, 3), (5, 9)]

    def test_random_synthetic_trajectories_match_all_pairs_oracle(self):
        rng = np.random.default_rng(23)
        t = np.linspace(0.0, 50.0, 101)
        for _ in range(60):
            n = int(rng.integers(1, 14))
            levels = rng.integers(0, 4, n) * rng.choice([2e-7, 3e-5, 1e-3])
            noisy = rng.random(n) < 0.4
            states = 0.1 * t[:, None] + levels + noisy * rng.normal(0.0, 1e-7, (t.size, n))
            states += (rng.random(n) < 0.2) * np.exp(-0.3 * t)[:, None] * rng.uniform(0.0, 1e-3, n)
            traj = kp.Trajectory(t, states)
            _assert_sync_matches_oracle(traj, exact_tol=1e-6)
            _assert_sync_matches_oracle(traj, tol=1e-6, exact_tol=1e-4)

    def test_integrator_runs_match_all_pairs_oracle(self):
        rng = np.random.default_rng(31)
        cfg = kp.IntegratorConfig(t_end=30.0)
        grid = np.linspace(0.0, 30.0, 151)
        runs = []
        for _ in range(12):
            g = random_connected_graph(rng, int(rng.integers(3, 11)))
            params = kp.ModelParams(alpha=float(rng.uniform(0.2, 1.4)))
            runs.append((g, rng.uniform(0.0, 2.0 * math.pi, g.n), params))
            pinned = kp.VertexPartition.from_blocks([[1], list(range(2, g.n + 1))])
            blocks = kp.coarsest_equitable_refinement(g, pinned).blocks
            phases = rng.uniform(0.0, 2.0 * math.pi, len(blocks))
            init = np.empty(g.n)
            for phase, block in zip(phases, blocks):
                init[[v - 1 for v in block]] = phase
            runs.append((g, init, params))
            runs.append((g, init + rng.uniform(-1e-5, 1e-5, g.n), params))
        for g, part in (
            kp.linear_family_graph(4),
            kp.linear_family_graph(6),
            kp.latoro_profile_graph(),
            kp.right_angle_profile_graph(),
        ):
            cert = kp.classify_bipartition(g, part).certificate
            start = kp.certificate_to_solution(cert).start
            params = kp.ModelParams(alpha=cert.alpha)
            runs.append((g, start, params))
            runs.append((g, start + rng.uniform(-1e-5, 1e-5, g.n), params))
        listed = 0
        for g, init, params in runs:
            traj = kp.integrate(g, init, params, cfg, t_eval=grid)
            for kw in ({"exact_tol": 1e-6}, {"exact_tol": 1e-8, "tol": 1e-3}):
                listed += len(_assert_sync_matches_oracle(traj, **kw).pair_classes)
            _assert_sync_matches_oracle(traj, short_rows=3, tail_fraction=0.5, exact_tol=1e-6)
        assert listed > 0

    @pytest.mark.parametrize("name", sorted(SYNTHETIC_SYNC_CASES))
    def test_half_tail_leaves_no_rows_before_the_previous_window(self, name):
        # the previous window then starts at the first row
        traj, kw = SYNTHETIC_SYNC_CASES[name]
        with np.errstate(invalid="ignore"):
            _assert_sync_matches_oracle(traj, short_rows=3, tail_fraction=0.5, **kw)

    def test_record_without_a_previous_window(self):
        # the previous window [0.6, 0.8) holds no row, the rows before it only t = 0
        t = np.r_[0.0, np.linspace(0.9, 1.0, 12)]
        cols = [0.1 * t, 0.1 * t + 1e-5 * (1.0 - t), 0.1 * t + 3e-9, 0.1 * t + 1e-3]
        cols.append(cols[3] + np.where(t == 0.0, 1e-3, 0.0))
        traj = kp.Trajectory(t, np.column_stack(cols))
        rep = _assert_sync_matches_oracle(traj, short_rows=4, exact_tol=1e-6)
        assert rep.exact_partition.blocks == ((1, 3), (2,), (4,), (5,))
        assert rep.clusters.blocks == ((1, 2, 3), (4, 5))

    def test_nan_inside_the_tail(self):
        # finite final phases in one sorted run: a NaN in the tail unlinks its
        # vertex, one before the tail splits only the exact partition
        t = np.linspace(0.0, 50.0, 101)
        cols = [0.1 * t, np.where(t == 45.0, math.nan, 0.1 * t), 0.1 * t + 5e-5, 0.1 * t]
        cols[3] = np.where(t == 10.0, math.nan, cols[3])
        traj = kp.Trajectory(t, np.column_stack(cols))
        with np.errstate(invalid="ignore"):
            rep = _assert_sync_matches_oracle(traj)
        assert rep.exact_partition.k == 4
        assert rep.clusters.blocks == ((1, 3, 4), (2,))
        assert math.isnan(rep.tail_max_deviation[1])

    def test_memory_stays_linear_in_n(self):
        # one n x n float64 matrix at n = 3000 would be 72 MB
        n, rows = 3000, 200
        t = np.linspace(0.0, 20.0, rows)
        offsets = np.random.default_rng(3).permutation(n) * 1e-3
        traj = kp.Trajectory(t, 0.1 * t[:, None] + offsets + 1e-4 * np.sin(t)[:, None])
        tracemalloc.start()
        try:
            rep = kp.asymptotic_sync_clusters(traj, exact_tol=1e-6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < traj.states.nbytes
        assert rep.clusters.k == n and rep.pair_classes == ()


def quotient_rhs_slow(gamma, f, alpha):
    k = gamma.k
    out = np.zeros(k)
    for i in range(k):
        for j in range(k):
            out[i] += gamma.gamma[i][j] * math.sin(f[j] - f[i] - alpha)
    return out


class TestRhsOracles:
    def test_quotient_rhs_matches_double_loop(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            g = random_connected_graph(rng, int(rng.integers(2, 12)))
            cut = int(rng.integers(1, g.n + 1))  # cut == n seeds the unit partition
            seed = kp.VertexPartition.from_blocks(
                [b for b in (range(1, cut + 1), range(cut + 1, g.n + 1)) if b]
            )
            part = kp.coarsest_equitable_refinement(g, seed)
            gamma = kp.is_equitable(g, part)
            f = rng.uniform(-3, 3, part.k)
            alpha = float(rng.uniform(0.05, math.pi / 2))
            got = kp.quotient_rhs(gamma, f, alpha)
            assert np.allclose(got, quotient_rhs_slow(gamma, f, alpha), rtol=0, atol=1e-13)
            # a block-constant state moves exactly as its quotient predicts
            cols = [part.index_map()[v] for v in range(1, g.n + 1)]
            full = kp.kuramoto_rhs(g, f[cols], kp.ModelParams(alpha=alpha))
            assert np.allclose(full, got[cols], rtol=0, atol=1e-13)

    @pytest.mark.parametrize(
        "g", [kp.cycle_graph(200), kp.complete_graph(48)], ids=["cycle:200", "complete:48"]
    )
    def test_kuramoto_rhs_matches_slow_on_benchmark_graphs(self, g):
        rng = np.random.default_rng(g.n)
        theta = rng.uniform(0.0, 2 * math.pi, g.n)
        params = kp.ModelParams(alpha=0.7, omega=0.3, coupling=1.7)
        got = kp.kuramoto_rhs(g, theta, params)
        assert np.allclose(got, rhs_slow(g, theta, 0.7, 0.3, 1.7), rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "g", [kp.cycle_graph(200), kp.complete_graph(48)], ids=["cycle:200", "complete:48"]
    )
    def test_kuramoto_rhs_matches_slow_at_large_phases(self, g):
        # simulate-dense drifts to about -4000 rad by t = 100, where one ulp
        # of a phase is about 1e-12; the slow form subtracts phases first
        rng = np.random.default_rng(g.n + 1)
        theta = -4000.0 + rng.uniform(0.0, 2 * math.pi, g.n)
        params = kp.ModelParams(alpha=1.0, omega=0.3, coupling=1.7)
        got = kp.kuramoto_rhs(g, theta, params)
        assert np.allclose(got, rhs_slow(g, theta, 1.0, 0.3, 1.7), rtol=0, atol=1e-12)

    def test_single_vertex_has_no_arcs(self):
        g = kp.Graph(1, ())
        assert dyn._arcs(g)[0].size == 0
        params = kp.ModelParams(alpha=0.7, omega=0.3, coupling=1.7)
        for theta in ([0.0], [-4000.0]):
            got = kp.kuramoto_rhs(g, theta, params)
            assert np.array_equal(got, rhs_slow(g, theta, 0.7, 0.3, 1.7))
        cfg = kp.IntegratorConfig(t_end=2.0, method="rk4", dt=0.5)
        traj = kp.integrate(g, [1.0], params, cfg)
        assert np.allclose(traj.states[:, 0], 1.0 + 0.3 * traj.times, rtol=0, atol=1e-14)

    def test_weighted_quotients_match_double_loop_at_large_phases(self):
        rng = np.random.default_rng(37)
        for _ in range(15):
            g = random_connected_graph(rng, int(rng.integers(2, 12)))
            cut = int(rng.integers(1, g.n + 1))
            seed = kp.VertexPartition.from_blocks(
                [b for b in (range(1, cut + 1), range(cut + 1, g.n + 1)) if b]
            )
            part = kp.coarsest_equitable_refinement(g, seed)
            gamma = kp.is_equitable(g, part)
            f = -4000.0 + rng.uniform(0.0, 2 * math.pi, part.k)
            alpha = float(rng.uniform(0.05, math.pi / 2))
            got = kp.quotient_rhs(gamma, f, alpha)
            assert np.allclose(got, quotient_rhs_slow(gamma, f, alpha), rtol=0, atol=1e-13)
            cols = [part.index_map()[v] for v in range(1, g.n + 1)]
            full = kp.kuramoto_rhs(g, f[cols], kp.ModelParams(alpha=alpha))
            assert np.allclose(full, got[cols], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("f0", [0.4, -3999.3])
    def test_one_block_quotient_with_a_diagonal_gamma(self, f0):
        # complete:48 as one block: every phase moves at -47 sin(alpha)
        gamma = kp.QuotientMatrix(((47,),))
        got = kp.quotient_rhs(gamma, [f0], 1.0)
        assert np.allclose(got, quotient_rhs_slow(gamma, [f0], 1.0), rtol=0, atol=1e-13)
        assert got[0] == pytest.approx(-47 * math.sin(1.0), rel=1e-14)
        full = kp.kuramoto_rhs(kp.complete_graph(48), np.full(48, f0), kp.ModelParams(alpha=1.0))
        assert np.allclose(full, got[0], rtol=0, atol=1e-13)

    @pytest.mark.parametrize(
        "g", [kp.cycle_graph(200), kp.complete_graph(48)], ids=["cycle:200", "complete:48"]
    )
    def test_arcs_sorted_by_dst_then_src_give_one_answer(self, g):
        # the sparse kernel sums in arc order, so the order fixes the bits
        src, dst = dyn._arcs(g)
        assert src.dtype == dst.dtype == np.intp
        assert list(zip(dst.tolist(), src.tolist())) == sorted(
            (v - 1, u - 1) for a, b in g.edges for u, v in ((a, b), (b, a))
        )
        theta = np.random.default_rng(1).uniform(0.0, 2 * math.pi, g.n)
        params = kp.ModelParams(alpha=0.7, omega=0.3, coupling=1.7)
        first = kp.kuramoto_rhs(g, theta, params)
        for _ in range(3):
            assert np.array_equal(kp.kuramoto_rhs(g, theta, params), first)
        assert np.array_equal(first, graph_rhs_slow(g, params)(theta))

    @pytest.mark.parametrize("extra", [0.02, 0.6], ids=["sparse", "dense"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_arcs_match_edge_loop(self, extra, seed):
        # the arcs are the nonzero entries of the adjacency matrix built one
        # edge at a time, in row-major (dst, src) order
        g = random_connected_graph(np.random.default_rng(seed), 40, extra=extra)
        src, dst = dyn._arcs(g)
        a = adjacency_matrix_slow(g)
        want_dst, want_src = np.nonzero(a)
        assert np.array_equal(dst, want_dst) and np.array_equal(src, want_src)
        # a fresh pair of arrays each call
        again = dyn._arcs(g)
        assert not np.shares_memory(src, again[0]) and not np.shares_memory(dst, again[1])
        theta = np.random.default_rng(seed).uniform(0.0, 2 * math.pi, g.n)
        params = kp.ModelParams(alpha=0.7, omega=0.3, coupling=1.7)
        assert np.array_equal(kp.kuramoto_rhs(g, theta, params), graph_rhs_slow(g, params)(theta))


def _random_dense_graph(seed):
    return random_connected_graph(np.random.default_rng(seed), 30, extra=0.6)


def _discrete_quotient(g):
    # every vertex its own block: gamma is the adjacency, so the quotient
    # system has as many arcs, dense or sparse, as the graph itself
    part = kp.VertexPartition.from_blocks([v] for v in range(1, g.n + 1))
    return kp.is_equitable(g, part)


class TestNeighbourSumKernels:
    @pytest.mark.parametrize(
        "g",
        [kp.cycle_graph(200), kp.complete_graph(48)] + [_random_dense_graph(s) for s in (41, 42)],
        ids=["cycle:200", "complete:48", "random-dense-41", "random-dense-42"],
    )
    @pytest.mark.parametrize("offset", [0.0, -4000.0], ids=["near-0", "near-minus-4000"])
    def test_both_kernels_match_slow_forms(self, g, offset):
        rng = np.random.default_rng(g.n + len(g.edges))
        theta = offset + rng.uniform(0.0, 2 * math.pi, g.n)
        params = kp.ModelParams(alpha=1.0, omega=0.3, coupling=1.7)
        got = kp.kuramoto_rhs(g, theta, params)
        assert np.allclose(got, rhs_slow(g, theta, 1.0, 0.3, 1.7), rtol=0, atol=1e-12)
        gamma = _discrete_quotient(g)
        got = kp.quotient_rhs(gamma, theta, 1.0)
        assert np.allclose(got, quotient_rhs_slow(gamma, theta, 1.0), rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "g, dense",
        [
            (kp.cycle_graph(200), False),
            (kp.cycle_graph(2000), False),
            (kp.complete_graph(48), True),
            (_random_dense_graph(41), True),
            (_random_dense_graph(42), True),
        ],
        ids=["cycle:200", "cycle:2000", "complete:48", "random-dense-41", "random-dense-42"],
    )
    def test_rule_picks_the_kernel(self, g, dense):
        assert dyn._dense_sums(dyn._arcs(g)[0].size, g.n) is dense

    def test_dense_rhs_reuses_the_matrix(self):
        # integration calls one f many times: only building it pays for W
        g = kp.complete_graph(200)
        theta = np.random.default_rng(4).uniform(0.0, 2 * math.pi, g.n)
        rhs = dyn._graph_rhs(g, kp.ModelParams(alpha=0.7))  # builds W, 320 kB
        first = rhs(theta)
        tracemalloc.start()
        try:
            second = rhs(theta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * g.n * g.n // 4
        assert np.array_equal(first, second)

    def test_rule_asks_more_arcs_once_the_matrix_leaves_cache(self):
        n = dyn.DENSE_CACHED_N
        assert dyn._dense_sums(n * n // 20, n)
        assert not dyn._dense_sums((n + 1) ** 2 // 20, n + 1)
        assert dyn._dense_sums((n + 1) ** 2 // 8, n + 1)

    def test_sparse_rhs_allocates_nothing_of_order_n_squared(self):
        g = kp.cycle_graph(20_000)
        theta = np.random.default_rng(3).uniform(0.0, 2 * math.pi, g.n)
        params = kp.ModelParams(alpha=0.7)
        tracemalloc.start()
        try:
            kp.kuramoto_rhs(g, theta, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # n^2 float64 would be 3.2 GB; the arc kernel peaks near 12 n float64
        assert peak < 32 * 8 * g.n


def _random_sparse_graph(seed):
    return random_connected_graph(np.random.default_rng(seed), 100, extra=0.01)


def _weighted_ring_quotient(k):
    # block i pulls i + 1 with weight 2 and i - 1 with weight 3: 2k arcs
    # with unequal weights, few enough for the arc kernel
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        rows[i][(i + 1) % k], rows[i][(i - 1) % k] = 2, 3
    return kp.QuotientMatrix(tuple(map(tuple, rows)))


def _init(n, seed):
    return np.random.default_rng(seed).uniform(0.0, 2 * math.pi, n)


# (graph or quotient, parameters or alpha, config, t_eval); each runs
# through integrate or integrate_quotient and through the slow oracle
_SLOW_ORACLE_CASES = {
    "complete:48": (
        kp.complete_graph(48), kp.ModelParams(alpha=1.0), kp.IntegratorConfig(t_end=100.0), None
    ),
    "cycle:200": (
        kp.cycle_graph(200), kp.ModelParams(alpha=0.7), kp.IntegratorConfig(t_end=10.0), None
    ),
    "random-dense": (
        _random_dense_graph(43), kp.ModelParams(alpha=0.9), kp.IntegratorConfig(t_end=5.0), None
    ),
    "random-sparse": (
        _random_sparse_graph(44), kp.ModelParams(alpha=0.9), kp.IntegratorConfig(t_end=5.0), None
    ),
    "quotient-dense": (
        kp.QuotientMatrix(((0, 6), (1, 0))), 0.7, kp.IntegratorConfig(t_end=3.0), None
    ),
    "quotient-sparse": (_weighted_ring_quotient(60), 0.8, kp.IntegratorConfig(t_end=3.0), None),
    "t_eval": (
        kp.petersen_graph(),
        kp.ModelParams(alpha=0.9),
        kp.IntegratorConfig(t_end=8.0),
        np.linspace(0.0, 8.0, 17),
    ),
    "record_every=3": (
        kp.complete_graph(48),
        kp.ModelParams(alpha=1.0),
        kp.IntegratorConfig(t_end=5.0, record_every=3),
        None,
    ),
    "omega-coupling": (
        _random_dense_graph(45),
        kp.ModelParams(alpha=0.6, omega=0.3, coupling=1.7),
        kp.IntegratorConfig(t_end=5.0),
        None,
    ),
    "sparse-omega-coupling-tols": (
        kp.cycle_graph(200),
        kp.ModelParams(alpha=0.7, omega=0.3, coupling=1.7),
        kp.IntegratorConfig(t_end=10.0, rel_tol=1e-11, abs_tol=1e-13),
        None,
    ),
    "omega=-0.0": (
        kp.complete_graph(48),
        kp.ModelParams(alpha=1.0, omega=-0.0),
        kp.IntegratorConfig(t_end=5.0),
        None,
    ),
    "rk4": (
        kp.complete_graph(48),
        kp.ModelParams(alpha=1.0, omega=-0.2, coupling=0.8),
        kp.IntegratorConfig(t_end=5.0, method="rk4", dt=0.05, record_every=2),
        None,
    ),
    "rk4-quotient": (
        _weighted_ring_quotient(60),
        0.8,
        kp.IntegratorConfig(t_end=2.0, method="rk4", dt=0.1),
        None,
    ),
    "rk4-shorter-last-step": (
        kp.petersen_graph(),
        kp.ModelParams(alpha=0.9),
        kp.IntegratorConfig(t_end=1.0, method="rk4", dt=0.3),
        None,
    ),
    "rk4-remainder-within-tolerance": (
        kp.petersen_graph(),
        kp.ModelParams(alpha=0.9),
        kp.IntegratorConfig(t_end=0.3, method="rk4", dt=0.1),
        None,
    ),
    "rk4-record_every=3": (
        kp.petersen_graph(),
        kp.ModelParams(alpha=0.9),
        kp.IntegratorConfig(t_end=1.0, method="rk4", dt=0.05, record_every=3),
        None,
    ),
    "rk4-horizon-below-tolerance": (
        kp.petersen_graph(),
        kp.ModelParams(alpha=0.9),
        kp.IntegratorConfig(t_end=1e-13, method="rk4", dt=0.1),
        None,
    ),
}


class TestIntegratorMatchesSlowOracle:
    @pytest.mark.parametrize("name", list(_SLOW_ORACLE_CASES))
    def test_times_states_and_stats_bit_identical(self, name):
        system, params, cfg, t_eval = _SLOW_ORACLE_CASES[name]
        if isinstance(system, kp.QuotientMatrix):
            init = _init(system.k, system.k)
            got = kp.integrate_quotient(system, init, params, cfg, t_eval)
            want = integrate_slow(gamma_rhs_slow(system, params), init, cfg, t_eval)
        else:
            init = _init(system.n, system.n)
            got = kp.integrate(system, init, params, cfg, t_eval)
            want = integrate_slow(graph_rhs_slow(system, params), init, cfg, t_eval)
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.states, want.states)
        assert got.stats == want.stats
        # only the horizon below rk4's step tolerance takes no step
        assert (got.stats.accepted == 0) == (name == "rk4-horizon-below-tolerance")

    @pytest.mark.parametrize(
        "g, params, cfg, init, budget",
        [
            # coupling 1e308 overflows the stage sums to a NaN error norm,
            # which rejects every step until the step underflows
            (
                kp.complete_graph(4),
                kp.ModelParams(alpha=0.5, coupling=1e308),
                kp.IntegratorConfig(t_end=1.0),
                [0.0, 1.0, 2.0, 3.0],
                None,
            ),
            (
                kp.cycle_graph(4),
                kp.ModelParams(alpha=0.5),
                kp.IntegratorConfig(t_end=1.0, rel_tol=1e-300, abs_tol=1e-320),
                [0.0, 1.3, 2.1, 0.4],
                None,
            ),
            (
                kp.cycle_graph(4),
                kp.ModelParams(alpha=0.5),
                kp.IntegratorConfig(t_end=1.0),
                [0.0, 1.3, 2.1, 0.4],
                5,
            ),
        ],
        ids=["nan-error-norm", "step-underflow", "step-budget"],
    )
    def test_failures_match(self, monkeypatch, g, params, cfg, init, budget):
        if budget is not None:
            monkeypatch.setattr(dyn, "MAX_ADAPTIVE_STEPS", budget)
        failures = []
        for run in (
            lambda: kp.integrate(g, init, params, cfg),
            lambda: integrate_slow(graph_rhs_slow(g, params), init, cfg),
        ):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(kp.KurapartError) as exc:
                    run()
            failures.append((type(exc.value), str(exc.value)))
        assert failures[0] == failures[1]
        assert failures[0][0] is kp.StepUnderflowError

    @pytest.mark.parametrize(
        "name, dense",
        [
            ("complete:48", True),
            ("cycle:200", False),
            ("random-dense", True),
            ("random-sparse", False),
            ("sparse-omega-coupling-tols", False),
            ("quotient-dense", True),
            ("quotient-sparse", False),
        ],
    )
    def test_cases_cover_both_kernels(self, name, dense):
        system = _SLOW_ORACLE_CASES[name][0]
        if isinstance(system, kp.QuotientMatrix):
            n_arcs, n = int(np.count_nonzero(system.gamma)), system.k
        else:
            n_arcs, n = dyn._arcs(system)[0].size, system.n
        assert dyn._dense_sums(n_arcs, n) is dense


class TestRhsBuffers:
    @pytest.mark.parametrize(
        "g", [kp.complete_graph(48), kp.cycle_graph(200)], ids=["complete:48", "cycle:200"]
    )
    def test_fresh_result_per_call_without_out(self, g):
        params = kp.ModelParams(alpha=0.7, omega=0.3, coupling=1.7)
        rhs = dyn._graph_rhs(g, params)
        theta_a, theta_b = _init(g.n, 1), _init(g.n, 2)
        a = rhs(theta_a)
        b = rhs(theta_b)
        assert a is not b and not np.shares_memory(a, b)
        # the second call left the first result alone
        assert np.array_equal(a, kp.kuramoto_rhs(g, theta_a, params))
        assert np.array_equal(b, kp.kuramoto_rhs(g, theta_b, params))
        assert np.allclose(a, rhs_slow(g, theta_a, 0.7, 0.3, 1.7), rtol=0, atol=1e-12)

    def test_out_receives_the_result(self):
        g = kp.complete_graph(48)
        params = kp.ModelParams(alpha=0.7)
        rhs = dyn._graph_rhs(g, params)
        theta = _init(g.n, 3)
        out = np.full(g.n, np.nan)
        assert rhs(theta, out) is out
        assert np.array_equal(out, kp.kuramoto_rhs(g, theta, params))

    def test_lifted_derivatives_are_the_quotient_rhs_of_each_state(self):
        g, part = kp.star_graph(4)
        gamma = kp.is_equitable(g, part)
        qt = kp.integrate_quotient(gamma, [0.0, 1.0], 0.7, kp.IntegratorConfig(t_end=3.0))
        lifted = kp.lift_quotient_trajectory(part, qt, gamma=gamma, alpha=0.7)
        cols = [part.index_map()[v] for v in range(1, g.n + 1)]
        assert qt.n_recorded > 2
        for state, deriv in zip(qt.states, lifted.derivatives):
            assert np.array_equal(deriv, kp.quotient_rhs(gamma, state, 0.7)[cols])

    def test_step_underflow_restores_the_error_state(self):
        g = kp.cycle_graph(4)
        cfg = kp.IntegratorConfig(t_end=1.0, rel_tol=1e-300, abs_tol=1e-320)
        init = np.array([0.0, 1.3, 2.1, 0.4])
        with np.errstate(over="raise"):
            before = np.geterr()
            with pytest.raises(kp.StepUnderflowError):
                kp.integrate(g, init, kp.ModelParams(alpha=0.5), cfg)
            assert np.geterr() == before


def _refuse_np_dot(*args, **kwargs):
    raise AssertionError("np.dot called on the hot path")


class TestNoDispatchedDot:
    """The step loop and both kernels multiply through bound ndarray.dot
    methods: with np.dot refused they run and give the same bits."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: kp.integrate(
                kp.complete_graph(48), _init(48, 1), kp.ModelParams(alpha=1.0),
                kp.IntegratorConfig(t_end=5.0),
            ),
            lambda: kp.integrate(
                kp.complete_graph(48), _init(48, 2), kp.ModelParams(alpha=1.0, omega=0.3),
                kp.IntegratorConfig(t_end=2.0, method="rk4", dt=0.05),
            ),
            lambda: kp.integrate(
                kp.cycle_graph(200), _init(200, 3), kp.ModelParams(alpha=0.7),
                kp.IntegratorConfig(t_end=2.0),
            ),
            lambda: kp.integrate_quotient(
                kp.QuotientMatrix(((0, 6), (1, 0))), [0.0, 1.0], 0.7,
                kp.IntegratorConfig(t_end=3.0),
            ),
            lambda: kp.kuramoto_rhs(
                kp.complete_graph(48), _init(48, 4), kp.ModelParams(alpha=0.7, coupling=1.7)
            ),
        ],
        ids=["complete:48-rk45", "complete:48-rk4", "cycle:200", "integrate_quotient",
             "kuramoto_rhs"],
    )
    def test_runs_with_np_dot_refused(self, monkeypatch, call):
        want = call()
        monkeypatch.setattr(np, "dot", _refuse_np_dot)
        got = call()
        if isinstance(want, kp.Trajectory):
            assert np.array_equal(got.times, want.times)
            assert got.stats == want.stats
            got, want = got.states, want.states
        assert np.array_equal(got, want)


class TestIntegratorOracles:
    def test_rk45_is_fsal_six_calls_per_attempt(self):
        f, addresses = _stage_row_recorder(kp.cycle_graph(6))
        cfg = kp.IntegratorConfig(t_end=5.0, rel_tol=1e-12, abs_tol=1e-14)
        init = np.array([0.0, 1.3, 2.1, 0.4, 2.9, 5.0])
        times, _, _ = dyn._rk_path(f, init, cfg, None)
        attempts = _attempts(addresses, 6)
        assert attempts > len(times) - 1  # at least one step was rejected
        assert len(addresses) == 1 + 6 * attempts

    def test_rk45_matches_scipy_dop853(self):
        integrate_mod = pytest.importorskip("scipy.integrate")
        g = kp.petersen_graph()
        rng = np.random.default_rng(11)
        init = rng.uniform(0.0, 2 * math.pi, g.n)
        params = kp.ModelParams(alpha=0.9, omega=0.3, coupling=1.3)
        grid = np.linspace(0.0, 8.0, 17)
        cfg = kp.IntegratorConfig(t_end=8.0, rel_tol=1e-11, abs_tol=1e-13)
        ours = kp.integrate(g, init, params, cfg, t_eval=grid)
        ref = integrate_mod.solve_ivp(
            lambda t, y: rhs_slow(g, y, 0.9, 0.3, 1.3),
            (0.0, 8.0),
            init,
            method="DOP853",
            rtol=1e-12,
            atol=1e-14,
            t_eval=grid,
        )
        assert ref.success
        assert np.abs(ours.states - ref.y.T).max() < 1e-8

    def test_rk45_matches_scipy_dop853_on_complete_48(self):
        integrate_mod = pytest.importorskip("scipy.integrate")
        g = kp.complete_graph(48)
        rng = np.random.default_rng(48)
        init = rng.uniform(0.0, 2 * math.pi, g.n)
        params = kp.ModelParams(alpha=1.0)
        grid = np.linspace(0.0, 0.5, 6)
        cfg = kp.IntegratorConfig(t_end=0.5, rel_tol=1e-11, abs_tol=1e-13)
        ours = kp.integrate(g, init, params, cfg, t_eval=grid)
        ref = integrate_mod.solve_ivp(
            lambda t, y: rhs_slow(g, y, 1.0),
            (0.0, 0.5),
            init,
            method="DOP853",
            rtol=1e-12,
            atol=1e-14,
            t_eval=grid,
        )
        assert ref.success
        assert np.abs(ours.states - ref.y.T).max() < 1e-8

    @pytest.mark.parametrize(
        "t_end, dt, every, times",
        [
            (1.0, 0.25, 1, [0.0, 0.25, 0.5, 0.75, 1.0]),
            (1.0, 0.3, 1, [0.0, 0.3, 0.6, 0.8999999999999999, 1.0]),
            (1.0, 0.1, 3, [0.0, 0.30000000000000004, 0.6000000000000001, 0.9, 1.0]),
            (0.95, 0.2, 2, [0.0, 0.4, 0.8, 0.95]),
            (0.3, 0.1, 1, [0.0, 0.1, 0.2, 0.3]),
            (0.7, 0.1, 4, [0.0, 0.4, 0.7]),
            (1e-12, 0.5, 1, [0.0, 1e-12]),
            (0.0, 0.1, 1, [0.0]),
        ],
    )
    def test_rk4_recorded_times_pinned(self, t_end, dt, every, times):
        # values recorded by the 0.1.0 integrator, compared exactly
        cfg = kp.IntegratorConfig(t_end=t_end, method="rk4", dt=dt, record_every=every)
        init = np.array([0.0, 1.3, 2.1, 0.4])
        traj = kp.integrate(kp.cycle_graph(4), init, kp.ModelParams(alpha=0.5), cfg)
        assert traj.times.tolist() == times
        if t_end < 1e-9 * dt:
            assert np.array_equal(traj.final_state(), init)
