"""Acceptance gate: twelve checks, one printed PASS/FAIL line each.

Each check pins exact values or tolerances stated in the package contract.
Run with -rA (configured in pyproject) so the printed lines surface even
for passing tests.
"""

import math
import time
from fractions import Fraction

import numpy as np

import kurapart as kp
from kurapart.cli import main as cli_main
from oracle_tools import (
    coarsest_equitable_slow,
    orbit_partitions_slow,
    random_connected_graph,
    search_report_rows,
)


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"criterion {num}: {label}: {detail}"


def test_criterion_01_linear_family_exact_parameters():
    t0 = time.perf_counter()
    ok = True
    seen = []
    for p in (4, 6, 8):
        g, bip = kp.linear_family_graph(p)
        res = kp.classify_bipartition(g, bip)
        c = res.certificate
        good = (
            res.classification is kp.Classification.CONDITION2_UNIQUE
            and c is not None
            and (c.mu1, c.mu2, c.r) == (Fraction(-2, p), Fraction(-1), Fraction(-2))
        )
        ok = ok and good
        seen.append(f"p={p}:{c.mu1 if c else '?'},{c.mu2 if c else '?'},{c.r if c else '?'}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(1, "linear family exact gains", ok, "; ".join(seen) + f"; {elapsed:.2f}s")


def test_criterion_02_alpha_formula():
    t0 = time.perf_counter()
    gap1 = abs(kp.alpha_from_mu(Fraction(-1, 2), Fraction(-1)).value - math.atan(math.sqrt(7.0)))
    worst = gap1
    for p in (4, 6, 8):
        value = kp.alpha_from_mu(Fraction(-2, p), Fraction(-1)).value
        formula = math.atan(math.sqrt(3 * p * p - 4 * p - 4) / (p - 2))
        worst = max(worst, abs(value - formula))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(2, "lag angle formula", ok, f"worst gap={worst:.3g}; {elapsed:.2f}s")


def test_criterion_03_beta_offset_boundary():
    t0 = time.perf_counter()
    beta = kp.beta_from_mu(Fraction(1, 2), Fraction(1, 2))
    alpha_res = kp.alpha_from_mu(Fraction(1, 2), Fraction(1, 2))
    offset = alpha_res.value + beta
    ok = (
        abs(beta - math.pi / 6) <= 1e-12
        and abs(offset - 2 * math.pi / 3) <= 1e-12
        and alpha_res.mu_equal
        and alpha_res.value == math.pi / 2
    )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(
        3,
        "offset angle and right-angle flag",
        ok,
        f"beta={beta:.12f} offset={offset:.12f} flag={alpha_res.mu_equal}; {elapsed:.2f}s",
    )


def test_criterion_04_closed_form_residuals():
    t0 = time.perf_counter()
    grid = np.linspace(0.0, 10.0, 101)
    worst = 0.0
    cases = [kp.linear_family_graph(p) for p in (4, 6, 8)]
    cases.append(kp.latoro_profile_graph())
    for g, bip in cases:
        cert = kp.classify_bipartition(g, bip).certificate
        worst = max(worst, kp.verify_certificate(g, bip, cert, grid=grid))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(4, "closed form residuals", ok, f"worst={worst:.3g}; {elapsed:.2f}s")


def test_criterion_05_quotient_lifting():
    t0 = time.perf_counter()
    star, star_part = kp.star_graph(6)
    c6 = kp.cycle_graph(6)
    anti = kp.VertexPartition.from_blocks([[1, 4], [2, 3, 5, 6]])
    lin, lin_bip = kp.linear_family_graph(4)
    single = kp.VertexPartition.from_blocks([list(range(1, lin.n + 1))])
    refined = kp.coarsest_equitable_refinement(lin, single)
    cases = [
        (star, star_part, [0.0, 1.0]),
        (c6, anti, [0.0, 1.0]),
        (lin, refined, [0.0, 1.0, 2.0]),
    ]
    worst = 0.0
    for g, part, init in cases:
        gamma = kp.is_equitable(g, part)
        cfg = kp.IntegratorConfig(t_end=10.0, rel_tol=1e-9)
        qt = kp.integrate_quotient(gamma, np.array(init), 0.7, cfg)
        lifted = kp.lift_quotient_trajectory(part, qt, gamma=gamma, alpha=0.7)
        full = kp.integrate(
            g, lifted.initial_state(), kp.ModelParams(alpha=0.7), cfg, t_eval=qt.times
        )
        worst = max(worst, float(np.abs(full.states - lifted.states).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    _report(5, "quotient lifting", ok, f"worst deviation={worst:.3g}; {elapsed:.2f}s")


def test_criterion_06_regular_graph_solution():
    t0 = time.perf_counter()
    grid = np.linspace(0.0, 10.0, 101)
    worst_resid = 0.0
    worst_dev = 0.0
    for g, d in ((kp.cycle_graph(4), 2), (kp.complete_graph(4), 3)):
        for alpha in (0.3, 0.7, 1.2):
            params = kp.ModelParams(alpha=alpha)
            analytic = kp.analytic_regular_solution(d, alpha, g.n, grid)
            worst_resid = max(worst_resid, kp.residual_max(g, analytic, params))
            traj = kp.integrate(
                g, np.zeros(g.n), params, kp.IntegratorConfig(t_end=10.0), t_eval=grid
            )
            worst_dev = max(worst_dev, float(np.abs(traj.states - analytic.states).max()))
    elapsed = time.perf_counter() - t0
    ok = worst_resid <= 1e-14 and worst_dev <= 1e-8 and elapsed < 5.0
    _report(
        6,
        "regular graph drift solution",
        ok,
        f"residual={worst_resid:.3g} deviation={worst_dev:.3g}; {elapsed:.2f}s",
    )


def test_criterion_07_refinement_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    checked = 0
    ok = True
    for _ in range(200):
        g = random_connected_graph(rng, int(rng.integers(2, 7)))
        single = kp.VertexPartition.from_blocks([list(range(1, g.n + 1))])
        fast = kp.coarsest_equitable_refinement(g, single)
        slow = coarsest_equitable_slow(g)
        ok = ok and fast == slow
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and checked == 200 and elapsed < 60.0
    _report(7, "refinement matches brute force", ok, f"{checked} graphs; {elapsed:.2f}s")


def test_criterion_08_orbit_implies_equitable():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4096)
    graphs = 0
    partitions = 0
    ok = True
    for _ in range(100):
        g = random_connected_graph(rng, int(rng.integers(2, 8)))
        for part in orbit_partitions_slow(g):
            ok = ok and kp.is_equitable(g, part) is not None
            partitions += 1
        graphs += 1
    elapsed = time.perf_counter() - t0
    ok = ok and graphs == 100 and elapsed < 60.0
    _report(
        8,
        "orbit partitions are equitable",
        ok,
        f"{graphs} graphs, {partitions} orbit partitions; {elapsed:.2f}s",
    )


def test_criterion_09_identity_suite():
    t0 = time.perf_counter()
    certs = []
    g4, _ = kp.linear_family_graph(4)
    for row in search_report_rows(kp.search_all_bipartitions(g4)):
        if row.certificate is not None:
            certs.append(row.certificate)
    for g, bip in (kp.latoro_profile_graph(), kp.right_angle_profile_graph()):
        c = kp.classify_bipartition(g, bip).certificate
        if c is not None:
            certs.append(c)
    worst = 0.0
    for c in certs:
        m1, m2 = float(c.mu1), float(c.mu2)
        worst = max(
            worst,
            abs(m1 + m2 + 2 * math.cos(c.alpha + c.beta)),
            abs(m1 * math.sin(c.alpha) - math.sin(c.beta)),
            abs(m2 * math.sin(c.alpha) + math.sin(2 * c.alpha + c.beta)),
        )
    elapsed = time.perf_counter() - t0
    ok = len(certs) > 0 and worst <= 1e-12 and elapsed < 1.0
    _report(
        9,
        "certificate identities",
        ok,
        f"{len(certs)} certificates, worst gap={worst:.3g}; {elapsed:.2f}s",
    )


def test_criterion_10_sync_detection():
    t0 = time.perf_counter()
    star, star_part = kp.star_graph(6)
    gamma = kp.is_equitable(star, star_part)
    cfg = kp.IntegratorConfig(t_end=10.0)
    qt = kp.integrate_quotient(gamma, np.array([0.0, 1.0]), 0.7, cfg)
    lifted = kp.lift_quotient_trajectory(star_part, qt, gamma=gamma, alpha=0.7)
    star_blocks = kp.asymptotic_sync_clusters(lifted).exact_partition.blocks
    star_ok = star_blocks == ((1,), (2, 3, 4, 5, 6, 7))

    g4, bip4 = kp.linear_family_graph(4)
    cert = kp.classify_bipartition(g4, bip4).certificate
    cert_traj = kp.certificate_to_solution(cert).sample(np.linspace(0.0, 50.0, 501))
    cert_blocks = kp.asymptotic_sync_clusters(cert_traj).exact_partition.blocks
    cert_ok = cert_blocks == ((1,), tuple(range(2, 10)))

    rep = kp.asymptotic_sync_clusters(cert_traj, tail_fraction=0.2, tol=1e-4)
    cluster_of = {}
    for idx, block in enumerate(rep.clusters.blocks):
        for v in block:
            cluster_of[v] = idx
    offset_ok = cluster_of[1] != cluster_of[2]
    labels = {(i, j): lab for i, j, lab, _ in rep.pair_classes}
    offset_ok = offset_ok and (1, 2) not in labels
    offset_ok = offset_ok and labels[(2, 3)] == "synchronised"

    elapsed = time.perf_counter() - t0
    ok = star_ok and cert_ok and offset_ok and elapsed < 5.0
    _report(
        10,
        "sync detection",
        ok,
        f"star={star_ok} certificate={cert_ok} offset_pairs={offset_ok}; {elapsed:.2f}s",
    )


def test_criterion_11_rk4_order():
    t0 = time.perf_counter()
    g = kp.cycle_graph(4)
    init = np.array([0.0, 1.3, 2.1, 0.4])
    params = kp.ModelParams(alpha=0.7)
    ref = kp.integrate(
        g, init, params, kp.IntegratorConfig(t_end=10.0, rel_tol=1e-12, abs_tol=1e-14)
    ).final_state()
    errors = []
    for dt in (0.1, 0.05):
        cfg = kp.IntegratorConfig(t_end=10.0, method="rk4", dt=dt)
        final = kp.integrate(g, init, params, cfg).final_state()
        errors.append(float(np.abs(final - ref).max()))
    ratio = errors[0] / errors[1]
    elapsed = time.perf_counter() - t0
    ok = 12.0 <= ratio <= 20.0 and elapsed < 5.0
    _report(11, "fourth order convergence", ok, f"error ratio={ratio:.2f}; {elapsed:.2f}s")


def test_criterion_12_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    code1 = cli_main(["search", "--builtin", "linear:4", "--jobs", "1", "--out", str(a)])
    code2 = cli_main(["search", "--builtin", "linear:4", "--jobs", "4", "--out", str(b)])
    rows = len(a.read_text().strip().splitlines()) - 1  # summary line
    identical = a.read_bytes() == b.read_bytes()
    elapsed = time.perf_counter() - t0
    ok = code1 == 0 and code2 == 0 and identical and rows == 255 and elapsed < 10.0
    _report(
        12,
        "search determinism across workers",
        ok,
        f"identical={identical} rows={rows}; {elapsed:.2f}s",
    )
