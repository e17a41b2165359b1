import concurrent.futures
import hashlib
import itertools
import json
import math
import os
from array import array
from fractions import Fraction

import numpy as np
import pytest

import kurapart as kp
from kurapart import bipartition_analysis as ban
from kurapart import graph_core as gc
from oracle_tools import (
    adjacency_sets,
    bipartition_from_mask,
    condition2_rows,
    condition2_solution_slow,
    enumerate_bipartitions,
    format_search_report_slow,
    gauss_jordan_slow,
    is_equitable_slow,
    line_family_slow,
    random_connected_graph,
    residual_max_slow,
    search_batch_slow,
    search_report_rows,
    search_rows_slow,
    search_tree_slow,
    solve_rows_batch,
)


def named_graphs():
    return [
        kp.linear_family_graph(4)[0],
        kp.latoro_profile_graph()[0],
        kp.right_angle_profile_graph()[0],
        kp.star_graph(6)[0],
        kp.petersen_graph(),
        kp.cycle_graph(10),
        kp.complete_graph(6),
        kp.path_graph(7),
    ]


def assert_matches_oracle(g, bip):
    """The classifier's solution set equals the Gauss-Jordan oracle's, types included."""
    got = kp.classify_bipartition(g, bip).solution_set
    want = condition2_solution_slow(g, bip.blocks)
    assert got == want
    assert repr(got) == repr(want)
    return got


def rows_by_vertex(g, bip):
    return dict(zip(bip.blocks[0] + bip.blocks[1], condition2_rows(g, bip.blocks)))


class TestSystemConstruction:
    def test_linear_p4_rows(self):
        g, bip = kp.linear_family_graph(4)
        rows = rows_by_vertex(g, bip)
        assert len(rows) == 9
        assert rows[1] == (4, 0, 0)
        assert rows[2] == (0, 1, 1)
        assert rows[6] == (0, 0, 2)
        assert_matches_oracle(g, bip)

    def test_rows_match_slow_counts(self):
        # the oracle's rows are the library's count table, read per block
        rng = np.random.default_rng(3)
        for _ in range(25):
            g = random_connected_graph(rng, int(rng.integers(2, 8)))
            for bip in enumerate_bipartitions(g):
                counts = gc._block_counts(g, bip)[0]
                rows = rows_by_vertex(g, bip)
                for v in bip.blocks[0]:
                    d_in, d_cross = counts[v - 1]
                    assert rows[v] == (d_cross, 0, d_in)
                for v in bip.blocks[1]:
                    d_cross, d_in = counts[v - 1]
                    assert rows[v] == (0, d_cross, d_in)
                assert_matches_oracle(g, bip)

    def test_requires_two_blocks(self):
        g = kp.cycle_graph(4)
        for blocks in ([[1], [2], [3, 4]], [[1, 2, 3, 4]]):
            with pytest.raises(kp.NotBipartitionError):
                kp.classify_bipartition(g, kp.VertexPartition.from_blocks(blocks))


class TestSolver:
    def check_membership(self, g, bip, sol):
        """Every reported generator must satisfy the oracle's rows exactly."""
        points = [sol.basepoint]
        for d in sol.directions:
            points.append(tuple(b + x for b, x in zip(sol.basepoint, d)))
        for m1, m2, r in points:
            for c_mu1, c_mu2, rhs in condition2_rows(g, bip.blocks):
                assert c_mu1 * m1 + c_mu2 * m2 - r == rhs

    def test_point_case(self):
        g, bip = kp.linear_family_graph(4)
        sol = assert_matches_oracle(g, bip)
        assert sol.kind == "point" and sol.dim == 0
        assert sol.basepoint == (Fraction(-1, 2), Fraction(-1), Fraction(-2))
        self.check_membership(g, bip, sol)

    def test_line_case_two_vertices(self):
        g = kp.path_graph(2)
        bip = kp.VertexPartition.from_blocks([[1], [2]])
        sol = assert_matches_oracle(g, bip)
        assert sol.kind == "line" and sol.dim == 1
        self.check_membership(g, bip, sol)
        # the line is mu1 = mu2 = r
        d = sol.directions[0]
        assert d[0] == d[1] == d[2] != 0

    def test_empty_case(self):
        g = kp.path_graph(5)
        bip = kp.VertexPartition.from_blocks([[1], [2, 3, 4, 5]])
        sol = assert_matches_oracle(g, bip)
        assert sol.kind == "empty"
        assert sol.dim == -1

    def test_solution_sets_verified_exactly(self):
        rng = np.random.default_rng(5)
        graphs = named_graphs()
        for _ in range(300):
            n = int(rng.integers(2, 10))
            graphs.append(random_connected_graph(rng, n, extra=float(rng.uniform(0.0, 1.0))))
        kinds = set()
        for g in graphs:
            for bip in enumerate_bipartitions(g):
                sol = assert_matches_oracle(g, bip)
                kinds.add(sol.kind)
                if sol.kind != "empty":
                    self.check_membership(g, bip, sol)
        assert kinds == {"empty", "point", "line"}


class TestAngles:
    def test_alpha_latoro_value(self):
        res = kp.alpha_from_mu(Fraction(-1, 2), Fraction(-1))
        assert abs(res.value - math.atan(math.sqrt(7.0))) <= 1e-12
        assert not res.mu_equal and not res.sum_at_limit

    def test_alpha_accepts_strings_and_ints(self):
        a = kp.alpha_from_mu("-1/2", -1)
        b = kp.alpha_from_mu(Fraction(-1, 2), Fraction(-1))
        assert a.value == b.value
        with pytest.raises(kp.BadParameterError):
            kp.alpha_from_mu(0.5, 0.25)

    def test_alpha_rejects_wrong_order(self):
        with pytest.raises(kp.InfeasibleMuError):
            kp.alpha_from_mu(-1, Fraction(-1, 2))

    def test_alpha_rejects_sum_out_of_range(self):
        with pytest.raises(kp.InfeasibleMuError):
            kp.alpha_from_mu(Fraction(3, 2), Fraction(3, 2))

    def test_alpha_equal_mu_is_right_angle(self):
        res = kp.alpha_from_mu(Fraction(1, 2), Fraction(1, 2))
        assert res.value == math.pi / 2
        assert res.mu_equal

    def test_alpha_at_sum_limit_flagged(self):
        res = kp.alpha_from_mu(Fraction(3, 2), Fraction(1, 2))
        assert res.sum_at_limit
        assert res.value == 0.0

    def test_beta_values(self):
        assert abs(kp.beta_from_mu(Fraction(1, 2), Fraction(1, 2)) - math.pi / 6) <= 1e-12
        assert abs(kp.beta_from_mu(1, -1) - math.pi / 4) <= 1e-12


class TestClassification:
    def test_equitable_wins(self):
        g = kp.cycle_graph(4)
        bip = kp.VertexPartition.from_blocks([[1, 2], [3, 4]])
        res = kp.classify_bipartition(g, bip)
        assert res.classification is kp.Classification.EQUITABLE
        assert res.quotient.gamma == ((1, 1), (1, 1))
        assert res.solution_set.kind == "line"

    def test_unique_point(self):
        g, bip = kp.linear_family_graph(6)
        res = kp.classify_bipartition(g, bip)
        assert res.classification is kp.Classification.CONDITION2_UNIQUE
        c = res.certificate
        assert (c.mu1, c.mu2, c.r) == (Fraction(-1, 3), Fraction(-1), Fraction(-2))
        assert abs(c.alpha - math.atan(math.sqrt(5.0))) <= 1e-12
        assert c.feasible

    def test_boundary_point(self):
        g = kp.path_graph(4)
        bip = kp.VertexPartition.from_blocks([[1, 2], [3, 4]])
        res = kp.classify_bipartition(g, bip)
        assert res.classification is kp.Classification.BOUNDARY
        c = res.certificate
        assert (c.mu1, c.mu2, c.r) == (0, 0, -1)
        assert c.mu_equal and not c.feasible
        assert c.alpha == math.pi / 2

    def test_infeasible_empty(self):
        g = kp.path_graph(5)
        bip = kp.VertexPartition.from_blocks([[1], [2, 3, 4, 5]])
        res = kp.classify_bipartition(g, bip)
        assert res.classification is kp.Classification.INFEASIBLE
        assert res.certificate is None

    def test_equitable_line_family_segment(self):
        # centre versus leaves of a 2-leaf star: gains trace a feasible segment
        g = kp.path_graph(3)
        bip = kp.VertexPartition.from_blocks([[2], [1, 3]])
        res = kp.classify_bipartition(g, bip)
        assert res.classification is kp.Classification.EQUITABLE
        assert res.family is not None
        assert res.family.feasible
        lo, hi = res.family.param_lo, res.family.param_hi
        assert lo is not None and hi is not None and lo < hi

    def test_two_vertex_family_infeasible(self):
        g = kp.path_graph(2)
        bip = kp.VertexPartition.from_blocks([[1], [2]])
        res = kp.classify_bipartition(g, bip)
        assert res.classification is kp.Classification.EQUITABLE
        assert res.family is not None
        assert not res.family.feasible

    def test_connected_graphs_never_give_a_plane(self):
        # each block of a connected graph has a cross edge, so rank >= 2, and
        # the set is a line exactly when each block has one count point
        rng = np.random.default_rng(23)
        for _ in range(12):
            n = int(rng.integers(2, 9))
            g = random_connected_graph(rng, n, extra=float(rng.uniform(0.0, 1.0)))
            for bip in enumerate_bipartitions(g):
                res = kp.classify_bipartition(g, bip)
                assert res.solution_set.dim <= 1
                line = res.solution_set.dim == 1
                equitable = res.classification is kp.Classification.EQUITABLE
                assert line == equitable == is_equitable_slow(g, [list(b) for b in bip.blocks])
                assert res.quotient == kp.is_equitable(g, bip)

    def test_three_block_partition_rejected(self):
        g = kp.cycle_graph(4)
        p = kp.VertexPartition.from_blocks([[1], [2], [3, 4]])
        with pytest.raises(kp.NotBipartitionError):
            kp.classify_bipartition(g, p)


class TestCertificates:
    def test_identities_on_random_graphs(self):
        rng = np.random.default_rng(13)
        seen = 0
        for _ in range(40):
            g = random_connected_graph(rng, int(rng.integers(3, 8)))
            for bip in enumerate_bipartitions(g):
                res = kp.classify_bipartition(g, bip)
                c = res.certificate
                if c is None:
                    continue
                seen += 1
                m1, m2 = float(c.mu1), float(c.mu2)
                assert abs(m1 + m2 + 2 * math.cos(c.alpha + c.beta)) <= 1e-12
                assert abs(m1 * math.sin(c.alpha) - math.sin(c.beta)) <= 1e-12
                assert abs(m2 * math.sin(c.alpha) + math.sin(2 * c.alpha + c.beta)) <= 1e-12
        assert seen >= 10

    def test_offset_is_alpha_plus_beta(self):
        g, bip = kp.linear_family_graph(4)
        c = kp.classify_bipartition(g, bip).certificate
        assert abs(c.offset - (c.alpha + c.beta)) <= 1e-12

    def test_alpha_range_per_feasibility(self):
        rng = np.random.default_rng(29)
        strict = boundary = 0
        for _ in range(40):
            g = random_connected_graph(rng, int(rng.integers(3, 8)))
            for bip in enumerate_bipartitions(g):
                c = kp.classify_bipartition(g, bip).certificate
                if c is None:
                    continue
                if c.feasible:
                    assert 0.0 < c.alpha < math.pi / 2
                    strict += 1
                if c.mu_equal:
                    assert c.alpha == math.pi / 2
                    boundary += 1
        assert strict >= 1 and boundary >= 1

    def test_solution_sampling(self):
        g, bip = kp.linear_family_graph(4)
        c = kp.classify_bipartition(g, bip).certificate
        lt = kp.certificate_to_solution(c, c=0.3)
        state0, state1 = lt.sample([0.0, 1.0]).states
        for v in c.s1:
            assert state0[v - 1] == pytest.approx(0.3)
        for v in c.s2:
            assert state0[v - 1] == pytest.approx(0.3 + c.offset)
        rate = float(c.r) * math.sin(c.alpha)
        assert np.allclose(state1 - state0, rate)

    def test_residual_matches_slow_formula(self):
        g, bip = kp.linear_family_graph(4)
        c = kp.classify_bipartition(g, bip).certificate
        grid = np.linspace(0.0, 10.0, 101)
        r = kp.verify_certificate(g, bip, c, grid=grid)
        traj = kp.certificate_to_solution(c).sample(grid)
        params = kp.ModelParams(alpha=c.alpha)
        worst = 0.0
        for k, t in enumerate(grid):
            rhs = kp.kuramoto_rhs(g, traj.states[k], params)
            worst = max(worst, float(np.abs(traj.derivatives[k] - rhs).max()))
        assert r == pytest.approx(worst, abs=1e-15)

    def test_every_certificate_verifies_as_the_oracle_does(self):
        # the start vector is c on s1 and c + offset on s2, built here by
        # hand; the residual must equal the per-row oracle bit for bit
        grid = np.linspace(0.0, 10.0, 101)
        seen = 0
        for g in [*named_graphs()[:4], kp.cycle_graph(6), kp.complete_graph(5)]:
            for row in search_rows_slow(g):
                cert = row.certificate
                if cert is None:
                    continue
                bip = kp.VertexPartition((cert.s1, cert.s2))
                start = [0.4 + cert.offset if v in cert.s2 else 0.4 for v in range(1, g.n + 1)]
                motion = kp.LinearTrajectory(start, float(cert.r) * math.sin(cert.alpha))
                assert np.array_equal(kp.certificate_to_solution(cert, c=0.4).start, motion.start)
                want = residual_max_slow(g, motion.sample(grid), kp.ModelParams(alpha=cert.alpha))
                assert kp.verify_certificate(g, bip, cert, c=0.4) == want
                seen += 1
        assert seen >= 8

    def test_search_certificate_has_no_vertex_sets(self):
        # one solution row stands for many masks, so its certificate names none
        solutions = kp.search_all_bipartitions(kp.linear_family_graph(4)[0]).solutions
        certs = [s.certificate for s in solutions if s.certificate is not None]
        assert certs
        for cert in certs:
            with pytest.raises(kp.PartitionMismatchError, match="no vertex sets"):
                kp.certificate_to_solution(cert)

    def test_verify_rejects_mismatched_partition(self):
        g, bip = kp.linear_family_graph(4)
        c = kp.classify_bipartition(g, bip).certificate
        other = kp.VertexPartition.from_blocks([[2], [1] + list(range(3, 10))])
        with pytest.raises(kp.PartitionMismatchError):
            kp.verify_certificate(g, other, c)

    def test_boundary_certificate_still_verifies(self):
        g, bip = kp.right_angle_profile_graph()
        c = kp.classify_bipartition(g, bip).certificate
        assert c.mu_equal
        r = kp.verify_certificate(g, bip, c)
        assert r <= 1e-12


class TestReports:
    def test_classification_report_json(self):
        g, bip = kp.linear_family_graph(4)
        res = kp.classify_bipartition(g, bip)
        payload = kp.classification_report(bip, res, residual=1e-15)
        text = json.dumps(payload)
        back = json.loads(text)
        assert back["classification"] == "Condition2Unique"
        assert back["mu1"] == "-1/2"
        assert back["solution_kind"] == "point"
        assert back["residual"] == 1e-15

    def test_report_for_equitable(self):
        g = kp.cycle_graph(4)
        bip = kp.VertexPartition.from_blocks([[1, 2], [3, 4]])
        payload = kp.classification_report(bip, kp.classify_bipartition(g, bip))
        assert payload["classification"] == "Equitable"
        assert payload["gamma"] == [[1, 1], [1, 1]]
        assert payload["mu1"] is None


class TestSearch:
    def test_c6_counts(self):
        g = kp.cycle_graph(6)
        report = kp.search_all_bipartitions(g)
        assert report.n == 6
        assert len(search_report_rows(report)) == 2**5 - 1
        want_equitable = sum(
            1
            for bip in enumerate_bipartitions(g)
            if kp.is_equitable(g, bip) is not None
        )
        assert report.counts["Equitable"] == want_equitable == 4

    def test_masks_outside_their_range_rejected(self):
        got = [bipartition_from_mask(3, mask).blocks for mask in (1, 2, 3)]
        assert got == [((1, 3), (2,)), ((1, 2), (3,)), ((1,), (2, 3))]
        # unchecked, 5 reads as mask 1, -1 as mask 3, and 4 as an empty block
        for mask in (0, 4, 5, -1):
            with pytest.raises(kp.BadParameterError, match="outside 1..3"):
                bipartition_from_mask(3, mask)

    def test_rows_cover_all_masks(self):
        g = kp.cycle_graph(5)
        report = kp.search_all_bipartitions(g)
        assert [row.mask for row in search_report_rows(report)] == list(range(1, 2**4))

    def test_parallel_agrees_with_serial(self):
        g = kp.cycle_graph(6)
        serial = kp.search_all_bipartitions(g, jobs=1)
        parallel = kp.search_all_bipartitions(g, jobs=2)
        assert kp.format_search_report(serial) == kp.format_search_report(parallel)

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        seen = []

        class InlineExecutor:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        g = kp.cycle_graph(12)
        serial = kp.format_search_report(kp.search_all_bipartitions(g, jobs=1))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        capped = kp.format_search_report(kp.search_all_bipartitions(g, jobs=10_000))
        assert seen == [2]
        assert capped == serial

    # unrefused, 1.5 would fail with an AttributeError, not a KurapartError
    @pytest.mark.parametrize("jobs", [0, 1.5, True])
    def test_jobs_positive_int(self, jobs):
        with pytest.raises(kp.BadParameterError):
            kp.search_all_bipartitions(kp.linear_family_graph(6)[0], jobs=jobs)

    def test_size_cap(self):
        g = kp.cycle_graph(23)
        with pytest.raises(kp.TooLargeError):
            kp.search_all_bipartitions(g)

    def test_int64_mask_limit_holds_with_force(self, monkeypatch):
        def never(args):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(ban, "_walk", never)
        with pytest.raises(kp.TooLargeError):
            kp.search_all_bipartitions(kp.path_graph(64), force=True)

    def test_report_text_shape(self):
        g = kp.cycle_graph(4)
        text = kp.format_search_report(kp.search_all_bipartitions(g))
        lines = text.strip().splitlines()
        assert len(lines) == 8
        assert lines[-1].startswith("# total=7 ")


def circulant_graph(n, jumps):
    return kp.from_edge_list(n, [(i + 1, (i + j) % n + 1) for i in range(n) for j in jumps])


def search_oracle_graphs():
    """Named graphs plus random connected graphs with n <= 12."""
    rng = np.random.default_rng(41)
    graphs = named_graphs() + [kp.linear_family_graph(6)[0], circulant_graph(12, (1, 2))]
    for n in [int(rng.integers(2, 11)) for _ in range(40)] + [11, 11, 12, 12]:
        graphs.append(random_connected_graph(rng, n, extra=float(rng.uniform(0.0, 1.0))))
    return graphs


@pytest.fixture(scope="module")
def oracle_searches():
    """Each search oracle graph with its rows from the per-row oracle."""
    return [(g, search_rows_slow(g)) for g in search_oracle_graphs()]


def benchmark_relabellings(g, seed=1, count=8):
    """g relabelled as the benchmark's search workloads do for one seed:
    one PCG64 permutation per sub-seed of SeedSequence(seed)."""
    graphs = []
    for sub in np.random.SeedSequence(seed).generate_state(count).tolist():
        perm = np.random.Generator(np.random.PCG64(sub)).permutation(g.n) + 1
        graphs.append(kp.from_edge_list(g.n, [(int(perm[u - 1]), int(perm[v - 1])) for u, v in g.edges]))
    return graphs


# sha256 of the eight seed-1 relabelled reports per base graph, as version
# 0.1.0 wrote them
RELABELLED_DIGESTS = {
    "linear:6": "28ba5058b0651502d387873d12f98abaecd97129d2f1dcdd67b29357b2ec97d2",
    "C12(1,2)": "4b97d7711358e9dc07b6f820863f048d16fc252d77415bfadf6cfce8f39a5591",
}


class TestSearchText:
    """The array-native report and renderer against the per-row oracles."""

    def test_text_matches_slow_renderer(self, oracle_searches):
        for g, want in oracle_searches:
            report = kp.search_all_bipartitions(g)
            assert kp.format_search_report(report) == format_search_report_slow(g.n, want)
            # the decoded rows are checked against want in TestBatchSearch
            tally = {c.value: 0 for c in kp.Classification}
            for row in search_report_rows(report):
                tally[row.classification.value] += 1
            assert report.counts == tally

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_benchmark_relabellings_match_slow_renderer(self, jobs):
        # the rows come from the report: test_text_matches_slow_renderer ties
        # them to the per-row oracle, which is too slow for all 16 graphs
        bases = {"linear:6": kp.linear_family_graph(6)[0], "C12(1,2)": circulant_graph(12, (1, 2))}
        for name, base in bases.items():
            h = hashlib.sha256()
            for g in benchmark_relabellings(base):
                report = kp.search_all_bipartitions(g, jobs=jobs)
                text = kp.format_search_report(report)
                assert text == format_search_report_slow(g.n, list(search_report_rows(report)))
                h.update(text.encode())
            assert h.hexdigest() == RELABELLED_DIGESTS[name]

    def test_distinct_tails_shared(self):
        # every row of C12(1,2) is nonempty, with 30 distinct solved rows but 3 texts
        report = kp.search_all_bipartitions(circulant_graph(12, (1, 2)))
        assert list(report.masks) == list(range(1, 2048))
        assert len(report.solutions) == 30
        assert ban._tail_count(report) == 3
        hub = kp.search_all_bipartitions(kp.linear_family_graph(6)[0])
        assert (len(hub.masks), ban._tail_count(hub)) == (9, 5)

    def test_solution_once_per_distinct_row(self, monkeypatch):
        calls = []
        solution = ban._solution

        def counted(*row):
            calls.append(row)
            return solution(*row)

        monkeypatch.setattr(ban, "_solution", counted)
        report = kp.search_all_bipartitions(circulant_graph(12, (1, 2)))
        kp.format_search_report(report)
        rows = search_report_rows(report)
        assert (report.counts["Equitable"], ban._tail_count(report), len(rows)) == (9, 3, 2047)
        assert len(calls) == len(set(calls)) == 30

    def test_report_without_nonempty_rows(self):
        report = ban.SearchReport(5, array("q"), array("I"), ())
        text = kp.format_search_report(report)
        assert report.counts["Infeasible"] == 15 == sum(report.counts.values())
        assert ban._tail_count(report) == 1
        rows = list(search_report_rows(report))
        assert [row.mask for row in rows] == list(range(1, 16))
        assert text == format_search_report_slow(5, rows)
        assert text.splitlines()[0] == "01 s2=2 Infeasible"


class TestEquitableFamily:
    """The closed-form family segment against the generic half-line oracle."""

    def test_matches_half_lines_on_every_small_count_tuple(self):
        feasible = 0
        for c1, d1, c2, d2 in itertools.product(range(1, 9), range(9), range(1, 9), range(9)):
            line = kp.SolutionSet(
                "line",
                (Fraction(d1, c1), Fraction(d2, c2), Fraction(0)),
                ((Fraction(1, c1), Fraction(1, c2), Fraction(1)),),
            )
            got, want = ban._equitable_family(c1, d1, c2, d2), line_family_slow(line)
            assert repr(got) == repr(want)
            # a connected graph bounds both ends
            assert not got.feasible or None not in (got.param_lo, got.param_hi)
            feasible += got.feasible
        assert 100 < feasible < 5184

    def test_matches_half_lines_on_every_equitable_bipartition(self):
        # the line comes from the Gauss-Jordan oracle, not from _solve
        seen = 0
        for g in search_oracle_graphs():
            for row in search_report_rows(kp.search_all_bipartitions(g)):
                if row.classification is not kp.Classification.EQUITABLE:
                    continue
                bip = bipartition_from_mask(g.n, row.mask)
                want = line_family_slow(condition2_solution_slow(g, bip.blocks))
                assert repr(row.family) == repr(want)
                seen += 1
        assert seen > 50


class TestBatchSearch:
    """The pruned search and its solve rule against the slow oracles: the
    per-row classifier, Gauss-Jordan elimination and the int64 batch."""

    def test_rows_match_per_row_oracle(self, oracle_searches):
        kinds = set()
        for g, want in oracle_searches:
            assert search_report_rows(kp.search_all_bipartitions(g)) == tuple(want)
            kinds.update(row.classification for row in want)
        assert kinds == {
            kp.Classification.EQUITABLE,
            kp.Classification.CONDITION2_UNIQUE,
            kp.Classification.BOUNDARY,
            kp.Classification.INFEASIBLE,
        }

    def test_solve_rows_match_gauss_jordan(self):
        # counts come from adjacency sets, not from the search's bitmasks;
        # the scalar solve must equal the int64 batch oracle row for row, and
        # each search row the batch oracle's row of the same mask, which
        # search_batch_slow solves from its own X @ A counts
        kinds = {"empty": 0, "point": 0, "line": 0}
        for g in search_oracle_graphs():
            nbrs = adjacency_sets(g)
            bips = list(enumerate_bipartitions(g))
            x = np.array([[v in bip.blocks[1] for v in range(1, g.n + 1)] for bip in bips], dtype=np.int64)
            to_s2 = np.array(
                [[len(nbrs[v] & set(bip.blocks[1])) for v in range(1, g.n + 1)] for bip in bips],
                dtype=np.int64,
            )
            degree = np.array([len(nbrs[v]) for v in range(1, g.n + 1)], dtype=np.int64)
            nonempty, solved = solve_rows_batch(x, to_s2, degree)
            report = kp.search_all_bipartitions(g)
            searched = dict(zip(report.masks, map(report.solved.__getitem__, report.which)))
            batch = search_batch_slow(g)
            assert batch[0].tolist() == nonempty.tolist()
            for mask, bip, nonempty, row in zip(itertools.count(1), bips, nonempty.tolist(), solved.tolist()):
                s2 = set(bip.blocks[1])
                points = [
                    (True, len(nbrs[v] - s2), len(nbrs[v] & s2)) if v in s2
                    else (False, len(nbrs[v] & s2), len(nbrs[v] - s2))
                    for v in range(1, g.n + 1)
                ]
                got = ban._solve(points)
                want = condition2_solution_slow(g, bip.blocks)
                kinds[want.kind] += 1
                assert bool(nonempty) == (want.kind != "empty") == (got is not None) == (mask in searched)
                if want.kind == "empty":
                    continue
                assert got == tuple(row) == searched[mask] == tuple(batch[1][mask - 1].tolist())
                line, r_num, r_den, c1, d1, c2, d2 = got
                assert bool(line) == (want.kind == "line")
                mu1 = Fraction(d1 * r_den + r_num, c1 * r_den)
                mu2 = Fraction(d2 * r_den + r_num, c2 * r_den)
                assert (mu1, mu2, Fraction(r_num, r_den)) == want.basepoint
                if line:
                    assert want.directions == ((Fraction(1, c1), Fraction(1, c2), 1),)
        assert kinds["empty"] > 1000 and kinds["point"] > 100 and kinds["line"] > 10

    def test_search_tree_matches_brute_force(self):
        # every node entered and every subtree cut, against Gauss-Jordan on
        # the points each prefix fixes; a cut leaves only Infeasible masks.
        # Small random graphs reach the prefixes where a block's first point
        # has d_cross 0 and so fixes r = -d_in against the other block's r
        rng = np.random.default_rng(5)
        small = [
            random_connected_graph(rng, int(rng.integers(4, 10)), float(rng.uniform(0, 1)))
            for _ in range(60)
        ]
        cut = 0
        for g in search_oracle_graphs()[:20] + small:
            report = kp.search_all_bipartitions(g)
            assert (report.nodes, report.pruned) == search_tree_slow(g)
            cut += report.pruned
        assert cut > 100

    def test_classify_beyond_63_vertices(self):
        # no mask or n x n matrix limits the one-row path
        halves = kp.VertexPartition.from_blocks([range(1, 1001), range(1001, 2001)])
        linear, bip = kp.linear_family_graph(32)
        for g, part, label, gains in [
            (kp.cycle_graph(2000), halves, kp.Classification.BOUNDARY, (-1, -1, -2)),
            (linear, bip, kp.Classification.CONDITION2_UNIQUE, (Fraction(-1, 16), -1, -2)),
        ]:
            assert g.n >= 64
            res = kp.classify_bipartition(g, part)
            cert = res.certificate
            assert res.classification is label
            assert (cert.mu1, cert.mu2, cert.r) == gains
            assert res.solution_set == condition2_solution_slow(g, part.blocks)
            text = json.dumps(kp.classification_report(part, res, residual=0.0))
            assert json.loads(text)["mu1"] == str(gains[0])

    def test_degree_past_exact_int64_products_classified(self):
        # a multigraph faked through its adjacency: vertex 1 has degree
        # 3a + 3 >= 2**21, past where the tests' int64 batch oracle is exact;
        # the count points of block {2, 3, 4} lie on a line of slope -1
        a = (1 << 21) // 3
        g = kp.path_graph(4)
        times = {(1, 2): a + 2, (1, 3): a + 1, (1, 4): a, (2, 3): 1, (2, 4): 2, (3, 4): 3}
        adjacency = [[] for _ in range(g.n + 1)]
        for (u, v), count in times.items():
            adjacency[u] += [v] * count
            adjacency[v] += [u] * count
        object.__setattr__(g, "adjacency", tuple(map(tuple, adjacency)))
        part = kp.VertexPartition.from_blocks([[1], [2, 3, 4]])
        assert gc._block_counts(g, part)[0] == [[0, 3 * a + 3], [a + 2, 3], [a + 1, 4], [a, 5]]
        res = kp.classify_bipartition(g, part)
        rows = [(3 * a + 3, 0, 0), (0, a + 2, 3), (0, a + 1, 4), (0, a, 5)]
        assert res.solution_set == gauss_jordan_slow(rows)
        assert res.solution_set.basepoint == (Fraction(-(a + 5), 3 * a + 3), -1, -(a + 5))

    def test_report_independent_of_how_the_tree_is_split(self):
        g = circulant_graph(12, (1, 2))
        plan = ban._plan(g)
        whole_walk = ban._walk(plan, ban._ROOT, 0)
        whole = ban._report(12, [whole_walk])
        whole_rows = search_report_rows(whole)
        assert [row.mask for row in whole_rows] == list(range(1, 2048))
        for stop in (2, 5, 11):
            top = ban._walk(plan, ban._ROOT, stop)
            # subtrees walked one by one and in reverse, as workers return them
            parts = [ban._walk(plan, node, 0) for node in reversed(top.frontier)]
            split = ban._report(12, [*parts, top])
            assert search_report_rows(split) == whole_rows
            assert (list(split.masks), list(split.which), split.solved) == (
                list(whole.masks), list(whole.which), whole.solved,
            )
            assert (split.nodes, split.pruned) == (whole_walk.nodes, whole_walk.pruned)
