import json
import pickle

import numpy as np
import pytest

import kurapart as kp
from kurapart import bipartition_analysis as ban
from oracle_tools import (
    adjacency_sets,
    all_partitions,
    automorphisms_slow,
    coarsest_equitable_refinement_slow,
    enumerate_bipartitions,
    is_equitable_slow,
    has_edge,
    orbit_partitions_slow,
    partition_to_json,
    random_connected_graph,
    refines,
    write_edge_list,
)


def single_block(g):
    return kp.VertexPartition.from_blocks([list(range(1, g.n + 1))])


def random_blocks(rng, n, most):
    """Random partition of 1..n into at most `most` nonempty blocks."""
    blocks = [[] for _ in range(most)]
    for v in range(1, n + 1):
        blocks[int(rng.integers(0, most))].append(v)
    return kp.VertexPartition.from_blocks([b for b in blocks if b])


class TestPublicNames:
    def test_package_exports(self):
        assert sorted(kp.__all__) == [
            "AlphaResult", "BadParameterError", "BipartitionClassification", "Classification",
            "Condition2Certificate", "DegreeProfile", "DimensionMismatchError",
            "DisconnectedError", "EmptyGraphError", "EmptyTrajectoryError", "FamilySegment",
            "FormatError", "Graph", "InfeasibleMuError", "IntegratorConfig", "KurapartError",
            "LinearTrajectory", "ModelParams", "NoCertificateError", "NonFiniteStateError",
            "NotBipartitionError", "PartitionMismatchError", "QuotientMatrix", "RunStats",
            "SearchReport", "SelfLoopError", "SolutionSet", "StepUnderflowError", "SyncReport",
            "TooLargeError", "TooShortError", "Trajectory", "VertexOutOfRangeError",
            "VertexPartition", "alpha_from_mu", "analytic_regular_solution",
            "asymptotic_sync_clusters", "beta_from_mu", "bipartition_from_mask",
            "certificate_to_solution", "classification_report", "classify_bipartition",
            "coarsest_equitable_refinement", "complete_graph", "cycle_graph", "degree_profile",
            "format_search_report", "from_edge_list", "integrate", "integrate_quotient",
            "is_equitable", "kuramoto_rhs", "latoro_profile_graph", "lift_quotient_trajectory",
            "linear_family_graph", "partition_from_json",
            "path_graph", "petersen_graph", "quotient_rhs", "read_edge_list", "residual_max",
            "right_angle_profile_graph", "search_all_bipartitions", "star_graph",
            "trajectory_to_csv", "verify_certificate",
        ]
        assert len(set(kp.__all__)) == len(kp.__all__)
        for name in kp.__all__:
            assert getattr(kp, name) is not None


def _hub():
    return kp.classify_bipartition(*kp.latoro_profile_graph())


def _star():
    return kp.classify_bipartition(*kp.star_graph(3))


def _c4_walk():
    return ban._walk(ban._plan(kp.cycle_graph(4)), ban._ROOT, 0)


# every record the library returns or takes: how to make one, its fields
# as its repr lists them, and whether records with equal fields are equal
RECORDS = {
    "Graph": (lambda: kp.Graph(3, ((2, 1), (2, 3), (3, 2))), ["n", "edges"], True),
    "VertexPartition": (lambda: kp.VertexPartition(((3, 1), (2,))), ["blocks"], True),
    "DegreeProfile": (
        lambda: kp.degree_profile(kp.path_graph(3), kp.VertexPartition(((1,), (2, 3)))), ["delta"], True
    ),
    "QuotientMatrix": (lambda: _star().quotient, ["gamma"], True),
    "ModelParams": (lambda: kp.ModelParams(0.5, coupling=2.0), ["alpha", "omega", "coupling"], True),
    "IntegratorConfig": (
        lambda: kp.IntegratorConfig(1.0, "rk4", dt=0.1),
        ["t_end", "method", "dt", "rel_tol", "abs_tol", "record_every"],
        True,
    ),
    "RunStats": (
        lambda: kp.RunStats(3, 1, 25, 0.125, 0.5), ["accepted", "rejected", "rhs_calls", "h_min", "h_max"], True
    ),
    "SyncReport": (
        lambda: kp.asymptotic_sync_clusters(kp.Trajectory(np.linspace(0.0, 1.0, 60), np.zeros((60, 3)))),
        ["exact_partition", "exact_tol", "chained_pairs", "tail_fraction", "tail_tol", "tail_skipped",
         "clusters", "tail_start", "tail_max_deviation", "pair_classes"],
        True,
    ),
    "SolutionSet": (lambda: _hub().solution_set, ["kind", "basepoint", "directions"], True),
    "AlphaResult": (lambda: kp.alpha_from_mu(1, 0), ["value", "mu_equal", "sum_at_limit"], True),
    "Condition2Certificate": (
        lambda: _hub().certificate,
        ["mu1", "mu2", "r", "alpha", "beta", "offset", "mu_equal", "offset_at_limit", "feasible", "s1", "s2"],
        True,
    ),
    "FamilySegment": (
        lambda: _star().family,
        ["feasible", "dim", "param_lo", "param_hi", "alpha_at_lo", "alpha_at_hi", "alpha_at_interior"],
        True,
    ),
    "BipartitionClassification": (
        _star, ["classification", "solution_set", "certificate", "quotient", "family"], True
    ),
    # a report equals only itself, and its fields may be reassigned
    "SearchReport": (
        lambda: kp.search_all_bipartitions(kp.cycle_graph(5)),
        ["n", "masks", "which", "solved", "nodes", "pruned"],
        False,
    ),
    # what a search worker sends back: it holds lists, so it has no hash
    "_Walk": (_c4_walk, ["masks", "which", "rows", "frontier", "nodes", "pruned"], True),
}


class TestRecords:
    @pytest.mark.parametrize("name", RECORDS)
    def test_repr_equality_read_only_and_pickle(self, name):
        make, fields, by_value = RECORDS[name]
        a, b = make(), make()
        assert type(a).__name__ == name
        shown = ", ".join(f"{f}={getattr(a, f)!r}" for f in fields)
        assert repr(a) == f"{name}({shown})"
        copy = pickle.loads(pickle.dumps(a))
        assert type(copy) is type(a) and repr(copy) == repr(a)
        if not by_value:
            assert a == a and a != b
            return
        assert a == b and not a != b and copy == a
        if name != "_Walk":
            assert hash(a) == hash(b) == hash(copy)
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(a, f, getattr(b, f))

    @pytest.mark.parametrize(
        "record, bad, good",
        [
            (kp.ModelParams(0.5), {"alpha": 5.0}, {"omega": 1.0}),
            (kp.IntegratorConfig(1.0), {"t_end": -1.0}, {"rel_tol": 1e-6}),
            (kp.VertexPartition.from_blocks([[1], [2]]), {"blocks": ((2, 1), (1,))}, {"blocks": ((2,), (1,))}),
        ],
        ids=["ModelParams", "IntegratorConfig", "VertexPartition"],
    )
    def test_replace_and_make_run_the_checks(self, record, bad, good):
        with pytest.raises(kp.KurapartError):
            record._replace(**bad)
        with pytest.raises(kp.KurapartError):
            type(record)._make({**record._asdict(), **bad}.values())
        changed = record._replace(**good)
        # a partition's blocks come back canonical, as its constructor makes them
        assert type(changed) is type(record) and changed == type(record)(*changed)
        assert pickle.loads(pickle.dumps(changed)) == changed

    def test_graph_compares_n_and_edges_and_hides_adjacency(self):
        g = kp.Graph(3, ((1, 2), (2, 3)))
        assert "adjacency" not in repr(g)
        assert g == kp.path_graph(3) and hash(g) == hash(kp.path_graph(3))
        assert g != kp.Graph(3, ((1, 2), (1, 3))) and g != (3, g.edges)
        for attr in ("adjacency", "extra"):
            with pytest.raises(AttributeError):
                setattr(g, attr, ())
        with pytest.raises(AttributeError):
            del g.n
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and copy.adjacency == g.adjacency


class TestGraphConstruction:
    def test_edges_canonical_and_deduped(self):
        g = kp.Graph(3, ((2, 1), (1, 2), (3, 2)))
        assert g.edges == ((1, 2), (2, 3))

    def test_self_loop_rejected(self):
        with pytest.raises(kp.SelfLoopError):
            kp.Graph(3, ((1, 1), (1, 2), (2, 3)))

    def test_vertex_out_of_range(self):
        with pytest.raises(kp.VertexOutOfRangeError):
            kp.Graph(3, ((1, 4), (1, 2), (2, 3)))
        with pytest.raises(kp.VertexOutOfRangeError):
            kp.Graph(3, ((0, 1), (1, 2), (2, 3)))

    def test_empty_graph_rejected(self):
        with pytest.raises(kp.EmptyGraphError):
            kp.Graph(0, ())

    @pytest.mark.parametrize(
        "name, args",
        [
            ("Graph", (True, ())),
            ("Graph", (2.0, ((1, 2),))),
            ("from_edge_list", (3.0, [(1, 2), (2, 3)])),
            ("star_graph", (True,)),
            ("star_graph", (3.5,)),
            ("cycle_graph", (4.0,)),
            ("path_graph", (3.0,)),
            ("complete_graph", (4.5,)),
            ("linear_family_graph", (6.0,)),
        ],
    )
    def test_vertex_count_must_be_an_int(self, name, args):
        # a bool passed as a one-vertex graph and a two-vertex star; a
        # float raised a bare TypeError from range()
        with pytest.raises(kp.BadParameterError, match="must be an int"):
            getattr(kp, name)(*args)

    def test_disconnected_rejected(self):
        with pytest.raises(kp.DisconnectedError):
            kp.Graph(4, ((1, 2), (3, 4)))
        with pytest.raises(kp.DisconnectedError):
            kp.Graph(2, ())

    def test_too_few_edges_rejected_before_per_vertex_work(self):
        # a 15-byte file naming a million vertices stays cheap to reject
        with pytest.raises(kp.DisconnectedError) as info:
            kp.read_edge_list("n 1000000\n1 2\n")
        assert len(str(info.value)) < 1000

    def test_disconnected_message_lists_few_vertices(self):
        # enough edges for n - 1, but vertices 20..40 form their own component
        edges = [(1, v) for v in range(2, 20)] + [(v, v + 1) for v in range(20, 40)]
        edges += [(20, 40), (20, 30)]
        with pytest.raises(kp.DisconnectedError) as info:
            kp.Graph(40, tuple(edges))
        message = str(info.value)
        assert message.startswith("21 vertices unreachable")
        assert "29" in message and "30" not in message

    def test_accessors(self):
        g = kp.from_edge_list(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
        assert g.neighbors(1) == (2, 4)
        assert g.degree(2) == 2
        assert has_edge(g, 3, 4) and has_edge(g, 4, 3)
        assert not has_edge(g, 1, 3)
        for v in (0, 5):
            with pytest.raises(kp.VertexOutOfRangeError, match=f"vertex {v} outside"):
                g.neighbors(v)


class TestVertexPartition:
    def test_canonical_block_order(self):
        p = kp.VertexPartition.from_blocks([[4, 2], [3, 1]])
        assert p.blocks == ((1, 3), (2, 4))

    def test_overlap_rejected(self):
        with pytest.raises(kp.KurapartError):
            kp.VertexPartition.from_blocks([[1, 2], [2, 3]])

    def test_empty_block_rejected(self):
        with pytest.raises(kp.KurapartError):
            kp.VertexPartition.from_blocks([[1, 2], []])
        with pytest.raises(kp.PartitionMismatchError, match="no blocks"):
            kp.VertexPartition(())

    def test_bool_label_rejected(self):
        # True == 1 as an int, but it is not a vertex label
        with pytest.raises(kp.PartitionMismatchError):
            kp.VertexPartition.from_blocks([[True], [2, 3]])

    def test_refines(self):
        fine = kp.VertexPartition.from_blocks([[1], [2], [3, 4]])
        coarse = kp.VertexPartition.from_blocks([[1, 2], [3, 4]])
        assert refines(fine, coarse)
        assert not refines(coarse, fine)
        assert refines(coarse, coarse)
        assert not refines(fine, kp.VertexPartition.from_blocks([[1, 2]]))

    def test_index_map(self):
        p = kp.VertexPartition.from_blocks([[1, 3], [2]])
        assert p.index_map() == {1: 0, 3: 0, 2: 1}


class TestDegreeProfile:
    def test_linear_p4_table(self):
        g, bip = kp.linear_family_graph(4)
        prof = kp.degree_profile(g, bip)
        # columns follow block order: counts into {1}, then into the rest
        assert prof.row(1) == (0, 4)
        for v in (2, 3, 4, 5):
            assert prof.row(v) == (1, 1)
        for v in (6, 7, 8, 9):
            assert prof.row(v) == (0, 2)

    def test_k_and_rows(self):
        g, bip = kp.linear_family_graph(4)
        prof = kp.degree_profile(g, bip)
        assert prof.k == 2
        assert len(prof.delta) == 9
        # plain ints, so a profile serialises to JSON
        assert all(type(c) is int for row in prof.delta for c in row)
        assert kp.DegreeProfile(()).k == 0

    def test_rows_partition_degrees(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            g = random_connected_graph(rng, int(rng.integers(2, 8)))
            p = single_block(g)
            prof = kp.degree_profile(g, p)
            for v in range(1, g.n + 1):
                assert sum(prof.row(v)) == g.degree(v)

    def test_partition_must_cover(self):
        g = kp.cycle_graph(4)
        p = kp.VertexPartition.from_blocks([[1, 2], [3]])
        with pytest.raises(kp.PartitionMismatchError):
            kp.degree_profile(g, p)

    def test_mismatch_message_lists_few_vertices(self):
        g = kp.cycle_graph(4)
        p = kp.VertexPartition.from_blocks([[1, 2], list(range(3, 1000))])
        with pytest.raises(kp.PartitionMismatchError) as info:
            kp.degree_profile(g, p)
        assert len(str(info.value)) < 200

    def test_matches_adjacency_counts(self):
        # seeds of 1..n blocks, and the edge cases: a star's hub, every
        # vertex its own block, and a graph of one vertex
        rng = np.random.default_rng(19)
        cases = []
        for _ in range(60):
            g = random_connected_graph(rng, int(rng.integers(3, 12)))
            cases.append((g, random_blocks(rng, g.n, int(rng.integers(1, g.n + 1)))))
        star, hub = kp.star_graph(6)
        cases += [(star, hub), (star, kp.VertexPartition.from_blocks([v] for v in range(1, 8)))]
        cases.append((kp.Graph(1, ()), kp.VertexPartition(((1,),))))
        assert {p.k for _, p in cases} >= set(range(1, 8))
        for g, p in cases:
            nbrs = adjacency_sets(g)
            prof = kp.degree_profile(g, p)
            for v in range(1, g.n + 1):
                assert g.adjacency[v] == tuple(sorted(nbrs[v]))
                assert prof.row(v) == tuple(len(nbrs[v] & set(b)) for b in p.blocks)

    def test_cross_block_edge_count_symmetry(self):
        # counting edges between two blocks from either side gives one number
        rng = np.random.default_rng(17)
        for _ in range(25):
            g = random_connected_graph(rng, int(rng.integers(3, 8)))
            blocks = [[], [], []]
            for v in range(1, g.n + 1):
                blocks[int(rng.integers(0, 3))].append(v)
            blocks = [b for b in blocks if b]
            p = kp.VertexPartition.from_blocks(blocks)
            prof = kp.degree_profile(g, p)
            for a in range(p.k):
                for b in range(p.k):
                    if a == b:
                        continue
                    from_a = sum(prof.row(v)[b] for v in p.blocks[a])
                    from_b = sum(prof.row(v)[a] for v in p.blocks[b])
                    assert from_a == from_b


class TestEquitable:
    def test_c4_halves(self):
        g = kp.cycle_graph(4)
        p = kp.VertexPartition.from_blocks([[1, 2], [3, 4]])
        q = kp.is_equitable(g, p)
        assert q is not None
        assert q.gamma == ((1, 1), (1, 1))

    def test_star_quotient(self):
        g, p = kp.star_graph(6)
        q = kp.is_equitable(g, p)
        assert q.gamma == ((0, 6), (1, 0))

    def test_path_halves_not_equitable(self):
        g = kp.path_graph(4)
        p = kp.VertexPartition.from_blocks([[1, 2], [3, 4]])
        assert kp.is_equitable(g, p) is None

    def test_matches_slow_oracle(self):
        # every partition of 40 random graphs, of star:6 and of one vertex
        rng = np.random.default_rng(23)
        graphs = [random_connected_graph(rng, int(rng.integers(2, 7))) for _ in range(40)]
        for g in graphs + [kp.star_graph(6)[0], kp.Graph(1, ())]:
            nbrs = adjacency_sets(g)
            for blocks in all_partitions(list(range(1, g.n + 1))):
                p = kp.VertexPartition.from_blocks(blocks)
                q = kp.is_equitable(g, p)
                got = q is not None
                assert got == is_equitable_slow(g, blocks)
                if got:
                    # every vertex of a block has its block's row of counts, as
                    # plain ints so the quotient serialises to JSON
                    for row, block in zip(q.gamma, p.blocks):
                        assert all(type(c) is int for c in row)
                        for v in block:
                            assert row == tuple(len(nbrs[v] & set(b)) for b in p.blocks)


class TestCoarsestRefinement:
    def test_p3_from_single_block(self):
        g = kp.path_graph(3)
        ref = kp.coarsest_equitable_refinement(g, single_block(g))
        assert ref.blocks == ((1, 3), (2,))

    def test_result_is_equitable_and_refines_seed(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            g = random_connected_graph(rng, int(rng.integers(2, 8)))
            ref = kp.coarsest_equitable_refinement(g, single_block(g))
            assert kp.is_equitable(g, ref) is not None
            assert refines(ref, single_block(g))

    def test_fixpoint(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(2, 8)))
            ref = kp.coarsest_equitable_refinement(g, single_block(g))
            assert kp.coarsest_equitable_refinement(g, ref) == ref

    def test_two_block_seed_respected(self):
        g, bip = kp.linear_family_graph(4)
        ref = kp.coarsest_equitable_refinement(g, bip)
        assert refines(ref, bip)
        assert [list(b) for b in ref.blocks] == [[1], [2, 3, 4, 5], [6, 7, 8, 9]]

    def test_matches_count_vector_refinement(self):
        # the count-vector loop is the definition; seeds of 1-3 blocks
        rng = np.random.default_rng(43)
        for _ in range(500):
            n, extra = int(rng.integers(2, 15)), 0.5 * float(rng.random())
            g = random_connected_graph(rng, n, extra=extra)
            seed = random_blocks(rng, g.n, int(rng.integers(1, 4)))
            ref = kp.coarsest_equitable_refinement(g, seed)
            assert ref.blocks == coarsest_equitable_refinement_slow(g, seed).blocks

    def test_cycle_from_pinned_vertex(self):
        # pinning vertex 1 of C_1000 leaves its mirror pairs {v, 1002 - v}
        g = kp.cycle_graph(1000)
        seed = kp.VertexPartition.from_blocks([[1], range(2, 1001)])
        ref = kp.coarsest_equitable_refinement(g, seed)
        assert ref.blocks == ((1,), *((v, 1002 - v) for v in range(2, 501)), (501,))

    def test_seed_must_cover(self):
        seed = kp.VertexPartition.from_blocks([[1, 2]])
        with pytest.raises(kp.PartitionMismatchError):
            kp.coarsest_equitable_refinement(kp.path_graph(3), seed)


class TestAutomorphismsAndOrbits:
    def test_path_has_two(self):
        assert len(automorphisms_slow(kp.path_graph(4))) == 2

    def test_c5_dihedral(self):
        assert len(automorphisms_slow(kp.cycle_graph(5))) == 10

    def test_k4_symmetric_group(self):
        assert len(automorphisms_slow(kp.complete_graph(4))) == 24

    def test_rotation_orbit_is_single_block(self):
        assert any(p.k == 1 for p in orbit_partitions_slow(kp.cycle_graph(4)))

    def test_orbit_partitions_are_equitable(self):
        rng = np.random.default_rng(53)
        for _ in range(15):
            g = random_connected_graph(rng, int(rng.integers(2, 7)))
            for p in orbit_partitions_slow(g):
                assert kp.is_equitable(g, p) is not None

    def test_equitable_partition_that_is_no_orbit_partition(self):
        # the cube Q3's single-block partition: equitable by regularity, but
        # no automorphism of the cube is an 8-cycle, so no orbit set equals V
        cube = [(u + 1, u + bit + 1) for u in range(8) for bit in (1, 2, 4) if not u & bit]
        g = kp.from_edge_list(8, cube)
        whole = kp.VertexPartition.from_blocks([list(range(1, 9))])
        assert kp.is_equitable(g, whole) is not None
        assert kp.coarsest_equitable_refinement(g, whole) == whole
        assert whole not in orbit_partitions_slow(g)


class TestEnumerateBipartitions:
    def test_counts(self):
        for n in range(2, 7):
            g = kp.complete_graph(n)
            bips = list(enumerate_bipartitions(g))
            assert len(bips) == 2 ** (n - 1) - 1

    def test_vertex_one_in_first_block(self):
        for bip in enumerate_bipartitions(kp.cycle_graph(5)):
            assert bip.k == 2
            assert 1 in bip.blocks[0]

    def test_all_distinct(self):
        seen = {bip.blocks for bip in enumerate_bipartitions(kp.cycle_graph(6))}
        assert len(seen) == 2**5 - 1

    def test_too_small(self):
        g = kp.Graph(1, ())
        with pytest.raises(kp.BadParameterError):
            list(enumerate_bipartitions(g))


class TestGenerators:
    def test_linear_family_structure(self):
        g, bip = kp.linear_family_graph(4)
        assert g.n == 9
        assert g.edges == (
            (1, 2),
            (1, 3),
            (1, 4),
            (1, 5),
            (2, 6),
            (3, 7),
            (4, 8),
            (5, 9),
            (6, 7),
            (8, 9),
        )
        assert bip.blocks == ((1,), (2, 3, 4, 5, 6, 7, 8, 9))

    def test_linear_family_profile_any_even_p(self):
        for p in (4, 6, 8, 10):
            g, bip = kp.linear_family_graph(p)
            assert g.n == 2 * p + 1
            prof = kp.degree_profile(g, bip)
            assert prof.row(1) == (0, p)
            for v in range(2, p + 2):
                assert prof.row(v) == (1, 1)
            for v in range(p + 2, 2 * p + 2):
                assert prof.row(v) == (0, 2)

    def test_linear_family_rejects_bad_p(self):
        for p in (3, 5, 2, 0, -4):
            with pytest.raises(kp.BadParameterError):
                kp.linear_family_graph(p)

    def test_latoro_profile(self):
        g, bip = kp.latoro_profile_graph()
        assert g.n == 7
        prof = kp.degree_profile(g, bip)
        assert prof.row(1) == (0, 4)
        rows = sorted(prof.row(v) for v in range(2, 8))
        assert rows == [(0, 2), (0, 2), (1, 1), (1, 1), (1, 1), (1, 1)]

    def test_right_angle_profile(self):
        g, bip = kp.right_angle_profile_graph()
        assert g.n == 10
        prof = kp.degree_profile(g, bip)
        s1_rows = sorted(prof.row(v) for v in bip.blocks[0])
        s2_rows = sorted(prof.row(v) for v in bip.blocks[1])
        assert s1_rows == [(1, 2), (1, 2), (1, 2), (1, 2), (2, 4)]
        assert s2_rows == [(2, 1), (2, 1), (2, 1), (2, 1), (4, 2)]

    def test_simple_families(self):
        star, sp = kp.star_graph(5)
        assert star.n == 6 and star.degree(1) == 5
        assert sp.blocks == ((1,), (2, 3, 4, 5, 6))
        c = kp.cycle_graph(5)
        assert all(c.degree(v) == 2 for v in range(1, 6))
        k = kp.complete_graph(4)
        assert len(k.edges) == 6
        p = kp.path_graph(4)
        assert p.degree(1) == 1 and p.degree(2) == 2

    def test_petersen(self):
        g = kp.petersen_graph()
        assert g.n == 10
        assert len(g.edges) == 15
        assert all(g.degree(v) == 3 for v in range(1, 11))
        # girth 5: no triangles, no 4-cycles through vertex 1
        for u, v in g.edges:
            common = set(g.neighbors(u)) & set(g.neighbors(v))
            assert not common


class TestSerialization:
    def test_edge_list_round_trip(self):
        g = kp.petersen_graph()
        again = kp.read_edge_list(write_edge_list(g))
        assert again.n == g.n and again.edges == g.edges

    def test_read_edge_list_comments_and_header(self):
        text = "# a square\nn 4\n1 2\n2 3\n\n3 4\n4 1\n"
        g = kp.read_edge_list(text)
        assert g.n == 4 and len(g.edges) == 4

    def test_read_edge_list_infers_n(self):
        g = kp.read_edge_list("1 2\n2 3\n")
        assert g.n == 3

    def test_read_edge_list_bad_tokens(self):
        # a second n header, and a file of comments only, name no graph either
        bad = ("1 two\n", "1\n", "1 2 3\n", "n x\n1 2\n", "n 3\n1 2\nn 3\n2 3\n", "# only\n\n  # comments\n")
        for text in bad:
            with pytest.raises(kp.FormatError):
                kp.read_edge_list(text)

    def test_partition_json_round_trip(self):
        p = kp.VertexPartition.from_blocks([[1, 4], [2, 3, 5, 6]])
        again = kp.partition_from_json(partition_to_json(p))
        assert again == p

    def test_partition_json_shape_checked(self):
        with pytest.raises(kp.FormatError):
            kp.partition_from_json(json.dumps({"blocks": "nope"}))
        with pytest.raises(kp.FormatError):
            kp.partition_from_json(json.dumps({"wrong": []}))
        with pytest.raises(kp.FormatError):
            kp.partition_from_json("not json")

    def test_partition_json_bool_label_rejected(self):
        with pytest.raises(kp.FormatError):
            kp.partition_from_json('{"blocks": [[true], [2, 3]]}')
