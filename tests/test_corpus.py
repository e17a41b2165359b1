"""Every connected graph on at most six vertices as an oracle corpus.

connected_graphs builds the graphs up to isomorphism; its counts are OEIS
A001349.  Each invariant below runs over all 3 836 bipartitions of the
142 graphs with n >= 2.
"""

import itertools

import numpy as np
import pytest

import kurapart as kp
from kurapart import cli
from oracle_tools import (
    automorphisms_slow,
    certificate_motion_slow,
    coarsest_equitable_refinement_slow,
    condition2_solution_slow,
    connected_graphs,
    enumerate_bipartitions,
    least_mask,
    mask_edges,
    search_report_rows,
    search_rows_slow,
)

# OEIS A001349: connected graphs on n unlabelled vertices, n = 1..7
A001349 = (1, 1, 2, 6, 21, 112, 853)


@pytest.fixture(scope="module")
def corpus():
    graphs = connected_graphs(6)
    return [kp.Graph(n, mask_edges(n, mask)) for n in range(2, 7) for mask in graphs[n]]


@pytest.fixture(scope="module")
def corpus_rows(corpus):
    """Each corpus graph with its rows from the per-row oracle."""
    return [(g, search_rows_slow(g)) for g in corpus]


def test_counts_match_a001349():
    graphs = connected_graphs(6)
    assert tuple(len(graphs[n]) for n in range(1, 7)) == A001349[:6]


def test_each_mask_is_least_over_all_relabellings():
    for n, masks in connected_graphs(6).items():
        order = [(i, j) for j in range(1, n) for i in range(j)]
        bit = {pair: len(order) - 1 - k for k, pair in enumerate(order)}
        for mask in masks:
            edges = [(u - 1, v - 1) for u, v in mask_edges(n, mask)]
            least = min(
                sum(1 << bit[tuple(sorted((perm[u], perm[v])))] for u, v in edges)
                for perm in itertools.permutations(range(n))
            )
            assert least == mask
    # the path 3-1-2-4 in any labelling reads as 0-3-2-1: digits 001101
    assert least_mask([0b0110, 0b1001, 0b0001, 0b0010]) == 0b001101
    assert least_mask([0b0010, 0b0101, 0b1010, 0b0100]) == 0b001101


def test_corpus_holds_3836_bipartitions(corpus):
    assert len(corpus) == sum(A001349[1:6]) == 142
    assert sum((1 << (g.n - 1)) - 1 for g in corpus) == 3836


def test_classifier_matches_gauss_jordan(corpus):
    for g in corpus:
        for bip in enumerate_bipartitions(g):
            got = kp.classify_bipartition(g, bip).solution_set
            want = condition2_solution_slow(g, bip.blocks)
            assert got == want
            assert repr(got) == repr(want)


def test_search_rows_match_per_row_oracle(corpus_rows):
    for g, want in corpus_rows:
        assert search_report_rows(kp.search_all_bipartitions(g)) == tuple(want)


def test_refinement_matches_count_vector_loop(corpus):
    for g in corpus:
        for bip in enumerate_bipartitions(g):
            got = kp.coarsest_equitable_refinement(g, bip)
            assert got.blocks == coarsest_equitable_refinement_slow(g, bip).blocks


def test_unique_certificates_have_tiny_residuals(corpus_rows):
    unique, worst = 0, 0.0
    for g, rows in corpus_rows:
        for row in rows:
            if row.classification is not kp.Classification.CONDITION2_UNIQUE:
                continue
            cert = row.certificate
            bip = kp.VertexPartition((cert.s1, cert.s2))
            worst = max(worst, kp.verify_certificate(g, bip, cert))
            unique += 1
    # which rows are Condition2Unique depends on the labelling while a
    # point solution with mu1 < mu2 reads Infeasible (ROADMAP item 1):
    # labelling each graph the other way round gives 248 such rows, not 147
    assert unique == 147
    assert worst < 1e-9


def _verdict(g, bip):
    """What an automorphism must keep of a bipartition's classification: the
    label, the solution kind, the feasibility, the unordered gains and r."""
    result = kp.classify_bipartition(g, bip)
    sol, cert, family = result.solution_set, result.certificate, result.family
    feasible = cert.feasible if cert else family.feasible if family else False
    mu1, mu2, r = sol.basepoint or (None, None, None)
    return result.classification, sol.kind, feasible, frozenset((mu1, mu2)), r


@pytest.mark.xfail(
    strict=True, reason="ROADMAP item 1: a point with mu1 < mu2 reads Infeasible until its blocks are swapped"
)
def test_automorphisms_keep_every_verdict():
    graphs = [kp.complete_graph(6)]
    graphs += [kp.Graph(n, mask_edges(n, m)) for n, masks in connected_graphs(5).items() if n > 1 for m in masks]
    broken = []
    for g in graphs:
        verdicts = {bip.blocks: _verdict(g, bip) for bip in enumerate_bipartitions(g)}
        perms = automorphisms_slow(g)
        for blocks, want in verdicts.items():
            for perm in perms:
                image = kp.VertexPartition.from_blocks([[perm[v - 1] for v in b] for b in blocks])
                if verdicts[image.blocks] != want:
                    broken.append((g.n, g.edges, blocks))
                    break
    assert broken == []


@pytest.mark.xfail(
    strict=True, reason="ROADMAP item 1: the equitable line is reported only where mu1 > mu2"
)
def test_equitable_bipartitions_are_alpha_kuramoto(corpus):
    # the paper's first theorem: every equitable partition is alpha-Kuramoto.
    # The mu1 == mu2 line (c1 = c2 and d1 = d2) is left out: item 1 reports
    # it as a boundary family flagged mu_equal.  Today 32 of the 89 rows,
    # on 21 graphs, read infeasible, {1,2} | {3,4,5,6} of complete:6 among them
    rows, broken = 0, []
    for g in corpus:
        for bip in enumerate_bipartitions(g):
            result = kp.classify_bipartition(g, bip)
            if result.classification is not kp.Classification.EQUITABLE:
                continue
            (d1, c1), (c2, d2) = result.quotient.gamma
            if c1 == c2 and d1 == d2:
                continue
            rows += 1
            if not result.family.feasible:
                broken.append((g.n, g.edges, bip.blocks))
    assert rows == 89
    assert broken == []


# the builtins at sizes a search covers in well under a second
BUILTINS = ("latoro", "kura-eg", "petersen", "linear:4", "star:5", "cycle:8", "complete:6", "path:7")


def test_certificate_motion_matches_old_construction(corpus):
    # bit for bit: states, derivatives and their shapes, on verify's grid;
    # also with the vertex sets swapped, so s1 is the block without vertex 1
    grid = np.linspace(0.0, 10.0, 101)
    graphs = [cli._builtin(name)[0] for name in BUILTINS] + corpus
    seen = 0
    for g in graphs:
        for row in search_report_rows(kp.search_all_bipartitions(g)):
            cert = row.certificate
            if cert is None:
                continue
            for sets in (cert, cert._replace(s1=cert.s2, s2=cert.s1)):
                traj = kp.certificate_to_solution(sets, c=0.4).sample(grid)
                states, derivatives = certificate_motion_slow(sets, 0.4, grid)
                assert traj.states.shape == states.shape
                assert traj.derivatives.shape == derivatives.shape
                assert traj.states.tobytes() == states.tobytes()
                assert traj.derivatives.tobytes() == derivatives.tobytes()
            seen += 1
    assert seen >= 147 + 241  # the corpus alone holds 147 unique and 241 boundary rows
