"""Acceptance gate: one test per criterion, each at its stated tolerance,
printing one pass line on success (run with -s to see them)."""

import itertools
import random
import time
from fractions import Fraction

import pytest

import oracles
from neumaier.classify import (
    Analysis,
    Taxonomy,
    classify,
    classify_line_graph_neumaier,
    hoffman_clique_bound,
    is_one_walk_regular,
    refute_four_eigenvalues,
    verify_delsarte_equivalence,
    verify_hoffman_equivalence,
)
from neumaier.graphs import (
    complement,
    complete,
    complete_multipartite,
    cycle,
    decode_graph6,
    encode_graph6,
    from_edge_mask,
    from_edges,
    johnson2,
    petersen,
    rook,
)
from neumaier.regularity import triangle_count
from neumaier.spectra import _distinct_from_key, charpoly, exact_integer_eigenvalue

EIG_TOL = 1e-8


def _passed(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS -- {detail}")


def _check_family(g, s, e, values, mults):
    rep = classify(g)
    assert rep.taxonomy is Taxonomy.NEUMAIER_SRG, rep.taxonomy
    assert rep.s == s and rep.e == e, (rep.s, rep.e, s, e)
    assert [m for _, m in rep.spectrum.eigs] == mults
    for (got, _), want in zip(rep.spectrum.eigs, values):
        assert abs(got - want) < EIG_TOL
    # exact rational identities: theta_max2 = s - e and theta_min = -k/s
    k = rep.erg.k
    r2 = exact_integer_eigenvalue(rep.spectrum.charpoly, rep.spectrum.theta_max2)
    rmin = exact_integer_eigenvalue(rep.spectrum.charpoly, rep.spectrum.theta_min)
    assert r2 is not None and Fraction(r2) == Fraction(s - e)
    assert rmin is not None and Fraction(rmin) == Fraction(-k, s)


def test_criterion_1_family_golden_suite():
    t0 = time.perf_counter()
    for n in range(2, 7):
        _check_family(
            rook(n), n - 1, 1,
            [2 * (n - 1), n - 2, -2],
            [1, 2 * (n - 1), (n - 1) ** 2],
        )
    for n in range(4, 9):
        _check_family(
            johnson2(n), n - 2, 2,
            [2 * (n - 2), n - 4, -2],
            [1, n - 1, n * (n - 3) // 2],
        )
    for p, m in itertools.product(range(2, 5), range(2, 5)):
        _check_family(
            complete_multipartite(p, m), p - 1, p - 1,
            [(p - 1) * m, 0, -m],
            [1, p * (m - 1), p - 1],
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"family suite took {elapsed:.1f}s"
    _passed("1", f"family golden suite in {elapsed:.2f}s")


def test_criterion_2_exhaustive_sweep_n7(sweep_results, sweep7):
    all_sweeps = list(sweep_results.values()) + [sweep7]
    elapsed = sum(r.elapsed for r in all_sweeps)
    for res in all_sweeps:
        agg = res.aggregate
        assert agg.neumaier_four_count == 0
        assert agg.strictly_neumaier == []
        for tid in ("lem1", "sandwich", "hoffman", "delsarte", "walk",
                    "minus2", "four", "extension"):
            assert agg.theorem_stats[tid]["violated"] == 0, (res.n, tid)
        assert res.ok()
    # the biconditional and the sandwich actually fired on real members
    assert sweep7.aggregate.theorem_stats["lem1"]["holds"] > 0
    assert sweep7.aggregate.theorem_stats["sandwich"]["holds"] > 0
    assert elapsed < 600.0, f"sweeps took {elapsed:.0f}s"
    _passed(
        "2",
        f"n<=7 sweeps ({sum(r.aggregate.total for r in all_sweeps)} graphs) "
        f"in {elapsed:.1f}s: zero four-eigenvalue Neumaier graphs, "
        "every Neumaier graph strongly regular, lem1 and sandwich clean",
    )


def test_criterion_3_hoffman_delsarte_equivalences(sweep_results):
    checked = 0
    for n in range(2, 7):
        for mask in sweep_results[n].regular_masks:
            g = from_edge_mask(n, mask)
            ctx = Analysis(g)
            if ctx.is_complete or not ctx.is_connected or ctx.erg is None:
                continue
            out = verify_hoffman_equivalence(g, ctx)
            assert out.status == "holds", (n, mask, out.detail)
            dd = verify_delsarte_equivalence(g, ctx)
            if ctx.is_neumaier:
                assert dd.status == "holds", (n, mask, dd.detail)
            else:
                assert dd.status == "skipped"
            checked += 1
    assert checked > 50
    assert hoffman_clique_bound(rook(3))[1] == Fraction(3)
    assert hoffman_clique_bound(johnson2(5))[1] == Fraction(4)
    assert hoffman_clique_bound(petersen())[1] == Fraction(5, 2)
    _passed(
        "3",
        f"Hoffman/Delsarte equivalences on {checked} connected non-complete "
        "edge-regular graphs (n<=6), bounds exact on Rook(3)=3, "
        "Johnson2(5)=4, Petersen=5/2",
    )


def test_criterion_4_refuter_grid():
    deltas = [0.125, 0.5, 1.0, 2.0, 3.75, 5.5, 8.0, 13.25, 21.0, 34.5]
    count = 0
    for e in range(1, 11):
        for theta in range(0, 10):
            for dk in range(1, 11):
                k = theta + dk
                for delta in deltas:
                    theta2 = -k / (theta + e) - delta
                    r = refute_four_eigenvalues(float(k), float(theta), theta2, float(e))
                    assert r.contradiction
                    assert r.vertex_count_residual < 1e-9
                    assert r.triangle_count_residual < 1e-9
                    count += 1
    assert count == 10000
    _passed("4", "contradiction on 100% of the 10,000-point refuter grid, "
                 "residuals < 1e-9")


def test_criterion_5_line_graph_suite():
    neumaier_line_graphs = []
    for n in range(2, 6):
        knn = from_edges(2 * n, [(i, n + j) for i in range(n) for j in range(n)])
        rep = classify_line_graph_neumaier(knn)
        assert ("rook", n - 1) in rep.matches, rep
        neumaier_line_graphs.append(rep)
    for n in range(4, 8):
        rep = classify_line_graph_neumaier(complete(n))
        assert ("johnson", n - 2) in rep.matches, rep
        neumaier_line_graphs.append(rep)
    rep = classify_line_graph_neumaier(complete(4))
    assert ("octahedron",) in rep.matches
    assert classify_line_graph_neumaier(petersen()).primary == "NotNeumaier"
    for rep in neumaier_line_graphs:
        assert rep.line_report.taxonomy is Taxonomy.NEUMAIER_SRG
        assert abs(rep.line_report.spectrum.theta_min + 2.0) < EIG_TOL
    _passed("5", "line graphs of K_{n,n} (n=2..5) are rook cases, of K_n "
                 "(n=4..7) Johnson cases, of K_4 the octahedron, of "
                 "Petersen none; all are SRG with theta_min = -2")


def test_criterion_6_exactness_infrastructure(sweep7):
    # graph6 round trip (and complement involution) over all 2^21 labeled
    # 7-vertex graphs
    count = 0
    for mask in range(1 << 21):
        g = from_edge_mask(7, mask)
        assert decode_graph6(encode_graph6(g)) == g
        assert complement(complement(g)) == g
        count += 1
    assert count == 1 << 21
    # numeric cluster count equals the exact distinct count for 100% of
    # the sweep, per distinct charpoly and per graph
    assert sweep7.aggregate.cluster_mismatches == 0
    graphs_covered = 0
    for key, (cnt, mn, mx) in sweep7.charpoly_stats.items():
        exact = _distinct_from_key(key)
        assert mn == exact == mx
        graphs_covered += cnt
    assert graphs_covered == 1 << 21
    # charpoly coefficients against edge and triangle counts, exactly
    rng = random.Random(2026)
    for _ in range(1000):
        n = rng.randint(2, 16)
        g = from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2))
        c = charpoly(g).coeffs
        assert c[2] == -g.edge_count()
        if n >= 3:
            assert c[3] == -2 * triangle_count(g)
    _passed("6", "graph6 round-trip identity on all 2^21 graphs, cluster "
                 "count == exact distinct count on 100% of the n=7 sweep, "
                 "charpoly edge/triangle coefficients exact on 1000 random "
                 "graphs")


def test_criterion_7_walk_regularity_corpus():
    corpus = (
        [rook(n) for n in range(2, 6)]
        + [johnson2(n) for n in range(4, 8)]
        + [petersen()]
        + [cycle(n) for n in range(3, 13)]
        + [complete_multipartite(3, 2)]
    )
    with_clique = 0
    for g in corpus:
        ctx = Analysis(g)
        assert ctx.is_connected and ctx.is_regular
        assert is_one_walk_regular(g, ctx), "corpus member not 1-walk-regular"
        has_regular_clique = (not ctx.is_complete) and bool(ctx.regular_cliques)
        if has_regular_clique:
            assert ctx.taxonomy is Taxonomy.NEUMAIER_SRG
            with_clique += 1
    assert with_clique >= 10  # rooks, johnsons, octahedron, C_4
    _passed("7", f"all {len(corpus)} vertex-transitive corpus members are "
                 f"1-walk-regular; each of the {with_clique} with a regular "
                 "clique is strongly regular, zero exceptions")
