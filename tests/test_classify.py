import json
import math
from fractions import Fraction

import pytest

import oracles
from neumaier.classify import (
    NOT_REGULAR_STATUS,
    Taxonomy,
    classify,
    classify_line_graph_neumaier,
    delsarte_clique_bound,
    hoffman_clique_bound,
    is_one_walk_regular,
    refute_four_eigenvalues,
    sweep_labeled,
    sweep_verify,
)
from neumaier.cliques import is_equitable_bipartition
from neumaier.graphs import (
    complement,
    complete,
    complete_multipartite,
    cycle,
    enumerate_all_graphs,
    from_edges,
    johnson2,
    line_graph,
    petersen,
    rook,
)
from neumaier.report import aggregate_json, class_report_json
from neumaier.spectra import spectrum


def path(n):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def two_k3():
    return from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


# ---------------------------------------------------------------------------
# taxonomy


def test_classify_examples():
    rep = classify(rook(4))
    assert rep.taxonomy is Taxonomy.NEUMAIER_SRG
    assert (rep.s, rep.e) == (3, 1)
    assert classify(petersen()).taxonomy is Taxonomy.EDGE_REGULAR_NO_REGULAR_CLIQUE
    assert classify(cycle(6)).taxonomy is Taxonomy.EDGE_REGULAR_NO_REGULAR_CLIQUE
    assert classify(complete(5)).taxonomy is Taxonomy.COMPLETE_EXCLUDED
    assert classify(path(3)).taxonomy is Taxonomy.NOT_REGULAR
    assert classify(from_edges(4, [])).taxonomy is Taxonomy.REGULAR_NOT_EDGE_REGULAR


def test_not_regular_outcomes_pin_fast_path():
    # the labeled sweep bulk-counts irregular graphs with these statuses;
    # this pins them to what classify actually produces
    rep = classify(path(3))
    for tid, expected in NOT_REGULAR_STATUS.items():
        outcome = rep.theorems[tid]
        if expected == "skipped":
            assert outcome.status == "skipped"
        else:
            assert outcome.status == "holds" and outcome.vacuous


def test_neumaier_taxonomy_soundness_families():
    for g in [rook(2), rook(5), johnson2(6), complete_multipartite(4, 3)]:
        rep = classify(g)
        assert rep.taxonomy is Taxonomy.NEUMAIER_SRG
        assert rep.regular_cliques and rep.s is not None
        assert rep.regular_cliques[0].order == rep.s + 1


def test_strictly_neumaier_golden_cayley_z2z8():
    # the smallest strictly Neumaier graphs: no sweep with n <= 8 reaches
    # this branch, the strict side of the sandwich or the non-SRG side of
    # Delsarte; (status, equality, vacuous) per verifier is pinned
    expected = {
        "lem1": ("holds", False, False),
        "sandwich": ("holds", False, False),
        "hoffman": ("holds", False, False),
        "delsarte": ("holds", False, False),
        "walk": ("holds", None, True),
        "minus2": ("holds", None, True),
        "four": ("holds", None, False),
        "extension": ("holds", None, True),
    }
    graphs = oracles.cayley_z2z8_lambda4()
    assert len(graphs) == 8
    for g in graphs:
        rep = classify(g)
        assert rep.taxonomy is Taxonomy.STRICTLY_NEUMAIER
        assert (rep.erg.v, rep.erg.k, rep.erg.lam) == (16, 9, 4)
        assert rep.srg is None
        assert (rep.s, rep.e) == (3, 2)
        assert rep.regular_cliques and rep.regular_cliques[0].order == rep.s + 1
        eigs = [v for v, _ in rep.spectrum.eigs]
        assert rep.spectrum.distinct_count == len(eigs) == 6
        for root in (-1 + 2 * math.sqrt(2), -1 - 2 * math.sqrt(2)):
            assert any(math.isclose(v, root, abs_tol=1e-9) for v in eigs)
        got = {
            tid: (out.status, out.equality, out.vacuous)
            for tid, out in rep.theorems.items()
        }
        assert got == expected


# ---------------------------------------------------------------------------
# eigenvalue sandwich


def test_sandwich_equality_on_srg():
    for g in [petersen(), rook(3)]:
        out = classify(g).theorems["sandwich"]
        assert out.status == "holds" and out.equality


def test_sandwich_strict_on_c6():
    rep = classify(cycle(6))
    out = rep.theorems["sandwich"]
    assert out.status == "holds" and not out.equality
    # strictness facts behind the outcome
    a = rep.avg
    sp = rep.spectrum
    assert sp.theta_min < a.theta_m - 1e-9
    assert sp.theta_max2 > a.theta_M + 1e-9


def test_sandwich_skipped_cases():
    assert classify(two_k3()).theorems["sandwich"].status == "skipped"
    assert classify(complete_multipartite(3, 2)).theorems["sandwich"].status == "skipped"
    assert classify(path(4)).theorems["sandwich"].status == "skipped"


# ---------------------------------------------------------------------------
# Hoffman / Delsarte


def test_hoffman_bounds_exact():
    assert hoffman_clique_bound(rook(3))[1] == Fraction(3)
    assert hoffman_clique_bound(johnson2(5))[1] == Fraction(4)
    assert hoffman_clique_bound(petersen())[1] == Fraction(5, 2)


def test_hoffman_equivalence_outcomes():
    assert classify(rook(3)).theorems["hoffman"].status == "holds"
    out = classify(petersen()).theorems["hoffman"]
    assert out.status == "holds" and out.equality is False
    assert classify(johnson2(5)).theorems["hoffman"].status == "holds"


def test_delsarte_bounds():
    assert delsarte_clique_bound(rook(4))[1] == Fraction(4)
    assert delsarte_clique_bound(complete_multipartite(3, 2))[1] == Fraction(3)
    assert delsarte_clique_bound(johnson2(6))[1] == Fraction(5)


def test_delsarte_equivalence_outcomes():
    for g, s in [(rook(4), 3), (complete_multipartite(3, 2), 2), (johnson2(6), 4)]:
        rep = classify(g)
        out = rep.theorems["delsarte"]
        assert out.status == "holds"
        bound, exact = delsarte_clique_bound(g)
        assert exact == s + 1
    assert classify(cycle(6)).theorems["delsarte"].status == "skipped"


# ---------------------------------------------------------------------------
# walk regularity


def test_is_one_walk_regular():
    assert is_one_walk_regular(petersen())
    assert is_one_walk_regular(rook(3))
    k4_minus_edge = from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    with pytest.raises(ValueError):
        is_one_walk_regular(k4_minus_edge)
    with pytest.raises(ValueError):
        is_one_walk_regular(two_k3())


def test_not_one_walk_regular_example():
    # regular and connected but not vertex-homogeneous in walk counts:
    # the prism C_3 x K_2 has two kinds of edges (triangle vs rung)
    prism = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                           (0, 3), (1, 4), (2, 5)])
    assert not is_one_walk_regular(prism)


def test_walk_regular_theorem_outcomes():
    out = classify(rook(5)).theorems["walk"]
    assert out.status == "holds" and not out.vacuous
    out = classify(petersen()).theorems["walk"]
    assert out.status == "holds" and out.vacuous  # no regular clique
    out = classify(complete_multipartite(3, 2)).theorems["walk"]
    assert out.status == "holds" and not out.vacuous


# ---------------------------------------------------------------------------
# line graphs


def test_line_graph_classification():
    k44 = from_edges(8, [(i, 4 + j) for i in range(4) for j in range(4)])
    r = classify_line_graph_neumaier(k44)
    assert r.primary == "RookCase" and ("rook", 3) in r.matches

    r = classify_line_graph_neumaier(complete(5))
    assert r.primary == "JohnsonCase" and ("johnson", 3) in r.matches

    r = classify_line_graph_neumaier(complete(4))
    assert ("octahedron",) in r.matches and ("johnson", 2) in r.matches

    r = classify_line_graph_neumaier(petersen())
    assert r.primary == "NotNeumaier"
    # theta_min(L(Petersen)) = -2 but no regular clique
    sp = spectrum(line_graph(petersen()))
    assert abs(sp.theta_min + 2.0) < 1e-8

    with pytest.raises(ValueError):
        classify_line_graph_neumaier(from_edges(3, []))


def test_minus_two_corollary():
    for g in [rook(6), johnson2(7), complete_multipartite(3, 2)]:
        rep = classify(g)
        out = rep.theorems["minus2"]
        assert out.status == "holds" and not out.vacuous
        assert abs(rep.spectrum.theta_min + 2.0) < 1e-8
        assert rep.taxonomy is Taxonomy.NEUMAIER_SRG
    # Neumaier graph with theta_min < -2: vacuous
    out = classify(complete_multipartite(2, 3)).theorems["minus2"]
    assert out.status == "holds" and out.vacuous


# ---------------------------------------------------------------------------
# refuter


def test_refuter_examples():
    r = refute_four_eigenvalues(9, 1, -4, 2)
    assert r.theta1 == -3 and r.contradiction
    assert r.v == 16 and r.lam == 4
    r = refute_four_eigenvalues(6, 0, -7, 1)
    assert r.theta1 == -6 and r.contradiction
    r = refute_four_eigenvalues(4, 2, -3, 1)
    assert abs(r.theta1 + 4.0 / 3.0) < 1e-15 and r.contradiction


def test_refuter_precondition_errors():
    cases = [
        ((4, 5, -3, 1), "k > theta"),
        ((4, -1, -3, 1), "theta >= 0"),
        ((4, 2, 3, 1), "theta2 < 0"),
        ((4, 2, -3, 0.5), "e >= 1"),
        ((9, 1, -2, 2), "theta2 < -k/(theta+e)"),
    ]
    for args, fragment in cases:
        with pytest.raises(ValueError) as err:
            refute_four_eigenvalues(*args)
        assert fragment in str(err.value)


def test_refuter_residuals_tiny():
    r = refute_four_eigenvalues(11, 2, -5, 1.5)
    assert r.vertex_count_residual < 1e-12
    assert r.triangle_count_residual < 1e-12
    assert not r.integral_e and r.integral_theta


# ---------------------------------------------------------------------------
# equality transfer and quotient containment


def test_equality_transfer_and_srg_eigenvalues():
    for g in [rook(3), rook(5), johnson2(6), complete_multipartite(3, 3)]:
        rep = classify(g)
        assert rep.taxonomy is Taxonomy.NEUMAIER_SRG
        s, e = rep.s, rep.e
        k = rep.erg.k
        sp = rep.spectrum
        # theta_max2 = s - e iff SRG (here: SRG, so equality)
        assert abs(sp.theta_max2 - (s - e)) < 1e-8
        # three distinct eigenvalues are {k, s-e, -k/s}
        assert sp.distinct_count == 3
        assert abs(sp.theta_max - k) < 1e-8
        assert abs(sp.theta_min - (-k / s)) < 1e-8


def test_quotient_eigenvalues_in_spectrum():
    for g in [rook(3), rook(4), johnson2(5), complete_multipartite(4, 2)]:
        rep = classify(g)
        values = [v for v, _ in rep.spectrum.eigs]
        for clique in rep.regular_cliques:
            eq = is_equitable_bipartition(g, clique.members)
            assert eq.equitable
            for ev in eq.eigenvalues:
                assert any(abs(ev - v) < 1e-8 for v in values)


def test_neumaier_members_have_diameter_two():
    # every Neumaier graph seen at desk scale (sweeps and families) has
    # diameter 2; nothing is asserted about diameter in general
    from neumaier.graphs import diameter, from_edge_mask

    for n in range(4, 7):
        res = sweep_labeled(n)
        for mask in res.regular_masks:
            rep = classify(from_edge_mask(n, mask))
            if rep.taxonomy is Taxonomy.NEUMAIER_SRG:
                assert rep.diameter == 2
    for g in [rook(4), johnson2(6), complete_multipartite(4, 2)]:
        assert classify(g).diameter == 2


def test_taxonomy_soundness_biconditional():
    # NeumaierSRG + StrictlyNeumaier == non-complete, edge-regular, with a
    # regular clique, over every labeled graph on <= 5 vertices
    from neumaier.cliques import regular_cliques
    from neumaier.graphs import from_edge_mask, is_complete
    from neumaier.regularity import edge_regular_params

    for n in range(2, 6):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = from_edge_mask(n, mask)
            rep = classify(g)
            neumaier = rep.taxonomy in (
                Taxonomy.NEUMAIER_SRG,
                Taxonomy.STRICTLY_NEUMAIER,
            )
            definition = (
                not is_complete(g)
                and g.edge_count() > 0
                and edge_regular_params(g) is not None
                and bool(regular_cliques(g))
            )
            assert neumaier == definition


def test_constant_clique_counts_through_edges_and_vertices():
    # where the extension hypothesis holds, the number of (s+1)-cliques
    # through an edge, and through a vertex, is constant; the verifier's
    # own counts must equal these subset-enumeration counts
    for g in [
        rook(3),
        rook(4),
        complete_multipartite(3, 3),
        complete_multipartite(5, 4),
        complement(rook(5)),
    ]:
        rep = classify(g)
        out = rep.theorems["extension"]
        assert out.status == "holds" and not out.vacuous
        big = oracles.brute_cliques_of_order(g, rep.s + 1)
        per_edge = {sum(1 for c in big if {u, v} <= c) for u, v in g.edges()}
        per_vertex = {sum(1 for c in big if u in c) for u in range(g.n)}
        assert len(per_edge) == 1 and len(per_vertex) == 1
        assert out.detail.endswith(
            f"cliques per edge {sorted(per_edge)}, per vertex {sorted(per_vertex)}"
        )


def test_extension_holds_on_large_clique_counts():
    # K_{6x6} has 6^6 cliques of order e+1 = s+1, complement(rook(7)) has
    # 7! of order s+1: the sizes at which pairing every (e+1)-clique with
    # every (s+1)-clique took minutes
    for g, s_e in [
        (complete_multipartite(6, 6), (5, 5)),
        (complement(rook(7)), (6, 5)),
    ]:
        rep = classify(g)
        assert rep.taxonomy is Taxonomy.NEUMAIER_SRG
        assert (rep.s, rep.e) == s_e
        out = rep.theorems["extension"]
        assert out.status == "holds" and not out.vacuous


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_verify_families():
    corpus = (
        [rook(n) for n in range(2, 7)]
        + [johnson2(n) for n in range(4, 9)]
        + [complete_multipartite(p, m) for p in range(2, 5) for m in range(2, 5)]
    )
    agg = sweep_verify(corpus)
    assert agg.ok()
    assert agg.taxonomy_counts == {"NeumaierSRG": len(corpus)}
    assert agg.neumaier_four_count == 0


def test_sweep_verify_strictly_neumaier_cayley_z2z8():
    agg = sweep_verify(oracles.cayley_z2z8_lambda4())
    assert agg.ok()
    assert agg.taxonomy_counts == {"StrictlyNeumaier": 8}
    assert agg.distinct_histogram == {6: 8}
    assert len(agg.strictly_neumaier) == 8
    assert all(d == 6 for _, d in agg.strictly_neumaier)
    # the same sighting with four distinct eigenvalues fails ok()
    agg.strictly_neumaier[0] = (agg.strictly_neumaier[0][0], 4)
    assert not agg.ok()


def test_sweep_labeled_matches_generic_sweep_n4():
    # the kernel-accelerated exhaustive path must agree with plain
    # classify-per-graph aggregation
    graphs = []
    enumerate_all_graphs(4, graphs.append)
    slow = sweep_verify(graphs)
    fast = sweep_labeled(4).aggregate
    assert fast.total == slow.total == 64
    assert fast.taxonomy_counts == slow.taxonomy_counts
    assert fast.theorem_stats == slow.theorem_stats
    assert fast.distinct_histogram == slow.distinct_histogram
    assert fast.violations == slow.violations


def test_sweep_labeled_worker_independence():
    a = sweep_labeled(5, workers=1)
    b = sweep_labeled(5, workers=3)
    assert aggregate_json(a.aggregate) == aggregate_json(b.aggregate)
    assert a.charpoly_stats == b.charpoly_stats
    assert a.regular_masks == b.regular_masks


def test_theorem_selection():
    agg = sweep_labeled(4, theorems=("sandwich", "four")).aggregate
    assert set(agg.theorem_stats) == {"sandwich", "four"}
    with pytest.raises(ValueError):
        sweep_labeled(4, theorems=("nope",))


# ---------------------------------------------------------------------------
# report serialization


def test_class_report_json_shape():
    rep = classify(rook(3))
    doc = class_report_json(rep)
    text = json.dumps(doc, sort_keys=True)
    back = json.loads(text)
    assert back["taxonomy"] == "NeumaierSRG"
    p = back["params"]
    assert (p["v"], p["k"], p["lambda"], p["mu"]) == (9, 4, 1, 2)
    assert (p["s"], p["e"]) == (2, 1)
    assert p["kbar"] == "4" and p["mubar"] == "2"
    sp = back["spectrum"]
    assert sp["distinct"] == 3
    assert sp["charpoly"][0] == "1"
    assert [m for _, m in sp["eigs"]] == [1, 4, 4]
    assert all(
        sorted(c["members"]) == c["members"] for c in back["regular_cliques"]
    )


def test_diameter_reported_alongside_walk_data():
    rep = classify(petersen())
    assert rep.diameter == 2
    doc = class_report_json(rep)
    assert doc["diameter"] == 2
    assert json.loads(json.dumps(class_report_json(classify(two_k3()))))[
        "diameter"
    ] is None
