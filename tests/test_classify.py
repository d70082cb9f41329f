import json
import math
import random
import sys
from fractions import Fraction

import pytest

import oracles
from neumaier import _kernels
from neumaier._kernels._slow import RegularMasks
from neumaier.classify import (
    _MAX_WITNESSES,
    VERIFIERS,
    Analysis,
    Taxonomy,
    _regular_groups,
    classify,
    classify_line_graph_neumaier,
    delsarte_clique_bound,
    hoffman_clique_bound,
    is_one_walk_regular,
    refute_four_eigenvalues,
    sweep_labeled,
    sweep_verify,
)
from neumaier.errors import ConsistencyError
from neumaier.graphs import (
    complement,
    complete,
    complete_multipartite,
    cycle,
    edge_mask,
    encode_graph6,
    from_edge_mask,
    from_edges,
    johnson2,
    line_graph,
    petersen,
    rook,
)
from neumaier.report import aggregate_json, class_report_json
from neumaier.spectra import Spectrum, spectrum


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


def test_irregular_graphs_share_one_verdict():
    # the labeled sweep adds every degree-irregular graph with the verdicts
    # of K_2 beside n - 2 isolated vertices; the aggregate counts each
    # theorem's status and vacuity, so those must agree on every such graph
    def verdicts(rep):
        return {tid: (o.status, o.vacuous) for tid, o in rep.theorems.items()}

    checked = 0
    for n in range(3, 7):
        rep = classify(from_edges(n, [(0, 1)]))
        assert rep.taxonomy is Taxonomy.NOT_REGULAR
        expected = verdicts(rep)
        for m in range(1 << n * (n - 1) // 2):
            g = from_edge_mask(n, m)
            if len({g.degree(u) for u in range(n)}) > 1:
                assert verdicts(classify(g)) == expected, (n, m)
                checked += 1
    assert checked == 33668


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
    assert hoffman_clique_bound(Analysis(rook(3)))[1] == Fraction(3)
    assert hoffman_clique_bound(Analysis(johnson2(5)))[1] == Fraction(4)
    assert hoffman_clique_bound(Analysis(petersen()))[1] == Fraction(5, 2)


def test_hoffman_equivalence_outcomes():
    assert classify(rook(3)).theorems["hoffman"].status == "holds"
    out = classify(petersen()).theorems["hoffman"]
    assert out.status == "holds" and out.equality is False
    assert classify(johnson2(5)).theorems["hoffman"].status == "holds"


def test_delsarte_bounds():
    assert delsarte_clique_bound(Analysis(rook(4)))[1] == Fraction(4)
    assert delsarte_clique_bound(Analysis(complete_multipartite(3, 2)))[1] == Fraction(3)
    assert delsarte_clique_bound(Analysis(johnson2(6)))[1] == Fraction(5)


def test_delsarte_equivalence_outcomes():
    for g, s in [(rook(4), 3), (complete_multipartite(3, 2), 2), (johnson2(6), 4)]:
        rep = classify(g)
        out = rep.theorems["delsarte"]
        assert out.status == "holds"
        bound, exact = delsarte_clique_bound(rep)
        assert exact == s + 1
    assert classify(cycle(6)).theorems["delsarte"].status == "skipped"


# ---------------------------------------------------------------------------
# walk regularity


def test_is_one_walk_regular():
    assert is_one_walk_regular(Analysis(petersen()))
    assert is_one_walk_regular(Analysis(rook(3)))
    k4_minus_edge = from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    with pytest.raises(ValueError):
        is_one_walk_regular(Analysis(k4_minus_edge))
    with pytest.raises(ValueError):
        is_one_walk_regular(Analysis(two_k3()))


def test_not_one_walk_regular_example():
    # regular and connected but not vertex-homogeneous in walk counts:
    # the prism C_3 x K_2 has two kinds of edges (triangle vs rung)
    prism = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                           (0, 3), (1, 4), (2, 5)])
    assert not is_one_walk_regular(Analysis(prism))


def walk_regular_every_length(g):
    """1-walk-regularity checked on every length 0..n, with no appeal to
    the distinct-eigenvalue count."""
    n = g.n
    a = [[1 if g.has_edge(i, j) else 0 for j in range(n)] for i in range(n)]
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n + 1):
        if len({power[i][i] for i in range(n)}) > 1:
            return False
        if len({power[u][v] for u, v in g.edges()}) > 1:
            return False
        power = [[sum(x * y for x, y in zip(row, col)) for col in zip(*a)] for row in power]
    return True


def test_walk_regularity_stops_at_the_last_needed_power():
    # the check builds A^l for l < distinct_count only; the verdict must
    # match the check over every length up to n
    from neumaier.graphs import from_edge_mask, is_connected
    from neumaier.regularity import is_regular

    seen = {True: 0, False: 0}
    for n in range(2, 7):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = from_edge_mask(n, mask)
            if g.edge_count() and is_regular(g) and is_connected(g):
                verdict = is_one_walk_regular(Analysis(g))
                assert verdict == walk_regular_every_length(g), (n, mask)
                seen[verdict] += 1
    # dense rows in complement form, and wide lanes: K_{6x6},
    # complement(rook(7)) and the complement of a random 6-regular graph
    larger = [complete_multipartite(6, 6), complement(rook(7)), complement(random_regular(62, 6))]
    for g in [oracles.cayley_z2z8_lambda4()[0], rook(4), complement(rook(4))] + larger:
        assert is_one_walk_regular(Analysis(g)) == walk_regular_every_length(g)
    assert seen[True] and seen[False]


def random_regular(n, d, seed=6):
    """A random simple d-regular graph on n vertices (n even): the union
    of d random perfect matchings, redrawn until they share no edge."""
    rng = random.Random(seed)
    while True:
        edges = set()
        for _ in range(d):
            perm = list(range(n))
            rng.shuffle(perm)
            edges |= {tuple(sorted(perm[i : i + 2])) for i in range(0, n, 2)}
        if len(edges) == n * d // 2:
            return from_edges(n, edges)


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
    assert r.matches == (("johnson", 2), ("octahedron",)) and r.primary == "JohnsonCase"

    # read off the root at every size: L(K_{7,7}) has 49 vertices and
    # L(K_10) 45; isolated vertices of the root do not matter
    k77 = complete_multipartite(2, 7)
    r = classify_line_graph_neumaier(from_edges(15, [(u + 1, v + 1) for u, v in k77.edges()]))
    assert (r.primary, r.matches, r.s) == ("RookCase", (("rook", 6),), 6)
    r = classify_line_graph_neumaier(complete(10))
    assert (r.primary, r.matches, r.s) == ("JohnsonCase", (("johnson", 8),), 8)

    # Whitney's exceptions K_3 and K_{1,3} share the line graph K_3
    for root in (complete(3), from_edges(4, [(0, 1), (0, 2), (0, 3)])):
        assert classify_line_graph_neumaier(root).primary == "NotNeumaier"

    r = classify_line_graph_neumaier(petersen())
    assert r.primary == "NotNeumaier"
    # theta_min(L(Petersen)) = -2 but no regular clique
    sp = spectrum(line_graph(petersen()))
    assert abs(sp.theta_min + 2.0) < 1e-8

    with pytest.raises(ValueError):
        classify_line_graph_neumaier(from_edges(3, []))


def test_line_graph_family_must_fit_the_parameters(monkeypatch):
    # the root says rook(3); a classifier that reported s = 3 would
    # contradict the family's closed form (v, k, s) = (9, 4, 2)
    monkeypatch.setattr(Analysis, "s", 3)
    with pytest.raises(ConsistencyError):
        classify_line_graph_neumaier(complete_multipartite(2, 3))


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
            eq = oracles.is_equitable_bipartition(g, clique.members)
            assert eq.equitable
            for ev in eq.eigenvalues:
                assert any(abs(ev - v) < 1e-8 for v in values)


def test_neumaier_members_have_diameter_two():
    # every Neumaier graph seen at desk scale (sweeps and families) has
    # diameter 2; nothing is asserted about diameter in general
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
# negative controls: each verifier can say "violated"


def _four_distinct(g):
    sp = spectrum(g)
    return Spectrum(sp.eigs, 4, sp.charpoly)


# srg = None makes rook(s+1) look strictly Neumaier to these verifiers;
# the multipartite flag is read directly, because avg_params refuses
# K_{3x2} and a full classify would stop at the sandwich verifier
SRG_FALSIFIED = ("sandwich", "hoffman", "delsarte", "walk", "minus2", "extension")
NEGATIVE_CONTROLS = [
    *[
        (f"{tid}-rook{side}", rook(side), "srg", lambda g: None, tid)
        for side in (3, 4)
        for tid in SRG_FALSIFIED
    ],
    ("lem1-K3x2", complete_multipartite(3, 2), "multipartite", lambda g: (False, None), "lem1"),
    ("four-rook3", rook(3), "spectrum", _four_distinct, "four"),
]


@pytest.mark.parametrize(
    "g, field, falsify, tid",
    [case[1:] for case in NEGATIVE_CONTROLS],
    ids=[case[0] for case in NEGATIVE_CONTROLS],
)
def test_verifier_reports_a_falsified_input(g, field, falsify, tid):
    ctx = Analysis(g)
    setattr(ctx, field, falsify(g))  # before the first read of the cached field
    out = VERIFIERS[tid](ctx)
    assert out.status == "violated", out.detail
    assert out.witness == encode_graph6(g)


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
    # the kernel-accelerated exhaustive path, which adds all irregular
    # graphs with the verdicts of one representative, must agree with plain
    # classify-per-graph aggregation; n = 5 adds irregular shapes n = 4
    # lacks, such as K_3 beside K_2 (disconnected, no isolated vertex)
    # and C_4 beside an isolated vertex
    for n in (4, 5):
        graphs = [from_edge_mask(n, m) for m in range(1 << n * (n - 1) // 2)]
        slow = sweep_verify(graphs)
        fast = sweep_labeled(n).aggregate
        assert fast.total == slow.total == len(graphs)
        assert fast.taxonomy_counts == slow.taxonomy_counts
        assert fast.theorem_stats == slow.theorem_stats
        assert fast.distinct_histogram == slow.distinct_histogram
        assert fast.violations == slow.violations
    # no graph on n <= 2 vertices is irregular; the sweep still reports the
    # empty bucket
    for n in (1, 2):
        assert sweep_labeled(n).aggregate.taxonomy_counts[Taxonomy.NOT_REGULAR.value] == 0


def keyed(n: int, masks: list[int]) -> RegularMasks:
    """The regular masks with the keys ``sweep_masks`` hands over with
    them when it sweeps their bases."""
    shift = (n - 1) * (n - 2) // 2
    out = RegularMasks()
    for mask in masks:
        base = mask & ((1 << shift) - 1)
        _, regular, _ = _kernels.sweep_masks(n, base, base + 1)
        out.append(mask)
        out.keys.append(regular.keys[regular.index(mask)])
    return out


def test_sweep_classifies_the_irregular_graphs_once(monkeypatch):
    # at n = 6 the sweep classifies one representative of each of its 8
    # groups of isomorphic regular graphs (172 in all) and one for all
    # 32,596 irregular ones, not one per chunk
    module = sys.modules["neumaier.classify"]
    inner = module.classify
    calls = []

    def counted(g):
        calls.append(edge_mask(g))
        return inner(g)

    monkeypatch.setattr(module, "classify", counted)
    result = sweep_labeled(6, workers=1)
    assert len(result.regular_masks) == 172
    assert len(calls) == 9 and calls[-1] == edge_mask(from_edges(6, [(0, 1)]))
    assert set(calls[:-1]) <= set(result.regular_masks)
    assert len(_regular_groups(keyed(6, calls[:-1]))) == 8
    agg = result.aggregate
    assert agg.taxonomy_counts[Taxonomy.NOT_REGULAR.value] == (1 << 15) - 172
    assert agg.total == 1 << 15 and result.ok()


def _verdict(rep: Analysis) -> tuple:
    return (
        rep.taxonomy,
        {tid: (o.status, o.equality, o.vacuous) for tid, o in rep.theorems.items()},
        rep.spectrum.distinct_count,
    )


def test_every_labeling_classifies_as_its_group_representative(sweep_results, sweep7):
    # the sweep classifies one graph per group; every other labeled regular
    # graph on n <= 7 vertices must get the same verdicts on its own
    for res in [*sweep_results.values(), sweep7]:
        for members in _regular_groups(keyed(res.n, res.regular_masks)).values():
            expected = _verdict(classify(from_edge_mask(res.n, members[0])))
            for mask in members[1:]:
                assert _verdict(classify(from_edge_mask(res.n, mask))) == expected, (res.n, mask)


def test_regular_groups_are_isomorphic_graphs(sweep_results, sweep7):
    for n, res in sweep_results.items():
        for members in _regular_groups(keyed(n, res.regular_masks)).values():
            first = from_edge_mask(n, members[0])
            assert all(oracles.perm_isomorphic(first, from_edge_mask(n, m)) for m in members)
    # the empty graph and K_2 share the one-vertex base; the border's degree
    # keeps them apart
    assert sweep_results[2].regular_masks == [0, 1]
    assert len(_regular_groups(keyed(2, [0, 1]))) == 2
    # n = 6 has 8 classes of regular graphs, n = 7 has 6, but C_3 + C_4
    # and its complement each split by the orbit of the last vertex
    assert len(_regular_groups(keyed(6, sweep_results[6].regular_masks))) == 8
    assert len(_regular_groups(keyed(7, sweep7.regular_masks))) == 8


def test_sweep_fallback_matches_per_graph_classification(monkeypatch):
    # srg = None makes C_4 look strictly Neumaier and C_5 violate the
    # sandwich; their groups must then be classified graph by graph, in the
    # kernel's scan order (bases ascending, borders in Gray-code order),
    # with the witnesses of each labeling
    monkeypatch.setattr(Analysis, "srg", property(lambda self: None))
    for n in range(1, 6):
        shift = (n - 1) * (n - 2) // 2
        scan = [
            base | (i ^ i >> 1) << shift
            for base in range(1 << shift)
            for i in range(1 << (n - 1))
        ]
        slow = sweep_verify(from_edge_mask(n, m) for m in scan)
        fast = sweep_labeled(n).aggregate
        assert fast.theorem_stats == slow.theorem_stats
        assert fast.violations == slow.violations
        assert fast.strictly_neumaier == slow.strictly_neumaier
        # the sweep reports the empty NotRegular bucket at n <= 2
        assert {k: v for k, v in fast.taxonomy_counts.items() if v} == slow.taxonomy_counts
        if n == 4:
            assert len(set(fast.strictly_neumaier)) == 3
        if n == 5:
            assert len(set(fast.violations["sandwich"])) == 12


def test_sweep_labeled_worker_independence():
    # n = 6 with two workers splits the 1024 base graphs over 16 chunks
    for n, workers in ((5, 3), (6, 2)):
        a = sweep_labeled(n, workers=1)
        b = sweep_labeled(n, workers=workers)
        assert aggregate_json(a.aggregate, a.ok()) == aggregate_json(b.aggregate, b.ok())
        assert a.charpoly_stats == b.charpoly_stats
        assert a.regular_masks == b.regular_masks == sorted(a.regular_masks)


def test_sweep_violations_are_capped_through_record_and_merge(monkeypatch):
    # srg = None on every Analysis; the witnesses must survive the aggregates
    monkeypatch.setattr(Analysis, "srg", property(lambda self: None))
    whole = sweep_verify([rook(3)] * 40)
    halves = sweep_verify([rook(3)] * 20)
    halves.merge(sweep_verify([rook(3)] * 20))
    for agg in (whole, halves):
        assert not agg.ok()
        assert sorted(agg.violations) == sorted(SRG_FALSIFIED)
        for tid in SRG_FALSIFIED:
            assert agg.theorem_stats[tid]["violated"] == 40
            assert agg.violations[tid] == [encode_graph6(rook(3))] * _MAX_WITNESSES


def test_sweep_labeled_merges_violations_across_chunks(monkeypatch, serial_pool):
    monkeypatch.setattr(Analysis, "srg", property(lambda self: None))
    one = sweep_labeled(6, workers=1)
    four = sweep_labeled(6, workers=4)  # 16 chunks, merged in this process
    assert serial_pool == [(2, 16)]
    # the 25 NeumaierSRG graphs on 6 vertices now look strictly Neumaier
    agg = one.aggregate
    assert not one.ok() and not four.ok()
    assert agg.taxonomy_counts["StrictlyNeumaier"] == 25
    violated = {tid: st["violated"] for tid, st in agg.theorem_stats.items() if st["violated"]}
    assert violated == {"hoffman": 25, "delsarte": 25, "walk": 25, "extension": 25, "minus2": 15}
    strict = sorted(g6 for g6, _ in agg.strictly_neumaier)
    assert sorted(agg.violations["hoffman"]) == strict
    assert four.aggregate.theorem_stats == agg.theorem_stats
    assert four.aggregate.violations == agg.violations


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
