import math
from fractions import Fraction

import pytest

import oracles
from neumaier.errors import ConsistencyError
from neumaier.graphs import (
    complete,
    complete_multipartite,
    cycle,
    from_edge_mask,
    from_edges,
    johnson2,
    petersen,
    rook,
)
from neumaier.regularity import (
    ErgParams,
    MuTrichotomy,
    avg_params,
    degree_profile,
    edge_regular_params,
    exact_clique_s,
    is_complete_multipartite,
    mu_trichotomy,
    srg_params,
    triangle_count,
)
from neumaier.spectra import spectrum


def path(n):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def masks(n):
    return range(1 << (n * (n - 1) // 2))


def test_degree_profile_examples():
    assert degree_profile(petersen()) == (3, 3, Fraction(3))
    assert degree_profile(path(3)) == (1, 2, Fraction(4, 3))
    assert degree_profile(from_edges(3, [])) == (0, 0, Fraction(0))


def test_edge_regular_examples():
    assert edge_regular_params(petersen()) == ErgParams(10, 3, 0)
    assert edge_regular_params(rook(3)) == ErgParams(9, 4, 1)
    assert edge_regular_params(path(3)) is None
    with pytest.raises(ValueError):
        edge_regular_params(from_edges(3, []))


def test_edge_regular_against_pair_oracle():
    # brute-force pair check over every 5-vertex graph with an edge
    for m in masks(5):
        g = from_edge_mask(5, m)
        if g.edge_count() == 0:
            continue
        degs = {g.degree(u) for u in range(5)}
        lam_values = {
            oracles.common_neighbors_oracle(g, u, v) for u, v in g.edges()
        }
        expected = len(degs) == 1 and len(lam_values) == 1
        assert (edge_regular_params(g) is not None) == expected


def test_srg_examples():
    p = srg_params(petersen())
    assert (p.v, p.k, p.lam, p.mu) == (10, 3, 0, 1)
    r = srg_params(rook(3))
    assert (r.v, r.k, r.lam, r.mu) == (9, 4, 1, 2)
    assert srg_params(cycle(6)) is None
    with pytest.raises(ValueError):
        srg_params(complete(4))


def test_srg_disjoint_cliques_convention():
    two_k3 = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    p = srg_params(two_k3)
    assert p is not None and p.mu == 0


def test_complete_multipartite_examples():
    ok, parts = is_complete_multipartite(complete_multipartite(3, 2))
    assert ok and parts == (2, 2, 2)
    ok, parts = is_complete_multipartite(petersen())
    assert not ok and parts is None
    ok, parts = is_complete_multipartite(complete(4))
    assert ok and parts == (1, 1, 1, 1)
    ok, parts = is_complete_multipartite(from_edges(3, []))
    assert ok and parts == (3,)


def test_multipartite_boundary_biconditional_small():
    # v + lam - 2k = 0 iff complete multipartite, over all edge-regular
    # graphs on <= 6 vertices
    for n in range(2, 7):
        for m in masks(n):
            g = from_edge_mask(n, m)
            if g.edge_count() == 0:
                continue
            erg = edge_regular_params(g)
            if erg is None:
                continue
            assert (erg.v + erg.lam - 2 * erg.k == 0) == is_complete_multipartite(g)[0]


def test_clique_bound_examples():
    assert abs(oracles.clique_bound_s(ErgParams(9, 4, 1)) - 2.0) < 1e-12
    assert abs(oracles.clique_bound_s(ErgParams(10, 3, 0)) - 1.5) < 1e-12
    # C_5: s = -1 + sqrt(5)
    assert abs(oracles.clique_bound_s(ErgParams(5, 2, 0)) - (-1 + math.sqrt(5))) < 1e-12
    with pytest.raises(ValueError):
        oracles.clique_bound_s(ErgParams(4, 2, 0))  # C_4 is complete multipartite


def test_exact_clique_s():
    assert exact_clique_s(ErgParams(9, 4, 1)) == 2
    assert exact_clique_s(ErgParams(10, 3, 0)) is None


def test_nexus_examples():
    assert oracles.nexus_e(9, 4, 2) == 1
    assert oracles.nexus_e(10, 6, 3) == 2
    assert oracles.nexus_e(6, 4, 2) == 2  # octahedron: e = s
    with pytest.raises(ValueError):
        oracles.nexus_e(4, 3, 3)


def test_avg_params_petersen():
    a = avg_params(petersen())
    assert a.kbar == 3 and a.lambdabar == 0 and a.mubar == 1
    assert abs(a.sbar - 1.5) < 1e-12
    assert abs(a.theta_m + 2.0) < 1e-12
    assert abs(a.theta_M - 1.0) < 1e-12


def test_avg_params_rook3():
    a = avg_params(rook(3))
    assert a.kbar == 4 and a.lambdabar == 1 and a.mubar == 2
    assert abs(a.sbar - 2.0) < 1e-12
    assert abs(a.theta_m + 2.0) < 1e-12
    assert abs(a.theta_M - 1.0) < 1e-12


def test_avg_params_c6():
    a = avg_params(cycle(6))
    assert a.kbar == 2 and a.lambdabar == 0 and a.mubar == Fraction(2, 3)
    expected_s = (-1 + math.sqrt(13)) / 2
    assert abs(a.sbar - expected_s) < 1e-12
    assert abs(a.theta_m + 2.0 / expected_s) < 1e-12


def test_avg_params_preconditions():
    with pytest.raises(ValueError):
        avg_params(complete_multipartite(3, 2))
    with pytest.raises(ValueError):
        avg_params(from_edges(2, [(0, 1)]))
    with pytest.raises(ValueError):
        avg_params(from_edges(5, []))


def test_mu_trichotomy_examples():
    assert mu_trichotomy(avg_params(petersen())) is MuTrichotomy.K_GREATER
    assert mu_trichotomy(avg_params(cycle(6))) is MuTrichotomy.K_GREATER
    matching = from_edges(6, [(0, 1), (2, 3), (4, 5)])
    a = avg_params(matching)
    assert a.mubar == 0 and a.kbar == 1
    assert mu_trichotomy(a) is MuTrichotomy.K_EQUAL


def test_mu_trichotomy_k_less():
    # K_4 plus an isolated vertex: lambda-bar (=2) exceeds kbar-1 (=7/5),
    # so mubar = -9/10 < 0 (only irregular graphs can do this)
    g = from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    a = avg_params(g)
    assert a.mubar == Fraction(-9, 10)
    assert mu_trichotomy(a) is MuTrichotomy.K_LESS


def test_triangle_count():
    assert triangle_count(complete(4)) == 4
    assert triangle_count(petersen()) == 0
    assert triangle_count(rook(3)) == 6


def test_avg_identities_exhaustive_small():
    # lemma guarantees + the constructor's internal identity checks over
    # every admissible graph on <= 6 vertices
    checked = 0
    for n in range(3, 7):
        for m in masks(n):
            g = from_edge_mask(n, m)
            if g.edge_count() == 0 or is_complete_multipartite(g)[0]:
                continue
            a = avg_params(g)  # raises ConsistencyError on identity failure
            assert g.n > a.kbar + 1
            assert g.n + a.lambdabar - 2 * a.kbar > 0
            assert a.theta_m < 0 < a.theta_M
            checked += 1
    assert checked > 30000


def test_srg_averages_match_exact_parameters():
    for g in [petersen(), rook(3), johnson2(5)]:
        p = srg_params(g)
        a = avg_params(g)
        assert (a.kbar, a.lambdabar, a.mubar) == (p.k, p.lam, p.mu)
        sp = spectrum(g)
        non_valency = [v for v, _ in sp.eigs[1:]]
        assert abs(a.theta_M - non_valency[0]) < 1e-8
        assert abs(a.theta_m - non_valency[-1]) < 1e-8


def test_imprimitive_srg_thresholds():
    # disjoint equal cliques: theta_M coincides with the valency
    two_k3 = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    a = avg_params(two_k3)
    p = srg_params(two_k3)
    assert p.mu == 0
    assert abs(a.theta_M - p.k) < 1e-9
    assert abs(a.theta_m + 1.0) < 1e-9
