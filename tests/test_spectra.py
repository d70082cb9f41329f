import math
import random

import pytest

import oracles
from neumaier.errors import DegenerateSpectrumError
from neumaier.graphs import (
    complement,
    complete,
    complete_multipartite,
    cycle,
    from_edge_mask,
    from_edges,
    johnson2,
    petersen,
    rook,
)
from neumaier.intpoly import squarefree_decomposition
from neumaier.regularity import degree_profile, triangle_count
from neumaier.spectra import (
    CharPoly,
    charpoly,
    classify_by_eigenvalue_count,
    distinct_eigenvalue_count,
    exact_integer_eigenvalue,
    named_eigenvalues,
    spectrum,
)


def masks(n):
    return range(1 << (n * (n - 1) // 2))


def test_charpoly_hand_examples():
    # 3x3 determinant expansion of xI - A for K_3: x^3 - 3x - 2
    assert charpoly(complete(3)).coeffs == (1, 0, -3, -2)
    # 4x4 determinant for C_4: x^4 - 4x^2
    assert charpoly(cycle(4)).coeffs == (1, 0, -4, 0, 0)
    assert charpoly(from_edges(3, [])).coeffs == (1, 0, 0, 0)


def test_charpoly_against_numpy_oracle():
    rng = random.Random(3)
    for _ in range(150):
        n = rng.randint(1, 12)
        nb = n * (n - 1) // 2
        g = from_edge_mask(n, rng.getrandbits(nb) if nb else 0)
        assert charpoly(g).coeffs == oracles.charpoly_oracle(g)


def test_charpoly_edge_and_triangle_coefficients():
    rng = random.Random(4)
    graphs = []
    for _ in range(100):
        n = rng.randint(2, 12)
        graphs.append(from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2)))
    for n in (16, 24, 33, 47, 62):
        graphs.append(from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2)))
    graphs += [complement(rook(6)), complete_multipartite(5, 4), from_edges(62, [])]
    for g in graphs:
        n = g.n
        c = charpoly(g).coeffs
        assert c[1] == 0
        assert c[2] == -g.edge_count()
        if n >= 3:
            assert c[3] == -2 * triangle_count(g)


def test_distinct_counts():
    assert distinct_eigenvalue_count(charpoly(complete(3))) == 2
    assert distinct_eigenvalue_count(charpoly(from_edges(3, []))) == 1
    r3 = rook(3)
    assert distinct_eigenvalue_count(charpoly(r3)) == 3
    assert distinct_eigenvalue_count(charpoly(r3)) == oracles.distinct_count_oracle(r3)


def test_spectrum_family_examples():
    assert_spectrum(rook(3), [(4, 1), (1, 4), (-2, 4)])
    assert_spectrum(johnson2(5), [(6, 1), (1, 4), (-2, 5)])
    assert_spectrum(petersen(), [(3, 1), (1, 5), (-2, 4)])


def assert_spectrum(g, expected):
    sp = spectrum(g)
    assert len(sp.eigs) == len(expected)
    for (val, mult), (eval_, emult) in zip(sp.eigs, expected):
        assert abs(val - eval_) < 1e-8
        assert mult == emult
    # cross-check against the LAPACK oracle
    assert [
        (round(v, 6), m) for v, m in sp.eigs
    ] == [(round(v, 6), m) for v, m in oracles.spectrum_oracle(g)]


def test_spectrum_matches_oracle_exhaustive_n4():
    for m in masks(4):
        g = from_edge_mask(4, m)
        sp = spectrum(g)
        assert [(round(v, 6), mult) for v, mult in sp.eigs] == [
            (round(v, 6), mult) for v, mult in oracles.spectrum_oracle(g)
        ]
        assert sp.distinct_count == len(sp.eigs)


def test_named_eigenvalues():
    assert_close(named_eigenvalues(spectrum(rook(3))), (4, 1, -2))
    assert_close(named_eigenvalues(spectrum(complete(4))), (3, -1, -1))
    # circulant closed form for C_5
    expected = oracles.cycle_eigenvalues(5)
    got = named_eigenvalues(spectrum(cycle(5)))
    assert_close(got, (expected[0], expected[1], expected[-1]))


def assert_close(got, expected, tol=1e-9):
    assert all(abs(a - b) <= tol for a, b in zip(got, expected))


def test_named_eigenvalues_degenerate():
    with pytest.raises(DegenerateSpectrumError):
        named_eigenvalues(spectrum(from_edges(4, [])))


def test_cluster_tolerance_refinement():
    # absurdly coarse tolerance merges everything; bisection must recover
    sp = spectrum(cycle(5), tol=0.9)
    assert sp.distinct_count == 3
    assert len(sp.eigs) == 3
    with pytest.raises(ValueError):
        spectrum(cycle(5), tol=-1.0)


def test_classify_by_eigenvalue_count():
    assert classify_by_eigenvalue_count(from_edges(5, [])).kind == "Edgeless"
    two_k3 = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    res = classify_by_eigenvalue_count(two_k3)
    assert res.kind == "DisjointEqualCliques" and res.clique_order == 3
    assert classify_by_eigenvalue_count(petersen()).kind == "SRGCandidate"
    assert classify_by_eigenvalue_count(from_edges(3, [(0, 1), (1, 2)])).kind == "Other"
    assert classify_by_eigenvalue_count(complete(4)).kind == "DisjointEqualCliques"


def test_exact_integer_eigenvalue():
    p = charpoly(rook(3))
    assert exact_integer_eigenvalue(p, -2.0000000001) == -2
    assert exact_integer_eigenvalue(p, 3.9999999999) == 4
    assert exact_integer_eigenvalue(p, 2.5) is None
    assert exact_integer_eigenvalue(p, 0.0) is None  # 0 is not a root


def test_trace_identities_exhaustive_n4():
    # power sums against the averaged degree/triangle identities
    for m in masks(4):
        g = from_edge_mask(4, m)
        sp = spectrum(g)
        v = g.n
        kbar = float(degree_profile(g)[2])
        s1 = sum(val * mult for val, mult in sp.eigs)
        s2 = sum(val**2 * mult for val, mult in sp.eigs)
        s3 = sum(val**3 * mult for val, mult in sp.eigs)
        assert charpoly(g).coeffs[1] == 0  # exact trace
        assert abs(s1) < 1e-9
        assert abs(s2 - v * kbar) < 1e-6 * v
        if g.edge_count():
            lbar = 3 * triangle_count(g) / g.edge_count()
            assert abs(s3 - v * kbar * lbar) < 1e-6 * v * (kbar + 1)


def test_largest_eigenvalue_bound_small():
    # theta_max >= kbar, equality iff regular
    for n in range(2, 6):
        for m in masks(n):
            g = from_edge_mask(n, m)
            if g.edge_count() == 0:
                continue
            sp = spectrum(g)
            kbar = float(degree_profile(g)[2])
            regular = len({g.degree(u) for u in range(n)}) == 1
            assert sp.theta_max >= kbar - 1e-9
            assert (abs(sp.theta_max - kbar) <= 1e-9) == regular


def random_regular(n, d, rng):
    """A random d-regular graph on n vertices: stubs paired at random,
    starting over when the pairing gets stuck."""
    while True:
        stubs = [u for u in range(n) for _ in range(d)]
        edges = set()
        while stubs:
            for _ in range(100):
                i, j = rng.sample(range(len(stubs)), 2)
                u, v = sorted((stubs[i], stubs[j]))
                if u != v and (u, v) not in edges:
                    break
            else:
                break
            edges.add((u, v))
            for k in sorted((i, j), reverse=True):
                stubs.pop(k)
        if not stubs:
            return from_edges(n, edges)


def assert_golden_decomposition(g):
    p = charpoly(g).low_to_high()
    decomp = squarefree_decomposition(p)
    assert decomp == oracles.prs_squarefree_decomposition(p)
    mults = sorted(m for m, f in decomp for _ in range(len(f) - 1))
    assert mults == sorted(m for _, m in oracles.spectrum_oracle(g))
    return decomp


def test_squarefree_decomposition_golden_random_regular():
    rng = random.Random(16)
    for i, n in enumerate(range(16, 63, 4)):
        d = max(3, round(n * (0.15, 0.25, 0.35, 0.45)[i % 4]))
        d += (n * d) % 2
        assert_golden_decomposition(random_regular(n, d, rng))
    assert_golden_decomposition(random_regular(62, 30, rng))


def test_squarefree_decomposition_golden_cayley_z2z8():
    graphs = oracles.cayley_z2z8_lambda4()
    assert len(graphs) == 8
    # 9, then -3 and -1 +- 2 sqrt(2) twice each: (x + 3)(x^2 + 2x - 7)
    # = x^3 + 5x^2 - x - 21; then (-1)^4 and 1^5
    for g in graphs:
        assert assert_golden_decomposition(g) == [
            (1, [-9, 1]), (2, [-21, -1, 5, 1]), (4, [1, 1]), (5, [-1, 1])
        ]


def test_squarefree_decomposition_golden_large_multiplicities():
    # K_{6x6}: 30, 0^30, (-6)^5
    decomp = assert_golden_decomposition(complete_multipartite(6, 6))
    assert decomp == [(1, [-30, 1]), (5, [6, 1]), (30, [0, 1])]
    # complement(rook(7)): 36, (-6)^12, 1^36
    decomp = assert_golden_decomposition(complement(rook(7)))
    assert decomp == [(1, [-36, 1]), (12, [6, 1]), (36, [-1, 1])]
