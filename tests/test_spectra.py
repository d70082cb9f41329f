import random
import re

import pytest

import oracles
from neumaier import _kernels, spectra
from neumaier.errors import DegenerateSpectrumError, SpectralResolutionError
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
from neumaier.regularity import triangle_count
from neumaier.spectra import (
    _distinct_from_key,
    charpoly,
    exact_integer_eigenvalue,
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
    # analyze reads the distinct count off Yun's decomposition
    # (``spectrum``), the labeled sweep off the squarefree degree of each
    # kernel key (``_distinct_from_key``): both must agree with LAPACK on
    # every labeled graph with n <= 5, and the kernel's keys must be these
    # graphs' charpolys
    for n in range(1, 6):
        counts = {}
        for m in masks(n):
            g = from_edge_mask(n, m)
            sp = spectrum(g)
            assert sp.distinct_count == len(sp.eigs) == oracles.distinct_count_oracle(g)
            assert _distinct_from_key(sp.charpoly.coeffs) == sp.distinct_count
            counts[sp.charpoly.coeffs] = counts.get(sp.charpoly.coeffs, 0) + 1
        stats, _, _ = _kernels.sweep_masks(n, 0, 1 << ((n - 1) * (n - 2) // 2))
        assert {key: count for key, (count, _, _) in stats.items()} == counts
    assert spectrum(complete(3)).distinct_count == 2
    assert spectrum(from_edges(3, [])).distinct_count == 1
    assert spectrum(rook(3)).distinct_count == 3


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


def named(sp):
    return sp.theta_max, sp.theta_max2, sp.theta_min


def test_named_eigenvalues():
    # the Spectrum properties theta_max, theta_max2 and theta_min
    assert_close(named(spectrum(rook(3))), (4, 1, -2))
    assert_close(named(spectrum(complete(4))), (3, -1, -1))
    # circulant closed form for C_5
    expected = oracles.cycle_eigenvalues(5)
    assert_close(named(spectrum(cycle(5))), (expected[0], expected[1], expected[-1]))


def assert_close(got, expected, tol=1e-9):
    assert len(got) == len(expected)
    assert all(abs(a - b) <= tol for a, b in zip(got, expected))


def test_named_eigenvalues_degenerate():
    # an edgeless graph has one distinct eigenvalue, 0: it is both the
    # largest and the smallest, and there is no second-largest
    sp = spectrum(from_edges(4, []))
    assert sp.theta_max == sp.theta_min == 0.0
    with pytest.raises(DegenerateSpectrumError):
        sp.theta_max2


# The numeric eigenvalues are split at their d - 1 widest gaps, d the
# exact distinct count; the split must be one that some gap threshold in
# [1e-13, 1.0] makes.  rook(3) has the exact spectrum {4^1, 1^4, -2^4}.
ROOK3 = [-2.0] * 4 + [1.0] * 4 + [4.0]
NOISE = (-1e-5, 1e-5, -5e-6, 5e-6)


def spectrum_from(monkeypatch, values):
    """rook(3)'s spectrum with the eigensolver replaced by ``values``."""
    monkeypatch.setattr(spectra, "jacobi_eigenvalues", lambda flat, n: sorted(values))
    return spectrum(rook(3))


def test_noisy_clusters_resolve(monkeypatch):
    noisy = [v + NOISE[i % 4] for i, v in enumerate(ROOK3[:8])] + [4.0 + 1e-5]
    sp = spectrum_from(monkeypatch, noisy)
    assert [m for _, m in sp.eigs] == [1, 4, 4]
    assert_close([v for v, _ in sp.eigs], [4, 1, -2], tol=2e-5)


@pytest.mark.parametrize("values, eigs", [
    # a cut gap just above the 1e-13 floor
    (ROOK3[:8] + [1.0 + 5e-13], [(1.0 + 5e-13, 1), (1.0, 4), (-2.0, 4)]),
    # an inside gap just below the 1.0 ceiling
    (ROOK3[:7] + [1.9, 10.0], [(10.0, 1), (1.225, 4), (-2.0, 4)]),
])
def test_threshold_range_edges_resolve(monkeypatch, values, eigs):
    sp = spectrum_from(monkeypatch, values)
    assert [m for _, m in sp.eigs] == [m for _, m in eigs]
    assert_close([v for v, _ in sp.eigs], [v for v, _ in eigs], tol=1e-15)


@pytest.mark.parametrize("values", [
    # the narrowest cut gap, 5e-14, is below the 1e-13 floor
    ROOK3[:8] + [1.0 + 5e-14],
    # a gap inside a cluster reaches the 1.0 ceiling
    ROOK3[:7] + [2.0, 10.0],
])
def test_unresolvable_gaps_raise(monkeypatch, values):
    with pytest.raises(
        SpectralResolutionError,
        match=re.escape("no tolerance in [1e-13, 1.0] yields 3 clusters"),
    ):
        spectrum_from(monkeypatch, values)


def test_tied_cut_and_inside_gap_raises(monkeypatch):
    # three gaps of 0.75 tie for two cuts; the first two would give the
    # right sizes 1, 4, 4, but no threshold separates exactly two gaps
    with pytest.raises(SpectralResolutionError):
        spectrum_from(monkeypatch, [0.0] + [0.75] * 4 + [1.5] * 3 + [2.25])


def clustered_values(rng):
    """Ascending values in a few clusters, with gaps between and inside
    them drawn across the scales the threshold range cares about."""
    scales = (0.0, 1e-15, 5e-14, 1e-13, 3e-13, 1e-9, 1e-7, 1e-4, 0.3, 0.9, 1.0, 1.5, 3.0)
    values, x = [], rng.uniform(-5, 5)
    for _ in range(rng.randint(1, 5)):
        x += rng.choice(scales[4:])
        for _ in range(rng.randint(1, 4)):
            x += rng.choice(scales)
            values.append(x)
    return values


def test_widest_gap_split_matches_tolerance_bisection():
    rng = random.Random(20261019)
    resolved = unresolved = 0
    for _ in range(4000):
        values = clustered_values(rng)
        for d in range(1, len(values) + 1):
            try:
                want = oracles.bisection_clusters(values, d)
            except SpectralResolutionError:
                with pytest.raises(SpectralResolutionError):
                    spectra._group(values, d)
                unresolved += 1
                continue
            assert spectra._group(values, d) == want, (values, d)
            resolved += 1
    assert resolved > 1000 and unresolved > 1000


def test_cluster_sizes_must_match_exact_multiplicities(monkeypatch):
    # three clean clusters, but of sizes 3, 5, 1 instead of 4, 4, 1
    with pytest.raises(SpectralResolutionError, match="multiplicities disagree"):
        spectrum_from(monkeypatch, [-2.0] * 3 + [1.0] * 5 + [4.0])


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
        kbar = 2 * g.edge_count() / v
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
            kbar = 2 * g.edge_count() / n
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
