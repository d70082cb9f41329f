import random

import numpy as np
import pytest

import oracles
from neumaier._kernels import FAST_CHARPOLY_MAX_N, KERNEL_KIND, load_kernel
from neumaier.graphs import (
    complement,
    complete,
    complete_multipartite,
    from_edge_mask,
    from_edges,
    johnson2,
    rook,
)
from neumaier.intpoly import squarefree_degree

slow = load_kernel("python")
try:
    fast = load_kernel("cython")
except ImportError:
    fast = None

both = pytest.mark.skipif(fast is None, reason="compiled kernel not built")


def random_graph(rng, n):
    nb = n * (n - 1) // 2
    return from_edge_mask(n, rng.getrandbits(nb) if nb else 0)


def test_selected_kernel_identifies_itself():
    assert KERNEL_KIND in ("cython", "python")
    assert slow.KERNEL_KIND == "python"


@both
def test_charpoly_agreement_across_the_int64_boundary():
    rng = random.Random(17)
    for n in range(0, FAST_CHARPOLY_MAX_N + 4):
        for _ in range(25):
            g = random_graph(rng, n)
            assert fast.charpoly_adj(g.adj, n) == slow.charpoly_adj(g.adj, n)


def test_charpoly_slow_vs_numpy():
    rng = random.Random(18)
    for _ in range(50):
        n = rng.randint(1, 9)
        g = random_graph(rng, n)
        a = np.zeros((n, n))
        for u in range(n):
            for v in range(n):
                if g.has_edge(u, v):
                    a[u, v] = 1.0
        expected = tuple(int(round(c)) for c in np.poly(np.linalg.eigvalsh(a)))
        assert slow.charpoly_adj(g.adj, n) == expected


def test_charpoly_matches_faddeev_leverrier_exhaustive_n6():
    for n in range(0, 7):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = from_edge_mask(n, mask)
            assert slow.charpoly_adj(g.adj, n) == oracles.faddeev_leverrier_charpoly(g)


def large_corpus():
    """Seeded random graphs up to 62 vertices, sparse to dense, plus
    extreme and highly structured ones."""
    rng = random.Random(20)
    graphs = [from_edges(62, []), complete(62)]
    graphs += [complete_multipartite(5, 4), complete_multipartite(2, 31)]
    graphs.append(complement(rook(6)))
    for n in (7, 9, 11, 13, 16, 24, 33, 47, 62):
        p = rng.choice((0.1, 0.5, 0.9))
        edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
        graphs.append(from_edges(n, edges))
    return graphs


def test_charpoly_matches_faddeev_leverrier_up_to_62():
    for g in large_corpus():
        assert slow.charpoly_adj(g.adj, g.n) == oracles.faddeev_leverrier_charpoly(g)


def jacobi_case(rng, n):
    flat = [0.0] * (n * n)
    for i in range(n):
        for j in range(i, n):
            v = rng.uniform(-4, 4)
            flat[i * n + j] = flat[j * n + i] = v
    return flat


def test_jacobi_matches_lapack():
    rng = random.Random(19)
    for n in (0, 1, 2, 3, 6, 11, 20, 62):
        flat = jacobi_case(rng, n)
        expect = np.linalg.eigvalsh(np.array(flat).reshape(n, n)) if n else []
        got = slow.jacobi_eigenvalues(flat, n)
        assert np.allclose(got, expect, atol=1e-9)
        if fast is not None:
            got_fast = fast.jacobi_eigenvalues(flat, n)
            assert np.allclose(got_fast, expect, atol=1e-9)


def test_jacobi_trivial_sizes():
    assert slow.jacobi_eigenvalues([], 0) == []
    assert slow.jacobi_eigenvalues([7.0], 1) == [7.0]
    if fast is not None:
        assert fast.jacobi_eigenvalues([7.0], 1) == [7.0]


def adjacency_flat(g):
    return [1.0 if g.has_edge(u, v) else 0.0 for u in range(g.n) for v in range(g.n)]


@pytest.mark.parametrize(
    "g, spectrum",
    [
        (rook(6), [(-2, 25), (4, 10), (10, 1)]),
        (complete_multipartite(5, 4), [(-4, 4), (0, 15), (16, 1)]),
        (johnson2(10), [(-2, 35), (6, 9), (16, 1)]),
        (from_edges(12, []), [(0, 12)]),
    ],
    ids=["rook6", "K5x4", "J10_2", "zero12"],
)
def test_eigenvalues_high_multiplicity(g, spectrum):
    got = slow.jacobi_eigenvalues(adjacency_flat(g), g.n)
    assert np.allclose(got, oracles.eig_oracle(g), atol=1e-9)
    expect = [v for v, m in spectrum for _ in range(m)]
    assert np.allclose(got, expect, atol=1e-9)
    assert slow.cluster_count(got, 1e-7) == len(spectrum)


def test_eigenvalue_clusters_match_exact_count_n8():
    rng = random.Random(21)
    for _ in range(1500):
        g = from_edge_mask(8, rng.getrandbits(28))
        values = slow.jacobi_eigenvalues(adjacency_flat(g), 8)
        exact = squarefree_degree(list(reversed(slow.charpoly_adj(g.adj, 8))))
        assert slow.cluster_count(values, 1e-7) == exact


def test_cluster_count():
    vals = [0.0, 0.0, 1.0, 1.0 + 1e-9, 2.0]
    assert slow.cluster_count(vals, 1e-7) == 3
    assert slow.cluster_count(vals, 1e-10) == 4
    assert slow.cluster_count([], 1e-7) == 0
    assert slow.cluster_count([5.0], 1e-7) == 1


def test_pack_unpack_roundtrip():
    coeffs = (1, 0, -15, 4, 123456789, -3)
    assert slow.unpack_charpoly(slow.pack_charpoly(coeffs)) == coeffs


@both
def test_sweep_masks_agreement():
    for n in (1, 2, 3, 4, 5):
        total = 1 << (n * (n - 1) // 2)
        ra = fast.sweep_masks(n, 0, total, 1e-7)
        rb = slow.sweep_masks(n, 0, total, 1e-7)
        assert ra[0] == rb[0] and ra[1] == rb[1]
        assert ra[3] == rb[3]
        assert {k: tuple(v) for k, v in ra[2].items()} == {
            k: tuple(v) for k, v in rb[2].items()
        }


@both
def test_sweep_masks_range_split_consistency():
    total = 1 << 10  # n = 5
    whole = fast.sweep_masks(5, 0, total, 1e-7)
    left = fast.sweep_masks(5, 0, 300, 1e-7)
    right = fast.sweep_masks(5, 300, total, 1e-7)
    assert whole[0] == left[0] + right[0]
    assert whole[1] == left[1] + right[1]
    assert whole[3] == left[3] + right[3]
    merged: dict[bytes, list[int]] = {}
    for part in (left[2], right[2]):
        for key, (count, mn, mx) in part.items():
            if key in merged:
                merged[key][0] += count
                merged[key][1] = min(merged[key][1], mn)
                merged[key][2] = max(merged[key][2], mx)
            else:
                merged[key] = [count, mn, mx]
    assert {k: tuple(v) for k, v in whole[2].items()} == {
        k: tuple(v) for k, v in merged.items()
    }


def test_sweep_masks_rejects_large_n():
    with pytest.raises(ValueError):
        slow.sweep_masks(9, 0, 10, 1e-7)
    if fast is not None:
        with pytest.raises(ValueError):
            fast.sweep_masks(9, 0, 10, 1e-7)
