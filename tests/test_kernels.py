import json
import math
import random

import numpy as np
import pytest
from click.testing import CliRunner

import oracles
from neumaier import _kernels as kernel
from neumaier.graphs import (
    complement,
    complete,
    complete_multipartite,
    edge_mask,
    encode_graph6,
    from_edge_mask,
    from_edges,
    johnson2,
    rook,
)
from neumaier.intpoly import squarefree_degree


def random_graph(rng, n):
    nb = n * (n - 1) // 2
    return from_edge_mask(n, rng.getrandbits(nb) if nb else 0)


def test_selected_kernel_identifies_itself():
    assert kernel.KERNEL_KIND == "python"


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
        assert kernel.charpoly_adj(g.adj, n) == expected


def test_charpoly_matches_faddeev_leverrier_exhaustive_n6():
    for n in range(0, 7):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = from_edge_mask(n, mask)
            assert kernel.charpoly_adj(g.adj, n) == oracles.faddeev_leverrier_charpoly(g)


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
        assert kernel.charpoly_adj(g.adj, g.n) == oracles.faddeev_leverrier_charpoly(g)


def circulant(n, offsets):
    """Cayley graph of Z_n with connection set {±o : o in offsets}."""
    return from_edges(n, {tuple(sorted((v, (v + o) % n))) for v in range(n) for o in offsets})


def regular_circulant(n, d):
    """A d-regular circulant on n vertices (n d even)."""
    offsets = list(range(1, d // 2 + 1))
    if d % 2:
        offsets.append(n // 2)
    g = circulant(n, offsets)
    assert all(g.degree(v) == d for v in range(n))
    return g


def capped_random(rng, n, top, p=0.5):
    """Random graph with maximum degree exactly ``top``: vertex 0 is
    joined to 1..top first, then random edges that keep every degree
    <= top."""
    edges = {(0, v) for v in range(1, top + 1)}
    deg = [top] + [1] * top + [0] * (n - top - 1)
    for v in range(1, n):
        for u in range(1, v):
            if deg[u] < top and deg[v] < top and rng.random() < p:
                edges.add((u, v))
                deg[u] += 1
                deg[v] += 1
    return from_edges(n, edges)


def assert_charpoly_exact(g):
    assert kernel.charpoly_adj(g.adj, g.n) == oracles.faddeev_leverrier_charpoly(g), g.n


def test_charpoly_at_the_complement_switch():
    # regular graphs of degree floor(n/2) and ceil(n/2) (and one above):
    # the dense-row switch deg > n/2, and the point where the dense rows
    # save more additions than T costs
    for n in (7, 8, 9, 31, 32, 61, 62):
        for d in sorted({n // 2, (n + 1) // 2, n // 2 + 1, n // 2 + 2}):
            if n * d % 2 == 0:
                assert_charpoly_exact(regular_circulant(n, d))
    # rows of both degrees in one graph: a (2h)-regular circulant on
    # n = 4h + 1 vertices plus a matching that lifts 2h of them
    for h in (2, 7, 15):
        n = 4 * h + 1
        g = circulant(n, range(1, h + 1))
        mixed = from_edges(n, list(g.edges()) + [(v, v + 2 * h) for v in range(h)])
        degrees = {mixed.degree(v) for v in range(n)}
        assert degrees == {n // 2, (n + 1) // 2}
        assert_charpoly_exact(mixed)


def test_charpoly_one_dense_row_among_sparse_ones():
    # the hub alone saves fewer additions than T costs, so the star's
    # rows all stay plain sums
    star = from_edges(62, [(0, v) for v in range(1, 62)])
    assert_charpoly_exact(star)
    # two hubs save more than T costs, so their rows take the complement
    # form while the 60 others stay plain sums
    assert_charpoly_exact(from_edges(62, [(h, v) for h in (0, 1) for v in range(2, 62)]))
    rng = random.Random(31)
    hubs = from_edges(62, [(h, v) for h in (0, 1, 2) for v in range(3, 62)]
                      + [(u, v) for v in range(3, 62) for u in range(3, v) if rng.random() < 0.05])
    assert_charpoly_exact(hubs)


def test_charpoly_perfect_matching():
    for n in (2, 8, 62):
        assert_charpoly_exact(from_edges(n, [(v, v + 1) for v in range(0, n, 2)]))


def test_charpoly_degree_at_bit_length_jumps():
    # D = 2^j - 1 and 2^j: bitlen(D) and every lane width jump there
    for d in (15, 16, 31, 32):
        assert_charpoly_exact(regular_circulant(62, d))
        assert_charpoly_exact(capped_random(random.Random(d), 40, d))


def test_charpoly_every_order_at_a_stage_boundary():
    """Every n from 0 to 62 once.  Where some maximum degree D puts power
    n alone in a new, wider lane stage, the graph has that D; the stage
    that has to hold D^(n-1) is then the one just opened."""
    rng = random.Random(62)
    stages = kernel._slow._lane_stages
    at_boundary = 0
    for n in range(63):
        tops = [d for d in range(2, n) if len(stages(d, n)) > 1 and stages(d, n)[-1][1] == 1]
        top = rng.choice(tops) if tops else max(0, n - 1 - rng.randrange(n or 1))
        at_boundary += bool(tops)
        g = capped_random(rng, n, top, p=0.3) if n else from_edges(0, [])
        assert max((g.degree(v) for v in range(n)), default=0) == top
        assert_charpoly_exact(g)
    assert at_boundary >= 40


def test_charpoly_dense_regular_at_62():
    assert_charpoly_exact(complete(62))  # degree 61
    assert_charpoly_exact(complete_multipartite(31, 2))  # degree 60
    assert_charpoly_exact(regular_circulant(62, 59))
    rng = random.Random(90)
    assert_charpoly_exact(
        from_edges(62, [(u, v) for v in range(62) for u in range(v) if rng.random() < 0.9])
    )


def test_packed_powers_match_matrix_powers():
    """Every lane of every yielded power equals the entry of A^k, compared
    modulo M by numpy: across lane stages, with complement-form dense rows
    and with hubs among sparse rows."""
    m = (1 << 25) - 39  # products of two residues summed 62 times fit int64
    rng = random.Random(25)
    graphs = [
        regular_circulant(62, 40),
        complete(62),
        capped_random(rng, 40, 31),
        complete_multipartite(6, 6),
        complement(rook(7)),
        from_edges(62, [(0, v) for v in range(1, 62)]),
        from_edges(62, [(h, v) for h in (0, 1) for v in range(2, 62)]),
    ]
    for g in graphs:
        n = g.n
        a = oracles.adjacency_matrix(g).astype(np.int64)
        power = np.eye(n, dtype=np.int64)
        stages = set()
        for k, (rows, b) in enumerate(kernel.packed_powers(g.adj, n), 1):
            power = power @ a % m
            lanes = [[r >> (8 * b * j) & ((1 << 8 * b) - 1) for j in range(n)] for r in rows]
            assert (np.array(lanes, dtype=object) % m == power).all(), (n, k)
            stages.add(b)
        assert k == n
        assert len(stages) == len(kernel._slow._lane_stages(max(g.degree(v) for v in range(n)), n))


def test_lane_stages_cover_every_power():
    stages = kernel._slow._lane_stages
    for n in range(63):
        for top in range(n):
            plan = stages(top, n)
            assert sum(powers for _, powers in plan) == n
            widths = [w for w, _ in plan]
            assert widths == sorted(set(widths))
            k = 0
            for width, powers in plan:
                for k in range(k + 1, k + 1 + powers):
                    assert (top ** (k - 1)).bit_length() <= 8 * width


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
        got = kernel.jacobi_eigenvalues(flat, n)
        assert np.allclose(got, expect, atol=1e-9)


def test_jacobi_trivial_sizes():
    assert kernel.jacobi_eigenvalues([], 0) == []
    assert kernel.jacobi_eigenvalues([7.0], 1) == [7.0]


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
    got = kernel.jacobi_eigenvalues(adjacency_flat(g), g.n)
    assert np.allclose(got, oracles.eig_oracle(g), atol=1e-9)
    expect = [v for v, m in spectrum for _ in range(m)]
    assert np.allclose(got, expect, atol=1e-9)
    assert kernel.cluster_count(got, 1e-7) == len(spectrum)


def test_eigenvalue_clusters_match_exact_count_n8():
    rng = random.Random(21)
    for _ in range(1500):
        g = from_edge_mask(8, rng.getrandbits(28))
        values = kernel.jacobi_eigenvalues(adjacency_flat(g), 8)
        exact = squarefree_degree(list(reversed(kernel.charpoly_adj(g.adj, 8))))
        assert kernel.cluster_count(values, 1e-7) == exact


def test_cluster_count():
    vals = [0.0, 0.0, 1.0, 1.0 + 1e-9, 2.0]
    assert kernel.cluster_count(vals, 1e-7) == 3
    assert kernel.cluster_count(vals, 1e-10) == 4
    assert kernel.cluster_count([], 1e-7) == 0
    assert kernel.cluster_count([5.0], 1e-7) == 1


def labeled_sweep(n, start, stop):
    """``sweep_masks`` over bases [start, stop) with stats as tuples, and
    the edge masks that range covers; no graph's count may miss."""
    stats, regular, misses = kernel.sweep_masks(n, start, stop)
    assert misses == []
    shift = (n - 1) * (n - 2) // 2
    borders = range(1 << (n - 1))
    masks = [base | border << shift for base in range(start, stop) for border in borders]
    return ({k: tuple(v) for k, v in stats.items()}, regular), masks


def seeded_ranges():
    """(n, start, stop) for the seeded n = 7 and 8 base ranges: the empty
    and the complete base, whose borders reach K_n, and random ones."""
    rng = random.Random(2207)
    for n, width, draws in ((7, 4, 2), (8, 2, 2)):
        top = 1 << ((n - 1) * (n - 2) // 2)
        ranges = [(0, 1), (top - 1, top)]
        for _ in range(draws):
            start = rng.randrange(top - width)
            ranges.append((start, start + width))
        for start, stop in ranges:
            yield n, start, stop


def test_sweep_masks_matches_per_mask_scan_exhaustive_n6():
    for n in range(1, 7):
        bases = 1 << ((n - 1) * (n - 2) // 2)
        (stats, regular), masks = labeled_sweep(n, 0, bases)
        assert sorted(masks) == list(range(1 << (n * (n - 1) // 2)))
        # keys with their counts, the cluster range per key, and the
        # brute-force degree filter
        ref = oracles.reference_sweep_masks(n, masks)
        assert (len(masks), len(masks) - len(regular), stats) == ref[:3]
        assert sorted(regular) == ref[3]


def test_sweep_masks_matches_per_mask_scan_seeded_n7_n8():
    for n, start, stop in seeded_ranges():
        (stats, regular), masks = labeled_sweep(n, start, stop)
        ref = oracles.reference_sweep_masks(n, masks)
        assert (len(masks), len(masks) - len(regular), stats) == ref[:3], (n, start)
        assert sorted(regular) == ref[3]


def test_inertia_count_matches_the_reference_formula(monkeypatch):
    """On every class graph that the sweeps of every labeled graph with
    n <= 6 and of the seeded n = 7 and 8 ranges walk, the count from the
    prepared plan equals the earlier per-separator formula's on the same
    plan, base eigenvalues and z, and every need the sweep prepares is 0
    or 1."""
    slow = kernel._slow
    prepare, inertia_distinct = slow._prepare, slow._inertia_distinct
    sources = {}  # id of each prepared plan -> (it, lam, plan)
    counts = []

    def recorded(lam, plan):
        prepared = prepare(lam, plan)
        assert all(need in (0, 1) for _, need, _ in prepared[1]), plan
        sources[id(prepared)] = prepared, lam, plan
        return prepared

    def compared(z, prepared):
        count = inertia_distinct(z, prepared)
        _, lam, plan = sources[id(prepared)]
        assert count == oracles.reference_inertia_distinct(lam, z, plan), (lam, z, plan)
        counts.append(count)
        return count

    slow._class_walk.cache_clear()  # every class the sweeps count with is walked here
    monkeypatch.setattr(slow, "_prepare", recorded)
    monkeypatch.setattr(slow, "_inertia_distinct", compared)
    ranges = [(n, 0, 1 << (n - 1) * (n - 2) // 2) for n in range(1, 7)] + list(seeded_ranges())
    for n, start, stop in ranges:
        slow.sweep_masks(n, start, stop)
    walked = {
        (n, slow._canonical_form(from_edge_mask(n - 1, base).adj, n - 1)[0])
        for n, start, stop in ranges
        for base in range(start, stop)
    }
    assert len(counts) == sum(1 << (n - 1) for n, _ in walked)
    assert all(counts)


def inertia(lam, z, plan):
    """The kernel's inertia count for z with ``plan`` prepared against lam."""
    return kernel._slow._inertia_distinct(z, kernel._slow._prepare(lam, plan))


def assert_bordered_eigenvalues(base):
    """The base's decomposition A = V diag(lam) V^T with lam ascending, and
    for every border s the inertia count of the arrowhead with z = V^T s
    against LAPACK on the bordered adjacency matrix: below every LAPACK
    eigenvalue +- 1e-6 and below each half-integer in [-n, n] that lies
    clear of them."""
    nb = base.n
    lam, v_rows = kernel._slow._base_eigensystem(list(base.adj), nb)
    assert lam == sorted(lam)
    a = oracles.adjacency_matrix(base)
    v = np.array(v_rows).reshape(nb, nb)
    assert np.allclose(v @ np.diag(lam) @ v.T, a, rtol=0, atol=1e-13)
    assert np.allclose(v.T @ v, np.eye(nb), rtol=0, atol=1e-13)
    borders = np.array([[float(b >> u & 1) for u in range(nb)] for b in range(1 << nb)])
    full = np.zeros((1 << nb, nb + 1, nb + 1))
    full[:, :nb, :nb] = a
    full[:, :nb, nb] = full[:, nb, :nb] = borders.reshape(1 << nb, nb)
    halves = np.arange(-2 * nb - 2, 2 * nb + 3) / 2
    for s, expect in zip(borders, np.linalg.eigvalsh(full)):
        clear = halves[np.abs(halves[:, None] - expect).min(axis=1) > 1e-3]
        grid = np.concatenate([expect - 1e-6, expect + 1e-6, clear])
        z = (s @ v).tolist()
        for t in grid.tolist():
            below = int((expect < t).sum())
            # a one-separator plan: d = 1 comes back when the count is below
            assert inertia(lam, z, (1, [(t, below)])) == 1, (nb, s, t)
        # and 0 when the plan's count is off
        assert inertia(lam, z, (1, [(t, below + 1)])) == 0, (nb, s, t)


def test_bordered_eigenvalues_match_lapack_exhaustive_n6():
    # every labeled graph with n <= 6: its first n - 1 vertices are the
    # base (0 vertices at n = 1, one at n = 2), the last one the border
    for nb in range(6):
        for mask in range(1 << (nb * (nb - 1) // 2)):
            assert_bordered_eigenvalues(from_edge_mask(nb, mask))


def test_bordered_eigenvalues_on_repeated_base_eigenvalues():
    # the empty base (one eigenvalue of multiplicity n - 1) up to n = 8,
    # K_(n-1) (-1 with multiplicity n - 2) and K_(3,3) at n = 7
    bases = [from_edges(nb, []) for nb in range(8)] + [complete(nb) for nb in range(1, 8)]
    bases.append(complete_multipartite(2, 3))
    for base in bases:
        assert_bordered_eigenvalues(base)


def test_inertia_count_on_a_base_eigenvalue_takes_the_guard():
    """K_2 beside an isolated vertex has eigenvalues -1, 0, 1; bordering
    the isolated vertex gives 2K_2, with -1 and 1 twice each.  Its
    separator 0 is a base eigenvalue, a pole of Haynsworth's sum, so it
    moves off the pole before the count, which still gives d = 2."""
    slow = kernel._slow
    lam, z = [-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]
    for t in (0.0, -0.5, 0.5):
        assert inertia(lam, z, (2, [(t, 2)])) == 2, t
        # and a plan with another count below t misses
        assert inertia(lam, z, (2, [(t, 1)])) == 0, t
        assert inertia(lam, z, (2, [(t, 3)])) == 0, t
    # prepared, the separator sits one ulp above the pole, with the two
    # eigenvalues below it counted by bisection and none by the sum
    ((t, need, den),) = slow._prepare(lam, (2, [(0.0, 2)]))[1]
    assert (t, need, list(den)) == (math.nextafter(0.0, 1.0), 0, [-1.0, -t, 1.0])
    # a pole repeated one ulp apart: t passes both, with no division by zero
    lam = [-1.0, 0.0, math.nextafter(0.0, 1.0), 1.0]
    assert inertia(lam, [0.0, 1.0, 1.0, 0.0], (1, [(0.0, 2)])) in (0, 1)
    assert slow._prepare(lam, (1, [(0.0, 2)]))[1][0][0] == math.nextafter(lam[2], 1.0)
    # the plan the sweep builds for 2K_2 has its separator on that pole
    mask = 1 | 1 << 5  # edges {0, 1} and {2, 3}
    d, cuts = slow._separator_plan(4, mask)
    assert (d, [below for _, below in cuts]) == (2, [2])
    assert abs(cuts[0][0]) < 1e-12


def test_falsified_plan_fails_the_sweep(monkeypatch):
    """Negative control: every plan whose first multiplicity is one too
    large must show as cluster mismatches, keep the first graphs whose
    counts missed as witnesses, fail the sweep and exit 4.  Plans and
    the class walks that count with them live for the process, so both
    tables are emptied before the falsified plans are built, after a clean
    sweep has filled them, and again after them."""
    from neumaier.classify import _MAX_WITNESSES, sweep_labeled
    from neumaier.cli import main

    slow = kernel._slow
    plan = slow._separator_plan

    def falsified(n, mask):
        d, cuts = plan(n, mask)
        return d, [(t, below + 1) for t, below in cuts]

    json_sweep = ["sweep", "--n", "5", "--workers", "1", "--format", "json"]
    res = CliRunner().invoke(main, json_sweep)
    assert res.exit_code == 0 and "cluster_mismatch_witnesses" not in json.loads(res.output)
    # scan order: bases ascending, each with its borders in Gray order; the
    # empty graph comes first and is the only one whose count holds
    scan = [base | (i ^ i >> 1) << 6 for base in range(1 << 6) for i in range(1 << 4)]
    witnesses = sorted(encode_graph6(from_edge_mask(5, m)) for m in scan[1 : _MAX_WITNESSES + 1])
    slow._plans.cache_clear()
    slow._class_walk.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(slow, "_separator_plan", falsified)
            result = sweep_labeled(5, workers=1)
            # all but the empty graph, whose one eigenvalue needs no separator
            assert result.aggregate.cluster_mismatches == 1023
            assert sorted(result.aggregate.cluster_mismatch_witnesses) == witnesses
            assert not result.aggregate.ok() and not result.ok()
            res = CliRunner().invoke(main, ["sweep", "--n", "5", "--workers", "1"])
            assert res.exit_code == 4, res.output
            assert "cluster mismatch witnesses: " + " ".join(witnesses) in res.output
            res = CliRunner().invoke(main, json_sweep)
            assert res.exit_code == 4, res.output
            assert json.loads(res.output)["cluster_mismatch_witnesses"] == witnesses
    finally:
        slow._plans.cache_clear()
        slow._class_walk.cache_clear()
    # no falsified plan reaches a later sweep, or a pool forked for one
    assert sweep_labeled(5, workers=1).ok()


def test_unresolvable_plan_fails_the_sweep(monkeypatch):
    """Negative control: a plan graph that ``spectrum`` cannot resolve
    gives the plan (0, []), which fails every graph of its charpoly.  The
    classifier bound its own ``spectrum`` at import, so only the plans
    see the patched one: at n = 4 all 64 graphs miss, the first 32 in
    scan order are the witnesses, and the sweep exits 4."""
    from neumaier import spectra
    from neumaier.classify import _MAX_WITNESSES, sweep_labeled
    from neumaier.cli import main
    from neumaier.errors import SpectralResolutionError

    slow = kernel._slow

    def unresolvable(g):
        raise SpectralResolutionError("no gap threshold resolves the plan graph")

    scan = [base | (i ^ i >> 1) << 3 for base in range(1 << 3) for i in range(1 << 3)]
    witnesses = sorted(encode_graph6(from_edge_mask(4, m)) for m in scan[:_MAX_WITNESSES])
    slow._plans.cache_clear()
    slow._class_walk.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(spectra, "spectrum", unresolvable)
            result = sweep_labeled(4, workers=1)
            assert result.aggregate.cluster_mismatches == 64
            assert sorted(result.aggregate.cluster_mismatch_witnesses) == witnesses
            assert not result.aggregate.ok() and not result.ok()
            res = CliRunner().invoke(main, ["sweep", "--n", "4", "--workers", "1"])
            assert res.exit_code == 4, res.output
    finally:
        slow._plans.cache_clear()
        slow._class_walk.cache_clear()
    assert sweep_labeled(4).ok()


def test_sweep_border_vector_tracks_a_fresh_product(monkeypatch):
    """Each class walk keeps z by adding and subtracting rows of V along
    the Gray walk; at every border, the last one included, z stays within
    1e-13 of a freshly computed V^T s."""
    slow = kernel._slow
    class_data = slow._class_data
    inertia_distinct = slow._inertia_distinct
    seen = []  # (the V a class walk uses, the z of every border in walk order)

    def record_class(nb, mask):
        data = class_data(nb, mask)
        seen.append((np.array(data[3]).reshape(nb, nb), []))
        return data

    def record_border(z, prepared):
        seen[-1][1].append(list(z))
        return inertia_distinct(z, prepared)

    monkeypatch.setattr(slow, "_class_data", record_class)
    monkeypatch.setattr(slow, "_inertia_distinct", record_border)
    rng = random.Random(1995)
    ranges = [(7, 0, 2), (7, 32766, 32768), (8, 0, 1), (8, (1 << 21) - 1, 1 << 21)]
    for n in (7, 8):
        start = rng.randrange((1 << (n - 1) * (n - 2) // 2) - 2)
        ranges.append((n, start, start + 2))
    for n, start, stop in ranges:
        seen.clear()
        slow._class_walk.cache_clear()
        slow.sweep_masks(n, start, stop)
        nb = n - 1
        gray = [i ^ i >> 1 for i in range(1 << nb)]
        borders = np.array([[float(b >> u & 1) for u in range(nb)] for b in gray])
        classes = {slow._canonical_form(from_edge_mask(nb, b).adj, nb)[0] for b in range(start, stop)}
        assert len(seen) == len(classes)
        for v, zs in seen:
            assert np.abs(np.array(zs) - borders @ v).max() <= 1e-13, (n, start)


def test_canonical_form_relabels_each_base_onto_its_class():
    """The permutation carries every base's edges exactly onto its
    canonical mask, whose degrees ascend, and isomorphic bases share one
    mask: 1, 1, 2, 4, 11, 34 and 156 classes on 0..6 vertices."""
    for nb, classes in enumerate((1, 1, 2, 4, 11, 34, 156)):
        seen = set()
        for mask in range(1 << (nb * (nb - 1) // 2)):
            g = from_edge_mask(nb, mask)
            canonical, perm = kernel._slow._canonical_form(g.adj, nb)
            assert sorted(perm) == list(range(nb))
            relabeled = from_edges(nb, [(perm[u], perm[v]) for u, v in g.edges()])
            assert edge_mask(relabeled) == canonical, (nb, mask)
            degrees = [relabeled.degree(u) for u in range(nb)]
            assert degrees == sorted(degrees)
            seen.add(canonical)
        assert len(seen) == classes, nb


def test_every_labeling_counts_as_its_class_relabeling(monkeypatch):
    """The sweep records a labeled graph's count from its class's walk.
    On every labeled graph with n <= 6 and on the seeded n = 7 and 8
    ranges, the graph's own count, from z = V_b^T s with V_b the class's V
    permuted onto the base (row u is row perm[u]) and the class's plan
    prepared against its Λ, equals the count the class walk recorded for
    the relabeled border and the reference formula's.  V_b diagonalises
    the base, and the regular masks come with their (class, degree) keys."""
    slow = kernel._slow
    prepare, inertia_distinct = slow._prepare, slow._inertia_distinct
    plans = {}  # id of each prepared plan -> the plan
    log = []  # (prepared plan, count) of every class graph, in walk order

    def recorded(lam, plan):
        prepared = prepare(lam, plan)
        plans[id(prepared)] = plan
        return prepared

    def walked(z, prepared):
        count = inertia_distinct(z, prepared)
        log.append((prepared, count))
        return count

    slow._class_walk.cache_clear()
    monkeypatch.setattr(slow, "_prepare", recorded)
    monkeypatch.setattr(slow, "_inertia_distinct", walked)
    walks = {}  # (n, class) -> its walk's log
    ranges = [(n, 0, 1 << (n - 1) * (n - 2) // 2) for n in range(1, 7)] + list(seeded_ranges())
    for n, start, stop in ranges:
        nb = n - 1
        shift = nb * (nb - 1) // 2
        rank = {i ^ i >> 1: i for i in range(1 << nb)}
        borders = np.array([[float(s >> u & 1) for u in range(nb)] for s in range(1 << nb)])
        for base in range(start, stop):
            g = from_edge_mask(nb, base)
            cls, perm = slow._canonical_form(g.adj, nb)
            seen = len(log)
            _, regular, _ = slow.sweep_masks(n, base, base + 1)
            # the class is walked once, for its first base
            first = (n, cls) not in walks
            walk = walks.setdefault((n, cls), log[seen:])
            assert len(walk) == 1 << nb and len(log) - seen == first * len(walk)
            assert regular.keys == [(cls, (m >> shift).bit_count()) for m in regular]
            _, _, lam, v_rows = slow._class_data(nb, cls)
            v_b = np.array([v_rows[p] for p in perm]).reshape(nb, nb)
            if nb:
                a = oracles.adjacency_matrix(g)
                assert np.abs(a @ v_b - v_b * np.array(lam)).max() <= 1e-12, (nb, base)
            for s, z in enumerate((borders @ v_b).tolist()):
                relabeled = sum(1 << p for u, p in enumerate(perm) if s >> u & 1)
                prepared, count = walk[rank[relabeled]]
                own = inertia_distinct(z, prepared)
                assert own == count == oracles.reference_inertia_distinct(lam, z, plans[id(prepared)])
                assert own, (n, base, s)


def test_missed_borders_keep_the_scan_order(monkeypatch):
    """With every plan falsified, the misses of a range come back in scan
    order, the borders of each base in its own Gray-code order, although
    the class walks meet them in the order of the class's labels."""
    slow = kernel._slow
    plan = slow._separator_plan

    def falsified(n, mask):
        d, cuts = plan(n, mask)
        return d, [(t, below + 1) for t, below in cuts]

    scan = [base | (i ^ i >> 1) << 6 for base in range(1 << 6) for i in range(1 << 4)]
    slow._plans.cache_clear()
    slow._class_walk.cache_clear()
    try:
        monkeypatch.setattr(slow, "_separator_plan", falsified)
        # the empty graph is the only one whose count holds
        assert slow.sweep_masks(5, 0, 1 << 6)[2] == scan[1:33]
        assert slow.sweep_masks(5, 5, 7)[2] == scan[5 << 4 : 7 << 4]
    finally:
        slow._plans.cache_clear()
        slow._class_walk.cache_clear()


def test_sweep_plans_each_charpoly_and_solves_each_class_once(monkeypatch):
    """At n = 6 one process builds one plan for each of the 151 distinct
    charpolys, solves each of the 34 classes of 5-vertex bases once, and
    prepares each of the 544 (class, charpoly) pairs it meets once, 2,295
    separators in all; a second sweep in the process builds, solves and
    prepares nothing."""
    from neumaier.classify import sweep_labeled

    slow = kernel._slow
    plan, prepare = slow._separator_plan, slow._prepare
    planned = []
    prepared = []  # the separators of each plan prepared

    def counted(n, mask):
        planned.append(kernel.charpoly_adj(from_edge_mask(n, mask).adj, n))
        return plan(n, mask)

    def counted_prepare(lam, plan):
        prepared.append((id(lam), id(plan), len(plan[1])))
        return prepare(lam, plan)

    slow._plans.cache_clear()
    slow._class_walk.cache_clear()
    slow._class_data.cache_clear()
    monkeypatch.setattr(slow, "_separator_plan", counted)
    monkeypatch.setattr(slow, "_prepare", counted_prepare)
    first = sweep_labeled(6, workers=1)
    assert len(planned) == len(set(planned)) == len(slow._plans(6)) == 151
    assert slow._class_data.cache_info().misses == 34
    assert slow._class_walk.cache_info().misses == 34
    assert len(prepared) == len(set(prepared)) == 544
    assert sum(seps for _, _, seps in prepared) == 2295
    planned.clear()
    prepared.clear()
    second = sweep_labeled(6, workers=1)
    assert planned == [] and slow._class_data.cache_info().misses == 34
    assert prepared == []
    assert first.ok() and second.charpoly_stats == first.charpoly_stats


def test_charpoly_key_lanes_hold_the_coefficient_bound():
    for n in range(1, 9):
        w = kernel._slow._lane_bits(n)
        bound = kernel._slow._coeff_bound(n)
        assert bound == max(math.floor(math.comb(n, k) * (n - 1) ** (k / 2)) for k in range(n + 1))
        for signs in ((1,) * n, (-1,) * n, tuple((-1) ** k for k in range(n))):
            coeffs = (1,) + tuple(s * bound for s in signs)
            key = kernel._slow._pack(coeffs, w)
            assert kernel._slow._unpack_key(key, n, w) == coeffs
        half = 1 << (w - 2)
        for bad in (half, -half - 1):
            with pytest.raises(ArithmeticError):
                kernel._slow._unpack_key(kernel._slow._pack((1,) + (bad,) * n, w), n, w)
        with pytest.raises(ArithmeticError):
            kernel._slow._unpack_key(kernel._slow._pack((1,) + (0,) * n + (1,), w), n, w)


def test_sweep_masks_range_split_consistency():
    bases = 1 << 6  # n = 5
    whole = kernel.sweep_masks(5, 0, bases)
    left = kernel.sweep_masks(5, 0, 23)
    right = kernel.sweep_masks(5, 23, bases)
    # every graph of a part's bases is counted once, 2^4 borders a base
    for part, covered in ((whole, 1 << 10), (left, 23 << 4), (right, (bases - 23) << 4)):
        assert sum(count for count, _, _ in part[0].values()) == covered
    assert whole[1] == left[1] + right[1]
    assert whole[2] == left[2] + right[2] == []
    merged: dict[tuple[int, ...], list[int]] = {}
    for part in (left[0], right[0]):
        for key, (count, mn, mx) in part.items():
            if key in merged:
                merged[key][0] += count
                merged[key][1] = min(merged[key][1], mn)
                merged[key][2] = max(merged[key][2], mx)
            else:
                merged[key] = [count, mn, mx]
    assert {k: tuple(v) for k, v in whole[0].items()} == {
        k: tuple(v) for k, v in merged.items()
    }


def test_sweep_masks_rejects_large_n():
    with pytest.raises(ValueError):
        kernel.sweep_masks(9, 0, 10)
    with pytest.raises(ValueError):
        kernel.sweep_masks(5, 0, 65)
