"""Independent oracles for expected-value computation.

Nothing here shares code with the package implementation: eigenvalues
come from numpy's LAPACK bindings, exact charpolys from the
Faddeev-LeVerrier recurrence, polynomial gcds from the primitive
pseudo-remainder sequence, isomorphism from raw permutation search,
distances from Floyd-Warshall, cliques from subset enumeration.

Two reference implementations keep the package's earlier clique layer:
the recursive pivoting enumeration, whose emission order the package
must reproduce, and the extension check that pairs every (e+1)-clique
with every (s+1)-clique.  The latter takes its cliques of a given order
from the package's ``cliques_of_order``, which is checked against
subset enumeration on its own.

A third keeps the labeled sweep's earlier per-mask scan, which the
bordered-charpoly kernel must reproduce exactly.  It takes the charpoly,
eigenvalues and cluster count of each graph from the package's
single-graph kernels, which are checked against Faddeev-LeVerrier and
LAPACK on their own.

A fourth keeps the earlier clustering of ``spectra.spectrum``: start
at gap tolerance 1e-7 and, when that misses the exact distinct count,
bisect the tolerance geometrically in [1e-13, 1.0].  Splitting at the
d - 1 widest gaps must give the same clusters, and fail on the same
inputs.

Three closed forms that only tests called stay here as references: the
outside-adjacency counts of a clique, and the float clique-bound root s
and nexus e of edge-regular parameters.

The eight strictly Neumaier Cayley graphs of Z2 x Z8 are found here by
search over connection sets, so the spectra and classify tests share
one positive control.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Iterable, Iterator

import numpy as np

from neumaier._kernels import charpoly_adj, cluster_count, jacobi_eigenvalues
from neumaier.cliques import ExtensionReport, cliques_of_order
from neumaier.errors import ConsistencyError, SpectralResolutionError
from neumaier.graphs import Graph, bits, from_edge_mask, from_edges


def adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u in range(g.n):
        for v in bits(g.adj[u]):
            a[u, v] = 1.0
    return a


def eig_oracle(g: Graph) -> np.ndarray:
    """Ascending eigenvalues via numpy (LAPACK), independent of the
    package's eigensolver."""
    if g.n == 0:
        return np.zeros(0)
    return np.linalg.eigvalsh(adjacency_matrix(g))


def spectrum_oracle(g: Graph, decimals: int = 6) -> list[tuple[float, int]]:
    """Descending (value, multiplicity) pairs by rounding-and-counting."""
    counts = Counter(np.round(eig_oracle(g), decimals))
    return [(float(v), m) for v, m in sorted(counts.items(), reverse=True)]


def charpoly_oracle(g: Graph) -> tuple[int, ...]:
    """Integer charpoly via numpy roots-to-coefficients; exact because
    the coefficients of desk-scale graphs sit far below 2**53."""
    if g.n == 0:
        return (1,)
    coeffs = np.poly(eig_oracle(g))
    return tuple(int(round(c)) for c in coeffs)


def faddeev_leverrier_charpoly(g: Graph) -> tuple[int, ...]:
    """Exact integer charpoly for any n by the Faddeev-LeVerrier
    recurrence M_k = A M_(k-1) + c_(k-1) I, c_k = -tr(A M_k) / k, in
    Python integers.  Same coefficient order as the package:
    (1, c_1, ..., c_n)."""
    n = g.n
    nbrs = [list(bits(row)) for row in g.adj]
    c = [1]
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        # row i of A M is the sum of the rows of M at i's neighbours
        m = [[sum(col) for col in zip(*(m[j] for j in nb))] if nb else [0] * n for nb in nbrs]
        for i in range(n):
            m[i][i] += c[-1]
        trace = sum(m[j][i] for i in range(n) for j in nbrs[i])
        q, r = divmod(-trace, k)
        assert r == 0, "Faddeev-LeVerrier division must be exact"
        c.append(q)
    return tuple(c)


def reference_sweep_masks(
    n: int, masks: Iterable[int], tol: float
) -> tuple[int, int, dict[tuple[int, ...], tuple[int, int, int]], list[int]]:
    """The per-mask labeled sweep scan: for each edge mask, the charpoly
    from scratch, the eigenvalues and their cluster count at ``tol``, and
    a degree filter.  Returns (total, irregular, stats, regular_masks)
    like ``sweep_masks``, stats as charpoly -> (count, min, max) and the
    regular masks ascending."""
    stats: dict[tuple[int, ...], list[int]] = {}
    regular = []
    total = 0
    for mask in sorted(masks):
        g = from_edge_mask(n, mask)
        total += 1
        if len({row.bit_count() for row in g.adj}) == 1:
            regular.append(mask)
        flat = [1.0 if g.has_edge(u, v) else 0.0 for u in range(n) for v in range(n)]
        clusters = cluster_count(jacobi_eigenvalues(flat, n), tol)
        entry = stats.setdefault(charpoly_adj(g.adj, n), [0, clusters, clusters])
        entry[0] += 1
        entry[1] = min(entry[1], clusters)
        entry[2] = max(entry[2], clusters)
    return total, total - len(regular), {k: tuple(v) for k, v in stats.items()}, regular


def bisection_clusters(values_asc: list[float], d: int) -> list[tuple[float, int]]:
    """Descending (mean, size) clusters of ascending values, cut at every
    gap of at least a tolerance that yields exactly d clusters: 1e-7 if it
    does, else one found by geometric bisection in [1e-13, 1.0].  Raises
    SpectralResolutionError when the bisection finds none."""
    tol = 1e-7
    if cluster_count(values_asc, tol) != d:
        lo, hi = 1e-13, 1.0
        if not cluster_count(values_asc, lo) >= d >= cluster_count(values_asc, hi):
            raise SpectralResolutionError(f"no tolerance in [{lo}, {hi}] yields {d} clusters")
        for _ in range(200):
            mid = (lo * hi) ** 0.5
            c = cluster_count(values_asc, mid)
            if c == d:
                tol = mid
                break
            if c > d:
                lo = mid
            else:
                hi = mid
        else:
            raise SpectralResolutionError(f"tolerance bisection failed to reach {d} clusters")
    groups = []
    i = 0
    while i < len(values_asc):
        j = i + 1
        while j < len(values_asc) and values_asc[j] - values_asc[j - 1] < tol:
            j += 1
        chunk = values_asc[i:j]
        groups.append((sum(chunk) / len(chunk), len(chunk)))
        i = j
    return groups[::-1]


def _primitive(p: list[int]) -> list[int]:
    c = 0
    for x in p:
        c = math.gcd(c, x)
    return [x // c for x in p] if c > 1 else list(p)


def _trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def prs_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd in Z[x] with positive leading coefficient (low to
    high coefficients) by the primitive pseudo-remainder sequence: every
    step scales the remainder by lc(b) and divides out its content."""
    a = _primitive(_trim(list(a)))
    b = _primitive(_trim(list(b)))
    if not a:
        a, b = b, a
    while b:
        r = list(a)
        while len(r) >= len(b):
            c, s = r[-1], len(r) - len(b)
            r = [b[-1] * x for x in r]
            for i, y in enumerate(b):
                r[s + i] -= c * y
            _trim(r)
        a, b = b, _primitive(r)
    return [-x for x in a] if a and a[-1] < 0 else a


def _div_exact(f: list[int], g: list[int]) -> list[int]:
    """f / g in Z[x] for monic g, asserting a zero remainder."""
    r = list(f)
    q = [0] * max(len(r) - len(g) + 1, 0)
    while len(r) >= len(g):
        c, s = r[-1], len(r) - len(g)
        q[s] = c
        for i, y in enumerate(g):
            r[s + i] -= c * y
        _trim(r)
    assert not r, "division must be exact"
    return q


def prs_squarefree_decomposition(p: list[int]) -> list[tuple[int, list[int]]]:
    """Yun's algorithm on ``prs_gcd`` for monic p: [(multiplicity,
    factor), ...], nonconstant monic factors in increasing multiplicity."""
    def deriv(f):
        return [i * c for i, c in enumerate(f)][1:]

    def sub(f, g):
        m = max(len(f), len(g))
        return _trim([x - y for x, y in zip(f + [0] * (m - len(f)), g + [0] * (m - len(g)))])

    dp = deriv(p)
    g = prs_gcd(p, dp)
    c = _div_exact(p, g)
    d = sub(_div_exact(dp, g), deriv(c))
    out = []
    i = 1
    while len(c) > 1:
        a = prs_gcd(c, d)
        if len(a) > 1:
            out.append((i, a))
        c = _div_exact(c, a)
        d = sub(_div_exact(d, a), deriv(c))
        i += 1
    return out


def distinct_count_oracle(g: Graph, decimals: int = 6) -> int:
    return len(spectrum_oracle(g, decimals))


def perm_isomorphic(g: Graph, h: Graph) -> bool:
    """Raw permutation search; fine up to ~8 vertices."""
    if g.n != h.n:
        return False
    if sorted(a.bit_count() for a in g.adj) != sorted(a.bit_count() for a in h.adj):
        return False
    g_edges = set(g.edges())
    for perm in itertools.permutations(range(g.n)):
        if all(h.has_edge(perm[u], perm[v]) for u, v in g_edges) and len(
            g_edges
        ) == h.edge_count():
            return True
    return False


def floyd_warshall_diameter(g: Graph) -> int | float:
    n = g.n
    if n <= 1:
        return 0
    dist = [[0 if i == j else math.inf for j in range(n)] for i in range(n)]
    for u in range(n):
        for v in bits(g.adj[u]):
            dist[u][v] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = dist[i][k] + dist[k][j]
                if via < dist[i][j]:
                    dist[i][j] = via
    return max(dist[i][j] for i in range(n) for j in range(n))


def common_neighbors_oracle(g: Graph, u: int, v: int) -> int:
    nu = {w for w in range(g.n) if g.has_edge(u, w)}
    nv = {w for w in range(g.n) if g.has_edge(v, w)}
    return len(nu & nv)


def brute_maximal_cliques(g: Graph) -> set[frozenset[int]]:
    """Every clique (by subset check) that no vertex extends."""
    verts = range(g.n)
    cliques = set()
    for r in range(1, g.n + 1):
        for combo in itertools.combinations(verts, r):
            if all(g.has_edge(a, b) for a, b in itertools.combinations(combo, 2)):
                cliques.add(frozenset(combo))
    maximal = set()
    for c in cliques:
        if not any(c < d for d in cliques):
            maximal.add(c)
    if g.n and not cliques:  # edgeless: singletons are the maximal cliques
        maximal = {frozenset([u]) for u in verts}
    return maximal


def reference_maximal_cliques(g: Graph) -> Iterator[int]:
    """Recursive pivoting Bron-Kerbosch: the pivot is the first vertex of
    p | x, ascending, with the most neighbours in p.  Fixes the emission
    order that ``neumaier.cliques.maximal_cliques`` must reproduce."""
    if g.n == 0:
        return
    adj = g.adj

    def expand(r: int, p: int, x: int) -> Iterator[int]:
        if not p and not x:
            yield r
            return
        pivot = max(bits(p | x), key=lambda u: (adj[u] & p).bit_count())
        for v in bits(p & ~adj[pivot]):
            yield from expand(r | (1 << v), p & adj[v], x & adj[v])
            p ^= 1 << v
            x |= 1 << v

    yield from expand(0, (1 << g.n) - 1, 0)


def pairing_extension_hypothesis(g: Graph, e: int, s: int) -> ExtensionReport:
    """``neumaier.cliques.extension_hypothesis_holds`` by pairing every
    (e+1)-clique with every (s+1)-clique: same report, same witness, same
    exceptions, and the per-vertex and per-edge counts taken from the
    (s+1)-cliques themselves rather than from the maximal cliques."""
    if not 1 <= e <= s:
        raise ValueError("need 1 <= e <= s for a regular-clique pair (e, s)")
    big = list(cliques_of_order(g, s + 1))
    if not big:
        raise ValueError(f"graph has no clique of order s+1 = {s + 1}")
    unique = True
    for h in cliques_of_order(g, e + 1):
        containing = sum(1 for c in big if c & h == h)
        if containing == 0:
            return ExtensionReport(False, h)
        if containing != 1:
            unique = False
    all_s1 = all(c.bit_count() == s + 1 for c in reference_maximal_cliques(g))
    if not unique:
        raise ConsistencyError(
            "extension hypothesis holds but some extension is not unique"
        )
    if not all_s1:
        raise ConsistencyError(
            "extension hypothesis holds but a maximal clique misses order s+1"
        )
    per_vertex = tuple(sum(1 for c in big if c >> u & 1) for u in range(g.n))
    per_edge = tuple(
        sum(1 for c in big if c & (1 << u | 1 << v) == 1 << u | 1 << v)
        for u, v in g.edges()
    )
    return ExtensionReport(True, None, per_vertex, per_edge)


def outside_counts(g: Graph, clique: int) -> list[int]:
    """|N(x) & C| for every x outside C, in ascending vertex order."""
    return [
        sum(1 for u in bits(clique) if g.has_edge(x, u))
        for x in range(g.n)
        if not clique >> x & 1
    ]


def clique_bound_s(p) -> float:
    """Positive root s of the clique-bound quadratic
    (v+lam-2k) s^2 + (k^2-k+lam-v*lam) s - k(v-k-1) = 0 of edge-regular
    parameters ``p``: every clique has order at most s+1.  Needs
    v+lam-2k > 0 (complete multipartite graphs have v+lam-2k = 0)."""
    v, k, lam = p.v, p.k, p.lam
    a = v + lam - 2 * k
    if a <= 0:
        raise ValueError("clique bound undefined: v + lam - 2k = 0")
    b = k * k - k + lam - v * lam
    c = -k * (v - k - 1)
    return (-b + math.sqrt(b * b - 4 * a * c)) / (2 * a)


def nexus_e(v: float, k: float, s: float) -> float:
    """e = (s+1)(k-s) / (v-(s+1)): the forced outside-adjacency count of
    a regular clique of order s+1."""
    if v - (s + 1) == 0:
        raise ValueError("v = s + 1 only happens for complete graphs")
    return (s + 1) * (k - s) / (v - (s + 1))


def brute_cliques_of_order(g: Graph, t: int) -> set[frozenset[int]]:
    out = set()
    for combo in itertools.combinations(range(g.n), t):
        if all(g.has_edge(a, b) for a, b in itertools.combinations(combo, 2)):
            out.add(frozenset(combo))
    return out


def cycle_eigenvalues(n: int) -> list[float]:
    """Distinct eigenvalues of the n-cycle by the circulant formula,
    descending."""
    values = {round(2.0 * math.cos(2.0 * math.pi * j / n), 12) for j in range(n)}
    return sorted(values, reverse=True)


def bitset_to_set(mask: int) -> frozenset[int]:
    return frozenset(bits(mask))


def cayley_z2z8_lambda4():
    """The Cayley graphs of Z2 x Z8 with an inverse-closed connection set
    of size 9 that are edge-regular with lambda = 4."""
    elems = [(a, b) for a in range(2) for b in range(8)]
    index = {x: i for i, x in enumerate(elems)}

    def neg(x):
        return (-x[0] % 2, -x[1] % 8)

    involutions = [x for x in elems[1:] if neg(x) == x]
    pairs = sorted({tuple(sorted((x, neg(x)))) for x in elems[1:] if neg(x) != x})
    out = []
    for ni in (1, 3):
        for inv in itertools.combinations(involutions, ni):
            for prs in itertools.combinations(pairs, (9 - ni) // 2):
                conn = set(inv) | {x for p in prs for x in p}
                g = from_edges(16, {
                    tuple(sorted((index[x], index[((x[0] + c[0]) % 2, (x[1] + c[1]) % 8)])))
                    for x in elems for c in conn
                })
                if all((g.adj[u] & g.adj[v]).bit_count() == 4 for u, v in g.edges()):
                    out.append(g)
    return out
