"""The hot loops of the spectral layer, in pure Python.

The package re-exports these functions from ``neumaier._kernels``.  The
module path and the function names stay as they are because the
benchmark's tracing looks them up: it wraps the names on
``neumaier._kernels`` and leaves this module unpatched, so the calls
``sweep_masks`` makes to the charpoly and the eigensolver stay inside
its one span.
"""

from __future__ import annotations

from math import copysign, hypot, sqrt
from operator import mul

from ..errors import SpectralResolutionError

KERNEL_KIND = "python"

#: cap on implicit-QL iterations per eigenvalue; adjacency matrices of
#: every 6-vertex graph and of random graphs up to 62 vertices need <= 6
_QL_MAX_ITERATIONS = 30
_EPS = 2.0**-52


def charpoly_adj(adj: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Exact characteristic polynomial of the 0/1 adjacency matrix given
    as per-vertex neighbour bitsets.

    Power sums p_k = tr(A^k) for k = 1..n, then Newton's identities
    k c_k = -(p_k + c_1 p_(k-1) + ... + c_(k-1) p_1)  (division exact).

    Row i of A^k is packed into one int, entry j in bits [j w, (j+1) w),
    so row i of A^(k+1) is the plain sum of the packed rows of i's
    neighbours.  An entry of A^k (k >= 1) counts walks, at most D^(k-1)
    for maximum degree D, so lanes of w = (n-1) bitlen(D) + 1 bits never
    carry into each other up to k = n.
    Returns (1, c_1, ..., c_n): coefficient of x^(n-i) at index i.
    """
    nbrs = []
    for a in adj:
        nb = []
        while a:
            low = a & -a
            nb.append(low.bit_length() - 1)
            a ^= low
        nbrs.append(nb)
    w = (n - 1) * max(map(len, nbrs), default=0).bit_length() + 1
    lane = (1 << w) - 1
    shifts = [i * w for i in range(n)]
    rows = [1 << s for s in shifts]
    c = [1]
    sums: list[int] = []
    for k in range(1, n + 1):
        rows = [sum(map(rows.__getitem__, nb)) for nb in nbrs]
        p = sum([(r >> s) & lane for r, s in zip(rows, shifts)])
        q, r = divmod(-p - sum(map(mul, c[1:], reversed(sums))), k)
        if r:
            raise ArithmeticError("Newton identity division not exact")
        c.append(q)
        sums.append(p)
    return tuple(c)


def jacobi_eigenvalues(flat: list[float], n: int) -> list[float]:
    """Eigenvalues (ascending) of the symmetric n x n matrix given in
    row-major flat form.

    Householder reduction to tridiagonal form, then implicit QL with
    Wilkinson shifts on the tridiagonal (Golub & Van Loan, Matrix
    Computations, 8.3); eigenvalues only.  This is not a Jacobi method;
    the name stays because the benchmark's tracing looks the function up
    by it.
    """
    a = [[float(x) for x in flat[i * n : (i + 1) * n]] for i in range(n)]
    d = [0.0] * n
    e = [0.0] * n  # e[i] couples rows i-1 and i
    for i in range(n - 1, 0, -1):
        # annihilate a[i][:i-1] with P = I - u u^T / h acting on rows and
        # columns 0..i-1; only that leading block is read afterwards
        row = a[i]
        d[i] = row[i]
        u = row[:i]
        h = sum(map(mul, u, u))
        if i == 1 or h == 0.0:
            e[i] = row[i - 1]
            continue
        f = u[-1]
        g = -sqrt(h) if f >= 0.0 else sqrt(h)
        e[i] = g
        h -= f * g
        u[-1] = f - g
        p = [sum(map(mul, a[j], u)) / h for j in range(i)]
        kk = sum(map(mul, u, p)) / (h + h)
        q = [pj - kk * uj for pj, uj in zip(p, u)]
        for j in range(i):
            uj = u[j]
            qj = q[j]
            rj = a[j]
            rj[:i] = [x - uj * qk - qj * uk for x, qk, uk in zip(rj, q, u)]
    if n:
        d[0] = a[0][0]
    e = e[1:] + [0.0]
    for l in range(n):
        for _ in range(_QL_MAX_ITERATIONS + 1):
            m = l
            while m < n - 1 and abs(e[m]) > _EPS * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == l:
                break
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    # split: e[i] was negligible after all; restart at l
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
        else:
            raise SpectralResolutionError(
                f"implicit QL did not converge in {_QL_MAX_ITERATIONS} iterations"
            )
    d.sort()
    return d


def cluster_count(values_sorted: list[float], tol: float) -> int:
    """Number of clusters when consecutive gaps >= tol start a new one."""
    if not values_sorted:
        return 0
    count = 1
    prev = values_sorted[0]
    for v in values_sorted[1:]:
        if v - prev >= tol:
            count += 1
        prev = v
    return count


def sweep_masks(
    n: int, start: int, stop: int, tol: float
) -> tuple[int, int, dict[tuple[int, ...], list[int]], list[int]]:
    """Scan the labeled-graph edge masks [start, stop) on n vertices.

    Per graph: exact charpoly, numeric eigenvalues, and the cluster count
    at ``tol``.  Returns (total, irregular_count, stats, regular_masks)
    where stats maps the charpoly (the coefficient tuple of
    ``charpoly_adj``) -> [graph_count, min_clusters, max_clusters] and
    regular_masks lists the masks of degree-regular graphs for full
    classification by the caller.
    """
    if n > 8:
        raise ValueError("mask sweep supports n <= 8")
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    stats: dict[tuple[int, ...], list[int]] = {}
    regular: list[int] = []
    irregular = 0
    for mask in range(start, stop):
        adj = [0] * n
        m = mask
        while m:
            low = m & -m
            i, j = pairs[low.bit_length() - 1]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            m ^= low
        deg0 = adj[0].bit_count()
        if all(a.bit_count() == deg0 for a in adj):
            regular.append(mask)
        else:
            irregular += 1
        key = charpoly_adj(tuple(adj), n)
        flat = [0.0] * (n * n)
        for i in range(n):
            a = adj[i]
            while a:
                low = a & -a
                flat[i * n + low.bit_length() - 1] = 1.0
                a ^= low
        clusters = cluster_count(jacobi_eigenvalues(flat, n), tol)
        entry = stats.get(key)
        if entry is None:
            stats[key] = [1, clusters, clusters]
        else:
            entry[0] += 1
            if clusters < entry[1]:
                entry[1] = clusters
            if clusters > entry[2]:
                entry[2] = clusters
    return stop - start, irregular, stats, regular
