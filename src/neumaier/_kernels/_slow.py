"""The hot loops of the spectral layer, in pure Python.

``packed_powers`` (the rows of A^1..A^n in byte-aligned lanes that
widen with the power, read by ``charpoly_adj`` for its power sums and by
the walk-regularity check), ``charpoly_adj`` and ``jacobi_eigenvalues``
(Householder + implicit QL) serve single graphs; ``cluster_count`` stays
for the benchmark's tracing and the test oracles, which look it up.
``sweep_masks`` scans the exhaustive labeled sweep over ranges of base
graphs on n - 1 vertices.  It borders each base with every neighbourhood
of vertex n - 1 in Gray-code order and gets each graph's exact charpoly
from the bordered determinant (Horn & Johnson, Matrix Analysis, 0.8.5):
det(xI - A') = x φ_G(x) - s^T adj(xI - A) s.  That costs about n additions
of packed ints per graph once φ_G and the adjugate are known for the base.
The keys are Kronecker-packed in lanes sized from a rigorous coefficient
bound (``_coeff_bound``, n <= 8) and decoded with a guard-bit check.  The
numeric check reuses the base too: with A_G = V Λ V^T decomposed once,
each bordered matrix A' is orthogonally similar to the arrowhead
[[Λ, z], [z^T, 0]] with z = V^T s.  Its eigenvalues are counted, not
solved for: below a separator t they number #{λ_i < t} plus one when
-t - Σ z_i² / (λ_i - t) < 0 (Haynsworth's inertia formula on the Schur
complement), one division-sum per t.

Three tables live for the whole process, all behind ``lru_cache`` so
``cache_clear`` empties them: φ_G, the adjugate and (Λ, V), solved once
per isomorphism class of base graphs (``_class_data``) and permuted onto
each base (``_base_data``); one plan of separators per distinct
charpoly, from the clusters of ``spectra.spectrum`` on the first graph
that has it (``_plans``); and that plan prepared against Λ once per
(base class, charpoly) pair (``_geometries``).

The package re-exports these functions from ``neumaier._kernels``.  The
module path and the function names stay as they are because the
benchmark's tracing looks them up: it wraps the names on
``neumaier._kernels`` and leaves this module unpatched, so the calls
``sweep_masks`` makes to the charpoly and the eigensolver for its bases
stay inside its one span.  Its plans go through ``spectra.spectrum``
and show in that function's span and in the kernels' own.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from functools import lru_cache
from itertools import permutations, product
from math import comb, copysign, hypot, inf, isqrt, nextafter, sqrt
from operator import add, mul, sub, truediv
from typing import Iterator

from ..errors import SpectralResolutionError
from ..graphs import from_edge_mask

KERNEL_KIND = "python"

#: cap on implicit-QL iterations per eigenvalue; the Householder
#: tridiagonals of every 6-vertex graph and of random graphs up to 62
#: vertices need <= 6
_QL_MAX_ITERATIONS = 30
_EPS = 2.0**-52


def charpoly_adj(adj: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Exact characteristic polynomial of the 0/1 adjacency matrix given
    as per-vertex neighbour bitsets.

    Power sums p_k = tr(A^k) for k = 1..n, read off the diagonal lanes of
    ``packed_powers``, then Newton's identities
    k c_k = -(p_k + c_1 p_(k-1) + ... + c_(k-1) p_1)  (division exact).
    Returns (1, c_1, ..., c_n): coefficient of x^(n-i) at index i.
    """
    c = [1]
    sums: list[int] = []
    for k, (rows, b) in enumerate(packed_powers(adj, n), 1):
        lane = (1 << (8 * b)) - 1
        p = sum([(r >> s) & lane for r, s in zip(rows, range(0, 8 * b * n, 8 * b))])
        q, r = divmod(-p - sum(map(mul, c[1:], reversed(sums))), k)
        if r:
            raise ArithmeticError("Newton identity division not exact")
        c.append(q)
        sums.append(p)
    return tuple(c)


def packed_powers(adj: tuple[int, ...], n: int) -> Iterator[tuple[list[int], int]]:
    """Yield (rows, b) for A^1, ..., A^n of the 0/1 adjacency matrix given
    as per-vertex neighbour bitsets: rows[i] packs row i of A^k into one
    int, entry j in lane j of b whole bytes.

    Row i of A^k is the plain sum of the packed rows of A^(k-1) over N(i).
    A dense row (deg(i) > n/2) can instead be T minus the rows outside
    N(i), i included, with T the sum of all n rows: packing is linear over
    the integers and every lane of the result is an entry of A^k >= 0, so
    the subtraction is exact.  T costs n additions a power, so the dense
    rows take this form only when together they save more.

    Lanes never carry into each other.  An entry of A^k counts k-walks
    between two vertices, at most D^(k-1) for maximum degree D; a lane of
    T is a column sum of A^(k-1), the number of (k-1)-walks from one
    vertex, at most D^(k-1) too.  So power k needs lanes of
    bytes(D^(k-1)) bytes.  The lanes widen in stages (``_lane_stages``,
    which depends only on n and D) and the rows are repacked into the
    wider lanes at each stage boundary; at n = 62 and D = 28 they grow
    from 4 to 37 bytes over ten stages.

    The generator keeps no row of A^(k-1) once it has yielded A^k.  The
    yielded list is repacked in place at the next stage boundary, so read
    it before asking for the next power.
    """
    plan = []  # the rows of A^(k-1) summed for row i of A^k
    for a in adj:
        js = []
        while a:
            low = a & -a
            js.append(low.bit_length() - 1)
            a ^= low
        plan.append(js)
    top = max(map(len, plan), default=0)
    dense = [i for i, js in enumerate(plan) if 2 * len(js) > n]
    if sum(2 * len(plan[i]) - n for i in dense) > n:
        for i in dense:
            plan[i] = [j for j in range(n) if not adj[i] >> j & 1]
    else:
        dense = []
    stages = _lane_stages(top, n)
    b = stages[0][0]
    rows = [1 << (8 * b * i) for i in range(n)]
    for width, powers in stages:
        if width > b:
            _widen(rows, n, b, width)
            b = width
        for _ in range(powers):
            get = rows.__getitem__
            total = sum(rows) if dense else 0
            rows = [sum(map(get, js)) for js in plan]
            del get  # frees the rows of A^(k-1)
            for i in dense:
                rows[i] = total - rows[i]
            yield rows, b


#: the packed lanes widen in steps of this many bytes: a repack costs
#: about half a power at n = 62, and 4 bytes balances the two
_STAGE_BYTES = 4


@lru_cache(maxsize=4096)  # every (D, n) with D < n <= 62 is 1953 entries
def _lane_stages(top: int, n: int) -> tuple[tuple[int, int], ...]:
    """(lane bytes, number of powers) for the successive stages of
    ``packed_powers`` with maximum degree ``top``: power k needs
    bytes(top^(k-1)) bytes, rounded up to a multiple of _STAGE_BYTES and
    capped at the bytes of power n, which the last stage uses."""
    last = _lane_bytes(top ** max(n - 1, 0))
    stages = []
    done, walks = 0, 1  # powers staged, top^done
    while True:
        width = min(last, -(-_lane_bytes(walks) // _STAGE_BYTES) * _STAGE_BYTES)
        if width == last:
            stages.append((width, n - done))
            return tuple(stages)
        limit = 1 << 8 * width
        powers = 0
        while walks < limit:
            walks *= top
            powers += 1
        stages.append((width, powers))
        done += powers


def _lane_bytes(bound: int) -> int:
    """Whole bytes that hold every integer in [0, bound], at least one."""
    return max(1, bound.bit_length() + 7 >> 3)


def _widen(rows: list[int], n: int, b: int, width: int) -> None:
    """Repack rows of n lanes of b bytes, in place, into lanes of
    ``width`` bytes: byte q of every lane moves with one strided slice
    assignment.  The old rows are freed before the new ones are built, so
    a repack holds no more memory at once than a power step does."""
    size = n * b
    src = bytearray(n * size)
    for i, r in enumerate(rows):
        src[i * size : (i + 1) * size] = r.to_bytes(size, "little")
    rows.clear()
    dst = bytearray(n * n * width)
    for q in range(b):
        dst[q::width] = src[q::b]
    del src
    size = n * width
    view = memoryview(dst)
    rows.extend(int.from_bytes(view[i : i + size], "little") for i in range(0, n * size, size))


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
    d, e = _tridiagonalize(a, n)
    _implicit_ql(d, e)
    d.sort()
    return d


def _tridiagonalize(
    a: list[list[float]], n: int, zt: list[list[float]] | None = None
) -> tuple[list[float], list[float]]:
    """Householder reduction of the symmetric matrix with rows ``a``
    (overwritten) to the tridiagonal T = Q^T A Q.  Returns its diagonal d
    and its off-diagonal e, e[i] coupling rows i and i + 1 (e[n-1] = 0).

    Given ``zt``, the rows of the identity, each reflector P is applied to
    it from the left, so it ends as Q^T = P_2 ... P_(n-1), row by row.
    """
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
        if zt is not None:
            # P zt: row j loses u_j / h times t = u^T zt
            t = [0.0] * n
            for uj, zj in zip(u, zt):
                t = [x + uj * y for x, y in zip(t, zj)]
            for j, uj in enumerate(u):
                uj /= h
                zt[j] = [x - uj * y for x, y in zip(zt[j], t)]
    if n:
        d[0] = a[0][0]
    return d, e[1:] + [0.0]


def _implicit_ql(
    d: list[float], e: list[float], zt: list[list[float]] | None = None
) -> None:
    """Diagonalise the symmetric tridiagonal with diagonal d and
    off-diagonal e (e[i] couples i and i + 1, e[n-1] = 0) in place by
    implicit QL with Wilkinson shifts: d ends as the eigenvalues, in no
    particular order, and e is destroyed.

    Given ``zt``, each plane rotation is applied to its rows as well; if
    it holds the rows of Q^T with A = Q T Q^T, row k ends as the
    eigenvector of A for d[k].
    """
    n = len(d)
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
                if zt is not None:
                    x, y = zt[i], zt[i + 1]
                    zt[i] = [c * xk - s * yk for xk, yk in zip(x, y)]
                    zt[i + 1] = [s * xk + c * yk for xk, yk in zip(x, y)]
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
        else:
            raise SpectralResolutionError(
                f"implicit QL did not converge in {_QL_MAX_ITERATIONS} iterations"
            )


def _base_eigensystem(adj: tuple[int, ...], nb: int) -> tuple[list[float], list[tuple[float, ...]]]:
    """Eigenvalues lam, ascending, and orthogonal V with A = V diag(lam) V^T,
    for the 0/1 adjacency matrix of the nb-vertex graph given as neighbour
    bitsets: Householder and implicit QL with the reflectors and rotations
    accumulated.  V is returned as its rows, one per vertex."""
    a = [[float(r >> j & 1) for j in range(nb)] for r in adj]
    zt = [[float(i == j) for j in range(nb)] for i in range(nb)]
    lam, e = _tridiagonalize(a, nb, zt)
    _implicit_ql(lam, e, zt)
    order = sorted(range(nb), key=lam.__getitem__)
    return [lam[k] for k in order], list(zip(*(zt[k] for k in order)))


def _separator_plan(n: int, mask: int) -> tuple[int, list[tuple[float, int]]]:
    """(d, cuts) for the charpoly of the n-vertex graph with edge mask
    ``mask``: d is its exact distinct-eigenvalue count, and cuts lists,
    ascending, a separator t between each two consecutive distinct
    eigenvalues with the number of eigenvalues below it.

    The clusters are ``spectra.spectrum``'s, whose sizes are Yun's
    multiplicities.  Each t is the midpoint of two consecutive cluster
    means, and the count below it the running sum of the sizes.  When
    ``spectrum`` cannot resolve the graph, the plan is (0, []).

    ``sweep_masks`` builds each plan from the first graph with its charpoly
    that it meets, and the outcome does not depend on which: graphs with
    one charpoly have the same exact eigenvalues, so a resolved plan has
    the same d and counts whichever graph built it, and its separators
    move only by that graph's roundoff, O(n ε), about half a gap from every
    eigenvalue of every graph it serves.  A plan of (0, []) fails every
    graph of its charpoly; no charpoly with n <= 7 gets one.
    """
    from ..spectra import spectrum  # spectra imports this package

    try:
        spec = spectrum(from_edge_mask(n, mask))
    except SpectralResolutionError:
        return 0, []
    groups = spec.eigs[::-1]
    cuts = []
    below = 0
    for (low, size), (high, _) in zip(groups, groups[1:]):
        below += size
        cuts.append(((low + high) / 2, below))
    return spec.distinct_count, cuts


@lru_cache(maxsize=None)  # one table for each n <= 8
def _plans(n: int) -> dict[int, tuple[int, list[tuple[float, int]]]]:
    """The separator plans of n-vertex charpolys built in this process,
    by packed charpoly key (``sweep_masks``)."""
    return {}


@lru_cache(maxsize=None)  # one table for each n <= 8
def _geometries(n: int) -> dict[int, dict[int, tuple]]:
    """``_prepare``d plans by base class mask, then by charpoly key."""
    return {}


def _canonical_form(adj: tuple[int, ...], nb: int) -> tuple[int, list[int]]:
    """(mask, perm) for the nb-vertex graph with neighbour bitsets ``adj``:
    mask is the least edge mask over the relabelings that list the
    vertices in ascending degree order, every order tried within a degree
    class, and perm maps each vertex to its label there, so that u ~ v
    exactly when perm[u] ~ perm[v] in the graph of mask.

    The relabelings tried are the same set for every labeling of a graph,
    so isomorphic graphs get one mask.  This is the partition refinement
    of B. D. McKay and A. Piperno, "Practical graph isomorphism, II",
    J. Symb. Comput. 60 (2014), stopped at the degrees, with exhaustive
    search inside the cells.  The columns of a relabeled mask are compared
    from the top, the last vertex's pairs first, and an order stops at the
    first column above the best mask.
    """
    deg = [a.bit_count() for a in adj]
    classes = [[u for u in range(nb) if deg[u] == d] for d in sorted(set(deg))]
    offsets = [j * (j - 1) // 2 for j in range(nb)]
    best, best_order = 1 << (nb * (nb - 1) // 2), []  # above every mask
    for parts in product(*map(permutations, classes)):
        order = [u for part in parts for u in part]
        top = 0  # the mask's bits from column j up, shifted down to bit 0
        for j in range(nb - 1, 0, -1):
            row = adj[order[j]]
            col = 0
            for i in range(j):
                if row >> order[i] & 1:
                    col |= 1 << i
            top = top << j | col
            if top > best >> offsets[j]:
                break
        else:
            if top < best:
                best, best_order = top, order
    perm = [0] * nb
    for label, u in enumerate(best_order):
        perm[u] = label
    return best, perm


@lru_cache(maxsize=None)  # nb = 7, the largest base, has 1,044 classes
def _class_data(
    nb: int, mask: int
) -> tuple[int, list[list[int]], tuple[float, ...], list[tuple[float, ...]]]:
    """(x φ packed, adjugate, lam, V) of the nb-vertex graph with edge
    mask ``mask``, once per process: x φ(x) and the packed adjugate of
    xI - A in the key lanes of (nb+1)-vertex charpolys (``_adjugate``),
    and ``_base_eigensystem``.  Every caller shares the result, which
    nothing writes to."""
    adj = from_edge_mask(nb, mask).adj
    nbrs = [[v for v in range(nb) if a >> v & 1] for a in adj]
    c = charpoly_adj(adj, nb)
    w = _lane_bits(nb + 1)
    lam, v_rows = _base_eigensystem(adj, nb)
    return _pack(c, w), _adjugate(nbrs, c, w), tuple(lam), v_rows


def _base_data(adj: tuple[int, ...], nb: int) -> tuple:
    """The canonical mask of the base graph with neighbour bitsets ``adj``
    and its class's ``_class_data``, permuted onto the base's labels.

    With P the permutation matrix of perm (``_canonical_form``), A = P^T C P
    for the canonical graph's C.  Relabeling is a similarity, so φ and Λ
    are C's, adj(xI - A) = P^T adj(xI - C) P exactly, entry (u, v) being
    C's entry (perm[u], perm[v]), and V = P^T V_C diagonalises A, its row u
    being row perm[u] of V_C.
    """
    mask, perm = _canonical_form(adj, nb)
    x_phi, adjugate, lam, v_rows = _class_data(nb, mask)
    rows = [adjugate[p] for p in perm]
    return mask, x_phi, [[row[p] for p in perm] for row in rows], lam, [v_rows[p] for p in perm]


def _prepare(lam: tuple[float, ...], plan: tuple) -> tuple[int, list[tuple]]:
    """(d, seps) for counting with ``plan`` against the ascending base
    eigenvalues lam: per separator t, (t, need, den), need being the
    plan's count below t less #{lam_i < t}, and den the lam_i - t.

    A lam_i on t, such as 0 between -1 and 1, is a pole of Haynsworth's
    sum, so t first moves up by ulps until it is on none.  That keeps it
    inside its gap, where the count does not change: below a pole lam_i
    the term z_i² / (lam_i - t) is huge and positive and counts lam_i's
    eigenvalue through the Schur complement, above it lam_i counts itself
    and the term is huge and negative."""
    d, cuts = plan
    seps = []
    for t, below in cuts:
        while t in lam:
            t = nextafter(t, inf)
        seps.append((t, below - bisect_left(lam, t), array("d", [x - t for x in lam])))
    return d, seps


def _inertia_distinct(z: list[float], prepared: tuple[int, list[tuple]]) -> int:
    """The plan's d when the arrowhead [[diag(lam), z], [z^T, 0]] has
    #{lam_i < t} + need eigenvalues below each ``_prepare``d separator t,
    that is when need = [-t - Σ z_i² / (lam_i - t) < 0] (Haynsworth, on
    the Schur complement of diag(lam) - tI); 0 from the first t where not."""
    d, seps = prepared
    w = [x * x for x in z]
    for t, need, den in seps:
        if (t + sum(map(truediv, w, den)) > 0) != need:
            return 0
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


def _coeff_bound(n: int) -> int:
    """Bound on |c_k| for the charpoly of any n-vertex graph.

    With eigenvalues t_1..t_n and m edges, |c_k| = |e_k(t)| <= e_k(|t|)
    <= C(n,k) (sum|t|/n)^k by Maclaurin's inequality, <= C(n,k) (2m/n)^(k/2)
    by Cauchy-Schwarz (sum t^2 = 2m), <= C(n,k) (n-1)^(k/2).  The floor of
    that square root is exact in integers.  n = 6, 7, 8 give 375, 1852,
    9604; the largest |c_k| over 200,000 random 8-vertex graphs was 224.
    """
    return max(isqrt(comb(n, k) ** 2 * (n - 1) ** k) for k in range(n + 1))


def _lane_bits(n: int) -> int:
    """Key lane width for n-vertex charpolys: the coefficient bound, a
    sign bit, and a guard bit that a clean lane leaves clear."""
    return _coeff_bound(n).bit_length() + 2


def _pack(coeffs, w: int) -> int:
    """Kronecker packing: coefficient i in lane i of w bits (signed, so
    sums and differences of packed ints pack sums and differences)."""
    return sum(c << (w * i) for i, c in enumerate(coeffs))


def _unpack_key(key: int, n: int, w: int) -> tuple[int, ...]:
    """Coefficient tuple of a packed n-vertex charpoly key.

    Each lane is biased by 2^(w-2), above the coefficient bound, so a
    coefficient inside the bound leaves its lane in [1, 2^(w-1)) and no
    carry crosses lanes.  A set guard bit (a coefficient outside the
    bound) or bits above the top lane raise ArithmeticError.
    """
    half = 1 << (w - 2)
    lane = (1 << w) - 1
    key += _pack((half,) * (n + 1), w)
    coeffs = []
    for _ in range(n + 1):
        v = key & lane
        if v >> (w - 1):
            raise ArithmeticError("charpoly coefficient overflows its key lane")
        coeffs.append(v - half)
        key >>= w
    if key:
        raise ArithmeticError("charpoly key has bits above its top lane")
    return tuple(coeffs)


def _adjugate(nbrs: list[list[int]], c: tuple[int, ...], w: int) -> list[list[int]]:
    """Packed adj(xI - A) of the N x N adjacency matrix A with charpoly
    coefficients c, each entry shifted to the key lanes of an (N+1)-vertex
    charpoly: entry (u, v) holds the coefficient of x^(N-1-k) in lane k+2.

    adj(xI - A) = sum_k x^(N-1-k) sum_{j<=k} c_j A^(k-j) (Cayley-Hamilton
    division of φ(x) I by xI - A), which regroups as sum_t A^t M_t with
    M_t = sum_{j<=N-1-t} c_j x^(N-1-t-j); Horner over t needs only
    additions of packed rows.
    """
    n_base = len(nbrs)
    rows = [[0] * n_base] * n_base
    for t in range(n_base - 1, -1, -1):
        m_t = _pack(c[: n_base - t], w) << (w * (t + 2))
        next_rows = []
        for u, nb in enumerate(nbrs):
            row = [0] * n_base
            for k in nb:
                row = list(map(add, row, rows[k]))
            row[u] += m_t
            next_rows.append(row)
        rows = next_rows
    return rows


#: graphs whose count missed that ``sweep_masks`` keeps as witnesses; the
#: sweeps keep as many witnesses of each kind
_MAX_WITNESSES = 32


def sweep_masks(n: int, start: int, stop: int) -> tuple[dict, list[int], list[int]]:
    """Scan every labeled n-vertex graph whose base mask is in [start, stop).

    Edge mask bit t is the t-th vertex pair (i, j), i < j, in column-major
    (graph6) order: by j, then by i.  The pairs of vertex n-1 therefore
    come last, so a mask is base | border << (n-1)(n-2)/2, with the base
    an (n-1)-vertex graph G and the border S the neighbourhood of vertex
    n-1.  Per base, φ_G and the packed adjugate P of xI - A come from
    ``_base_data``, then the 2^(n-1) borders are walked in Gray-code
    order.  With s the indicator of S, the bordered (Schur complement)
    determinant is det(xI - A') = x φ_G(x) - s^T adj(xI - A) s.  Per flip
    of vertex u the kernel keeps T_v = sum_{i in S} P_iv (n - 1 additions)
    and q = s^T P s (one more: +(2 T_u + P_uu) on adding u, with T taken
    before, -(2 T_u + P_uu) on removing it, with T taken after), and the
    key is the packed x φ_G - q.  Distinct keys are decoded to coefficient
    tuples once per call, with lanes wide enough for ``_coeff_bound``.

    The numeric side shares the base as well: ``_base_data`` also gives
    A_G = V Λ V^T, so (V ⊕ 1)^T A' (V ⊕ 1) is the arrowhead
    [[Λ, z], [z^T, 0]] with z = V^T s, and z follows the walk like T: ± row
    u of V per flip.  Each isomorphism class of bases is solved once per
    process (34 classes at n = 6, 156 at n = 7), each distinct charpoly
    gets one plan of separators with its exact distinct count d
    (``_separator_plan``), and each (class, charpoly) pair that plan
    prepared against Λ (``_prepare``: the separators moved off Λ, the
    counts left to the Schur complement, 0 or 1, and the λ_i - t).  Each
    graph counts its own arrowhead's eigenvalues below each separator
    (``_inertia_distinct``, one division-sum each, to the first miss) and
    records d when every count is the plan's, else 0.  No table holds a
    graph's count: each is made from the graph's own z.

    Those counts answer for each graph's own matrix.  V is orthogonal to
    O(n ε), and z stays within 1e-13 of a fresh V^T s over a whole walk
    (tested for n <= 8), so the arrowhead is an exactly orthogonal
    similarity of A' + E with ||E|| = O(n ε ||A'||).  By Sylvester's law of
    inertia it has as many eigenvalues below t as A' + E, and by Weyl's
    inequality as many as A' while t stays more than ||E|| from every
    eigenvalue of A'.  A graph with the plan's charpoly has the plan
    graph's eigenvalues, so each separator lies half a gap from them.

    Returns (stats, regular_masks, misses): stats maps the charpoly (the
    coefficient tuple of ``charpoly_adj``) -> [graph_count, min_count,
    max_count] over the recorded counts, d or 0; regular_masks lists the
    masks of the degree-regular graphs, base by base in walk order, for
    full classification by the caller; misses lists the masks of the first
    ``_MAX_WITNESSES`` graphs, in the same order, whose count missed.
    """
    if not 1 <= n <= 8:
        raise ValueError("mask sweep supports 1 <= n <= 8")
    nb = n - 1
    shift = nb * (nb - 1) // 2
    if not 0 <= start <= stop <= 1 << shift:
        raise ValueError(f"base range [{start}, {stop}) outside [0, {1 << shift})")
    w = _lane_bits(n)
    # walk[i] = (border i in Gray order, vertex flipped next, +1 add / -1 remove / 0 last)
    walk = []
    for i in range(1 << nb):
        nxt = (i + 1) & -(i + 1)
        u = nxt.bit_length() - 1
        gray = i ^ (i >> 1)
        walk.append((gray, u, 0 if i + 1 == 1 << nb else -1 if gray >> u & 1 else 1))
    stats: dict[int, list[int]] = {}
    plans = _plans(n)
    geometries = _geometries(n)
    regular: list[int] = []
    misses: list[int] = []
    for base in range(start, stop):
        adj = from_edge_mask(nb, base).adj
        cls, x_phi, adjugate, lam, v_rows = _base_data(adj, nb)
        geometry = geometries.setdefault(cls, {})
        deg = [a.bit_count() for a in adj] + [0]
        t_row = [0] * nb
        q = 0
        z = [0.0] * nb
        for gray, u, step in walk:
            if deg.count(deg[nb]) == n:
                regular.append(base | gray << shift)
            key = x_phi - q
            prepared = geometry.get(key)
            if prepared is None:
                if key not in plans:
                    plans[key] = _separator_plan(n, base | gray << shift)
                prepared = geometry[key] = _prepare(lam, plans[key])
            distinct = _inertia_distinct(z, prepared)
            if not distinct and len(misses) < _MAX_WITNESSES:
                misses.append(base | gray << shift)
            entry = stats.get(key)
            if entry is None:
                stats[key] = [1, distinct, distinct]
            else:
                entry[0] += 1
                if distinct < entry[1]:
                    entry[1] = distinct
                if distinct > entry[2]:
                    entry[2] = distinct
            if step:
                p_u = adjugate[u]
                if step > 0:
                    q += (t_row[u] << 1) + p_u[u]
                    t_row = list(map(add, t_row, p_u))
                    z = list(map(add, z, v_rows[u]))
                else:
                    t_row = list(map(sub, t_row, p_u))
                    q -= (t_row[u] << 1) + p_u[u]
                    z = list(map(sub, z, v_rows[u]))
                deg[u] += step
                deg[nb] += step
    return {_unpack_key(k, n, w): v for k, v in stats.items()}, regular, misses
