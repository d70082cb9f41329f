"""Exact and numeric spectral computation.

The exact side is an integer characteristic polynomial (power sums and
Newton's identities in arbitrary precision, int64 in the compiled kernel
for small n) whose Yun squarefree decomposition fixes the number of
distinct eigenvalues and their multiplicities.  The numeric side is a
self-contained Householder + implicit-QL eigensolver.  ``spectrum``
welds the two: numeric eigenvalues are clustered and the cluster count
must reproduce the exact distinct count, refining the tolerance by
bisection when it does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import intpoly
from ._kernels import charpoly_adj, cluster_count, jacobi_eigenvalues
from .errors import ConsistencyError, DegenerateSpectrumError, SpectralResolutionError
from .graphs import Graph, bits, components, is_complete_component, is_connected

#: default gap tolerance for grouping numeric eigenvalues; integer
#: adjacency matrices at desk scale have far larger true gaps
DEFAULT_CLUSTER_TOL = 1e-7
#: refinement gives up below this gap: numeric noise territory
TOL_FLOOR = 1e-13
TOL_CEIL = 1.0


@dataclass(frozen=True)
class CharPoly:
    """Monic integer characteristic polynomial; coeffs[i] is the
    coefficient of x^(n-i), so coeffs[0] == 1."""

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def low_to_high(self) -> list[int]:
        return list(reversed(self.coeffs))

    def eval_int(self, x: int) -> int:
        return intpoly.eval_at_int(self.low_to_high(), x)


@dataclass(frozen=True)
class Spectrum:
    """Numeric eigenvalues grouped by multiplicity, descending, together
    with the exact charpoly that fixed the group count."""

    eigs: tuple[tuple[float, int], ...]
    distinct_count: int
    charpoly: CharPoly

    @property
    def theta_max(self) -> float:
        if not self.eigs:
            raise DegenerateSpectrumError("empty spectrum")
        return self.eigs[0][0]

    @property
    def theta_min(self) -> float:
        if not self.eigs:
            raise DegenerateSpectrumError("empty spectrum")
        return self.eigs[-1][0]

    @property
    def theta_max2(self) -> float:
        if self.distinct_count < 2:
            raise DegenerateSpectrumError(
                "second-largest eigenvalue needs >= 2 distinct eigenvalues"
            )
        return self.eigs[1][0]


def charpoly(g: Graph) -> CharPoly:
    """Exact integer characteristic polynomial of the adjacency matrix."""
    return CharPoly(charpoly_adj(g.adj, g.n))


def distinct_eigenvalue_count(p: CharPoly) -> int:
    """Degree of the squarefree part p / gcd(p, p'): the exact number of
    distinct (real) eigenvalues."""
    return intpoly.squarefree_degree(p.low_to_high())


def _multiplicity_multiset(p: CharPoly) -> list[int]:
    """Exact eigenvalue multiplicities via Yun squarefree decomposition:
    each factor of degree d at multiplicity m contributes d copies of m.
    Its length is the exact distinct-eigenvalue count."""
    out: list[int] = []
    for mult, factor in intpoly.squarefree_decomposition(p.low_to_high()):
        out.extend([mult] * intpoly.degree(factor))
    return sorted(out)


def _adjacency_flat(g: Graph) -> list[float]:
    n = g.n
    flat = [0.0] * (n * n)
    for u in range(n):
        for v in bits(g.adj[u]):
            flat[u * n + v] = 1.0
    return flat


def _group(values_asc: list[float], tol: float) -> list[tuple[float, int]]:
    """Cluster ascending values by consecutive gaps >= tol; returns
    descending (mean, size) pairs."""
    groups: list[tuple[float, int]] = []
    i = 0
    while i < len(values_asc):
        j = i + 1
        while j < len(values_asc) and values_asc[j] - values_asc[j - 1] < tol:
            j += 1
        chunk = values_asc[i:j]
        groups.append((sum(chunk) / len(chunk), len(chunk)))
        i = j
    groups.reverse()
    return groups


def spectrum(g: Graph, tol: float = DEFAULT_CLUSTER_TOL) -> Spectrum:
    """Numeric eigenvalues with multiplicities, validated against the
    exact distinct-eigenvalue count.

    If clustering at ``tol`` does not reproduce the exact count the
    tolerance is refined by bisection between TOL_FLOOR and TOL_CEIL;
    irreconcilable spectra raise SpectralResolutionError.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    p = charpoly(g)
    multiplicities = _multiplicity_multiset(p)
    exact = len(multiplicities)
    values = jacobi_eigenvalues(_adjacency_flat(g), g.n)
    if cluster_count(values, tol) != exact:
        lo, hi = TOL_FLOOR, TOL_CEIL
        # cluster count is nonincreasing in tol; geometric bisection
        if not cluster_count(values, lo) >= exact >= cluster_count(values, hi):
            raise SpectralResolutionError(
                f"no tolerance in [{lo}, {hi}] yields {exact} clusters"
            )
        for _ in range(200):
            mid = (lo * hi) ** 0.5
            c = cluster_count(values, mid)
            if c == exact:
                tol = mid
                break
            if c > exact:
                lo = mid
            else:
                hi = mid
        else:
            raise SpectralResolutionError(
                f"tolerance bisection failed to reach {exact} clusters"
            )
    groups = _group(values, tol)
    if sorted(m for _, m in groups) != multiplicities:
        raise SpectralResolutionError(
            "numeric multiplicities disagree with exact squarefree factors"
        )
    return Spectrum(tuple(groups), exact, p)


def named_eigenvalues(s: Spectrum) -> tuple[float, float, float]:
    """(theta_max, theta_max2, theta_min); rejects one-eigenvalue spectra
    (edgeless graphs) as degenerate."""
    if s.distinct_count < 2:
        raise DegenerateSpectrumError(
            "graph with a single distinct eigenvalue is edgeless"
        )
    return (s.theta_max, s.theta_max2, s.theta_min)


def exact_integer_eigenvalue(p: CharPoly, x: float, tol: float = 1e-8) -> int | None:
    """Snap a numeric eigenvalue to an integer root of the charpoly.

    Monic integer polynomials have only integers as rational roots, so
    this covers every rational eigenvalue.  Returns None when x is not
    within tol of an exact integer root.
    """
    r = round(x)
    if abs(x - r) <= tol and p.eval_int(r) == 0:
        return r
    return None


@dataclass(frozen=True)
class SpectralClass:
    """Outcome of the eigenvalue-count classification."""

    kind: str  # "Edgeless" | "DisjointEqualCliques" | "SRGCandidate" | "Other"
    clique_order: int | None = None


def classify_by_eigenvalue_count(
    g: Graph, tol: float = DEFAULT_CLUSTER_TOL
) -> SpectralClass:
    """One distinct eigenvalue -> edgeless; two -> disjoint union of equal
    complete graphs (order verified structurally); three + connected +
    regular -> strong-regularity candidate; anything else -> Other."""
    p = charpoly(g)
    d = distinct_eigenvalue_count(p)
    if d <= 1:
        if g.edge_count() != 0:
            raise ConsistencyError("single eigenvalue but graph has edges")
        return SpectralClass("Edgeless")
    if d == 2:
        comps = components(g)
        orders = {c.bit_count() for c in comps}
        if len(orders) != 1 or not all(is_complete_component(g, c) for c in comps):
            raise ConsistencyError(
                "two distinct eigenvalues but components are not equal cliques"
            )
        t = orders.pop()
        if t < 2:
            raise ConsistencyError("two distinct eigenvalues with trivial cliques")
        return SpectralClass("DisjointEqualCliques", t)
    if d == 3:
        degs = {row.bit_count() for row in g.adj}
        if is_connected(g) and len(degs) == 1:
            return SpectralClass("SRGCandidate")
    return SpectralClass("Other")


@lru_cache(maxsize=4096)
def _distinct_from_key(coeffs: tuple[int, ...]) -> int:
    """Distinct-count for a raw coefficient tuple (sweep helper)."""
    return intpoly.squarefree_degree(list(reversed(coeffs)))
