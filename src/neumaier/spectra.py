"""Exact and numeric spectral computation.

The exact side is an integer characteristic polynomial (power sums and
Newton's identities in arbitrary precision) whose Yun squarefree
decomposition fixes the number of distinct eigenvalues and their
multiplicities.  The numeric side is a self-contained Householder +
implicit-QL eigensolver.  ``spectrum`` welds the two: with d the exact
distinct count, the sorted numeric eigenvalues are split into d clusters
at their d - 1 widest gaps, and the cluster sizes must reproduce the
exact multiplicities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import intpoly
from ._kernels import charpoly_adj, jacobi_eigenvalues
from .errors import DegenerateSpectrumError, SpectralResolutionError
from .graphs import Graph, bits

#: the clusters must be separable by one gap threshold in this range:
#: narrower cut gaps are numeric noise, wider inside gaps are real ones
TOL_FLOOR = 1e-13
TOL_CEIL = 1.0
#: most a numeric eigenvalue may miss the integer root it is snapped to
INTEGER_SNAP_TOL = 1e-8


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


def _group(values_asc: list[float], d: int) -> list[tuple[float, int]]:
    """Split ascending values into d clusters at their d - 1 widest
    consecutive gaps; returns descending (mean, size) pairs.

    Raises SpectralResolutionError unless one threshold in [TOL_FLOOR,
    TOL_CEIL] separates exactly those gaps: the narrowest cut gap must be
    at least TOL_FLOOR, and every gap inside a cluster narrower than both
    it and TOL_CEIL.
    """
    n = len(values_asc)
    if n == 0:
        return []
    width = [values_asc[j] - values_asc[j - 1] for j in range(1, n)]
    order = sorted(range(n - 1), key=width.__getitem__, reverse=True)
    narrowest_cut = width[order[d - 2]] if d >= 2 else float("inf")
    widest_inside = width[order[d - 1]] if d < n else 0.0
    if narrowest_cut < TOL_FLOOR or widest_inside >= min(narrowest_cut, TOL_CEIL):
        raise SpectralResolutionError(
            f"no tolerance in [{TOL_FLOOR}, {TOL_CEIL}] yields {d} clusters"
        )
    bounds = [0, *sorted(j + 1 for j in order[: d - 1]), n]
    groups = [
        (sum(chunk) / len(chunk), len(chunk))
        for chunk in (values_asc[a:b] for a, b in zip(bounds, bounds[1:]))
    ]
    groups.reverse()
    return groups


def spectrum(g: Graph) -> Spectrum:
    """Numeric eigenvalues with multiplicities, validated against the
    exact squarefree decomposition.

    The exact multiplicities fix the distinct count d; the numeric
    eigenvalues are split at their d - 1 widest gaps (see ``_group``),
    and the cluster sizes must equal the exact multiplicities.  Spectra
    that no gap threshold resolves raise SpectralResolutionError.
    """
    p = charpoly(g)
    multiplicities = _multiplicity_multiset(p)
    groups = _group(jacobi_eigenvalues(_adjacency_flat(g), g.n), len(multiplicities))
    if sorted(m for _, m in groups) != multiplicities:
        raise SpectralResolutionError(
            "numeric multiplicities disagree with exact squarefree factors"
        )
    return Spectrum(tuple(groups), len(multiplicities), p)


def exact_integer_eigenvalue(p: CharPoly, x: float) -> int | None:
    """Snap a numeric eigenvalue to an integer root of the charpoly.

    Monic integer polynomials have only integers as rational roots, so
    this covers every rational eigenvalue.  Returns None when x is not
    within ``INTEGER_SNAP_TOL`` of an exact integer root.
    """
    r = round(x)
    if abs(x - r) <= INTEGER_SNAP_TOL and p.eval_int(r) == 0:
        return r
    return None


@lru_cache(maxsize=4096)
def _distinct_from_key(coeffs: tuple[int, ...]) -> int:
    """Distinct-count for a raw coefficient tuple (sweep helper)."""
    return intpoly.squarefree_degree(list(reversed(coeffs)))
