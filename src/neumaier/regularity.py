"""Regularity predicates, the clique-order bound, and the averaged
parameter calculus for arbitrary non-complete-multipartite graphs.

Averages (kbar, lambdabar, mubar) are carried as exact Fractions so the
identity tests stay tight; the derived quantities (sbar, ebar, theta_m,
theta_M) come from the quadratic formula in floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import ConsistencyError
from .graphs import Graph, bits, complement, components, is_complete, is_complete_component

_IDENTITY_TOL = 1e-9


@dataclass(frozen=True)
class ErgParams:
    """Edge-regular parameters (v, k, lam): regular of valency k and every
    edge lies in exactly lam triangles."""

    v: int
    k: int
    lam: int

    def __post_init__(self):
        if self.k >= 1 and not 0 <= self.lam <= self.k - 1 <= self.v - 2:
            raise ValueError(f"invalid edge-regular parameters {self}")
        if self.v + self.lam - 2 * self.k < 0:
            raise ValueError(
                f"v + lam - 2k = {self.v + self.lam - 2 * self.k} < 0 is impossible"
            )


@dataclass(frozen=True)
class SrgParams:
    """Strongly regular parameters (v, k, lam, mu).  Disconnected unions
    of equal complete graphs count as (imprimitive) SRGs with mu = 0."""

    v: int
    k: int
    lam: int
    mu: int

    def __post_init__(self):
        if self.v - self.k - 1 > 0:
            if self.k * (self.k - self.lam - 1) != (self.v - self.k - 1) * self.mu:
                raise ValueError(f"SRG counting identity fails for {self}")


class MuTrichotomy(Enum):
    K_GREATER = "kGreater"
    K_EQUAL = "kEqual"
    K_LESS = "kLess"


@dataclass(frozen=True)
class AvgParams:
    """Averaged parameters of a non-complete-multipartite graph."""

    v: int
    kbar: Fraction
    lambdabar: Fraction
    mubar: Fraction
    sbar: float
    ebar: float
    theta_m: float
    theta_M: float


def degree_profile(g: Graph) -> tuple[int, int, Fraction]:
    """(min degree, max degree, exact average degree)."""
    if g.n == 0:
        return (0, 0, Fraction(0))
    degs = [row.bit_count() for row in g.adj]
    return (min(degs), max(degs), Fraction(sum(degs), g.n))


def is_regular(g: Graph) -> bool:
    return len({row.bit_count() for row in g.adj}) <= 1


def triangle_count(g: Graph) -> int:
    """Total number of triangles, by popcount over edges."""
    total = 0
    for u in range(g.n):
        for v in bits(g.adj[u] >> (u + 1)):
            total += (g.adj[u] & g.adj[u + 1 + v]).bit_count()
    return total // 3


def edge_regular_params(g: Graph) -> ErgParams | None:
    """(v, k, lam) when g is regular with constant common-neighbour count
    over edges; None otherwise.  Edgeless input is an error (the notion
    requires valency k >= 1)."""
    if g.edge_count() == 0:
        raise ValueError("edge-regularity requires at least one edge")
    degs = {row.bit_count() for row in g.adj}
    if len(degs) != 1:
        return None
    k = degs.pop()
    lam = None
    for u in range(g.n):
        for v in bits(g.adj[u] >> (u + 1)):
            t = (g.adj[u] & g.adj[u + 1 + v]).bit_count()
            if lam is None:
                lam = t
            elif t != lam:
                return None
    return ErgParams(g.n, k, lam)


def srg_params(g: Graph) -> SrgParams | None:
    """(v, k, lam, mu) when g is edge-regular with constant common
    neighbour count mu over non-adjacent pairs; None otherwise.

    Complete graphs are rejected (no non-adjacent pairs to average over,
    and the taxonomy excludes them anyway).
    """
    if is_complete(g):
        raise ValueError("strong regularity is undefined for complete graphs")
    erg = edge_regular_params(g)
    if erg is None:
        return None
    mu = None
    full = (1 << g.n) - 1
    for u in range(g.n):
        non = full & ~g.adj[u] & ~((1 << (u + 1)) - 1)
        for v in bits(non):
            t = (g.adj[u] & g.adj[v]).bit_count()
            if mu is None:
                mu = t
            elif t != mu:
                return None
    if mu is None:
        raise ConsistencyError("non-complete graph with no non-adjacent pair")
    return SrgParams(erg.v, erg.k, erg.lam, mu)


def is_complete_multipartite(g: Graph) -> tuple[bool, tuple[int, ...] | None]:
    """True iff the complement is a disjoint union of cliques; the parts
    are the complement's components, returned as a sorted size multiset.

    Edgeless graphs (one part) and complete graphs (all parts singleton)
    both qualify, matching the convention that non-adjacency must be an
    equivalence relation.
    """
    co = complement(g)
    comps = components(co)
    if all(is_complete_component(co, c) for c in comps):
        return True, tuple(sorted(c.bit_count() for c in comps))
    return False, None


def _clique_quadratic(v, k, lam):
    """Coefficients (a, b, c) of the clique-bound quadratic
    (v+lam-2k) s^2 + (k^2-k+lam-v*lam) s - k(v-k-1) = 0, whose positive
    root s bounds every clique order by s+1; exact on ints and on
    Fractions."""
    return v + lam - 2 * k, k * k - k + lam - v * lam, -k * (v - k - 1)


def exact_clique_s(p: ErgParams) -> int | None:
    """Integer s verified exactly against the clique-bound quadratic, or
    None when s is irrational/non-integer."""
    a, b, c = _clique_quadratic(p.v, p.k, p.lam)
    if a <= 0:
        return None
    r = round(_positive_quadratic_root(float(a), float(b), float(c)))
    if a * r * r + b * r + c == 0:
        return r
    return None


def _positive_quadratic_root(a: float, b: float, c: float) -> float:
    """Positive root of a x^2 + b x + c with a > 0 > c (cancellation-free
    branch selection)."""
    disc = math.sqrt(b * b - 4.0 * a * c)
    if b <= 0:
        return (-b + disc) / (2.0 * a)
    return (2.0 * c) / (-b - disc)


def _check_quadratic_residual(a, b, c, s: float) -> None:
    residual = float(a) * s * s + float(b) * s + float(c)
    scale = max(abs(float(a)) * s * s, abs(float(b)) * s, abs(float(c)), 1.0)
    if abs(residual) > _IDENTITY_TOL * scale:
        raise ConsistencyError(
            f"quadratic residual {residual} exceeds tolerance at s={s}"
        )


def avg_params(g: Graph) -> AvgParams:
    """Averaged parameters for a non-complete-multipartite graph with at
    least 3 vertices and one edge.

    kbar = 2|E|/v, lambdabar = 6N/(v*kbar) with N the triangle total,
    mubar = kbar(kbar-lambdabar-1)/(v-kbar-1); sbar is the positive root
    of the averaged clique-bound quadratic, ebar the averaged nexus,
    theta_m = -kbar/sbar and theta_M = (kbar-mubar) sbar / kbar.
    """
    v = g.n
    if v < 3:
        raise ValueError("averaged parameters need at least 3 vertices")
    edges = g.edge_count()
    if edges == 0:
        raise ValueError("averaged parameters need at least one edge")
    cm, _ = is_complete_multipartite(g)
    if cm:
        raise ValueError(
            "averaged parameters are undefined for complete multipartite graphs"
        )
    kbar = Fraction(2 * edges, v)
    lambdabar = Fraction(3 * triangle_count(g), edges)  # 6N / (v kbar)
    if not v > kbar + 1:
        raise ConsistencyError("v <= kbar + 1 for a non-complete graph")
    a, b, c = _clique_quadratic(v, kbar, lambdabar)
    if not a > 0:
        raise ConsistencyError("v + lambdabar - 2 kbar <= 0 off the multipartite case")
    mubar = kbar * (kbar - lambdabar - 1) / (v - kbar - 1)
    sbar = _positive_quadratic_root(float(a), float(b), float(c))
    _check_quadratic_residual(float(a), float(b), float(c), sbar)
    ebar = (sbar + 1.0) * (float(kbar) - sbar) / (v - sbar - 1.0)
    theta_m = -float(kbar) / sbar
    theta_M = float((kbar - mubar) / kbar) * sbar
    if abs(theta_M - (sbar - ebar)) > _IDENTITY_TOL:
        raise ConsistencyError("theta_M != sbar - ebar beyond tolerance")
    # (X - theta_m)(X - theta_M) must equal X^2 + (mubar-lambdabar) X + (mubar-kbar)
    if abs((theta_m + theta_M) - float(lambdabar - mubar)) > _IDENTITY_TOL:
        raise ConsistencyError("theta_m + theta_M identity fails")
    if abs(theta_m * theta_M - float(mubar - kbar)) > _IDENTITY_TOL:
        raise ConsistencyError("theta_m * theta_M identity fails")
    return AvgParams(v, kbar, lambdabar, mubar, sbar, ebar, theta_m, theta_M)


def mu_trichotomy(a: AvgParams) -> MuTrichotomy:
    """Compare kbar against theta_M; the sign must match sign(mubar), and
    a disagreement beyond tolerance is an internal error."""
    diff = float(a.kbar) - a.theta_M
    if a.mubar > 0:
        if diff <= -_IDENTITY_TOL:
            raise ConsistencyError("mubar > 0 but kbar < theta_M")
        return MuTrichotomy.K_GREATER
    if a.mubar == 0:
        if abs(diff) > _IDENTITY_TOL:
            raise ConsistencyError("mubar = 0 but kbar != theta_M")
        return MuTrichotomy.K_EQUAL
    if diff >= _IDENTITY_TOL:
        raise ConsistencyError("mubar < 0 but kbar > theta_M")
    return MuTrichotomy.K_LESS
