"""Taxonomy classifier and theorem verifiers.

``classify`` runs the full pipeline (regularity -> edge-regularity ->
regular-clique search -> strong-regularity -> spectrum) on one
``Analysis`` and records in it the outcome of every characterization
theorem as a checkable certificate; it returns that ``Analysis``, whose
lazy quantities the reports read.  The verifiers, both clique bounds and
``is_one_walk_regular`` take that ``Analysis`` alone.
``sweep_verify``/``sweep_labeled`` aggregate those certificates over
corpora and over the exhaustively enumerated labeled graphs on n <= 8
vertices.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import islice
from time import perf_counter
from typing import Iterable, Iterator

from . import _kernels
from ._kernels._slow import _MAX_WITNESSES, _canonical_form
from .cliques import (
    RegularCliques,
    extension_hypothesis_holds,
    max_clique_order,
    regular_cliques,
)
from .errors import ConsistencyError
from .graphs import (
    Graph,
    bits,
    encode_graph6,
    from_edge_mask,
    from_edges,
    is_complete,
    is_connected,
    line_graph,
)
from .graphs import diameter as graph_diameter
from .regularity import (
    AvgParams,
    ErgParams,
    SrgParams,
    avg_params,
    edge_regular_params,
    exact_clique_s,
    is_complete_multipartite,
    is_regular,
    srg_params,
)
from .spectra import (
    CharPoly,
    Spectrum,
    _distinct_from_key,
    exact_integer_eigenvalue,
    spectrum,
)

#: absolute tolerance for "this numeric eigenvalue equals that threshold"
EIG_EQ_TOL = 1e-8
#: margin demanded of strict inequalities on non-strongly-regular graphs
STRICT_TOL = 1e-9


class Taxonomy(Enum):
    NOT_REGULAR = "NotRegular"
    REGULAR_NOT_EDGE_REGULAR = "RegularNotEdgeRegular"
    EDGE_REGULAR_NO_REGULAR_CLIQUE = "EdgeRegularNoRegularClique"
    NEUMAIER_SRG = "NeumaierSRG"
    STRICTLY_NEUMAIER = "StrictlyNeumaier"
    COMPLETE_EXCLUDED = "CompleteExcluded"


#: the taxa of Neumaier graphs: edge-regular with a regular clique
NEUMAIER_TAXA = (Taxonomy.NEUMAIER_SRG, Taxonomy.STRICTLY_NEUMAIER)


@dataclass(frozen=True)
class TheoremOutcome:
    status: str  # "holds" | "violated" | "skipped"
    equality: bool | None = None
    witness: str | None = None
    detail: str = ""
    vacuous: bool = False


class Analysis:
    """Per-graph analysis context: lazy, cached, immutable inputs.

    Everything downstream (taxonomy, verifiers, reports) pulls from one
    context so each quantity is computed once per graph; the verifiers
    take it as their only argument, and ``classify`` returns it with
    ``theorems`` evaluated.
    """

    def __init__(self, g: Graph):
        self.graph = g

    @cached_property
    def graph6(self) -> str | None:
        return encode_graph6(self.graph) if self.graph.n <= 62 else None

    @cached_property
    def is_complete(self) -> bool:
        return is_complete(self.graph)

    @cached_property
    def is_connected(self) -> bool:
        return is_connected(self.graph)

    @cached_property
    def is_regular(self) -> bool:
        return is_regular(self.graph)

    @cached_property
    def erg(self) -> ErgParams | None:
        if self.graph.edge_count() == 0:
            return None
        return edge_regular_params(self.graph)

    @cached_property
    def srg(self) -> SrgParams | None:
        if self.is_complete or self.erg is None:
            return None
        return srg_params(self.graph)

    @cached_property
    def multipartite(self) -> tuple[bool, tuple[int, ...] | None]:
        return is_complete_multipartite(self.graph)

    @cached_property
    def regular_cliques(self) -> RegularCliques:
        """The regular cliques, searched only where the spectrum allows one.

        A regular clique C of order c and nexus e >= 1 in a k-regular graph
        on v vertices makes {C, V\\C} an equitable partition with quotient
        [[c-1, k-c+1], [e, k-e]], so the quotient's eigenvalue c-1-e is an
        eigenvalue of the graph (Godsil & Royle, ch. 9).  On a regular
        graph the maximal-clique search runs only when some order c passes
        ``regular_clique_orders``; otherwise it could find nothing and the
        result is empty.  Other graphs are always searched.
        """
        g = self.graph
        if g.n == 0 or self.is_complete:
            return RegularCliques()
        if self.is_regular and not any(
            regular_clique_orders(g.n, g.adj[0].bit_count(), self.spectrum.charpoly)
        ):
            return RegularCliques()
        return regular_cliques(g)

    @cached_property
    def max_clique_order(self) -> int:
        """Largest maximal-clique order, from the pass that found the
        regular cliques, or from a pass of its own when the spectrum ruled
        that search out (its ``max_order`` is then 0); K_n has one maximal
        clique, of order n."""
        if self.graph.n == 0 or self.is_complete:
            return self.graph.n
        return self.regular_cliques.max_order or max_clique_order(self.graph)

    @cached_property
    def spectrum(self) -> Spectrum:
        return spectrum(self.graph)

    @cached_property
    def avg(self) -> AvgParams | None:
        try:
            return avg_params(self.graph)
        except ValueError:
            return None

    @cached_property
    def diameter(self) -> int | float:
        return graph_diameter(self.graph)

    @cached_property
    def taxonomy(self) -> Taxonomy:
        if self.graph.n == 0 or self.is_complete:
            return Taxonomy.COMPLETE_EXCLUDED
        if not self.is_regular:
            return Taxonomy.NOT_REGULAR
        if self.erg is None:
            return Taxonomy.REGULAR_NOT_EDGE_REGULAR
        if not self.regular_cliques:
            return Taxonomy.EDGE_REGULAR_NO_REGULAR_CLIQUE
        if self.srg is not None:
            return Taxonomy.NEUMAIER_SRG
        return Taxonomy.STRICTLY_NEUMAIER

    @property
    def is_neumaier(self) -> bool:
        return self.taxonomy in NEUMAIER_TAXA

    @cached_property
    def s_e(self) -> tuple[int, int] | None:
        """Exact (s, e) of a Neumaier graph: regular-clique order minus
        one and the shared nexus, cross-checked against the closed forms."""
        if not self.is_neumaier:
            return None
        orders = {r.order for r in self.regular_cliques}
        nexuses = {r.nexus for r in self.regular_cliques}
        if len(orders) != 1 or len(nexuses) != 1:
            raise ConsistencyError("regular cliques disagree on order or nexus")
        s = orders.pop() - 1
        e = nexuses.pop()
        erg = self.erg
        assert erg is not None
        cm, parts = self.multipartite
        if cm:
            if parts is None or len(parts) != s + 1:
                raise ConsistencyError("multipartite part count differs from s+1")
        else:
            if exact_clique_s(erg) != s:
                raise ConsistencyError("clique-bound quadratic does not confirm s")
        if e * (erg.v - s - 1) != (s + 1) * (erg.k - s):
            raise ConsistencyError("nexus does not satisfy e = (s+1)(k-s)/(v-s-1)")
        return s, e

    @property
    def s(self) -> int | None:
        return self.s_e[0] if self.s_e else None

    @property
    def e(self) -> int | None:
        return self.s_e[1] if self.s_e else None

    @cached_property
    def theorems(self) -> dict[str, TheoremOutcome]:
        """Every verifier's outcome, keyed and ordered as ``VERIFIERS``."""
        return {tid: verify(self) for tid, verify in VERIFIERS.items()}


def regular_clique_orders(v: int, k: int, p: CharPoly) -> Iterator[tuple[int, int]]:
    """Every (c, e) that a regular clique of a k-regular graph on v
    vertices with charpoly p could have, in ascending c.

    Counting the edges that leave a regular clique C of order c gives
    e(v - c) = c(k - c + 1); an outside vertex seeing all of C would
    extend it, so 1 <= e <= c - 1; and c - 1 - e is an integer eigenvalue
    (``Analysis.regular_cliques``), so a root of p.  All of this is exact.
    """
    for c in range(2, min(k + 1, v - 1) + 1):
        e, rem = divmod(c * (k - c + 1), v - c)
        if not rem and 1 <= e < c and p.eval_int(c - 1 - e) == 0:
            yield c, e


def _outcome(
    ctx: Analysis, holds: bool, detail: str, equality: bool | None = None
) -> TheoremOutcome:
    """A verdict where the theorem applies: the graph is the witness when
    it violates the theorem."""
    return TheoremOutcome(
        "holds" if holds else "violated",
        equality=equality,
        witness=None if holds else ctx.graph6,
        detail=detail,
    )


def verify_eigenvalue_sandwich(ctx: Analysis) -> TheoremOutcome:
    """theta_min <= theta_m and theta_max2 >= theta_M for connected
    regular non-complete-multipartite graphs, with equality (both, within
    1e-8) exactly on strongly regular graphs and a strict margin of 1e-9
    otherwise."""
    if ctx.graph.n == 0 or not ctx.is_connected:
        return TheoremOutcome("skipped", detail="graph is disconnected or empty")
    if not ctx.is_regular:
        return TheoremOutcome("skipped", detail="graph is not regular")
    if ctx.multipartite[0]:
        return TheoremOutcome("skipped", detail="graph is complete multipartite")
    avg = ctx.avg
    if avg is None:
        raise ConsistencyError("averaged parameters missing off the excluded cases")
    sp = ctx.spectrum
    tmin, tmax2 = sp.theta_min, sp.theta_max2
    eq_a = abs(tmin - avg.theta_m) <= EIG_EQ_TOL
    eq_b = abs(tmax2 - avg.theta_M) <= EIG_EQ_TOL
    bound_a = tmin <= avg.theta_m + EIG_EQ_TOL
    bound_b = tmax2 >= avg.theta_M - EIG_EQ_TOL
    srg = ctx.srg is not None
    if srg:
        strict_ok = True
    else:
        strict_ok = (avg.theta_m - tmin > STRICT_TOL) and (
            tmax2 - avg.theta_M > STRICT_TOL
        )
    holds = bound_a and bound_b and (eq_a == srg) and (eq_b == srg) and strict_ok
    detail = (
        f"theta_min={tmin:.12g} vs theta_m={avg.theta_m:.12g}; "
        f"theta_max2={tmax2:.12g} vs theta_M={avg.theta_M:.12g}; srg={srg}"
    )
    return _outcome(ctx, holds, detail, equality=eq_a and eq_b)


def hoffman_clique_bound(ctx: Analysis) -> tuple[float, Fraction | None]:
    """Hoffman coclique bound of the complement, which caps the cliques:
    v / (1 + (v-k-1)/(theta_max2+1)), using -theta_Cmin = theta_max2 + 1.

    Returns (float value, exact Fraction when theta_max2 is a verified
    integer root of the charpoly, else None).  Requires a connected,
    non-complete, regular graph.
    """
    if not ctx.is_connected or ctx.is_complete or not ctx.is_regular:
        raise ValueError("Hoffman bound needs a connected non-complete regular graph")
    g = ctx.graph
    v, k = g.n, g.adj[0].bit_count()
    sp = ctx.spectrum
    tmax2 = sp.theta_max2
    if tmax2 + 1.0 <= 1e-12:
        raise ValueError("theta_max2 = -1 only happens for complete graphs")
    r = exact_integer_eigenvalue(sp.charpoly, tmax2)
    if r is not None and (r + 1) + (v - k - 1) != 0:
        exact = Fraction(v * (r + 1), (r + 1) + (v - k - 1))
        return float(exact), exact
    return v / (1.0 + (v - k - 1) / (tmax2 + 1.0)), None


def delsarte_clique_bound(ctx: Analysis) -> tuple[float, Fraction | None]:
    """Delsarte clique bound 1 - k/theta_min for a regular graph with at
    least one edge; exact Fraction when theta_min is a verified integer
    root of the charpoly."""
    g = ctx.graph
    if not ctx.is_regular or g.edge_count() == 0:
        raise ValueError("Delsarte bound needs a regular graph with an edge")
    k = g.adj[0].bit_count()
    sp = ctx.spectrum
    tmin = sp.theta_min
    r = exact_integer_eigenvalue(sp.charpoly, tmin)
    if r is not None and r != 0:
        exact = 1 - Fraction(k, r)
        return float(exact), exact
    return 1.0 - k / tmin, None


def verify_hoffman_equivalence(ctx: Analysis) -> TheoremOutcome:
    """A connected non-complete edge-regular graph has a clique attaining
    the complement's Hoffman coclique bound v/(1+(v-k-1)/(theta_max2+1))
    iff it is a strongly regular Neumaier graph."""
    if ctx.graph.n == 0 or not ctx.is_connected:
        return TheoremOutcome("skipped", detail="graph is disconnected or empty")
    if ctx.is_complete:
        return TheoremOutcome("skipped", detail="graph is complete")
    if ctx.erg is None:
        return TheoremOutcome("skipped", detail="graph is not edge-regular")
    bound, bound_exact = hoffman_clique_bound(ctx)
    maxc = ctx.max_clique_order
    if maxc > bound + EIG_EQ_TOL:
        return _outcome(
            ctx, False, f"clique of order {maxc} exceeds Hoffman bound {bound:.12g}"
        )
    if bound_exact is not None:
        attained = bound_exact == maxc
    else:
        attained = abs(bound - maxc) <= EIG_EQ_TOL
    is_srg_neumaier = ctx.taxonomy == Taxonomy.NEUMAIER_SRG
    holds = attained == is_srg_neumaier
    detail = (
        f"bound={bound_exact if bound_exact is not None else bound}, "
        f"max clique={maxc}, attained={attained}, NeumaierSRG={is_srg_neumaier}"
    )
    return _outcome(ctx, holds, detail, equality=attained)


def verify_delsarte_equivalence(ctx: Analysis) -> TheoremOutcome:
    """A Neumaier graph satisfies the Delsarte clique bound
    |C| <= 1 - k/theta_min iff it is strongly regular; for the strongly
    regular ones the bound equals s+1."""
    if not ctx.is_neumaier:
        return TheoremOutcome("skipped", detail="not a Neumaier graph")
    bound, bound_exact = delsarte_clique_bound(ctx)
    maxc = ctx.max_clique_order
    if bound_exact is not None:
        delsarte_ok = maxc <= bound_exact
    else:
        delsarte_ok = maxc <= bound + EIG_EQ_TOL
    is_srg_neumaier = ctx.taxonomy == Taxonomy.NEUMAIER_SRG
    holds = delsarte_ok == is_srg_neumaier
    s_e = ctx.s_e
    assert s_e is not None
    if is_srg_neumaier and abs(bound - (s_e[0] + 1)) > EIG_EQ_TOL:
        holds = False
    detail = (
        f"bound={bound_exact if bound_exact is not None else bound}, "
        f"max clique={maxc}, holds_delsarte={delsarte_ok}, s+1={s_e[0] + 1}"
    )
    return _outcome(ctx, holds, detail, equality=delsarte_ok)


def is_one_walk_regular(ctx: Analysis) -> bool:
    """True iff for every walk length l in 0..distinct_count-1 the number
    of l-walks is constant over vertices (diagonal) and constant over
    adjacent pairs, checked in exact integer arithmetic.

    Powers beyond distinct_count-1 are linear combinations of the lower
    ones, so this finite check decides all lengths.  Lengths 0 and 1 hold
    for every graph (I and A), so only the packed rows of A^2..A^(d-1)
    from the charpoly kernel are read: two entries are equal iff their
    lane bytes are.  Raises ValueError on disconnected or irregular input.
    """
    g = ctx.graph
    if not ctx.is_connected or not ctx.is_regular:
        raise ValueError("1-walk-regularity needs a connected regular graph")
    n = g.n
    d = ctx.spectrum.distinct_count
    for rows, b in islice(_kernels.packed_powers(g.adj, n), 1, max(d - 1, 1)):
        diagonal, on_edges = set(), set()
        for i, r in enumerate(rows):
            row = r.to_bytes(n * b, "little")
            diagonal.add(row[i * b : i * b + b])
            on_edges.update(row[j * b : j * b + b] for j in bits(g.adj[i]))
        if len(diagonal) > 1 or len(on_edges) > 1:
            return False
    return True


def verify_walk_regular_theorem(ctx: Analysis) -> TheoremOutcome:
    """A 1-walk-regular graph with a regular clique must be strongly
    regular; vacuous pass whenever the hypothesis fails."""
    if ctx.graph.n == 0 or not ctx.is_connected or not ctx.is_regular:
        return TheoremOutcome(
            "holds", vacuous=True, detail="hypothesis fails: not connected regular"
        )
    if not is_one_walk_regular(ctx):
        return TheoremOutcome(
            "holds", vacuous=True, detail="hypothesis fails: not 1-walk-regular"
        )
    if ctx.is_complete or not ctx.regular_cliques:
        return TheoremOutcome(
            "holds", vacuous=True, detail="hypothesis fails: no regular clique"
        )
    holds = ctx.taxonomy == Taxonomy.NEUMAIER_SRG
    return _outcome(
        ctx, holds, f"1-walk-regular with regular clique; taxonomy={ctx.taxonomy.value}"
    )


def verify_minus_two_corollary(ctx: Analysis) -> TheoremOutcome:
    """Neumaier graphs with smallest eigenvalue -2 (within 1e-8) must be
    strongly regular."""
    if not ctx.is_neumaier:
        return TheoremOutcome("skipped", detail="not a Neumaier graph")
    tmin = ctx.spectrum.theta_min
    if tmin >= -2.0 - EIG_EQ_TOL:
        holds = ctx.taxonomy == Taxonomy.NEUMAIER_SRG
        return _outcome(ctx, holds, f"theta_min={tmin:.12g} >= -2")
    return TheoremOutcome("holds", vacuous=True, detail=f"theta_min={tmin:.12g} < -2")


def verify_no_four_eigenvalues(ctx: Analysis) -> TheoremOutcome:
    """No Neumaier graph has exactly four distinct eigenvalues."""
    if not ctx.is_neumaier:
        return TheoremOutcome("holds", vacuous=True, detail="not a Neumaier graph")
    d = ctx.spectrum.distinct_count
    return _outcome(ctx, d != 4, f"distinct eigenvalue count = {d}")


def verify_multipartite_boundary(ctx: Analysis) -> TheoremOutcome:
    """For edge-regular graphs, v + lam - 2k = 0 iff the graph is complete
    multipartite (both directions)."""
    if ctx.erg is None:
        return TheoremOutcome("skipped", detail="not edge-regular")
    erg = ctx.erg
    boundary = erg.v + erg.lam - 2 * erg.k == 0
    cm = ctx.multipartite[0]
    return _outcome(
        ctx,
        boundary == cm,
        f"v+lam-2k={erg.v + erg.lam - 2 * erg.k}, multipartite={cm}",
        equality=boundary,
    )


def verify_extension_theorem(ctx: Analysis) -> TheoremOutcome:
    """If every (e+1)-clique of a Neumaier graph extends to an
    (s+1)-clique, the graph is strongly regular; additionally the number
    of (s+1)-cliques through an edge, and through a vertex, is constant.
    The hypothesis itself is reported as data, never assumed."""
    if not ctx.is_neumaier:
        return TheoremOutcome("skipped", detail="not a Neumaier graph")
    s, e = ctx.s_e  # type: ignore[misc]
    ext = extension_hypothesis_holds(ctx.graph, e, s)
    if not ext.holds:
        members = sorted(bits(ext.witness or 0))
        return TheoremOutcome(
            "holds",
            vacuous=True,
            detail=f"extension hypothesis fails at (e+1)-clique {members}",
        )
    per_edge = set(ext.per_edge)
    per_vertex = set(ext.per_vertex)
    constant = len(per_edge) == 1 and len(per_vertex) == 1
    holds = ctx.taxonomy == Taxonomy.NEUMAIER_SRG and constant
    return _outcome(
        ctx,
        holds,
        f"extension hypothesis holds; taxonomy={ctx.taxonomy.value}; "
        f"cliques per edge {sorted(per_edge)}, per vertex {sorted(per_vertex)}",
    )


VERIFIERS = {
    "lem1": verify_multipartite_boundary,
    "sandwich": verify_eigenvalue_sandwich,
    "hoffman": verify_hoffman_equivalence,
    "delsarte": verify_delsarte_equivalence,
    "walk": verify_walk_regular_theorem,
    "minus2": verify_minus_two_corollary,
    "four": verify_no_four_eigenvalues,
    "extension": verify_extension_theorem,
}


def classify(g: Graph) -> Analysis:
    """Full taxonomy verdict for one graph: its ``Analysis``, with every
    theorem verifier's outcome already in ``theorems``."""
    ctx = Analysis(g)
    ctx.theorems  # the verifiers run here, not at a report's first read
    return ctx


# ---------------------------------------------------------------------------
# the four-distinct-eigenvalue refuter


@dataclass(frozen=True)
class FourEvRefutation:
    """Derivation trail showing a hypothetical Neumaier graph with four
    distinct eigenvalues (k > theta1 > theta = s-e >= 0 > theta2, Delsarte
    bound violated) forces theta1 = -k/(e+theta) <= 0: a contradiction."""

    k: float
    theta: float
    theta2: float
    e: float
    s: float
    v: float
    lam: float
    theta1: float
    contradiction: bool
    reason: str
    vertex_count_residual: float
    triangle_count_residual: float
    integral_theta: bool
    integral_e: bool


def refute_four_eigenvalues(
    k: float, theta: float, theta2: float, e: float
) -> FourEvRefutation:
    """Evaluate the refutation closed form on one parameter point.

    Preconditions (violations raise ValueError naming the inequality):
    k > theta >= 0 > theta2, e >= 1, e + theta > 0, and the
    Delsarte-violation condition theta2 < -k/(theta+e).
    """
    if not k > theta:
        raise ValueError("precondition violated: k > theta")
    if not theta >= 0:
        raise ValueError("precondition violated: theta >= 0")
    if not theta2 < 0:
        raise ValueError("precondition violated: theta2 < 0")
    if not e >= 1:
        raise ValueError("precondition violated: e >= 1")
    if not e + theta > 0:
        raise ValueError("precondition violated: e + theta > 0")
    if not theta2 < -k / (theta + e):
        raise ValueError("precondition violated: theta2 < -k/(theta+e)")
    s = theta + e
    v = (theta + e + 1.0) * (k - theta) / e
    lam = theta + e - 1.0 + (k - theta - e) * (e - 1.0) / (theta + e)
    theta1 = -k / (e + theta)
    rv_raw = v * e - (s + 1.0) * (k - s + e)
    rv = abs(rv_raw) / max(1.0, abs(v * e))
    lhs = (s + 1.0) * s / 2.0 * (lam - (s - 1.0))
    rhs = (v - s - 1.0) * (e * (e - 1.0) / 2.0)
    rt = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
    return FourEvRefutation(
        k=k,
        theta=theta,
        theta2=theta2,
        e=e,
        s=s,
        v=v,
        lam=lam,
        theta1=theta1,
        contradiction=theta1 <= 0.0,
        reason=(
            "the second-largest eigenvalue must be positive (it exceeds "
            "theta = s-e >= 0), yet the counting identities force it to "
            f"-k/(e+theta) = {theta1:.12g} <= 0"
        ),
        vertex_count_residual=rv,
        triangle_count_residual=rt,
        integral_theta=float(theta).is_integer(),
        integral_e=float(e).is_integer(),
    )


# ---------------------------------------------------------------------------
# line-graph classification


@dataclass(frozen=True)
class LineGraphReport:
    """Which Neumaier family (if any) the line graph of the root belongs
    to.  ``matches`` lists every family fit -- the octahedron is also
    J(4,2), so overlaps are real -- and ``primary`` is RookCase,
    JohnsonCase (the octahedron included) or NotNeumaier."""

    primary: str
    matches: tuple[tuple, ...]
    s: int | None
    line_report: Analysis


def classify_line_graph_neumaier(root: Graph) -> LineGraphReport:
    """Build L(root), classify it, and when it is a Neumaier graph match
    it against the rook / Johnson J(s+2,2) / octahedron families.

    The match is read off the root's edge-carrying vertices: rook(s+1),
    J(s+2,2) and the octahedron are the line graphs of K_{s+1,s+1},
    K_{s+2} and K_4, and by Whitney's theorem (1932) a connected graph
    other than K_3 and K_{1,3} is the only root of its line graph; those
    two share the line graph K_3, which is complete and never Neumaier.
    The family's closed-form (v, k, s) must agree with the classifier's.
    """
    lg = line_graph(root)  # raises ValueError on edgeless roots
    rep = classify(lg)
    if rep.taxonomy not in NEUMAIER_TAXA:
        return LineGraphReport("NotNeumaier", (), None, rep)
    if rep.taxonomy != Taxonomy.NEUMAIER_SRG:
        raise ConsistencyError(
            "a Neumaier line graph must be strongly regular; got StrictlyNeumaier"
        )
    assert rep.erg is not None and rep.s is not None
    v, k, s = rep.erg.v, rep.erg.k, rep.s
    used = [u for u in range(root.n) if root.adj[u]]
    core = sum(1 << u for u in used)
    m = len(used)
    side = root.adj[used[0]]
    matches: list[tuple] = []
    if 2 * side.bit_count() == m and all(
        root.adj[u] == (core ^ side if side >> u & 1 else side) for u in used
    ):
        matches.append(("rook", m // 2 - 1))
    if all(root.adj[u] == core ^ 1 << u for u in used):
        matches.append(("johnson", m - 2))
        if m == 4:
            matches.append(("octahedron",))
    fits = {
        ("rook", s): v == (s + 1) ** 2 and k == 2 * s,
        ("johnson", s): 2 * v == (s + 2) * (s + 1) and k == 2 * s,
        ("octahedron",): v == 6 and k == 4,
    }
    if not matches or not all(fits.get(match) for match in matches):
        raise ConsistencyError(
            f"root families {matches} do not fit the Neumaier line graph's "
            f"(v, k, s) = {(v, k, s)}"
        )
    primary = "RookCase" if matches[0][0] == "rook" else "JohnsonCase"
    return LineGraphReport(primary, tuple(matches), s, rep)


# ---------------------------------------------------------------------------
# sweeps

@dataclass
class SweepAggregate:
    """Merged verdicts over a corpus: taxonomy bucket counts, the
    per-theorem pass matrix, and counterexample witnesses (which would
    indicate an implementation bug, not a failure of the mathematics)."""

    total: int = 0
    taxonomy_counts: dict[str, int] = field(default_factory=dict)
    distinct_histogram: dict[int, int] = field(default_factory=dict)
    theorem_stats: dict[str, dict[str, int]] = field(default_factory=dict)
    violations: dict[str, list[str]] = field(default_factory=dict)
    neumaier_four_count: int = 0
    strictly_neumaier: list[tuple[str, int]] = field(default_factory=list)
    cluster_mismatches: int = 0
    cluster_mismatch_witnesses: list[str] = field(default_factory=list)

    def _stats(self, tid: str) -> dict[str, int]:
        return self.theorem_stats.setdefault(
            tid, {"holds": 0, "vacuous": 0, "violated": 0, "skipped": 0}
        )

    def record_outcome(self, tid: str, outcome: TheoremOutcome, count: int) -> None:
        st = self._stats(tid)
        st[outcome.status] += count
        if outcome.vacuous:
            st["vacuous"] += count
        if outcome.status == "violated":
            wl = self.violations.setdefault(tid, [])
            if outcome.witness and len(wl) < _MAX_WITNESSES:
                wl.append(outcome.witness)

    def add_report(self, rep: Analysis, count: int = 1) -> None:
        """Add the verdicts of ``count`` graphs that all classify as ``rep``;
        each sweep fills ``distinct_histogram`` itself.  The labeled sweep
        adds its irregular graphs at once this way, and each group of its
        isomorphic regular graphs (``_regular_groups``, keyed by canonical
        base mask and border degree) whose representative has no violated
        outcome and is not StrictlyNeumaier; the graphs of the other groups
        come one by one, so the witnesses and the strictly Neumaier list
        name each labeling."""
        self.total += count
        tax = rep.taxonomy.value
        self.taxonomy_counts[tax] = self.taxonomy_counts.get(tax, 0) + count
        for tid, outcome in rep.theorems.items():
            self.record_outcome(tid, outcome, count)
        if rep.taxonomy in NEUMAIER_TAXA:
            if rep.spectrum.distinct_count == 4:
                self.neumaier_four_count += count
        if rep.taxonomy == Taxonomy.STRICTLY_NEUMAIER:
            self.strictly_neumaier.extend(
                [(rep.graph6 or "<n>62>", rep.spectrum.distinct_count)] * count
            )

    def merge(self, other: "SweepAggregate") -> None:
        self.total += other.total
        for k, v in other.taxonomy_counts.items():
            self.taxonomy_counts[k] = self.taxonomy_counts.get(k, 0) + v
        for k, v in other.distinct_histogram.items():
            self.distinct_histogram[k] = self.distinct_histogram.get(k, 0) + v
        for tid, st in other.theorem_stats.items():
            mine = self._stats(tid)
            for key, v in st.items():
                mine[key] += v
        for tid, wl in other.violations.items():
            mine_w = self.violations.setdefault(tid, [])
            mine_w.extend(wl[: max(0, _MAX_WITNESSES - len(mine_w))])
        self.neumaier_four_count += other.neumaier_four_count
        self.strictly_neumaier.extend(other.strictly_neumaier)
        self.cluster_mismatches += other.cluster_mismatches
        mine_w = self.cluster_mismatch_witnesses
        mine_w.extend(other.cluster_mismatch_witnesses[: max(0, _MAX_WITNESSES - len(mine_w))])

    @property
    def violated_total(self) -> int:
        return sum(st["violated"] for st in self.theorem_stats.values())

    def ok(self) -> bool:
        """Every theorem outcome holds, no Neumaier graph shows four
        distinct eigenvalues, strictly Neumaier graphs (if any) have at
        least five, and every graph's inertia counts gave its exact
        distinct-eigenvalue count."""
        return (
            self.violated_total == 0
            and self.neumaier_four_count == 0
            and self.cluster_mismatches == 0
            and all(d >= 5 for _, d in self.strictly_neumaier)
        )


def sweep_verify(corpus: Iterable[Graph]) -> SweepAggregate:
    """Classify every graph of a corpus and aggregate the verdicts."""
    agg = SweepAggregate()
    for g in corpus:
        rep = classify(g)
        agg.add_report(rep)
        d = rep.spectrum.distinct_count
        agg.distinct_histogram[d] = agg.distinct_histogram.get(d, 0) + 1
    return agg


@dataclass
class LabeledSweepResult:
    """Exhaustive labeled sweep over all 2^(n(n-1)/2) graphs."""

    n: int
    aggregate: SweepAggregate
    charpoly_stats: dict[tuple[int, ...], tuple[int, int, int]]
    regular_masks: list[int]
    elapsed: float

    @property
    def graphs_per_s(self) -> float:
        return self.aggregate.total / self.elapsed

    def ok(self) -> bool:
        # strictly Neumaier graphs need >= 16 vertices; seeing one at
        # desk scale is a bug signal, so exhaustive sweeps fail on them
        return self.aggregate.ok() and not self.aggregate.strictly_neumaier


#: most graphs one chunk of ``sweep_labeled`` scans (2^(n-1) per base graph)
_CHUNK_GRAPHS = 1 << 16


def _regular_groups(n: int, masks: list[int]) -> dict[tuple[int, int], list[int]]:
    """The regular n-vertex graphs of ``masks`` grouped, in order, by the
    key (canonical mask of the base G - (n-1), degree r of vertex n-1).

    A regular graph is fixed up to isomorphism by that key: vertex n-1 is
    adjacent to exactly the base's vertices of degree r - 1, so an
    isomorphism of two bases extends to the two graphs (the reconstruction
    argument; J. A. Bondy, "A graph reconstructor's manual", Surveys in
    Combinatorics, 1991).  For n >= 3 the base alone fixes r; r keeps
    n = 2's empty graph and K_2, both with the one-vertex base, apart.
    The groups are the classes of graphs rooted at vertex n-1, so a graph
    whose vertices lie in several orbits splits into several groups, as
    C_3 + C_4 does at n = 7."""
    shift = (n - 1) * (n - 2) // 2
    groups: dict[tuple[int, int], list[int]] = {}
    for mask in masks:
        base = from_edge_mask(n - 1, mask & ((1 << shift) - 1))
        key = (_canonical_form(base.adj, n - 1)[0], (mask >> shift).bit_count())
        groups.setdefault(key, []).append(mask)
    return groups


def _labeled_chunk(args: tuple) -> tuple[SweepAggregate, dict, list[int], dict]:
    """Scan one base range: an aggregate holding the graphs whose inertia
    counts missed as graph6 witnesses, the kernel's charpoly stats and
    regular masks, and those masks in scan order grouped into isomorphic
    graphs (``_regular_groups``).  ``sweep_labeled`` classifies the groups
    and adds the irregular graphs once for all chunks."""
    n, start, stop = args
    stats, regular, misses = _kernels.sweep_masks(n, start, stop)
    agg = SweepAggregate()
    agg.cluster_mismatch_witnesses = [encode_graph6(from_edge_mask(n, m)) for m in misses]
    return agg, stats, regular, _regular_groups(n, regular)


def sweep_labeled(n: int, workers: int = 1) -> LabeledSweepResult:
    """Run the full labeled-graph sweep on n vertices.

    The kernel scans every edge mask (exact charpoly from the bordered
    determinant of a base graph solved once per isomorphism class and
    process; inertia counts of each graph's own numeric eigenvalues below
    the separators planned once per charpoly and process, which record the
    plan's distinct count when they match and 0 when not;
    degree-regularity filter).  Each chunk groups its regular graphs into
    isomorphic ones (``_regular_groups``); the groups are merged in chunk
    order, and each group's first graph in scan order goes through the
    full classifier and counts for the whole group.  When that
    representative has a violated outcome or is StrictlyNeumaier, every
    graph of its group is classified on its own instead, all such graphs
    in the global scan order, so the witness lists and the strictly
    Neumaier list are the per-graph ones.  The verifiers answer every
    degree-irregular graph alike, so the irregular graphs, all
    2^(n(n-1)/2) but the regular ones, take the verdicts of one
    representative, K_2 beside n - 2 isolated vertices, classified once
    per sweep.  The exact distinct count of each charpoly is its
    squarefree degree (``spectra._distinct_from_key``); every graph of a
    charpoly with a recorded count that differs from it is tallied in
    ``cluster_mismatches``, and the first ``_MAX_WITNESSES`` graphs in
    the kernel's scan order whose own count missed are kept as witnesses.
    Work is split into chunks of base graphs on n - 1 vertices, each with
    all 2^(n-1) borders: at most ``_CHUNK_GRAPHS`` graphs a chunk, and
    about eight chunks for each process ``pool_size`` lets run, all mapped
    by ``ordered_map``.  The merged aggregate is independent of worker
    count and chunking, and so of which process solved a class or planned
    a charpoly (``_kernels._slow._separator_plan``); ``regular_masks`` is
    sorted ascending.
    """
    if not 1 <= n <= 8:
        raise ValueError("labeled sweeps support 1 <= n <= 8")
    t0 = perf_counter()
    bases = 1 << ((n - 1) * (n - 2) // 2)
    # cap chunk size so every process that runs gets several chunks;
    # chunking never affects the merged aggregate, only scheduling
    chunk = max(1, min(_CHUNK_GRAPHS >> (n - 1), bases // (8 * pool_size(workers, bases))))
    args = [(n, s, min(s + chunk, bases)) for s in range(0, bases, chunk)]
    agg = SweepAggregate()
    # the bucket is reported even at n <= 2, where no graph is irregular
    agg.taxonomy_counts[Taxonomy.NOT_REGULAR.value] = 0
    stats: dict[tuple[int, ...], list[int]] = {}
    regular_masks: list[int] = []  # in scan order until the sort below
    groups: dict[tuple[int, int], list[int]] = {}
    for part_agg, part_stats, part_regular, part_groups in ordered_map(_labeled_chunk, args, workers, 1):
        agg.merge(part_agg)
        for key, (count, mn, mx) in part_stats.items():
            entry = stats.get(key)
            if entry is None:
                stats[key] = [count, mn, mx]
            else:
                entry[0] += count
                entry[1] = min(entry[1], mn)
                entry[2] = max(entry[2], mx)
        regular_masks.extend(part_regular)
        for key, members in part_groups.items():
            groups.setdefault(key, []).extend(members)
    alone: set[int] = set()
    for members in groups.values():
        rep = classify(from_edge_mask(n, members[0]))
        if rep.taxonomy == Taxonomy.STRICTLY_NEUMAIER or any(
            o.status == "violated" for o in rep.theorems.values()
        ):
            alone.update(members)
        else:
            agg.add_report(rep, count=len(members))
    for mask in regular_masks:
        if mask in alone:
            agg.add_report(classify(from_edge_mask(n, mask)))
    regular_masks.sort()
    irregular = (1 << n * (n - 1) // 2) - len(regular_masks)
    if irregular:
        agg.add_report(classify(from_edges(n, [(0, 1)])), count=irregular)
    for key, (count, mn, mx) in stats.items():
        exact = _distinct_from_key(key)
        agg.distinct_histogram[exact] = agg.distinct_histogram.get(exact, 0) + count
        if mn != exact or mx != exact:
            agg.cluster_mismatches += count
    return LabeledSweepResult(
        n=n,
        aggregate=agg,
        charpoly_stats={k: tuple(v) for k, v in stats.items()},
        regular_masks=regular_masks,
        elapsed=perf_counter() - t0,
    )


def pool_size(workers: int, tasks: int) -> int:
    """Processes for a pool of ``workers`` that runs ``tasks`` tasks: at most
    one per task and per CPU, since the pool starts them all at its first.
    ``ordered_map`` sizes its pool by it, and the labeled sweep its chunks."""
    return max(1, min(workers, tasks, os.cpu_count() or 1))


def ordered_map(fn, items: list, workers: int, chunksize: int) -> list:
    """``[fn(x) for x in items]``, mapped ``chunksize`` items a task over a
    process pool when ``pool_size`` gives it two or more processes; else in
    this process, as a pool of one would only pickle serial work."""
    processes = pool_size(workers, -(-len(items) // chunksize))
    if processes == 1:
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=processes) as ex:
        return list(ex.map(fn, items, chunksize=chunksize))
