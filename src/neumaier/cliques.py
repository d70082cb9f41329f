"""Clique enumeration over bitsets: maximal cliques (pivoting
backtracking), regular-clique detection, equitable bipartitions with
their 2x2 quotient, and the clique-extension hypothesis check.

A regular clique C of order c and nexus e in a k-regular graph makes
{C, V\\C} an equitable bipartition with quotient [[c-1, k-c+1],
[e, k-e]], whose eigenvalues k and c-1-e are eigenvalues of the graph.
``classify.Analysis`` runs ``regular_cliques`` on a regular graph only
when its exact charpoly has such a root; otherwise the search is empty
by this argument and is skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .errors import ConsistencyError
from .graphs import Graph, bits, is_complete


@dataclass(frozen=True)
class CliqueReport:
    """One clique: ``members`` is a vertex bitset; ``nexus`` is the
    constant outside-adjacency count when the clique is regular, else
    None."""

    members: int
    order: int
    is_maximal: bool
    is_regular: bool
    nexus: int | None


@dataclass(frozen=True)
class EquitableBipartition:
    equitable: bool
    quotient: tuple[tuple[int, int], tuple[int, int]] | None
    eigenvalues: tuple[float, float] | None


@dataclass(frozen=True)
class ExtensionReport:
    holds: bool
    witness: int | None  # first (e+1)-clique with no extension
    #: where the hypothesis holds, the (s+1)-cliques through each vertex,
    #: and through each edge in ``Graph.edges()`` order
    per_vertex: tuple[int, ...] = ()
    per_edge: tuple[int, ...] = ()


class RegularCliques(list):
    """The regular cliques of a graph, as a list of CliqueReport, with
    ``max_order``, the largest order of any maximal clique, taken from the
    same enumeration."""

    max_order: int = 0


def maximal_cliques(g: Graph) -> Iterator[int]:
    """All maximal cliques, each exactly once, as vertex bitsets.

    Pivoting Bron-Kerbosch on an explicit stack of ``[r, p, x, todo]``
    frames; the pivot is the first vertex of p | x, in ascending order,
    with the most neighbours in p.  The emission order is a deterministic
    function of the vertex order.
    """
    if g.n == 0:
        return
    adj = g.adj
    full = (1 << g.n) - 1
    stack = [[0, full, 0, full & ~adj[_pivot(adj, full, 0)]]]
    while stack:
        frame = stack[-1]
        r, p, x, todo = frame
        if not todo:
            stack.pop()
            continue
        low = todo & -todo
        frame[1] = p ^ low
        frame[2] = x | low
        frame[3] = todo ^ low
        row = adj[low.bit_length() - 1]
        p &= row
        x &= row
        if not p:
            if not x:
                yield r | low
            continue
        stack.append([r | low, p, x, p & ~adj[_pivot(adj, p, x)]])


def _pivot(adj: list[int], p: int, x: int) -> int:
    """First vertex of p | x, ascending, with the most neighbours in p;
    no vertex can have more than |p|, so reaching that stops the scan."""
    cap = p.bit_count()
    best = -1
    pivot = 0
    w = p | x
    while w:
        low = w & -w
        u = low.bit_length() - 1
        c = (adj[u] & p).bit_count()
        if c > best:
            if c == cap:
                return u
            best = c
            pivot = u
        w ^= low
    return pivot


def regular_cliques(g: Graph) -> RegularCliques:
    """Maximal cliques C whose outside vertices all see the same positive
    number of members, with the largest maximal-clique order as
    ``max_order``, in one pass over the maximal cliques.

    In an edge-regular graph all regular cliques share one order; that is
    cross-checked and a violation raises ConsistencyError.  (General
    regular graphs can mix orders, so the check is scoped accordingly.)
    """
    if is_complete(g):
        raise ValueError("regular cliques are undefined for complete graphs")
    adj = g.adj
    full = (1 << g.n) - 1
    out = RegularCliques()
    top = 0
    for c in maximal_cliques(g):
        order = c.bit_count()
        if order > top:
            top = order
        rest = full ^ c
        low = rest & -rest
        e = (adj[low.bit_length() - 1] & c).bit_count()
        if e == 0:
            continue
        rest ^= low
        while rest:
            low = rest & -rest
            if (adj[low.bit_length() - 1] & c).bit_count() != e:
                break
            rest ^= low
        else:
            out.append(CliqueReport(c, order, True, True, e))
    out.max_order = top
    if len({r.order for r in out}) > 1:
        from .regularity import edge_regular_params

        if g.edge_count() and edge_regular_params(g) is not None:
            raise ConsistencyError(
                "regular cliques of different orders in one edge-regular graph"
            )
    return out


def is_equitable_bipartition(g: Graph, c: int) -> EquitableBipartition:
    """Check that {C, V\\C} is an equitable partition and return the 2x2
    quotient [[a, b], [cc, d]] with its closed-form eigenvalues."""
    full = (1 << g.n) - 1
    if c == 0 or c == full or c & ~full:
        raise ValueError("bipartition side must be a proper nonempty subset")
    rest = full ^ c
    a_vals = {(g.adj[u] & c).bit_count() for u in bits(c)}
    b_vals = {(g.adj[u] & rest).bit_count() for u in bits(c)}
    cc_vals = {(g.adj[u] & c).bit_count() for u in bits(rest)}
    d_vals = {(g.adj[u] & rest).bit_count() for u in bits(rest)}
    if any(len(s) != 1 for s in (a_vals, b_vals, cc_vals, d_vals)):
        return EquitableBipartition(False, None, None)
    a, b, cc, d = a_vals.pop(), b_vals.pop(), cc_vals.pop(), d_vals.pop()
    half = math.sqrt((a - d) * (a - d) + 4 * b * cc) / 2.0
    mid = (a + d) / 2.0
    return EquitableBipartition(True, ((a, b), (cc, d)), (mid + half, mid - half))


def cliques_of_order(g: Graph, t: int) -> Iterator[int]:
    """All cliques of order exactly t (not necessarily maximal), emitted
    in ascending lexicographic vertex order."""
    if t < 1:
        raise ValueError("clique order must be >= 1")
    adj = g.adj

    def rec(r: int, size: int, cand: int) -> Iterator[int]:
        if size == t:
            yield r
            return
        if size + cand.bit_count() < t:
            return
        for v in bits(cand):
            above = ~((1 << (v + 1)) - 1)
            yield from rec(r | (1 << v), size + 1, cand & adj[v] & above)

    yield from rec(0, 0, (1 << g.n) - 1)


def max_clique_order(g: Graph) -> int:
    return max((c.bit_count() for c in maximal_cliques(g)), default=0)


def extension_hypothesis_holds(g: Graph, e: int, s: int) -> ExtensionReport:
    """Does every (e+1)-clique extend to an (s+1)-clique?

    ``e`` and ``s`` must be the regular-clique parameters of a Neumaier
    graph.  When the hypothesis holds, two proven consequences are also
    verified (unique extensions; every maximal clique has order s+1) and
    their failure raises ConsistencyError.  The (s+1)-cliques are then
    exactly the maximal cliques, so the walk that checks their order also
    counts them per vertex and per edge.  On failure the witness is the
    first inextensible (e+1)-clique in enumeration order.
    """
    if not 1 <= e <= s:
        raise ValueError("need 1 <= e <= s for a regular-clique pair (e, s)")
    if next(cliques_of_order(g, s + 1), None) is None:
        raise ValueError(f"graph has no clique of order s+1 = {s + 1}")
    adj = g.adj
    full = (1 << g.n) - 1
    unique = True
    for h in cliques_of_order(g, e + 1):
        # the (s+1)-cliques through h are h plus an (s-e)-clique of the
        # common neighbourhood of h
        common = full
        for v in bits(h):
            common &= adj[v]
        containing = _count_cliques_within(adj, common, s - e, 2)
        if containing == 0:
            return ExtensionReport(False, h)
        if containing != 1:
            unique = False
    if not unique:
        raise ConsistencyError(
            "extension hypothesis holds but some extension is not unique"
        )
    n = g.n
    per_vertex = [0] * n
    per_pair = [0] * (n * n)
    for c in maximal_cliques(g):
        if c.bit_count() != s + 1:
            raise ConsistencyError(
                "extension hypothesis holds but a maximal clique misses order s+1"
            )
        members = list(bits(c))
        for i, u in enumerate(members):
            per_vertex[u] += 1
            row = u * n
            for v in members[i + 1:]:
                per_pair[row + v] += 1
    per_edge = tuple(per_pair[u * n + v] for u, v in g.edges())
    return ExtensionReport(True, None, tuple(per_vertex), per_edge)


def _count_cliques_within(adj: list[int], cand: int, t: int, limit: int) -> int:
    """Number of t-cliques inside the vertex set ``cand``, counted only
    up to ``limit``."""
    if t == 0:
        return 1
    if t == 1:
        return min(cand.bit_count(), limit)
    found = 0
    while cand.bit_count() >= t:
        low = cand & -cand
        cand ^= low
        found += _count_cliques_within(
            adj, cand & adj[low.bit_length() - 1], t - 1, limit - found
        )
        if found >= limit:
            break
    return found
