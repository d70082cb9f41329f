"""Clique enumeration over bitsets: maximal cliques (pivoting
backtracking), regular-clique detection, the clique-extension
hypothesis check, and clique counts per vertex and per edge.

A regular clique C of order c and nexus e in a k-regular graph makes
{C, V\\C} an equitable bipartition with quotient [[c-1, k-c+1],
[e, k-e]], whose eigenvalues k and c-1-e are eigenvalues of the graph.
``classify.Analysis`` runs ``regular_cliques`` on a regular graph only
when its exact charpoly has such a root; otherwise the search is empty
by this argument and is skipped.
"""

from __future__ import annotations

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
class ExtensionReport:
    holds: bool
    witness: int | None  # first (e+1)-clique with no extension
    #: where the hypothesis holds, the (s+1)-cliques through each vertex,
    #: and through each edge in ``Graph.edges()`` order
    per_vertex: tuple[int, ...] = ()
    per_edge: tuple[int, ...] = ()


class RegularCliques(list):
    """The regular cliques of a graph, as a list of CliqueReport, with two
    facts from the same enumeration: ``max_order``, the largest order of
    any maximal clique, and ``maximal_count``, the number of maximal
    cliques visited.  ``maximal_count == len(...)`` says that every
    maximal clique is regular."""

    max_order: int = 0
    maximal_count: int = 0


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


#: outside vertices, after the first and the last, that ``regular_cliques``
#: checks one by one before the packed comparison: each check costs less
#: than the packed sum of c rows, and most irregular cliques fail one
_PROBES = 3


def regular_cliques(g: Graph) -> RegularCliques:
    """Maximal cliques C whose outside vertices all see the same positive
    number of members, with the largest maximal-clique order as
    ``max_order`` and the number of maximal cliques as ``maximal_count``,
    in one pass over the maximal cliques.

    The nexus e is read off the first outside vertex and checked at the
    last and at the next ``_PROBES`` in ascending order, which rejects
    most irregular cliques at once (all but 5,377 of the 867,059 maximal
    cliques of one dense G(62, 0.9)).  A clique that passes is decided by
    one integer comparison on counts packed one lane per vertex: with
    N(u) the neighbourhood of u, the sum over u in C of N(u) must be e on
    every lane plus c-1-e on the lanes of C (each member sees the other
    c-1).  A lane holds at most n-1, so no carry crosses lanes.

    In an edge-regular graph all regular cliques share one order; that is
    cross-checked and a violation raises ConsistencyError.  (General
    regular graphs can mix orders, so the check is scoped accordingly.)
    """
    if is_complete(g):
        raise ValueError("regular cliques are undefined for complete graphs")
    n = g.n
    adj = g.adj
    full = (1 << n) - 1
    width = 8 * ((max(n - 1, 1).bit_length() + 7) // 8)
    ones = _spread(full, width)
    # row u: N(u) in lanes 0..n-1, and lane u above them, so that a sum
    # over C also carries C itself, one lane per vertex, from bit ``top``
    top = width * n
    rows = [_spread(adj[u], width) | 1 << (top + width * u) for u in range(n)]
    low_lanes = (1 << top) - 1
    out = RegularCliques()
    largest = count = 0
    for c in maximal_cliques(g):
        count += 1
        order = c.bit_count()
        if order > largest:
            largest = order
        rest = full ^ c
        low = rest & -rest
        e = (adj[low.bit_length() - 1] & c).bit_count()
        if e == 0 or (adj[rest.bit_length() - 1] & c).bit_count() != e:
            continue
        rest ^= low
        probes = _PROBES
        while rest and probes:
            low = rest & -rest
            if (adj[low.bit_length() - 1] & c).bit_count() != e:
                break
            rest ^= low
            probes -= 1
        else:
            acc = 0
            w = c
            while w:
                low = w & -w
                acc += rows[low.bit_length() - 1]
                w ^= low
            if acc & low_lanes == e * ones + (order - 1 - e) * (acc >> top):
                out.append(CliqueReport(c, order, True, True, e))
    out.max_order = largest
    out.maximal_count = count
    if len({r.order for r in out}) > 1:
        from .regularity import edge_regular_params

        if g.edge_count() and edge_regular_params(g) is not None:
            raise ConsistencyError(
                "regular cliques of different orders in one edge-regular graph"
            )
    return out


def _spread(mask: int, width: int) -> int:
    """The vertex set ``mask`` as a 1 in lane v (bits width*v and up) for
    each member v."""
    return sum(1 << width * v for v in bits(mask))


def clique_counts(g: Graph, cliques: list[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """How many of ``cliques`` contain each vertex, and each edge in
    ``Graph.edges()`` order.

    Packed counters: acc[u] is the sum of C over the cliques C through u,
    one lane per vertex, so lane v of acc[u] counts the cliques through
    u and v, and lane u those through u.  A lane holds at most
    ``len(cliques)``, so no carry crosses lanes.
    """
    width = max(len(cliques).bit_length(), 1)
    lane = [1 << width * v for v in range(g.n)]
    acc = [0] * g.n
    for c in cliques:
        members = []
        hat = 0
        while c:
            low = c & -c
            v = low.bit_length() - 1
            members.append(v)
            hat |= lane[v]
            c ^= low
        for u in members:
            acc[u] += hat
    mask = (1 << width) - 1
    per_vertex = tuple(acc[u] >> width * u & mask for u in range(g.n))
    per_edge = tuple(acc[u] >> width * v & mask for u, v in g.edges())
    return per_vertex, per_edge


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
    collects them for ``clique_counts``.  On failure the witness is the
    first inextensible (e+1)-clique in enumeration order.

    ``classify.Analysis.extension`` calls this only when some maximal
    clique is not regular; otherwise it reads the same report off the
    regular cliques.
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
    big = []
    for c in maximal_cliques(g):
        if c.bit_count() != s + 1:
            raise ConsistencyError(
                "extension hypothesis holds but a maximal clique misses order s+1"
            )
        big.append(c)
    return ExtensionReport(True, None, *clique_counts(g, big))


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
