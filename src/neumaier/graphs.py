"""Immutable bitset graphs, graph6 serialization and family generators.

Vertices are the integers ``0..n-1``.  Adjacency is stored as one Python
int per vertex: bit ``v`` of ``adj[u]`` is set iff ``u ~ v``.  All
structural work (common neighbours, triangles, cliques) then reduces to
word-parallel AND/OR/popcount on those ints.

Edge masks: many routines address the upper-triangle pairs of an
``n``-vertex graph through a single integer whose bit ``t`` stands for
the ``t``-th pair in column-major order -- ``(0,1), (0,2), (1,2), (0,3),
...``, i.e. the pairs ``(i, j)`` with ``i < j`` ordered by ``j``, then
by ``i``.  That is exactly the bit order of the graph6 format, so mask
<-> graph6 conversion is pure bit shuffling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .errors import Graph6Error

#: Hard cap on vertex count, checked by every constructor before it
#: allocates; a guard against accidentally huge inputs, not a format
#: limit (graph6 itself stops at 62 here).
MAX_VERTICES = 512

_G6_MAX = 62  # short-form graph6 header only


def bits(x: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``x``, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


# value -> 6-bit reversal; graph6 packs stream bits MSB-first per byte,
# while edge masks keep pair t at bit t, so each 6-bit chunk is reversed.
_REV6 = tuple(
    sum(((v >> b) & 1) << (5 - b) for b in range(6)) for v in range(64)
)


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertices 0..n-1.

    Invariants (guaranteed by the constructors in this module):
      * no self-loops,
      * adjacency is symmetric,
      * no bits at or above index n.
    """

    n: int
    adj: tuple[int, ...]

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and bool((self.adj[u] >> v) & 1)

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1)):
                yield (u, u + 1 + v)


def _check_order(n: int) -> None:
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside [0, {MAX_VERTICES}]")


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; rejects loops and bad indices."""
    _check_order(n)
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def from_edge_mask(n: int, mask: int) -> Graph:
    """Graph whose edge set is given by ``mask``: bit t is the t-th pair
    (i, j), i < j, in column-major order (by j, then by i), as in graph6."""
    adj = [0] * n
    t = 0
    for j in range(1, n):
        lower = (mask >> t) & ((1 << j) - 1)
        if lower:
            adj[j] |= lower
            for i in bits(lower):
                adj[i] |= 1 << j
        t += j
    if mask >> t:
        raise ValueError("edge mask has bits beyond the upper triangle")
    return Graph(n, tuple(adj))


def edge_mask(g: Graph) -> int:
    """Inverse of :func:`from_edge_mask`."""
    mask = 0
    t = 0
    for j in range(1, g.n):
        mask |= (g.adj[j] & ((1 << j) - 1)) << t
        t += j
    return mask


# ---------------------------------------------------------------------------
# graph6


def decode_graph6(text: str) -> Graph:
    """Decode one short-form graph6 record (n <= 62).

    Raises Graph6Error naming the byte offset for malformed headers,
    short/overlong payloads, out-of-range bytes and nonzero padding.
    """
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6Error("empty graph6 record")
    head = ord(s[0])
    if head == 126:
        raise Graph6Error("long-form graph6 header not supported (n > 62)", 0)
    if not 63 <= head <= 126:
        raise Graph6Error(f"header byte {head!r} outside [63, 126]", 0)
    n = head - 63
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    payload = s[1:]
    if len(payload) < need:
        raise Graph6Error(
            f"payload too short: need {need} bytes, got {len(payload)}",
            1 + len(payload),
        )
    if len(payload) > need:
        raise Graph6Error(
            f"trailing data: need {need} payload bytes, got {len(payload)}",
            1 + need,
        )
    mask = 0
    for k, ch in enumerate(payload):
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise Graph6Error(f"payload byte {ch!r} outside [63, 126]", 1 + k)
        mask |= _REV6[val] << (6 * k)
    if mask >> nbits:
        raise Graph6Error("nonzero padding bits", 1 + need - 1)
    return from_edge_mask(n, mask)


def encode_graph6(g: Graph) -> str:
    """Encode a graph as one short-form graph6 record with zero padding."""
    if g.n > _G6_MAX:
        raise Graph6Error(
            f"graph6 short form supports at most {_G6_MAX} vertices, got {g.n}"
        )
    mask = edge_mask(g)
    nbits = g.n * (g.n - 1) // 2
    out = [chr(63 + g.n)]
    for k in range((nbits + 5) // 6):
        out.append(chr(63 + _REV6[(mask >> (6 * k)) & 63]))
    return "".join(out)


# ---------------------------------------------------------------------------
# family generators


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    _check_order(n)
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << u) for u in range(n)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    _check_order(n)
    return from_edges(n, [(u, (u + 1) % n) for u in range(n)])


def complete_multipartite(parts: int, size: int) -> Graph:
    """Complete multipartite graph with ``parts`` parts of equal ``size``;
    vertex u lies in part u // size, adjacency = different parts."""
    if parts < 2 or size < 1:
        raise ValueError("complete multipartite needs parts >= 2, size >= 1")
    n = parts * size
    _check_order(n)
    full = (1 << n) - 1
    part_mask = [((1 << size) - 1) << (p * size) for p in range(parts)]
    return Graph(n, tuple(full ^ part_mask[u // size] for u in range(n)))


def rook(side: int) -> Graph:
    """side x side rook graph, the line graph of K_{side,side}: vertex
    r * side + c is the edge (r, side + c), adjacency = same row or same
    column."""
    if side < 2:
        raise ValueError("rook graph needs side >= 2")
    return line_graph(complete_multipartite(2, side))


def johnson2(n: int) -> Graph:
    """Johnson graph J(n,2), the line graph of K_n (the triangular graph
    T(n)): vertices are the 2-subsets of an n-set in lexicographic order,
    adjacent iff they intersect."""
    if n < 4:
        raise ValueError("Johnson graph J(n,2) needs n >= 4")
    return line_graph(complete(n))


def petersen() -> Graph:
    """Kneser-style Petersen graph, the complement of J(5,2): 2-subsets of
    a 5-set, adjacent iff disjoint."""
    return complement(johnson2(5))


#: name -> (constructor, number of int parameters); the CLI surface.
FAMILIES: dict[str, tuple[Callable[..., Graph], int]] = {
    "multipartite": (complete_multipartite, 2),
    "rook": (rook, 1),
    "johnson2": (johnson2, 1),
    "complete": (complete, 1),
    "cycle": (cycle, 1),
    "petersen": (petersen, 0),
}


def generate(family: str, *params: int) -> Graph:
    """Build a named family member; raises ValueError for unknown names,
    wrong arity or out-of-range parameters."""
    if family not in FAMILIES:
        raise ValueError(
            f"unknown family {family!r}; choose from {sorted(FAMILIES)}"
        )
    ctor, arity = FAMILIES[family]
    if len(params) != arity:
        raise ValueError(f"family {family!r} takes {arity} parameter(s)")
    return ctor(*params)


# ---------------------------------------------------------------------------
# structural constructions


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((full ^ row) ^ (1 << u) for u, row in enumerate(g.adj)))


def line_graph(g: Graph) -> Graph:
    """Line graph: vertices are the edges of g in lexicographic (u,v)
    order, adjacency = sharing an endpoint."""
    m = g.edge_count()
    if not m:
        raise ValueError("line graph of an edgeless graph is undefined here")
    _check_order(m)
    edges = list(g.edges())
    adj = [0] * m
    incident: dict[int, list[int]] = {}
    for idx, (u, v) in enumerate(edges):
        incident.setdefault(u, []).append(idx)
        incident.setdefault(v, []).append(idx)
    for group in incident.values():
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                adj[group[a]] |= 1 << group[b]
                adj[group[b]] |= 1 << group[a]
    return Graph(m, tuple(adj))


def is_complete(g: Graph) -> bool:
    full = (1 << g.n) - 1
    return all(row == full ^ (1 << u) for u, row in enumerate(g.adj))


def is_connected(g: Graph) -> bool:
    return len(components(g)) <= 1


def components(g: Graph) -> list[int]:
    """Connected components as vertex bitsets, sorted by lowest vertex."""
    out = []
    remaining = (1 << g.n) - 1
    while remaining:
        start = remaining & -remaining
        seen = start
        frontier = start
        while frontier:
            nxt = 0
            for u in bits(frontier):
                nxt |= g.adj[u]
            frontier = nxt & ~seen
            seen |= frontier
        out.append(seen)
        remaining &= ~seen
    return out


def diameter(g: Graph) -> int | float:
    """Maximum BFS distance over vertex pairs; math.inf iff disconnected."""
    if g.n <= 1:
        return 0
    best = 0
    full = (1 << g.n) - 1
    for s in range(g.n):
        seen = 1 << s
        frontier = seen
        dist = 0
        while True:
            nxt = 0
            for u in bits(frontier):
                nxt |= g.adj[u]
            frontier = nxt & ~seen
            if not frontier:
                break
            seen |= frontier
            dist += 1
        if seen != full:
            return math.inf
        best = max(best, dist)
    return best
