"""Seeded inputs for the benchmark workloads.

Every graph is built here as a 0/1 numpy adjacency matrix, without the
package under test, and handed to the program only as a graph6 line.
Fixed-structure graphs (family members, the Z2 x Z8 Cayley graphs) get a
seeded vertex relabeling, so every input depends on the seed while the
cost of the fixed part stays the same from seed to seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import networkx as nx
import numpy as np

#: analyze-spectral: random regular graphs on an even grid of orders
#: 16..62, with the degree cycling through these shares of n
SPECTRAL_RANDOM = 32
SPECTRAL_DEGREE_SHARES = (0.15, 0.25, 0.35, 0.45)

#: analyze-cliques, dense part: complements of random DENSE_CODEGREE-
#: regular graphs on DENSE_ORDER vertices (density 0.85).  G(n, p) at
#: this density varies too much from seed to seed: its maximal-clique
#: count, summed over 12 graphs, has an interquartile range of 15% of its
#: median over ten seeds; here it is 4%.
DENSE_GRAPHS = 12
DENSE_ORDER = 40
DENSE_CODEGREE = 6

#: analyze-cliques, family part: (kind, params); a "co-" prefix means the
#: complement.  complement(rook(7)) and K_{6x6} are left out on purpose:
#: the extension verifier needs 15 s and about 100 s for them.
FAMILY = (
    ("rook", (5,)), ("rook", (6,)),
    ("co-rook", (4,)), ("co-rook", (5,)), ("co-rook", (6,)),
    ("johnson2", (7,)), ("johnson2", (9,)),
    ("co-johnson2", (6,)), ("co-johnson2", (7,)), ("co-johnson2", (8,)),
    ("co-johnson2", (10,)),
    ("multipartite", (4, 6)), ("multipartite", (5, 4)), ("multipartite", (5, 5)),
    ("multipartite", (6, 3)), ("multipartite", (7, 3)),
    ("co-multipartite", (4, 4)), ("co-multipartite", (6, 4)),
)

#: the Cayley graphs Cay(Z2 x Z8, S) with |S| = 9 that are edge-regular
#: with lambda = 4: the smallest strictly Neumaier graphs (Evans,
#: Goryainov and Panasenko 2019); there are exactly eight
CAYLEY_COUNT = 8


@dataclass(frozen=True)
class Entry:
    """One input graph: ``part`` names the corpus part, ``family`` the
    closed-form family (kind, params) when the graph has one."""

    part: str
    label: str
    adj: np.ndarray
    family: tuple | None = None


def encode_graph6(a: np.ndarray) -> str:
    """Short-form graph6: upper triangle column by column, six bits a byte."""
    n = len(a)
    if n > 62:
        raise ValueError("short-form graph6 holds at most 62 vertices")
    flat = [int(a[i, j]) for j in range(1, n) for i in range(j)]
    flat += [0] * (-len(flat) % 6)
    out = [chr(63 + n)]
    for k in range(0, len(flat), 6):
        v = 0
        for b in flat[k:k + 6]:
            v = (v << 1) | b
        out.append(chr(63 + v))
    return "".join(out)


def from_nx(g: nx.Graph) -> np.ndarray:
    return nx.to_numpy_array(g, nodelist=sorted(g), dtype=np.uint8)


def complement(a: np.ndarray) -> np.ndarray:
    c = 1 - a
    np.fill_diagonal(c, 0)
    return c


def relabel(a: np.ndarray, rng: random.Random) -> np.ndarray:
    p = list(range(len(a)))
    rng.shuffle(p)
    return a[np.ix_(p, p)]


def rook(side: int) -> np.ndarray:
    cells = [(r, c) for r in range(side) for c in range(side)]
    return np.array(
        [[int((r == s) != (c == d)) for s, d in cells] for r, c in cells], dtype=np.uint8
    )


def johnson2(n: int) -> np.ndarray:
    pairs = list(itertools.combinations(range(n), 2))
    return np.array(
        [[int(len(set(x) & set(y)) == 1) for y in pairs] for x in pairs], dtype=np.uint8
    )


def multipartite(parts: int, size: int) -> np.ndarray:
    part = np.arange(parts * size) // size
    return (part[:, None] != part[None, :]).astype(np.uint8)


FAMILY_BUILDERS = {"rook": rook, "johnson2": johnson2, "multipartite": multipartite}


def family_member(kind: str, params: tuple) -> np.ndarray:
    base = FAMILY_BUILDERS[kind.removeprefix("co-")](*params)
    return complement(base) if kind.startswith("co-") else base


def cayley_z2z8() -> list[np.ndarray]:
    """All degree-9 Cayley graphs of Z2 x Z8 that are edge-regular with
    lambda = 4, in a fixed order."""
    elems = [(a, b) for a in range(2) for b in range(8)]
    index = {x: i for i, x in enumerate(elems)}

    def neg(x):
        return (-x[0] % 2, -x[1] % 8)

    nonzero = elems[1:]
    involutions = [x for x in nonzero if neg(x) == x]
    pairs = sorted({tuple(sorted((x, neg(x)))) for x in nonzero if neg(x) != x})
    out = []
    for ni in (1, 3):
        for inv in itertools.combinations(involutions, ni):
            for prs in itertools.combinations(pairs, (9 - ni) // 2):
                conn = set(inv) | {x for p in prs for x in p}
                a = np.zeros((16, 16), dtype=np.uint8)
                for x in elems:
                    for s in conn:
                        a[index[x], index[((x[0] + s[0]) % 2, (x[1] + s[1]) % 8)]] = 1
                common = a.astype(np.int64) @ a
                if set(common[a == 1].tolist()) == {4}:
                    out.append(a)
    if len(out) != CAYLEY_COUNT:
        raise RuntimeError(f"found {len(out)} Cayley graphs, expected {CAYLEY_COUNT}")
    return out


def random_regular(n: int, d: int, rng: random.Random) -> np.ndarray:
    return from_nx(nx.random_regular_graph(d, n, seed=rng.randrange(1 << 32)))


def spectral_corpus(seed: int) -> list[Entry]:
    rng = random.Random(seed)
    out = []
    for i in range(SPECTRAL_RANDOM):
        n = 16 + round(46 * i / (SPECTRAL_RANDOM - 1))
        d = max(3, round(n * SPECTRAL_DEGREE_SHARES[i % len(SPECTRAL_DEGREE_SHARES)]))
        d += (n * d) % 2
        out.append(Entry("random-regular", f"rr({n},{d})", random_regular(n, d, rng)))
    for i, a in enumerate(cayley_z2z8()):
        out.append(Entry("cayley", f"cay(Z2xZ8)#{i}", relabel(a, rng), ("cayley", ())))
    return out


def cliques_corpus(seed: int) -> list[Entry]:
    rng = random.Random(seed)
    out = []
    for _ in range(DENSE_GRAPHS):
        a = complement(random_regular(DENSE_ORDER, DENSE_CODEGREE, rng))
        out.append(Entry("dense", f"co-rr({DENSE_ORDER},{DENSE_CODEGREE})", a))
    for kind, params in FAMILY:
        a = relabel(family_member(kind, params), rng)
        out.append(Entry("family", f"{kind}{params}", a, (kind, params)))
    return out


CORPORA = {"analyze-spectral": spectral_corpus, "analyze-cliques": cliques_corpus}
