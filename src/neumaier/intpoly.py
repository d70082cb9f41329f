"""Exact integer polynomial arithmetic: a certified modular gcd, exact
division by monic divisors, and Yun squarefree decomposition.

Polynomials are lists of Python ints, coefficient of x^i at index i
(low to high).  Everything stays in arbitrary-precision integers; the
monic-input entry points never leave Z[x] (Gauss's lemma: monic integer
polynomials have monic integer gcds and quotients).

``gcd_int`` is W. S. Brown's small-primes modular gcd (J. ACM 18, 1971)
for inputs of which at least one is monic.  Euclid runs modulo 61-bit
primes; an image of degree 0 proves the gcd is 1, and otherwise the
monic images of lowest degree are combined by the Chinese remainder
theorem until the candidate divides both inputs exactly in Z[x].
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd as int_gcd

#: Miller-Rabin with these bases is deterministic below 3.1e23 > 2^64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p: list[int]) -> int:
    """Degree, with -1 for the zero polynomial."""
    return len(p) - 1


def derivative(p: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(p) if i >= 1]


def content(p: list[int]) -> int:
    c = 0
    for x in p:
        c = int_gcd(c, abs(x))
    return c


def primitive(p: list[int]) -> list[int]:
    c = content(p)
    if c <= 1:
        return list(p)
    return [x // c for x in p]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _prime(i: int) -> int:
    """The i-th prime below 2^61 in descending order (``_prime(0)`` is
    2^61 - 1); callers ask for i = 0, 1, 2, ... in turn."""
    m = (1 << 61) if i == 0 else _prime(i - 1)
    m -= 1
    while not _is_prime(m):
        m -= 1
    return m


def _gcd_mod(a: list[int], b: list[int], m: int) -> list[int]:
    """Monic gcd in (Z/m)[x] by Euclid; a and b are reduced mod m and
    trimmed, b nonzero.  Consumes a."""
    while b:
        inv = pow(b[-1], -1, m)
        db = len(b) - 1
        for top in range(len(a) - 1, db - 1, -1):
            q = a[top] * inv % m
            if q:
                s = top - db
                a[s:top] = [(x - q * y) % m for x, y in zip(a[s:top], b)]
        del a[db:]
        trim(a)
        a, b = b, a
    inv = pow(a[-1], -1, m)
    return [x * inv % m for x in a]


def gcd_int(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd in Z[x] with positive leading coefficient.

    If one argument is zero this is the primitive part of the other.
    Otherwise at least one argument must be monic (ValueError if neither
    is), so the gcd is monic.  Each prime m gives an upper bound on the
    gcd degree, and a lucky one the gcd mod m; a candidate is returned
    only once it divides both arguments exactly.
    """
    a = trim(list(a))
    b = trim(list(b))
    if not a or not b:
        g = a or b
        if not g:
            return []
        g = primitive(g)
        return [-x for x in g] if g[-1] < 0 else g
    if a[-1] != 1:
        a, b = b, a
    if a[-1] != 1:
        raise ValueError("gcd_int needs a monic argument when both are nonzero")
    residues: list[int] = []  # candidate coefficients mod `modulus`
    modulus = 1
    # finitely many primes are unlucky, so the loop ends at a return
    for m in map(_prime, itertools.count()):
        if b[-1] % m == 0:
            continue
        h = _gcd_mod([x % m for x in a], [x % m for x in b], m)
        if len(h) == 1:
            return [1]
        if residues and len(h) > len(residues):
            continue  # m is unlucky: the true gcd has lower degree
        if not residues or len(h) < len(residues):
            residues, modulus = h, m
        else:
            t = pow(modulus, -1, m)
            residues = [r + modulus * ((y - r) * t % m) for r, y in zip(residues, h)]
            modulus *= m
        g = [r - modulus if 2 * r > modulus else r for r in residues]
        if not _divmod_monic(a, g)[1] and not _divmod_monic(b, g)[1]:
            return g


def _divmod_monic(f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of f by monic g in Z[x]."""
    r = list(f)
    dg = degree(g)
    q = [0] * max(degree(r) - dg + 1, 0)
    for top in range(len(r) - 1, dg - 1, -1):
        c = r[top]
        if c:
            s = top - dg
            q[s] = c
            r[s:top] = [x - c * y for x, y in zip(r[s:top], g)]
    del r[dg:]
    return q, trim(r)


def div_exact_monic(f: list[int], g: list[int]) -> list[int]:
    """Exact quotient f / g for monic g; raises if the division leaves a
    remainder (which would indicate a caller bug)."""
    if not g or g[-1] != 1:
        raise ValueError("divisor must be monic")
    q, r = _divmod_monic(f, g)
    if r:
        raise ValueError("division is not exact")
    return q


def squarefree_degree(p: list[int]) -> int:
    """deg(p / gcd(p, p')): the number of distinct complex roots of p.

    For characteristic polynomials of symmetric integer matrices all
    roots are real, so this is the distinct-eigenvalue count.
    """
    p = trim(list(p))
    if degree(p) <= 0:
        return 0
    return degree(p) - degree(gcd_int(p, derivative(p)))


def squarefree_decomposition(p: list[int]) -> list[tuple[int, list[int]]]:
    """Yun's algorithm for monic p: returns [(multiplicity, factor), ...]
    with p = prod factor^multiplicity, factors monic, squarefree, pairwise
    coprime, and only nonconstant factors listed."""
    p = trim(list(p))
    if not p or p[-1] != 1:
        raise ValueError("squarefree decomposition expects a monic input")
    if degree(p) == 0:
        return []
    dp = derivative(p)
    g = gcd_int(p, dp)
    if g[-1] != 1:
        raise ValueError("gcd of a monic polynomial is not monic")
    out: list[tuple[int, list[int]]] = []
    c = div_exact_monic(p, g)
    d = [x - y for x, y in _padded(div_exact_monic(dp, g), derivative(c))]
    i = 1
    while degree(c) > 0:
        a = gcd_int(c, trim(d))
        if degree(a) > 0:
            out.append((i, a))
        c = div_exact_monic(c, a)
        d = [x - y for x, y in _padded(div_exact_monic(trim(d), a), derivative(c))]
        i += 1
    return out


def _padded(a: list[int], b: list[int]):
    m = max(len(a), len(b))
    return zip(a + [0] * (m - len(a)), b + [0] * (m - len(b)))


def eval_at_int(p: list[int], x: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc
