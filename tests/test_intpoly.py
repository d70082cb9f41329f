import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from neumaier import intpoly

#: the first prime gcd_int works modulo
M1 = (1 << 61) - 1


def poly_from_roots(roots):
    """Monic integer polynomial with the given integer roots (low->high)."""
    p = [1]
    for r in roots:
        # multiply by (x - r)
        p = [0] + p
        for i in range(len(p) - 1):
            p[i] -= r * p[i + 1]
    return p


def test_gcd_hand_example():
    # gcd(x^3 - 3x - 2, 3x^2 - 3) = x + 1 by hand Euclid
    p = [-2, -3, 0, 1]
    assert intpoly.gcd_int(p, intpoly.derivative(p)) == [1, 1]


def test_gcd_with_zero_and_signs():
    assert intpoly.gcd_int([], [2, 2]) == [1, 1]
    assert intpoly.gcd_int([-3, -3], []) == [1, 1]
    assert intpoly.gcd_int([], []) == []


def mul(*polys):
    acc = [1]
    for p in polys:
        nxt = [0] * (len(acc) + len(p) - 1)
        for i, a in enumerate(acc):
            for j, b in enumerate(p):
                nxt[i + j] += a * b
        acc = nxt
    return acc


def power_product(factors):
    """prod f^k over (f, k) pairs."""
    return mul(*(f for f, k in factors for _ in range(k)))


BIG = 1 << 200
#: monic factors of degree 1-3 with coefficients up to 200 bits, each with
#: a multiplicity
factor_lists = st.lists(
    st.tuples(
        st.lists(st.integers(-BIG, BIG), min_size=1, max_size=3).map(lambda c: c + [1]),
        st.integers(1, 3),
    ),
    max_size=3,
)
#: leading coefficients for a non-monic argument, with multiples of the
#: first prime among them
scales = st.one_of(
    st.integers(-BIG, BIG).filter(lambda c: c not in (0, 1)),
    st.sampled_from([M1, -M1, 3 * M1, M1 * M1, M1 * ((1 << 61) - 31)]),
)


@pytest.fixture
def moduli(monkeypatch):
    """Record the primes gcd_int runs Euclid modulo, failing at the 40th:
    every case here needs far fewer."""
    used = []
    gcd_mod = intpoly._gcd_mod

    def recording(a, b, m):
        assert len(used) < 40, "gcd_int does not converge"
        used.append(m)
        return gcd_mod(a, b, m)

    monkeypatch.setattr(intpoly, "_gcd_mod", recording)
    return used


def first_primes(k):
    return [intpoly._prime(i) for i in range(k)]


def test_prime_generator():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert all(intpoly._is_prime(n) == trial(n) for n in range(20000))
    # Carmichael numbers and strong pseudoprimes to the first few bases
    for n in (561, 41041, 825265, 2047, 3277, 4033, 3215031751,
              3825123056546413051):
        assert not intpoly._is_prime(n)
    assert intpoly._prime(0) == M1
    assert intpoly._is_prime(M1) and not intpoly._is_prime(M1 - 2)
    primes = first_primes(8)
    assert primes == sorted(primes, reverse=True) and len(set(primes)) == 8
    assert all(intpoly._is_prime(m) for m in primes)


@settings(max_examples=150, deadline=None)
@given(factor_lists, factor_lists, factor_lists)
def test_gcd_matches_prs_on_monic_products(shared, only_a, only_b):
    a = power_product(shared + only_a)
    b = power_product(shared + only_b)
    g = intpoly.gcd_int(a, b)
    assert g == oracles.prs_gcd(a, b) == intpoly.gcd_int(b, a)
    assert intpoly.degree(g) >= intpoly.degree(power_product(shared))
    da = intpoly.derivative(a)
    assert intpoly.gcd_int(a, da) == oracles.prs_gcd(a, da)


@settings(max_examples=150, deadline=None)
@given(factor_lists, factor_lists, factor_lists, scales)
def test_gcd_matches_prs_with_a_non_monic_argument(shared, only_a, only_b, scale):
    a = power_product(shared + only_a)
    b = [scale * c for c in power_product(shared + only_b)]
    g = intpoly.gcd_int(a, b)
    assert g == oracles.prs_gcd(a, b) == intpoly.gcd_int(b, a)


def test_gcd_skips_a_prime_dividing_the_leading_coefficient(moduli):
    # b vanishes modulo the first prime, so that prime must be passed over
    assert intpoly.gcd_int([3, 1], [2 * M1, M1]) == [1]
    assert moduli == [intpoly._prime(1)]
    assert intpoly.gcd_int([2, 1], [2 * M1, M1]) == [2, 1]


def test_unlucky_first_prime(moduli):
    # (x - r)(x - r - m1) is a square modulo m1, so the first image of
    # gcd(p, p') has degree 1; the second prime proves the gcd is 1
    r = 7
    p = mul([-r, 1], [-r - M1, 1])
    assert intpoly.gcd_int(p, intpoly.derivative(p)) == [1]
    assert moduli == first_primes(2)
    assert intpoly.squarefree_degree(p) == 2


def test_unlucky_at_several_primes(moduli):
    k = 6
    q = math.prod(first_primes(k))
    p = mul([-3, 1], [-3 - q, 1])
    assert intpoly.gcd_int(p, intpoly.derivative(p)) == [1]
    assert moduli == first_primes(k + 1)
    # a true gcd of degree 1 under images of degree 2: the candidate must
    # restart at the first lucky prime
    moduli.clear()
    p = mul([1, 1], [1, 1], [-3, 1], [-3 - q, 1])
    dp = intpoly.derivative(p)
    assert intpoly.gcd_int(p, dp) == oracles.prs_gcd(p, dp) == [1, 1]
    assert moduli == first_primes(k + 1)
    assert intpoly.squarefree_decomposition(p) == oracles.prs_squarefree_decomposition(p)


def test_unlucky_prime_between_lucky_ones(moduli):
    # gcd(p, p') = x - c needs two lucky primes and a negative symmetric
    # representative; the second prime is unlucky and must be left out
    # of the Chinese remaindering
    c = 1 << 100
    p = mul([-c, 1], [-c, 1], [-5, 1], [-5 - intpoly._prime(1), 1])
    dp = intpoly.derivative(p)
    assert intpoly.gcd_int(p, dp) == oracles.prs_gcd(p, dp) == [-c, 1]
    assert moduli == first_primes(3)


def test_gcd_rejects_two_non_monic_arguments():
    with pytest.raises(ValueError):
        intpoly.gcd_int([2, 2], [3, 3])
    with pytest.raises(ValueError):
        intpoly.gcd_int([1, -1], [1, 2])  # leading coefficients -1 and 2


def test_squarefree_degree_examples():
    assert intpoly.squarefree_degree([0, 0, 0, 1]) == 1  # x^3
    assert intpoly.squarefree_degree(poly_from_roots([1, 1, -2])) == 2
    assert intpoly.squarefree_degree([-2, -3, 0, 1]) == 2  # (x-2)(x+1)^2


def test_squarefree_decomposition():
    p = poly_from_roots([1, 1, 1, -2, -2, 5])
    decomp = intpoly.squarefree_decomposition(p)
    assert [(m, tuple(f)) for m, f in decomp] == [
        (1, (-5, 1)),
        (2, (2, 1)),
        (3, (-1, 1)),
    ]


def test_div_exact_monic():
    p = poly_from_roots([3, -1, 4])
    q = intpoly.div_exact_monic(p, poly_from_roots([3]))
    assert q == poly_from_roots([-1, 4])
    with pytest.raises(ValueError):
        intpoly.div_exact_monic([1, 1], [2, 2])  # non-monic divisor
    with pytest.raises(ValueError):
        intpoly.div_exact_monic([1, 1, 1], [1, 1])  # inexact


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=7))
def test_squarefree_degree_matches_distinct_roots(roots):
    p = poly_from_roots(roots)
    assert intpoly.squarefree_degree(p) == len(set(roots))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=6))
def test_yun_reconstructs_polynomial(roots):
    p = poly_from_roots(roots)
    acc = [1]
    for mult, factor in intpoly.squarefree_decomposition(p):
        for _ in range(mult):
            nxt = [0] * (len(acc) + len(factor) - 1)
            for i, a in enumerate(acc):
                for j, b in enumerate(factor):
                    nxt[i + j] += a * b
            acc = nxt
    assert acc == p


def test_eval_at_int():
    p = [-2, -3, 0, 1]
    assert intpoly.eval_at_int(p, 2) == 0
    assert intpoly.eval_at_int(p, -1) == 0
    assert intpoly.eval_at_int(p, 0) == -2
