"""Field arithmetic: worked values, algebraic laws, and the vectorized product."""

import itertools
import random

import numpy as np
import pytest

from decluster.errors import ParameterError
from decluster.gf import (
    PrimePowerField,
    field_for,
    field_for_order,
    field_from_dict,
    find_irreducible,
    is_prime,
    prime_power_decompose,
)

PRIME_POWERS_256 = [
    q for q in range(2, 257) if prime_power_decompose(q) is not None
]


def brute_force_irreducible(p, e):
    """All monic degree-e polynomials with no monic factor of degree 1..e-1."""
    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
        return tuple(out)

    monics = {
        k: [
            tuple(c) + (1,)
            for c in itertools.product(range(p), repeat=k)
        ]
        for k in range(1, e)
    }
    products = set()
    for k in range(1, e // 2 + 1):
        for f in monics[k]:
            for g in monics[e - k]:
                products.add(poly_mul(f, g))
    return [
        tuple(c) + (1,)
        for c in itertools.product(range(p), repeat=e)
        if tuple(c) + (1,) not in products
    ]


def test_is_prime_small():
    primes = [n for n in range(2, 100) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                      53, 59, 61, 67, 71, 73, 79, 83, 89, 97]
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(2**31 - 1)  # Mersenne
    assert not is_prime(2**32 + 1)


def test_prime_power_decompose():
    assert prime_power_decompose(8) == (2, 3)
    assert prime_power_decompose(9) == (3, 2)
    assert prime_power_decompose(7) == (7, 1)
    assert prime_power_decompose(12) is None
    assert prime_power_decompose(1) is None


def test_find_irreducible_worked_values():
    assert find_irreducible(3, 1) == (0, 1)  # the polynomial x
    assert find_irreducible(2, 2) == (1, 1, 1)  # x^2 + x + 1
    assert find_irreducible(3, 2) == (1, 0, 1)  # x^2 + 1


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_find_irreducible_is_minimal_and_irreducible(p, e):
    opts = brute_force_irreducible(p, e)
    assert opts, "field extensions always have irreducible polynomials"
    chosen = find_irreducible(p, e)
    assert chosen in opts
    # minimal integer encoding of the non-leading coefficients
    def enc(poly):
        return sum(c * p**j for j, c in enumerate(poly[:-1]))
    assert enc(chosen) == min(enc(o) for o in opts)


def test_find_irreducible_rejects_composite_p():
    with pytest.raises(ParameterError):
        find_irreducible(4, 2)
    with pytest.raises(ParameterError):
        find_irreducible(2, 0)


def test_gf4_worked_values():
    f = field_for(2, 2)
    x = f.from_coeffs((0, 1))
    x_plus_1 = f.from_coeffs((1, 1))
    assert x == 2 and x_plus_1 == 3
    assert f.mul(x, x) == x_plus_1
    assert f.inv(x_plus_1) == x
    for a in range(4):
        assert f.mul(a, 1) == a


def test_gf9_modulus_and_squares():
    f = field_for(3, 2)
    assert f.modulus == (1, 0, 1)
    x = f.from_coeffs((0, 1))
    # x^2 = -1 = 2 (mod x^2+1)
    assert f.mul(x, x) == f.from_coeffs((2, 0))


def test_element_index_bijection():
    for q in (2, 3, 4, 8, 9, 25, 27):
        f = field_for_order(q)
        for i in range(q):
            assert f.from_coeffs(f.coeffs(i)) == i


def test_inverse_of_zero_raises():
    f = field_for(2, 2)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ParameterError):
        f.mul(1, 4)  # out of range
    with pytest.raises(ParameterError):
        f.mul(1, -1)


@pytest.mark.parametrize("q", [q for q in PRIME_POWERS_256 if q <= 64])
def test_field_laws_pairs_exhaustive(q):
    f = field_for_order(q)
    for a in range(q):
        for b in range(q):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.sub(f.add(a, b), b) == a
            if b != 0:
                assert f.mul(f.mul(a, b), f.inv(b)) == a


@pytest.mark.parametrize("q", [q for q in PRIME_POWERS_256 if q <= 64])
def test_field_laws_triples(q):
    f = field_for_order(q)
    if q <= 16:
        triples = itertools.product(range(q), repeat=3)
    else:
        rng = random.Random(q)
        triples = (
            (rng.randrange(q), rng.randrange(q), rng.randrange(q))
            for _ in range(1000)
        )
    for a, b, c in triples:
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", PRIME_POWERS_256)
def test_fermat_little(q):
    f = field_for_order(q)
    for a in range(1, q):
        assert f.pow(a, q - 1) == 1


@pytest.mark.parametrize("q", [q for q in PRIME_POWERS_256 if q <= 64])
def test_frobenius(q):
    f = field_for_order(q)
    p = f.p
    for a in range(q):
        for b in range(q):
            assert f.pow(f.add(a, b), p) == f.add(f.pow(a, p), f.pow(b, p))


def test_pow_negative_exponent():
    f = field_for(3, 2)
    for a in range(1, 9):
        assert f.mul(f.pow(a, -1), a) == 1
        assert f.pow(a, -2) == f.inv(f.mul(a, a))


def test_field_product_matches_polynomial_arithmetic():
    # matvec rows and the scalar methods agree with the raw polynomial routines
    for q in (4, 8, 9, 16, 27, 256, 343, 512):
        f = field_for_order(q)
        elements = np.arange(q)[:, None]
        rng = random.Random(q)
        rows = range(q) if q <= 27 else [0, 1, q - 1, *rng.sample(range(2, q - 1), 24)]
        for a in rows:
            products = f.matvec([[a]], elements)[:, 0]
            sums = f.matvec([[1, 1]], np.hstack([np.full_like(elements, a), elements]))[:, 0]
            for b in range(q):
                assert products[b] == f.mul(a, b) == f._poly_mul(a, b)
                assert sums[b] == f.add(a, b) == f._poly_add(a, b)
        for a in range(1, q):
            a_inv = f.inv(a)
            assert f.mul(a, a_inv) == 1
            assert f.matvec([[a_inv]], [[a]])[0, 0] == 1


@pytest.mark.parametrize(
    "q", [q for q in range(2, 1025) if prime_power_decompose(q) is not None]
)
def test_matvec_matches_scalar_triple_loop(q):
    f = field_for_order(q)
    rng = np.random.default_rng(q)
    for m in range(5):
        mat = rng.integers(0, q, size=(m, m))
        mat[rng.random((m, m)) < 0.3] = 0
        mat[: m // 2, :1] = 0  # some rows always hold a zero
        vecs = rng.integers(0, q, size=(16, m))
        vecs[0] = 0
        got = f.matvec(mat, vecs)
        assert got.shape == (16, m)
        for k in range(16):
            for r in range(m):
                acc = 0
                for c in range(m):
                    acc = f.add(acc, f.mul(int(mat[r, c]), int(vecs[k, c])))
                assert got[k, r] == acc, (m, k, r)


def test_field_for_order_rejects_non_prime_power():
    with pytest.raises(ParameterError):
        field_for_order(6)
    with pytest.raises(ParameterError):
        field_for_order(1)


def test_field_serialization_roundtrip():
    f = field_for(3, 2)
    d = f.as_dict()
    assert d == {"p": 3, "e": 2, "modulus": [1, 0, 1]}
    g = field_from_dict(d)
    assert g == f
    with pytest.raises(ParameterError):
        field_from_dict({"p": 3})
    with pytest.raises(ParameterError):
        PrimePowerField(3, 2, modulus=(0, 0, 1))  # x^2 is reducible
    with pytest.raises(ParameterError):
        PrimePowerField(3, 2, modulus=(1, 0, 2))  # not monic


def test_shared_instances_are_cached():
    assert field_for(2, 2) is field_for(2, 2)
    assert field_for_order(8) is field_for(2, 3)
