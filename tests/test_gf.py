"""Field arithmetic: worked values, algebraic laws, and the Z_p expansion and kernel."""

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


def encode(f, coeffs):
    """The element with these coefficients, lowest degree first."""
    return sum(c * f.p**j for j, c in enumerate(coeffs))


def coeffs(f, a):
    """The coefficients of element a, lowest degree first: its base-p digits."""
    return tuple(a // f.p**j % f.p for j in range(f.e))


def add(f, a, b):
    """Field addition, coefficient by coefficient mod p."""
    return encode(f, [(x + y) % f.p for x, y in zip(coeffs(f, a), coeffs(f, b))])


def inv(f, a):
    """a^(q-2), the inverse of a nonzero a by Fermat's little theorem."""
    return f.pow(a, f.q - 2)


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
    x = encode(f, (0, 1))
    x_plus_1 = encode(f, (1, 1))
    assert x == 2 and x_plus_1 == 3
    assert f.mul(x, x) == x_plus_1
    assert f.mul(x, x_plus_1) == 1
    assert inv(f, x_plus_1) == x
    for a in range(4):
        assert f.mul(a, 1) == a


def test_gf9_modulus_and_squares():
    f = field_for(3, 2)
    assert f.modulus == (1, 0, 1)
    x = encode(f, (0, 1))
    # x^2 = -1 = 2 (mod x^2+1)
    assert f.mul(x, x) == encode(f, (2, 0))


def test_element_index_bijection():
    for q in (2, 3, 4, 8, 9, 25, 27):
        f = field_for_order(q)
        for i in range(q):
            assert encode(f, coeffs(f, i)) == i


def test_mul_rejects_non_elements():
    f = field_for(2, 2)
    with pytest.raises(ParameterError):
        f.mul(1, 4)  # out of range
    with pytest.raises(ParameterError):
        f.mul(1, -1)


@pytest.mark.parametrize("q", [q for q in PRIME_POWERS_256 if q <= 64])
def test_field_laws_pairs_exhaustive(q):
    f = field_for_order(q)
    for a in range(q):
        for b in range(q):
            assert f.mul(a, b) == f.mul(b, a)
            if b != 0:
                assert f.mul(f.mul(a, b), inv(f, b)) == a


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
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, add(f, b, c)) == add(f, f.mul(a, b), f.mul(a, c))


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
            assert f.pow(add(f, a, b), p) == add(f, f.pow(a, p), f.pow(b, p))


def test_pow_negative_exponent():
    f = field_for(3, 2)
    for a in range(9):
        with pytest.raises(ParameterError, match="n=-1"):
            f.pow(a, -1)
    assert f.pow(5, 0) == f.pow(0, 0) == 1


PRIME_POWERS_1024 = [q for q in range(2, 1025) if prime_power_decompose(q) is not None]


def test_field_product_matches_polynomial_arithmetic():
    # expand([[c]]) is multiplication by c on coefficient vectors: applied to
    # coeffs(f, b) it gives coeffs(f, mul(c, b)), for every prime power q <= 1024
    for q in PRIME_POWERS_1024:
        f = field_for_order(q)
        rng = random.Random(q)
        sample = range(q) if q <= 16 else [0, 1, q - 1, *rng.sample(range(2, q - 1), 13)]
        vecs = np.array([coeffs(f, b) for b in sample])
        for c in sample:
            lin = f.expand([[c]])
            assert lin.shape == (f.e, f.e)
            got = vecs @ lin.T % f.p
            assert got.tolist() == [list(coeffs(f, f.mul(c, b))) for b in sample], (q, c)


@pytest.mark.parametrize("q", PRIME_POWERS_1024)
def test_matvec_matches_scalar_triple_loop(q):
    # a GF(q) matrix times every vector, as expand then map_all, against mul
    # and a coefficient-wise add; map_all's rank order reads v most
    # significant entry first, and the weights read C v the same way
    f = field_for_order(q)
    p, e = f.p, f.e
    rng = np.random.default_rng(q)
    for m in range(5):
        if q**m > 1 << 16:
            break
        mat = rng.integers(0, q, size=(m, m))
        mat[rng.random((m, m)) < 0.3] = 0
        mat[: m // 2, :1] = 0  # some rows always hold a zero
        weights = (q ** np.arange(m - 1, -1, -1)[:, None] * p ** np.arange(e)).reshape(-1)
        got = f.map_all(f.expand(mat), m, weights)
        assert got.shape == (q**m,) and got.dtype == np.int64
        for rank in {0, q**m - 1, *rng.integers(0, q**m, size=16).tolist()}:
            vec = [rank // q ** (m - 1 - c) % q for c in range(m)]
            want = 0
            for r in range(m):
                acc = 0
                for c in range(m):
                    acc = add(f, acc, f.mul(int(mat[r, c]), vec[c]))
                want = want * q + acc
            assert got[rank] == want, (m, rank)


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
