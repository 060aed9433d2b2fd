"""Exact arithmetic in small finite fields GF(p^e).

Field elements are plain integers in ``range(q)`` under the base-p
coefficient encoding: the integer ``sum(c[j] * p**j)`` stands for the
residue-class polynomial ``sum(c[j] * x**j)``.  Index 0 is the additive
and index 1 the multiplicative identity in every field.  All arithmetic
is integer-exact; floating point is never involved.

Scalar ``mul`` and ``pow`` run on the polynomial routines for every field
order, with no lookup tables.  A GF(q)-linear map has one vectorized form:
``PrimePowerField.expand`` writes its matrix over Z_p, each entry c becoming
the e-by-e matrix of multiplication by c on coefficient vectors (the regular
representation; Lidl & Niederreiter, *Finite Fields*, ch. 2), and
``PrimePowerField.map_all`` applies such a Z_p matrix to every vector of
GF(q)^n at once, by per-entry contributions joined with outer sums.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ParameterError

# Witnesses making Miller-Rabin deterministic for every n < 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for 64-bit inputs)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_power_decompose(q: int) -> tuple[int, int] | None:
    """Return ``(p, e)`` with ``q == p**e`` and p prime, or None."""
    if q < 2:
        return None
    # The prime base must divide q, so find the smallest prime factor and
    # check that q is a pure power of it.
    p = q
    for cand in range(2, min(q, 1 << 16)):
        if cand * cand > q:
            break
        if q % cand == 0:
            p = cand
            break
    if p == q:
        return (q, 1) if is_prime(q) else None
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return (p, e) if q == 1 else None


# ---------------------------------------------------------------------------
# Polynomials over Z_p, represented as tuples of coefficients, lowest first.


def _poly_divmod(num: tuple[int, ...], den: tuple[int, ...], p: int):
    num = list(num)
    dden = len(den) - 1
    lead_inv = pow(den[-1], p - 2, p) if den[-1] != 1 else 1
    for i in range(len(num) - 1, dden - 1, -1):
        coef = num[i] * lead_inv % p
        if coef:
            for j, c in enumerate(den):
                num[i - dden + j] = (num[i - dden + j] - coef * c) % p
        num[i] = coef  # quotient coefficient stored in place
    quot = tuple(num[dden:])
    rem = tuple(num[:dden])
    return quot, rem


def _poly_mulmod(a: tuple[int, ...], b: tuple[int, ...], mod: tuple[int, ...], p: int):
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    _, rem = _poly_divmod(tuple(prod), mod, p)
    return rem


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg(poly)//2."""
    deg = len(poly) - 1
    for k in range(1, deg // 2 + 1):
        for enc in range(p**k):
            div = _encoding_to_coeffs(enc, p, k) + (1,)
            _, rem = _poly_divmod(poly, div, p)
            if not any(rem):
                return False
    return True


def _encoding_to_coeffs(enc: int, p: int, length: int) -> tuple[int, ...]:
    coeffs = []
    for _ in range(length):
        coeffs.append(enc % p)
        enc //= p
    return tuple(coeffs)


def _coeffs_to_encoding(coeffs, p: int) -> int:
    enc = 0
    for c in reversed(tuple(coeffs)):
        enc = enc * p + c
    return enc


def find_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Smallest monic irreducible polynomial of degree e over Z_p.

    "Smallest" means the minimum of ``sum(c[j] * p**j)`` over the non-leading
    coefficients, which makes the choice (and everything derived from it)
    deterministic.  Returned as e+1 coefficients, lowest degree first, with
    a trailing 1.  For e == 1 this is the polynomial x.
    """
    if not is_prime(p):
        raise ParameterError(f"p={p} is not prime")
    if e < 1:
        raise ParameterError(f"extension degree e={e} must be >= 1")
    if e == 1:
        return (0, 1)
    for enc in range(p**e):
        poly = _encoding_to_coeffs(enc, p, e) + (1,)
        if _is_irreducible(poly, p):
            return poly
    raise AssertionError("unreachable: an irreducible polynomial always exists")


class PrimePowerField:
    """Arithmetic in GF(p^e) on integer-encoded elements.

    Elements are integers in ``range(q)``; the base-p digits of an element,
    lowest first, are its coefficient vector.  ``mul`` and ``pow`` are
    exact, and ``expand`` and ``map_all`` apply GF(q)-linear maps over Z_p.
    Do not mix elements of distinct fields.
    """

    def __init__(self, p: int, e: int, modulus: tuple[int, ...] | None = None):
        if not is_prime(p):
            raise ParameterError(f"p={p} is not prime")
        if e < 1:
            raise ParameterError(f"extension degree e={e} must be >= 1")
        if modulus is None:
            modulus = find_irreducible(p, e)
        else:
            modulus = tuple(int(c) for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise ParameterError("modulus must be monic of degree e")
            if not all(0 <= c < p for c in modulus[:-1]):
                raise ParameterError("modulus coefficients must lie in [0, p)")
            if e > 1 and not _is_irreducible(modulus, p):
                raise ParameterError(f"modulus {modulus} is reducible over Z_{p}")
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = modulus

    # -- representation ----------------------------------------------------

    def __repr__(self):
        return f"PrimePowerField(p={self.p}, e={self.e})"

    def __eq__(self, other):
        return (
            isinstance(other, PrimePowerField)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def _check(self, a: int) -> int:
        if not isinstance(a, (int, np.integer)) or not 0 <= a < self.q:
            raise ParameterError(f"{a!r} is not an element of GF({self.q})")
        return int(a)

    # -- scalar arithmetic ---------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        a, b = self._check(a), self._check(b)
        return self._poly_mul(a, b)

    def pow(self, a: int, n: int) -> int:
        """Square-and-multiply exponentiation, for n >= 0."""
        a = self._check(a)
        if n < 0:
            raise ParameterError(f"exponent n={n} must be >= 0")
        result = 1
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    # -- GF(q)-linear maps over Z_p -----------------------------------------

    def expand(self, mats) -> np.ndarray:
        """Matrices over GF(q) written over Z_p: shape (..., r, c) -> (..., r e, c e).

        Each entry c becomes the e-by-e matrix L_c of multiplication by c on
        coefficient vectors: column t holds the coefficients of c * x^t, so
        the expansion of C times the stacked coefficient vectors of v is the
        stack of those of C v.  c -> L_c is an injective ring homomorphism
        into commuting matrices, so the expansion of a square matrix has the
        norm of its determinant as determinant: one is invertible over Z_p
        exactly when the other is invertible over GF(q), and the expansion of
        an inverse is the inverse of the expansion.
        """
        mats = np.asarray(mats, dtype=np.int64)
        p, e = self.p, self.e
        if e == 1:
            return mats
        *lead, r, c = mats.shape
        low = np.array(self.modulus[:-1], dtype=np.int64)
        column = mats[..., None] // p ** np.arange(e) % p  # coefficients of c * x^0
        columns = [column]
        for _ in range(e - 1):
            # times x: shift every coefficient up, and x^e = -(low terms of the modulus)
            top = column[..., -1:]
            shifted = np.concatenate((np.zeros_like(top), column[..., :-1]), axis=-1)
            column = (shifted - top * low) % p
            columns.append(column)
        blocks = np.stack(columns, axis=-1)  # (..., r, c, coefficient, t)
        return np.swapaxes(blocks, -3, -2).reshape(*lead, r * e, c * e)

    def map_all(self, lin, n: int, weights) -> np.ndarray:
        """sum_o weights[o] * (row o of ``lin`` times v mod p), for every v in GF(q)^n.

        ``lin`` is a Z_p matrix of n e columns (an ``expand`` output, or a map
        solved on one) acting on the stacked coefficient vectors of v's n
        entries.  Returns the int64 array of length q^n indexed by v's rank
        sum(v_j q^(n-1-j)), the first entry most significant.  Row o is
        applied as per-entry contributions joined by outer sums, O(n) numpy
        passes over q^n values.
        """
        p, e, q = self.p, self.e, self.q
        lin = np.asarray(lin, dtype=np.int64)
        coeffs = np.arange(q)[:, None] // p ** np.arange(e) % p  # (q, e): v_j -> coefficients
        # contrib[o, j, v_j]: what entry j = v_j adds to row o, mod p; a vector
        # adds n of them, so the smallest dtype holding n(p-1) never wraps; the
        # weighted sum is taken in int64.
        dtype = np.min_scalar_type(max(1, n * (p - 1)))
        contrib = (lin.reshape(len(lin), n, e) @ coeffs.T % p).astype(dtype)
        out = np.zeros(q**n, dtype=np.int64)
        for row, weight in zip(contrib, np.asarray(weights).tolist()):
            total = np.zeros(1, dtype=dtype)
            # least significant entry first, each new entry the slowest axis: the
            # result is row-major in the rank, and numpy's inner loop stays long
            for entry in row[::-1]:
                total = np.add.outer(entry, total).reshape(-1)
            total %= p
            out += np.multiply(total, weight, dtype=np.int64)
        return out

    # -- polynomial ground truth: the only scalar path ------------------------

    def _poly_mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return a * b % self.p
        ca = _encoding_to_coeffs(a, self.p, self.e)
        cb = _encoding_to_coeffs(b, self.p, self.e)
        rem = _poly_mulmod(ca, cb, self.modulus, self.p)
        rem = rem + (0,) * (self.e - len(rem))
        return _coeffs_to_encoding(rem, self.p)

    def as_dict(self) -> dict:
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus)}


@lru_cache(maxsize=None)
def field_for(p: int, e: int) -> PrimePowerField:
    """Shared field instance for GF(p^e) with the canonical modulus."""
    return PrimePowerField(p, e)


def field_for_order(q: int) -> PrimePowerField:
    """Shared field instance for the (unique) field with q elements."""
    pe = prime_power_decompose(q)
    if pe is None:
        raise ParameterError(f"q={q} is not a prime power")
    return field_for(*pe)


def field_from_dict(data: dict) -> PrimePowerField:
    try:
        p, e = int(data["p"]), int(data["e"])
        modulus = tuple(int(c) for c in data["modulus"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"malformed field description: {data!r}") from exc
    return PrimePowerField(p, e, modulus)
