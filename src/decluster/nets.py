"""Digital point sets in [0,1)^d with exact base-b balance checking.

A point set with b^m points is *balanced at level t* if every base-b
box-shaped interval of volume b^(t-m) (an "elementary interval") holds
exactly b^t points.  Point coordinates are carried as digit vectors, most
significant digit first, so every membership test is pure integer
arithmetic -- no floats anywhere.

Construction is by generator matrices over GF(q): coordinate j of point k
is C_j times the base-q digit vector of k.  Composite bases are assembled
digit-by-digit from coprime prime-power components via the Chinese
remainder theorem.  Every constructor checks the balance property before
returning and refuses to hand out a defective point set: generator nets by
the rank of their matrices (``rank_gate``), residue compositions by counting
points in every elementary interval (``verify_net``).

The scheme path needs only a net's anchor map (which axis-1 cell holds the
one point on each line) and builds no point set: for a generator net it is
the linear map A = C_1[:k] B^-1 of ``generator_anchor``, read off the
matrices after the rank gate, and for a residue composition the digitwise
CRT join of its components' maps (``crt_anchor``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import NetConstructionError, ParameterError, SchemeFormatError
from .gf import PrimePowerField, field_for_order, field_from_dict


@dataclass(frozen=True)
class NetParams:
    """Shape of a digital point set: base, digit count, dimension, level."""

    b: int
    m: int
    d: int
    t: int = 0

    def __post_init__(self):
        if self.b < 2:
            raise ParameterError(f"base b={self.b} must be >= 2")
        if self.m < 0:
            raise ParameterError(f"digit count m={self.m} must be >= 0")
        if self.d < 1:
            raise ParameterError(f"dimension d={self.d} must be >= 1")
        if not 0 <= self.t <= self.m:
            raise ParameterError(f"level t={self.t} must lie in [0, m]")

    @property
    def n_points(self) -> int:
        return self.b**self.m


@dataclass(frozen=True)
class ElementaryInterval:
    """Axis-aligned base-b interval: per axis [a * b^-l, (a+1) * b^-l)."""

    levels: tuple[int, ...]
    offsets: tuple[int, ...]

    def __post_init__(self):
        if len(self.levels) != len(self.offsets):
            raise ParameterError("levels and offsets must have equal length")
        if any(l < 0 for l in self.levels):
            raise ParameterError("levels must be >= 0")


@dataclass(frozen=True)
class GeneratorSet:
    """Per-coordinate m-by-m generator matrices over one finite field."""

    field: PrimePowerField
    m: int
    d: int
    matrices: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        if self.d < 1:
            raise ParameterError(f"dimension d={self.d} must be >= 1")
        if self.d > self.field.q + 1:
            raise ParameterError(
                f"d={self.d} > q+1={self.field.q + 1}: at most q+1 coordinates "
                f"are supported over GF({self.field.q})"
            )
        if len(self.matrices) != self.d:
            raise ParameterError("need exactly one matrix per coordinate")
        for mat in self.matrices:
            if len(mat) != self.m or any(len(row) != self.m for row in mat):
                raise ParameterError("generator matrices must be m x m")

    def expanded(self) -> np.ndarray:
        """The d matrices written over Z_p (``PrimePowerField.expand``), shape (d, m e, m e)."""
        return self.field.expand(np.reshape(self.matrices, (self.d, self.m, self.m)))

    def as_dict(self) -> dict:
        """The provenance record of the net these matrices generate."""
        return {
            "kind": "generators",
            "field": self.field.as_dict(),
            "matrices": [[list(row) for row in mat] for mat in self.matrices],
        }


@dataclass(frozen=True, eq=False)
class DigitalNet:
    """A digital point set: digits[k, i, r] is digit r of coordinate i of point k.

    Digits are most significant first, so coordinate i of point k has value
    sum(digits[k, i, r] * b**-(r+1) for r in range(m)).
    """

    params: NetParams
    digits: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        expected = (self.params.n_points, self.params.d, self.params.m)
        if self.digits.shape != expected:
            raise ParameterError(
                f"digit array has shape {self.digits.shape}, expected {expected}"
            )

    @property
    def n_points(self) -> int:
        return self.params.n_points

    def coord_ints(self, length: int | None = None) -> np.ndarray:
        """Per-axis digit-prefix integers, shape (n, d).

        With ``length=l`` the first l digits of each coordinate are read as a
        base-b integer; default is all m digits (the exact coordinate value
        scaled by b^m).
        """
        m = self.params.m
        length = m if length is None else length
        if not 0 <= length <= m:
            raise ParameterError(f"prefix length {length} not in [0, {m}]")
        out = np.zeros(self.digits.shape[:2], dtype=np.int64)
        for r in range(length):
            out = out * self.params.b + self.digits[:, :, r]
        return out


@dataclass(frozen=True)
class NetCheck:
    """Outcome of a balance check; the first violation, if any, in scan order."""

    ok: bool
    t: int
    intervals_checked: int
    expected_points: int
    violation: ElementaryInterval | None = None
    found_points: int | None = None


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All vectors of `parts` nonnegative ints summing to `total`, ascending lex."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def verify_net(net: DigitalNet, t: int | None = None) -> NetCheck:
    """Check that every elementary interval with level sum m-t holds b^t points.

    Exact integer digit-prefix counting throughout.  On failure the report
    carries the first offending interval in (levels, offsets) order, which
    does not depend on any evaluation schedule.
    """
    params = net.params
    t = params.t if t is None else t
    if not 0 <= t <= params.m:
        raise ParameterError(f"level t={t} must lie in [0, m={params.m}]")
    b, m, d = params.b, params.m, params.d
    s = m - t
    expected = b**t
    # prefix[i][l][k]: the first l digits of coordinate i of point k, as an int.
    prefix = []
    for i in range(d):
        per_level = [np.zeros(net.n_points, dtype=np.int64)]
        for l in range(1, s + 1):
            per_level.append(per_level[-1] * b + net.digits[:, i, l - 1].astype(np.int64))
        prefix.append(per_level)
    n_checked = 0
    for levels in _compositions(s, d):
        key = prefix[0][levels[0]]
        for i in range(1, d):
            if levels[i]:
                key = key * (b ** levels[i]) + prefix[i][levels[i]]
        counts = np.bincount(key, minlength=b**s)
        n_checked += b**s
        if counts.min() != expected or counts.max() != expected:
            bad = int(np.argmax(counts != expected))
            offsets = []
            rem = bad
            for l in reversed(levels):
                offsets.append(rem % b**l)
                rem //= b**l
            interval = ElementaryInterval(levels=levels, offsets=tuple(reversed(offsets)))
            return NetCheck(
                ok=False,
                t=t,
                intervals_checked=n_checked,
                expected_points=expected,
                violation=interval,
                found_points=int(counts[bad]),
            )
    return NetCheck(ok=True, t=t, intervals_checked=n_checked, expected_points=expected)


def pascal_power_generators(q: int, d: int, m: int) -> GeneratorSet:
    """Upper-triangular binomial-power generator matrices over GF(q).

    Matrix j (1-indexed) has entries binom(c, r) * alpha_j^(c-r) for r <= c,
    where alpha_j is the j-th field element in index order (alpha_1 = 0, so
    the first matrix is the identity).  When d == q+1 the last coordinate
    uses the anti-diagonal reversal matrix instead.
    """
    fld = field_for_order(q)
    if d < 1:
        raise ParameterError(f"dimension d={d} must be >= 1")
    if d > q + 1:
        raise ParameterError(
            f"d={d} > q+1={q + 1}: at most q+1 coordinates are supported over GF({q})"
        )
    p = fld.p
    matrices = []
    for j in range(1, min(d, q) + 1):
        alpha = j - 1  # field element with index j-1
        mat = [[0] * m for _ in range(m)]
        for r in range(m):
            for c in range(r, m):
                binom = math.comb(c, r) % p
                mat[r][c] = fld.mul(binom, fld.pow(alpha, c - r)) if c > r else binom
        matrices.append(tuple(tuple(row) for row in mat))
    if d == q + 1:
        rev = [[0] * m for _ in range(m)]
        for r in range(m):
            rev[r][m - 1 - r] = 1
        matrices.append(tuple(tuple(row) for row in rev))
    return GeneratorSet(field=fld, m=m, d=d, matrices=tuple(matrices))


# Bytes of one stack of matrices that ``rank_gate`` eliminates at a time.
_GATE_CHUNK_BYTES = 1 << 24


def _invertible_mod_p(stack: np.ndarray, p: int) -> np.ndarray:
    """Which matrices of ``stack`` (k, n, n), entries in [0, p), are invertible mod p.

    Batched fraction-free Gaussian elimination: each step swaps a nonzero
    pivot up and replaces every lower row r by pivot * r - r[c] * pivot row,
    which keeps the rank and needs no inverses.  Products stay below p^2.
    A matrix with no nonzero pivot left in some column is singular; its
    later steps run on but decide nothing.
    """
    k, n, _ = stack.shape
    every = np.arange(k)
    ok = np.ones(k, dtype=bool)
    for c in range(n):
        nonzero = stack[:, c:, c] != 0
        ok &= nonzero.any(axis=1)
        if not ok.any():
            break
        pivot = c + nonzero.argmax(axis=1)
        top = stack[every, pivot, c:]
        stack[every, pivot, c:] = stack[:, c, c:]
        stack[:, c, c:] = top
        below = stack[:, c + 1 :, c:]
        stack[:, c + 1 :, c:] = (
            below * top[:, None, :1] - below[:, :, :1] * top[:, None, :]
        ) % p
    return ok


def _first_singular_composition(gens: GeneratorSet, expanded: np.ndarray) -> tuple[int, ...] | None:
    """The first (l_1, ..., l_d) in ``_compositions`` order that the rank criterion refuses.

    For each composition of m the first l_j rows of each C_j are stacked
    into one square matrix; ``None`` when every one of them is invertible.
    The C(m+d-1, d-1) matrices are written over Z_p (``expanded``, from
    ``GeneratorSet.expanded``) and eliminated together, a bounded number of
    bytes at a time.
    """
    fld = gens.field
    p, e, m, d = fld.p, fld.e, gens.m, gens.d
    if m == 0:
        return None
    n = m * e
    rows = expanded.reshape(d * n, n)
    levels = np.array(list(_compositions(m, d)), dtype=np.int64)  # (k, d)
    # Row s < m of the matrix for one composition is row s - start_j of the
    # C_j whose block [start_j, end_j) holds s; over Z_p it is e rows.
    ends = np.cumsum(levels, axis=1)
    s = np.arange(m)
    owner = (s[None, :, None] >= ends[:, None, :]).sum(axis=2)  # (k, m)
    local = s - np.take_along_axis(ends - levels, owner, axis=1)
    pick = ((owner * n + local * e)[:, :, None] + np.arange(e)).reshape(len(levels), n)
    chunk = max(1, _GATE_CHUNK_BYTES // (8 * n * n))
    for lo in range(0, len(pick), chunk):
        ok = _invertible_mod_p(rows[pick[lo : lo + chunk]], p)
        if not ok.all():
            return tuple(levels[lo + int(np.argmin(ok))].tolist())
    return None


def rank_gate(gens: GeneratorSet) -> bool:
    """Whether the generator matrices give a point set balanced at t=0.

    By the rank criterion (Niederreiter 1992, ch. 4; Dick & Pillichshammer
    2010, ch. 4): the net is balanced iff for every (l_1, ..., l_d) with sum
    m, the first l_j rows of each C_j together are linearly independent over
    GF(q) (``_first_singular_composition``).  Agrees with
    ``verify_net(net, 0).ok`` on the net ``net_from_generators`` builds,
    without counting its points.
    """
    return _first_singular_composition(gens, gens.expanded()) is None


def base_exponent(M: int, b: int) -> int:
    """The k >= 1 with b^k = M; ParameterError if there is none."""
    k, power = 0, 1
    while power < M:
        power *= b
        k += 1
    if power != M or k == 0:
        raise ParameterError(f"M={M} is not a positive power of the point-set base b={b}")
    return k


def _right_divide_mod_p(lhs: np.ndarray, rhs: np.ndarray, p: int) -> np.ndarray:
    """The X with X @ rhs = lhs mod p, for rhs invertible mod p.

    Gauss-Jordan on [rhs^T | lhs^T]: once the left block is the identity,
    the right block is X^T.  Products stay below p^2.
    """
    n = len(rhs)
    aug = np.concatenate((rhs.T, lhs.T), axis=1) % p
    for c in range(n):
        pivot = c + int(np.flatnonzero(aug[c:, c])[0])
        aug[[c, pivot]] = aug[[pivot, c]]
        aug[c] = aug[c] * pow(int(aug[c, c]), -1, p) % p
        factors = aug[:, c].copy()
        factors[c] = 0
        aug = (aug - factors[:, None] * aug[c]) % p
    return aug[:, n:].T


def generator_anchor(gens: GeneratorSet, M: int) -> np.ndarray:
    """The anchor map of the net the generators define, read off the matrices.

    With M = q^k and m = k(d-1), the line of rank r has the base-q digits
    y = (first k digits of x_2, ..., first k digits of x_d), most
    significant first; these are B a for B = [C_2[:k]; ...; C_d[:k]] and the
    index digits a of the one net point on the line.  The rank criterion's
    composition (0, k, ..., k) makes B invertible, so that point's first k
    digits of x_1 are A y with A = C_1[:k] B^-1, one k-by-m map: the anchor
    of line r is A y read as a base-q integer, plus 1.  Over GF(p^e) A is
    solved on the expansions over Z_p (``PrimePowerField.expand``); y's
    coefficients are then the base-p digits of r and A y's are those of the
    anchor.  A is applied to every y at once by ``PrimePowerField.map_all``,
    O(k e) work per line, and no point of the net is built.

    Returns the flat 1-based int64 anchor array, row-major in (x_2, ..., x_d)
    as ``LatinColoring`` takes it.  Raises ParameterError if M is not a
    positive power of q or m != k(d-1), and NetConstructionError naming the
    first composition the rank criterion refuses.
    """
    fld = gens.field
    p, e, q, m, d = fld.p, fld.e, fld.q, gens.m, gens.d
    k = base_exponent(M, q)
    if m != k * (d - 1):
        raise ParameterError(
            f"point set has m={m} digits per coordinate, need k*(d-1) = {k * (d - 1)}"
        )
    expanded = gens.expanded()
    levels = _first_singular_composition(gens, expanded)
    if levels is not None:
        raise NetConstructionError(
            f"generator matrices over GF({q}) fail the rank criterion: the first "
            f"l_j rows of each C_j for (l_1..l_d) = {levels} are linearly dependent"
        )
    lead = expanded[:, : k * e]  # first k rows of each C_j over Z_p
    A = _right_divide_mod_p(lead[0], lead[1:].reshape(m * e, m * e), p)  # (k e, m e)
    weights = (q ** np.arange(k - 1, -1, -1)[:, None] * p ** np.arange(e)).reshape(-1)
    return 1 + fld.map_all(A, m, weights)


def crt_anchor(components: Sequence[GeneratorSet], M: int) -> np.ndarray:
    """The anchor map of ``crt_compose`` of generator nets, read off their matrices.

    For pairwise coprime orders q_i, b = prod q_i and M = b^k: a composed
    point's base-b digits are the digitwise CRT join of its components'.
    So on the line whose first k digits of x_2..x_d are y, component i's
    point is on the line y mod q_i (digitwise), and the anchor's digits are
    sum_i w_i * digit_i mod b over the components' anchor digits there
    (``generator_anchor``).  The composition of (0, m, d)-nets in coprime
    bases is a (0, m, d)-net (Niederreiter 1987, Monatsh. Math. 104), so
    no point is built or counted.  The components must share d.  Returns
    the flat 1-based int64 anchor array; raises ParameterError on orders
    that are not pairwise coprime or M not a power of b, and a refused
    component's NetConstructionError, which names its GF(q_i).
    """
    bases = [gens.field.q for gens in components]
    weights = _crt_weights(bases)
    b, d = math.prod(bases), components[0].d
    k = base_exponent(M, b)
    if len(components) == 1:
        return generator_anchor(components[0], M)
    n, powers = k * (d - 1), np.arange(k - 1, -1, -1)
    joined = np.zeros((b**n, k), dtype=np.int64)  # digits of x_1, most significant first
    for gens, q, weight in zip(components, bases, weights):
        local = generator_anchor(gens, q**k) - 1
        share = local[:, None] // q**powers % q * weight  # by component line rank
        rank = np.zeros(1, dtype=np.int64)
        for place in range(n):  # least significant digit first, each new digit the slowest axis
            rank = np.add.outer(np.arange(b) % q * q**place, rank).reshape(-1)
        joined += share[rank]
    return (joined % b) @ b**powers + 1


def net_from_generators(gens: GeneratorSet) -> DigitalNet:
    """Digital point set from generator matrices, balance-checked at t=0.

    Point k's index digits (least significant first) are multiplied by each
    coordinate's matrix over GF(q); the resulting digit vector is the
    coordinate, most significant digit first.  Digit r of coordinate j is
    one ``map_all`` of row r of C_j over Z_p.  The balance check is
    ``rank_gate``; a refused set raises NetConstructionError carrying the
    first unbalanced interval of ``verify_net``.
    """
    fld = gens.field
    p, e, q, m, d = fld.p, fld.e, fld.q, gens.m, gens.d
    # column block c of C_j acts on index digit c of weight q^c; reversed, the
    # blocks run most significant first, as map_all reads a vector's rank
    rows = gens.expanded().reshape(d, m, e, m, e)[:, :, :, ::-1]
    rows = rows.reshape(d, m, e, m * e)
    weights = p ** np.arange(e)
    digits = np.zeros((q**m, d, m), dtype=np.int64)
    for j in range(d):
        for r in range(m):
            digits[:, j, r] = fld.map_all(rows[j, r], m, weights)
    net = DigitalNet(
        params=NetParams(b=q, m=m, d=d, t=0), digits=digits, provenance=gens.as_dict()
    )
    if rank_gate(gens):
        return net
    # Refused: count the points already built to name the first bad interval.
    check = verify_net(net, 0)
    if check.ok:
        raise NetConstructionError(
            f"generator matrices over GF({q}) fail the rank gate, yet every elementary "
            "interval holds its points; refusing the point set"
        )
    raise NetConstructionError(
        f"generator matrices over GF({q}) produced an unbalanced point set: "
        f"interval levels={check.violation.levels} offsets={check.violation.offsets} "
        f"holds {check.found_points} points, expected {check.expected_points}",
        interval=check.violation,
        found=check.found_points,
        expected=check.expected_points,
    )


def _crt_weights(bases: Sequence[int]) -> list[int]:
    """The w_i with v = sum((v mod q_i) * w_i) mod b, for pairwise coprime q_i and b = prod q_i."""
    b = math.prod(bases)
    if math.lcm(*bases) != b:
        raise ParameterError(f"component bases {bases} are not pairwise coprime")
    return [b // q * pow(b // q, -1, q) for q in bases]


def crt_compose(components: Sequence[DigitalNet], b: int) -> DigitalNet:
    """Assemble a base-b point set from coprime prime-power components.

    All components must share m and d, their bases must be pairwise coprime
    with product b, and each must be balanced at t=0.  Index digits and
    output digits correspond componentwise under the residue bijection
    Z_b = Z_q1 x ... x Z_qu, applied digit by digit.  A single component is
    passed through unchanged.
    """
    return crt_compose_counted(components, b)[0]


def crt_compose_counted(
    components: Sequence[DigitalNet], b: int
) -> tuple[DigitalNet, NetCheck | None]:
    """``crt_compose``, and its count of the composed net's points at t=0.

    A composition of two or more components is counted by ``verify_net``
    and refused with NetConstructionError unless it is balanced, so a
    component that is not balanced never yields a net stamped t=0; the
    passing check is returned for reuse.  A single component is passed
    through uncounted (None).
    """
    if not components:
        raise ParameterError("need at least one component")
    bases = [c.params.b for c in components]
    m, d = components[0].params.m, components[0].params.d
    for c in components:
        if (c.params.m, c.params.d) != (m, d):
            raise ParameterError("components must share m and d")
    prod = math.prod(bases)
    if prod != b:
        raise ParameterError(f"component bases {bases} multiply to {prod}, not {b}")
    weights = _crt_weights(bases)
    if len(components) == 1:
        return components[0], None

    n = b**m
    ks = np.arange(n, dtype=np.int64)
    idx_digits = (ks[:, None] // b ** np.arange(m, dtype=np.int64)) % b  # (n, m), LSF
    out = np.zeros((n, d, m), dtype=np.int64)
    for comp, qi, wi in zip(components, bases, weights):
        comp_index = ((idx_digits % qi) * qi ** np.arange(m, dtype=np.int64)).sum(axis=1)
        out += comp.digits[comp_index] * wi
    out %= b
    provenance = {
        "kind": "crt",
        "components": [
            {"b": c.params.b, **c.provenance} for c in components
        ],
    }
    net = DigitalNet(params=NetParams(b=b, m=m, d=d, t=0), digits=out, provenance=provenance)
    check = verify_net(net, 0)
    if not check.ok:
        raise NetConstructionError(
            f"residue composition to base {b} produced an unbalanced point set: "
            f"interval levels={check.violation.levels} offsets={check.violation.offsets} "
            f"holds {check.found_points} points, expected {check.expected_points}",
            interval=check.violation,
            found=check.found_points,
            expected=check.expected_points,
        )
    return net, check


# ---------------------------------------------------------------------------
# Serialization


def save_net(net: DigitalNet, path) -> None:
    """Write the net's parameters, digits and provenance as JSON, for people to read.

    The package reads no net file: a scheme carries its own provenance.
    """
    record = {
        "b": net.params.b,
        "m": net.params.m,
        "d": net.params.d,
        "t": net.params.t,
        "points": net.digits.tolist(),
        "provenance": net.provenance,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _int_lists(value, depth: int) -> bool:
    """Whether ``value`` is a list nested ``depth`` deep with integer leaves.

    Booleans are not integers here, though Python counts them as ints.
    """
    if depth == 0:
        return type(value) is int
    return isinstance(value, list) and all(_int_lists(v, depth - 1) for v in value)


def check_net_provenance(record, b: int, m: int, d: int) -> None:
    """Refuse a provenance record that is not a base-b, m-digit, d-dim net.

    Records read from files are untrusted; this walks the whole record and
    holds every size in it to (b, m, d), so a malformed or oversized one
    raises SchemeFormatError before any field or point set is built.
    """
    if not isinstance(record, dict):
        raise SchemeFormatError(f"provenance net must be an object, got {record!r}")
    kind = record.get("kind")
    if kind == "generators":
        fld = record.get("field")
        if not isinstance(fld, dict):
            raise SchemeFormatError("provenance generators record needs a 'field' object")
        p, e = fld.get("p"), fld.get("e")
        if not (type(p) is int and type(e) is int and 1 <= e <= b.bit_length()
                and p**e == b):
            raise SchemeFormatError(f"provenance field p={p!r}, e={e!r} does not have {b} elements")
        modulus = fld.get("modulus")
        if not (_int_lists(modulus, 1) and len(modulus) == e + 1):
            raise SchemeFormatError(
                f"provenance field needs 'modulus' as {e + 1} integer coefficients, got {modulus!r}"
            )
        mats = record.get("matrices")
        if not _int_lists(mats, 3):
            raise SchemeFormatError(
                "provenance generators record needs 'matrices' as lists of integer rows"
            )
        if len(mats) != d or any(len(mat) != m or any(len(row) != m for row in mat)
                                 for mat in mats):
            raise SchemeFormatError(f"provenance generators record needs {d} matrices of {m}x{m}")
        if not all(0 <= v < b for mat in mats for row in mat for v in row):
            raise SchemeFormatError(f"provenance generator entries must lie in [0, {b})")
    elif kind == "crt":
        components = record.get("components")
        if not isinstance(components, list) or not components:
            raise SchemeFormatError("provenance crt record needs a nonempty 'components' list")
        bases = [c.get("b") if isinstance(c, dict) else None for c in components]
        # every base is >= 2, so more than log2(b) of them cannot multiply to b
        if (len(bases) > b.bit_length()
                or not all(type(cb) is int and cb >= 2 for cb in bases)
                or math.prod(bases) != b):
            raise SchemeFormatError(f"provenance crt bases {bases!r} do not multiply to {b}")
        if math.lcm(*bases) != b:
            raise SchemeFormatError(f"provenance crt bases {bases!r} are not pairwise coprime")
        for component, cb in zip(components, bases):
            if component.get("kind") != "generators":
                raise SchemeFormatError(
                    f"provenance crt component of kind {component.get('kind')!r} is not a "
                    "generators record"
                )
            check_net_provenance(component, cb, m, d)
    else:
        raise SchemeFormatError(f"cannot regenerate a net from provenance kind {kind!r}")


def generators_from_dict(record: dict) -> GeneratorSet:
    """The generator matrices of a ``generators`` provenance record."""
    fld = field_from_dict(record["field"])
    mats = tuple(tuple(tuple(int(v) for v in row) for row in mat) for mat in record["matrices"])
    m = len(mats[0]) if mats else 0
    return GeneratorSet(field=fld, m=m, d=len(mats), matrices=mats)
