"""Exact worst-case range-query imbalance of a colored grid.

For a coloring of [N]^d with M colors, the *deviation* of a box B in color i
is ``|B ∩ color_i| - |B| / M``.  The maximum absolute deviation over all
boxes and colors is the discrepancy ``disc``; restricting to positive
deviations gives ``disc_plus``, which is exactly the additive overshoot of
the worst range query over the best possible per-query load |B|/M.

Every deviation is an integer multiple of 1/M, so all values are carried as
integers scaled by M (``ScaledValue``) and every comparison is exact.  The
full-report scan enumerates the coordinate ranges of axes 2..d and sweeps
axis 1 with a maximum-subarray scan per color: O(M * N^(2d-1)) overall
instead of the naive O(M * N^(2d)).  Witnesses are tie-broken to the
lexicographically smallest (box lower corner, box upper corner, color), so
results do not depend on evaluation order.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Sequence

import numpy as np

from .coloring import LatinColoring, Scheme, color_grid
from .errors import BudgetExceededError, ParameterError
from .nets import DigitalNet

MAX_CELLS_ENV = "DECLUSTER_MAX_CELLS"
DEFAULT_MAX_CELLS = 10**8


def _max_cells(override: int | None) -> int:
    if override is not None:
        return int(override)
    raw = os.environ.get(MAX_CELLS_ENV)
    if raw is None:
        return DEFAULT_MAX_CELLS
    try:
        return int(raw)
    except ValueError as exc:
        raise ParameterError(f"{MAX_CELLS_ENV}={raw!r} is not an integer") from exc


def _check_budget(extent: int, d: int, M: int, max_cells: int | None) -> None:
    budget = _max_cells(max_cells)
    cells = extent**d * M
    if cells > budget:
        raise BudgetExceededError(
            f"N^d * M = {extent}^{d} * {M} = {cells} exceeds the cell budget "
            f"{budget} (raise {MAX_CELLS_ENV} or pass max_cells to override)"
        )


@dataclass(frozen=True)
class Box:
    """Axis-aligned box of grid cells, 1-indexed and inclusive on both ends.

    Either ``lo[i] <= hi[i]`` on every axis, or the canonical empty box
    (all lo = 1, all hi = 0).
    """

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        lo = tuple(int(v) for v in self.lo)
        hi = tuple(int(v) for v in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi) or not lo:
            raise ParameterError("lo and hi must be nonempty tuples of equal length")
        proper = all(1 <= a <= b for a, b in zip(lo, hi))
        empty = all(a == 1 for a in lo) and all(b == 0 for b in hi)
        if not (proper or empty):
            raise ParameterError(
                f"box {lo}..{hi} is neither proper (1 <= lo <= hi) nor the "
                "canonical empty box"
            )

    @classmethod
    def empty(cls, d: int) -> "Box":
        return cls(lo=(1,) * d, hi=(0,) * d)

    @property
    def d(self) -> int:
        return len(self.lo)

    @property
    def is_empty(self) -> bool:
        return self.hi[0] == 0

    @property
    def cardinality(self) -> int:
        if self.is_empty:
            return 0
        size = 1
        for a, b in zip(self.lo, self.hi):
            size *= b - a + 1
        return size

    def key(self) -> tuple:
        return (self.lo, self.hi)

    def within(self, extent: int) -> bool:
        return self.is_empty or all(b <= extent for b in self.hi)

    def __str__(self):
        if self.is_empty:
            return "(empty)"
        return "x".join(f"[{a}..{b}]" for a, b in zip(self.lo, self.hi))


@total_ordering
@dataclass(frozen=True)
class ScaledValue:
    """An exact rational num/den with den fixed by context (usually M)."""

    num: int
    den: int

    def __post_init__(self):
        if self.den <= 0:
            raise ParameterError(f"denominator {self.den} must be positive")

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __eq__(self, other):
        if isinstance(other, ScaledValue):
            return self.num * other.den == other.num * self.den
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, ScaledValue):
            return self.num * other.den < other.num * self.den
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __str__(self):
        return f"{self.num}/{self.den}"


class _neg:
    """Inverts comparison order: (value, _neg(key)) maximizes value, minimizes key."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return other.key < self.key

    def __gt__(self, other):
        return other.key > self.key

    def __eq__(self, other):
        return other.key == self.key


@dataclass(frozen=True)
class DiscReport:
    """Exact discrepancy figures of one coloring at one grid extent."""

    M: int
    d: int
    extent: int
    disc_plus: ScaledValue
    disc_plus_witness: tuple[Box, int]
    disc: ScaledValue | None
    disc_witness: tuple[Box, int] | None
    per_color_plus: tuple[int, ...]
    per_color_abs: tuple[int, ...] | None
    elapsed_ms: float


def _resolve_grid(source, extent: int, M: int | None):
    """Normalize the coloring source to (grid array, M, d)."""
    if extent < 1:
        raise ParameterError(f"extent={extent} must be >= 1")
    if isinstance(source, np.ndarray):
        if M is None:
            raise ParameterError("M is required when passing a raw color array")
        d = source.ndim
        if source.shape != (extent,) * d:
            raise ParameterError(
                f"color array shape {source.shape} does not match extent {extent}"
            )
        grid = source.astype(np.int64, copy=False)
        if grid.min() < 1 or grid.max() > M:
            raise ParameterError(f"colors must lie in [1, {M}]")
        return grid, int(M), d
    if isinstance(source, Scheme):
        coloring = source.coloring
        return color_grid(coloring, extent), coloring.M, coloring.d
    if isinstance(source, LatinColoring):
        return color_grid(source, extent), source.M, source.d
    raise ParameterError(f"cannot evaluate a {type(source).__name__}")


# ---------------------------------------------------------------------------
# Counting


class RangeCounter:
    """Per-color box counts over [extent]^d via d-dimensional prefix sums.

    Builds one table of M * (extent+1)^d integers once; each query then
    costs 2^d table lookups per color (inclusion-exclusion over corners).
    """

    def __init__(self, source, extent: int, *, M: int | None = None, max_cells: int | None = None):
        grid, M_, d = _resolve_grid(source, extent, M)
        _check_budget(extent, d, M_, max_cells)
        self.M = M_
        self.d = d
        self.extent = extent
        table = np.zeros((M_,) + (extent + 1,) * d, dtype=np.int64)
        inner = (slice(1, None),) * d
        for c in range(M_):
            part = (grid == c + 1).astype(np.int64)
            for axis in range(d):
                part = np.cumsum(part, axis=axis)
            table[(c,) + inner] = part
        self._table = table

    def _validate(self, box: Box) -> None:
        if box.d != self.d:
            raise ParameterError(f"box has {box.d} axes, expected {self.d}")
        if not box.within(self.extent):
            raise ParameterError(f"box {box} exceeds extent {self.extent}")

    def counts(self, box: Box) -> np.ndarray:
        """Number of cells of each color inside the box (index c-1 for color c)."""
        self._validate(box)
        if box.is_empty:
            return np.zeros(self.M, dtype=np.int64)
        out = np.zeros(self.M, dtype=np.int64)
        for picks in itertools.product(*[((hi, 0), (lo - 1, 1)) for lo, hi in zip(box.lo, box.hi)]):
            idx = tuple(p[0] for p in picks)
            sign = -1 if sum(p[1] for p in picks) % 2 else 1
            out += sign * self._table[(slice(None),) + idx]
        return out

    def count(self, box: Box, color: int) -> int:
        if not 1 <= color <= self.M:
            raise ParameterError(f"color {color} outside [1, {self.M}]")
        return int(self.counts(box)[color - 1])

    def response_time(self, box: Box) -> int:
        """Largest per-color cell count in the box (0 for the empty box)."""
        self._validate(box)
        if box.is_empty:
            return 0
        return int(self.counts(box).max())


def count_in_box(source, extent: int, box: Box, color: int, *, M: int | None = None) -> int:
    """One-off box count; build a RangeCounter for repeated queries."""
    return RangeCounter(source, extent, M=M).count(box, color)


def response_time(source, extent: int, box: Box, *, M: int | None = None) -> int:
    """Worst per-disk load of the query box under the given allocation."""
    return RangeCounter(source, extent, M=M).response_time(box)


def _residue_hits(lo: int, hi: int, M: int) -> np.ndarray:
    """How many of lo..hi fall in each residue class (index (x - 1) mod M)."""
    q, r = divmod(hi - lo + 1, M)
    return q + ((np.arange(M, dtype=np.int64) - (lo - 1) % M) % M < r)


def periodic_box_counts(source, box: Box) -> np.ndarray:
    """Per-color counts of a box on the unbounded grid, via the anchor map.

    The allocation repeats with period M along every axis, so only the
    box's per-residue hit counts matter: w_i[x] = #{v in [lo_i, hi_i] :
    (v - 1) mod M = x}.  Write a(u) = anchor(u) - 1 and index colors by
    c = color - 1.  Then

        counts[c] = sum_a h[a] * w_1[(a + c) mod M],
        h[a] = sum over u with a(u) = a of prod_{i>=2} w_i[u_i - 1].

    Proof: by the shift property of the anchor map (module docstring of
    ``coloring``), base cell (x_1, u) has index c iff x_1 - 1 = a(u) + c
    (mod M), and the box holds w_1[x_1 - 1] * prod_{i>=2} w_i[u_i - 1]
    copies of it; grouping the trailing u by a(u) gives the sum.

    Along axis 1, w_1 is q = L_1 div M everywhere plus 1 on the cyclic
    window of r = L_1 mod M residues that starts at s = (lo_1 - 1) mod M.
    Hence counts[c] = q * sum(h) + (sum of h over the cyclic window of
    length r starting at (s - c) mod M), read off one prefix sum of h
    concatenated with itself.  h is one scatter-add of the trailing
    per-axis outer product onto the anchor values, so a call costs
    O(M^(d-1)) time and memory whatever the box's size or position.

    Every intermediate is at most 2|B|, so boxes of 2^62 blocks or more
    are refused with ParameterError instead of wrapping int64.  Accepts a
    Scheme or LatinColoring.
    """
    if isinstance(source, np.ndarray):
        raise ParameterError("periodic counting needs a coloring, not a raw grid")
    coloring = source.coloring if isinstance(source, Scheme) else source
    M, d = coloring.M, coloring.d
    if box.d != d:
        raise ParameterError(f"box has {box.d} axes, coloring has {d}")
    if box.is_empty:
        return np.zeros(M, dtype=np.int64)
    if box.cardinality >= 2**62:
        raise ParameterError(
            f"box {box} holds {box.cardinality} blocks; periodic counts are "
            "exact only below 2^62"
        )
    trailing = functools.reduce(
        np.multiply.outer,
        [_residue_hits(lo, hi, M) for lo, hi in zip(box.lo[1:], box.hi[1:])],
        np.ones((), dtype=np.int64),
    )
    h = np.zeros(M, dtype=np.int64)
    np.add.at(h, coloring.anchor_tensor().reshape(-1) - 1, trailing.reshape(-1))
    q, r = divmod(box.hi[0] - box.lo[0] + 1, M)
    prefix = np.zeros(2 * M + 1, dtype=np.int64)
    np.cumsum(np.concatenate((h, h)), out=prefix[1:])
    window = ((box.lo[0] - 1) % M - np.arange(M, dtype=np.int64)) % M
    return q * int(prefix[M]) + prefix[window + r] - prefix[window]


# ---------------------------------------------------------------------------
# Full scan


def _box_color_counts(grid: np.ndarray, box: Box, M: int) -> np.ndarray:
    """Direct recount of a single box from the raw grid (witness validation)."""
    if box.is_empty:
        return np.zeros(M, dtype=np.int64)
    sl = tuple(slice(lo - 1, hi) for lo, hi in zip(box.lo, box.hi))
    return np.bincount(grid[sl].reshape(-1), minlength=M + 1)[1:].astype(np.int64)


def _validate_witness(grid, M, box, color):
    """Exact recheck of a reported witness: value and zero-sum across colors."""
    counts = _box_color_counts(grid, box, M)
    devs = M * counts - box.cardinality
    if int(devs.sum()) != 0:
        raise AssertionError(f"deviations of box {box} sum to {int(devs.sum())}, not 0")
    return int(devs[color - 1])


def disc_report(
    source,
    extent: int,
    *,
    M: int | None = None,
    positive_only: bool = False,
    max_cells: int | None = None,
) -> DiscReport:
    """Exact disc / disc_plus over every box of [extent]^d, with witnesses.

    Enumerates all coordinate ranges of axes 2..d; for each, per-color cell
    counts along axis 1 come from a prefix table, and a maximum-subarray scan
    over (M * count - length) finds the best axis-1 range.  All arithmetic is
    integer.  ``positive_only`` skips the absolute-value track.
    """
    start = time.perf_counter()
    grid, M_, d = _resolve_grid(source, extent, M)
    M = M_
    N = extent
    _check_budget(N, d, M, max_cells)

    # Prefix table over axes 2..d, per (color, x1): P[c, x1, j2.., jd] counts
    # cells with the trailing coordinates in [1, j_i] (0 index = none).
    P = np.zeros((M, N) + (N + 1,) * (d - 1), dtype=np.int64)
    trailing_inner = (slice(1, None),) * (d - 1)
    for c in range(M):
        part = (grid == c + 1).astype(np.int64)
        for axis in range(1, d):
            part = np.cumsum(part, axis=axis)
        P[(c, slice(None)) + trailing_inner] = part

    axis_ranges = [(lo, hi) for lo in range(1, N + 1) for hi in range(lo, N + 1)]

    best_plus = None  # (num, key) with key = (lo_tuple, hi_tuple, color)
    best_abs = None
    plus_col = np.full(M, np.iinfo(np.int64).min, dtype=np.int64)
    abs_col = np.full(M, np.iinfo(np.int64).min, dtype=np.int64)

    def extract(S, mat, target, outer_lo, outer_hi, minimize_prefix):
        """Lex-min (lo, hi, color) among boxes of this outer slab hitting target."""
        found = None
        cs, ends = np.nonzero(mat == target)
        for c, i in zip(cs.tolist(), ends.tolist()):
            seg = S[c, : i + 1]
            a = int(np.argmin(seg)) if minimize_prefix else int(np.argmax(seg))
            key = ((a + 1,) + outer_lo, (i + 1,) + outer_hi, c + 1)
            if found is None or key < found:
                found = key
        return found

    for outer in itertools.product(*([axis_ranges] * (d - 1))):
        outer_lo = tuple(r[0] for r in outer)
        outer_hi = tuple(r[1] for r in outer)
        # per-color per-x1 counts over the outer ranges, by inclusion-exclusion
        lines = np.zeros((M, N), dtype=np.int64)
        for picks in itertools.product(*[((hi, 0), (lo - 1, 1)) for lo, hi in outer]):
            idx = tuple(p[0] for p in picks)
            sign = -1 if sum(p[1] for p in picks) % 2 else 1
            lines += sign * P[(slice(None), slice(None)) + idx]
        length = 1
        for lo, hi in outer:
            length *= hi - lo + 1
        g = M * lines - length
        S = np.concatenate(
            [np.zeros((M, 1), dtype=np.int64), np.cumsum(g, axis=1)], axis=1
        )
        prefix_min = np.minimum.accumulate(S[:, :-1], axis=1)
        V = S[:, 1:] - prefix_min  # best (largest) deviation ending at each hi1
        np.maximum(plus_col, V.max(axis=1), out=plus_col)
        local_plus = int(V.max())
        if best_plus is None or local_plus >= best_plus[0]:
            key = extract(S, V, local_plus, outer_lo, outer_hi, minimize_prefix=True)
            if best_plus is None or (local_plus, _neg(key)) > (best_plus[0], _neg(best_plus[1])):
                best_plus = (local_plus, key)
        if not positive_only:
            prefix_max = np.maximum.accumulate(S[:, :-1], axis=1)
            W = S[:, 1:] - prefix_max  # most negative deviation ending at each hi1
            np.maximum(abs_col, np.maximum(V.max(axis=1), -W.min(axis=1)), out=abs_col)
            local_abs = max(local_plus, -int(W.min()))
            if best_abs is None or local_abs >= best_abs[0]:
                cands = []
                if local_plus == local_abs:
                    cands.append(extract(S, V, local_abs, outer_lo, outer_hi, True))
                if -int(W.min()) == local_abs:
                    cands.append(extract(S, W, -local_abs, outer_lo, outer_hi, False))
                key = min(c for c in cands if c is not None)
                if best_abs is None or (local_abs, _neg(key)) > (best_abs[0], _neg(best_abs[1])):
                    best_abs = (local_abs, key)

    plus_box = Box(lo=best_plus[1][0], hi=best_plus[1][1])
    plus_color = best_plus[1][2]
    check = _validate_witness(grid, M, plus_box, plus_color)
    if check != best_plus[0]:
        raise AssertionError(
            f"witness recount mismatch: box {plus_box} color {plus_color} "
            f"recounts to {check}, scan said {best_plus[0]}"
        )
    disc_val = None
    disc_wit = None
    abs_col_out = None
    if not positive_only:
        abs_box = Box(lo=best_abs[1][0], hi=best_abs[1][1])
        abs_color = best_abs[1][2]
        check = _validate_witness(grid, M, abs_box, abs_color)
        if abs(check) != best_abs[0]:
            raise AssertionError(
                f"witness recount mismatch: box {abs_box} color {abs_color} "
                f"recounts to {check}, scan said +/-{best_abs[0]}"
            )
        disc_val = ScaledValue(best_abs[0], M)
        disc_wit = (abs_box, abs_color)
        abs_col_out = tuple(int(v) for v in abs_col)
        # sanity: disc/(M-1) <= disc_plus <= disc must hold exactly
        if best_plus[0] > best_abs[0] or (M > 1 and best_abs[0] > best_plus[0] * (M - 1)):
            raise AssertionError(
                f"sandwich violation: disc={best_abs[0]}/{M}, disc_plus={best_plus[0]}/{M}"
            )
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return DiscReport(
        M=M,
        d=d,
        extent=N,
        disc_plus=ScaledValue(best_plus[0], M),
        disc_plus_witness=(plus_box, plus_color),
        disc=disc_val,
        disc_witness=disc_wit,
        per_color_plus=tuple(int(v) for v in plus_col),
        per_color_abs=abs_col_out,
        elapsed_ms=elapsed_ms,
    )


# ---------------------------------------------------------------------------
# Box algebra


def fold_box_to_period(box: Box, period: int) -> Box:
    """Reduce a box of a tiled coloring to an equal-|deviation| box in [period]^d.

    Per axis, whole periods contribute zero deviation, and a wrapped residual
    segment is replaced by the complement of its gap, which flips only the
    deviation's sign.  If any axis reduces to nothing, the whole box folds to
    the canonical empty box.
    """
    if period < 1:
        raise ParameterError(f"period={period} must be >= 1")
    if box.is_empty:
        return Box.empty(box.d)
    lo_out = []
    hi_out = []
    for lo, hi in zip(box.lo, box.hi):
        x = (lo - 1) % period + 1
        y = (hi - 1) % period + 1
        if x <= y:
            seg = (x, y)
        else:
            seg = (y + 1, x - 1)  # complement of the wrap gap
        if seg[0] > seg[1]:
            return Box.empty(box.d)
        lo_out.append(seg[0])
        hi_out.append(seg[1])
    return Box(lo=tuple(lo_out), hi=tuple(hi_out))


def complement_decompose(box: Box, extent: int) -> list[Box]:
    """Partition [extent]^d minus the box into at most 2d disjoint boxes.

    Canonical peeling in ascending axis order: for axis i, the slab below
    and the slab above the box, crossed with the already-narrowed ranges on
    earlier axes and full ranges on later axes.
    """
    d = box.d
    if not box.within(extent):
        raise ParameterError(f"box {box} exceeds extent {extent}")
    if box.is_empty:
        return [Box(lo=(1,) * d, hi=(extent,) * d)]
    pieces = []
    for axis in range(d):
        before = [(box.lo[j], box.hi[j]) for j in range(axis)]
        after = [(1, extent)] * (d - axis - 1)
        if box.lo[axis] > 1:
            ranges = before + [(1, box.lo[axis] - 1)] + after
            pieces.append(Box(lo=tuple(r[0] for r in ranges), hi=tuple(r[1] for r in ranges)))
        if box.hi[axis] < extent:
            ranges = before + [(box.hi[axis] + 1, extent)] + after
            pieces.append(Box(lo=tuple(r[0] for r in ranges), hi=tuple(r[1] for r in ranges)))
    return pieces


# ---------------------------------------------------------------------------
# Geometric (volume-vs-count) discrepancy on a 1/G grid


@dataclass(frozen=True)
class GeoDisc:
    """Max |count - n*volume| over boxes with corners on the 1/G grid."""

    value: Fraction
    scaled_num: int
    scale: int
    witness_lo: tuple[int, ...]  # numerators of the lower corner, over G
    witness_hi: tuple[int, ...]  # numerators of the upper (open) corner, over G


def _point_cells(points, G: int, d: int | None = None):
    """Exact per-axis cell indices floor(x*G) for points in [0,1)^d."""
    if isinstance(points, DigitalNet):
        b, m, nd = points.params.b, points.params.m, points.params.d
        scale = b**m
        ints = points.coord_ints()
        cells = (ints * G) // scale
        return [tuple(int(v) for v in row) for row in cells], nd
    pts = list(points)
    if not pts:
        if d is None:
            raise ParameterError("empty point set needs an explicit dimension d")
        return [], d
    inferred = len(pts[0])
    if d is not None and d != inferred:
        raise ParameterError(f"points are {inferred}-dimensional, expected d={d}")
    d = inferred
    out = []
    for pt in pts:
        if len(pt) != d:
            raise ParameterError("points must share one dimension")
        cell = []
        for x in pt:
            fx = Fraction(x)
            if not 0 <= fx < 1:
                raise ParameterError(f"coordinate {x} outside [0, 1)")
            cell.append((fx.numerator * G) // fx.denominator)
        out.append(tuple(cell))
    return out, d


def geometric_discrepancy(points, G: int, d: int | None = None) -> GeoDisc:
    """Exact star-style discrepancy restricted to boxes on the 1/G grid.

    Boxes are products of [a_i/G, c_i/G) with integer 0 <= a_i < c_i <= G.
    The deviation |#points in box - n * vol(box)| is computed exactly with
    integers scaled by G^d.  The witness is the lexicographically smallest
    (lower corner, upper corner) attaining the maximum.  ``d`` is only
    needed when ``points`` is empty (dimension cannot be inferred).
    """
    if G < 1:
        raise ParameterError(f"grid resolution G={G} must be >= 1")
    cells, d = _point_cells(points, G, d)
    n = len(cells)
    counts = np.zeros((G,) * d, dtype=np.int64)
    for cell in cells:
        if any(not 0 <= v < G for v in cell):
            raise ParameterError("point outside [0, 1)^d")
        counts[cell] += 1
    table = counts
    for axis in range(d):
        table = np.cumsum(table, axis=axis)
    prefix = np.zeros((G + 1,) * d, dtype=np.int64)
    prefix[(slice(1, None),) * d] = table

    scale = G**d
    best = None  # (scaled_abs, (a_vec, c_vec))
    pairs = [(a, c) for a in range(G) for c in range(a + 1, G + 1)]
    for combo in itertools.product(*([pairs] * d)):
        a_vec = tuple(p[0] for p in combo)
        c_vec = tuple(p[1] for p in combo)
        count = 0
        for picks in itertools.product(*[((c, 0), (a, 1)) for a, c in combo]):
            idx = tuple(p[0] for p in picks)
            sign = -1 if sum(p[1] for p in picks) % 2 else 1
            count += sign * int(prefix[idx])
        vol_num = 1
        for a, c in combo:
            vol_num *= c - a
        dev = abs(count * scale - n * vol_num)
        key = (a_vec, c_vec)
        if best is None or dev > best[0] or (dev == best[0] and key < best[1]):
            best = (dev, key)
    return GeoDisc(
        value=Fraction(best[0], scale),
        scaled_num=best[0],
        scale=scale,
        witness_lo=best[1][0],
        witness_hi=best[1][1],
    )


# ---------------------------------------------------------------------------
# Positive-deviation certificate


@dataclass(frozen=True)
class WitnessCertificate:
    """A concrete box and color whose deviation is positive (or zero only
    when the coloring is perfectly balanced)."""

    box: Box
    color: int
    value: ScaledValue
    side: int  # the scanned subgrid is [side]^d


def _scan_color_boxes(grid: np.ndarray, M: int, color: int):
    """Max |M*count - |B|| over all boxes of the grid for one color.

    Returns (signed deviation at the winning box, Box).  Among boxes of
    maximal |deviation| a positive one wins if any exists (so the caller
    only has to fall back to the complement flip when the maximum is
    attained by negative boxes alone); remaining ties go to the
    lexicographically smallest (lo, hi).
    """
    d = grid.ndim
    side = grid.shape[0]
    part = (grid == color).astype(np.int64)
    for axis in range(d):
        part = np.cumsum(part, axis=axis)
    prefix = np.zeros((side + 1,) * d, dtype=np.int64)
    prefix[(slice(1, None),) * d] = part
    pairs = [(lo, hi) for lo in range(1, side + 1) for hi in range(lo, side + 1)]
    best = None  # (abs_dev, signed_dev, (lo_vec, hi_vec))
    for combo in itertools.product(*([pairs] * d)):
        lo_vec = tuple(p[0] for p in combo)
        hi_vec = tuple(p[1] for p in combo)
        count = 0
        for picks in itertools.product(*[((hi, 0), (lo - 1, 1)) for lo, hi in combo]):
            idx = tuple(p[0] for p in picks)
            sign = -1 if sum(p[1] for p in picks) % 2 else 1
            count += sign * int(prefix[idx])
        size = 1
        for lo, hi in combo:
            size *= hi - lo + 1
        dev = M * count - size
        key = (lo_vec, hi_vec)
        rank = (abs(dev), dev > 0, _neg(key))
        if best is None or rank > best[0]:
            best = (rank, dev, key)
    return best[1], Box(lo=best[2][0], hi=best[2][1])


def find_positive_witness(coloring: LatinColoring | Scheme) -> WitnessCertificate:
    """A box and color certifying a positive deviation, found cheaply.

    Scans a subgrid [side]^d where side balances certificate quality against
    scan cost: the full period for d=2, roughly M^(1/(d-1)) cells per axis
    for higher dimensions.  The scan picks an over-represented color there,
    takes the box of largest absolute deviation, and flips a negative
    deviation into a positive one through the complement decomposition
    (whose pieces' deviations sum to minus the original).  If the subgrid is
    perfectly balanced the scan escalates to the full period, so the result
    is positive whenever the coloring has any imbalance at all.
    """
    if isinstance(coloring, Scheme):
        coloring = coloring.coloring
    M, d = coloring.M, coloring.d
    if d < 2:
        raise ParameterError("certificates need d >= 2")
    if d >= 3 and M < 3:
        raise ParameterError(f"subgrid scan is degenerate for M={M}, d={d}; need M >= 3")
    if d == 2:
        side = M
    else:
        side = 1
        while side ** (d - 1) < M:
            side += 1
    for attempt_side in dict.fromkeys((side, M)):
        grid = color_grid(coloring, attempt_side)
        tally = np.bincount(grid.reshape(-1), minlength=M + 1)[1:]
        total = attempt_side**d
        # smallest over-represented color: M * count >= side^d
        color = next(c + 1 for c in range(M) if M * int(tally[c]) >= total)
        dev, box = _scan_color_boxes(grid, M, color)
        if dev > 0:
            return WitnessCertificate(box=box, color=color, value=ScaledValue(dev, M), side=attempt_side)
        if dev < 0:
            pieces = complement_decompose(box, attempt_side)
            counter = RangeCounter(grid, attempt_side, M=M)
            best = None
            for piece in pieces:
                pdev = M * counter.count(piece, color) - piece.cardinality
                cand = (pdev, _neg(piece.key()))
                if best is None or cand > best:
                    best = cand
                    best_piece = piece
            pos = best[0]
            if pos <= 0:
                raise AssertionError("complement of a negative box must contain a positive piece")
            return WitnessCertificate(
                box=best_piece, color=color, value=ScaledValue(pos, M), side=attempt_side
            )
    # perfectly balanced coloring (e.g. M == 1): zero certificate on one cell
    return WitnessCertificate(
        box=Box(lo=(1,) * d, hi=(1,) * d),
        color=int(grid[(0,) * d]),
        value=ScaledValue(0, M),
        side=M,
    )


# ---------------------------------------------------------------------------
# Serialization


def report_to_dict(report: DiscReport) -> dict:
    box, color = report.disc_plus_witness
    out = {
        "M": report.M,
        "d": report.d,
        "N": report.extent,
        "disc_num": report.disc.num if report.disc is not None else None,
        "disc_plus_num": report.disc_plus.num,
        "denominator": report.M,
        "witness": {"lo": list(box.lo), "hi": list(box.hi), "color": color},
        "per_color": [
            {
                "color": c + 1,
                "disc_plus_num": report.per_color_plus[c],
                "disc_num": report.per_color_abs[c] if report.per_color_abs else None,
            }
            for c in range(report.M)
        ],
        "elapsed_ms": report.elapsed_ms,
    }
    if report.disc_witness is not None:
        wbox, wcolor = report.disc_witness
        out["witness_abs"] = {"lo": list(wbox.lo), "hi": list(wbox.hi), "color": wcolor}
    return out


def save_report(report: DiscReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
