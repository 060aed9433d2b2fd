"""Exact worst-case range-query imbalance of a colored grid.

For a coloring of [N]^d with M colors, the *deviation* of a box B in color i
is ``|B ∩ color_i| - |B| / M``.  The maximum absolute deviation over all
boxes and colors is the discrepancy ``disc``; restricting to positive
deviations gives ``disc_plus``, which is exactly the additive overshoot of
the worst range query over the best possible per-query load |B|/M.

Every deviation is an integer multiple of 1/M, so all values are carried as
integers scaled by M (``ScaledValue``) and every comparison is exact.

One kernel, ``_scan_boxes``, does every all-boxes scan.  Given K integer
weight planes on P axis-1 rows times [T]^(d-1), it returns the largest box
sum of each plane and of its negation, each with the lexicographically
smallest (lower corner, upper corner, plane) attaining the overall largest;
a latin coloring's one plane is instead read with period P along axis 1
under P windows of N >= P cells, and its figures are per window.  It builds
one summed-area table over every axis (Crow, "Summed-area tables for
texture mapping", SIGGRAPH 1984) of (P+1) * (T+1)^(d-1) * K integers, and
takes the coordinate ranges of axes 2..d ("slabs") in chunks of at most
max(``_CHUNK_ELEMS``, (P+1) * K) elements, so memory does not grow with
the number of slabs.  A chunk's axis-1 prefix sums are one difference per
trailing axis of the table.  Raw grids and colorings below N = M then take
a maximum-subarray sweep of each slab's prefix sums (Bentley, Programming
Pearls, CACM 1984), for both signs in one pass: O(K * N * slabs) work in
all.  Ties are resolved across all chunks, not within one.

On a latin coloring three facts, proved in ``_scan_boxes`` and
``disc_report``, cut the scan to a size that stops growing with N:

- (a) one period of axis-1 rows: P = M rows suffice;
- (b) one period of trailing ranges: for a coloring that passes
  ``verify_latin``, only the trailing ranges inside [1, M] are scanned,
  at every N >= M; a range that wraps past M has the negated sums of one
  of them;
- (c) spread first: at every N >= M, disc+ = disc = G, the largest
  one-period spread max S - min S of a slab's prefix sums S.  Every
  witness starts at x_1 = 1; it and the windows reaching G are read off
  the slabs of spread G in closed form, and only the other windows (none
  from N >= 2M - 2) are swept.

Its two callers rank the result by their own tie rule:

- ``disc_report``: one plane M * [color = c] - 1 per color and one window
  on [N]^d (P = T = N, every slab), or, for a latin coloring at N >= M, the
  plane of color 1 under M windows (window c - 1 is color c, by the shift
  property) with (a)-(c).  disc+ is the largest sum and disc the largest
  magnitude, each witnessed by the lex-min (lo, hi, color) attaining it.
- ``find_positive_witness``: one plane for the chosen color, ranked by
  (|deviation|, deviation > 0, lex-min (lo, hi)).
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering

import numpy as np

from .coloring import LatinColoring, Scheme, check_axes, color_grid, verify_latin
from .errors import ParameterError, check_budget

# Elements per temporary of one scan chunk (axis-1 rows, slabs, planes) or one
# block of a periodic query's outer product.  Larger chunks pay numpy's fixed
# cost per call less often (smallbase d=3, M=N=64 on a 2-core machine: 2.0 s,
# 1.2 s at 32768), but pass 2 of ``_spread_first`` sweeps slabs in larger
# batches, so more of them (random M=31, N=32: 89 columns, 126 at 32768).
_CHUNK_ELEMS = 8192
# Slabs in the first sweep of a chunk revisited for windows below the largest
# spread: the widest few raise the windows' floors before the rest are filtered.
_FIRST_SWEEP = 16


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
        if source.shape != (extent,) * source.ndim:
            raise ParameterError(
                f"color array shape {source.shape} does not match extent {extent}"
            )
        grid = source.astype(np.int64, copy=False)
        if grid.min() < 1 or grid.max() > M:
            raise ParameterError(f"colors must lie in [1, {M}]")
        return grid, int(M), source.ndim
    coloring = source.coloring if isinstance(source, Scheme) else source
    if not isinstance(coloring, LatinColoring):
        raise ParameterError(f"cannot evaluate a {type(source).__name__}")
    return color_grid(coloring, extent), coloring.M, coloring.d


# ---------------------------------------------------------------------------
# Summed-area tables


def _prefix_table(labels: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Summed-area table of K weight planes over every axis of ``labels``.

    Plane k gives cell x the weight ``weights[k, labels[x]]``.  Entry
    [j_1, .., j_d, k] is plane k's sum over the cells [1, j_1] x .. x
    [1, j_d], with index 0 for none on each axis, so the table has one more
    entry than ``labels`` on every axis, then K.  Filled plane by plane, so
    no K-times-labels temporary is made.
    """
    table = np.zeros(tuple(n + 1 for n in labels.shape) + (len(weights),), dtype=np.int64)
    inner = table[(slice(1, None),) * labels.ndim]
    for k, plane in enumerate(weights):
        inner[..., k] = plane[labels]
    for axis in range(labels.ndim):
        np.cumsum(table, axis=axis, out=table)
    return table


def _ends(lo: int, hi: int) -> slice:
    """Entries lo - 1 and hi of a table axis, as a view: a range [lo, hi] is their difference."""
    return slice(lo - 1, hi + 1, hi - lo + 1)


def _color_planes(M: int) -> np.ndarray:
    """Weights of the M planes [color = c], c = 1..M, indexed by color 0..M."""
    return (np.arange(1, M + 1)[:, None] == np.arange(M + 1)).astype(np.int64)


# ---------------------------------------------------------------------------
# Counting


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
    concatenated with itself.  h is a scatter-add of the trailing per-axis
    outer product onto the anchor values, taken in blocks of x_2 values of
    at most ``_CHUNK_ELEMS`` elements, so a call costs O(M^(d-1)) time and
    O(M^(d-2)) memory besides the anchor map, whatever the box's size or
    position.

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
    anchors = coloring.anchor_tensor().reshape(-1)  # refuses d beyond numpy's axes first
    hits = [_residue_hits(lo, hi, M) for lo, hi in zip(box.lo[1:], box.hi[1:])]
    lead = hits[0] if hits else np.ones(1, dtype=np.int64)
    inner = functools.reduce(np.multiply.outer, hits[1:], np.ones((), dtype=np.int64)).reshape(-1)
    h = np.zeros(M + 1, dtype=np.int64)  # indexed by anchor value
    rows = max(1, _CHUNK_ELEMS // inner.size)  # x_2 values per block of the outer product
    for at in range(0, len(lead), rows):
        part = np.multiply.outer(lead[at : at + rows], inner).reshape(-1)
        np.add.at(h, anchors[at * inner.size : at * inner.size + part.size], part)
    h = h[1:]
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


def _validate_witness(counts: np.ndarray, box: Box, color: int) -> int:
    """Exact recheck of a reported witness from its recounted per-color counts.

    The deviations must sum to zero; returns the given color's deviation.
    """
    devs = len(counts) * counts - box.cardinality
    if int(devs.sum()) != 0:
        raise AssertionError(f"deviations of box {box} sum to {int(devs.sum())}, not 0")
    return int(devs[color - 1])


def _window_best(S: np.ndarray, W: int, signs: tuple[int, ...]) -> np.ndarray:
    """Largest sign * (S[j] - S[i]) over i < j inside each prefix-index window [s, s+N].

    ``S`` holds prefix sums along axis 0 (length N + W, N >= W); returns the
    maxima as an array indexed [sign, s] for s = 0..W-1.  Every window
    contains p = W - 1 with at least one right end past it, so a window's
    best pair lies in [s, p], or in [p, s+N], or has i < p <= j; each part
    is a running maximum or minimum, so the cost is O(N + W), not O(W * N).
    One pass serves both signs: the running maximum of -S is minus the
    running minimum of S, so each sign reads the running extremes of S over
    [p, t] that the other sign also uses, and no negated copy of S is made.
    """
    N, p = len(S) - W, W - 1
    right = (np.maximum.accumulate(S[p:], axis=0), np.minimum.accumulate(S[p:], axis=0))
    out = np.empty((len(signs), W) + S.shape[1:], dtype=S.dtype)
    for best, sign in zip(out, signs):
        # up / down applied to S give sign * (running max / min of sign * S)
        up, down = (np.maximum, np.minimum)[::sign]
        high, low = right[::sign]  # the same over [p, t]

        def rise(a, b):  # sign * (a - b)
            return a - b if sign > 0 else b - a

        gain = rise(S[p + 1 :], low[:-1])  # best pair ending at j > p
        np.maximum.accumulate(gain[N - W :], axis=0, out=best)  # window s ends at s + N
        if N > W:  # right ends every window contains
            np.maximum(best, gain[: N - W].max(axis=0), out=best)
        if p:
            before = down.accumulate(S[p - 1 :: -1], axis=0)[::-1]  # over [s, p)
            top = up.accumulate(S[p:0:-1], axis=0)[::-1]  # over (i, p]
            inner = np.maximum.accumulate(rise(top, S[:p])[::-1], axis=0)[::-1]  # pair in [s, p]
            cross = rise(high[N - W + 1 : N], before)  # i < p <= j <= s + N
            np.maximum(best[:p], np.maximum(cross, inner), out=best[:p])
    return out


def _lex_min_box(S: np.ndarray, hits: np.ndarray, peak: int, sign: int, corners) -> tuple:
    """Lex-min (lo, hi, k + 1) among the (slab, plane) columns of one chunk flagged in ``hits``.

    ``hits[slab, k]`` flags the columns of the prefix sums ``S`` whose best
    pair of sign * S reaches ``peak``.  Each flagged column is gathered; its
    first left index i reaching ``peak``, then the first right index j with
    sign * (S[j] - S[i]) = peak, give the axis-1 range [i+1, j], and
    ``corners(slabs)`` the trailing lo and hi of its slab.
    """
    span = np.arange(len(S))
    slab, k = np.nonzero(hits)
    batch = max(1, _CHUNK_ELEMS // len(span))  # bounds the gathered columns
    best = None
    for at in range(0, len(slab), batch):
        slab_, k_ = slab[at : at + batch], k[at : at + batch]
        rows = S[span, slab_[:, None], k_[:, None]]
        if sign < 0:
            np.negative(rows, out=rows)
        reach = np.maximum.accumulate(rows[:, :0:-1], axis=1)[:, ::-1] - rows[:, :-1]
        i = np.argmax(reach == peak, axis=1)
        base = rows[np.arange(len(i)), i][:, None]
        j = np.argmax((rows - base == peak) & (span > i[:, None]), axis=1)
        lo_t, hi_t = corners(slab_)
        cols = [i + 1, *lo_t, j, *hi_t, k_ + 1]
        pick = np.lexsort(cols[::-1])[0]
        key = tuple(int(c[pick]) for c in cols)
        best = key if best is None else min(best, key)
    d = len(lo_t) + 1
    return best[:d], best[d : 2 * d], best[-1]


def _may_precede(lo_t, lo: tuple, slabs: int) -> np.ndarray:
    """Per slab, whether a box on it can have lower corner <= ``lo``.

    A box's lower corner is (lo_1, *lo_t) with lo_1 >= 1; the comparison
    is lexicographic.
    """
    below = np.full(slabs, 1 < lo[0])
    level = np.full(slabs, 1 == lo[0])
    for col, ref in zip(lo_t, lo[1:]):
        below |= level & (col < ref)
        level &= col == ref
    return below | level


def _check_scan_budget(P: int, T: int, d: int, K: int, max_cells: int | None) -> None:
    """Refuse a ``_scan_boxes`` table of (P + 1) * (T + 1)^(d-1) * K cells over budget."""
    check_budget(
        (P + 1) * (T + 1) ** (d - 1) * K,
        f"(period+1) * (T+1)^(d-1) * planes = {P + 1} * {T + 1}^{d - 1} * {K}",
        max_cells,
    )


def _scan_boxes(
    labels: np.ndarray,
    weights: np.ndarray,
    *,
    extent: int | None = None,
    windows: int = 1,
    signs: tuple[int, ...] = (1, -1),
    max_cells: int | None = None,
) -> list:
    """Largest box sums of K weight planes in W axis-1 windows, and of their negations.

    Plane k gives cell x the integer weight ``weights[k, labels[x]]``, where
    ``labels`` is an int array of shape (P,) + (T,) * (d - 1) and ``weights``
    a (K, labels) int64 table.  A scan is one of two shapes:

    - one window (W = 1) on the N = P axis-1 rows of ``labels``, for any K;
    - one plane (K = 1) under W = P windows of N = ``extent`` >= P cells.
      The scanned axis-1 extent has N + P - 1 cells, and its cell e
      (0-based) is row e mod P of ``labels``.  Window w is the N
      consecutive cells that end w cells before the last; a box in it has
      axis-1 corners counted from the window's first cell.  The trailing
      extent is N; with T < N the caller promises (b).

    The slabs are every trailing range [lo, hi] within [1, T] on each of
    axes 2..d.  Returns one (peaks, key) per entry of ``signs``:
    peaks[k*W + w] is the largest box sum of sign * plane k in window w,
    and key the lex-min (lo, hi, k*W + w + 1) attaining peaks.max(), with
    1-based inclusive corners.  The cell budget counts the prefix table,
    (P + 1) * (T + 1)^(d-1) * K cells, and is checked before any
    allocation.

    The prefix table is summed over every axis (``_prefix_table``), so a
    slab's axis-1 prefix sums S(0..P) are one difference per trailing axis
    of it.  The slabs go in chunks of at most max(``_CHUNK_ELEMS``,
    (P + 1) * K) cells, in lexicographic order of their ranges: the last
    trailing axes that fit take all their ranges at once, the axis before
    them a block of ranges, and each axis before that one range, first cut
    to a view of its two ends so that nothing larger than a chunk is
    copied.  One window is swept slab by slab by ``_window_best`` and its
    ties resolved by ``_lex_min_box``; P windows go to ``_spread_first``.

    (a) One period of rows.  Under P windows every plane must sum to 0
    over the P rows of each axis-1 line; this is checked per chunk.  A
    slab's line sums g then repeat with period P and sum to 0 over one
    period, so its prefix sums S(t) = g(0) + .. + g(t-1) satisfy
    S(t + P) = S(t) + 0: the prefix table holds P + 1 rows, and the
    windows read S[t mod P].

    (b) One period of trailing ranges.  Under P windows with T < N the
    caller promises that ``labels`` repeat with period T along every
    trailing axis and that T consecutive cells of any line along one sum
    to 0.  On such an axis a range [lo, hi] of length >= T gives the same
    line sums as [lo, hi - T] (the cells removed are one run of T per
    line), one with lo > T the same as [lo - T, hi - T], and one that
    wraps, lo <= T < hi, minus those of its complement [hi + 1 - T, lo - 1]:
    the two fill T consecutive cells.  Each replacement keeps the other
    ranges and has a lex-smaller (lo, hi), so every box sum is, up to sign,
    one on a slab inside [1, T] (an empty range sums to 0, as [1, T] does).
    Where pass 2 of ``_spread_first`` sweeps a chunk, it adds the negation
    of each slab with 2 <= lo <= N - T + 1 and hi < T on some axis: the
    complement of the range [hi + 1, lo - 1 + T], which wraps inside
    [1, N].  The keys read real slabs only: the complement of a wrapped
    slab of spread G has spread G and a smaller lower corner, and reaches G
    at x_1 = 1 for either sign (``disc_report`` (c)), so no witness wraps.
    """
    P, d, K, W = labels.shape[0], labels.ndim, weights.shape[0], windows
    N, T = (P if extent is None else extent), labels.shape[-1]
    windowed = (W, N) != (1, P)
    if windowed and not (K == 1 and W == P <= N):
        raise ParameterError(
            f"scan of {K} planes under {W} windows of {N} cells on {P} rows: "
            "need one window on P rows, or one plane under P windows of >= P cells"
        )
    check_axes(d + 1, d)  # the prefix table
    _check_scan_budget(P, T, d, K, max_cells)
    table = _prefix_table(labels, weights)

    pair_lo, pair_hi = np.add(np.triu_indices(T), 1)  # lo <= hi, one per axis range
    ranges = len(pair_lo)
    # Ranges per chunk on each trailing axis: all of them on the last axes
    # that fit in ``room`` slabs, a block on the axis before them, one on
    # each axis before that.
    widths, room = [], max(1, _CHUNK_ELEMS // (K * (P + 1)))
    for _ in range(d - 1):
        widths.insert(0, max(1, min(ranges, room)))
        room //= ranges
    blocks = [-(-ranges // width) for width in widths]  # per trailing axis

    def chunk(c: int):
        """Axis-1 prefix sums (P + 1, slabs, K) of chunk c's slabs, and ``corners``.

        ``corners(slabs)`` gives the trailing lo and hi, per axis, of the
        chunk's slabs at the given column indices.
        """
        at = np.unravel_index(c, blocks)  # block index on each trailing axis
        picks = [slice(i * width, (i + 1) * width) for i, width in zip(at, widths)]
        los, his = [pair_lo[p] for p in picks], [pair_hi[p] for p in picks]
        # an axis at one range is cut to a view of its two ends before anything is copied
        cut = [_ends(lo[0], hi[0]) if len(lo) == 1 else slice(None) for lo, hi in zip(los, his)]
        part = table[(slice(None), *cut)]
        for axis, (lo, hi) in enumerate(zip(los, his), start=1):
            lead = (slice(None),) * axis  # indexing, not ``take``: several times faster here
            high, low = (slice(1, 2), slice(1)) if len(lo) == 1 else (hi, lo - 1)
            part = part[(*lead, high)] - part[(*lead, low)]
        sums = part.reshape(P + 1, -1, K)
        if windowed and sums[P].any():
            raise AssertionError("a plane does not sum to 0 over one period of axis-1 rows")

        def corners(slabs: np.ndarray):
            lo_t, hi_t = [], []
            for lo, hi in zip(los[::-1], his[::-1]):
                slabs, i = np.divmod(slabs, len(lo))
                lo_t.insert(0, lo[i])
                hi_t.insert(0, hi[i])
            return lo_t, hi_t

        return sums, corners

    chunks = range(math.prod(blocks))
    if windowed:
        return _spread_first(chunk, chunks, P, N, T, signs)
    tracks = [[np.full(K, np.iinfo(np.int64).min, dtype=np.int64), None] for _ in signs]
    for c in chunks:
        sums, corners = chunk(c)
        bests = _window_best(sums, 1, signs)[:, 0]  # [sign, slab, k]
        for sign, track, best in zip(signs, tracks, bests):
            top = best.max(axis=0)
            peak, so_far = int(top.max()), int(track[0].max())
            if peak > so_far:
                track[1] = _lex_min_box(sums, best == peak, peak, sign, corners)
            elif peak == so_far:  # a tie: only slabs that could still precede the kept key
                lo_t = corners(np.arange(len(best)))[0]
                hits = (best == peak) & _may_precede(lo_t, track[1][0], len(best))[:, None]
                if hits.any():
                    key = _lex_min_box(sums, hits, peak, sign, corners)
                    track[1] = min(track[1], key)
            np.maximum(track[0], top, out=track[0])
    return tracks


def _first_at(mask: np.ndarray, at: np.ndarray, ahead: int = 0) -> np.ndarray:
    """Per row r, ``at`` at the first row t >= r + ahead with ``mask[t mod P]``.

    ``mask`` has P rows (axis -2) read with period P and a True in every
    column; ``at`` (broadcast to it) must not decrease along rows, and rows
    of the next period read ``at + P``.  The first such t then gives the
    least value over t >= r + ahead, a suffix minimum.
    """
    P = mask.shape[-2]
    first = np.where(mask, at, 4 * P)
    first = np.minimum.accumulate(first[..., ::-1, :], axis=-2)[..., ::-1, :]
    np.minimum(first, first[..., :1, :] + P, out=first)  # none left in this period: the next
    if ahead:
        first = np.concatenate((first[..., 1:, :], first[..., :1, :] + P), axis=-2)
    return first


def _reached(S: np.ndarray, N: int, signs: tuple[int, ...]) -> np.ndarray:
    """Windows [s, s + N] in which sign * S reaches its spread on some column, as [sign, s].

    ``S`` holds one period (P rows) of the prefix sums of columns that
    share their spread.  Window s holds such a pair iff the first start (a
    minimum of sign * S) at or after s has its next end (a maximum) within
    s + N (``disc_report`` (c)).
    """
    s = np.arange(len(S))[:, None]
    ends = (S == S.min(axis=0), S == S.max(axis=0))  # the starts of sign 1, of sign -1
    out = []
    for sign in signs:
        start, end = ends[::sign]
        out.append((_first_at(start, _first_at(end, s, 1)) - s <= N).any(axis=1))
    return np.array(out)


def _spread_keys(S: np.ndarray, signs: tuple[int, ...], lo_t: tuple, hi_t) -> list:
    """Per sign, the lex-min (lo, hi, P - s) of a box reaching the spread of ``S``'s columns.

    The columns also share their trailing lower corner ``lo_t``.  Such a
    box starts window s at a start, lo_1 = 1, and ends at the next end, hi_1
    rows on (``disc_report`` (c)): per column the least hi_1, then last s.
    """
    P = len(S)
    s = np.arange(P)[:, None]
    ends = (S == S.min(axis=0), S == S.max(axis=0))
    keys = []
    for sign in signs:
        start, end = ends[::sign]
        hi_1 = np.where(start, _first_at(end, s, 1) - s, P)
        least = hi_1.min(axis=0)
        index = P - np.where(hi_1 == least, s, -1).max(axis=0)
        pick = np.lexsort([index, *hi_t[::-1], least])[0]
        hi = (int(least[pick]), *(int(h[pick]) for h in hi_t))
        keys.append(((1, *lo_t), hi, int(index[pick])))
    return keys


def _spread_first(chunk, chunks, P: int, N: int, T: int, signs: tuple[int, ...]) -> list:
    """``_scan_boxes`` for one plane under W = P windows of N >= P cells, from the spreads.

    Window s is the prefix indices [s, s + N], s = 0..P-1 (window w = P - 1
    - s).  A slab's prefix sums S have period P (fact (a)), so, as
    ``disc_report`` (c) proves with P = M, both signs peak at G, the largest
    spread max S - min S, and the windows reaching G and the lex-min keys
    there come from the slabs of spread G (G-slabs) in closed form.

    Pass 1 keeps each chunk's largest spread, reads by ``_spread_keys`` the
    keys of its G-slabs at their least trailing lower corner unless an
    earlier G-slab's is smaller, and, until every window is reached, holds
    the G-slab columns for ``_reached``, settling them before they pass
    half of ``_CHUNK_ELEMS`` elements.  A window no G-slab reaches has a
    peak below G or is reached on a wrap, and only columns whose spread
    exceeds the window's current floor can raise it, so pass 2 revisits
    chunks in descending order of their largest spread, sweeps those
    columns and their wraps (fact (b), trailing extent T) with
    ``_window_best`` (the widest spreads first, so that the floors rise
    before the rest are filtered), and stops once no chunk can beat the
    lowest floor.
    """
    room = max(1, _CHUNK_ELEMS // (2 * P))  # G-slab columns per ``_reached`` call
    G, tops, held, keys, lowest = -1, [], [], [], None  # held: G-slab columns not yet settled
    full = N >= 2 * P - 2  # every window is reached
    reached = np.full((len(signs), P), full)  # [sign, s]

    def settle():
        if held:
            reached[:] |= _reached(np.concatenate(held, axis=1), N, signs)
            held.clear()

    for last in chunks:
        sums, corners = chunk(last)
        S = sums[:P, :, 0]
        spread = S.max(axis=0) - S.min(axis=0)
        tops.append(int(spread.max()))
        if tops[-1] < G:
            continue
        if tops[-1] > G:
            G, lowest = tops[-1], None
            held.clear()
            keys.clear()
            reached[:] = full
        g = np.flatnonzero(spread == G)
        if not reached.all():
            for at in range(0, len(g), room):
                part = g[at : at + room]
                if sum(h.shape[1] for h in held) + len(part) > room:
                    settle()
                held.append(S[:, part])
        lo_t, hi_t = corners(g)
        first = np.ones(len(g), dtype=bool)  # the chunk's least trailing lower corner
        for lo in lo_t:
            first &= lo == lo[first].min()
        corner = tuple(int(lo[first][0]) for lo in lo_t)
        if lowest is None or corner <= lowest:
            lowest = corner
            keys.append(_spread_keys(S[:, g[first]], signs, corner, [hi[first] for hi in hi_t]))
    settle()
    keys = [min(k) for k in zip(*keys)]

    peaks = np.where(reached, G, np.iinfo(np.int64).min)  # [sign, s]
    # swept prefix index t reads prefix row t mod P; from N >= 2P - 2 nothing is swept
    order = np.arange(min(N, max(2 * P - 2, 1)) + P) % P
    batch = max(1, _CHUNK_ELEMS // len(order))
    for c in np.argsort(tops, kind="stable")[::-1]:
        if tops[c] <= peaks.min():
            break
        if c != last:  # pass 1 ends holding the last chunk
            last = c
            sums, corners = chunk(c)
        S = sums[:P, :, 0]
        if T < N:  # fact (b): each range that wraps inside [1, N] is minus a slab here
            wraps = np.zeros(S.shape[1], dtype=bool)
            for lo, hi in zip(*corners(np.arange(S.shape[1]))):
                wraps |= (2 <= lo) & (lo <= N - T + 1) & (hi < T)
            S = np.concatenate((S, -S[:, wraps]), axis=1)
        spread = S.max(axis=0) - S.min(axis=0)
        cols = np.argsort(-spread, kind="stable")
        size = _FIRST_SWEEP
        while True:
            cols = cols[spread[cols] > peaks.min()]  # a floor raised by the last sweep drops more
            if not len(cols):
                break
            best = _window_best(S[order[:, None], cols[:size]], P, signs)
            np.maximum(peaks, best.max(axis=2), out=peaks)
            cols, size = cols[size:], batch
    return [(p[::-1].copy(), key) for p, key in zip(peaks, keys)]


def _scan_input(source, extent: int, M: int | None, max_cells: int | None):
    """What ``disc_report`` scans: (labels, weights, scan options, recount, M, d).

    A latin coloring at extent N >= M becomes one plane, M * [color = 1] - 1,
    on one period of axis-1 rows e = 1..M, under M windows of N cells, over
    trailing extent T = M if the coloring passes ``verify_latin`` (fact (b)
    of ``_scan_boxes``), else T = N.  Anything else becomes M planes
    M * [color = c] - 1 on [N]^d.  ``recount`` gives a box's per-color
    counts by a route independent of the scan.  Labels and color grids are
    built only once the larger prefix table fits the cell budget.
    """
    coloring = source.coloring if isinstance(source, Scheme) else source
    if isinstance(coloring, LatinColoring):
        M, d = coloring.M, coloring.d
        check_axes(d + 1, d)  # the prefix table of ``_scan_boxes``
    if isinstance(coloring, LatinColoring) and extent >= M:
        T = M if verify_latin(coloring).ok else extent
        _check_scan_budget(M, T, d, 1, max_cells)
        resid = np.arange(T, dtype=np.int64) % M
        anchors = coloring.anchor_tensor()[np.ix_(*[resid] * (d - 1))] - 1  # (T,)*(d-1)
        e = np.arange(1, M + 1, dtype=np.int64).reshape((-1,) + (1,) * (d - 1))
        labels = (e - anchors) % M  # color - 1 of extended cell e, which repeats with period M
        weights = M * (np.arange(M) == 0).astype(np.int64)[None, :] - 1
        scan = {"extent": extent, "windows": M}
        return labels, weights, scan, functools.partial(periodic_box_counts, coloring), M, d
    if isinstance(coloring, LatinColoring) and extent >= 1:
        _check_scan_budget(extent, extent, d, M, max_cells)
    grid, M, d = _resolve_grid(source, extent, M)
    return grid, M * _color_planes(M) - 1, {}, lambda box: _box_color_counts(grid, box, M), M, d


def disc_report(
    source,
    extent: int,
    *,
    M: int | None = None,
    positive_only: bool = False,
    max_cells: int | None = None,
) -> DiscReport:
    """Exact disc / disc_plus over every box of [extent]^d, with witnesses.

    Box sums of the plane M * [color = c] - 1 are the deviations
    M * count - |B|; all arithmetic is integer.  ``positive_only`` skips the
    absolute-value track.

    A raw array, or a coloring at extent N < M, is scanned as M planes, one
    per color.  A ``Scheme`` / ``LatinColoring`` at N >= M is scanned as
    the single plane of color 1 on the extended axis-1 cells e = 1..N+M-1,
    real x_1 = e - (M-1), under M windows, window c-1 standing for color c:

        color c's boxes [a, b] x U of [N]^d are exactly color 1's boxes
        [a + M - c, b + M - c] x U in extended coordinates.

    Proof: by the shift property (``coloring`` module docstring) cell
    (x_1, u) has color c iff cell (x_1 - (c-1), u) of the unbounded tiling
    has color 1, so the two boxes hold the same count and have the same
    size.  Over a, b in [1, N] the extended range runs over every box of
    the cells e = M-c+1 .. M-c+N, which is window c-1.  The per-color
    vectors, disc, disc+ and both lex-min witnesses (window-relative
    corners are the real corners of color c) therefore come out exactly.

    The plane meets the premises of ``_scan_boxes``' savings:

    (a) Each axis-1 line holds one color-1 cell (weight M - 1) and M - 1
        other cells (weight -1) in every M consecutive cells, so the
        extended cells need one period of M rows.
    (b) A coloring that passes ``verify_latin`` (checked once per
        coloring) has the same property along every trailing axis, whose
        labels repeat with period M, so at every N >= M only the trailing
        ranges inside [1, M] are scanned (T = M): N = 10^6 costs what
        N = M costs.  A coloring that fails ``verify_latin`` keeps T = N.
    (c) Spread first.  Write S for a slab's prefix sums along axis 1
        (period M by (a)), a slab's spread for max S - min S, and G for the
        largest spread.  Then, at every N >= M,

            disc+ = disc = G.

        A box's sum is S(j) - S(i) for prefix indices i < j of its window,
        at most the slab's spread, for the plane and its negation alike.
        Conversely, on a slab of spread G (a G-slab) the M windows start
        at every residue, one of them at a minimum of S, and that window
        holds the next maximum of S, at most M - 1 <= N indices on (one
        when S is constant, M = 1); the window that starts at a maximum
        holds the next minimum.  So both signs peak at exactly G.

        Witness rule.  A pair reaching G runs on a G-slab from a minimum
        of S to a maximum (sign +; sign - swaps them).  Window [s, s + N]
        holds one iff j <= s + N, for i the first minimum at or after s
        and j the first maximum after i (which no later i moves earlier).
        By the converse, every witness starts at x_1 = 1 (s = i): it lies
        on a G-slab of least trailing lower corner, with the least j - i,
        then the least trailing upper corner, then the last s.  It, and
        the windows that reach G, are read off the G-slabs in closed form
        (``_spread_first``); only the other windows are swept, over the
        slabs and wraps (b) whose spread exceeds their floor.  From
        N >= 2M - 2 every window is reached (i - s and j - i are at most
        M - 1), so the per-color vectors are constant and nothing is swept.

    Every witness is recounted independently (the grid for M planes, the
    anchor histogram ``periodic_box_counts`` for one plane), its deviations
    must sum to zero, and disc/(M-1) <= disc_plus <= disc is checked.
    """
    start = time.perf_counter()
    labels, weights, scan, recount, M, d = _scan_input(source, extent, M, max_cells)
    tracks = _scan_boxes(
        labels,
        weights,
        **scan,
        signs=(1,) if positive_only else (1, -1),
        max_cells=max_cells,
    )

    plus_col, (plus_lo, plus_hi, plus_color) = tracks[0]
    plus = int(plus_col.max())
    plus_box = Box(lo=plus_lo, hi=plus_hi)
    counts = recount(plus_box)
    check = _validate_witness(counts, plus_box, plus_color)
    if check != plus:
        raise AssertionError(
            f"witness recount mismatch: box {plus_box} color {plus_color} "
            f"recounts to {check}, scan said {plus}"
        )
    disc_val = None
    disc_wit = None
    abs_col_out = None
    if not positive_only:
        disc = max(int(peaks.max()) for peaks, _ in tracks)
        abs_lo, abs_hi, abs_color = min(key for peaks, key in tracks if peaks.max() == disc)
        abs_box = Box(lo=abs_lo, hi=abs_hi)
        if (abs_box, abs_color) != (plus_box, plus_color):  # else the same recount
            counts = recount(abs_box)
        check = _validate_witness(counts, abs_box, abs_color)
        if abs(check) != disc:
            raise AssertionError(
                f"witness recount mismatch: box {abs_box} color {abs_color} "
                f"recounts to {check}, scan said +/-{disc}"
            )
        disc_val = ScaledValue(disc, M)
        disc_wit = (abs_box, abs_color)
        abs_col_out = tuple(int(v) for v in np.maximum(plus_col, tracks[1][0]))
        # sanity: disc/(M-1) <= disc_plus <= disc must hold exactly
        if plus > disc or (M > 1 and disc > plus * (M - 1)):
            raise AssertionError(f"sandwich violation: disc={disc}/{M}, disc_plus={plus}/{M}")
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return DiscReport(
        M=M,
        d=d,
        extent=extent,
        disc_plus=ScaledValue(plus, M),
        disc_plus_witness=(plus_box, plus_color),
        disc=disc_val,
        disc_witness=disc_wit,
        per_color_plus=tuple(int(v) for v in plus_col),
        per_color_abs=abs_col_out,
        elapsed_ms=elapsed_ms,
    )


# ---------------------------------------------------------------------------
# Box algebra


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
# Positive-deviation certificate


@dataclass(frozen=True)
class WitnessCertificate:
    """A concrete box and color whose deviation is positive (or zero only
    when the coloring is perfectly balanced)."""

    box: Box
    color: int
    value: ScaledValue
    side: int  # the scanned subgrid is [side]^d


def _witness_box(grid: np.ndarray, M: int, color: int) -> tuple[int, Box]:
    """Max |M*count - |B|| over all boxes of the grid for one color.

    Returns (signed deviation at the winning box, Box).  Among boxes of
    maximal |deviation| a positive one wins if any exists (so the caller
    only has to fall back to the complement flip when the maximum is
    attained by negative boxes alone); remaining ties go to the
    lexicographically smallest (lo, hi).
    """
    weights = M * (np.arange(M + 1) == color).astype(np.int64)[None, :] - 1
    (over, over_key), (under, under_key) = _scan_boxes(grid, weights)
    if over[0] >= under[0]:
        return int(over[0]), Box(lo=over_key[0], hi=over_key[1])
    return -int(under[0]), Box(lo=under_key[0], hi=under_key[1])


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
    check_axes(d + 1, d)  # the prefix table of ``_scan_boxes``
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
        _check_scan_budget(attempt_side, attempt_side, d, 1, None)  # before the grid
        grid = color_grid(coloring, attempt_side)
        tally = np.bincount(grid.reshape(-1), minlength=M + 1)[1:]
        total = attempt_side**d
        # smallest over-represented color: M * count >= side^d
        color = next(c + 1 for c in range(M) if M * int(tally[c]) >= total)
        dev, box = _witness_box(grid, M, color)
        if dev > 0:
            return WitnessCertificate(box=box, color=color, value=ScaledValue(dev, M), side=attempt_side)
        if dev < 0:
            pieces = complement_decompose(box, attempt_side)
            devs = [
                M * int(_box_color_counts(grid, piece, M)[color - 1]) - piece.cardinality
                for piece in pieces
            ]
            pos, best_piece = min(zip(devs, pieces), key=lambda pair: (-pair[0], pair[1].key()))
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


_ENTRY = '    {{\n      "color": {},\n      "disc_num": {},\n      "disc_plus_num": {}\n    }}'


def save_report(report: DiscReport, path) -> None:
    """Write ``json.dumps(report_to_dict(report), indent=2, sort_keys=True)`` and a newline.

    As in ``scheme_to_json_bytes``, the per-color entries are printed from
    one template into an empty list: the keys before it hold numbers.
    """
    data = report_to_dict(report)
    rows, data["per_color"] = data["per_color"], []
    head, tail = json.dumps(data, indent=2, sort_keys=True).split('"per_color": []', 1)
    entries = ",\n".join(
        _ENTRY.format(e["color"], "null" if e["disc_num"] is None else e["disc_num"],
                      e["disc_plus_num"])
        for e in rows
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{head}"per_color": [\n{entries}\n  ]{tail}\n')
