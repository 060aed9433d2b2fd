"""Brute-force reference implementations, independent of the package.

Everything here enumerates directly — no prefix tables, no running scans,
no shared helpers with the code under test — so agreement is meaningful.
Only fit for tiny instances.  ``coloring_from_net`` is the exception: it
reads an anchor map off a net's points, a route the package does not take
(the package reads maps off generator matrices), and takes and returns the
package's net and coloring types.
"""

import itertools
from fractions import Fraction

import numpy as np

from decluster.coloring import LatinColoring, verify_latin
from decluster.errors import InvalidNetError, ParameterError
from decluster.nets import base_exponent


def naive_disc(grid, M):
    """Complete enumeration of every (box, color) deviation.

    grid: numpy int array of shape (N,)*d holding colors 1..M.
    Returns a dict with scaled-by-M integer results:
      plus, plus_key   max positive deviation and its (lo, hi, color)
      abs, abs_key     max absolute deviation and its (lo, hi, color)
      per_color_plus   tuple: max (signed) deviation per color
      per_color_abs    tuple: max |deviation| per color
    Keys are tie-broken to the lexicographically smallest (lo, hi, color),
    matching the package's witness contract.
    """
    d = grid.ndim
    N = grid.shape[0]
    per_plus = [None] * M
    per_abs = [0] * M
    best_plus = None
    best_abs = None
    axis_ranges = [(lo, hi) for lo in range(1, N + 1) for hi in range(lo, N + 1)]
    for combo in itertools.product(axis_ranges, repeat=d):
        sl = tuple(slice(lo - 1, hi) for lo, hi in combo)
        size = 1
        for lo, hi in combo:
            size *= hi - lo + 1
        counts = np.bincount(grid[sl].reshape(-1), minlength=M + 1)
        lo_vec = tuple(p[0] for p in combo)
        hi_vec = tuple(p[1] for p in combo)
        for color in range(1, M + 1):
            dev = M * int(counts[color]) - size
            key = (lo_vec, hi_vec, color)
            if per_plus[color - 1] is None or dev > per_plus[color - 1]:
                per_plus[color - 1] = dev
            if abs(dev) > per_abs[color - 1]:
                per_abs[color - 1] = abs(dev)
            cand = (dev, key)
            if best_plus is None or dev > best_plus[0] or (
                dev == best_plus[0] and key < best_plus[1]
            ):
                best_plus = cand
            a = abs(dev)
            if best_abs is None or a > best_abs[0] or (
                a == best_abs[0] and key < best_abs[1]
            ):
                best_abs = (a, key)
    return {
        "plus": best_plus[0],
        "plus_key": best_plus[1],
        "abs": best_abs[0],
        "abs_key": best_abs[1],
        "per_color_plus": tuple(per_plus),
        "per_color_abs": tuple(per_abs),
    }


def naive_box_count(grid, lo, hi, color):
    """Count cells of one color in an inclusive 1-indexed box, cell by cell."""
    total = 0
    for cell in itertools.product(*[range(l, h + 1) for l, h in zip(lo, hi)]):
        if grid[tuple(c - 1 for c in cell)] == color:
            total += 1
    return total


def naive_net_check(points, b, m, d, t=0):
    """Point-by-point membership test of the net property.

    points: sequence of d-tuples of Fractions in [0, 1).
    Checks that every base-b interval of volume b^(t-m) holds exactly b^t
    points; returns (ok, first violating (levels, offsets) or None).
    """
    s = m - t
    if s == 0:
        return (len(points) == b**m, None)
    for levels in _compositions(s, d):
        offset_ranges = [range(b**l) for l in levels]
        for offsets in itertools.product(*offset_ranges):
            inside = 0
            for pt in points:
                if all(
                    Fraction(a, b**l) <= x < Fraction(a + 1, b**l)
                    for x, l, a in zip(pt, levels, offsets)
                ):
                    inside += 1
            if inside != b**t:
                return (False, (levels, offsets))
    return (True, None)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def naive_latin_ok(anchor_tensor, M):
    """Direct check that a coloring built from an anchor map is latin.

    Rebuilds the full [M]^d color cube by the shift rule and tests every
    row of every axis against the multiset {1..M}.
    """
    d = anchor_tensor.ndim + 1
    want = sorted(range(1, M + 1))
    cube = np.zeros((M,) * d, dtype=int)
    for u in itertools.product(range(M), repeat=d - 1):
        a = int(anchor_tensor[u])
        for x1 in range(1, M + 1):
            cube[(x1 - 1,) + u] = (x1 - a) % M + 1
    for axis in range(d):
        moved = np.moveaxis(cube, axis, -1)
        for idx in itertools.product(range(M), repeat=d - 1):
            row = sorted(int(v) for v in moved[idx])
            if row != want:
                return False
    return True


def naive_geometric(cells, n, G, d):
    """Max |count - n*vol| over half-open boxes with corners on the 1/G grid.

    cells: the per-axis grid cell (floor(coord * G)) of each point.
    Returns (numerator over G^d, (lo corner, hi corner) in 1/G units).
    """
    scale = G**d
    best = None
    axis_pairs = [(a, c) for a in range(G) for c in range(a + 1, G + 1)]
    for combo in itertools.product(axis_pairs, repeat=d):
        count = 0
        for cell in cells:
            if all(a <= x < c for x, (a, c) in zip(cell, combo)):
                count += 1
        vol_num = 1
        for a, c in combo:
            vol_num *= c - a
        dev = abs(count * scale - n * vol_num)
        key = (tuple(p[0] for p in combo), tuple(p[1] for p in combo))
        if best is None or dev > best[0] or (dev == best[0] and key < best[1]):
            best = (dev, key)
    return best


def coloring_from_net(net, M):
    """Anchor map read off a balanced digital point set, as a LatinColoring.

    Requires M = b^k for the net's base b and m = k*(d-1) digits.  Each point
    lands in the grid cell given by the first k digits of every coordinate;
    for a balanced point set those cells hit every axis-1 line exactly once,
    and the anchor map records where.
    """
    b, m, d = net.params.b, net.params.m, net.params.d
    k = base_exponent(M, b)
    if m != k * (d - 1):
        raise ParameterError(
            f"point set has m={m} digits per coordinate, need k*(d-1) = {k * (d - 1)}"
        )
    if d == 1:
        return LatinColoring(M=M, d=1, anchor=(1,))
    cells = net.coord_ints(k)  # (n, d), values in [0, M)
    ranks = np.zeros(net.n_points, dtype=np.int64)
    for i in range(1, d):
        ranks = ranks * M + cells[:, i]
    counts = np.bincount(ranks, minlength=M ** (d - 1))
    if counts.max() > 1:
        dup = int(np.argmax(counts > 1))
        raise InvalidNetError(
            f"two points share the axis-1 line at rank {dup}; "
            "the input point set is not balanced"
        )
    if counts.min() == 0:
        missing = int(np.argmax(counts == 0))
        raise InvalidNetError(f"no point on the axis-1 line at rank {missing}")
    anchor = np.empty(M ** (d - 1), dtype=np.int64)
    anchor[ranks] = cells[:, 0] + 1
    coloring = LatinColoring(M=M, d=d, anchor=anchor)
    check = verify_latin(coloring)
    if not check.ok:
        raise InvalidNetError(
            f"derived coloring is unbalanced along axis {check.axis}; "
            "the input point set is not balanced"
        )
    return coloring
