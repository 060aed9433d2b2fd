"""Disk colorings of the d-dimensional grid with the every-row-balanced property.

A coloring of [M]^d is stored through its *anchor map*: for every choice of
the trailing coordinates u = (x_2, ..., x_d), ``anchor(u)`` is the first
coordinate of the unique cell of color 1 on that line.  Color i then sits at
``x_1 = anchor(u) + (i - 1) (mod M)``, so color class i is color class 1
shifted i-1 steps along axis 1.  A coloring is *latin* when every
axis-parallel row of [M]^d carries every color exactly once; with this
representation that reduces to a property of the anchor map alone.

Blocks of a larger grid [N]^d are colored by reducing each coordinate
mod M into [M]^d, i.e. the base pattern tiles the whole grid.

The anchor map is held as one read-only int64 array, checked once when the
coloring is made; constructors build it with whole-array numpy operations
and the scheme writer prints it with one join, so no step of making,
checking or saving a coloring loops in Python over its M^(d-1) entries.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidNetError, ParameterError, SchemeFormatError
from .nets import DigitalNet, base_exponent

SCHEME_FORMAT_VERSION = 1

TRIVIAL_SINGLE_DISK = "trivial-single-disk"
DEGENERATE_TWO_DIM = "degenerate-planar-construction"

# Most axes a numpy array may have (32 before numpy 2.0).
MAX_AXES = 64 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 32


def check_axes(axes: int, d: int) -> None:
    """Refuse a d-dimensional job whose arrays need more axes than numpy has."""
    if axes > MAX_AXES:
        raise ParameterError(
            f"d={d} needs arrays of {axes} axes; numpy supports at most {MAX_AXES}"
        )


@dataclass(frozen=True)
class LatinColoring:
    """Anchor-map representation of a coloring of [M]^d with M colors.

    ``anchor`` is a flat tuple of length M^(d-1), row-major in
    (x_2, ..., x_d): the entry for u is at index
    sum((u_i - 1) * M**(d - 1 - i)).  All coordinates and colors are
    1-indexed.  It may be passed as any flat sequence or array of integers;
    it is converted once to a read-only int64 array (see ``anchor_tensor``),
    checked there, and kept as a tuple of Python ints.
    """

    M: int
    d: int
    anchor: tuple[int, ...]
    _flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.M < 1:
            raise ParameterError(f"M={self.M} must be >= 1")
        if self.d < 1:
            raise ParameterError(f"d={self.d} must be >= 1")
        raw = self.anchor
        # numpy reads True as 1 inside a list of ints, so refuse bools first
        if isinstance(raw, (list, tuple)) and not {bool, np.bool_}.isdisjoint(map(type, raw)):
            raise ParameterError("anchor entries must be integers, got a boolean")
        try:
            raw = np.asarray(raw)
        except (TypeError, ValueError) as exc:  # ragged nesting
            raise ParameterError(f"anchor must be a flat list of integers: {exc}") from None
        if raw.ndim != 1:
            raise ParameterError(f"anchor must be a flat list of integers, got {raw.ndim} axes")
        if not self._size_is(len(raw)):
            raise ParameterError(
                f"anchor has {len(raw)} entries, expected M^(d-1) with M={self.M}, d={self.d}"
            )
        if raw.dtype.kind not in "iu":
            raise ParameterError(f"anchor entries must be integers, got {raw.dtype} values")
        if int(raw.min()) < 1 or int(raw.max()) > min(self.M, np.iinfo(np.int64).max):
            raise ParameterError(f"anchor values must lie in [1, {self.M}]")
        flat = raw.astype(np.int64)
        flat.flags.writeable = False
        object.__setattr__(self, "_flat", flat)
        object.__setattr__(self, "anchor", tuple(flat.tolist()))

    def _size_is(self, n: int) -> bool:
        """Whether n == M^(d-1), without forming a huge power for a huge d."""
        if self.M == 1:
            return n == 1
        return self.d - 1 <= n.bit_length() and n == self.M ** (self.d - 1)

    def anchor_at(self, u: Sequence[int]) -> int:
        if len(u) != self.d - 1:
            raise ParameterError(f"expected {self.d - 1} trailing coordinates")
        rank = 0
        for v in u:
            if not 1 <= v <= self.M:
                raise ParameterError(f"coordinate {v} outside [1, {self.M}]")
            rank = rank * self.M + (v - 1)
        return self.anchor[rank]

    def color_of(self, cell: Sequence[int]) -> int:
        """Color of a cell of [M]^d (all coordinates in [1, M])."""
        if len(cell) != self.d:
            raise ParameterError(f"expected {self.d} coordinates")
        return (cell[0] - self.anchor_at(tuple(cell[1:]))) % self.M + 1

    @functools.cached_property
    def _anchor_array(self) -> np.ndarray:
        check_axes(self.d - 1, self.d)
        return self._flat.reshape((self.M,) * (self.d - 1))

    def anchor_tensor(self) -> np.ndarray:
        """Anchor map as a read-only int64 array of shape (M,) * (d-1).

        A view of the array checked at construction, shared by every call.
        ParameterError if d - 1 is more axes than numpy supports.
        """
        return self._anchor_array

    @functools.cached_property
    def _latin_check(self) -> "LatinCheck":
        return _check_rows(self)


@dataclass(frozen=True)
class Scheme:
    """A coloring plus how it was made; the unit of serialization.

    ``disk_of`` is the allocation map: block -> disk, for blocks of an
    arbitrarily large grid (the base pattern tiles with period M).
    """

    coloring: LatinColoring
    mode: str
    provenance: dict = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    @property
    def M(self) -> int:
        return self.coloring.M

    @property
    def d(self) -> int:
        return self.coloring.d

    def disk_of(self, block: Sequence[int]) -> int:
        if len(block) != self.d:
            raise ParameterError(f"expected {self.d} coordinates")
        M = self.M
        reduced = []
        for v in block:
            if v < 1:
                raise ParameterError(f"block coordinates are 1-indexed, got {v}")
            reduced.append((v - 1) % M + 1)
        return self.coloring.color_of(reduced)


@dataclass(frozen=True)
class LatinCheck:
    """Outcome of the balanced-rows check; first violating row if any."""

    ok: bool
    axis: int | None = None
    row_lo: tuple[int, ...] | None = None
    row_hi: tuple[int, ...] | None = None
    colors: tuple[int, ...] | None = None


def verify_latin(coloring: LatinColoring) -> LatinCheck:
    """Check that every axis-parallel row carries every color exactly once.

    Rows along axis 1 are balanced by construction of the representation, so
    the check reduces to: along every other axis, the anchor map restricted
    to a line takes every value in [1, M].  On failure the first violating
    row (ascending axis, then lexicographic position, with x_1 = 1 -- the
    violation is the same for every x_1) is reported with its colors.  The
    coloring is immutable, so the check runs once per coloring and later
    calls return the same result.
    """
    return coloring._latin_check


def _check_rows(coloring: LatinColoring) -> LatinCheck:
    M, d = coloring.M, coloring.d
    if d == 1 or M == 1:
        return LatinCheck(ok=True)
    tensor = coloring._anchor_array
    want = np.arange(1, M + 1, dtype=np.int64)
    for axis in range(d - 1):  # axis in the anchor tensor = grid axis (axis + 2)
        lines = np.sort(np.moveaxis(tensor, axis, -1), axis=-1)
        ok_lines = (lines == want).all(axis=-1)
        if ok_lines.all():
            continue
        # first bad line in lexicographic order of the fixed coordinates
        if ok_lines.shape:
            flat = int(np.argmax(~ok_lines.reshape(-1)))
            bad = np.unravel_index(flat, ok_lines.shape)
        else:
            bad = ()
        fixed = tuple(int(v) + 1 for v in bad)  # 1-indexed coords of other u-axes
        grid_axis = axis + 2
        u = list(fixed[:axis]) + [0] + list(fixed[axis:])
        lo = [1] * d
        hi = [1] * d
        colors = []
        for v in range(1, M + 1):
            u[axis] = v
            for k, uv in enumerate(u):
                lo[k + 1] = hi[k + 1] = uv
            colors.append(coloring.color_of([1] + u))
        lo[grid_axis - 1] = 1
        hi[grid_axis - 1] = M
        lo[0] = hi[0] = 1
        return LatinCheck(
            ok=False,
            axis=grid_axis,
            row_lo=tuple(lo),
            row_hi=tuple(hi),
            colors=tuple(colors),
        )
    return LatinCheck(ok=True)


def coloring_from_net(net: DigitalNet, M: int) -> LatinColoring:
    """Anchor map read off a balanced digital point set.

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


def _linear_anchor(M: int, weights: Sequence[int], offset: int) -> np.ndarray:
    """Flat anchor map (sum(w_i * u_i) + offset) mod M + 1 over u in [1, M]^(d-1).

    Row-major in u, so the last weight goes with the fastest axis.  Weights
    are reduced mod M first, which keeps every product below M^2.
    """
    total = np.array([offset % M], dtype=np.int64)
    u = np.arange(1, M + 1, dtype=np.int64)
    for w in weights:
        total = ((total[:, None] + (int(w) % M) * u) % M).reshape(-1)
    return total + 1


def make_baseline(
    kind: str,
    M: int,
    d: int,
    *,
    skews: Sequence[int] | None = None,
    seed: int | None = None,
) -> Scheme:
    """Reference colorings: ``checkerboard``, ``cyclic`` or ``random``.

    checkerboard: the parity coloring, M = 2 only.
    cyclic: anchor(u) = (sum(s_i * u_i) mod M) + 1 with per-axis skews
        (default all 1).  Skews must be invertible mod M to keep rows
        balanced.
    random: the cyclic coloring scrambled by independent uniformly random
        relabelings of each axis's coordinate values (axis 1 acts on anchor
        values), which preserves row balance.  Deterministic per seed.
    """
    if M < 1 or d < 1:
        raise ParameterError(f"need M >= 1 and d >= 1, got M={M}, d={d}")
    warnings = (TRIVIAL_SINGLE_DISK,) if M == 1 else ()
    if kind == "checkerboard":
        if M != 2:
            raise ParameterError(f"checkerboard requires M=2, got M={M}")
        coloring = LatinColoring(M=M, d=d, anchor=_linear_anchor(M, (1,) * (d - 1), 1))
        return Scheme(coloring=coloring, mode="checkerboard", provenance={})
    if kind == "cyclic":
        skews = tuple(int(s) for s in (skews if skews is not None else (1,) * (d - 1)))
        if len(skews) != d - 1:
            raise ParameterError(f"need {d - 1} skews, got {len(skews)}")
        coloring = LatinColoring(M=M, d=d, anchor=_linear_anchor(M, skews, 0))
        check = verify_latin(coloring)
        if not check.ok:
            raise ParameterError(
                f"skews {skews} do not keep rows balanced mod {M} "
                f"(axis {check.axis} row carries colors {check.colors})"
            )
        return Scheme(
            coloring=coloring,
            mode="cyclic",
            provenance={"skews": list(skews)},
            warnings=warnings,
        )
    if kind == "random":
        seed = 0 if seed is None else int(seed)
        rng = np.random.Generator(np.random.PCG64(seed))
        base = make_baseline("cyclic", M, d)
        perms = [rng.permutation(M) for _ in range(d)]  # 0-based value relabelings
        inv_perms = [np.argsort(p) for p in perms]
        tensor = base.coloring.anchor_tensor()
        for axis in range(d - 1):
            # relabel coordinate values of grid axis (axis + 2)
            tensor = np.take(tensor, inv_perms[axis + 1], axis=axis)
        relabeled = perms[0][tensor - 1] + 1  # axis-1 relabeling acts on anchor values
        coloring = LatinColoring(M=M, d=d, anchor=relabeled.reshape(-1))
        return Scheme(
            coloring=coloring,
            mode="random",
            provenance={"seed": seed, "base": "cyclic"},
            warnings=warnings,
        )
    raise ParameterError(f"unknown baseline kind {kind!r}")


def color_grid(source, extent: int) -> np.ndarray:
    """Colors of every block of [extent]^d as an int array of shape (N,)*d.

    ``source`` may be a Scheme, a LatinColoring, or a prebuilt integer array
    (useful for diagnostic colorings that are not row-balanced).
    """
    if isinstance(source, np.ndarray):
        return source
    coloring = source.coloring if isinstance(source, Scheme) else source
    if not isinstance(coloring, LatinColoring):
        raise ParameterError(f"cannot derive a color grid from {type(source).__name__}")
    if extent < 1:
        raise ParameterError(f"extent={extent} must be >= 1")
    M, d = coloring.M, coloring.d
    resid = np.arange(extent, dtype=np.int64) % M  # 0-based residues of 1..N
    if d == 1:
        anchor0 = coloring.anchor[0] - 1
        return ((resid - anchor0) % M + 1).astype(np.int64)
    check_axes(d, d)  # the grid
    tensor = coloring.anchor_tensor()  # (M,)*(d-1)
    anchors = tensor[np.ix_(*([resid] * (d - 1)))] - 1  # (N,)*(d-1), 0-based
    x1 = resid.reshape((extent,) + (1,) * (d - 1))
    return ((x1 - anchors) % M + 1).astype(np.int64)


# ---------------------------------------------------------------------------
# Serialization


def scheme_to_dict(scheme: Scheme) -> dict:
    return {
        "version": SCHEME_FORMAT_VERSION,
        "M": scheme.M,
        "d": scheme.d,
        "mode": scheme.mode,
        "anchor": list(scheme.coloring.anchor),
        "provenance": scheme.provenance,
        "warnings": list(scheme.warnings),
    }


def scheme_from_dict(data: dict) -> Scheme:
    if not isinstance(data, dict):
        raise SchemeFormatError("scheme document must be a JSON object")
    version = data.get("version")
    if version != SCHEME_FORMAT_VERSION:
        raise SchemeFormatError(
            f"unsupported scheme format version {version!r}, "
            f"expected {SCHEME_FORMAT_VERSION}"
        )
    try:
        M, d, mode, anchor = data["M"], data["d"], data["mode"], data["anchor"]
    except KeyError as exc:
        raise SchemeFormatError(f"malformed scheme document: missing {exc}") from exc
    for name, value in (("M", M), ("d", d)):
        if type(value) is not int:
            raise SchemeFormatError(f"{name} must be an integer, got {value!r}")
    if not isinstance(mode, str):
        raise SchemeFormatError(f"mode must be a string, got {mode!r}")
    try:
        coloring = LatinColoring(M=M, d=d, anchor=anchor)
    except ParameterError as exc:
        raise SchemeFormatError(str(exc)) from exc
    check = verify_latin(coloring)
    if not check.ok:
        raise SchemeFormatError(
            f"anchor map is not row-balanced: axis {check.axis} row at "
            f"{check.row_lo}..{check.row_hi} carries colors {check.colors}"
        )
    provenance = data.get("provenance", {})
    warnings = data.get("warnings", [])
    if not isinstance(provenance, dict):
        raise SchemeFormatError(f"provenance must be an object, got {provenance!r}")
    if not isinstance(warnings, list) or not all(isinstance(w, str) for w in warnings):
        raise SchemeFormatError(f"warnings must be a list of strings, got {warnings!r}")
    return Scheme(coloring=coloring, mode=mode, provenance=provenance, warnings=tuple(warnings))


def scheme_to_json_bytes(scheme: Scheme) -> bytes:
    """Canonical byte encoding: sorted keys, two-space indent, no timestamps.

    The bytes are ``json.dumps(scheme_to_dict(scheme), indent=2,
    sort_keys=True) + "\n"``.  json's indenting encoder is pure Python, so
    the anchor list, the bulk of the document, is printed by one join and
    put in place of an empty list: "anchor" sorts right after "M", whose
    value is a number, so the first '"anchor": []' in the text is its key.
    """
    doc = {**scheme_to_dict(scheme), "anchor": []}
    items = ",\n    ".join(map(str, scheme.coloring.anchor))
    text = json.dumps(doc, indent=2, sort_keys=True).replace(
        '"anchor": []', f'"anchor": [\n    {items}\n  ]', 1
    )
    return (text + "\n").encode()


def save_scheme(scheme: Scheme, path) -> None:
    with open(path, "wb") as fh:
        fh.write(scheme_to_json_bytes(scheme))


def load_scheme(path) -> Scheme:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # bad JSON or UTF-8, or an integer of too many digits
            raise SchemeFormatError(f"not valid JSON: {exc}") from exc
    return scheme_from_dict(data)


def export_map_csv(scheme: Scheme, extent: int, path) -> None:
    """Write the full block -> disk table for [extent]^d, lexicographic order."""
    d = scheme.d
    grid = color_grid(scheme, extent)
    header = [f"x{i}" for i in range(1, d + 1)] + ["disk"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for idx in np.ndindex(*grid.shape):
            writer.writerow([i + 1 for i in idx] + [int(grid[idx])])
