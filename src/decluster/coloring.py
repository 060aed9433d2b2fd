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
coloring is made, and the package reads only that array; the tuple of
Python ints that ``LatinColoring.anchor`` offers is built on first read.
Constructors build the array with whole-array numpy operations, the scheme
writer prints it from a matrix of ASCII digits, and the reader parses the
anchor list of a file in the writer's layout from its bytes.  So making,
checking and saving a coloring, and loading a long one, make no Python
object per anchor entry.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidNetError, ParameterError, SchemeFormatError, check_budget
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


class LatinColoring:
    """Anchor-map representation of a coloring of [M]^d with M colors.

    The anchor map is a flat sequence of length M^(d-1), row-major in
    (x_2, ..., x_d): the entry for u is at index
    sum((u_i - 1) * M**(d - 1 - i)).  All coordinates and colors are
    1-indexed.  It may be passed as any flat sequence or array of integers;
    it is converted once to a read-only int64 array and checked there (a
    read-only int64 array that owns its memory is kept as it is).  That
    array is the only form the coloring stores and the only one the package
    reads (``anchor_tensor`` is a view of it).  ``anchor``, the same values
    as a tuple of Python ints, is built on first read and cached.

    Colorings are immutable, and two are equal when M, d and the anchor
    values are.
    """

    def __init__(self, M: int, d: int, anchor):
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "d", d)
        if M < 1:
            raise ParameterError(f"M={M} must be >= 1")
        if d < 1:
            raise ParameterError(f"d={d} must be >= 1")
        raw = anchor
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
                f"anchor has {len(raw)} entries, expected M^(d-1) with M={M}, d={d}"
            )
        if raw.dtype.kind not in "iu":
            raise ParameterError(f"anchor entries must be integers, got {raw.dtype} values")
        if int(raw.min()) < 1 or int(raw.max()) > min(M, np.iinfo(np.int64).max):
            raise ParameterError(f"anchor values must lie in [1, {M}]")
        if raw.dtype == np.int64 and raw.flags.owndata and not raw.flags.writeable:
            flat = raw  # read-only and owning its memory: no view of it can write
        else:
            flat = raw.astype(np.int64)
            flat.flags.writeable = False
        object.__setattr__(self, "_flat", flat)

    def __setattr__(self, name, value):
        raise AttributeError(f"LatinColoring is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"LatinColoring is immutable; cannot delete {name!r}")

    def __eq__(self, other):
        if not isinstance(other, LatinColoring):
            return NotImplemented
        return (self.M, self.d) == (other.M, other.d) and np.array_equal(self._flat, other._flat)

    def __hash__(self):
        return hash((self.M, self.d, self._flat.tobytes()))

    def __repr__(self):
        return f"LatinColoring(M={self.M}, d={self.d}, anchor={self._flat!r})"

    @functools.cached_property
    def anchor(self) -> tuple[int, ...]:
        """The anchor map as a tuple of Python ints, built on first read."""
        return tuple(self._flat.tolist())

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
        return int(self._flat[rank])

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


def check_anchor_budget(M: int, d: int) -> None:
    """Refuse an anchor map of M^(d-1) cells beyond numpy's axes or the cell budget."""
    if M > 1:
        # verify and every scan read the map as an (M,)*(d-1) array; the axis
        # limit also keeps M**(d-1) a number the budget message can print
        check_axes(d - 1, d)
        check_budget(M ** (d - 1), f"M^(d-1) = {M}^{d - 1}")


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
        (default all 1).  Rows are balanced exactly when every skew is
        invertible mod M, which is checked in place of the rows.
    random: the cyclic coloring scrambled by independent uniformly random
        relabelings of each axis's coordinate values (axis 1 acts on anchor
        values), which preserves row balance.  Deterministic per seed.

    The M^(d-1) anchor cells are held to numpy's axis limit and the cell
    budget (``check_anchor_budget``) before any anchor is built.
    """
    if M < 1 or d < 1:
        raise ParameterError(f"need M >= 1 and d >= 1, got M={M}, d={d}")
    check_anchor_budget(M, d)
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
        # u -> s u + c is a bijection of Z_M exactly when gcd(s, M) = 1, so
        # that rule alone decides whether every row is balanced
        for axis, s in enumerate(skews, start=2):
            common = math.gcd(s, M)
            if common != 1:
                raise ParameterError(
                    f"skews {skews} do not keep rows balanced mod {M} "
                    f"(axis {axis}: gcd({s}, {M}) = {common})"
                )
        coloring = LatinColoring(M=M, d=d, anchor=_linear_anchor(M, skews, 0))
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
        anchor0 = coloring._flat[0] - 1
        return ((resid - anchor0) % M + 1).astype(np.int64)
    check_axes(d, d)  # the grid
    tensor = coloring.anchor_tensor()  # (M,)*(d-1)
    anchors = tensor[np.ix_(*([resid] * (d - 1)))] - 1  # (N,)*(d-1), 0-based
    x1 = resid.reshape((extent,) + (1,) * (d - 1))
    return ((x1 - anchors) % M + 1).astype(np.int64)


# ---------------------------------------------------------------------------
# Serialization


def _document(scheme: Scheme, anchor) -> dict:
    """The scheme document, with ``anchor`` as the value of its "anchor" key."""
    return {
        "version": SCHEME_FORMAT_VERSION,
        "M": scheme.M,
        "d": scheme.d,
        "mode": scheme.mode,
        "anchor": anchor,
        "provenance": scheme.provenance,
        "warnings": list(scheme.warnings),
    }


def scheme_to_dict(scheme: Scheme) -> dict:
    return _document(scheme, scheme.coloring._flat.tolist())


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


# Anchor entries printed per block, so that ``save_scheme`` never holds a
# long anchor map as text all at once.
_ANCHOR_BLOCK = 1 << 16
_ITEM_SEP = b",\n    "  # between two entries of a list at indent level 2


def scheme_to_json_bytes(scheme: Scheme) -> bytes:
    """Canonical byte encoding: sorted keys, two-space indent, no timestamps.

    The bytes are ``json.dumps(scheme_to_dict(scheme), indent=2,
    sort_keys=True) + "\n"``.  json's indenting encoder is pure Python, so
    the document is printed with an empty anchor list and the entries are
    put in its place by ``_anchor_text``: "anchor" sorts right after "M",
    whose value is a number, so the first '"anchor": []' in the text is its
    key.  ``save_scheme`` writes the same blocks to the file one by one.
    """
    return b"".join(_json_blocks(scheme))


def _json_blocks(scheme: Scheme):
    """The bytes of ``scheme_to_json_bytes`` as a sequence of blocks."""
    text = json.dumps(_document(scheme, []), indent=2, sort_keys=True)
    head, tail = text.split('"anchor": []', 1)
    yield f'{head}"anchor": [\n    '.encode()
    yield from _anchor_text(scheme.coloring._flat)
    yield f"\n  ]{tail}\n".encode()


def _anchor_text(flat: np.ndarray):
    """The entries of ``flat`` (all >= 1) as JSON integers joined by ``_ITEM_SEP``.

    Each block of entries becomes a matrix with one row per entry: its
    decimal digits right-aligned in as many columns as the largest entry
    has, then the separator.  Columns left of an entry's first digit hold
    NUL bytes, and one mask over the matrix drops them, which leaves the
    row-major bytes of the printed list.  The last entry loses its
    separator.
    """
    width = len(str(int(flat.max())))
    rows = np.empty((min(flat.size, _ANCHOR_BLOCK), width + len(_ITEM_SEP)), np.uint8)
    rows[:, width:] = np.frombuffer(_ITEM_SEP, np.uint8)
    dtype = np.uint32 if width <= 9 else np.int64  # entries below 10^9 fit in 32 bits
    for start in range(0, flat.size, _ANCHOR_BLOCK):
        rest = flat[start : start + _ANCHOR_BLOCK].astype(dtype)
        block = rows[: rest.size]
        for col in range(width - 1, -1, -1):
            printed = rest != 0  # the entry still has digits at this column
            rest, digit = np.divmod(rest, 10)
            digit += ord("0")
            digit *= printed
            block[:, col] = digit
        text = block[block != 0]
        yield text if start + _ANCHOR_BLOCK < flat.size else text[: -len(_ITEM_SEP)]


def save_scheme(scheme: Scheme, path) -> None:
    with open(path, "wb") as fh:
        fh.writelines(_json_blocks(scheme))


def load_scheme(path) -> Scheme:
    """Read a scheme file: ``scheme_from_dict(json.loads(text))``.

    Same result or error as that, word for word, with one speed-up: in a
    file laid out as ``scheme_to_json_bytes`` writes it, the top-level
    anchor list goes to numpy as bytes (``_anchor_values``), so no Python
    int is made per entry; ``_read_document`` says when, and why that gives
    json's value.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    data = _read_document(blob)
    if data is None:
        try:
            data = json.loads(blob.decode("utf-8"))
        except ValueError as exc:  # bad JSON or UTF-8, or an integer of too many digits
            raise SchemeFormatError(f"not valid JSON: {exc}") from exc
    return scheme_from_dict(data)


_ANCHOR_OPEN = b'\n  "anchor": ['  # the top-level key as the writer prints it
# Shorter anchor lists are left to json: its C scanner reads them faster than
# numpy's fixed cost per call.
_NUMPY_MIN_BODY = 4096
_CUT = object()  # what the one NaN put in place of the anchor list parses to
_CUT_DECODER = json.JSONDecoder(parse_constant=lambda name: _CUT)


def _read_document(blob: bytes) -> dict | None:
    """``json.loads(blob)``, with the anchor list as an int64 array, or None.

    Let ``start`` follow the first ``\\n  "anchor": [`` of the file and
    ``end`` be the first "]" after it, and let ``rest`` be the file with
    blob[start:end] replaced by ``NaN``.  The array is returned only when
    (i) ``_anchor_values`` reads blob[start:end] as a nonempty list of
    plain integers, (ii) ``rest`` holds no other "NaN" and no "Infinity",
    (iii) ``rest`` parses, with constants mapped to ``_CUT``, and (iv) the
    parsed top-level "anchor" value is the list [_CUT].  Then the span is
    the value json gives the top-level key:

    - The NaN at ``start`` is a value token.  A parsed JSON text has no raw
      newline inside a string, so the newline of the key pattern is outside
      one, ``"anchor"`` after it is a whole string token, and ``: [`` puts
      a value at ``start``.  (The pattern is ASCII, and no byte of a
      multi-byte UTF-8 character is, so bytes found are characters read.)  By (ii) no other token is a constant, so
      ``_CUT`` occurs once in the parsed document, as the one element of
      the list ``[NaN]`` at blob[start - 1:end + 1].
    - By (iv) that list is what json keeps for the top-level key "anchor"
      (the last one, if the key repeats).  A nested "anchor", a repeated
      key or a file laid out another way makes (iv) or (iii) fail.
    - blob[start:end] holds no quote, bracket or brace, so json.loads(blob)
      reads the same tokens as ``rest`` outside the span, and inside it
      the integers that ``_anchor_values`` reads.  Every other value is the
      one parsed from ``rest``.

    None sends the caller to plain json, which then gives its own result
    or error.
    """
    start = blob.find(_ANCHOR_OPEN) + len(_ANCHOR_OPEN)
    end = blob.find(b"]", start)
    if start < len(_ANCHOR_OPEN) or end - start < _NUMPY_MIN_BODY:
        return None
    rest = blob[:start] + b"NaN" + blob[end:]
    if rest.count(b"NaN") != 1 or b"Infinity" in rest:
        return None
    try:
        data = _CUT_DECODER.decode(rest.decode("utf-8"))
    except ValueError:
        return None
    cut = data.get("anchor") if type(data) is dict else None
    if type(cut) is not list or len(cut) != 1 or cut[0] is not _CUT:
        return None
    anchor = _anchor_values(blob, start, end)
    if anchor is None:
        return None
    data["anchor"] = anchor
    return data


_BODY_BLOCK = 1 << 18  # bytes of an anchor list read per block
_DIGIT_VALUE = np.zeros(256, dtype=np.int64)
_DIGIT_VALUE[ord("0") : ord("9") + 1] = np.arange(10)


def _anchor_values(blob: bytes, start: int, end: int) -> np.ndarray | None:
    """The integers of the JSON array body blob[start:end], or None.

    The body is read in blocks of about ``_BODY_BLOCK`` bytes, each cut
    after a comma; ``_digit_block`` reads a block.
    """
    parts = []
    while True:
        cut = blob.find(b",", min(start + _BODY_BLOCK, end), end)
        values = _digit_block(blob[start : end if cut < 0 else cut])
        if values is None:
            return None
        parts.append(values)
        if cut < 0:
            values = parts[0] if len(parts) == 1 else np.concatenate(parts)
            values.flags.writeable = False  # so LatinColoring keeps it without a copy
            return values
        start = cut + 1


def _digit_block(chunk: bytes) -> np.ndarray | None:
    """Values of ``chunk`` as an int64 array if it is a list body json reads the same way.

    Accepted: one or more integers of 1 to 18 digits (so they fit in
    int64) without a leading zero, separated by single commas, with spaces
    and newlines anywhere between tokens.  json reads such a body as those
    integers.  Anything else gives None: signs, exponents, fractions,
    literals, other whitespace, empty items, a trailing comma, an empty
    body, longer integers.

    With the whitespace removed, values end at commas and at the end, so
    their digit runs, lengths and place values come from the comma
    positions; a chunk with fewer digit runs than values had whitespace
    inside a value.  Each value is then summed over its digits by place
    value, one digit position at a time from the right.
    """
    packed = chunk.translate(None, b" \n")
    if not packed or packed.translate(None, b"0123456789,"):
        return None
    text = np.frombuffer(packed, np.uint8)
    commas = np.flatnonzero(text == ord(","))
    ends = np.append(commas, text.size)  # one past each value's last digit
    lengths = ends - np.concatenate(([0], commas + 1))
    digit = np.frombuffer(chunk, np.uint8) >= ord("0")
    runs = (np.count_nonzero(digit[1:] != digit[:-1]) + int(digit[0]) + int(digit[-1])) // 2
    if runs != ends.size or lengths.min() < 1 or lengths.max() > 18:
        return None
    if ((text[ends - lengths] == ord("0")) & (lengths > 1)).any():
        return None
    last = ends - 1
    values = _DIGIT_VALUE[text[last]]
    for k in range(1, int(lengths.max())):
        # last - k < 0 only where lengths <= k, which np.where drops
        values += np.where(lengths > k, _DIGIT_VALUE[text[last - k]], 0) * 10**k
    return values


def export_map_csv(scheme: Scheme, extent: int, path) -> None:
    """Write the full block -> disk table for [extent]^d, lexicographic order.

    The extent^d grid is held to the cell budget before it is built.
    """
    d = scheme.d
    check_axes(d, d)  # color_grid's own limit, first: it keeps extent**d printable
    check_budget(extent**d, f"N^d = {extent}^{d}")
    grid = color_grid(scheme, extent)
    header = [f"x{i}" for i in range(1, d + 1)] + ["disk"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for idx in np.ndindex(*grid.shape):
            writer.writerow([i + 1 for i in idx] + [int(grid[idx])])
