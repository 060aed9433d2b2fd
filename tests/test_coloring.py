"""Latin colorings: anchor maps, baselines, tiling, serialization."""

import functools
import itertools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decluster import coloring
from decluster.coloring import (
    DEGENERATE_TWO_DIM,
    TRIVIAL_SINGLE_DISK,
    LatinColoring,
    Scheme,
    color_grid,
    export_map_csv,
    load_scheme,
    make_baseline,
    save_scheme,
    scheme_from_dict,
    scheme_to_dict,
    scheme_to_json_bytes,
    verify_latin,
)
from decluster.errors import (
    BudgetExceededError,
    InvalidNetError,
    ParameterError,
    SchemeFormatError,
)
from decluster.nets import (
    DigitalNet,
    NetParams,
    net_from_generators,
    pascal_power_generators,
)
from decluster.schemegen import generate_scheme
from oracles import coloring_from_net, naive_latin_ok


def identity_net(b):
    """The one-digit two-dimensional net {(i/b, i/b)}."""
    digits = np.arange(b).repeat(2).reshape(b, 2, 1)
    return DigitalNet(NetParams(b=b, m=1, d=2), digits)


# -- anchor maps read off nets (the points-based reference) -------------------


def test_identity_net_gives_diagonal_anchor():
    col = coloring_from_net(identity_net(5), 5)
    assert col.anchor_tensor().tolist() == [1, 2, 3, 4, 5]
    col2 = coloring_from_net(identity_net(2), 2)
    assert col2.anchor_tensor().tolist() == [1, 2]


def test_base2_net_m2_anchor():
    net = net_from_generators(pascal_power_generators(2, 2, 2))
    col = coloring_from_net(net, 4)
    # cells of the 4 points: (1,1), (3,3), (2,4), (4,2)
    assert col.anchor_tensor().tolist() == [1, 4, 3, 2]
    assert col.color_of((3, 2)) == 4
    assert col.color_of((1, 1)) == 1


def test_smallbase_three_dimensional():
    # b=2, d=3, m=4 -> M=4 needs k=2: m = k(d-1) = 4
    net = net_from_generators(pascal_power_generators(2, 3, 4))
    col = coloring_from_net(net, 4)
    assert col.d == 3 and col.M == 4
    assert verify_latin(col).ok
    assert naive_latin_ok(col.anchor_tensor(), 4)


def test_anchor_tensor_is_built_once_and_read_only():
    col = make_baseline("random", 5, 3, seed=1).coloring
    tensor = col.anchor_tensor()
    assert tensor is col.anchor_tensor()
    assert tensor.dtype == np.int64 and tensor.shape == (5, 5)
    assert tensor[1, 2] == col.anchor_at((2, 3))  # row-major in (x_2, x_3)
    with pytest.raises(ValueError):
        tensor[0, 0] = 1


def test_anchor_is_converted_and_checked_once():
    given = np.array([2, 3, 1])
    col = LatinColoring(M=3, d=2, anchor=given)
    assert col.anchor_tensor().dtype == np.int64
    given[0] = 1  # the coloring holds its own copy
    assert col.anchor_tensor().tolist() == [2, 3, 1]
    # no 99- or 69-axis array is formed
    assert LatinColoring(M=1, d=100, anchor=[1]).color_of((1,) * 100) == 1
    assert make_baseline("cyclic", 1, 70).coloring.color_of((1,) * 70) == 1
    bad = [[2.0, 3, 1], ["2", 3, 1], [2, 3, True], [2, 3, [1]], [[2, 3, 1]], [2, 3, 2**70],
           [2, 3, 0], [2, 3], 7, None]
    for anchor in bad:
        with pytest.raises(ParameterError):
            LatinColoring(M=3, d=2, anchor=anchor)
    with pytest.raises(ParameterError, match="entries"):  # no 2^(10^9) is formed
        LatinColoring(M=2, d=10**9, anchor=[1, 2])


def test_color_class_one_is_the_anchor_set():
    net = net_from_generators(pascal_power_generators(3, 2, 1))
    col = coloring_from_net(net, 3)
    for u in range(1, 4):
        assert col.color_of((col.anchor_at((u,)), u)) == 1


def test_coloring_from_net_parameter_mismatches():
    net = net_from_generators(pascal_power_generators(2, 2, 2))  # b=2, m=2, d=2
    with pytest.raises(ParameterError, match="power"):
        coloring_from_net(net, 3)  # no k with 2^k = 3
    with pytest.raises(ParameterError, match="m"):
        coloring_from_net(net, 8)  # k=3 needs m = 3, net has m=2


def test_coloring_from_net_detects_cell_collision():
    # two points in one grid cell: not a valid source for M=2 (k=1 needs m=1,
    # so feed a crafted m=1 "net" bypassing the constructor gate)
    bad = DigitalNet(NetParams(b=2, m=1, d=2), np.array([[[0], [0]], [[0], [1]]]))
    with pytest.raises(InvalidNetError):
        coloring_from_net(bad, 2)


# -- the shift rule and tiling -------------------------------------------------


def test_color_of_shift_formula():
    col = LatinColoring(M=3, d=2, anchor=(2, 3, 1))
    assert col.anchor_at((1,)) == 2
    assert col.color_of((2, 1)) == 1
    assert col.color_of((3, 1)) == 2
    assert col.color_of((1, 1)) == 3


def test_disk_of_periodicity():
    scheme = make_baseline("cyclic", 5, 3)
    block = (2, 4, 3)
    base = scheme.disk_of(block)
    for axis in range(3):
        shifted = list(block)
        shifted[axis] += 5
        assert scheme.disk_of(shifted) == base
    assert scheme.disk_of((6, 1, 1)) == scheme.disk_of((1, 1, 1))


def test_disk_of_worked_example():
    net = net_from_generators(pascal_power_generators(2, 2, 2))
    scheme = Scheme(coloring=coloring_from_net(net, 4), mode="paper")
    assert scheme.disk_of((7, 6)) == 4  # reduces to (3, 2)
    with pytest.raises(ParameterError):
        scheme.disk_of((0, 1))
    with pytest.raises(ParameterError):
        scheme.disk_of((1,))


def test_shift_structure():
    # color class i is class 1 translated by i-1 along axis 1
    scheme = make_baseline("random", 6, 2, seed=3)
    grid = color_grid(scheme, 6)
    for i in range(2, 7):
        rolled = np.roll(grid == 1, i - 1, axis=0)
        assert np.array_equal(grid == i, rolled)


def test_class_sizes():
    for M, d in [(4, 2), (5, 3), (3, 4)]:
        scheme = make_baseline("cyclic", M, d)
        grid = color_grid(scheme, M)
        counts = np.bincount(grid.reshape(-1), minlength=M + 1)[1:]
        assert all(c == M ** (d - 1) for c in counts)


# -- baselines ----------------------------------------------------------------


def test_checkerboard():
    scheme = make_baseline("checkerboard", 2, 2)
    assert scheme.coloring.anchor_tensor().tolist() == [1, 2]
    assert scheme.coloring.color_of((1, 1)) == 1
    assert scheme.coloring.color_of((1, 2)) == 2
    assert scheme.disk_of((3, 4)) == 2
    # parity of the 1-based coordinate sum, in any dimension
    s3 = make_baseline("checkerboard", 2, 3)
    grid = color_grid(s3, 4)
    for cell in itertools.product(range(1, 5), repeat=3):
        assert grid[tuple(c - 1 for c in cell)] == (sum(cell) % 2) + 1


def test_checkerboard_needs_two_disks():
    with pytest.raises(ParameterError, match="M=2"):
        make_baseline("checkerboard", 3, 2)


def test_cyclic_anchor_formula():
    scheme = make_baseline("cyclic", 5, 3, skews=(1, 1))
    col = scheme.coloring
    for x2 in range(1, 6):
        for x3 in range(1, 6):
            assert col.anchor_at((x2, x3)) == (x2 + x3) % 5 + 1


def test_cyclic_bad_skews_rejected():
    # skew 2 is not invertible mod 4: rows along that axis repeat colors
    with pytest.raises(ParameterError, match="skews"):
        make_baseline("cyclic", 4, 2, skews=(2,))


def _cyclic_skews(M, d):
    """Every skew in [-M, 2M] on every axis, the other axes' skews drawn from it too."""
    rng = np.random.default_rng(M)
    for axis in range(d - 1):
        for s in range(-M, 2 * M + 1):
            skews = rng.integers(-M, 2 * M + 1, size=d - 1).tolist()
            skews[axis] = s
            yield tuple(skews)


@pytest.mark.parametrize("d", [2, 3])
def test_cyclic_skew_rule_agrees_with_verify_latin(d):
    # make_baseline decides by gcd(s_i, M) = 1 without checking rows; the
    # rows of the map it would build decide the same, and name the same axis
    for M in range(1, 31):
        u = np.arange(1, M + 1)
        for skews in _cyclic_skews(M, d):
            total = sum(s * x for s, x in zip(skews, np.ix_(*[u] * (d - 1))))
            anchor = (total % M + 1).reshape(-1)
            check = verify_latin(LatinColoring(M=M, d=d, anchor=anchor))
            if check.ok:
                scheme = make_baseline("cyclic", M, d, skews=skews)
                assert np.array_equal(scheme.coloring.anchor_tensor().reshape(-1), anchor)
            else:
                with pytest.raises(ParameterError, match=rf"skews .*\(axis {check.axis}:"):
                    make_baseline("cyclic", M, d, skews=skews)


def test_random_baseline_deterministic():
    a = make_baseline("random", 7, 2, seed=11)
    b = make_baseline("random", 7, 2, seed=11)
    c = make_baseline("random", 7, 2, seed=12)
    assert a.coloring == b.coloring
    assert a.coloring != c.coloring
    assert verify_latin(c.coloring).ok


def test_single_disk_warning():
    scheme = make_baseline("cyclic", 1, 2)
    assert TRIVIAL_SINGLE_DISK in scheme.warnings
    assert scheme.disk_of((9, 4)) == 1


@pytest.mark.parametrize(
    "kind, M, d", [("cyclic", 100_000, 3), ("random", 100_000, 3), ("checkerboard", 2, 28)]
)
def test_make_baseline_refuses_an_anchor_map_over_budget_before_building_it(
    monkeypatch, kind, M, d
):
    def refuse(*args):
        raise AssertionError("built an anchor map before checking the budget")

    monkeypatch.delenv("DECLUSTER_MAX_CELLS", raising=False)
    monkeypatch.setattr(coloring, "_linear_anchor", refuse)
    with pytest.raises(BudgetExceededError) as err:
        make_baseline(kind, M, d)
    cells = M ** (d - 1)
    assert str(err.value).startswith(
        f"M^(d-1) = {M}^{d - 1} = {cells} cells exceeds the cell budget 100000000"
    )


def test_make_baseline_refuses_more_anchor_axes_than_numpy_has(monkeypatch):
    def refuse(*args):
        raise AssertionError("built an anchor map before checking the axes")

    monkeypatch.setattr(coloring, "_linear_anchor", refuse)
    limit = coloring.MAX_AXES
    with pytest.raises(ParameterError, match=f"d={limit + 2} needs arrays of {limit + 1} axes"):
        make_baseline("cyclic", 2, limit + 2)


def test_unknown_baseline_kind():
    with pytest.raises(ParameterError, match="kind"):
        make_baseline("zigzag", 4, 2)


# -- verify_latin --------------------------------------------------------------


def test_verify_latin_passes_for_net_colorings():
    net = net_from_generators(pascal_power_generators(3, 3, 2))
    assert verify_latin(coloring_from_net(net, 3)).ok


def test_verify_latin_duplicate_anchor():
    check = verify_latin(LatinColoring(M=2, d=2, anchor=(1, 1)))
    assert not check.ok
    assert check.axis == 2
    assert check.row_lo == (1, 1)
    assert check.row_hi == (1, 2)
    assert check.colors == (1, 1)


def test_verify_latin_reports_first_violation_in_3d():
    # anchor on [3]^2: break exactly one line of the second anchor axis
    anchor = [
        1, 2, 3,
        2, 3, 1,
        3, 1, 3,  # (x2=3, x3=3) duplicates value 3 -> axis-2 and axis-3 rows break
    ]
    check = verify_latin(LatinColoring(M=3, d=3, anchor=tuple(anchor)))
    assert not check.ok
    assert check.axis == 2  # smallest violating axis reported first
    assert check.row_lo == (1, 1, 3)
    assert check.row_hi == (1, 3, 3)


def test_verify_latin_vacuous_cases():
    assert verify_latin(LatinColoring(M=1, d=3, anchor=(1,) * 1)).ok
    assert verify_latin(LatinColoring(M=4, d=1, anchor=(1,))).ok


@settings(max_examples=60, deadline=None)
@given(
    M=st.integers(min_value=1, max_value=4),
    d=st.integers(min_value=2, max_value=3),
    data=st.data(),
)
def test_verify_latin_matches_naive(M, d, data):
    anchor = tuple(
        data.draw(st.integers(min_value=1, max_value=M))
        for _ in range(M ** (d - 1))
    )
    col = LatinColoring(M=M, d=d, anchor=anchor)
    assert verify_latin(col).ok == naive_latin_ok(col.anchor_tensor(), M)


# -- color_grid ----------------------------------------------------------------


def test_color_grid_matches_disk_of():
    scheme = make_baseline("random", 4, 2, seed=5)
    grid = color_grid(scheme, 9)
    for x1 in range(1, 10):
        for x2 in range(1, 10):
            assert grid[x1 - 1, x2 - 1] == scheme.disk_of((x1, x2))


def test_color_grid_passes_raw_arrays_through():
    ok = np.ones((3, 3), dtype=np.int64)
    assert color_grid(ok, 3) is ok
    with pytest.raises(ParameterError):
        color_grid("not a coloring", 3)


# -- serialization ---------------------------------------------------------------


def test_scheme_dict_shape():
    scheme = make_baseline("cyclic", 3, 2)
    data = scheme_to_dict(scheme)
    assert data["version"] == 1
    assert data["M"] == 3 and data["d"] == 2
    assert data["mode"] == "cyclic"
    assert data["anchor"] == [2, 3, 1]
    assert scheme_from_dict(data).coloring == scheme.coloring


def test_scheme_json_bytes_canonical():
    scheme = make_baseline("random", 5, 2, seed=1)
    assert scheme_to_json_bytes(scheme) == scheme_to_json_bytes(scheme)
    text = scheme_to_json_bytes(scheme).decode()
    assert json.loads(text)["M"] == 5


def test_scheme_file_roundtrip(tmp_path):
    scheme = make_baseline("cyclic", 4, 3)
    path = tmp_path / "scheme.json"
    save_scheme(scheme, path)
    back = load_scheme(path)
    assert back.coloring == scheme.coloring
    assert back.mode == scheme.mode
    assert back.provenance == scheme.provenance
    # byte-identical re-export
    path2 = tmp_path / "again.json"
    save_scheme(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_scheme_import_rejects_future_version():
    data = scheme_to_dict(make_baseline("cyclic", 3, 2))
    data["version"] = 2
    with pytest.raises(SchemeFormatError, match="version"):
        scheme_from_dict(data)


def test_scheme_import_rejects_non_latin_anchor():
    data = scheme_to_dict(make_baseline("cyclic", 3, 2))
    data["anchor"] = [1, 1, 2]
    with pytest.raises(SchemeFormatError):
        scheme_from_dict(data)


def test_scheme_import_rejects_malformed():
    with pytest.raises(SchemeFormatError):
        scheme_from_dict({"version": 1, "M": 3})
    data = scheme_to_dict(make_baseline("cyclic", 3, 2))
    data["anchor"] = [0, 1, 2]
    with pytest.raises(SchemeFormatError):
        scheme_from_dict(data)


# -- scheme file reader ---------------------------------------------------------


@functools.cache
def _canonical_blobs() -> tuple[bytes, ...]:
    specs = [("cyclic", 7, 2), ("random", 12, 3), ("checkerboard", 2, 5), ("random", 150, 2),
             ("cyclic", 40, 3), ("random", 1001, 2)]
    blobs = [scheme_to_json_bytes(make_baseline(kind, M, d, seed=3)) for kind, M, d in specs]
    nets = ((9, "paper"), (16, "smallbase"))
    return tuple(blobs + [scheme_to_json_bytes(generate_scheme(M, 3, mode)) for M, mode in nets])


def _anchor_span(blob: bytes) -> tuple[int, int]:
    start = blob.index(b'"anchor": [') + len(b'"anchor": [')
    return start, blob.index(b"]", start)


_TOKENS = [b"-1", b"+1", b"1e2", b"1.0", b"true", b"null", b'"3"', b"-0", b"00", b"1" * 19,
           b"9" * 25, b"1 2", b"0"]
_SEPARATORS = [b",\t", b",\r\n    ", b" , ", b",\n\n", b"\r\n,", b",,", b"\t,\t"]


def _mutate(blob: bytes, kind: str, data) -> bytes:
    """One edit of a canonical scheme document (see test_load_scheme_matches_json)."""
    start, end = _anchor_span(blob)
    body = blob[start:end]
    entries = body.split(b",")
    other = b",".join(reversed(entries))  # same length, other order
    pick = data.draw(st.integers(0, len(entries) - 1))
    if kind == "digit":
        at = data.draw(st.sampled_from([i for i, c in enumerate(body) if 48 <= c <= 57]))
        body = body[:at] + bytes([data.draw(st.integers(48, 57))]) + body[at + 1:]
    elif kind == "leading-zero":
        entries[pick] = entries[pick].replace(b" ", b"").replace(b"\n", b"")
        entries[pick] = b"\n    0" + entries[pick]
        body = b",".join(entries)
    elif kind == "token":
        entries[pick] = b"\n    " + data.draw(st.sampled_from(_TOKENS))
        body = b",".join(entries)
    elif kind == "separator":
        head, tail = b",".join(entries[: pick + 1]), b",".join(entries[pick + 1:])
        body = head + data.draw(st.sampled_from(_SEPARATORS)) + tail if tail else head
    elif kind == "trailing-comma":
        body += b","
    elif kind == "empty":
        body = b""
    elif kind == "crlf":
        return blob.replace(b"\n", b"\r\n")
    elif kind == "compact":
        return json.dumps(json.loads(blob)).encode()
    elif kind == "reindented":
        doc = json.loads(blob)  # provenance first, holding an "anchor" of its own
        provenance = {**doc.pop("provenance"), "anchor": doc["anchor"][::-1]}
        return json.dumps({"provenance": provenance, **doc}, indent=2).encode()
    elif kind == "nested-first":  # a nested "anchor" at indent 2, before the real one
        return blob.replace(b"{", b'{\n  "provenance": {\n  "anchor": [' + other + b"]},", 1)
    elif kind == "duplicate-first":  # json keeps the last of a repeated key
        return blob.replace(b"{", b'{\n  "anchor": [' + other + b"],", 1)
    elif kind == "duplicate-last":
        return blob[: blob.rindex(b"}")] + b',\n  "anchor": [' + other + b"]\n}\n"
    elif kind == "constant-elsewhere":
        return blob.replace(b"{", b'{\n  "extra": NaN,', 1)
    return blob[:start] + body + blob[end:]


def _reference_load(blob: bytes) -> Scheme:
    """What load_scheme must give: json.loads of the text, then scheme_from_dict."""
    try:
        data = json.loads(blob.decode("utf-8"))
    except ValueError as exc:
        raise SchemeFormatError(f"not valid JSON: {exc}") from exc
    return scheme_from_dict(data)


def _outcome(load, arg):
    try:
        return "ok", load(arg)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)


_MUTATIONS = ["none", "digit", "leading-zero", "token", "separator", "trailing-comma", "empty",
              "crlf", "compact", "reindented", "nested-first", "duplicate-first",
              "duplicate-last", "constant-elsewhere"]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), kind=st.sampled_from(_MUTATIONS),
       numpy_min=st.sampled_from([0, coloring._NUMPY_MIN_BODY]),
       block=st.sampled_from([8, 64, coloring._BODY_BLOCK]))
def test_load_scheme_matches_json(data, kind, numpy_min, block):
    blob = _mutate(data.draw(st.sampled_from(_canonical_blobs())), kind, data)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(coloring, "_NUMPY_MIN_BODY", numpy_min)
        mp.setattr(coloring, "_BODY_BLOCK", block)
        path = Path(tmp) / "scheme.json"
        path.write_bytes(blob)
        got = _outcome(load_scheme, path)
    assert got == _outcome(_reference_load, blob)
    if kind == "none":
        assert got[0] == "ok" and scheme_to_json_bytes(got[1]) == blob


def test_load_scheme_hands_the_coloring_one_array(tmp_path, monkeypatch):
    # a long canonical anchor reaches the coloring as an array, not a list
    # of Python ints, and is kept without a copy
    scheme = make_baseline("cyclic", 40, 3)
    save_scheme(scheme, tmp_path / "s.json")
    handed, init = [], LatinColoring.__init__

    def spy(self, M, d, anchor):
        handed.append(anchor)
        init(self, M, d, anchor)

    monkeypatch.setattr(LatinColoring, "__init__", spy)
    back = load_scheme(tmp_path / "s.json")
    assert back == scheme and len(handed) == 1
    assert back.coloring.anchor_tensor().base is handed[0]
    # a read-only view of a writeable array is still copied
    base = np.array([2, 3, 1])
    view = base[:]
    view.flags.writeable = False
    col = LatinColoring(M=3, d=2, anchor=view)
    base[0] = 1
    assert col.anchor_tensor().tolist() == [2, 3, 1]


# -- CSV export -------------------------------------------------------------------


def test_export_map_csv(tmp_path):
    scheme = make_baseline("checkerboard", 2, 2)
    path = tmp_path / "map.csv"
    export_map_csv(scheme, 2, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x1,x2,disk"
    assert lines[1:] == ["1,1,1", "1,2,2", "2,1,2", "2,2,1"]


def test_export_map_csv_3d_order(tmp_path):
    scheme = make_baseline("cyclic", 2, 3)
    path = tmp_path / "map.csv"
    export_map_csv(scheme, 2, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x1,x2,x3,disk"
    coords = [tuple(map(int, ln.split(",")[:3])) for ln in lines[1:]]
    assert coords == sorted(coords)
    assert len(coords) == 8
