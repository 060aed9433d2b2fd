"""Exact load-imbalance measurement: counting, full scans, certificates."""

import functools
import itertools
import json
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from decluster import discrepancy
from decluster.coloring import LatinColoring, color_grid, make_baseline, verify_latin
from decluster.discrepancy import (
    Box,
    ScaledValue,
    _witness_box,
    complement_decompose,
    disc_report,
    find_positive_witness,
    periodic_box_counts,
    report_to_dict,
    save_report,
)
from decluster.errors import BudgetExceededError, ParameterError
from decluster.schemegen import MODES, generate_scheme
from oracles import naive_box_count, naive_disc

# -- value and box types -------------------------------------------------------


def test_scaled_value_semantics():
    assert ScaledValue(3, 6) == ScaledValue(1, 2)
    assert ScaledValue(3, 6) < ScaledValue(2, 3)
    assert ScaledValue(5, 4).value == Fraction(5, 4)
    assert str(ScaledValue(15, 6)) == "15/6"
    assert hash(ScaledValue(2, 4)) == hash(ScaledValue(1, 2))
    with pytest.raises(ParameterError):
        ScaledValue(1, 0)


def test_box_basics():
    b = Box(lo=(1, 2), hi=(3, 2))
    assert b.cardinality == 3
    assert b.d == 2
    assert str(b) == "[1..3]x[2..2]"
    assert b.key() == ((1, 2), (3, 2))
    assert Box.empty(3).cardinality == 0
    assert Box.empty(2).is_empty
    assert not b.within(2) and b.within(3)


def test_box_rejects_malformed():
    with pytest.raises(ParameterError):
        Box(lo=(2, 1), hi=(1, 1))  # lo > hi but not canonical empty
    with pytest.raises(ParameterError):
        Box(lo=(0, 1), hi=(1, 1))  # coordinates start at 1
    with pytest.raises(ParameterError):
        Box(lo=(1,), hi=(1, 1))


def test_box_coerces_numpy_ints():
    b = Box(lo=(np.int64(1), np.int64(1)), hi=(np.int64(2), np.int64(2)))
    assert isinstance(b.lo[0], int) and isinstance(b.hi[1], int)


# -- counting -------------------------------------------------------------------


def test_periodic_counts_match_range_counter_inside_period():
    scheme = make_baseline("random", 5, 2, seed=7)
    grid = color_grid(scheme, 5)
    for box in [Box(lo=(1, 1), hi=(3, 4)), Box(lo=(2, 2), hi=(5, 5))]:
        want = [naive_box_count(grid, box.lo, box.hi, c) for c in range(1, 6)]
        assert periodic_box_counts(scheme, box).tolist() == want


def test_periodic_counts_far_from_origin():
    scheme = make_baseline("cyclic", 3, 2)
    # a box congruent to [1..2]x[1..3] shifted by multiples of M=3
    near = periodic_box_counts(scheme, Box(lo=(1, 1), hi=(2, 3)))
    far = periodic_box_counts(scheme, Box(lo=(1 + 300, 1 + 99), hi=(2 + 300, 3 + 99)))
    assert np.array_equal(near, far)
    # full-period boxes are perfectly balanced wherever they sit
    flat = periodic_box_counts(scheme, Box(lo=(10, 20), hi=(12, 22)))
    assert np.array_equal(flat, np.full(3, 3))


def test_periodic_counts_rejects_raw_grid():
    with pytest.raises(ParameterError):
        periodic_box_counts(np.ones((2, 2), dtype=np.int64), Box(lo=(1, 1), hi=(2, 2)))


def _residue_hits(lo, hi, M):
    """Per-residue hit counts of lo..hi as Python ints, one step at a time."""
    length = hi - lo + 1
    hits = [length // M] * M
    for k in range(length % M):
        hits[(lo - 1 + k) % M] += 1
    return hits


def _materialised_counts(scheme, box):
    """Periodic counts from the whole [M]^d color grid and a weighted bincount."""
    M = scheme.M
    weight = functools.reduce(
        np.multiply.outer,
        [np.array(_residue_hits(lo, hi, M), dtype=np.int64) for lo, hi in zip(box.lo, box.hi)],
    )
    grid = color_grid(scheme, M)
    # weights stay far below 2^53 here, so the float bincount is exact
    counts = np.bincount(grid.reshape(-1) - 1, weights=weight.reshape(-1), minlength=M)
    return counts.astype(np.int64)


@functools.lru_cache(maxsize=None)
def _scheme_or_none(M, d, mode):
    try:
        return generate_scheme(M, d, mode, seed=5)
    except ParameterError:
        return None


@settings(max_examples=150, deadline=None)
@given(
    mode=st.sampled_from(MODES),
    d=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_periodic_counts_match_materialised_grid(mode, d, data):
    M = 2 if mode == "checkerboard" else data.draw(st.integers(1, 7), label="M")
    scheme = _scheme_or_none(M, d, mode)
    assume(scheme is not None)
    if data.draw(st.booleans(), label="empty"):
        box = Box(lo=(1,) * d, hi=(0,) * d)
    else:
        lo = data.draw(st.lists(st.integers(1, 10**9), min_size=d, max_size=d), label="lo")
        lengths = data.draw(
            st.lists(st.integers(1, 3 * M + 1), min_size=d, max_size=d), label="lengths"
        )
        box = Box(lo=tuple(lo), hi=tuple(a + n - 1 for a, n in zip(lo, lengths)))
    counts = periodic_box_counts(scheme, box)
    assert counts.dtype == np.int64 and counts.shape == (M,)
    assert int(counts.sum()) == box.cardinality
    if box.is_empty:
        assert not counts.any()
        return
    assert np.array_equal(counts, _materialised_counts(scheme, box))
    if box.cardinality <= 400:
        tally = np.zeros(M, dtype=np.int64)
        for block in itertools.product(*(range(a, b + 1) for a, b in zip(box.lo, box.hi))):
            tally[scheme.disk_of(block) - 1] += 1
        assert np.array_equal(counts, tally)


@pytest.mark.parametrize("chunk", [1, 7, 40])
def test_periodic_counts_in_blocks(monkeypatch, chunk):
    # blocks of the trailing outer product shorter than one x_2 row, a few
    # rows, and ragged last blocks; the materialised grid is the oracle
    schemes = [
        generate_scheme(5, 2, "cyclic"),
        generate_scheme(4, 3, "smallbase"),
        generate_scheme(3, 4, "random", seed=1),
    ]
    monkeypatch.setattr(discrepancy, "_CHUNK_ELEMS", chunk)
    for scheme in schemes:
        d, M = scheme.d, scheme.M
        for start, length in [(1, M), (3, 2 * M + 1), (10**6 + 1, M + 2)]:
            lo = tuple(start + 2 * i for i in range(d))
            box = Box(lo=lo, hi=tuple(a + length - 1 + i for i, a in enumerate(lo)))
            assert np.array_equal(periodic_box_counts(scheme, box), _materialised_counts(scheme, box))


def test_periodic_counts_exact_just_below_int64_reach():
    scheme = generate_scheme(3, 3, "random", seed=2)
    lengths = (2**20 + 1, 2**20 + 2, 2**21 - 5)  # |B| just under 2^62
    box = Box(lo=(7, 10**12, 5), hi=tuple(a + n - 1 for a, n in zip((7, 10**12, 5), lengths)))
    assert 2**61 < box.cardinality < 2**62
    hits = [_residue_hits(lo, hi, 3) for lo, hi in zip(box.lo, box.hi)]
    want = [0, 0, 0]
    for cell in itertools.product(range(3), repeat=3):
        color = scheme.disk_of(tuple(x + 1 for x in cell))
        want[color - 1] += hits[0][cell[0]] * hits[1][cell[1]] * hits[2][cell[2]]
    assert [int(v) for v in periodic_box_counts(scheme, box)] == want


def test_periodic_counts_refuse_boxes_that_could_wrap_int64():
    scheme = generate_scheme(8, 3, "smallbase")
    with pytest.raises(ParameterError, match="2\\^62"):
        periodic_box_counts(scheme, Box(lo=(1, 1, 1), hi=(10**7,) * 3))
    with pytest.raises(ParameterError):
        periodic_box_counts(scheme, Box(lo=(1, 1, 1), hi=(2**21, 2**21, 2**20)))


# -- full-scan reports -----------------------------------------------------------


def test_checkerboard_report_is_half_everywhere():
    for d in (2, 3):
        scheme = make_baseline("checkerboard", 2, d)
        for N in (2, 3, 5, 8):
            rep = disc_report(scheme, N)
            assert rep.disc_plus == ScaledValue(1, 2)
            assert rep.disc == ScaledValue(1, 2)


def test_cyclic_m8_frozen_report():
    rep = disc_report(make_baseline("cyclic", 8, 2), 8)
    assert rep.disc_plus.num == 16 and rep.disc_plus.den == 8  # value 2
    box, color = rep.disc_plus_witness
    assert (box.lo, box.hi, color) == ((1, 1), (4, 4), 8)
    assert rep.disc.num == 16
    abox, acolor = rep.disc_witness
    assert (abox.lo, abox.hi, acolor) == ((1, 1), (4, 4), 4)
    assert rep.M == 8 and rep.d == 2 and rep.extent == 8
    assert rep.elapsed_ms >= 0


def test_constant_grid_diagnostic():
    grid = np.ones((2, 2), dtype=np.int64)
    rep = disc_report(grid, 2, M=2)
    assert rep.disc_plus.value == 2  # the lone color owns all 4 cells
    box, color = rep.disc_plus_witness
    assert (box.lo, box.hi, color) == ((1, 1), (2, 2), 1)
    # the absent color reaches the same deviation in absolute value, but the
    # lex-smallest (lo, hi, color) key keeps color 1 as the reported witness
    assert rep.disc.value == 2
    assert rep.disc_witness[1] == 1
    assert rep.per_color_abs == (4, 4)


def test_positive_only_skips_absolute_track():
    rep = disc_report(make_baseline("cyclic", 5, 2), 5, positive_only=True)
    assert rep.disc is None
    assert rep.disc_witness is None
    assert rep.per_color_abs is None
    assert rep.disc_plus.num > 0


def test_report_invariants_sum_zero_and_sandwich():
    for M, d, N in [(3, 2, 7), (4, 2, 9), (5, 2, 5), (3, 3, 4)]:
        scheme = make_baseline("cyclic", M, d)
        rep = disc_report(scheme, N)
        plus, full = rep.disc_plus.value, rep.disc.value
        assert plus <= full
        if M > 1:
            assert full <= (M - 1) * plus
        # witness recount: deviation at the reported box/color equals the value
        grid = color_grid(scheme, N)
        box, color = rep.disc_plus_witness
        dev = M * naive_box_count(grid, box.lo, box.hi, color) - box.cardinality
        assert dev == rep.disc_plus.num
        abox, acolor = rep.disc_witness
        adev = M * naive_box_count(grid, abox.lo, abox.hi, acolor) - abox.cardinality
        assert abs(adev) == rep.disc.num


@settings(max_examples=40, deadline=None)
@given(
    M=st.integers(min_value=1, max_value=4),
    N=st.integers(min_value=1, max_value=6),
    d=st.integers(min_value=2, max_value=3),
    data=st.data(),
)
def test_report_matches_exhaustive_oracle_on_random_grids(M, N, d, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    grid = rng.integers(1, M + 1, size=(N,) * d)
    rep = disc_report(grid, N, M=M)
    want = naive_disc(grid, M)
    assert rep.disc_plus.num == want["plus"]
    box, color = rep.disc_plus_witness
    assert (box.lo, box.hi, color) == want["plus_key"]
    assert rep.disc.num == want["abs"]
    abox, acolor = rep.disc_witness
    assert (abox.lo, abox.hi, acolor) == want["abs_key"]
    assert rep.per_color_plus == want["per_color_plus"]
    assert rep.per_color_abs == want["per_color_abs"]


def test_report_rejects_malformed_sources():
    with pytest.raises(ParameterError, match="M is required"):
        disc_report(np.ones((2, 2), dtype=np.int64), 2)
    with pytest.raises(ParameterError, match="colors must lie in"):
        disc_report(np.full((2, 2), 5, dtype=np.int64), 2, M=3)
    with pytest.raises(ParameterError, match="does not match extent"):
        disc_report(np.ones((2, 2), dtype=np.int64), 3, M=2)
    with pytest.raises(ParameterError, match="cannot evaluate a str"):
        disc_report("scheme.json", 2, M=2)
    with pytest.raises(ParameterError, match="extent=0"):
        disc_report(make_baseline("cyclic", 3, 2), 0)


def test_report_matches_oracle_on_schemes():
    cases = [
        make_baseline("cyclic", 3, 2),
        make_baseline("cyclic", 4, 3),
        make_baseline("random", 4, 2, seed=2),
        make_baseline("checkerboard", 2, 3),
    ]
    for scheme in cases:
        for N in (scheme.coloring.M, scheme.coloring.M + 2):
            from decluster.coloring import color_grid

            rep = disc_report(scheme, N)
            want = naive_disc(color_grid(scheme, N), scheme.coloring.M)
            assert rep.disc_plus.num == want["plus"]
            assert rep.disc.num == want["abs"]
            box, color = rep.disc_plus_witness
            assert (box.lo, box.hi, color) == want["plus_key"]


def test_extent_below_period():
    # N < M is legal; with 3 colors on a 2x2 window some color is absent
    rep = disc_report(make_baseline("cyclic", 3, 2), 2)
    want = naive_disc(np.asarray([[1, 2], [3, 1]])[:2, :2], 3)  # sanity only
    assert rep.disc_plus.num >= 1
    assert rep.extent == 2
    assert want["plus"] >= 1


def test_report_pinned_where_slabs_span_many_chunks(monkeypatch):
    # The literals come from the per-slab scan the chunked kernel replaced.
    # At the default chunk size each scan runs in one chunk; at 64 elements
    # their slabs, every trailing range inside [1, M] including the full
    # one, span 6 and 30 chunks, so a tie resolved within one chunk instead
    # of across all of them changes a witness.
    cases = {
        (8, 2, 40): (16, 16, ((1, 1), (4, 4), 8), ((1, 1), (4, 4), 4), (16,) * 8, (16,) * 8),
        (5, 3, 9): (8, 8, ((1, 1, 1), (2, 2, 3), 3), ((1, 1, 1), (2, 2, 2), 1), (8,) * 5, (8,) * 5),
    }
    counted, spread_first = [], discrepancy._spread_first

    def count_chunks(chunk, chunks, *args):
        counted.append(len(chunks))
        return spread_first(chunk, chunks, *args)

    monkeypatch.setattr(discrepancy, "_spread_first", count_chunks)
    for chunk, spans in ((discrepancy._CHUNK_ELEMS, [1, 1]), (64, [6, 30])):
        counted.clear()
        with mock.patch.object(discrepancy, "_CHUNK_ELEMS", chunk):
            for (M, d, N), (plus, full, plus_key, abs_key, per_plus, per_abs) in cases.items():
                rep = disc_report(make_baseline("cyclic", M, d), N)
                box, color = rep.disc_plus_witness
                abox, acolor = rep.disc_witness
                assert rep.disc_plus.num == plus and rep.disc.num == full
                assert (box.lo, box.hi, color) == plus_key
                assert (abox.lo, abox.hi, acolor) == abs_key
                assert rep.per_color_plus == per_plus and rep.per_color_abs == per_abs
        assert counted == spans


def _report_fields(rep):
    out = report_to_dict(rep)
    del out["elapsed_ms"]
    return out


def _latin_vs_grid(source, N, positive_only):
    """Report of the one-plane window path and of the M-plane grid path."""
    latin = disc_report(source, N, positive_only=positive_only)
    grid = disc_report(color_grid(source, N), N, M=source.M, positive_only=positive_only)
    return _report_fields(latin), _report_fields(grid)


@settings(max_examples=150, deadline=None)
@given(
    mode=st.sampled_from(MODES + ("skewed",)),
    d=st.integers(min_value=1, max_value=5),
    positive_only=st.booleans(),
    data=st.data(),
)
def test_latin_window_path_matches_grid_path(mode, d, positive_only, data):
    # A raw grid is always scanned as M planes with one window, so it is the
    # oracle for the one-plane, M-window path a latin coloring takes at N >= M.
    # Chunks of 64 and of 1 element hold the leading trailing axes at one
    # range and block the last one, in every dimension.
    scheme = _draw_latin(mode, d, st.integers(1, {1: 9, 2: 7, 3: 4, 4: 3, 5: 3}[d]), data)
    M = scheme.M
    top = 2 * M if d == 5 else 3 * M + 1  # below 2M - 2 and in the flat regime
    N = data.draw(st.integers(M, top), label="N")
    latin, grid = _latin_vs_grid(scheme, N, positive_only)
    assert latin == grid
    for chunk in (64, 1):
        with mock.patch.object(discrepancy, "_CHUNK_ELEMS", chunk):
            assert _report_fields(disc_report(scheme, N, positive_only=positive_only)) == grid


def _draw_latin(mode, d, disks, data):
    """A scheme of the mode with M drawn from ``disks``; "skewed" is a tie-heavy cyclic one."""
    M = 2 if mode == "checkerboard" else data.draw(disks, label="M")
    if mode == "skewed":  # tie-heavy: every color class a skewed diagonal family
        units = [a for a in range(1, M + 1) if math.gcd(a, M) == 1]
        skews = data.draw(st.lists(st.sampled_from(units), min_size=d - 1, max_size=d - 1))
        return make_baseline("cyclic", M, d, skews=skews)
    scheme = _scheme_or_none(M, d, mode)
    assume(scheme is not None)
    return scheme


@settings(max_examples=150, deadline=None)
@given(
    mode=st.sampled_from(MODES + ("skewed",)),
    d=st.integers(min_value=2, max_value=3),
    positive_only=st.booleans(),
    data=st.data(),
)
def test_spread_first_matches_grid_path_at_larger_M(mode, d, positive_only, data):
    # Windows that no slab of the largest spread reaches show up from about
    # M = 16 on (random schemes), and from N = 2M - 2 every window is reached.
    # M is drawn uniformly, so large M are as likely as small ones.
    scheme = _draw_latin(mode, d, st.sampled_from(range(1, {2: 40, 3: 12}[d] + 1)), data)
    N = data.draw(st.integers(scheme.M, 2 * scheme.M + 1), label="N")
    latin, grid = _latin_vs_grid(scheme, N, positive_only)
    assert latin == grid


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=4),
    positive_only=st.booleans(),
    data=st.data(),
)
def test_axis1_only_balanced_coloring_matches_grid_path(d, positive_only, data):
    # Every anchor map is balanced along axis 1, so one period of rows and
    # flat windows still apply; one that fails verify_latin keeps every slab
    # and the trailing extent N.
    M = data.draw(st.integers(2, {2: 7, 3: 4, 4: 3}[d]), label="M")
    anchor = data.draw(st.lists(st.integers(1, M), min_size=M ** (d - 1), max_size=M ** (d - 1)))
    coloring = LatinColoring(M=M, d=d, anchor=anchor)
    assume(not verify_latin(coloring).ok)
    N = data.draw(st.integers(M, 3 * M + 1), label="N")
    latin, grid = _latin_vs_grid(coloring, N, positive_only)
    assert latin == grid
    cells = (M + 1) * (N + 1) ** (d - 1)
    table = f"{M + 1} \\* {N + 1}\\^{d - 1} \\* 1 = {cells} cells"
    with pytest.raises(BudgetExceededError, match=table):
        disc_report(coloring, N, max_cells=cells - 1)


def test_latin_window_ties_across_chunks(monkeypatch):
    # 64-element chunks hold one or two slabs here, so windows that tie at
    # the peak sit in many chunks and the lex-min must be kept across them.
    cases = [
        (make_baseline("cyclic", 8, 2), 17),
        (make_baseline("cyclic", 5, 3, skews=(2, 3)), 7),
        (generate_scheme(9, 2, "smallbase"), 10),
    ]
    wanted = [_latin_vs_grid(scheme, N, False)[1] for scheme, N in cases]
    monkeypatch.setattr(discrepancy, "_CHUNK_ELEMS", 64)
    for (scheme, N), want in zip(cases, wanted):
        assert _report_fields(disc_report(scheme, N)) == want


@pytest.mark.parametrize("chunk", [discrepancy._CHUNK_ELEMS, 64])
@pytest.mark.parametrize(
    "M, d, mode, seed, N",
    [(31, 2, "random", 1, 32), (32, 2, "cyclic", None, 32), (11, 3, "smallbase", None, 12)],
    ids=["random-31", "cyclic-32", "smallbase-11-d3"],
)
def test_spread_first_reports_equal_the_grid_path(monkeypatch, chunk, M, d, mode, seed, N):
    # random M=31: the one slab of the largest spread (153) misses some
    # windows, whose peaks (down to 126) come from the sweep of the slabs
    # above them; the other two reach every window from slabs of the spread.
    # 64-element chunks hold a few slabs, so both passes cross many chunks.
    scheme = generate_scheme(M, d, mode, seed=seed)
    wanted = [_latin_vs_grid(scheme, N, positive_only)[1] for positive_only in (False, True)]
    monkeypatch.setattr(discrepancy, "_CHUNK_ELEMS", chunk)
    for positive_only, want in zip((False, True), wanted):
        assert _report_fields(disc_report(scheme, N, positive_only=positive_only)) == want
    plus = [c["disc_plus_num"] for c in wanted[0]["per_color"]]
    assert wanted[0]["disc_num"] == wanted[0]["disc_plus_num"] == max(plus)
    assert (min(plus), max(plus)) == {"random": (126, 153)}.get(mode, (max(plus),) * 2)


@settings(max_examples=200, deadline=None)
@given(
    mode=st.sampled_from(MODES + ("skewed", "unverified")),
    d=st.integers(min_value=1, max_value=5),
    positive_only=st.booleans(),
    data=st.data(),
)
def test_every_latin_witness_starts_at_the_first_row(mode, d, positive_only, data):
    # On a slab of the largest spread G the window that starts at a minimum
    # of its prefix sums holds the next maximum, so every witness, of disc+
    # and of disc, has lo_1 = 1 at every N >= M; this holds for every anchor
    # map, verified or not.
    disks = st.integers(1, {1: 40, 2: 40, 3: 12, 4: 6, 5: 3}[d])
    if mode == "unverified":
        M = data.draw(disks, label="M")
        cells = M ** (d - 1)
        anchor = data.draw(st.lists(st.integers(1, M), min_size=cells, max_size=cells))
        scheme = LatinColoring(M=M, d=d, anchor=anchor)
    else:
        scheme = _draw_latin(mode, d, disks, data)
    N = data.draw(st.integers(scheme.M, 3 * scheme.M + 1), label="N")
    rep = disc_report(scheme, N, positive_only=positive_only)
    witnesses = [rep.disc_plus_witness] + ([] if positive_only else [rep.disc_witness])
    assert [box.lo[0] for box, _ in witnesses] == [1] * len(witnesses)


@settings(max_examples=120, deadline=None)
@given(
    mode=st.sampled_from(tuple(m for m in MODES if m != "checkerboard") + ("skewed",)),
    d=st.integers(min_value=2, max_value=4),
    positive_only=st.booleans(),
    data=st.data(),
)
def test_no_band_witness_wraps_past_the_period(mode, d, positive_only, data):
    # At M < N < 2M - 2 a trailing range that wraps past M has the negated
    # sums of its complement inside [1, M], whose lower corner is smaller,
    # so no witness of a verified coloring reaches past M on axes 2..d.
    # The band is empty below M = 4, so checkerboard (M = 2) has none.
    scheme = _draw_latin(mode, d, st.integers(4, {2: 40, 3: 12, 4: 6}[d]), data)
    M = scheme.M
    assert verify_latin(scheme.coloring).ok
    N = data.draw(st.integers(M + 1, 2 * M - 3), label="N")
    rep = disc_report(scheme, N, positive_only=positive_only)
    witnesses = [rep.disc_plus_witness] + ([] if positive_only else [rep.disc_witness])
    assert [max(box.hi[1:]) <= M for box, _ in witnesses] == [True] * len(witnesses)


@pytest.mark.parametrize(
    "mode, M, d, N",
    [("random", 8, 2, 9), ("random", 9, 3, 12), ("smallbase", 8, 3, 9),
     ("smallbase", 16, 2, 17), ("random", 12, 2, 13)],
)
def test_band_reports_need_exactly_the_wraps_that_fit(mode, M, d, N):
    # The first four have a window whose peak lies only on trailing ranges
    # that wrap past M, so without their negated complements its figure
    # drops; in the last two, negating a complement whose wrap ends past N
    # would add a box the grid does not have.
    scheme = generate_scheme(M, d, mode, seed=0)
    for positive_only in (False, True):
        latin, grid = _latin_vs_grid(scheme, N, positive_only)
        assert latin == grid


@pytest.mark.parametrize("mode, M, d", [("cyclic", 8, 2), ("smallbase", 9, 3), ("cyclic", 1, 2)])
def test_latin_table_at_a_million_is_the_table_at_n_equals_m(monkeypatch, mode, M, d):
    # At every N >= M a verified coloring is scanned on trailing ranges
    # inside [1, M], so its summed-area table is the one of N = M, in the
    # band M < N < 2M - 2 as well.
    shapes, prefix_table = [], discrepancy._prefix_table

    def record(labels, weights):
        table = prefix_table(labels, weights)
        shapes.append(table.shape)
        return table

    monkeypatch.setattr(discrepancy, "_prefix_table", record)
    scheme = generate_scheme(M, d, mode)
    extents = (M, M + 1, max((3 * M - 2) // 2, M), max(2 * M - 2, M), 10**6)
    reports = [_report_fields(disc_report(scheme, N)) for N in extents]
    assert shapes == [(M + 1,) * d + (1,)] * len(extents)
    assert len({report["disc_num"] for report in reports}) == 1


def test_spread_first_sweeps_only_windows_below_the_spread(monkeypatch):
    swept, gathered = [], []
    window_best, lex_min_box = discrepancy._window_best, discrepancy._lex_min_box

    def count_columns(S, W, signs):
        swept.append(S.shape[1])
        return window_best(S, W, signs)

    def count_gathers(*args):
        gathered.append(args)
        return lex_min_box(*args)

    monkeypatch.setattr(discrepancy, "_window_best", count_columns)
    monkeypatch.setattr(discrepancy, "_lex_min_box", count_gathers)
    # cyclic M=32: the 17 slabs of the largest spread reach all 32 windows,
    # so none of the 527 slabs is swept and no witness row is gathered
    disc_report(make_baseline("cyclic", 32, 2), 32)
    assert swept == [] and gathered == []
    # random M=31: some windows lie below the spread; only slabs whose
    # spread exceeds their floor are swept, and the witness needs no sweep
    disc_report(generate_scheme(31, 2, "random", seed=1), 32)
    assert 0 < sum(swept) < 100 and gathered == []


def test_scan_refuses_rows_that_do_not_sum_to_zero_over_a_period():
    # two rows of weight 1 read with period 2 along a 3-cell extent
    labels = np.zeros((2, 1), dtype=np.int64)
    with pytest.raises(AssertionError, match="period"):
        discrepancy._scan_boxes(labels, np.array([[1, -1]]), extent=2, windows=2)


def test_scan_refuses_windows_it_does_not_sweep():
    # several windows need one plane and one period of rows per window
    labels = np.zeros((3, 1), dtype=np.int64)
    weights = np.array([[0]])
    for scan in ({"extent": 2, "windows": 2}, {"extent": 3, "windows": 2},
                 {"extent": 2}, {"extent": 4}):
        with pytest.raises(ParameterError, match="windows"):
            discrepancy._scan_boxes(labels, weights, **scan)
    with pytest.raises(ParameterError, match="windows"):
        discrepancy._scan_boxes(labels, np.array([[0], [0]]), extent=3, windows=3)


def test_one_recount_when_both_witnesses_are_the_same_box_and_color(monkeypatch):
    # cyclic M=3: disc and disc+ share the witness [1..1]x[1..1], color 3;
    # cyclic M=8: they differ in color.  Each witness is still validated.
    recounts, validated = [], []
    counts, validate = discrepancy.periodic_box_counts, discrepancy._validate_witness
    monkeypatch.setattr(discrepancy, "periodic_box_counts",
                        lambda *a: recounts.append(a) or counts(*a))
    monkeypatch.setattr(discrepancy, "_validate_witness",
                        lambda *a: validated.append(a) or validate(*a))
    for M, same in ((3, True), (8, False)):
        recounts.clear()
        validated.clear()
        rep = disc_report(make_baseline("cyclic", M, 2), M)
        assert (rep.disc_witness == rep.disc_plus_witness) == same
        assert (len(recounts), len(validated)) == (1 if same else 2, 2)


def test_latin_path_builds_no_color_grid(monkeypatch):
    def refuse(*args):
        raise AssertionError("color_grid called on the latin path")

    monkeypatch.setattr(discrepancy, "color_grid", refuse)
    rep = disc_report(make_baseline("cyclic", 8, 2), 8)
    assert rep.disc_plus.num == 16


# -- tiling algebra ---------------------------------------------------------------


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


def test_fold_examples():
    M = 5
    assert fold_box_to_period(Box(lo=(2,) * 2, hi=(M + 1,) * 2), M).is_empty
    assert fold_box_to_period(Box(lo=(M + 1,) * 2, hi=(2 * M,) * 2), M) == Box(
        lo=(1, 1), hi=(M, M)
    )
    within = Box(lo=(2, 3), hi=(4, 5))
    assert fold_box_to_period(within, M) == within
    assert fold_box_to_period(Box.empty(2), M).is_empty
    with pytest.raises(ParameterError):
        fold_box_to_period(within, 0)


def test_fold_preserves_absolute_deviation():
    scheme = make_baseline("random", 4, 2, seed=9)
    N = 12
    grid, small = color_grid(scheme, N), color_grid(scheme, 4)
    for box in [
        Box(lo=(2, 7), hi=(9, 11)),
        Box(lo=(5, 5), hi=(12, 12)),
        Box(lo=(1, 6), hi=(4, 9)),
        Box(lo=(3, 1), hi=(3, 12)),
    ]:
        folded = fold_box_to_period(box, 4)
        for color in range(1, 5):
            dev = 4 * naive_box_count(grid, box.lo, box.hi, color) - box.cardinality
            if folded.is_empty:
                fdev = 0
            else:
                count = naive_box_count(small, folded.lo, folded.hi, color)
                fdev = 4 * count - folded.cardinality
            assert abs(dev) == abs(fdev)


def test_complement_decompose_partition():
    box = Box(lo=(2, 3), hi=(4, 5))
    N = 6
    pieces = complement_decompose(box, N)
    assert len(pieces) <= 4
    total = box.cardinality + sum(p.cardinality for p in pieces)
    assert total == N * N
    # disjointness: recount every cell exactly once
    hits = np.zeros((N, N), dtype=np.int64)
    for p in [box, *pieces]:
        hits[p.lo[0] - 1 : p.hi[0], p.lo[1] - 1 : p.hi[1]] += 1
    assert hits.min() == 1 and hits.max() == 1


def test_complement_deviations_sum_to_negation():
    scheme = make_baseline("random", 5, 2, seed=4)
    N = 5
    grid = color_grid(scheme, N)
    box = Box(lo=(2, 2), hi=(4, 3))
    color = 3
    dev = 5 * naive_box_count(grid, box.lo, box.hi, color) - box.cardinality
    total = 0
    for p in complement_decompose(box, N):
        total += 5 * naive_box_count(grid, p.lo, p.hi, color) - p.cardinality
    assert total == -dev  # the full grid is perfectly balanced


def test_complement_of_empty_box_is_everything():
    pieces = complement_decompose(Box.empty(2), 3)
    assert len(pieces) == 1
    assert pieces[0] == Box(lo=(1, 1), hi=(3, 3))


def test_complement_three_dimensional_piece_count():
    box = Box(lo=(2, 2, 2), hi=(2, 2, 2))
    pieces = complement_decompose(box, 3)
    assert len(pieces) == 6
    assert box.cardinality + sum(p.cardinality for p in pieces) == 27


# -- positive-deviation certificates -----------------------------------------------


def test_witness_cyclic_two_dimensional():
    for M in (8, 16, 64):
        cert = find_positive_witness(make_baseline("cyclic", M, 2))
        assert cert.value.num > 0
        assert cert.side == M
        # claimed deviation is real
        grid = color_grid(make_baseline("cyclic", M, 2), M)
        dev = M * naive_box_count(grid, cert.box.lo, cert.box.hi, cert.color) - cert.box.cardinality
        assert dev == cert.value.num
        # certificate never exceeds the true optimum
        rep = disc_report(make_baseline("cyclic", M, 2), M, positive_only=True)
        assert cert.value <= rep.disc_plus


def test_witness_three_dimensional_subgrid():
    cert = find_positive_witness(make_baseline("cyclic", 9, 3))
    assert cert.side in (3, 9)  # ceil(9^(1/2)) = 3, escalation allowed
    assert cert.value.num > 0
    assert cert.box.within(cert.side)


def test_witness_single_disk_zero_certificate():
    cert = find_positive_witness(make_baseline("cyclic", 1, 2))
    assert cert.value.num == 0
    assert cert.box == Box(lo=(1, 1), hi=(1, 1))
    assert cert.color == 1


def test_witness_rejects_degenerate_dimensions():
    with pytest.raises(ParameterError):
        find_positive_witness(LatinColoring(M=3, d=1, anchor=(1,)))
    with pytest.raises(ParameterError):
        find_positive_witness(make_baseline("checkerboard", 2, 3))


def test_witness_flips_negative_maximum_through_complement():
    # for this coloring the chosen color's largest |deviation| is attained
    # only by negative boxes, so the certificate must come from a piece of
    # the complement (whose deviations sum to the negation)
    scheme = make_baseline("random", 4, 2, seed=1)
    cert = find_positive_witness(scheme)
    assert cert.box == Box(lo=(2, 1), hi=(3, 1))
    assert cert.color == 1
    assert cert.value == ScaledValue(2, 4)
    count = naive_box_count(color_grid(scheme, 4), cert.box.lo, cert.box.hi, cert.color)
    assert 4 * count - cert.box.cardinality == 2


def test_witness_prefers_positive_box_on_tied_magnitude():
    # cyclic M=8: |deviation| 16 is reached by both signs; the certificate
    # must take a positive box directly instead of flipping a negative one
    cert = find_positive_witness(make_baseline("cyclic", 8, 2))
    assert cert.box == Box(lo=(2, 1), hi=(5, 4))
    assert cert.value == ScaledValue(16, 8)


def test_witness_random_schemes_agree_with_report():
    for seed in range(4):
        scheme = make_baseline("random", 6, 2, seed=seed)
        cert = find_positive_witness(scheme)
        rep = disc_report(scheme, 6, positive_only=True)
        assert 0 < cert.value.num <= rep.disc_plus.num


def _brute_witness(grid, M, color):
    """Every box one at a time, ranked by (|dev|, dev > 0, lex-min (lo, hi))."""
    side = grid.shape[0]
    pairs = [(lo, hi) for lo in range(1, side + 1) for hi in range(lo, side + 1)]
    best = None
    for combo in itertools.product(pairs, repeat=grid.ndim):
        cells = grid[tuple(slice(lo - 1, hi) for lo, hi in combo)]
        dev = M * int((cells == color).sum()) - cells.size
        key = (tuple(lo for lo, _ in combo), tuple(hi for _, hi in combo))
        rank = (abs(dev), dev > 0)
        if best is None or rank > best[0] or (rank == best[0] and key < best[2]):
            best = (rank, dev, key)
    return best[1], Box(lo=best[2][0], hi=best[2][1])


@settings(max_examples=120, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=4),
    M=st.integers(min_value=2, max_value=6),
    cyclic=st.booleans(),
    data=st.data(),
)
def test_witness_scan_matches_brute_force(d, M, cyclic, data):
    side = data.draw(st.integers(1, {2: 6, 3: 4, 4: 3}[d]), label="side")
    if cyclic:  # tie-heavy: every color class is a shifted diagonal family
        skews = data.draw(st.lists(st.integers(1, M), min_size=d, max_size=d), label="skews")
        coords = np.indices((side,) * d)
        grid = sum(a * x for a, x in zip(skews, coords)) % M + 1
    else:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        grid = rng.integers(1, M + 1, size=(side,) * d)
    color = data.draw(st.integers(1, M), label="color")
    want = _brute_witness(grid, M, color)
    for chunk in (discrepancy._CHUNK_ELEMS, 64, 1):
        with mock.patch.object(discrepancy, "_CHUNK_ELEMS", chunk):
            assert _witness_box(grid, M, color) == want


# -- budget guard -------------------------------------------------------------------


def test_budget_guard_max_cells():
    scheme = make_baseline("cyclic", 4, 2)
    with pytest.raises(BudgetExceededError, match="cells"):
        disc_report(scheme, 100, max_cells=10)


def test_budget_guard_env_var(monkeypatch):
    scheme = make_baseline("cyclic", 4, 2)  # make_baseline reads the budget too
    monkeypatch.setenv("DECLUSTER_MAX_CELLS", "10")
    with pytest.raises(BudgetExceededError):
        disc_report(scheme, 100)
    monkeypatch.setenv("DECLUSTER_MAX_CELLS", "not a number")
    with pytest.raises(ParameterError):
        disc_report(scheme, 4)


def test_budget_counts_the_cells_the_latin_path_allocates():
    # one plane over one period of M axis-1 rows and trailing extent T = M
    # at every N >= M, the band N = 5 < 2M - 2 included:
    # (M + 1) * (T + 1)^(d-1) cells, not M planes
    scheme = make_baseline("cyclic", 4, 2)
    cells = (4 + 1) * (4 + 1)
    for N in (5, 10):
        assert disc_report(scheme, N, max_cells=cells).disc_plus.num > 0
        with pytest.raises(BudgetExceededError, match=f"5 \\* 5\\^1 \\* 1 = {cells} cells"):
            disc_report(scheme, N, max_cells=cells - 1)


def test_budget_counts_the_prefix_table_at_small_extent():
    # checkerboard M=2, d=12, N=2: N^(d-1) = 2048 would pass a 6144-cell
    # budget, but the prefix table has (M + 1) * (T + 1)^(d-1) = 3 * 3^11 = 531 441 cells
    scheme = make_baseline("checkerboard", 2, 12)
    for budget in (6144, 531_440):
        with pytest.raises(BudgetExceededError, match="3 \\* 3\\^11 \\* 1 = 531441 cells"):
            disc_report(scheme, 2, max_cells=budget)
    assert disc_report(scheme, 2, max_cells=531_441).disc_plus == ScaledValue(1, 2)


def test_budget_is_checked_before_the_scan_input_is_built(monkeypatch):
    # An anchor map that fails verify_latin is scanned at T = N: at N = 4e6
    # its labels alone have 8e6 cells.  verify_latin reads the coloring's own
    # array; everything extent-sized waits for the budget.
    def refuse(*args, **kwargs):
        raise AssertionError("built the scan input before checking the budget")

    monkeypatch.setattr(discrepancy, "color_grid", refuse)
    monkeypatch.setattr(LatinColoring, "anchor_tensor", refuse)
    unbalanced = LatinColoring(M=2, d=2, anchor=(1, 1))
    with pytest.raises(BudgetExceededError, match="3 \\* 4000001\\^1 \\* 1 = 12000003 cells"):
        disc_report(unbalanced, 4_000_000, max_cells=100)
    # below M the N^d color grid waits for the budget of its M-plane scan too
    with pytest.raises(BudgetExceededError, match="2001 \\* 2001\\^1 \\* 3000"):
        disc_report(make_baseline("cyclic", 3000, 2), 2000, max_cells=100)


def test_range_counter_and_witness_check_the_budget_before_the_grid(monkeypatch):
    # the grid builders raise, so the budget check has to come first
    def refuse(*args, **kwargs):
        raise AssertionError("built a grid before checking the budget")

    monkeypatch.setattr(discrepancy, "color_grid", refuse)
    big = make_baseline("cyclic", 3000, 2)  # its 3000 anchor cells are over the budget below
    monkeypatch.setenv("DECLUSTER_MAX_CELLS", "100")
    with pytest.raises(BudgetExceededError, match="3001 \\* 3001\\^1 \\* 1"):
        find_positive_witness(big)


def test_witness_flip_fits_the_scan_budget(monkeypatch):
    # this certificate comes from the complement flip; its pieces are
    # recounted from the scanned grid, so the scan's own budget is enough
    scheme = make_baseline("random", 4, 2, seed=1)
    want = find_positive_witness(scheme)
    monkeypatch.setenv("DECLUSTER_MAX_CELLS", "25")  # the 5 * 5 prefix table of a 4 x 4 scan
    assert find_positive_witness(scheme) == want


def test_budget_guard_witness_and_geometric(monkeypatch):
    monkeypatch.setenv("DECLUSTER_MAX_CELLS", "10")
    with pytest.raises(BudgetExceededError):
        find_positive_witness(make_baseline("cyclic", 4, 2))


def test_scan_memory_is_the_table_and_a_few_chunks():
    # smallbase d=4, M=9: a 10^4-cell summed-area table and chunks of at most
    # _CHUNK_ELEMS cells; the 45^3 slabs at once would take 7.3 MB
    scheme = generate_scheme(9, 4, "smallbase")
    tracemalloc.start()
    try:
        disc_report(scheme, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (10**4 + 8 * discrepancy._CHUNK_ELEMS)


# -- serialization --------------------------------------------------------------------


def test_report_dict_shape(tmp_path):
    rep = disc_report(make_baseline("cyclic", 3, 2), 6)
    data = report_to_dict(rep)
    assert data["M"] == 3 and data["d"] == 2 and data["N"] == 6
    assert data["denominator"] == 3
    assert data["disc_plus_num"] == rep.disc_plus.num
    assert data["disc_num"] == rep.disc.num
    assert set(data["witness"]) == {"lo", "hi", "color"}
    assert len(data["per_color"]) == 3
    assert all(set(e) == {"color", "disc_plus_num", "disc_num"} for e in data["per_color"])
    path = tmp_path / "report.json"
    save_report(rep, path)
    assert json.loads(path.read_text()) == json.loads(json.dumps(data))


@settings(max_examples=60, deadline=None)
@given(
    mode=st.sampled_from(MODES + ("grid",)),
    d=st.integers(min_value=1, max_value=3),
    positive_only=st.booleans(),
    data=st.data(),
)
def test_save_report_writes_the_canonical_json_bytes(tmp_path_factory, mode, d, positive_only,
                                                     data):
    # the per-color entries are printed from a template, not by json
    M = data.draw(st.integers(1, {1: 12, 2: 9, 3: 4}[d]), label="M")
    if mode == "grid":
        N = data.draw(st.integers(1, {1: 12, 2: 6, 3: 3}[d]), label="N")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        source = np.random.default_rng(seed).integers(1, M + 1, size=(N,) * d)
        rep = disc_report(source, N, M=M, positive_only=positive_only)
    else:
        scheme = _scheme_or_none(M, d, mode)
        assume(scheme is not None)
        rep = disc_report(scheme, data.draw(st.integers(1, 2 * M + 1), label="N"),
                          positive_only=positive_only)
    path = tmp_path_factory.mktemp("report") / "report.json"
    save_report(rep, path)
    want = json.dumps(report_to_dict(rep), indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == want.encode()


def test_report_dict_positive_only():
    rep = disc_report(make_baseline("cyclic", 3, 2), 3, positive_only=True)
    data = report_to_dict(rep)
    assert data["disc_num"] is None
    assert "witness_abs" not in data
    assert all(e["disc_num"] is None for e in data["per_color"])
