"""Acceptance suite: one test per shipped guarantee, each timed and exact.

Every disc/disc+ figure produced here flows through ``produce_report``, which
recounts the reported witnesses straight off the color grid, checks that the
per-color deviations of each witness box sum to zero, and checks the
sandwich inequality disc/(M-1) <= disc+ <= disc.  A violation anywhere fails
the producing test, so a green run certifies those identities on every
report this suite generates.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from decluster.coloring import (
    color_grid,
    load_scheme,
    make_baseline,
    save_scheme,
    scheme_to_json_bytes,
    verify_latin,
)
from decluster.discrepancy import (
    Box,
    disc_report,
    find_positive_witness,
    periodic_box_counts,
)
from decluster.nets import verify_net
from decluster.schemegen import build_net_counted, factorize_canonical, generate_scheme
from oracles import naive_disc, naive_geometric

REPORTS = []  # (label, report) for every figure produced by this suite


def _recount(grid, M, box):
    """Per-color counts of one box, straight off the grid."""
    if box.is_empty:
        return np.zeros(M, dtype=np.int64)
    sl = tuple(slice(lo - 1, hi) for lo, hi in zip(box.lo, box.hi))
    return np.bincount(grid[sl].reshape(-1), minlength=M + 1)[1:]


def produce_report(source, N, *, M=None, positive_only=False, label=""):
    """disc_report plus an independent audit of its invariants."""
    rep = disc_report(source, N, M=M, positive_only=positive_only)
    grid = source if isinstance(source, np.ndarray) else color_grid(source, N)
    M_ = rep.M

    box, color = rep.disc_plus_witness
    devs = M_ * _recount(grid, M_, box) - box.cardinality
    assert int(devs.sum()) == 0, f"{label}: witness box deviations do not cancel"
    assert int(devs[color - 1]) == rep.disc_plus.num, f"{label}: disc+ witness recount"
    assert rep.disc_plus.num == max(rep.per_color_plus)

    if rep.disc is not None:
        abox, acolor = rep.disc_witness
        adevs = M_ * _recount(grid, M_, abox) - abox.cardinality
        assert int(adevs.sum()) == 0, f"{label}: abs witness deviations do not cancel"
        assert abs(int(adevs[acolor - 1])) == rep.disc.num, f"{label}: disc witness recount"
        assert rep.disc.num == max(rep.per_color_abs)
        # sandwich: disc/(M-1) <= disc+ <= disc
        assert rep.disc_plus.num <= rep.disc.num, f"{label}: disc+ exceeds disc"
        if M_ > 1:
            assert rep.disc.num <= (M_ - 1) * rep.disc_plus.num, f"{label}: sandwich"
        else:
            assert rep.disc.num == 0 == rep.disc_plus.num

    REPORTS.append((label or "report", rep))
    return rep


def test_criterion_01_checkerboard_exactness():
    start = time.perf_counter()
    for d in (2, 3):
        scheme = make_baseline("checkerboard", 2, d)
        for N in (2, 3, 5, 8):
            rep = produce_report(scheme, N, label=f"checkerboard d={d} N={N}")
            assert rep.disc_plus.num == 1 and rep.disc_plus.den == 2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 1: disc+ = 1/2 on all 8 checkerboard instances ({elapsed:.3f}s)")


def test_criterion_02_net_sweep():
    start = time.perf_counter()
    checked = 0
    cases = []
    for b in (2, 3, 4, 5, 7, 8, 9):
        m = 0
        while b**m <= 10**5:
            for d in range(1, b + 2):
                cases.append((b, m, d))
            m += 1
    for b in (6, 10, 12, 15):
        cap = factorize_canonical(b).q1 + 1
        for m in range(0, 4):
            if b**m > 10**5:
                break
            for d in range(1, cap + 1):
                cases.append((b, m, d))
    for b, m, d in cases:
        net = build_net_counted(b, m, d)[0]
        check = verify_net(net, 0)
        assert check.ok, f"balance check failed for base={b} m={m} d={d}: {check}"
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print(f"criterion 2: {checked} nets constructed and balance-checked ({elapsed:.1f}s)")


def test_criterion_03_latin_property():
    start = time.perf_counter()
    cases = []
    for M in range(3, 33):
        cap = factorize_canonical(M).q1 + 1
        for d in (2, 3):
            if d <= cap:
                cases.append((M, d))
    cases += [(4, 4), (5, 4), (8, 5), (16, 5)]
    for M, d in cases:
        scheme = generate_scheme(M, d, "paper")
        check = verify_latin(scheme.coloring)
        assert check.ok, f"latin check failed for M={M} d={d}: {check}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    print(f"criterion 3: latin property verified on {len(cases)} schemes ({elapsed:.1f}s)")


def test_criterion_04_tiling_equality():
    start = time.perf_counter()
    pairs = [(4, 2), (5, 2), (6, 2), (7, 2), (3, 3), (4, 3)]
    instances = 0
    for M, d in pairs:
        scheme = generate_scheme(M, d, "paper")
        base = produce_report(scheme, M, label=f"tiling base M={M} d={d}")
        for N in (M, M + 1, 2 * M - 1, 2 * M, 3 * M + 2):
            rep = produce_report(scheme, N, label=f"tiling M={M} d={d} N={N}")
            assert rep.disc == base.disc, (
                f"disc over extent {N} differs from the period figure for M={M} d={d}"
            )
            instances += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print(f"criterion 4: period/extended disc equal on {instances} instances ({elapsed:.1f}s)")


def test_criterion_05_sandwich_and_sum_zero():
    start = time.perf_counter()
    # a self-contained batch (so this test also stands alone), then an audit
    # of everything accumulated so far
    for scheme, N in [
        (make_baseline("cyclic", 5, 2), 9),
        (make_baseline("random", 6, 2, seed=1), 8),
        (generate_scheme(6, 3, "paper"), 7),
        (make_baseline("checkerboard", 2, 3), 5),
    ]:
        rep = produce_report(scheme, N, label=f"invariants N={N}")
        # sum-zero on arbitrary boxes, not only the witnesses
        grid = color_grid(scheme, N)
        M = rep.M
        rng = np.random.default_rng(0)
        for _ in range(20):
            lo = tuple(int(v) for v in rng.integers(1, N + 1, size=rep.d))
            hi = tuple(int(rng.integers(l, N + 1)) for l in lo)
            box = Box(lo=lo, hi=hi)
            devs = M * _recount(grid, M, box) - box.cardinality
            assert int(devs.sum()) == 0
    for label, rep in REPORTS:
        assert rep.disc_plus.num <= (rep.disc.num if rep.disc else rep.disc_plus.num), label
        if rep.disc is not None and rep.M > 1:
            assert rep.disc.num <= (rep.M - 1) * rep.disc_plus.num, label
    elapsed = time.perf_counter() - start
    print(
        f"criterion 5: sandwich + zero-sum verified on {len(REPORTS)} reports "
        f"(every report in this suite is audited at production time) ({elapsed:.1f}s)"
    )


def test_criterion_06_oracle_equivalence():
    start = time.perf_counter()
    instances = 0
    for M, d in itertools.product(range(1, 7), (1, 2, 3)):
        sources = [
            ("paper", generate_scheme(M, d, "paper")),
            ("cyclic", generate_scheme(M, d, "cyclic")),
        ]
        sources += [
            (f"random{s}", generate_scheme(M, d, "random", seed=s)) for s in (0, 1, 2)
        ]
        for mode, scheme in sources:
            for N in range(1, 13):
                grid = color_grid(scheme, N)
                rep = produce_report(scheme, N, label=f"oracle M={M} d={d} {mode} N={N}")
                want = naive_disc(grid, M)
                assert rep.disc_plus.num == want["plus"]
                assert rep.disc.num == want["abs"]
                box, color = rep.disc_plus_witness
                assert (box.lo, box.hi, color) == want["plus_key"]
                abox, acolor = rep.disc_witness
                assert (abox.lo, abox.hi, acolor) == want["abs_key"]
                assert rep.per_color_plus == want["per_color_plus"]
                assert rep.per_color_abs == want["per_color_abs"]
                instances += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    print(f"criterion 6: full agreement with the exhaustive oracle on {instances} instances ({elapsed:.1f}s)")


def test_criterion_07_point_set_transfer():
    start = time.perf_counter()
    for M, d in [(8, 2), (9, 2), (4, 3)]:
        scheme = generate_scheme(M, d, "paper")
        prov = scheme.provenance
        net = build_net_counted(prov["base"], prov["m"], d)[0]

        # cells occupied by the net's points at the 1/M grid resolution
        scale = prov["base"] ** prov["m"]
        cells = [tuple(int(v) for v in row) for row in (net.coord_ints() * M) // scale]
        point_grid = np.zeros((M,) * d, dtype=np.int64)
        for cell in cells:
            point_grid[cell] += 1
        assert point_grid.max() == 1, f"two points share a cell (M={M}, d={d})"

        # cells of disk 1
        class_grid = (color_grid(scheme, M) == 1).astype(np.int64)

        # box-by-box identity between point counts and disk-1 cell counts
        pairs = [(lo, hi) for lo in range(1, M + 1) for hi in range(lo, M + 1)]
        boxes = 0
        for combo in itertools.product(*([pairs] * d)):
            sl = tuple(slice(lo - 1, hi) for lo, hi in combo)
            assert point_grid[sl].sum() == class_grid[sl].sum(), f"box {combo} (M={M}, d={d})"
            boxes += 1

        # the worst combinatorial deviation never exceeds the geometric one
        rep = produce_report(scheme, M, label=f"transfer M={M} d={d}")
        geo = Fraction(naive_geometric(cells, len(cells), M, d)[0], M**d)
        assert rep.disc.value <= geo, f"M={M} d={d}"
        print(
            f"criterion 7: M={M} d={d}: identity on {boxes} boxes; "
            f"disc {rep.disc} <= geometric {geo}"
        )
    elapsed = time.perf_counter() - start
    print(f"criterion 7: transfer identity exact ({elapsed:.1f}s)")


def test_criterion_08_growth_separation():
    start = time.perf_counter()
    ladder = [2**k for k in range(2, 8)]  # 4 .. 128
    plus = {}
    for M in ladder:
        scheme = generate_scheme(M, 2, "smallbase")
        rep = produce_report(scheme, M, positive_only=True, label=f"ladder M={M}")
        plus[M] = rep.disc_plus.value
    steps = [plus[2 * M] - plus[M] for M in ladder[:-1]]
    assert all(step <= 2 for step in steps), f"growth steps {steps}"

    # cyclic baseline: the box [1..ceil(M/2)]^2 certifies disc+ >= M/4 - 1
    certified = {}
    for M in ladder:
        h = math.ceil(M / 2)
        box = Box(lo=(1, 1), hi=(h, h))
        counts = periodic_box_counts(make_baseline("cyclic", M, 2), box)
        dev = max(int(M * c - box.cardinality) for c in counts)
        certified[M] = Fraction(dev, M)
        assert certified[M] >= Fraction(M, 4) - 1, f"cyclic certificate at M={M}"

    for M in ladder:
        if M >= 16:
            assert plus[M] < certified[M], (
                f"M={M}: net-based disc+ {plus[M]} is not below the cyclic "
                f"baseline's certified floor {certified[M]}"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    print(
        "criterion 8: disc+ ladder "
        + " -> ".join(str(plus[M]) for M in ladder)
        + f" (steps {[str(s) for s in steps]}), cyclic floors "
        + ", ".join(f"{M}:{certified[M]}" for M in ladder)
        + f" ({elapsed:.1f}s)"
    )


def test_criterion_09_witness_pipeline():
    start = time.perf_counter()
    for M in (8, 16, 32):
        scheme = make_baseline("cyclic", M, 2)
        cert = find_positive_witness(scheme)
        assert cert.value.value >= 2, f"M={M}: certificate {cert.value} below 2"
        rep = produce_report(scheme, M, positive_only=True, label=f"witness M={M}")
        assert cert.value <= rep.disc_plus, f"M={M}: certificate exceeds disc+"
        count = periodic_box_counts(scheme, cert.box)[cert.color - 1]
        dev = M * int(count) - cert.box.cardinality
        assert dev == cert.value.num, f"M={M}: certificate recount mismatch"
        print(f"criterion 9: M={M}: certified {cert.value} at {cert.box} <= disc+ {rep.disc_plus}")
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    print(f"criterion 9: witness pipeline consistent ({elapsed:.1f}s)")


def test_criterion_10_determinism(tmp_path):
    cases = [(6, 3, "paper", None), (8, 2, "smallbase", None), (5, 2, "random", 0)]
    for M, d, mode, seed in cases:
        a = generate_scheme(M, d, mode, seed=seed)
        b = generate_scheme(M, d, mode, seed=seed)
        assert scheme_to_json_bytes(a) == scheme_to_json_bytes(b)
        p1 = tmp_path / f"{mode}{M}d{d}.json"
        p2 = tmp_path / f"{mode}{M}d{d}.roundtrip.json"
        save_scheme(a, p1)
        save_scheme(load_scheme(p1), p2)
        assert p1.read_bytes() == p2.read_bytes(), f"roundtrip not lossless for {mode}"
        back = load_scheme(p1)
        assert back.coloring == a.coloring
        assert back.provenance == a.provenance
    print(f"criterion 10: byte-identical regeneration and lossless roundtrip on {len(cases)} schemes")
