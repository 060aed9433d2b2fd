"""Output checks that do not trust the code under measurement.

Every check works from the scheme's JSON document (its anchor map) and
recomputes colors with numpy from the anchor-map definition: the cell
(x_1, u) of [M]^d has color (x_1 - anchor(u)) mod M + 1, and the map tiles
every axis with period M.  A failed check raises ``CheckError``.
"""

from __future__ import annotations

import itertools
import re

import numpy as np


class CheckError(Exception):
    """An output of the program is wrong."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def anchor_tensor(doc: dict) -> np.ndarray:
    M, d = int(doc["M"]), int(doc["d"])
    anchor = np.asarray(doc["anchor"], dtype=np.int64)
    _require(anchor.size == M ** (d - 1), f"anchor has {anchor.size} entries, expected {M ** (d - 1)}")
    _require(bool(anchor.size) and anchor.min() >= 1 and anchor.max() <= M,
             f"anchor values leave [1, {M}]")
    return anchor.reshape((M,) * (d - 1))


def check_latin(doc: dict) -> None:
    """Every axis-parallel line of [M]^d carries every color once."""
    M = int(doc["M"])
    tensor = anchor_tensor(doc)
    want = np.arange(1, M + 1)
    for axis in range(tensor.ndim):
        lines = np.sort(np.moveaxis(tensor, axis, -1), axis=-1)
        _require(bool((lines == want).all()), f"anchor map is not latin along axis {axis + 2}")


def box_colors(doc: dict, lo, hi) -> np.ndarray:
    """Colors of every cell of the 1-indexed inclusive box lo..hi."""
    M, d = int(doc["M"]), int(doc["d"])
    res = [(a - 1 + np.arange(b - a + 1, dtype=np.int64)) % M for a, b in zip(lo, hi)]
    x1 = res[0].reshape((-1,) + (1,) * (d - 1))
    if d == 1:
        return (x1 - (int(doc["anchor"][0]) - 1)) % M + 1
    anchors = anchor_tensor(doc)[np.ix_(*res[1:])] - 1
    return (x1 - anchors) % M + 1


def box_counts(doc: dict, lo, hi) -> np.ndarray:
    M = int(doc["M"])
    return np.bincount(box_colors(doc, lo, hi).reshape(-1), minlength=M + 1)[1:]


def _cardinality(lo, hi) -> int:
    size = 1
    for a, b in zip(lo, hi):
        size *= b - a + 1
    return size


def _deviations(doc: dict, lo, hi, extent: int) -> np.ndarray:
    d = int(doc["d"])
    _require(len(lo) == len(hi) == d, f"box {lo}..{hi} does not have {d} axes")
    _require(all(1 <= a <= b <= extent for a, b in zip(lo, hi)),
             f"box {lo}..{hi} is not a proper box of [{extent}]^{d}")
    devs = int(doc["M"]) * box_counts(doc, lo, hi) - _cardinality(lo, hi)
    _require(int(devs.sum()) == 0, f"deviations of box {lo}..{hi} sum to {int(devs.sum())}")
    return devs


def check_report(report: dict, doc: dict, extent: int, positive_only: bool) -> None:
    """An ``evaluate`` report: witness recounts, sandwich, per-color maxima."""
    M, d = int(doc["M"]), int(doc["d"])
    _require((report["M"], report["d"], report["N"], report["denominator"]) == (M, d, extent, M),
             "report header does not match the scheme and extent")
    plus = report["disc_plus_num"]
    w = report["witness"]
    devs = _deviations(doc, w["lo"], w["hi"], extent)
    _require(int(devs[w["color"] - 1]) == plus,
             f"disc+ witness recounts to {int(devs[w['color'] - 1])}, report says {plus}")
    per_color = report["per_color"]
    _require([c["color"] for c in per_color] == list(range(1, M + 1)), "per-color list is not 1..M")
    _require(max(c["disc_plus_num"] for c in per_color) == plus, "per-color disc+ maximum != disc+")
    if positive_only:
        _require(report["disc_num"] is None, "positive-only report carries disc")
        return
    disc = report["disc_num"]
    wa = report["witness_abs"]
    devs = _deviations(doc, wa["lo"], wa["hi"], extent)
    _require(abs(int(devs[wa["color"] - 1])) == disc,
             f"disc witness recounts to {int(devs[wa['color'] - 1])}, report says {disc}")
    _require(max(c["disc_num"] for c in per_color) == disc, "per-color disc maximum != disc")
    _require(plus <= disc <= (M - 1) * plus,
             f"sandwich disc/(M-1) <= disc+ <= disc fails: disc={disc}, disc+={plus}")


_BOX_RE = re.compile(r"^box (\S+) color (\d+)$")
_DEV_RE = re.compile(r"^positive deviation: (-?\d+)/(\d+) \(scanned subgrid side (\d+)\)$")


def parse_box(text: str) -> tuple[list[int], list[int]]:
    lo, hi = [], []
    for part in text.split("x"):
        m = re.fullmatch(r"\[(\d+)\.\.(\d+)\]", part)
        _require(m is not None, f"cannot parse box {text!r}")
        lo.append(int(m.group(1)))
        hi.append(int(m.group(2)))
    return lo, hi


def check_witness(stdout: str, doc: dict) -> None:
    """A ``witness`` certificate: recount its box and require a positive deviation."""
    lines = stdout.strip().splitlines()
    _require(len(lines) == 2, f"witness printed {len(lines)} lines, expected 2")
    m_box, m_dev = _BOX_RE.match(lines[0]), _DEV_RE.match(lines[1])
    _require(m_box is not None and m_dev is not None, f"cannot parse witness output {lines!r}")
    lo, hi = parse_box(m_box.group(1))
    color = int(m_box.group(2))
    num, den, side = (int(g) for g in m_dev.groups())
    M = int(doc["M"])
    _require(den == M and 1 <= color <= M, f"witness denominator {den} / color {color} invalid")
    devs = _deviations(doc, lo, hi, side)
    _require(int(devs[color - 1]) == num, f"witness recounts to {int(devs[color - 1])}, printed {num}")
    _require(num > 0, f"witness deviation {num} is not positive")


def check_query(counts, doc: dict, lo, hi) -> None:
    """Per-disk counts of a box on the unbounded grid.

    Whole periods along any axis hold every color equally often (latin
    property), so the counts equal those of the residual box, whose sides
    are the lengths mod M, plus an equal share of the rest.
    """
    M = int(doc["M"])
    counts = np.asarray(counts, dtype=np.int64)
    card = _cardinality(lo, hi)
    _require(counts.shape == (M,), f"counts have shape {counts.shape}, expected ({M},)")
    _require(int(counts.sum()) == card, f"counts sum to {int(counts.sum())}, box has {card} blocks")
    rest = [(b - a + 1) % M for a, b in zip(lo, hi)]
    if all(rest):
        expected = box_counts(doc, lo, [a + r - 1 for a, r in zip(lo, rest)])
        expected = expected + (card - _cardinality([1] * len(rest), rest)) // M
    else:
        expected = np.full(M, card // M)
    _require(bool((counts == expected).all()), f"counts of box {lo}..{hi} disagree with the recount")


def check_query_cells(counts, disk_of, lo, hi) -> None:
    """Recount a small box block by block through the allocation map."""
    tally = np.zeros(len(counts), dtype=np.int64)
    for block in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        tally[disk_of(block) - 1] += 1
    _require(bool((tally == np.asarray(counts)).all()), f"cell recount of box {lo}..{hi} disagrees")


def check_design(spec: dict, doc: dict, verify_stdout: str) -> None:
    """A generated scheme: header matches the request, latin, and verify passed."""
    _require((doc["M"], doc["d"], doc["mode"]) == (spec["M"], spec["d"], spec["mode"]),
             f"scheme header {doc['M']}/{doc['d']}/{doc['mode']} does not match {spec}")
    check_latin(doc)
    lines = verify_stdout.strip().splitlines()
    _require(bool(lines) and lines[-1] == "PASS", f"verify did not print PASS: {lines[-1:]}")
