"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402
from decluster import Box, disc_report, generate_scheme, periodic_box_counts  # noqa: E402
from decluster import find_positive_witness, report_to_dict, scheme_to_dict  # noqa: E402


# -- tail-percentile rank rule ------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert run.percentile(samples, 0.5) == (50, 50)
    assert run.percentile(samples, 0.9) == (90, 10)
    assert run.percentile([7.0], 0.9) == (7.0, 0)


@pytest.mark.parametrize("n", range(worker.MIN_SAMPLES, worker.MIN_SAMPLES + 120))
def test_min_samples_leave_ten_beyond_p90(n):
    assert run.percentile(list(range(n)), 0.9)[1] >= 10


def test_fewer_samples_leave_fewer_than_ten_beyond():
    assert run.percentile(list(range(worker.MIN_SAMPLES - 1)), 0.9)[1] < 10


# -- checkers reject tampered outputs -------------------------------------------


@pytest.fixture(scope="module")
def cyclic():
    scheme = generate_scheme(7, 2, "cyclic", skews=(2,))
    return scheme, scheme_to_dict(scheme)


def test_report_check_accepts_then_rejects_tampering(cyclic):
    scheme, doc = cyclic
    report = report_to_dict(disc_report(scheme, 9))
    checks.check_report(report, doc, 9, positive_only=False)
    tampered = []
    for path, value in [
        (("disc_plus_num",), report["disc_plus_num"] + 1),
        (("disc_num",), report["disc_num"] + 7),
        (("witness", "hi"), [9, 9]),
        (("witness", "color"), report["witness"]["color"] % 7 + 1),
        (("witness_abs", "lo"), [2, 2]),
        (("per_color", 0, "disc_plus_num"), report["disc_plus_num"] + 5),
        (("N",), 8),
    ]:
        bad = copy.deepcopy(report)
        target = bad
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        tampered.append(bad)
    for bad in tampered:
        with pytest.raises(CheckError):
            checks.check_report(bad, doc, 9, positive_only=False)


def test_sandwich_violation_is_caught(cyclic):
    scheme, doc = cyclic
    report = report_to_dict(disc_report(scheme, 9))
    bad = copy.deepcopy(report)
    bad["disc_num"] = bad["disc_plus_num"] - 1  # disc below disc+
    with pytest.raises(CheckError):
        checks.check_report(bad, doc, 9, positive_only=False)


def test_witness_check_rejects_tampering(cyclic):
    scheme, doc = cyclic
    cert = find_positive_witness(scheme)
    text = f"box {cert.box} color {cert.color}\n" \
           f"positive deviation: {cert.value} (scanned subgrid side {cert.side})\n"
    checks.check_witness(text, doc)
    wrong_value = text.replace(f"deviation: {cert.value.num}/", f"deviation: {cert.value.num + 1}/")
    wrong_color = text.replace(f"color {cert.color}", f"color {cert.color % 7 + 1}")
    for bad in (wrong_value, wrong_color, "box (empty) color 1\n"):
        with pytest.raises(CheckError):
            checks.check_witness(bad, doc)


@pytest.mark.parametrize("lo,hi", [((10**9, 5), (10**9 + 3, 8)), ((3, 4), (30, 18)), ((1, 1), (14, 7))])
def test_query_checks_reject_a_moved_count(cyclic, lo, hi):
    scheme, doc = cyclic
    counts = periodic_box_counts(scheme, Box(lo=lo, hi=hi))
    checks.check_query(counts, doc, lo, hi)
    bad = counts.copy()
    src = int(np.argmax(bad))
    bad[src] -= 1
    bad[(src + 1) % 7] += 1  # same total, wrong split
    with pytest.raises(CheckError):
        checks.check_query(bad, doc, lo, hi)
    if (hi[0] - lo[0] + 1) * (hi[1] - lo[1] + 1) < 500:
        checks.check_query_cells(counts, scheme.disk_of, lo, hi)
        with pytest.raises(CheckError):
            checks.check_query_cells(bad, scheme.disk_of, lo, hi)


def test_design_check_rejects_non_latin_and_failed_verify(cyclic):
    _, doc = cyclic
    spec = {"M": 7, "d": 2, "mode": "cyclic"}
    checks.check_design(spec, doc, "latin property: ok\nPASS\n")
    with pytest.raises(CheckError):
        checks.check_design(spec, doc, "FAIL: provenance regenerates a different anchor map\n")
    bad = copy.deepcopy(doc)
    bad["anchor"][0] = bad["anchor"][1]
    with pytest.raises(CheckError):
        checks.check_design(spec, bad, "PASS\n")
    with pytest.raises(CheckError):
        checks.check_design({**spec, "M": 8}, doc, "PASS\n")


# -- inputs ---------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(workload):
    a = workloads.input_digest(workloads.generate(workload, 11))
    assert a == workloads.input_digest(workloads.generate(workload, 11))
    assert a != workloads.input_digest(workloads.generate(workload, 12))


def test_serve_mix_is_half_small_boxes():
    ops = workloads.generate("serve", 3)["ops"]
    small = [op for op in ops if op["small"]]
    assert len(small) * 2 == len(ops)
    for op in ops:
        M = op["scheme"]["M"]
        lengths = [b - a + 1 for a, b in zip(op["lo"], op["hi"])]
        assert all(n < M for n in lengths) == op["small"]
        assert all(n <= 3 * M for n in lengths)


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# -- span recorder --------------------------------------------------------------


def test_self_time_subtracts_children_and_links_parents():
    rec = tracing.Recorder()
    inner = rec.wrap("coloring.verify_latin", lambda: sum(range(20000)))
    outer = rec.wrap("coloring.coloring_from_net", lambda: inner() + inner())
    with rec.op(0, 0):
        outer()
    spans = {s[4]: s for s in rec.spans}
    ids = {s[0]: s for s in rec.spans}
    assert ids[spans["coloring.coloring_from_net"][1]][4] == "op"
    inner_parent = [s for s in rec.spans if s[4] == "coloring.verify_latin"][0][1]
    assert ids[inner_parent][4] == "coloring.coloring_from_net"
    op = spans["op"]
    assert op[6] - op[5] == sum(s[7] for s in rec.spans)  # self times partition the op
    assert all(s[2] == 0 for s in rec.spans)


def test_errors_are_counted_once_where_they_start():
    rec = tracing.Recorder()

    def fail():
        raise ValueError("boom")

    inner = rec.wrap("gf.field_for", fail)
    outer = rec.wrap("cli.main", inner)
    with pytest.raises(ValueError), rec.op(0, 0):
        outer()
    assert rec.tallies[0]["gf.errors"] == 1
    assert rec.tallies[0]["cli.errors"] == 0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_spec_is_buildable_in_its_mode(workload):
    for seed in range(1, 6):
        for op in workloads.generate(workload, seed)["ops"]:
            s = op["scheme"]
            assert workloads._pool(s["mode"], s["d"], s["M"], s["M"]) == [s["M"]], s
