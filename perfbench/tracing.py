"""Span recorder for the traced benchmark run.

``install`` wraps, in the running process only, every public function of the
six decluster modules plus the ``PrimePowerField`` constructor, and rebinds
every name under which a decluster module holds them (so ``cli``'s imported
``generate_scheme`` is traced too).  Each call records a span: id, parent
span, op id, pass, name, start, end and self time (its duration minus the
time its child spans cover).  Spans stay in memory until ``write_spans``.

Self time is charged to one metric per function (``SELF_TIME``); public
functions the table does not name go to their module's default metric, and
names the table lists that the package no longer has are reported as absent.
Counts are taken at the same boundaries from arguments and results.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("gf", "nets", "coloring", "discrepancy", "schemegen", "cli")
CONSTRUCTORS = ("gf.PrimePowerField",)

SELF_TIME = {
    "gf.PrimePowerField": "gf.field_build_ms",
    "gf.field_for": "gf.field_build_ms",
    "gf.field_for_order": "gf.field_build_ms",
    "gf.field_from_dict": "gf.field_build_ms",
    "gf.find_irreducible": "gf.field_build_ms",
    "nets.pascal_power_generators": "nets.generators_ms",
    "nets.net_from_generators": "nets.net_build_ms",
    "nets.regenerate_net": "nets.net_build_ms",
    "nets.verify_net": "nets.verify_net_ms",
    "nets.crt_compose": "nets.crt_ms",
    "coloring.coloring_from_net": "coloring.extract_ms",
    "coloring.verify_latin": "coloring.verify_latin_ms",
    "coloring.save_scheme": "coloring.save_ms",
    "coloring.scheme_to_dict": "coloring.save_ms",
    "coloring.scheme_to_json_bytes": "coloring.save_ms",
    "coloring.load_scheme": "coloring.load_ms",
    "coloring.scheme_from_dict": "coloring.load_ms",
    "coloring.make_baseline": "coloring.baseline_ms",
    "coloring.color_grid": "coloring.color_grid_ms",
    "discrepancy.disc_report": "discrepancy.scan_ms",
    "discrepancy.find_positive_witness": "discrepancy.witness_ms",
    "discrepancy.periodic_box_counts": "discrepancy.query_ms",
    "schemegen.generate_scheme": "schemegen.generate_ms",
    "schemegen.regenerate_scheme": "schemegen.regenerate_ms",
    "cli.main": "cli.self_ms",
}
DEFAULT_SELF_TIME = {
    "gf": "gf.field_build_ms",
    "nets": "nets.net_build_ms",
    "coloring": "coloring.other_ms",
    "discrepancy": "discrepancy.other_ms",
    "schemegen": "schemegen.generate_ms",
    "cli": "cli.self_ms",
}

# Per-layer metrics in report order, with units.  Values are per warm pass.
TIME_METRICS = list(dict.fromkeys([*SELF_TIME.values(), *DEFAULT_SELF_TIME.values()]))
COUNT_METRICS = {
    "gf.fields_built": "count",
    "nets.points_built": "count",
    "nets.intervals_checked": "count",
    "nets.digits_mib": "MiB",
    "coloring.scheme_kib": "KiB",
    "coloring.grid_cells": "count",
    "discrepancy.slabs": "count",
    "discrepancy.witness_boxes": "count",
    "discrepancy.query_blocks": "count",
    "discrepancy.small_box_share": "ratio",
    **{f"{layer}.errors": "count" for layer in LAYERS},
}
TRACE_METRICS = {
    "trace.op_wall_ms": "ms",
    "trace.self_gap_pct": "%",
    "trace.untraced_pass_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}
METRICS = {**{m: "ms" for m in TIME_METRICS}, **COUNT_METRICS, **TRACE_METRICS}
GAP_LIMIT_PCT = 5.0


def _tri(n: int) -> int:
    return n * (n + 1) // 2


def _net_built(net) -> dict:
    p = net.params
    return {"nets.points_built": p.n_points,
            "nets.digits_mib": p.n_points * p.d * p.m * 8 / 2**20}  # int64 digit array


def _query(args, result) -> dict:
    box = args[1]
    small = all(b - a + 1 < len(result) for a, b in zip(box.lo, box.hi))
    return {"discrepancy.query_blocks": box.cardinality, "queries": 1, "small_boxes": int(small)}


# qualname -> f(args, result) giving the counts to add for one call.
COUNTERS = {
    "gf.PrimePowerField": lambda a, r: {"gf.fields_built": 1},
    "nets.net_from_generators": lambda a, r: _net_built(r),
    # a single component is passed through, not built
    "nets.crt_compose": lambda a, r: _net_built(r) if len(a[0]) > 1 else {},
    "nets.verify_net": lambda a, r: {"nets.intervals_checked": r.intervals_checked},
    "coloring.save_scheme": lambda a, r: {"coloring.scheme_kib": os.path.getsize(a[1]) / 1024},
    "coloring.color_grid": lambda a, r: {"coloring.grid_cells": r.size},
    "discrepancy.disc_report": lambda a, r: {"discrepancy.slabs": _tri(r.extent) ** (r.d - 1)},
    "discrepancy.find_positive_witness": lambda a, r: {
        "discrepancy.witness_boxes": _tri(r.side) ** r.box.d},
    "discrepancy.periodic_box_counts": _query,
    "cli.main": lambda a, r: {"cli.errors": int(r != 0)},
}


class Recorder:
    """In-memory spans and per-pass metric tallies of one traced process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.tallies: dict[int, defaultdict] = defaultdict(lambda: defaultdict(float))
        self.pass_index = 0
        self.op_id = None
        self.absent: list[str] = []
        self._stack: list[list] = []  # [span id, start ns, child ns]
        self._next_id = 0
        self._errors: list[BaseException] = []

    def _enter(self) -> None:
        self._stack.append([self._next_id, time.perf_counter_ns(), 0])
        self._next_id += 1

    def _exit(self, name: str, metric: str) -> int:
        end = time.perf_counter_ns()
        span_id, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][2] += duration
        self.spans.append((span_id, parent, self.op_id, self.pass_index, name, start, end,
                           duration - child))
        self.tallies[self.pass_index][metric] += (duration - child) / 1e6
        return duration

    def wrap(self, qualname: str, fn):
        layer = qualname.split(".")[0]
        metric = SELF_TIME.get(qualname, DEFAULT_SELF_TIME[layer])
        counter = COUNTERS.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._exit(qualname, metric)
                if not any(exc is seen for seen in self._errors):  # count where it started
                    self._errors.append(exc)
                    self.tallies[self.pass_index][f"{layer}.errors"] += 1
                raise
            self._exit(qualname, metric)
            if counter is not None:
                tally = self.tallies[self.pass_index]
                for key, value in counter(args, result).items():
                    tally[key] += value
            return result

        return traced

    @contextlib.contextmanager
    def op(self, pass_index: int, op_id: int):
        """Root span of one benchmark op; its self time is time no layer covers."""
        self.pass_index, self.op_id = pass_index, op_id
        self._enter()
        try:
            yield
        finally:
            duration = self._exit("op", "trace.op_self_ms")
            self.tallies[pass_index]["trace.op_wall_ms"] += duration / 1e6
            self.op_id = None

    def summary(self) -> dict:
        """Per-layer metrics averaged over warm passes (all passes if only one)."""
        passes = sorted(self.tallies)
        warm = passes[1:] if len(passes) > 1 else passes
        out = {}
        for name in [*TIME_METRICS, *COUNT_METRICS, "trace.op_wall_ms"]:
            out[name] = sum(self.tallies[p][name] for p in warm) / len(warm)
        queries = sum(self.tallies[p]["queries"] for p in warm)
        small = sum(self.tallies[p]["small_boxes"] for p in warm)
        out["discrepancy.small_box_share"] = small / queries if queries else 0.0
        gap = sum(self.tallies[p]["trace.op_self_ms"] for p in warm) / len(warm)
        out["trace.self_gap_pct"] = 100.0 * gap / out["trace.op_wall_ms"]
        return out

    def write_spans(self, path) -> None:
        keys = ("id", "parent", "op", "pass", "name", "start_ns", "end_ns", "self_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def install(rec: Recorder) -> None:
    """Wrap the six modules' public functions and rebind every reference."""
    wrapped = {}  # id(original) -> (original, wrapper)
    found = set()
    for layer in LAYERS:
        mod = importlib.import_module(f"decluster.{layer}")
        for name, obj in list(vars(mod).items()):
            qualname = f"{layer}.{name}"
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                if qualname in CONSTRUCTORS:
                    obj.__init__ = rec.wrap(qualname, obj.__init__)
                    found.add(qualname)
            elif callable(obj):
                wrapped[id(obj)] = (obj, rec.wrap(qualname, obj))
                found.add(qualname)
    for modname, mod in list(sys.modules.items()):
        if modname != "decluster" and not modname.startswith("decluster."):
            continue
        for name, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])
    rec.absent = sorted(set(SELF_TIME) - found)
