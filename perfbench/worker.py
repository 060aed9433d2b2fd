"""One benchmark process: set up a workload's inputs, run its ops, check them.

    python3 perfbench/worker.py INPUTS.json --phase setup --schemes S --out setup.json
    python3 perfbench/worker.py INPUTS.json --phase measure --schemes S --seconds 10 --out result.json

INPUTS.json is the dump ``run.py`` writes for every run, so a run can be
replayed from it.  Phases:

  setup    import decluster, generate and save the workload's schemes (and
           load them, for serve), then stop; reports setup_s
  measure  load the schemes, then a closed loop with one client: whole
           passes over the op list, ending as near --seconds as whole passes
           allow (and with enough ops for ten samples beyond p90), then
           check the outputs
  trace    the same loop with every decluster module's public functions
           wrapped (see tracing.py); writes spans.jsonl beside the result

setup_s runs from --t0 (the parent's monotonic clock at spawn) to the point
where the first op could start.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from decluster import cli, discrepancy  # noqa: E402
from decluster.coloring import load_scheme, save_scheme  # noqa: E402
from decluster.schemegen import generate_scheme  # noqa: E402
from workloads import scheme_key  # noqa: E402

MIN_SAMPLES = 100  # nearest-rank p90 then has at least ten samples beyond it


def _quiet(fn, *args):
    """Run fn with stdout/stderr captured; return (result, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        result = fn(*args)
    return result, out.getvalue()


class Workload:
    """Builds one workload's inputs, runs op i, and collects and checks its output.

    Schemes live in ``scheme_dir``: the setup phase generates and saves them
    there, and the measuring phases only load them, so that the measuring
    process's peak memory belongs to the ops.
    """

    def __init__(self, inputs: dict, scheme_dir: Path, workdir: Path, build: bool):
        self.inputs = inputs
        self.ops = inputs["ops"]
        self.workdir = workdir
        self.docs = {}  # scheme key -> scheme JSON document
        self.schemes = {}  # scheme key -> loaded Scheme
        self.paths = {}  # scheme key -> scheme file
        for spec in inputs["schemes"]:
            key = scheme_key(spec)
            path = self.paths[key] = scheme_dir / f"{key}.json"
            if build:
                scheme = generate_scheme(spec["M"], spec["d"], spec["mode"], seed=spec.get("seed"))
                save_scheme(scheme, path)
            self.docs[key] = json.loads(path.read_bytes())
            if inputs["workload"] == "serve":
                self.schemes[key] = load_scheme(path)
        self.boxes = {
            i: discrepancy.Box(lo=tuple(op["lo"]), hi=tuple(op["hi"]))
            for i, op in enumerate(self.ops) if op["kind"] == "query"
        }

    # -- timed ---------------------------------------------------------------

    def run(self, i: int):
        """Op i; returns what ``collect`` needs.  Raises on a failed op."""
        op = self.ops[i]
        kind = op["kind"]
        if kind == "query":
            return discrepancy.periodic_box_counts(self.schemes[scheme_key(op["scheme"])], self.boxes[i])
        if kind == "design":
            spec = op["scheme"]
            path = str(self.workdir / f"op{i}.json")
            argv = ["generate", "--disks", str(spec["M"]), "--dim", str(spec["d"]),
                    "--mode", spec["mode"], "--out", path]
            if "seed" in spec:
                argv += ["--seed", str(spec["seed"])]
            rc, _ = _quiet(cli.main, argv)
            _require_exit(rc, argv)
            argv = ["verify", "--scheme", path]
        elif kind == "evaluate":
            argv = ["evaluate", "--scheme", str(self.paths[scheme_key(op["scheme"])]),
                    "--extent", str(op["extent"]), "--report", str(self.workdir / f"report{i}.json")]
            if op["positive_only"]:
                argv.append("--positive-only")
        else:
            argv = ["witness", "--scheme", str(self.paths[scheme_key(op["scheme"])])]
        rc, text = _quiet(cli.main, argv)
        _require_exit(rc, argv)
        return text

    # -- untimed -------------------------------------------------------------

    def collect(self, i: int, raw) -> tuple[object, str]:
        """(output to check, digest of the output with timings removed)."""
        kind = self.ops[i]["kind"]
        h = hashlib.sha256()
        if kind == "query":
            out = np.asarray(raw, dtype=np.int64)
            h.update(out.tobytes())
        elif kind == "design":
            doc_bytes = (self.workdir / f"op{i}.json").read_bytes()
            out = (doc_bytes, raw)  # parsed only when checked, to keep the process small
            h.update(doc_bytes + raw.encode())
        elif kind == "evaluate":
            report = json.loads((self.workdir / f"report{i}.json").read_bytes())
            report.pop("elapsed_ms")
            out = report
            h.update(json.dumps(report, sort_keys=True).encode())
        else:
            out = raw
            h.update(raw.encode())
        return out, h.hexdigest()

    def check(self, i: int, out) -> None:
        op = self.ops[i]
        kind = op["kind"]
        doc = self.docs.get(scheme_key(op["scheme"]))
        if kind == "design":
            checks.check_design(op["scheme"], json.loads(out[0]), out[1])
        elif kind == "evaluate":
            checks.check_report(out, doc, op["extent"], op["positive_only"])
        elif kind == "witness":
            checks.check_witness(out, doc)
        else:
            checks.check_query(out, doc, op["lo"], op["hi"])
            if op.get("recount_cells"):
                scheme = self.schemes[scheme_key(op["scheme"])]
                checks.check_query_cells(out, scheme.disk_of, op["lo"], op["hi"])

    def check_schemes(self) -> None:
        for doc in self.docs.values():
            checks.check_latin(doc)


def _require_exit(rc, argv) -> None:
    if rc != 0:
        raise RuntimeError(f"decluster {' '.join(argv)} exited {rc}")


def measure(wl: Workload, seconds: float, min_passes: int, rec) -> dict:
    n = len(wl.ops)
    min_passes = max(min_passes, math.ceil(MIN_SAMPLES / n))
    latencies, passes, errors, check_failures = [], [], [], []
    first = {}  # op -> (output, digest) of the first pass
    start = time.perf_counter()
    last = 0.0  # duration of the previous pass
    p = 0
    # whole passes; stop where the run ends closest to --seconds
    while p < min_passes or time.perf_counter() - start + last / 2 < seconds:
        pass_start = time.perf_counter()
        wall = 0.0
        failed = 0
        for i in range(n):
            span = rec.op(p, i) if rec else contextlib.nullcontext()
            t0 = time.perf_counter()
            try:
                with span:
                    raw = wl.run(i)
            except (Exception, SystemExit) as exc:  # a failed op is counted, not fatal
                raw = exc
            dt = time.perf_counter() - t0
            wall += dt
            latencies.append(dt * 1000.0)
            if isinstance(raw, BaseException):
                failed += 1
                errors.append(f"pass {p} op {i}: {type(raw).__name__}: {raw}")
                continue
            try:
                out, digest = wl.collect(i, raw)
            except (OSError, ValueError, KeyError) as exc:  # e.g. no report written
                check_failures.append(f"op {i}: output unreadable: {exc!r}")
                continue
            if i not in first:
                first[i] = (out, digest)
            elif first[i][1] != digest:
                check_failures.append(f"op {i}: output of pass {p} differs from an earlier pass")
        passes.append({"wall_ms": wall * 1000.0, "ops": n, "failed": failed})
        last = time.perf_counter() - pass_start
        p += 1
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        wl.check_schemes()
    except checks.CheckError as exc:
        check_failures.append(f"setup schemes: {exc}")
    for i, (out, _) in sorted(first.items()):
        try:
            wl.check(i, out)
        except checks.CheckError as exc:
            check_failures.append(f"op {i} ({wl.ops[i]['kind']}): {exc}")
    digest = hashlib.sha256("".join(first[i][1] for i in sorted(first)).encode()).hexdigest()
    return {
        "passes": passes,
        "latencies_ms": latencies,
        "attempted": len(latencies),
        "failed": sum(q["failed"] for q in passes),
        "errors": errors[:10],
        "check_failures": check_failures[:20],
        "output_digest": digest[:16],
        "peak_rss_mib": peak_rss_mib,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("inputs", type=Path)
    ap.add_argument("--phase", choices=("setup", "measure", "trace"), default="measure")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--schemes", type=Path, required=True,
                    help="scheme directory: written by --phase setup, read by the others")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--t0", type=float, default=None, help="parent's time.monotonic() at spawn")
    args = ap.parse_args(argv)
    t0 = time.monotonic() if args.t0 is None else args.t0

    inputs = json.loads(args.inputs.read_text())
    args.schemes.mkdir(parents=True, exist_ok=True)
    workdir = args.out.with_suffix(".work")
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = Workload(inputs, args.schemes, workdir, build=args.phase == "setup")
        result = {"phase": args.phase, "setup_s": time.monotonic() - t0,
                  "python": sys.version.split()[0], "numpy": np.__version__}
        if args.phase != "setup":
            rec = None
            if args.phase == "trace":
                rec = tracing.Recorder()
                tracing.install(rec)
            # two passes at least when tracing, so warm-pass figures exist
            result.update(measure(wl, args.seconds, 2 if rec else 1, rec))
            if rec:
                spans = args.out.with_name(args.out.stem + "-spans.jsonl")
                rec.write_spans(spans)
                result["trace"] = {"summary": rec.summary(), "absent": rec.absent,
                                   "spans": spans.name, "span_count": len(rec.spans)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
