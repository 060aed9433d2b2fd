"""The decluster benchmark: seeded closed-loop workloads, checked outputs.

    python3 perfbench/run.py --workload design --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Run from anywhere; the program is imported from ``src/`` of the checkout that
holds this file, and nothing is installed or built.  Workloads (one client,
one process, one thread, no think time) are described in workloads.py.

``--trace 0`` prints the end-to-end metrics: setup_s is the median over
fresh setup processes (interpreter start, ``import decluster``, generating
and saving the workload's schemes); the rest come from one measuring process
that loads the last setup's schemes.  ``--trace 1`` runs the same ops untraced and then
traced, each for half of ``--seconds``, and prints the per-layer metrics of
tracing.py plus the tracing overhead.  Every line but the last is for people;
the last is one JSON object with keys correct, attempted, failed, metrics.
The command exits 1 when an output check fails or an op fails.

Inputs, results and spans of each run are kept under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}
SETUP_PROCESSES = 5  # setup_s is the median over this many fresh processes
DEADLINE_S = 170.0  # a run ends before the driver's 180 s limit
# BLAS/OpenMP pools pinned to one thread: each workload is single-threaded.
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def percentile(samples, q: float) -> tuple[float, int]:
    """Nearest-rank q-quantile and the number of samples strictly beyond its rank."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _median_warm_pass_ms(result: dict) -> float:
    walls = [p["wall_ms"] for p in result["passes"]]
    return statistics.median(walls[1:] if len(walls) > 1 else walls)


def _environment() -> dict:
    src = ROOT / "src" / "decluster"
    h = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        h.update(path.name.encode() + path.read_bytes())
    return {"nproc": os.cpu_count(), "commit": _commit(), "source_sha256": h.hexdigest()[:16]}


def _commit() -> str | None:
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Run:
    """One workload run: its directory, its worker processes, its deadline."""

    def __init__(self, workload: str, seed: int, trace: int):
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.dir = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.inputs = workloads.generate(workload, seed)
        self.input_path = self.dir / "inputs.json"
        self.input_path.write_text(json.dumps(self.inputs, indent=1))
        self.input_digest = workloads.input_digest(self.inputs)
        self.env = {**os.environ, **THREAD_ENV}

    def worker(self, phase: str, tag: str, schemes: str, seconds: float = 0.0) -> dict:
        out = self.dir / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), str(self.input_path), "--phase", phase,
               "--schemes", str(self.dir / schemes), "--seconds", repr(seconds), "--out", str(out),
               "--t0", repr(time.monotonic())]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"no time left for the {tag} process")
        try:
            proc = subprocess.run(cmd, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{tag} process did not finish before the deadline") from None
        if proc.returncode != 0 or not out.is_file():
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-15:]
            raise BenchError(f"{tag} process exited {proc.returncode}:\n" + "\n".join(tail))
        return json.loads(out.read_text())


def _outcome(results: list[dict]) -> tuple[bool, int, int, list[str]]:
    problems = [f for r in results for f in r["check_failures"]]
    problems += [e for r in results for e in r["errors"]]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = not any(r["check_failures"] for r in results)
    return correct, attempted, failed, problems


def end_to_end(run: Run, seconds: float) -> tuple[dict, list[str], list[dict]]:
    setups = [run.worker("setup", f"setup{k}", f"schemes{k}")["setup_s"]
              for k in range(SETUP_PROCESSES)]
    res = run.worker("measure", "measure", f"schemes{SETUP_PROCESSES - 1}", seconds)
    lat = res["latencies_ms"]
    p50, _ = percentile(lat, 0.5)
    p90, beyond = percentile(lat, 0.9)
    ops_per_s = statistics.median(
        (p["ops"] - p["failed"]) / (p["wall_ms"] / 1000.0) for p in res["passes"])
    values = {"setup_s": statistics.median(setups), "ops_per_s": ops_per_s,
              "op_p50_ms": p50, "op_p90_ms": p90, "peak_rss_mib": res["peak_rss_mib"]}
    notes = [
        f"op_p90_ms from {len(lat)} samples, {beyond} beyond it; {len(res['passes'])} passes "
        f"of {len(run.inputs['ops'])} ops",
        f"error_rate = {res['failed'] / res['attempted']:.6g} ratio "
        f"({res['failed']} failed of {res['attempted']} attempted)",
        "setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups),
        f"output_digest = {res['output_digest']}",
    ]
    return values, notes, [res]


def per_layer(run: Run, seconds: float) -> tuple[dict, list[str], list[dict]]:
    run.worker("setup", "setup", "schemes")
    plain = run.worker("measure", "untraced", "schemes", seconds / 2)
    traced = run.worker("trace", "traced", "schemes", seconds / 2)
    values = dict(traced["trace"]["summary"])
    untraced_ms = _median_warm_pass_ms(plain)
    traced_ms = _median_warm_pass_ms(traced)
    values["trace.untraced_pass_ms"] = untraced_ms
    values["trace.overhead_ms"] = traced_ms - untraced_ms
    values["trace.overhead_pct"] = 100.0 * (traced_ms - untraced_ms) / untraced_ms
    gap = values["trace.self_gap_pct"]
    notes = [
        f"tracing overhead = {values['trace.overhead_ms']:.1f} ms per pass "
        f"({values['trace.overhead_pct']:.2f}% of {untraced_ms:.1f} ms untraced)",
        f"layer self times cover {100 - gap:.2f}% of traced op wall time"
        + ("" if gap <= tracing.GAP_LIMIT_PCT else f"; GAP {gap:.2f}% exceeds {tracing.GAP_LIMIT_PCT}%"),
        f"spans: {traced['trace']['span_count']} in {run.dir / traced['trace']['spans']}",
        f"output_digest = {plain['output_digest']} untraced, {traced['output_digest']} traced",
    ]
    if traced["trace"]["absent"]:
        notes.append("absent (no longer in the package): " + ", ".join(traced["trace"]["absent"]))
    if plain["output_digest"] != traced["output_digest"]:
        traced["check_failures"].append("traced outputs differ from untraced outputs")
    return values, notes, [plain, traced]


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    run = Run(workload, seed, trace)
    try:
        values, notes, results = (per_layer if trace else end_to_end)(run, seconds)
    finally:  # schemes are rebuilt from inputs.json on replay
        for schemes in run.dir.glob("schemes*"):
            shutil.rmtree(schemes, ignore_errors=True)
    units = tracing.METRICS if trace else END_TO_END
    correct, attempted, failed, problems = _outcome(results)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    env = {**_environment(), "python": results[0]["python"], "numpy": results[0]["numpy"]}
    lines = [f"== {workload} seed={seed} seconds={seconds:g} trace={trace}",
             f"why: {run.inputs['why']}",
             f"input_digest = {run.input_digest} ({len(run.inputs['ops'])} ops, "
             f"{len(run.inputs['schemes'])} setup schemes)"]
    lines += [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines += notes + [f"env: {json.dumps(env, sort_keys=True)}"]
    lines += [f"PROBLEM: {p}" for p in problems]
    (run.dir / "summary.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
         "input_digest": run.input_digest, "env": env, "result": result, "notes": notes,
         "problems": problems}, indent=1))
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "decluster" / "__init__.py").is_file():
        print(f"error: no decluster package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:  # one at a time, each in its own processes
        try:
            result, lines = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"] and result["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
