"""Command-line front end: build, check, evaluate and export schemes.

Every command is deterministic for fixed flags; ``verify`` exits 0/1 so it
can gate pipelines.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .coloring import export_map_csv, load_scheme, save_scheme
from .discrepancy import (
    Box,
    disc_report,
    find_positive_witness,
    periodic_box_counts,
    save_report,
)
from .errors import DeclusterError
from .nets import save_net, verify_net
from .schemegen import MODES, build_net_counted, generate_scheme, regenerate_scheme, sweep


def _parse_box(text: str) -> Box:
    """Parse "l1:h1,l2:h2,..." into a Box."""
    lo, hi = [], []
    for part in text.split(","):
        pieces = part.split(":")
        if len(pieces) != 2:
            raise DeclusterError(f"bad box segment {part!r}; expected lo:hi")
        try:
            lo.append(int(pieces[0]))
            hi.append(int(pieces[1]))
        except ValueError:
            raise DeclusterError(f"bad box segment {part!r}; expected integers") from None
    return Box(lo=tuple(lo), hi=tuple(hi))


def _parse_int_list(text: str) -> list[int]:
    """Comma list ("4,8") or inclusive range ("4..16"); nonempty."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(v) for v in text.split(",")]
    except ValueError:
        raise DeclusterError(f"bad integer list {text!r}; expected a,b,... or lo..hi") from None
    if not values:
        raise DeclusterError(f"integer list {text!r} is empty")
    return values


def cmd_generate(args) -> int:
    scheme = generate_scheme(args.disks, args.dim, args.mode, seed=args.seed)
    save_scheme(scheme, args.out)
    print(f"wrote {args.out}: M={scheme.M} d={scheme.d} mode={scheme.mode}")
    for w in scheme.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    try:
        scheme = load_scheme(args.scheme)  # import re-checks the latin property
    except DeclusterError as exc:
        print(f"FAIL: {exc}")
        return 1
    print(f"latin property: ok (M={scheme.M}, d={scheme.d}, mode={scheme.mode})")
    try:
        rebuilt = regenerate_scheme(scheme)
    except DeclusterError as exc:
        print(f"FAIL: provenance does not regenerate: {exc}")
        return 1
    if rebuilt.coloring != scheme.coloring:  # M, d and the anchor arrays
        print("FAIL: provenance regenerates a different anchor map")
        return 1
    if scheme.provenance.get("kind") == "net":
        print("provenance net: rebuilt, balance-checked, anchor map matches")
    else:
        print("provenance: rebuilt, anchor map matches")
    print("PASS")
    return 0


def cmd_net(args) -> int:
    try:
        net, check = build_net_counted(args.base, args.m, args.dim)
    except DeclusterError as exc:
        print(f"FAIL: {exc}")
        return 1
    if check is None:  # a prime-power base: gated by rank, not yet counted
        check = verify_net(net, 0)
    if not check.ok:
        print(
            f"FAIL: interval levels={check.violation.levels} "
            f"offsets={check.violation.offsets} holds {check.found_points} points, "
            f"expected {check.expected_points}"
        )
        return 1
    print(
        f"pass: base={args.base} m={args.m} d={args.dim} "
        f"points={net.params.n_points} intervals_checked={check.intervals_checked}"
    )
    if args.out:
        save_net(net, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    scheme = load_scheme(args.scheme)
    report = disc_report(
        scheme, args.extent, positive_only=args.positive_only, max_cells=args.max_cells
    )
    box, color = report.disc_plus_witness
    print(f"M={report.M} d={report.d} extent={report.extent} mode={scheme.mode}")
    print(f"disc+ = {report.disc_plus} at {box} color {color}")
    if report.disc is not None:
        abox, acolor = report.disc_witness
        print(f"disc  = {report.disc} at {abox} color {acolor}")
    print(f"elapsed: {report.elapsed_ms:.1f} ms")
    if args.report:
        save_report(report, args.report)
        print(f"wrote {args.report}")
    return 0


def cmd_query(args) -> int:
    scheme = load_scheme(args.scheme)
    box = _parse_box(args.box)
    counts = periodic_box_counts(scheme, box)
    print(f"box {box}: {box.cardinality} blocks on {scheme.M} disks")
    print(f"response time: {int(counts.max()) if box.cardinality else 0}")
    for disk, cnt in enumerate(counts, start=1):
        print(f"disk {disk}: {int(cnt)}")
    return 0


def cmd_export_map(args) -> int:
    scheme = load_scheme(args.scheme)
    export_map_csv(scheme, args.extent, args.csv)
    print(f"wrote {args.csv}: {args.extent ** scheme.d} rows")
    return 0


def cmd_witness(args) -> int:
    scheme = load_scheme(args.scheme)
    cert = find_positive_witness(scheme)
    print(f"box {cert.box} color {cert.color}")
    print(f"positive deviation: {cert.value} (scanned subgrid side {cert.side})")
    return 0


def cmd_sweep(args) -> int:
    dims = _parse_int_list(args.dims)
    disks = _parse_int_list(args.disks)
    modes = args.modes.split(",")
    unknown = [m for m in modes if m not in MODES]
    if unknown:
        names = ", ".join(map(repr, unknown))
        raise DeclusterError(f"unknown mode(s) {names}; choose from {MODES}")
    rows = sweep(
        dims=dims,
        disks=disks,
        modes=modes,
        extent_multiplier=args.extent_multiplier,
        csv_path=args.csv,
        seed=args.seed,
        max_cells=args.max_cells,
    )
    print(f"wrote {len(rows)} rows to {args.csv}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="decluster",
        description="Build and evaluate multi-disk allocation schemes for grid data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build a scheme and write scheme.json")
    p.add_argument("--disks", type=int, required=True, metavar="M")
    p.add_argument("--dim", type=int, required=True, metavar="d")
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--seed", type=int, default=None, metavar="S")
    p.add_argument("--out", required=True, metavar="scheme.json")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="check a stored scheme (exit 0/1)")
    p.add_argument("--scheme", required=True, metavar="scheme.json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("net", help="construct and balance-check a digital net")
    p.add_argument("--base", type=int, required=True, metavar="b")
    p.add_argument("--m", type=int, required=True, metavar="m")
    p.add_argument("--dim", type=int, required=True, metavar="d")
    p.add_argument("--out", default=None, metavar="net.json")
    p.set_defaults(func=cmd_net)

    p = sub.add_parser("evaluate", help="exact disc/disc+ over all boxes of [N]^d")
    p.add_argument("--scheme", required=True, metavar="scheme.json")
    p.add_argument("--extent", type=int, required=True, metavar="N")
    p.add_argument("--positive-only", action="store_true")
    p.add_argument("--report", default=None, metavar="report.json")
    p.add_argument("--max-cells", type=int, default=None,
                   help="cell budget of the scan; overrides DECLUSTER_MAX_CELLS")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("query", help="response time and per-disk counts of one box")
    p.add_argument("--scheme", required=True, metavar="scheme.json")
    p.add_argument("--box", required=True, metavar='"l1:h1,l2:h2,..."')
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("export-map", help="dump the block->disk map as CSV")
    p.add_argument("--scheme", required=True, metavar="scheme.json")
    p.add_argument("--extent", type=int, required=True, metavar="N")
    p.add_argument("--csv", required=True, metavar="map.csv")
    p.set_defaults(func=cmd_export_map)

    p = sub.add_parser("witness", help="certify a positive deviation cheaply")
    p.add_argument("--scheme", required=True, metavar="scheme.json")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("sweep", help="measure a grid of (M, d, mode) cells")
    p.add_argument("--dims", required=True, metavar="D1,D2")
    p.add_argument("--disks", required=True, metavar="lo..hi")
    p.add_argument("--modes", required=True, metavar="m1,m2,...")
    p.add_argument("--extent-multiplier", type=int, default=1, metavar="k")
    p.add_argument("--csv", required=True, metavar="out.csv")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-cells", type=int, default=None,
                   help="cell budget of each scan; overrides DECLUSTER_MAX_CELLS")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DeclusterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
