"""End-to-end scheme construction, regeneration, and experiment sweeps.

``generate_scheme`` is the front door: it factors the disk count, checks
the dimensional precondition, reads the latin coloring off the digital
net, and packages everything with provenance that is sufficient to rebuild
the scheme bit for bit.  No scheme builds a point set, on ``generate`` or
``verify``: each prime-power factor of the base is gated by rank and its
anchor map read off its generator matrices (``nets.generator_anchor``), and
a composite base joins those maps digitwise by CRT (``nets.crt_anchor``).
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .coloring import (
    DEGENERATE_TWO_DIM,
    LatinColoring,
    Scheme,
    check_anchor_budget,
    make_baseline,
    verify_latin,
)
from .discrepancy import disc_report
from .errors import (
    BudgetExceededError,
    DeclusterError,
    InvalidNetError,
    ParameterError,
    SchemeFormatError,
    _max_cells,
    check_budget,
)
from .gf import prime_power_decompose
from .nets import (
    DigitalNet,
    GeneratorSet,
    NetCheck,
    NetParams,
    check_net_provenance,
    crt_anchor,
    crt_compose_counted,
    generators_from_dict,
    net_from_generators,
    pascal_power_generators,
)

MODES = ("paper", "smallbase", "cyclic", "random", "checkerboard")


@dataclass(frozen=True)
class Factorization:
    """M written as a product of prime powers of pairwise distinct primes."""

    M: int
    factors: tuple[int, ...]  # ascending; each is p^k for a distinct prime p

    @property
    def q1(self) -> int:
        """Smallest prime-power factor; the binding constraint on dimension."""
        return self.factors[0]


def factorize_canonical(M: int) -> Factorization:
    """Trial-division factorization of M into ascending prime powers."""
    if M < 2:
        raise ParameterError(f"M={M} must be >= 2")
    factors = []
    rem = M
    p = 2
    while p * p <= rem:
        if rem % p == 0:
            pk = 1
            while rem % p == 0:
                rem //= p
                pk *= p
            factors.append(pk)
        p += 1 if p == 2 else 2
    if rem > 1:
        factors.append(rem)
    return Factorization(M=M, factors=tuple(sorted(factors)))


def _pascal_components(b: int, m: int, d: int) -> list[GeneratorSet]:
    """Pascal generator matrices over GF(q) for each prime-power factor q of b."""
    fac = factorize_canonical(b)
    if d > fac.q1 + 1:
        raise ParameterError(
            f"d={d} > q1+1={fac.q1 + 1} for base {b} (prime-power factors {fac.factors})"
        )
    return [pascal_power_generators(q, d, m) for q in fac.factors]


def _net_components(b: int, m: int, d: int) -> list[DigitalNet]:
    """The rank-gated generator nets over GF(q), one per prime-power factor q of b.

    The base-b net's b^m d m digit cells are held to the cell budget
    (``errors.check_budget``) before any matrix or point is built.
    """
    NetParams(b=b, m=m, d=d)  # refuse b < 2, m < 0 and d < 1 before sizing the net
    formula = f"b^m*d*m = {b}^{m}*{d}*{m}"
    bits = _max_cells(None).bit_length()
    if m > max(bits, 64):  # 2^m alone exceeds the budget: an absurd m forms no b^m
        check_budget(2**bits, f"{formula} > 2^{bits}")
    check_budget(b**m * d * m, formula)
    return [net_from_generators(g) for g in _pascal_components(b, m, d)]


def build_net_counted(b: int, m: int, d: int) -> tuple[DigitalNet, NetCheck | None]:
    """Balanced base-b net, and the residue composition's count of its points.

    Every prime-power factor q of b gets its own generator-matrix net over
    GF(q), checked by the rank gate; the digitwise residue bijection
    assembles them into one base-b point set, which ``crt_compose_counted``
    counts.  The count is None for a prime-power base, whose net the rank
    gate checked without counting.
    """
    return crt_compose_counted(_net_components(b, m, d), b)


def _coloring_from_generators(components: Sequence[GeneratorSet], M: int) -> LatinColoring:
    """The coloring of a residue composition of generator nets, without its points.

    ``crt_anchor`` gates every component by the rank criterion and joins
    their anchor maps.  The gate proves the composition a (0, m, d)-net
    (Niederreiter 1992, ch. 4), which makes the map latin; ``generate_scheme``
    checks that independently with ``verify_latin``.
    """
    return LatinColoring(M=M, d=components[0].d, anchor=crt_anchor(components, M))


def _smallbase_parameters(M: int, d: int) -> tuple[int, int]:
    """Pick the smallest base p with M = p^k and d <= p+1; return (p, k)."""
    decomp = prime_power_decompose(M)
    if decomp is None:
        raise ParameterError(
            f"M={M} is not a prime power (factors "
            f"{factorize_canonical(M).factors}); smallbase requires M = p^k"
        )
    r, j = decomp
    for s in range(1, j + 1):
        if j % s == 0 and d <= r**s + 1:
            return r**s, j // s
    raise ParameterError(f"d={d} > p+1={M + 1} even for the largest base p=M={M}")


def generate_scheme(
    M: int,
    d: int,
    mode: str,
    *,
    seed: int | None = None,
    skews: Sequence[int] | None = None,
) -> Scheme:
    """Build a complete disk-allocation scheme for M disks in dimension d.

    Modes:
      paper       base-M net with m = d-1 digits; requires d <= q1+1 where
                  q1 is the smallest prime-power factor of M.
      smallbase   M must be p^k for a prime power p with d <= p+1; uses the
                  smallest such base with m = k(d-1) digits.
      cyclic      skewed modular anchor (``skews``, default all ones).
      random      cyclic scrambled by seeded per-axis relabelings.
      checkerboard  the two-disk parity scheme (M = 2 only).

    Degenerate corners are routed to the equivalent baseline: M=1 and d=1
    (single disk / single row: every latin coloring coincides), and M=2 for
    the net-backed modes (the parity scheme is the two-disk construction).

    The M^(d-1) anchor cells are held to numpy's axis limit and the cell
    budget (``coloring.check_anchor_budget``) before any anchor is built,
    and a net-backed anchor map is checked by ``verify_latin`` apart from
    the rank gate that made it.
    """
    if mode not in MODES:
        raise ParameterError(f"unknown mode {mode!r}; choose from {MODES}")
    if M < 1:
        raise ParameterError(f"disk count M={M} must be >= 1")
    if d < 1:
        raise ParameterError(f"dimension d={d} must be >= 1")
    check_anchor_budget(M, d)
    if mode == "checkerboard":
        return make_baseline("checkerboard", M, d)
    if mode == "cyclic":
        return make_baseline("cyclic", M, d, skews=skews)
    if mode == "random":
        return make_baseline("random", M, d, seed=0 if seed is None else seed)

    # net-backed modes: paper / smallbase
    if M == 1 or d == 1:
        return make_baseline("cyclic", M, d)
    if M == 2:
        return make_baseline("checkerboard", M, d)
    if mode == "paper":
        base, m = M, d - 1
    else:
        base, k = _smallbase_parameters(M, d)
        m = k * (d - 1)
    components = _pascal_components(base, m, d)
    coloring = _coloring_from_generators(components, M)
    check = verify_latin(coloring)
    if not check.ok:
        raise InvalidNetError(
            f"anchor map read off the generator matrices is unbalanced along axis {check.axis}"
        )
    record = components[0].as_dict()
    if len(components) > 1:
        parts = [{"b": gens.field.q, **gens.as_dict()} for gens in components]
        record = {"kind": "crt", "components": parts}
    warnings = (DEGENERATE_TWO_DIM,) if m == 1 else ()
    provenance = {"kind": "net", "base": base, "m": m, "net": record}
    return Scheme(coloring=coloring, mode=mode, provenance=provenance, warnings=warnings)


def _check_provenance(scheme: Scheme) -> None:
    """Refuse a provenance record whose shape regeneration cannot read.

    Scheme files are untrusted input, so the whole record (the net included)
    is walked before anything is built: a malformed file raises
    SchemeFormatError, not a KeyError or TypeError from deep inside, and
    every size in it is held to the M^(d-1) points the anchor map has, so
    the file bounds the work of rebuilding it.
    (``scheme_from_dict`` has already checked that it is an object.)
    """
    prov = scheme.provenance
    if prov.get("kind") == "net":
        base, m = prov.get("base"), prov.get("m")
        points = scheme.M ** (scheme.d - 1)
        if not (type(base) is int and type(m) is int and 2 <= base <= points
                and 0 <= m <= points.bit_length() and base**m == points):
            raise SchemeFormatError(
                f"provenance base={base!r}, m={m!r} do not give base^m = M^(d-1) = {points}"
            )
        check_net_provenance(prov.get("net"), base, m, scheme.d)
    elif scheme.mode == "cyclic" and prov.get("skews") is not None:
        skews = prov["skews"]
        if not isinstance(skews, list) or not all(type(v) is int for v in skews):
            raise SchemeFormatError(f"cyclic skews must be a list of integers, got {skews!r}")
    elif scheme.mode == "random":
        if type(prov.get("seed", 0)) is not int or prov.get("seed", 0) < 0:
            raise SchemeFormatError(f"random seed must be an integer >= 0, got {prov['seed']!r}")
        if prov.get("base", "cyclic") != "cyclic":
            raise SchemeFormatError(f"random schemes scramble the cyclic one, not {prov['base']!r}")


def regenerate_scheme(scheme: Scheme) -> Scheme:
    """Rebuild a scheme purely from its mode and provenance record.

    Used by the verifier: the rebuilt anchor map must match the stored one.
    The record's shape is checked first (``_check_provenance``).  A net
    record, one generator set or a residue composition of them, is rebuilt
    as ``generate_scheme`` builds it, from the matrices and without points,
    once M is known to be a power of its base; the net is refused
    (NetConstructionError) when a component fails the rank criterion.  That
    gate alone stands for the latin check here: the verifier compares the
    rebuilt map with the stored one, which ``load_scheme`` has checked.  Its
    M^(d-1) anchor cells are held to the cell budget first, as the baseline
    rebuilds hold theirs (``coloring.check_anchor_budget``).
    """
    _check_provenance(scheme)
    M, d = scheme.M, scheme.d
    prov = scheme.provenance
    if prov.get("kind") == "net":
        check_anchor_budget(M, d)
        record = prov["net"]
        parts = record["components"] if record["kind"] == "crt" else [record]
        coloring = _coloring_from_generators([generators_from_dict(c) for c in parts], M)
        return Scheme(
            coloring=coloring,
            mode=scheme.mode,
            provenance=scheme.provenance,
            warnings=scheme.warnings,
        )
    if scheme.mode == "checkerboard":
        return make_baseline("checkerboard", M, d)
    if scheme.mode == "cyclic":
        return make_baseline("cyclic", M, d, skews=prov.get("skews"))
    if scheme.mode == "random":
        return make_baseline("random", M, d, seed=prov.get("seed", 0))
    raise SchemeFormatError(
        f"cannot regenerate mode {scheme.mode!r} from provenance {prov!r}"
    )


# ---------------------------------------------------------------------------
# Experiment sweeps


@dataclass(frozen=True)
class SweepRow:
    """One measured cell of a sweep: exact numerators over denominator M."""

    M: int
    d: int
    N: int
    mode: str
    disc_num: int
    disc_plus_num: int
    runtime_ms: float


SWEEP_HEADER = ("M", "d", "N", "mode", "disc_num", "disc_plus_num", "runtime_ms")


def sweep(
    dims: Sequence[int],
    disks: Sequence[int],
    modes: Sequence[str],
    extent_multiplier: int = 1,
    csv_path=None,
    *,
    seed: int = 0,
    max_cells: int | None = None,
    log=None,
) -> list[SweepRow]:
    """Measure disc/disc+ for every (M, d, mode) cell at N = multiplier * M.

    The number of cells, disks * dims * modes, is held to the cell budget
    (``errors.check_budget``) before any scheme is built, and the three
    sequences are read without copying, so a long ``range`` costs nothing
    until it is refused.  Cells whose mode preconditions fail (or whose
    scan exceeds ``max_cells``) are skipped with a note on ``log`` (default
    stderr).  Rows are appended to ``csv_path`` if given, writing a header
    only when the file is new or empty.
    """
    if extent_multiplier < 1:
        raise ParameterError(f"extent multiplier {extent_multiplier} must be >= 1")
    sizes = [_length(values) for values in (disks, dims, modes)]
    check_budget(math.prod(sizes), "disks*dims*modes = {}*{}*{}".format(*sizes))
    log = sys.stderr if log is None else log
    rows: list[SweepRow] = []
    cells = ((M, d, mode) for M in disks for d in dims for mode in modes)
    for M, d, mode in cells:
        try:
            scheme = generate_scheme(M, d, mode, seed=seed)
        except DeclusterError as exc:
            print(f"sweep: skipping M={M} d={d} mode={mode}: {exc}", file=log)
            continue
        N = extent_multiplier * M
        try:
            report = disc_report(scheme, N, max_cells=max_cells)
        except BudgetExceededError as exc:
            print(f"sweep: skipping M={M} d={d} mode={mode}: {exc}", file=log)
            continue
        rows.append(
            SweepRow(
                M=M,
                d=d,
                N=N,
                mode=mode,
                disc_num=report.disc.num,
                disc_plus_num=report.disc_plus.num,
                runtime_ms=report.elapsed_ms,
            )
        )
    if csv_path is not None:
        _append_rows(csv_path, rows)
    return rows


def _length(values: Sequence) -> int:
    """len(values), also for a range longer than ``len`` can report."""
    try:
        return len(values)
    except OverflowError:  # a range of more than sys.maxsize values
        return (values[-1] - values[0]) // values.step + 1


def _append_rows(csv_path, rows: Sequence[SweepRow]) -> None:
    path = Path(csv_path)
    need_header = not path.exists() or path.stat().st_size == 0
    with path.open("a", newline="") as fh:
        writer = csv.writer(fh)
        if need_header:
            writer.writerow(SWEEP_HEADER)
        for row in rows:
            writer.writerow(
                [row.M, row.d, row.N, row.mode, row.disc_num, row.disc_plus_num,
                 f"{row.runtime_ms:.3f}"]
            )
