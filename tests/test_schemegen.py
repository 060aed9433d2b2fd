"""End-to-end scheme generation, regeneration, and the comparison sweep."""

import dataclasses
import hashlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decluster.coloring import (
    DEGENERATE_TWO_DIM,
    TRIVIAL_SINGLE_DISK,
    load_scheme,
    save_scheme,
    scheme_to_dict,
    scheme_to_json_bytes,
    verify_latin,
)
from decluster import coloring, schemegen
from decluster.errors import ParameterError, SchemeFormatError
from decluster.schemegen import (
    MODES,
    Factorization,
    SweepRow,
    factorize_canonical,
    generate_scheme,
    regenerate_scheme,
    sweep,
)

# -- factorization ---------------------------------------------------------------


def test_factorize_examples():
    assert factorize_canonical(12) == Factorization(M=12, factors=(3, 4))
    assert factorize_canonical(12).q1 == 3
    assert factorize_canonical(7) == Factorization(M=7, factors=(7,))
    assert factorize_canonical(360).factors == (5, 8, 9)
    assert factorize_canonical(2).factors == (2,)


def test_factorize_rejects_tiny():
    with pytest.raises(ParameterError):
        factorize_canonical(1)
    with pytest.raises(ParameterError):
        factorize_canonical(0)


# -- generation ---------------------------------------------------------------------


def test_modes_tuple():
    assert MODES == ("paper", "smallbase", "cyclic", "random", "checkerboard")


def test_paper_mode_basic():
    scheme = generate_scheme(6, 3, "paper")
    assert scheme.mode == "paper"
    assert verify_latin(scheme.coloring).ok
    assert scheme.coloring.M == 6 and scheme.coloring.d == 3
    prov = scheme.provenance
    assert prov["kind"] == "net"
    assert prov["base"] == 6 and prov["m"] == 2


def test_paper_mode_dimension_cap():
    with pytest.raises(ParameterError, match=r"d=4 > q1\+1=3"):
        generate_scheme(6, 4, "paper")
    # prime M: cap is M+1, so d=6 works for M=5
    scheme = generate_scheme(5, 6, "paper")
    assert verify_latin(scheme.coloring).ok


def test_paper_mode_planar_warning():
    scheme = generate_scheme(3, 2, "paper")
    assert DEGENERATE_TWO_DIM in scheme.warnings
    deep = generate_scheme(3, 3, "paper")
    assert DEGENERATE_TWO_DIM not in deep.warnings


def test_smallbase_mode_picks_smallest_admissible_base():
    scheme = generate_scheme(8, 2, "smallbase")
    assert scheme.provenance["base"] == 2
    assert scheme.provenance["m"] == 3  # k=3 digits, d-1 = 1
    assert verify_latin(scheme.coloring).ok
    # d=4 forces base 8 = 2^3 (need d <= p^s + 1, so 2 and 4 are too small)
    deeper = generate_scheme(8, 4, "smallbase")
    assert deeper.provenance["base"] == 8
    assert verify_latin(deeper.coloring).ok


def test_smallbase_rejects_non_prime_power():
    with pytest.raises(ParameterError, match="prime power"):
        generate_scheme(12, 2, "smallbase")


def test_degenerate_disk_counts_route_to_baselines():
    two = generate_scheme(2, 2, "paper")
    assert two.mode == "checkerboard"
    assert two.disk_of((1, 2)) == 2
    one = generate_scheme(1, 3, "smallbase")
    assert TRIVIAL_SINGLE_DISK in one.warnings
    line = generate_scheme(5, 1, "paper")
    assert line.mode == "cyclic"
    assert line.coloring.d == 1


def test_baseline_modes_pass_through():
    cy = generate_scheme(5, 3, "cyclic")
    assert cy.mode == "cyclic" and verify_latin(cy.coloring).ok
    rn = generate_scheme(5, 2, "random", seed=3)
    rn2 = generate_scheme(5, 2, "random", seed=3)
    assert rn.coloring.anchor == rn2.coloring.anchor
    cb = generate_scheme(2, 2, "checkerboard")
    assert cb.coloring.anchor == (1, 2)


def test_unknown_mode():
    with pytest.raises(ParameterError, match="mode"):
        generate_scheme(4, 2, "spiral")


# -- determinism and regeneration ------------------------------------------------------


def test_generation_is_deterministic():
    for M, d, mode in [(6, 3, "paper"), (8, 2, "smallbase"), (5, 2, "random")]:
        a = generate_scheme(M, d, mode, seed=0)
        b = generate_scheme(M, d, mode, seed=0)
        assert scheme_to_json_bytes(a) == scheme_to_json_bytes(b)


def test_regenerate_matches_for_every_mode():
    cases = [
        generate_scheme(6, 3, "paper"),
        generate_scheme(9, 2, "smallbase"),
        generate_scheme(5, 3, "cyclic"),
        generate_scheme(4, 2, "random", seed=7),
        generate_scheme(2, 3, "checkerboard"),
    ]
    for scheme in cases:
        again = regenerate_scheme(scheme)
        assert again.coloring.anchor == scheme.coloring.anchor


@pytest.mark.parametrize(
    "M, digest",
    [
        (343, "0d341da3b07b28ce84d1845f082eb3f2135d2bc26b39d8b7e611bf82c91ac141"),
        (512, "d8fce34e1a233cc10fbcc167c74c327af333aa4862519ad85ddef9867ed3d37d"),
    ],
    ids=["343", "512"],
)
def test_paper_extension_fields_above_256_are_pinned(M, digest):
    # base-M nets over GF(7^3) and GF(2^9), extension fields above 256 elements
    scheme = generate_scheme(M, 3, "paper")
    assert hashlib.sha256(scheme_to_json_bytes(scheme)).hexdigest() == digest
    assert regenerate_scheme(scheme).coloring.anchor == scheme.coloring.anchor


@pytest.mark.parametrize(
    "M, d, mode, seed, digest",
    [
        (256, 3, "smallbase", None, "0cc6832ff448bc14f31880cca0b3c1f044e84e8e7ee4242f636e02bf5b98d61d"),
        (343, 3, "smallbase", None, "df5a5f8a3379246c22e02dcb23739f80e917f9843d734b17a46939e349052035"),
        (27, 4, "smallbase", None, "4b62199e93a9ce191692753d5bb4e35482ed666af085664e97d2c3cf9c894a61"),
        (256, 3, "cyclic", None, "6c731dacd36363586a131ed14e3c6aff2a8e0c4189144a7cfe201a148d2740ed"),
        (256, 3, "random", 5, "528bd854386b9d0168537c561c3086537e62796b65aba6327d2ff44a51dc1da0"),
        (39, 3, "paper", None, "43b79ff8f2603c70ec4183797d2b94b65866c512bc1550d88120d8d7ddcaefbf"),
        (60, 3, "paper", None, "ac70603579e580ad9705ae377375a9d8722c9ab491906ca86897dfc1b97a05f7"),
        (210, 2, "paper", None, "4d53cbbd04be725946a2c3651ff7010fe0b9592d617b2ca87e628a1867819e14"),
        (420, 2, "paper", None, "bbcd4a4fdd8e4b3d79f2d2f5377ed1e0ac7075af4877bf334611b63b4ee7921c"),
    ],
    ids=["smallbase-256-d3", "smallbase-343-d3", "smallbase-27-d4", "cyclic-256-d3",
         "random-256-d3-seed5", "paper-39-d3", "paper-60-d3", "paper-210-d2", "paper-420-d2"],
)
def test_scheme_bytes_are_pinned(M, d, mode, seed, digest):
    scheme = generate_scheme(M, d, mode, seed=seed)
    assert hashlib.sha256(scheme_to_json_bytes(scheme)).hexdigest() == digest


_SMALL_SCHEMES = st.one_of(
    st.tuples(st.integers(1, 40), st.integers(1, 3), st.sampled_from(["cyclic", "random"])),
    st.tuples(st.just(2), st.integers(1, 5), st.just("checkerboard")),
    st.tuples(st.sampled_from([3, 4, 5, 6, 7, 8, 9, 12, 16]), st.integers(1, 3),
              st.sampled_from(["paper", "smallbase"])),
)


@settings(max_examples=60, deadline=None)
@given(spec=_SMALL_SCHEMES, seed=st.integers(0, 2**31 - 1))
def test_scheme_bytes_equal_the_indented_json_encoder(spec, seed):
    M, d, mode = spec
    try:
        scheme = generate_scheme(M, d, mode, seed=seed)
    except ParameterError:  # e.g. smallbase over a non-prime-power M
        return
    expected = json.dumps(scheme_to_dict(scheme), indent=2, sort_keys=True) + "\n"
    assert scheme_to_json_bytes(scheme) == expected.encode()


@pytest.mark.parametrize("mode", ["random", "cyclic"])
@pytest.mark.parametrize("M", [9, 10, 11, 99, 100, 101, 999, 1000, 1001, 10000])
def test_scheme_bytes_at_digit_width_and_block_boundaries(tmp_path, monkeypatch, M, mode):
    # the widest entry sets the writer's digit columns, narrower ones drop
    # leading zeros; blocks of M - 1 and M entries end one entry before the
    # last and at the last, and 7 divides 1001 but none of the other M
    scheme = generate_scheme(M, 2, mode, seed=M)
    expected = (json.dumps(scheme_to_dict(scheme), indent=2, sort_keys=True) + "\n").encode()
    assert scheme_to_json_bytes(scheme) == expected
    for block in (7, M - 1, M):
        monkeypatch.setattr(coloring, "_ANCHOR_BLOCK", block)
        assert scheme_to_json_bytes(scheme) == expected
    save_scheme(scheme, tmp_path / "s.json")
    assert (tmp_path / "s.json").read_bytes() == expected


def test_roundtrip_is_byte_identical(tmp_path):
    scheme = generate_scheme(6, 2, "paper")
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_scheme(scheme, p1)
    save_scheme(load_scheme(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_regenerate_rejects_unknown_mode():
    scheme = generate_scheme(5, 2, "cyclic")
    broken = type(scheme)(
        coloring=scheme.coloring,
        mode="mystery",
        provenance=scheme.provenance,
        warnings=scheme.warnings,
    )
    with pytest.raises(SchemeFormatError):
        regenerate_scheme(broken)


# -- sweep -------------------------------------------------------------------------------


def test_sweep_rows():
    rows = sweep(dims=[2], disks=[3, 4], modes=["cyclic"])
    assert [(r.M, r.d, r.N, r.mode) for r in rows] == [
        (3, 2, 3, "cyclic"),
        (4, 2, 4, "cyclic"),
    ]
    assert all(isinstance(r, SweepRow) for r in rows)
    assert all(r.disc_num >= r.disc_plus_num >= 0 for r in rows)
    assert all(r.runtime_ms >= 0 for r in rows)


def test_sweep_runtime_is_the_report_elapsed_ms(monkeypatch):
    real = schemegen.disc_report

    def stamped(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), elapsed_ms=123.5)

    monkeypatch.setattr(schemegen, "disc_report", stamped)
    rows = sweep(dims=[2], disks=[3, 4], modes=["cyclic"])
    assert [r.runtime_ms for r in rows] == [123.5, 123.5]


def test_sweep_extent_multiplier():
    rows = sweep(dims=[2], disks=[3], modes=["cyclic"], extent_multiplier=4)
    assert rows[0].N == 12


def test_sweep_skips_impossible_combinations():
    log = io.StringIO()
    rows = sweep(dims=[4], disks=[6], modes=["paper", "cyclic"], log=log)
    assert [(r.mode) for r in rows] == ["cyclic"]
    note = log.getvalue()
    assert "skipping" in note and "M=6 d=4 mode=paper" in note


def test_sweep_skips_over_budget_combinations():
    log = io.StringIO()
    rows = sweep(dims=[2], disks=[4], modes=["cyclic"], max_cells=3, log=log)
    assert rows == []
    assert "budget" in log.getvalue()


def test_sweep_csv_append(tmp_path):
    path = tmp_path / "rows.csv"
    sweep(dims=[2], disks=[3], modes=["cyclic"], csv_path=path)
    first = path.read_text().strip().split("\n")
    assert first[0] == "M,d,N,mode,disc_num,disc_plus_num,runtime_ms"
    assert len(first) == 2
    sweep(dims=[2], disks=[4], modes=["cyclic"], csv_path=path)
    second = path.read_text().strip().split("\n")
    assert len(second) == 3  # appended without repeating the header
    assert second[2].startswith("4,2,4,cyclic,")
