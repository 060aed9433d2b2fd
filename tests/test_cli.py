"""Command-line interface, driven in-process through main(argv)."""

import argparse
import functools
import itertools
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import decluster.cli
import decluster.coloring
import decluster.discrepancy
import decluster.gf
import decluster.nets
import decluster.schemegen
from decluster.cli import _parse_box, _parse_int_list, build_parser, main
from decluster.coloring import scheme_to_json_bytes
from decluster.discrepancy import Box
from decluster.errors import DeclusterError
from decluster.schemegen import generate_scheme


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- argument helpers -------------------------------------------------------------


def test_parse_box():
    assert _parse_box("1:4,2:9") == Box(lo=(1, 2), hi=(4, 9))
    with pytest.raises(DeclusterError):
        _parse_box("1:2:3")
    with pytest.raises(DeclusterError):
        _parse_box("a:b")


def test_parse_int_list():
    assert _parse_int_list("4,8,16") == [4, 8, 16]
    assert _parse_int_list("3..6") == [3, 4, 5, 6]
    for bad in ("a", "3..x", "4,,8", "6..3"):
        with pytest.raises(DeclusterError):
            _parse_int_list(bad)


def test_main_builds_the_parser_once(monkeypatch, capsys):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    argv = ("net", "--base", "3", "--m", "2", "--dim", "2")
    first, second = run(capsys, *argv), run(capsys, *argv)
    assert first == second and first[0] == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1] is build_parser()


# -- generate / verify --------------------------------------------------------------


def test_generate_and_verify(tmp_path, capsys):
    out = tmp_path / "scheme.json"
    code, stdout, _ = run(
        capsys, "generate", "--disks", "6", "--dim", "3", "--mode", "paper",
        "--out", str(out),
    )
    assert code == 0
    assert "M=6 d=3 mode=paper" in stdout
    assert out.exists()

    code, stdout, _ = run(capsys, "verify", "--scheme", str(out))
    assert code == 0
    assert stdout.strip().endswith("PASS")


def test_generate_is_deterministic_on_disk(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        code, _, _ = run(
            capsys, "generate", "--disks", "8", "--dim", "2", "--mode", "smallbase",
            "--out", str(out),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_emits_warnings_on_stderr(tmp_path, capsys):
    out = tmp_path / "one.json"
    code, _, stderr = run(
        capsys, "generate", "--disks", "1", "--dim", "2", "--mode", "cyclic",
        "--out", str(out),
    )
    assert code == 0
    assert "warning: trivial-single-disk" in stderr


def test_generate_impossible_parameters_exit_1(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "generate", "--disks", "6", "--dim", "4", "--mode", "paper",
        "--out", str(tmp_path / "x.json"),
    )
    assert code == 1
    assert "error:" in stderr and "q1+1" in stderr


def test_verify_tampered_scheme_fails(tmp_path, capsys):
    out = tmp_path / "scheme.json"
    run(capsys, "generate", "--disks", "5", "--dim", "2", "--mode", "cyclic",
        "--out", str(out))
    data = json.loads(out.read_text())
    data["anchor"][0], data["anchor"][1] = data["anchor"][1], data["anchor"][0]
    out.write_text(json.dumps(data))
    code, stdout, _ = run(capsys, "verify", "--scheme", str(out))
    assert code == 1
    # the swap keeps the anchor a permutation (still latin) but the stored
    # provenance no longer reproduces it
    assert "FAIL: provenance regenerates a different anchor map" in stdout


def test_verify_non_latin_scheme_fails(tmp_path, capsys):
    out = tmp_path / "scheme.json"
    run(capsys, "generate", "--disks", "5", "--dim", "2", "--mode", "cyclic",
        "--out", str(out))
    data = json.loads(out.read_text())
    data["anchor"][0] = data["anchor"][1]  # duplicate -> not latin
    out.write_text(json.dumps(data))
    code, stdout, _ = run(capsys, "verify", "--scheme", str(out))
    assert code == 1
    assert stdout.startswith("FAIL")


@pytest.mark.parametrize(
    "anchor",
    [[2.9, "3", 4, 5, 1], [2**70, 3, 4, 5, 1], [2, 3, 4, 5, True]],
    ids=["float-and-string", "2^70", "boolean"],
)
def test_verify_refuses_non_integer_anchor_entries(tmp_path, capsys, anchor):
    out = tmp_path / "scheme.json"
    run(capsys, "generate", "--disks", "5", "--dim", "2", "--mode", "cyclic",
        "--out", str(out))
    data = json.loads(out.read_text())
    assert data["anchor"] == [2, 3, 4, 5, 1]
    data["anchor"] = anchor  # each read as [2, 3, 4, 5, 1] by int(), or out of int64
    out.write_text(json.dumps(data))
    code, stdout, stderr = run(capsys, "verify", "--scheme", str(out))
    assert code == 1
    assert stdout.startswith("FAIL: ") and "PASS" not in stdout
    assert stderr == ""


def _refuse_point_sets(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a point set on the scheme path")

    for module in (decluster.nets, decluster.schemegen):
        monkeypatch.setattr(module, "net_from_generators", refuse)
        monkeypatch.setattr(module, "crt_compose", refuse)
    for module in (decluster.coloring, decluster.schemegen):
        # schemegen does not import it; raising=False still catches a later import
        monkeypatch.setattr(module, "coloring_from_net", refuse, raising=False)
    monkeypatch.setattr(decluster.nets, "DigitalNet", refuse)


@pytest.mark.parametrize(
    "M, d, mode",
    [(9, 3, "paper"), (8, 3, "paper"), (25, 2, "paper"), (16, 5, "paper"), (49, 3, "paper"),
     (16, 3, "smallbase"), (27, 4, "smallbase"), (64, 2, "smallbase"), (125, 3, "smallbase"),
     (6, 3, "paper"), (12, 3, "paper"), (39, 3, "paper"), (60, 3, "paper"), (60, 4, "paper"),
     (210, 2, "paper")],
)
def test_generate_and_verify_count_no_points(tmp_path, capsys, monkeypatch, M, d, mode):
    # Every prime-power component is gated by rank and its anchor map read
    # off its generator matrices, and a composite base joins those maps by
    # CRT: no point set is built, let alone counted.
    def refuse(*args, **kwargs):
        raise AssertionError("verify_net ran on the design path")

    monkeypatch.setattr(decluster.nets, "verify_net", refuse)
    monkeypatch.setattr(decluster.cli, "verify_net", refuse)
    _refuse_point_sets(monkeypatch)
    out = tmp_path / "scheme.json"
    code, _, _ = run(capsys, "generate", "--disks", str(M), "--dim", str(d), "--mode", mode,
                     "--out", str(out))
    assert code == 0
    code, stdout, _ = run(capsys, "verify", "--scheme", str(out))
    assert code == 0 and stdout.strip().endswith("PASS")


def test_verify_refuses_singular_generators_without_points(tmp_path, capsys, monkeypatch):
    # smallbase M=4, d=3 is a base-2 net with m=4; equal first rows of C_2
    # make the composition (0, 2, 2) the first one the rank criterion refuses.
    out = tmp_path / "scheme.json"
    run(capsys, "generate", "--disks", "4", "--dim", "3", "--mode", "smallbase", "--out", str(out))
    data = json.loads(out.read_text())
    data["provenance"]["net"]["matrices"][1] = [[1, 1, 1, 1]] * 4
    out.write_text(json.dumps(data))
    _refuse_point_sets(monkeypatch)
    code, stdout, stderr = run(capsys, "verify", "--scheme", str(out))
    assert code == 1
    assert stdout.count("FAIL: ") == 1 and "PASS" not in stdout
    assert "rank criterion" in stdout and "(0, 2, 2)" in stdout
    assert stderr == ""


def test_verify_checks_the_disk_count_is_a_power_of_the_base(tmp_path, capsys, monkeypatch):
    # 4^3 = 8^2, so base 4 with m = 3 passes the size check of an M=8, d=3
    # record, yet 8 is no power of 4: refused before any digit is split.
    out = tmp_path / "scheme.json"
    run(capsys, "generate", "--disks", "8", "--dim", "3", "--mode", "paper", "--out", str(out))
    data = json.loads(out.read_text())
    data["provenance"].update(
        base=4, m=3, net=decluster.nets.pascal_power_generators(4, 3, 3).as_dict()
    )
    out.write_text(json.dumps(data))
    _refuse_point_sets(monkeypatch)
    code, stdout, stderr = run(capsys, "verify", "--scheme", str(out))
    assert code == 1
    assert "FAIL: provenance does not regenerate: M=8 is not a positive power of the " \
        "point-set base b=4" in stdout
    assert stderr == ""


@pytest.mark.parametrize("M, d, mode", [(64, 3, "smallbase"), (60, 3, "paper")])
def test_generate_and_verify_check_the_latin_property_once(tmp_path, capsys, monkeypatch,
                                                            M, d, mode):
    # generate checks the map it reads off the matrices; verify checks the
    # file's map on load, and the rank-gated rebuild has only to equal it
    checked = []
    check_rows = decluster.coloring._check_rows

    def counted(coloring):
        checked.append(coloring)
        return check_rows(coloring)

    monkeypatch.setattr(decluster.coloring, "_check_rows", counted)
    out = tmp_path / "scheme.json"
    assert run(capsys, "generate", "--disks", str(M), "--dim", str(d), "--mode", mode,
               "--out", str(out))[0] == 0
    assert len(checked) == 1
    code, stdout, _ = run(capsys, "verify", "--scheme", str(out))
    assert code == 0 and stdout.strip().endswith("PASS")
    assert len(checked) == 2


@pytest.mark.parametrize("mode", ["cyclic", "random"])
def test_verify_checks_a_cyclic_or_random_map_once(tmp_path, capsys, monkeypatch, mode):
    # the rebuilt cyclic map (for random, the cyclic one it relabels) is latin
    # by its skews' gcd rule, so only the file's map is checked, on load
    out = tmp_path / "scheme.json"
    assert run(capsys, "generate", "--disks", "60", "--dim", "3", "--mode", mode,
               "--out", str(out))[0] == 0
    checked = []
    check_rows = decluster.coloring._check_rows
    monkeypatch.setattr(decluster.coloring, "_check_rows",
                        lambda coloring: checked.append(coloring) or check_rows(coloring))
    code, stdout, _ = run(capsys, "verify", "--scheme", str(out))
    assert code == 0 and stdout.strip().endswith("PASS")
    assert len(checked) == 1


def _refuse(what):
    def refuse(*args, **kwargs):
        raise AssertionError(f"built {what} before checking the budget")

    return refuse


@pytest.mark.parametrize(
    "M, d, mode",
    [(100_000, 3, "cyclic"), (100_000, 3, "random"), (100_000, 3, "paper"),
     (100_000, 3, "smallbase"), (2, 28, "checkerboard")],
)
def test_generate_refuses_an_anchor_map_over_budget_before_building_it(
    tmp_path, capsys, monkeypatch, M, d, mode
):
    monkeypatch.delenv("DECLUSTER_MAX_CELLS", raising=False)
    monkeypatch.setattr(decluster.coloring, "_linear_anchor", _refuse("an anchor map"))
    monkeypatch.setattr(decluster.schemegen, "crt_anchor", _refuse("an anchor map"))
    out = tmp_path / "big.json"
    code, stdout, stderr = run(capsys, "generate", "--disks", str(M), "--dim", str(d),
                               "--mode", mode, "--out", str(out))
    assert code == 1 and stdout == "" and not out.exists()
    cells = M ** (d - 1)
    assert stderr.startswith(f"error: M^(d-1) = {M}^{d - 1} = {cells} cells exceeds the "
                             "cell budget 100000000")


def test_generate_refuses_more_anchor_axes_than_numpy_has(tmp_path, capsys):
    # 2^(d-1) cells would also be over budget; the axis limit is named first
    limit = decluster.coloring.MAX_AXES
    out = tmp_path / "wide.json"
    code, stdout, stderr = run(capsys, "generate", "--disks", "2", "--dim", str(limit + 2),
                               "--mode", "cyclic", "--out", str(out))
    assert code == 1 and stdout == "" and not out.exists()
    assert stderr.startswith(f"error: d={limit + 2} needs arrays of {limit + 1} axes")


@pytest.mark.parametrize("m, cells", [
    (40, f"2^40*2*40 = {2**40 * 2 * 40}"),
    (10**12, f"2^{10**12}*2*{10**12} > 2^27 = {2**27}"),  # 2^m is never formed
], ids=["m=40", "m=10^12"])
def test_net_refuses_a_point_set_over_budget_before_building_it(tmp_path, capsys, monkeypatch,
                                                                m, cells):
    monkeypatch.delenv("DECLUSTER_MAX_CELLS", raising=False)
    monkeypatch.setattr(decluster.gf.PrimePowerField, "map_all", _refuse("net digits"))
    monkeypatch.setattr(decluster.schemegen, "pascal_power_generators",
                        _refuse("generator matrices"))
    out = tmp_path / "net.json"
    code, stdout, stderr = run(capsys, "net", "--base", "2", "--m", str(m), "--dim", "2",
                               "--out", str(out))
    assert code == 1 and stderr == "" and not out.exists()
    assert stdout == (f"FAIL: b^m*d*m = {cells} cells exceeds the cell budget 100000000 "
                      "(raise DECLUSTER_MAX_CELLS to override)\n")


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_max_cells_help_names_the_variable_it_overrides(command):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    option = next(a for a in sub.choices[command]._actions if a.dest == "max_cells")
    assert "overrides DECLUSTER_MAX_CELLS" in option.help


# -- malformed scheme documents ------------------------------------------------------

_DOC_SPECS = [(5, 2, "cyclic"), (4, 3, "random"), (6, 2, "paper"), (5, 3, "paper"),
              (4, 3, "smallbase"), (2, 3, "checkerboard")]


@functools.cache
def _scheme_text(M, d, mode):
    return scheme_to_json_bytes(generate_scheme(M, d, mode, seed=3)).decode()


_OBJECT = st.dictionaries(st.text(max_size=2), st.integers(0, 9), max_size=2)
_NOT_INT = st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=3),
                     st.lists(st.integers(0, 9), max_size=2), _OBJECT)
_NOT_STR = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                     st.lists(st.text(max_size=2), max_size=2), _OBJECT)
_NOT_LIST = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
                      _OBJECT)
_NOT_OBJECT = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
                        st.lists(st.integers(0, 9), max_size=3))


def _mutate(data, doc):
    """Give doc's anchor, provenance or warnings a wrong type, length or nesting."""
    M, anchor, warnings = doc["M"], doc["anchor"], doc["warnings"]
    target = data.draw(st.sampled_from(["anchor", "provenance", "warnings"]))
    if target == "anchor":
        i = data.draw(st.integers(0, len(anchor) - 1))
        how = data.draw(st.sampled_from(["replace", "entry", "lookalike", "range", "wrap-entry",
                                         "wrap", "drop", "extend"]))
        if how == "replace":
            doc["anchor"] = data.draw(st.one_of(_NOT_LIST, st.lists(st.integers(1, M), max_size=2)))
        elif how == "entry":
            anchor[i] = data.draw(_NOT_INT)
        elif how == "lookalike":  # the same number as a string, a float or a boolean
            anchor[i] = data.draw(st.sampled_from([str(anchor[i]), float(anchor[i]),
                                                   anchor[i] == 1]))
        elif how == "range":
            anchor[i] = data.draw(st.integers(-(2**80), 0) | st.integers(M + 1, 2**80))
        elif how == "wrap-entry":
            anchor[i] = [anchor[i]]
        elif how == "wrap":
            doc["anchor"] = [anchor]
        elif how == "drop":
            del anchor[i]
        else:
            anchor.append(anchor[i])
    elif target == "provenance":
        if data.draw(st.booleans()):
            doc["provenance"] = data.draw(_NOT_OBJECT)
        else:
            doc["provenance"] = [doc["provenance"]]
    else:
        how = data.draw(st.sampled_from(["replace", "entry", "wrap"]))
        if how == "replace":
            doc["warnings"] = data.draw(_NOT_LIST)
        elif how == "entry":
            warnings.append(data.draw(_NOT_STR))
        else:
            doc["warnings"] = [warnings]


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=st.sampled_from(_DOC_SPECS), data=st.data())
def test_malformed_scheme_documents_fail_cleanly(tmp_path, capsys, spec, data):
    doc = json.loads(_scheme_text(*spec))
    _mutate(data, doc)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, "verify", "--scheme", str(path))
    assert code == 1
    assert stdout.startswith("FAIL: ") and "PASS" not in stdout and stderr == ""
    code, stdout, stderr = run(capsys, "evaluate", "--scheme", str(path), "--extent", str(spec[0]))
    assert code == 1
    assert stdout == "" and stderr.startswith("error: ")


def _leaves(node, path=()):
    """(path, value) of every non-container value in a JSON document."""
    if isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _leaves(value, path + (key,))
    else:
        yield path, node


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=st.sampled_from([s for s in _DOC_SPECS if s[2] != "checkerboard"]), data=st.data())
def test_provenance_values_of_a_wrong_type_fail_verify(tmp_path, capsys, spec, data):
    # evaluate reads only the anchor map, so only verify sees these
    doc = json.loads(_scheme_text(*spec))
    where, leaf = data.draw(st.sampled_from(list(_leaves(doc["provenance"]))))
    *parents, last = where
    node = functools.reduce(lambda node, key: node[key], parents, doc["provenance"])
    node[last] = data.draw(_NOT_INT if type(leaf) is int else _NOT_STR)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, "verify", "--scheme", str(path))
    assert code == 1
    assert "FAIL: " in stdout and "PASS" not in stdout and stderr == ""


@pytest.mark.parametrize(
    "path, value",
    [
        (("provenance", "net"), "generators"),
        (("provenance", "net", "field"), None),  # None: delete the key
        (("warnings",), 3),
        (("provenance", "net", "matrices"), "[[1, 0], [0, 1]]"),
    ],
    ids=["net-is-a-string", "net-without-field", "warnings-is-an-int", "matrices-is-a-string"],
)
def test_verify_malformed_provenance_fails_cleanly(tmp_path, capsys, path, value):
    out = tmp_path / "scheme.json"
    run(capsys, "generate", "--disks", "4", "--dim", "3", "--mode", "smallbase",
        "--out", str(out))
    data = json.loads(out.read_text())
    *parents, last = path
    target = functools.reduce(dict.__getitem__, parents, data)
    if value is None:
        del target[last]
    else:
        target[last] = value
    out.write_text(json.dumps(data))
    code, stdout, stderr = run(capsys, "verify", "--scheme", str(out))
    assert code == 1
    assert "FAIL: " in stdout and "PASS" not in stdout
    assert stderr == ""


def _refuse_builds(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a field or net from an oversized provenance record")

    monkeypatch.setattr(decluster.nets, "net_from_generators", refuse)
    monkeypatch.setattr(decluster.nets, "PrimePowerField", refuse)
    monkeypatch.setattr(decluster.gf, "PrimePowerField", refuse)


def _sixteen_digit_matrices(net):
    net["matrices"] = [[[int(r == c) for c in range(16)] for r in range(16)]] * 2


def _degree_13_field(net):
    net["field"] = {"p": 2, "e": 13, "modulus": [1, 1, 0, 1, 1] + [0] * 8 + [1]}


@pytest.mark.parametrize(
    "tamper", [_sixteen_digit_matrices, _degree_13_field], ids=["16x16-matrices", "degree-13-field"]
)
def test_verify_refuses_oversized_provenance_before_building(
    tmp_path, capsys, monkeypatch, tamper
):
    out = tmp_path / "scheme.json"
    run(capsys, "generate", "--disks", "4", "--dim", "2", "--mode", "smallbase",
        "--out", str(out))
    data = json.loads(out.read_text())
    assert data["provenance"]["net"]["kind"] == "generators"
    tamper(data["provenance"]["net"])
    out.write_text(json.dumps(data))
    _refuse_builds(monkeypatch)
    code, stdout, stderr = run(capsys, "verify", "--scheme", str(out))
    assert code == 1
    assert "FAIL: " in stdout and "PASS" not in stdout
    assert stderr == ""


@pytest.mark.parametrize(
    "path, value",
    [
        (("provenance", "m"), 3),
        (("provenance", "base"), 4),
        (("provenance", "net", "components", 0, "b"), 3),
        (("provenance", "net", "components", 1, "field", "e"), 2),
        (("provenance", "net", "components", 0, "matrices", 0, 0, 0), 2),
        (("provenance", "net", "components", 0, "matrices"), [[[1, 0], [0, 1]]] * 2),
        (("provenance", "net", "components", 1), {
            "b": 9, "kind": "generators", "field": {"p": 3, "e": 2, "modulus": [1, 0, 1]},
            "matrices": [[[1, 0], [0, 1]]] * 3,
        }),
        (("provenance", "net", "components", 1), {"b": 3, "kind": "crt", "components": [
            {"b": 3, "kind": "generators", "field": {"p": 3, "e": 1, "modulus": [0, 1]},
             "matrices": [[[1, 0], [0, 1]]] * 3},
        ]}),
        # 36^1 = 6^2 points from components 2 * 2 * 9, each a valid record
        (("provenance",), {"kind": "net", "base": 36, "m": 1, "net": {"kind": "crt", "components": [
            {"b": 2, "kind": "generators", "field": {"p": 2, "e": 1, "modulus": [0, 1]},
             "matrices": [[[1]]] * 3},
            {"b": 2, "kind": "generators", "field": {"p": 2, "e": 1, "modulus": [0, 1]},
             "matrices": [[[1]]] * 3},
            {"b": 9, "kind": "generators", "field": {"p": 3, "e": 2, "modulus": [1, 0, 1]},
             "matrices": [[[1]]] * 3},
        ]}}),
    ],
    ids=["m", "base", "crt-b", "field-order", "entry-out-of-field", "two-matrices-in-d3",
         "crt-bases-multiply-to-18", "nested-crt-component", "crt-bases-not-coprime"],
)
def test_verify_refuses_provenance_sizes_that_disagree(tmp_path, capsys, monkeypatch, path, value):
    out = tmp_path / "scheme.json"
    run(capsys, "generate", "--disks", "6", "--dim", "3", "--mode", "paper",
        "--out", str(out))
    data = json.loads(out.read_text())
    *parents, last = path
    functools.reduce(lambda node, key: node[key], parents, data)[last] = value
    out.write_text(json.dumps(data))
    _refuse_builds(monkeypatch)
    code, stdout, stderr = run(capsys, "verify", "--scheme", str(out))
    assert code == 1
    assert "FAIL: " in stdout and "PASS" not in stdout
    assert stderr == ""


def test_verify_missing_file(tmp_path, capsys):
    code, _, stderr = run(capsys, "verify", "--scheme", str(tmp_path / "nope.json"))
    assert code == 1


@pytest.mark.parametrize(
    "content",
    [b'{"version": 1, "M": 5, "d": 2, "mode": "cyclic", "anchor": [\xff]}',
     b'{"version": 1, "M": ' + b"9" * 5000 + b"}"],
    ids=["not-utf8", "5000-digit-integer"],
)
def test_unreadable_scheme_files_fail_cleanly(tmp_path, capsys, content):
    path = tmp_path / "scheme.json"
    path.write_bytes(content)
    code, stdout, stderr = run(capsys, "verify", "--scheme", str(path))
    assert code == 1 and stdout.startswith("FAIL: not valid JSON") and stderr == ""
    code, stdout, stderr = run(capsys, "evaluate", "--scheme", str(path), "--extent", "5")
    assert code == 1 and stderr.startswith("error: not valid JSON")


# -- net ------------------------------------------------------------------------------


def test_net_command(capsys):
    code, stdout, _ = run(capsys, "net", "--base", "3", "--m", "2", "--dim", "2")
    assert code == 0
    assert "pass: base=3 m=2 d=2 points=9" in stdout
    assert "intervals_checked=" in stdout


@pytest.mark.parametrize("base, m, dim, stdout", [
    (6, 3, 3, "pass: base=6 m=3 d=3 points=216 intervals_checked=2160\n"),
    (4, 3, 3, "pass: base=4 m=3 d=3 points=64 intervals_checked=640\n"),
    (30, 2, 2, "pass: base=30 m=2 d=2 points=900 intervals_checked=2700\n"),
], ids=["composite-6", "prime-power-4", "composite-30"])
def test_net_command_counts_the_points_once(capsys, monkeypatch, base, m, dim, stdout):
    # a composite base is counted once, by the residue composition, and the
    # command reuses that check; a prime-power base is counted by the command
    calls = []
    verify_net = decluster.nets.verify_net

    def count(*args):
        calls.append(args)
        return verify_net(*args)

    monkeypatch.setattr(decluster.nets, "verify_net", count)
    monkeypatch.setattr(decluster.cli, "verify_net", count)
    code, out, _ = run(capsys, "net", "--base", str(base), "--m", str(m), "--dim", str(dim))
    assert (code, out) == (0, stdout)
    assert len(calls) == 1


def test_net_command_writes_file(tmp_path, capsys):
    out = tmp_path / "net.json"
    code, stdout, _ = run(
        capsys, "net", "--base", "2", "--m", "3", "--dim", "2", "--out", str(out)
    )
    assert code == 0
    assert json.loads(out.read_text())["b"] == 2


def test_net_command_rejects_wide_composite(capsys):
    code, stdout, _ = run(capsys, "net", "--base", "6", "--m", "2", "--dim", "4")
    assert code == 1
    assert stdout.startswith("FAIL")


# -- evaluate / query / export-map / witness -----------------------------------------


@pytest.fixture()
def cyclic8(tmp_path, capsys):
    out = tmp_path / "cyclic8.json"
    run(capsys, "generate", "--disks", "8", "--dim", "2", "--mode", "cyclic",
        "--out", str(out))
    capsys.readouterr()
    return out


def test_evaluate_frozen_output(cyclic8, tmp_path, capsys):
    report = tmp_path / "report.json"
    code, stdout, _ = run(
        capsys, "evaluate", "--scheme", str(cyclic8), "--extent", "8",
        "--report", str(report),
    )
    assert code == 0
    assert "disc+ = 16/8 at [1..4]x[1..4] color 8" in stdout
    assert "disc  = 16/8 at [1..4]x[1..4] color 4" in stdout
    data = json.loads(report.read_text())
    assert data["disc_plus_num"] == 16 and data["denominator"] == 8
    assert data["witness"] == {"lo": [1, 1], "hi": [4, 4], "color": 8}


def test_evaluate_cost_stops_growing_at_2m_minus_2(cyclic8, tmp_path, capsys, monkeypatch):
    # a latin scheme is scanned at N = min(N, 2M - 2): at N = 10^6 the
    # default budget holds, and the report is the N = 14 report but for N
    monkeypatch.delenv("DECLUSTER_MAX_CELLS", raising=False)
    reports = {}
    for extent in (14, 1_000_000):
        path = tmp_path / f"report{extent}.json"
        code, _, _ = run(
            capsys, "evaluate", "--scheme", str(cyclic8), "--extent", str(extent),
            "--report", str(path),
        )
        assert code == 0
        reports[extent] = json.loads(path.read_text())
        assert reports[extent].pop("N") == extent
        reports[extent].pop("elapsed_ms")
    assert reports[14] == reports[1_000_000]


def test_evaluate_positive_only(cyclic8, capsys):
    code, stdout, _ = run(
        capsys, "evaluate", "--scheme", str(cyclic8), "--extent", "8",
        "--positive-only",
    )
    assert code == 0
    assert "disc+" in stdout and "\ndisc  =" not in stdout


def test_evaluate_budget(cyclic8, capsys):
    code, _, stderr = run(
        capsys, "evaluate", "--scheme", str(cyclic8), "--extent", "100",
        "--max-cells", "10",
    )
    assert code == 1
    assert "budget" in stderr


def test_query(cyclic8, capsys):
    code, stdout, _ = run(capsys, "query", "--scheme", str(cyclic8), "--box", "1:4,1:4")
    assert code == 0
    lines = stdout.strip().split("\n")
    assert lines[0] == "box [1..4]x[1..4]: 16 blocks on 8 disks"
    assert lines[1] == "response time: 4"
    counts = [int(ln.split(": ")[1]) for ln in lines[2:]]
    assert len(counts) == 8 and sum(counts) == 16


def test_query_far_box_periodicity(cyclic8, capsys):
    _, near, _ = run(capsys, "query", "--scheme", str(cyclic8), "--box", "1:4,1:4")
    _, far, _ = run(capsys, "query", "--scheme", str(cyclic8), "--box", "801:804,1601:1604")
    assert near.split("\n")[1:] == far.split("\n")[1:]


def test_query_refuses_box_beyond_int64(tmp_path, capsys):
    scheme = tmp_path / "smallbase8.json"
    run(capsys, "generate", "--disks", "8", "--dim", "3", "--mode", "smallbase",
        "--out", str(scheme))
    code, stdout, stderr = run(
        capsys, "query", "--scheme", str(scheme), "--box", "1:10000000,1:10000000,1:10000000"
    )
    assert code == 1
    assert "response time" not in stdout
    assert stderr.startswith("error: ") and "2^62" in stderr


@pytest.mark.parametrize("d", [62, 64, 65, 70])
def test_single_disk_schemes_beyond_numpy_axes_fail_cleanly(tmp_path, capsys, d):
    # generate and verify need no d-axis array; the scans and queries do
    out = tmp_path / "m1.json"
    assert run(capsys, "generate", "--disks", "1", "--dim", str(d), "--mode", "cyclic",
               "--out", str(out))[0] == 0
    assert run(capsys, "verify", "--scheme", str(out))[0] == 0
    limit = decluster.coloring.MAX_AXES  # 64 since numpy 2.0
    box = ",".join(["1:1"] * d)
    csv = tmp_path / "m1.csv"
    for argv, axes in ((["evaluate", "--extent", "1"], d + 1), (["query", "--box", box], d - 1),
                       (["export-map", "--extent", "1", "--csv", str(csv)], d),
                       (["witness"], d + 1)):
        code, stdout, stderr = run(capsys, argv[0], "--scheme", str(out), *argv[1:])
        if axes <= limit and argv[0] in ("query", "export-map"):
            assert code == 0 and ("disk 1: 1" in stdout or "1 rows" in stdout)
            continue
        assert code == 1 and stdout == ""
        assert stderr.startswith("error: ") and "Traceback" not in stderr
        if axes > limit:
            assert f"needs arrays of {axes} axes; numpy supports at most {limit}" in stderr
        elif argv[0] == "evaluate":
            assert "budget" in stderr


def test_export_map(cyclic8, tmp_path, capsys):
    csv = tmp_path / "map.csv"
    code, stdout, _ = run(
        capsys, "export-map", "--scheme", str(cyclic8), "--extent", "3",
        "--csv", str(csv),
    )
    assert code == 0
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "x1,x2,disk"
    assert len(lines) == 10  # header + 3^2 rows
    assert "9 rows" in stdout


def test_export_map_refuses_a_grid_over_budget_before_building_it(
    cyclic8, tmp_path, capsys, monkeypatch
):
    monkeypatch.delenv("DECLUSTER_MAX_CELLS", raising=False)
    monkeypatch.setattr(decluster.coloring, "color_grid", _refuse("the grid"))
    csv = tmp_path / "map.csv"
    argv = ("export-map", "--scheme", str(cyclic8), "--csv", str(csv), "--extent")
    code, stdout, stderr = run(capsys, *argv, "100000")
    assert code == 1 and stdout == "" and not csv.exists()
    assert stderr.startswith("error: N^d = 100000^2 = 10000000000 cells exceeds the cell budget")
    monkeypatch.setenv("DECLUSTER_MAX_CELLS", "8")
    code, stdout, stderr = run(capsys, *argv, "3")
    assert code == 1 and stdout == "" and not csv.exists()
    assert stderr.startswith("error: N^d = 3^2 = 9 cells exceeds the cell budget 8")


def test_witness(cyclic8, capsys):
    code, stdout, _ = run(capsys, "witness", "--scheme", str(cyclic8))
    assert code == 0
    assert "positive deviation:" in stdout
    assert "box [" in stdout


def test_witness_budget(cyclic8, capsys, monkeypatch):
    monkeypatch.setenv("DECLUSTER_MAX_CELLS", "10")
    code, stdout, stderr = run(capsys, "witness", "--scheme", str(cyclic8))
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: ") and "budget" in stderr


def test_witness_refuses_a_large_file_before_its_grid(tmp_path, capsys, monkeypatch):
    path = tmp_path / "big.json"
    assert run(capsys, "generate", "--disks", "3000", "--dim", "2", "--mode", "cyclic",
               "--out", str(path))[0] == 0
    monkeypatch.setenv("DECLUSTER_MAX_CELLS", "100")
    code, stdout, stderr = run(capsys, "witness", "--scheme", str(path))
    assert code == 1 and stdout == ""
    assert stderr.startswith("error: ") and "3000 * 3001^1 * 1" in stderr


# -- sweep ---------------------------------------------------------------------------


def test_sweep_command(tmp_path, capsys):
    csv = tmp_path / "rows.csv"
    code, stdout, _ = run(
        capsys, "sweep", "--dims", "2", "--disks", "3..5",
        "--modes", "cyclic,random", "--csv", str(csv),
    )
    assert code == 0
    assert "wrote 6 rows" in stdout
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "M,d,N,mode,disc_num,disc_plus_num,runtime_ms"
    assert len(lines) == 7


def test_sweep_skip_notes_on_stderr(tmp_path, capsys):
    csv = tmp_path / "rows.csv"
    code, stdout, stderr = run(
        capsys, "sweep", "--dims", "4", "--disks", "6", "--modes", "paper,cyclic",
        "--csv", str(csv),
    )
    assert code == 0
    assert "wrote 1 rows" in stdout
    assert "skipping M=6 d=4 mode=paper" in stderr


@pytest.mark.parametrize(
    "flag, value",
    [("--dims", "a"), ("--dims", "2,x"), ("--disks", "3..b"), ("--disks", "5..3")],
)
def test_sweep_rejects_bad_integer_list(tmp_path, capsys, flag, value):
    argv = {"--dims": "2", "--disks": "3", "--modes": "cyclic", flag: value}
    csv = tmp_path / "rows.csv"
    code, stdout, stderr = run(
        capsys, "sweep", *itertools.chain(*argv.items()), "--csv", str(csv)
    )
    assert code == 1
    assert stderr.startswith("error: ") and repr(value) in stderr
    assert stdout == "" and not csv.exists()


def test_sweep_rejects_unknown_mode(tmp_path, capsys):
    csv = tmp_path / "rows.csv"
    code, stdout, stderr = run(
        capsys, "sweep", "--dims", "2", "--disks", "3..5", "--modes", "cyclic,bogus",
        "--csv", str(csv),
    )
    assert code == 1
    assert stderr.startswith("error: unknown mode(s) 'bogus'")
    assert "skipping" not in stderr
    assert stdout == "" and not csv.exists()
