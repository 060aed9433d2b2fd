"""Module boundaries: colorings and scans are built without the net layer."""

import ast
from pathlib import Path

import pytest

import decluster

PACKAGE = Path(decluster.__file__).parent
# Names the package no longer has: a points-based anchor map lives in
# tests/oracles.py, and nothing in the package counts boxes of a point set.
REMOVED = ("RangeCounter", "geometric_discrepancy", "GeoDisc", "coloring_from_net",
           "build_net", "crt_compose")


def _imported_modules(path: Path) -> set[str]:
    """Absolute names of the modules a package module imports, or imports from."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            package = "decluster" if node.level else ""  # the package's imports are level 1
            module = ".".join(part for part in (package, node.module) if part)
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("module", ["coloring.py", "discrepancy.py"])
def test_colorings_and_scans_do_not_import_nets(module):
    imported = _imported_modules(PACKAGE / module)
    assert not [name for name in imported if name.split(".")[:2] == ["decluster", "nets"]]


def test_package_api_has_none_of_the_removed_names():
    assert not set(REMOVED) & set(decluster.__all__)
    assert not [name for name in REMOVED if hasattr(decluster, name)]
