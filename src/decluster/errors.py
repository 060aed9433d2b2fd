"""Exception types shared across the package, and the cell budget that raises one."""

from __future__ import annotations

import os

MAX_CELLS_ENV = "DECLUSTER_MAX_CELLS"
DEFAULT_MAX_CELLS = 10**8


class DeclusterError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(DeclusterError, ValueError):
    """A parameter is invalid or a combination of parameters is unsupported."""


class NetConstructionError(DeclusterError):
    """A constructed point set failed its own balance check.

    Carries the first offending interval so the failure is reproducible.
    """

    def __init__(self, message, interval=None, found=None, expected=None):
        super().__init__(message)
        self.interval = interval
        self.found = found
        self.expected = expected


class InvalidNetError(DeclusterError):
    """A point set handed in as input does not have the promised structure."""


class BudgetExceededError(DeclusterError):
    """A requested computation would exceed the configured memory budget."""


class SchemeFormatError(DeclusterError):
    """A serialized scheme file is malformed or violates an invariant."""


def _max_cells(override: int | None) -> int:
    if override is not None:
        return int(override)
    raw = os.environ.get(MAX_CELLS_ENV)
    if raw is None:
        return DEFAULT_MAX_CELLS
    try:
        return int(raw)
    except ValueError as exc:
        raise ParameterError(f"{MAX_CELLS_ENV}={raw!r} is not an integer") from exc


def check_budget(cells: int, formula: str, max_cells: int | None = None) -> None:
    """Refuse a job of ``cells`` cells (spelled out by ``formula``) over budget.

    The budget is ``max_cells`` if given, else $DECLUSTER_MAX_CELLS, else 10^8.
    """
    budget = _max_cells(max_cells)
    if cells > budget:
        raise BudgetExceededError(
            f"{formula} = {cells} cells exceeds the cell budget "
            f"{budget} (raise {MAX_CELLS_ENV} to override)"
        )
