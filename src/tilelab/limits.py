"""The two rules every layer shares: the resource-limit error and the
int-argument check.

This module imports no other tilelab module, so the tile stack (grid,
cost, search, verify) and the root finder (poly, sturm, vieta) both build
on it without importing each other.
"""

from __future__ import annotations


class ResourceLimit(Exception):
    """A configured cap was exceeded: the state cap of the census BFS
    (search.DEFAULT_STATE_CAP by default), search.EXHAUST_BYTE_CAP on the
    bytes the exhaust walk holds (which bounds its k_max, and the side of
    its grid: past 56x56 the move tables alone pass it),
    poly.EXACT_BITS_CAP on the size of an exact coefficient,
    sturm.ORACLE_DEGREE_CAP, vieta.GN_WORK_CAP or vieta.SHAPE_CAP."""


def require_int(name: str, value, least: int | None = None) -> None:
    """ValueError unless value is an int, and at least least when given."""
    # type() rather than isinstance(): a bool is an int, but never a size,
    # a count or a limit
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
