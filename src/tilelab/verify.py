"""Solution checking and claim reports for the closed-form bounds.

The bound functions evaluate published formulas exactly as printed; they
make no promise of truth.  claim_report compares each one against ground
truth from the BFS census and records "holds" or "fails" as data.  Several
of these bounds are falsified at small n; a "fails" verdict is the
expected, correct output there, not an error.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable

from .grid import Move, TileGrid, apply_seq, goal, grids_equal
from .limits import require_int
from .search import ReachabilityTable, enumerate_reachable


class DomainError(ValueError):
    """Bound formula evaluated outside its stated domain."""


def _check_domain(n, least: int) -> None:
    """ValueError unless n is an int, DomainError when it is below least."""
    require_int("n", n)
    if n < least:
        raise DomainError(f"need n >= {least}, got {n}")


def verify_solution(g: TileGrid, seq: Iterable[Move]) -> bool:
    """True iff total-mode application of seq carries g to the goal.

    Runs in time linear in len(seq) plus one grid comparison; never searches.
    """
    return grids_equal(apply_seq(g, seq, total=True), goal(g.n))


def configuration_count(n: int) -> int:
    """Number of distinct grids of side n: (n^2)!."""
    _check_domain(n, 2)
    return math.factorial(n * n)


def optimal_moves_log_bound(n: int) -> float:
    """Published bound on the optimal move count: log4((n^2)!).

    math.log on the exact big-integer factorial is correctly rounded; tests
    cross-check against a 50-digit recomputation.
    """
    _check_domain(n, 2)
    return math.log(math.factorial(n * n)) / math.log(4)


def _log_bound_floor(n: int) -> int:
    """Exact floor((log4((n^2)!) - 1) / 2): largest m with 4^(2m+1) <= (n^2)!."""
    fact = math.factorial(n * n)
    m = 0
    while 4 ** (2 * (m + 1) + 1) <= fact:
        m += 1
    return m


def solvable_states_branching_bound(n: int) -> int:
    """Published bound on the number of solvable states: 4 * 3^m * 4^m + 4
    with m = floor((log4((n^2)!) - 1) / 2), the floor taken exactly."""
    _check_domain(n, 2)
    m = _log_bound_floor(n)
    return 4 * 3 ** m * 4 ** m + 4


def solvable_states_mobility_bound(n: int) -> int:
    """Published bound on the number of solvable states: 4(n^2 - n - 4)."""
    _check_domain(n, 3)
    return 4 * (n * n - n - 4)


def optimal_moves_mobility_bound(n: int) -> int:
    """Published bound on the optimal move count: 4(n^2 - n - 2)."""
    _check_domain(n, 3)
    return 4 * (n * n - n - 2)


# (report key, bound function, the census fact it bounds), in document order.
# A bound holds when the fact is at most the bound, and is untested where
# its function raises DomainError: the function states its own domain.
CLAIMS = (
    ("optimal_moves_log_bound", optimal_moves_log_bound, "diameter"),
    ("solvable_states_branching_bound", solvable_states_branching_bound, "solvable_states"),
    ("solvable_states_mobility_bound", solvable_states_mobility_bound, "solvable_states"),
    ("optimal_moves_mobility_bound", optimal_moves_mobility_bound, "diameter"),
)


@dataclass
class BoundReport:
    """Each published bound next to ground truth, with a per-claim verdict,
    keyed as in the emitted document.

    Verdicts are "holds", "fails", or "untested" (formula domain excludes
    this n, and the bound is None).  The report is emitted verbatim; a
    failing claim stays failing.
    """

    n: int
    ground_truth: dict[str, int]        # solvable_states, diameter
    bounds: dict[str, int | float | None]
    verdicts: dict[str, str]

    def to_json(self) -> dict:
        return asdict(self)


def claim_report(n: int, table: ReachabilityTable | None = None) -> BoundReport:
    """Evaluate every bound at n and compare against the BFS census.

    Each row of CLAIMS is graded against the census fact it bounds.  The
    grid-count formula is checked against an independent combinatorial
    count (blank placements times tile arrangements).  A given table must
    be a complete census of side n (ReachabilityTable.complete): a census
    cut by a depth limit undercounts both the states and the diameter, so
    grading against it is a ValueError, as is an n that is not an int
    (bool included).
    """
    require_int("n", n)
    if n not in (2, 3):
        raise DomainError("claim reports are desk-scale: n must be 2 or 3")
    if table is None:
        table = enumerate_reachable(n)
    elif table.n != n:
        raise ValueError(f"table is for n={table.n}, report requested for n={n}")
    elif not table.complete:
        raise ValueError("table is a census cut by its depth limit, not the whole component")

    truth = {"solvable_states": table.count, "diameter": table.diameter}
    bounds, verdicts = {}, {}
    for key, bound, fact in CLAIMS:
        try:
            bounds[key] = bound(n)
        except DomainError:
            bounds[key], verdicts[key] = None, "untested"
        else:
            verdicts[key] = "holds" if truth[fact] <= bounds[key] else "fails"
    # independent route: choose the blank cell, then arrange the tiles
    bounds["configuration_count"] = configuration_count(n)
    verdicts["configuration_count"] = (
        "holds" if bounds["configuration_count"] == n * n * math.factorial(n * n - 1)
        else "fails")
    return BoundReport(n, truth, bounds, verdicts)
