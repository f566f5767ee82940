"""Solution checking and claim reports for the closed-form bounds.

The bound functions evaluate published formulas exactly as printed; they
make no promise of truth.  claim_report compares each one against ground
truth from the BFS census and records "holds" or "fails" as data.  Several
of these bounds are falsified at small n; a "fails" verdict is the
expected, correct output there, not an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


@dataclass
class BoundReport:
    """Each published bound next to ground truth, with a per-claim verdict.

    Verdicts are "holds", "fails", or "untested" (formula domain excludes
    this n).  The report is emitted verbatim; a failing claim stays failing.
    """

    n: int
    ground_truth_count: int
    ground_truth_diameter: int
    log_bound: float
    branching_bound: int
    mobility_bound: int | None
    quadratic_move_bound: int | None
    configuration_count: int
    verdicts: dict[str, str] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "ground_truth": {
                "solvable_states": self.ground_truth_count,
                "diameter": self.ground_truth_diameter,
            },
            "bounds": {
                "optimal_moves_log_bound": self.log_bound,
                "solvable_states_branching_bound": self.branching_bound,
                "solvable_states_mobility_bound": self.mobility_bound,
                "optimal_moves_mobility_bound": self.quadratic_move_bound,
                "configuration_count": self.configuration_count,
            },
            "verdicts": dict(self.verdicts),
        }


def claim_report(n: int, table: ReachabilityTable | None = None) -> BoundReport:
    """Evaluate every bound at n and compare against the BFS census.

    A size bound holds iff the true solvable-state count stays below it; a
    move bound holds iff the true diameter stays below it.  The grid-count
    formula is checked against an independent combinatorial count (blank
    placements times tile arrangements).  A given table must be a complete
    census of side n (ReachabilityTable.complete): a census cut by a depth
    limit undercounts both the states and the diameter, so grading against
    it is a ValueError, as is an n that is not an int (bool included).
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

    count, diameter = table.count, table.diameter
    log_bound = optimal_moves_log_bound(n)
    branching = solvable_states_branching_bound(n)
    mobility = quadratic = None
    verdicts = {
        "optimal_moves_log_bound": "holds" if diameter <= log_bound else "fails",
        "solvable_states_branching_bound": "holds" if count <= branching else "fails",
    }
    if n >= 3:
        mobility = solvable_states_mobility_bound(n)
        quadratic = optimal_moves_mobility_bound(n)
        verdicts["solvable_states_mobility_bound"] = (
            "holds" if count <= mobility else "fails")
        verdicts["optimal_moves_mobility_bound"] = (
            "holds" if diameter <= quadratic else "fails")
    else:
        verdicts["solvable_states_mobility_bound"] = "untested"
        verdicts["optimal_moves_mobility_bound"] = "untested"

    # independent route: choose the blank cell, then arrange the tiles
    independent_total = n * n * math.factorial(n * n - 1)
    claimed_total = configuration_count(n)
    verdicts["configuration_count"] = (
        "holds" if claimed_total == independent_total else "fails")

    return BoundReport(
        n=n,
        ground_truth_count=count,
        ground_truth_diameter=diameter,
        log_bound=log_bound,
        branching_bound=branching,
        mobility_bound=mobility,
        quadratic_move_bound=quadratic,
        configuration_count=claimed_total,
        verdicts=verdicts,
    )
