"""Decision-cost accounting for move application and verification.

A "decision" is one case-arm evaluation in the instrumented interpreter,
whose branch structure mirrors the case statements that define the moves:

  guard          selects the direction arm and tests board bounds (k + 1
                 decisions for arm k in 1..4; an out-of-bounds move stops
                 here, so an illegal move costs at most 5)
  swap           picks the blank-vs-tile arm of the cell update (1)
  offset         scans the direction arms to locate the target cell (k)
  relocate       decides target-versus-stay for the displaced tile (1)
  reverse_offset scans the inverse-direction arms, each test re-deriving
                 the offset (k * k, at most 16)

Per legal move the chained tallies obey offset <= 4, relocate chain <= 17,
swap chain <= 22 and guard chain <= 27, with equality at arm 4, and a
k-move verification runs in at most n^2 + 27k + 1 decisions.  All ceilings
are checked per call; a breach raises CeilingExceeded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .grid import Move, TileGrid, _swap, goal, move_target
from .limits import require_int

PRIMITIVES = ("guard", "swap", "offset", "relocate", "reverse_offset", "compare")

MOVE_DECISION_CEILINGS = {
    "offset": 4,
    "relocate_chain": 17,   # relocate + reverse_offset
    "swap_chain": 22,       # 1 + 4 + 17
    "guard_chain": 27,      # 5 + 22
}
ILLEGAL_MOVE_CEILING = 5  # guard arms 1..4 plus the failed bounds test


class CeilingExceeded(RuntimeError):
    """A metered call spent more decisions than its proven ceiling."""


def _breach(name: str, ceiling: int, spent: int) -> CeilingExceeded:
    return CeilingExceeded(f"{name} ceiling {ceiling} exceeded: {spent} decisions")


@dataclass
class CostLedger:
    """Monotone decision counters, broken down by primitive."""

    per_primitive: dict[str, int] = field(
        default_factory=lambda: {k: 0 for k in PRIMITIVES})

    @property
    def decisions(self) -> int:
        return sum(self.per_primitive.values())

    def add(self, primitive: str, count: int) -> None:
        if count < 0:
            raise ValueError("decision counters only increase")
        self.per_primitive[primitive] += count

    def snapshot(self) -> dict[str, int]:
        return dict(self.per_primitive)


@dataclass(frozen=True)
class Budget:
    kind: str
    n: int
    k: int
    ceiling: int


def budget(kind: str, n: int, k: int) -> Budget:
    """Decision ceilings: "verify" allows n^2 + 27k + 1, "search" allows
    4^k (n^2 + 2) + 27k (exact big-integer arithmetic)."""
    require_int("n", n, 2)
    require_int("k", k, 0)
    if kind == "verify":
        ceiling = n * n + 27 * k + 1
    elif kind == "search":
        ceiling = 4 ** k * (n * n + 2) + 27 * k
    else:
        raise ValueError(f'kind must be "verify" or "search", got {kind!r}')
    return Budget(kind, n, k, ceiling)


def instrumented_apply(g: TileGrid, m: Move, ledger: CostLedger) -> TileGrid:
    """Total-mode application that meters every case-arm evaluation."""
    k = m.arm
    counts = ledger.per_primitive
    counts["guard"] += k + 1  # direction arm scan plus the bounds test
    j = move_target(g, m)
    if j is None:
        if k + 1 > ILLEGAL_MOVE_CEILING:
            raise _breach("illegal_move", ILLEGAL_MOVE_CEILING, k + 1)
        return g
    counts["swap"] += 1
    counts["offset"] += k
    counts["relocate"] += 1
    counts["reverse_offset"] += k * k
    ceil = MOVE_DECISION_CEILINGS
    if k > ceil["offset"]:
        raise _breach("offset", ceil["offset"], k)
    if 1 + k * k > ceil["relocate_chain"]:
        raise _breach("relocate_chain", ceil["relocate_chain"], 1 + k * k)
    if 2 + k + k * k > ceil["swap_chain"]:
        raise _breach("swap_chain", ceil["swap_chain"], 2 + k + k * k)
    if 3 + 2 * k + k * k > ceil["guard_chain"]:
        raise _breach("guard_chain", ceil["guard_chain"], 3 + 2 * k + k * k)
    return _swap(g, j)


def instrumented_verify(g: TileGrid, seq: Iterable[Move], ledger: CostLedger) -> bool:
    """Metered verify_solution: apply each move, then compare every cell.

    Spends at most 27 decisions per move, n^2 for the cell comparison and 1
    for the final accept decision: n^2 + 27k + 1 in total.
    """
    before = ledger.decisions
    k = 0
    for m in seq:
        g = instrumented_apply(g, m, ledger)
        k += 1
    # the metered compare never short-circuits: one decision per cell, plus
    # the final accept decision
    ledger.per_primitive["compare"] += g.n * g.n + 1
    ok = g.cells == goal(g.n).cells
    spent = ledger.decisions - before
    ceiling = budget("verify", g.n, k).ceiling
    if spent > ceiling:
        raise _breach("verify", ceiling, spent)
    return ok


def length(program: str) -> int:
    """Program length: non-whitespace characters (all Unicode whitespace)."""
    return sum(1 for ch in program if not ch.isspace())


def polytime_witness(decisions: int, program_length: int, n: int, k: int) -> bool:
    """True iff decisions <= (length^2 + 1)^(n^2 + 27k + 1), evaluated exactly."""
    if program_length < 1:
        raise ValueError("program_length must be at least 1")
    if decisions < 0:
        raise ValueError("decisions must be nonnegative")
    require_int("n", n, 2)
    require_int("k", k, 0)
    return decisions <= (program_length ** 2 + 1) ** (n * n + 27 * k + 1)
