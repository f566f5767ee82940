"""Square sliding-tile grids and the four blank moves.

A grid of side n holds the tiles 1..n*n-1 plus one blank cell.  Moves are
named for the direction the blank travels: U and D change the blank's row
by -1/+1, R and L change its column by +1/-1.  (U, D) and (R, L) are
inverse pairs.  apply_seq applies a sequence strictly, raising on a move
that would push the blank off the board, or totally, where such a move
leaves the grid unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .limits import require_int

BLANK = 0  # internal marker; the public blank spelling is None (JSON null, "_" in text)


class GridError(ValueError):
    """Base class for malformed grid contents."""


class DuplicateTile(GridError):
    pass


class MissingBlank(GridError):
    pass


class MultipleBlanks(GridError):
    pass


class ValueOutOfRange(GridError):
    pass


class IllegalMove(Exception):
    """Strict-mode move, at step index of its sequence, would push the
    blank off the board."""

    def __init__(self, move: "Move", index: int):
        self.move = move
        self.index = index
        super().__init__(f"illegal move {move.letter} at step {index}")


class Move(Enum):
    """The four blank moves, in canonical order U < D < R < L."""

    UP = ("U", -1, 0)
    DOWN = ("D", 1, 0)
    RIGHT = ("R", 0, 1)
    LEFT = ("L", 0, -1)

    def __init__(self, letter: str, dr: int, dc: int):
        self.letter = letter
        self.dr = dr
        self.dc = dc

    def __repr__(self):  # pragma: no cover - debugging nicety
        return f"Move.{self.name}"


MOVES: tuple[Move, ...] = tuple(Move)
# m.arm is m's 1-based position in MOVES, and MOVES[k ^ 1] undoes MOVES[k]
for _arm, _m in enumerate(MOVES, 1):
    _m.arm = _arm
_BY_LETTER = {m.letter: m for m in MOVES}

MoveSeq = tuple[Move, ...]


@dataclass(frozen=True)
class TileGrid:
    """Immutable n x n grid; cells are row-major with 0 standing for the blank."""

    n: int
    cells: tuple[int, ...]
    blank_index: int  # row-major index of the blank; kept in sync by construction

    @property
    def blank_pos(self) -> tuple[int, int]:
        """1-indexed (row, column) of the blank."""
        r, c = divmod(self.blank_index, self.n)
        return r + 1, c + 1

    def rows(self) -> list[list[int]]:
        n = self.n
        return [list(self.cells[i * n:(i + 1) * n]) for i in range(n)]


def new_grid(n: int, entries: Sequence[int | None]) -> TileGrid:
    """Validate and build a grid from row-major entries (None or 0 = blank).

    Raises MissingBlank/MultipleBlanks/ValueOutOfRange/DuplicateTile on bad
    contents and ValueError on a bad shape.
    """
    require_int("grid side", n, 2)
    cells = tuple(BLANK if v is None else v for v in entries)
    if len(cells) != n * n:
        raise ValueError(f"expected {n * n} entries, got {len(cells)}")
    blanks = [i for i, v in enumerate(cells) if v == BLANK]
    if not blanks:
        raise MissingBlank("grid has no blank cell")
    if len(blanks) > 1:
        raise MultipleBlanks(f"grid has {len(blanks)} blank cells")
    for v in cells:
        # a bool is an int to isinstance(), but never a tile or the blank
        if isinstance(v, bool) or not isinstance(v, int) or v < 0 or v >= n * n:
            raise ValueOutOfRange(f"cell value {v!r} outside 1..{n * n - 1}")
    seen = set()
    for v in cells:
        if v != BLANK and v in seen:
            raise DuplicateTile(f"tile {v} appears more than once")
        seen.add(v)
    return TileGrid(n, cells, blanks[0])


def goal(n: int) -> TileGrid:
    """Goal grid: cell (i, j) holds (i-1)*n + j, blank in the bottom-right corner."""
    require_int("grid side", n, 2)
    cells = tuple(range(1, n * n)) + (BLANK,)
    return TileGrid(n, cells, n * n - 1)


def grids_equal(a: TileGrid, b: TileGrid) -> bool:
    return a.n == b.n and a.cells == b.cells


class _Targets(dict):
    """n -> targets, where targets[i][k] is the cell the blank at i reaches by
    MOVES[k], or -1 off the board: the one statement of the board's edges,
    built on the first read of each n."""

    def __missing__(self, n: int) -> tuple[tuple[int, ...], ...]:
        # the blank at row r, column c is at i = r * n + c, so rows come row-major
        self[n] = rows = tuple(
            tuple((r + m.dr) * n + c + m.dc if 0 <= r + m.dr < n and 0 <= c + m.dc < n else -1
                  for m in MOVES) for r in range(n) for c in range(n))
        return rows


_TARGETS = _Targets()


def move_target(g: TileGrid, m: Move) -> int | None:
    """Row-major index the blank would move to, or None if off the board."""
    j = _TARGETS[g.n][g.blank_index][m.arm - 1]
    return None if j < 0 else j


def legal_moves(g: TileGrid) -> tuple[Move, ...]:
    return tuple(m for m in MOVES if move_target(g, m) is not None)


def _swap(g: TileGrid, j: int) -> TileGrid:
    lst = list(g.cells)
    lst[g.blank_index], lst[j] = lst[j], lst[g.blank_index]
    return TileGrid(g.n, tuple(lst), j)


def apply_seq(g: TileGrid, seq: Iterable[Move], total: bool = False) -> TileGrid:
    """Apply moves left to right; strict mode reports the failing step index.

    The moves swap cells of one list, and one grid is built at the end; a
    replay that leaves every cell where it was returns g itself.
    """
    targets = _TARGETS[g.n]
    cells = list(g.cells)
    bi = g.blank_index
    for i, m in enumerate(seq):
        j = targets[bi][m.arm - 1]
        if j < 0:
            if total:
                continue
            raise IllegalMove(m, index=i)
        cells[bi], cells[j] = cells[j], BLANK
        bi = j
    out = tuple(cells)
    return g if out == g.cells else TileGrid(g.n, out, bi)


def inverse_move(m: Move) -> Move:
    return MOVES[(m.arm - 1) ^ 1]


def reverse_seq(seq: Sequence[Move]) -> MoveSeq:
    """Inverse sequence: reverse the order and invert each move.

    Applying reverse_seq(s) to apply_seq(g, s) returns g whenever s was legal.
    """
    return tuple(map(inverse_move, reversed(seq)))


def parse_moves(text: str) -> MoveSeq:
    """Parse a move string like "RDDRD" (whitespace ignored)."""
    out = []
    for ch in text:
        if ch.isspace():
            continue
        m = _BY_LETTER.get(ch.upper())
        if m is None:
            raise ValueError(f"unknown move letter {ch!r}")
        out.append(m)
    return tuple(out)


def format_moves(seq: Iterable[Move]) -> str:
    return "".join(m.letter for m in seq)


# ---------------------------------------------------------------------------
# serialization

def parse_grid_text(text: str) -> TileGrid:
    """Parse the text format: n lines of n whitespace-separated tokens, "_" = blank."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows:
        raise ValueError("empty grid text")
    n = len(rows)
    entries: list[int | None] = []
    for line in rows:
        if len(line) != n:
            raise ValueError(f"expected {n} tokens per line, got {len(line)}")
        for tok in line:
            if tok == "_":
                entries.append(None)
            else:
                try:
                    entries.append(int(tok))
                except ValueError:
                    raise ValueError(f"bad cell token {tok!r}") from None
    return new_grid(n, entries)


def format_grid_text(g: TileGrid) -> str:
    width = len(str(g.n * g.n - 1))
    lines = []
    for row in g.rows():
        lines.append(" ".join(("_" if v == BLANK else str(v)).rjust(width) for v in row))
    return "\n".join(lines) + "\n"


def grid_to_json(g: TileGrid) -> dict:
    return {"n": g.n, "cells": [None if v == BLANK else v for v in g.cells]}


def grid_from_json(doc: dict | str) -> TileGrid:
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except RecursionError:  # the decoder recurses once per nesting level
            raise ValueError("grid JSON is nested too deeply") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("cells"), list):
        raise ValueError('grid JSON must be {"n": int, "cells": [...]}')
    return new_grid(doc.get("n"), doc["cells"])  # new_grid checks n


def load_grid(text: str) -> TileGrid:
    """Parse either serialization; JSON if the text starts with '{'."""
    if text.lstrip().startswith("{"):
        return grid_from_json(text)
    return parse_grid_text(text)

