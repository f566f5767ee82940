"""State-space search over sliding-tile grids.

enumerate_reachable runs breadth-first search outward from the goal and is
the ground truth every closed-form claim is checked against.  solve_optimal
returns a provably minimal solution by iterative-deepening A* whose lower
bound is the Manhattan distance plus linear conflicts, updated move by
move: the length-then-lexicographic first optimal witness, which any
admissible bound yields, so a tighter bound changes only the node count.
exhaust_sequences is the brute-force enumerator over raw move strings; it
exists to be metered, so it compares every candidate and charges each one
to the ledger it is always given, but it builds each length's candidates
at once as packed codes, each from its prefix's code, instead of replaying
the prefix.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from bisect import bisect_left
from functools import cache, cached_property
from itertools import combinations, permutations, product
from operator import mul
from typing import Iterator

import numpy as np

from . import cost
from .grid import _TARGETS, BLANK, MOVES, MoveSeq, TileGrid, goal
from .limits import ResourceLimit, require_int

DEFAULT_STATE_CAP = 2_000_000
EXHAUST_BYTE_CAP = 2 ** 26  # bytes the exhaust walk may hold; a 4x4 at k_max 11 needs ~23 MiB
# uint64 prefixes the exhaust walk extends at once (2^16 candidates); as
# many bytes of wider codes
EXHAUST_BLOCK = 2 ** 14


class Unsolvable(Exception):
    """The grid is not in the goal's reachable component."""


class NotFound(Exception):
    """Exhaustive enumeration ran out of candidates."""


@dataclass(frozen=True)
class SearchResult:
    psi: int            # minimal number of moves
    seq: MoveSeq        # one optimal witness
    expanded: int       # IDA* nodes expanded while searching


@dataclass(eq=False)
class ReachabilityTable:
    """Exact census of the goal's component, or of its first levels.

    codes holds every packed state in discovery order: level by level, and
    within a level by parent, then U < D < R < L; the depths follow from
    depth_histogram.  depth_of reads a sorted index of the codes with their
    depths, built only when first needed.  complete is true when the BFS
    saw its frontier empty, so the census holds the whole component.
    """

    n: int
    codes: np.ndarray           # uint64 packed states, discovery order
    depth_histogram: list[int]  # states per depth, from depth 0
    complete: bool              # the frontier emptied before any depth limit

    @property
    def count(self) -> int:
        return len(self.codes)

    @property
    def diameter(self) -> int:
        return len(self.depth_histogram) - 1

    @cached_property
    def _index(self) -> tuple[np.ndarray, np.ndarray]:
        """(codes in ascending order, the depth of each)."""
        levels = np.arange(len(self.depth_histogram), dtype=np.uint8)  # 4x4 diameter: 80
        order = np.argsort(self.codes)
        return self.codes[order], np.repeat(levels, self.depth_histogram)[order]

    def depth_of(self, g: TileGrid) -> int | None:
        """g's depth, or None when g lies outside the census; a grid of
        another side is a ValueError."""
        if g.n != self.n:
            raise ValueError(f"grid is {g.n}x{g.n}, table is for n={self.n}")
        codes, depths = self._index
        # a Python int would promote the uint64 codes to float64 on every call
        code = codes.dtype.type(encode(g.cells, self.n))
        i = np.searchsorted(codes, code)
        return int(depths[i]) if i < len(codes) and codes[i] == code else None


def _bits(n: int) -> int:
    return max(4, (n * n - 1).bit_length())


def encode(cells: tuple[int, ...], n: int) -> int:
    """Pack row-major cells into one canonical integer (4 bits per cell for n <= 4)."""
    b = _bits(n)
    code = 0
    for i, v in enumerate(cells):
        code |= v << (b * i)
    return code


def decode(code: int, n: int) -> tuple[int, ...]:
    b = _bits(n)
    mask = (1 << b) - 1
    return tuple((code >> (b * i)) & mask for i in range(n * n))


@cache
def _census_tables(n: int):
    """(valid, shift, delta, child): the moves on side n, of the census BFS
    and of the exhaust walk.

    Each is indexed by slot * 4 + k, where slot = blank * 5 + undo names
    the blank's cell and the move that would undo the last one (undo = 4
    at the root, which has none), and k is the move (U, D, R, L).
    valid says the move stays on the board (grid's _TARGETS) and is not
    the undo move; the tile it slides sits at bit shift; child = parent +
    tile * delta, and child names the child's slot, whose undo move is
    k ^ 1.  A move off the board is the identity, as in total mode: the
    blank slides onto itself (delta 0) and keeps its cell.  shift and delta
    are uint64, delta modulo 2^64, while codes fit in 64 bits (n <= 4), and
    object arrays of exact Python ints beyond.
    """
    b = _bits(n)
    wide = b * n * n > 64
    valid, shift, delta, child = [], [], [], []
    for bi, row in enumerate(_TARGETS[n]):
        for undo in range(5):
            for k, j in enumerate(row):
                valid.append(j >= 0 and k != undo)
                j = bi if j < 0 else j  # off the board: the identity
                shift.append(j * b)
                d = (1 << bi * b) - (1 << j * b)
                delta.append(d if wide else d % (1 << 64))
                child.append(j * 5 + (k ^ 1))
    dtype = object if wide else np.uint64
    return (np.array(valid), np.array(shift, dtype=dtype),
            np.array(delta, dtype=dtype), np.array(child))


def enumerate_reachable(n: int, depth_limit: int | None = None,
                        max_states: int = DEFAULT_STATE_CAP) -> ReachabilityTable:
    """BFS from goal(n) over legal moves; exact depths for every reachable state.

    The search runs a whole level at a time on uint64 packed states, which
    fit for n <= 4 (ValueError beyond).  Every state of depth d is expanded
    at once, except for the move straight back to its parent, by one gather
    from _census_tables per child.  Each move flips the colour of the
    blank's square on a chessboard, so a child of a depth-d state has depth
    d - 1 or d + 1, and on this undirected graph only level d - 1 can hold
    a repeat (Korf, Zhang, Thayer & Hohwald's frontier search).  So level
    d - 1 and the children are argsorted together, once: a run of equal
    codes is new exactly when its smallest index falls among the children,
    and that index is the earliest-discovered copy.  Reading those indices
    off in index order keeps discovery order (parent, then U < D < R < L).
    Full enumeration is desk-scale for n in {2, 3}; n = 4 requires a
    depth_limit.  n and both limits must be ints (ValueError otherwise,
    bool included).  Raises ResourceLimit, at the depth that crosses it, when
    more than max_states states are found.

    The table is complete only when a level came out empty.  A census cut
    by depth_limit is incomplete even when the limit equals the diameter,
    since the BFS never expanded the last level to see that it was.
    """
    require_int("n", n)
    if depth_limit is not None:
        require_int("depth_limit", depth_limit, 0)
    require_int("max_states", max_states, 1)
    if n > 4:
        raise ValueError("enumeration is supported for n <= 4")
    if n == 4 and depth_limit is None:
        raise ValueError("full enumeration beyond n = 3 needs an explicit depth_limit")
    valid, shift, delta, child = _census_tables(n)
    mask = np.uint64((1 << _bits(n)) - 1)
    start = goal(n)
    prev = np.array([], dtype=np.uint64)
    level = np.array([encode(start.cells, n)], dtype=np.uint64)
    slot = np.array([start.blank_index * 5 + 4])
    levels = [level]
    total = 1
    d = 0
    complete = False
    while depth_limit is None or d < depth_limit:
        d += 1
        at = np.flatnonzero(valid.reshape(-1, 4)[slot])  # parent-major, U < D < R < L within
        rows = at >> 2  # four moves per parent
        e = slot[rows] * 4 + (at & 3)
        parents = level[rows]
        children = parents + ((parents >> shift[e]) & mask) * delta[e]
        both = np.concatenate((prev, children))
        order = np.argsort(both)
        ranked = both[order]
        starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
        first = np.zeros(len(both), dtype=bool)
        first[np.minimum.reduceat(order, starts)] = True  # smallest index of each run
        new = np.flatnonzero(first[len(prev):])  # the children that are new, in order
        if not len(new):
            complete = True
            break
        total += len(new)
        if total > max_states:
            raise ResourceLimit(f"state cap {max_states} exceeded at depth {d}")
        prev, level, slot = level, children[new], child[e[new]]
        levels.append(level)
    return ReachabilityTable(n=n, codes=np.concatenate(levels),
                             depth_histogram=[len(lv) for lv in levels], complete=complete)


def is_solvable(g: TileGrid) -> bool:
    """Parity test for membership in the goal's component.

    Every legal move transposes the blank with one tile (flipping the parity
    of the full cell permutation, blank read as the largest symbol) and
    changes the blank's taxicab distance from the home corner by one.  The
    two parities therefore stay equal exactly on the goal's component; the
    test suite confirms agreement with BFS membership exhaustively at n = 2.
    """
    n = g.n
    tiles = [v for v in g.cells if v != BLANK]
    inversions = 0
    for i in range(len(tiles)):
        vi = tiles[i]
        for j in range(i + 1, len(tiles)):
            if vi > tiles[j]:
                inversions += 1
    inversions += n * n - 1 - g.blank_index  # blank as largest symbol
    r, c = g.blank_pos
    taxicab = (n - r) + (n - c)
    return inversions % 2 == taxicab % 2


def _lis(seq: list[int]) -> int:
    """Length of the longest strictly increasing subsequence."""
    tails: list[int] = []
    for x in seq:
        i = bisect_left(tails, x)
        tails[i:i + 1] = [x]
    return len(tails)


@cache
def _ida_tables(n: int):
    """(steps, conflict2, width): the moves of IDA* on side n with their
    bound updates, built once per n.

    The bound is the Manhattan distance plus a conflict term per line.
    Lines are the rows (field r) and the columns (field n + c).  A line's
    key has one base-(n+1) digit per cell, the cell's position along the
    line giving the digit's place: home column + 1 (in a row) or home
    row + 1 (in a column) for a tile homed in that line, 0 otherwise.
    conflict2[key] is twice (tiles homed in the line - the longest
    increasing subsequence of their home positions).  Each tile outside
    that subsequence must leave the line and come back, two moves the
    Manhattan distance does not count; row conflicts cost vertical moves
    and column conflicts horizontal ones, so Manhattan plus the sum over
    all lines stays admissible (Hansson, Mayer & Yung 1992).  The 2n keys
    are packed into one integer, width bits per field; field 2n is 0.

    steps[bi][back] lists the moves of the blank at bi that grid's
    _TARGETS keeps on the board, less back (the move that would undo the
    last one; back = -1 keeps all four), as (k, target j, inverse k ^ 1,
    table).  table[v] is (dh, shift, dkeys) for tile v sliding from j to
    bi: h changes by dh[(keys >> shift) & mask], and the packed keys by
    dkeys.  The tile leaves one perpendicular line and enters another; at
    most one of them is its home line, the hot line at shift, whose
    conflict term may change, so dh is indexed by the hot line's key.  Without a hot line,
    shift names field 2n and dh holds the Manhattan delta alone.  In the
    line the tile slides along only its place changes, not the order of
    the tiles, so that key moves but its conflict term does not.
    """
    base = n + 1
    place = [base ** p for p in range(n)]
    size = base ** n
    width = (size - 1).bit_length()
    # only keys with distinct digits occur; the others stay 0, unread
    conflict2 = [0] * size
    for count in range(1, n + 1):
        for digits in permutations(range(1, base), count):
            c2 = 2 * (count - _lis(digits))
            if c2:
                for where in combinations(place, count):
                    conflict2[sum(map(mul, digits, where))] = c2
    # dh per hot key delta dk: the tile enters its home line (dk > 0, one
    # step nearer home) or leaves it (dk < 0, one step further)
    dks = np.array([s * d * p for s in (1, -1) for d in range(1, base) for p in place])
    c2 = np.array(conflict2)
    deltas = c2[(np.arange(size) + dks[:, None]) % size] - c2 - np.sign(dks)[:, None]
    hot_dh = dict(zip(dks.tolist(), deltas.tolist()))
    flat_dh = {1: [1], -1: [-1]}  # read at field 2n, always 0
    homes = [divmod(v - 1, n) for v in range(1, n * n)]
    steps = []
    for bi, row in enumerate(_TARGETS[n]):
        rb, cb = divmod(bi, n)
        moves = []
        for k, j in enumerate(row):
            if j < 0:
                continue
            rj, cj = divmod(j, n)
            table = [None]
            for hr, hc in homes:
                dm = abs(rb - hr) + abs(cb - hc) - abs(rj - hr) - abs(cj - hc)
                hot, dk, dkeys = 2 * n, 0, 0
                if cj == cb:  # vertical: leaves row rj, enters row rb
                    if hr == rj or hr == rb:
                        hot, dk = hr, (hc + 1) * place[cj] * (1 if hr == rb else -1)
                    if hc == cj:
                        dkeys = (hr + 1) * (place[rb] - place[rj]) << (n + cj) * width
                else:  # horizontal: leaves column cj, enters column cb
                    if hc == cj or hc == cb:
                        hot, dk = n + hc, (hr + 1) * place[rj] * (1 if hc == cb else -1)
                    if hr == rj:
                        dkeys = (hc + 1) * (place[cb] - place[cj]) << rj * width
                table.append((hot_dh[dk] if dk else flat_dh[dm], hot * width,
                              dkeys + (dk << hot * width)))
            moves.append((k, j, k ^ 1, table))
        steps.append([tuple(m for m in moves if m[0] != back) for back in range(4)]
                     + [tuple(moves)])
    return steps, conflict2, width


def _lower_bound(cells, n: int) -> tuple[int, int]:
    """(h, keys) of row-major cells, from scratch: h is the Manhattan
    distance plus the conflict terms of every line, and keys the line keys
    packed as in _ida_tables."""
    _, conflict2, width = _ida_tables(n)
    base = n + 1
    lines = [0] * (2 * n)
    h = 0
    for i, v in enumerate(cells):
        if v == BLANK:
            continue
        r, c = divmod(i, n)
        hr, hc = divmod(v - 1, n)
        h += abs(r - hr) + abs(c - hc)
        if hr == r:
            lines[r] += (hc + 1) * base ** c
        if hc == c:
            lines[n + c] += (hr + 1) * base ** r
    h += sum(conflict2[key] for key in lines)
    return h, sum(key << i * width for i, key in enumerate(lines))


_FOUND = -1  # _solve_ida's dfs reached the goal
_NO_CHILD = 1 << 62  # best f before any child is seen; larger than any f


def _solve_ida(g: TileGrid) -> SearchResult:
    """Korf's IDA*: depth-first passes in U < D < R < L order under a rising
    f = g + h bound, where h is the Manhattan distance plus linear
    conflicts (_ida_tables), kept up to date move by move.  h is
    admissible and changes by exactly 1 on every move, so no node of an
    optimal path is pruned at the optimal bound, and the pass at that
    bound meets the length-lex first optimal witness first: the witness
    of any admissible h, Manhattan alone included.

    A node counts as expanded when its f is within the bound and it is not
    the goal.  Children over the bound, and the goal child, are settled by
    the parent without a call.  g must be solvable (solve_optimal checks
    parity first): every node has a child, so the bound rises forever on
    the other component.
    """
    steps, _, width = _ida_tables(g.n)
    mask = (1 << width) - 1
    cells = list(g.cells)
    h0, keys0 = _lower_bound(cells, g.n)
    if h0 == 0:  # every tile home, so the blank is too
        return SearchResult(0, (), 0)
    path: list[int] = []  # move indices, appended as the search unwinds
    expanded = 0
    bound = h0

    def dfs(bi: int, gcost: int, h: int, back: int, keys: int) -> int:
        """_FOUND, or the smallest f over the bound below this node."""
        nonlocal expanded
        expanded += 1
        gcost += 1
        best = _NO_CHILD
        for k, j, inv, table in steps[bi][back]:
            v = cells[j]
            dh, shift, dkeys = table[v]  # tile v slides from j to bi
            hj = h + dh[keys >> shift & mask]
            f = gcost + hj
            if f > bound:
                if f < best:
                    best = f
                continue
            if hj == 0:
                path.append(k)
                return _FOUND
            cells[bi] = v
            cells[j] = BLANK
            t = dfs(j, gcost, hj, inv, keys + dkeys)
            if t == _FOUND:
                path.append(k)
                return _FOUND
            cells[j] = v
            cells[bi] = BLANK
            if t < best:
                best = t
        return best

    while True:
        t = dfs(g.blank_index, 0, h0, -1, keys0)
        if t == _FOUND:
            return SearchResult(len(path), tuple(MOVES[k] for k in reversed(path)), expanded)
        bound = t


def solve_optimal(g: TileGrid) -> SearchResult:
    """Minimal solution from g by IDA* with Manhattan distance plus linear
    conflicts; raises Unsolvable off the goal's component and ValueError
    for n > 4.

    The witness is the first optimal sequence in length-then-lexicographic
    (U < D < R < L) order, whatever the admissible bound; `expanded`
    counts IDA* nodes, which is what the bound changes.
    """
    if g.n > 4:
        raise ValueError("optimal solving is supported for n <= 4")
    if not is_solvable(g):
        raise Unsolvable("parity test failed: grid is outside the goal's component")
    return _solve_ida(g)


def candidate_sequences(k_max: int) -> Iterator[MoveSeq]:
    """All move sequences of length 1..k_max in length-then-lexicographic order."""
    for length in range(1, k_max + 1):
        for cand in product(MOVES, repeat=length):
            yield cand


def candidate_rank(seq: MoveSeq) -> int:
    """1-based position of seq in candidate_sequences order; 0 for the empty
    sequence, which is not a candidate.

    (4^L - 4) / 3 shorter candidates come first, then seq's letters read as
    a base-4 number (U = 0, D = 1, R = 2, L = 3).
    """
    within = 0
    for m in seq:
        within = within * 4 + m.arm - 1
    return (4 ** len(seq) - 4) // 3 + within + 1


def _exhaust_walk(g: TileGrid, k_max: int, block: int) -> MoveSeq | None:
    """The first sequence of length 0..k_max (length-then-lex) whose
    total-mode application reaches goal, or None; see exhaust_sequences."""
    n = g.n
    _, shift, delta, child = _census_tables(n)
    # the root slots (undo = 4), where all four moves are on the table
    shift, delta, child = (t.reshape(-1, 5, 4)[:, 4] for t in (shift, delta, child))
    moved = child // 5  # the blank's cell after each move
    mask = delta.dtype.type((1 << _bits(n)) - 1)
    target = encode(goal(n).cells, n)
    codes = np.array([encode(g.cells, n)], dtype=delta.dtype)
    if codes[0] == target:
        return ()
    blanks = np.array([g.blank_index])
    for length in range(1, k_max + 1):
        keep = length < k_max  # the last length is compared, never stored
        if keep:
            next_codes = np.empty(4 * len(codes), dtype=codes.dtype)
            next_blanks = np.empty(4 * len(codes), dtype=blanks.dtype)
        for s in range(0, len(codes), block):
            parents = codes[s:s + block, None]
            at = blanks[s:s + block]
            kids = (parents + ((parents >> shift[at]) & mask) * delta[at]).ravel()
            hits = np.flatnonzero(kids == target)
            if len(hits):
                index = 4 * s + int(hits[0])  # its base-4 digits are the moves
                return tuple(MOVES[index >> 2 * p & 3] for p in reversed(range(length)))
            if keep:
                next_codes[4 * s:4 * s + len(kids)] = kids
                next_blanks[4 * s:4 * s + len(kids)] = moved[at].ravel()
        if keep:
            codes, blanks = next_codes, next_blanks
    return None


def exhaust_sequences(g: TileGrid, k_max: int, ledger: cost.CostLedger) -> MoveSeq:
    """First sequence (length-then-lex, U < D < R < L) whose total-mode
    application reaches goal; the empty sequence is checked first.

    Theta(4^k) probes; raises NotFound when no candidate works, and
    ResourceLimit before the walk when it would hold more than
    EXHAUST_BYTE_CAP bytes, which bounds both k_max (to at most 11 on any
    side) and the side.  The walk goes a length at a time over packed
    codes (uint64 for n <= 4, Python ints in object arrays beyond):
    candidate 4 * i + k of length L is candidate i of length L - 1
    followed by move k, its code made from its prefix's by one gather from
    _census_tables, where a move off the board changes nothing.  So each
    length's array is in lexicographic order, and the first index equal to
    the goal's code is the winner, its base-4 digits its moves.  Prefixes
    are extended a block at a time (EXHAUST_BLOCK uint64 codes, or as many
    bytes of wider ones), compared block by block, and the walk stops at
    the block that holds the first hit; the last length is never stored.
    Each candidate up to the hit costs the ledger one probe decision
    (those computed after it in its block are not charged) and the winning
    sequence is replayed through the instrumented verifier, which keeps
    the whole run inside budget("search", n, k_max).  k_max must be a
    nonnegative int (ValueError otherwise, bool included).
    """
    require_int("k_max", k_max, 0)
    # a stored candidate is its code (a uint64, or a pointer to an exact int
    # of at most _bits(n)·n² bits) and its blank's cell; the walk holds
    # lengths k_max - 1 and k_max - 2 (5·4^k_max / 16 candidates) while it
    # builds the first, a block's temporaries, and _census_tables' 20 n² moves
    width = _bits(g.n) * g.n ** 2
    code = 8 if width <= 64 else 8 + sys.getsizeof(1 << width - 1)
    block = max(1, EXHAUST_BLOCK * 8 // code)
    # held grows with k_max, and at 4^k >= EXHAUST_BYTE_CAP it is over the
    # cap on every side, so a larger k_max is sized as that k: a lower bound
    k = min(k_max, EXHAUST_BYTE_CAP.bit_length() // 2)
    held = (5 * 4 ** k // 16 + 16 * block + 20 * g.n ** 2) * (code + 8)
    if held > EXHAUST_BYTE_CAP:
        least = "at least " if k < k_max else ""
        raise ResourceLimit(f"k_max {k_max} at n = {g.n} needs {least}{held >> 20} MiB, "
                            "over the byte cap")
    seq = _exhaust_walk(g, k_max, block)
    # the walk stops at the first hit in length-lex order, so it has
    # compared candidate_rank(seq) candidates, or all (4^(k_max+1) - 4) / 3
    # of them, plus the empty sequence
    probed = (4 ** (k_max + 1) - 4) // 3 if seq is None else candidate_rank(seq)
    ledger.add("compare", 1 + probed)
    if seq is None:
        raise NotFound(f"no sequence of length <= {k_max} reaches goal")
    if seq:
        cost.instrumented_verify(g, seq, ledger)
    return seq
