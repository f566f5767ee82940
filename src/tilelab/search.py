"""State-space search over sliding-tile grids.

enumerate_reachable runs breadth-first search outward from the goal and is
the ground truth every closed-form claim is checked against.  solve_optimal
returns a provably minimal solution by iterative-deepening A* whose lower
bound is the Manhattan distance plus linear conflicts, updated move by
move, and which never walks a move string that has a smaller twin of the
same effect (Taylor & Korf 1993): the length-then-lexicographic first
optimal witness, which any admissible bound yields and which holds no such
string, so the bound and the pruning change only the node count.
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


# The census's bit-trick constants as 0-d uint64 arrays: numpy applies
# them faster than scalars, and a uint64 array never meets an int64 one,
# which numpy would promote to float64
_NIBBLE, _BYTES, _ONES, _MAGIC, _1, _2, _4, _56, _60 = (np.array(x, dtype=np.uint64) for x in (
    15,                      # cell 0, which a census key spends on its undo move
    0x0F0F0F0F0F0F0F0F,      # the even cells
    0x0101010101010101,      # times this, a word's byte sum lands in its top byte
    sum(c << 4 * (15 - c) for c in range(16)),  # shifted left 4c, c is its top nibble
    1, 2, 4, 56, 60))
_HIGH = ~_NIBBLE


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

    codes holds every packed state level by level, each level in ascending
    code order, the order in which the frontier search's one sort per
    level leaves it (enumerate_reachable: its keys carry the move back in
    cell 0's nibble, and each state the mask of its used moves).  The
    depths follow from depth_histogram.  depth_of reads a sorted index of
    the codes with their depths, built only when first needed.  complete
    is true when the BFS saw its frontier empty, so the census holds the
    whole component.
    """

    n: int
    codes: np.ndarray           # uint64 packed states, each level ascending
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
    """(shift, delta, moved): the moves on side n, of the exhaust walk and
    of the census BFS, indexed by blank * 4 + k, where blank is the blank's
    cell and k the move (U, D, R, L).

    The tile the move slides sits at bit shift; child = parent + tile *
    delta, and moved is the blank's cell in the child.  A move off the
    board (grid's _TARGETS) is the identity, as in total mode: the blank
    slides onto itself (delta 0) and keeps its cell, so moved == blank
    marks it.  shift and delta are uint64, delta modulo 2^64, while codes
    fit in 64 bits (n <= 4), and object arrays of exact Python ints beyond.
    """
    b = _bits(n)
    wide = b * n * n > 64
    shift, delta, moved = [], [], []
    for bi, row in enumerate(_TARGETS[n]):
        for j in row:
            j = bi if j < 0 else j  # off the board: the identity
            shift.append(j * b)
            d = (1 << bi * b) - (1 << j * b)
            delta.append(d if wide else d % (1 << 64))
            moved.append(j)
    dtype = object if wide else np.uint64
    return np.array(shift, dtype=dtype), np.array(delta, dtype=dtype), np.array(moved)


@cache
def _frontier_tables(n: int):
    """(valid, shift, delta, undo): _census_tables widened to the census's
    rows, (blank * 16 + used) * 4 + k, so that a child costs one gather.

    used is the mask of the moves that lead from a state back to the level
    before it, bit k for move k.  valid says move k stays on the board and
    is not in used; it is viewed as one uint32 per row, four bools, so a
    level's rows are one gather.  undo is 1 << (k ^ 1), the bit of the move
    that leads back from the child.
    """
    shift, delta, moved = _census_tables(n)
    k = np.arange(4)
    on = (moved != np.arange(n * n).repeat(4)).reshape(-1, 1, 4)
    valid = on & (np.arange(16)[:, None] >> k & 1 == 0)  # (blank, used, k)
    wide = lambda t: np.broadcast_to(t.reshape(-1, 1, 4), valid.shape).ravel()
    back = np.tile(np.left_shift(1, k ^ 1).astype(np.uint64), n * n)
    return valid.view(np.uint32).ravel(), wide(shift), wide(delta), wide(back)


def enumerate_reachable(n: int, depth_limit: int | None = None,
                        max_states: int = DEFAULT_STATE_CAP) -> ReachabilityTable:
    """BFS from goal(n) over legal moves; exact depths for every reachable state.

    The search runs a whole level at a time on uint64 packed states, which
    fit for n <= 4 (ValueError beyond), as the frontier search of Korf,
    Zhang, Thayer & Hohwald: a level is expanded without the one before it.
    Each state of a level carries the mask of its used moves, those that
    lead back to the level before it.  Each move flips the colour of the
    blank's square on a chessboard, so a child of a depth-d state has
    depth d - 1 or d + 1, and the moves to depth d - 1 are exactly the used
    ones: every other child is new, and _frontier_tables gives each in one
    gather.  The cells sum to n^2 (n^2 - 1) / 2, so cell 0 follows from the
    others, and a child's key spends cell 0's nibble on the bit of its undo
    move.  One plain sort of the keys then does all the deduplication: a run
    of keys equal but for that nibble is one new state, and its used mask
    is the OR of their nibbles.  Cell 0 comes back as the full sum less the
    nibble sum of the rest, and the blank's cell is the one nibble that is
    zero.  So every level comes out in ascending code order.
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
    valid, shift, delta, undo = _frontier_tables(n)
    full = np.array(n * n * (n * n - 1) // 2, dtype=np.uint64)  # the sum of every cell
    low_bits = np.array(int("1" * n * n, 16), dtype=np.uint64)  # the lowest bit of each cell
    start = goal(n)
    level = np.array([encode(start.cells, n)], dtype=np.uint64)
    row = np.array([start.blank_index * 16])  # blank * 16 + used
    levels = [level]
    total = 1
    d = 0
    complete = False
    while depth_limit is None or d < depth_limit:
        d += 1
        at = valid[row].view(bool).nonzero()[0]  # parent * 4 + k, for each valid move
        parent = at >> 2
        e = ((row - np.arange(len(row))) << 2)[parent]
        e += at  # row * 4 + k
        parents = level[parent]
        keys = parents >> shift[e]
        keys &= _NIBBLE  # the tile that slides
        keys *= delta[e]
        keys += parents
        keys &= _HIGH
        keys |= undo[e]
        keys.sort()
        same = np.empty(len(keys), dtype=bool)  # the key before is the same state
        same[:1] = False
        np.less_equal(keys[1:] ^ keys[:-1], _NIBBLE, out=same[1:])
        heads = (~same).nonzero()[0]
        if not len(heads):
            complete = True
            break
        total += len(heads)
        if total > max_states:
            raise ResourceLimit(f"state cap {max_states} exceeded at depth {d}")
        level = keys[heads]
        used = level & _NIBBLE
        repeats = same.nonzero()[0]
        if len(repeats):  # the i-th repeat belongs to state repeats[i] - i - 1
            np.bitwise_or.at(used, repeats - np.arange(1, len(repeats) + 1),
                             keys[repeats] & _NIBBLE)
        level &= _HIGH
        s = level >> _4  # the nibble sum of cells 1 to n^2 - 1, by bytes
        s &= _BYTES
        t = level & _BYTES
        s += t
        s *= _ONES
        s >>= _56
        np.subtract(full, s, out=s)
        level |= s  # cell 0
        np.right_shift(level, _1, out=t)  # the blank's nibble is the zero one
        t |= level
        t |= np.right_shift(t, _2, out=s)
        t &= low_bits
        t ^= low_bits
        t *= _MAGIC
        t >>= _60
        t <<= _4
        used |= t
        row = used.view(np.int64)
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


# The move strings of length <= 8 that IDA* never needs to walk.  Each has
# a twin: a shorter string, or an equal-length lex-smaller one, with the
# same effect on an open board, whose blank stays inside this string's
# bounding box and so is legal wherever this string is.  The list keeps
# only the minimal ones, with no such proper substring, in length-lex
# order; tests/test_search.py rebuilds it by brute force.
_TWINS = (
    "RULDRU", "RDLURD", "LURDLU", "LDRULD",
    "DRULULDR", "DLURURDL", "RUURDLDL", "RURULDDL", "RURDLLDR", "RULULDRR", "RULDDLUR", "RULLURDR",
    "RDDRULUL", "RDRULLUR", "RDRDLUUL", "RDLUULDR", "RDLDLURR", "RDLLDRUR", "RRULDLDR", "RRDLULUR",
    "LUULDRDR", "LURURDLL", "LURDDRUL", "LURDRDLU", "LURRULDL", "LULURDDR", "LULDRRDL", "LDDLURUR",
    "LDRUURDL", "LDRURULD", "LDRDRULL", "LDRRDLUL", "LDLURRUL", "LDLDRUUR", "LLURDRDL", "LLDRURUL",
)


@cache
def _pruner() -> list[tuple[int, ...]]:
    """nxt, where nxt[a][k] is the state that move k leads to from state a
    of an Aho-Corasick automaton over the four undo pairs and _TWINS, or
    -1 where move k ends one of those words.  State 0 is the root, the
    empty string; the states are the automaton's live ones, in the order
    of a breadth-first walk of its trie.  No word holds another (none
    backtracks, and _TWINS keeps only minimal strings), so a state ends a
    word exactly when it is that word's last node."""
    letters = "".join(m.letter for m in MOVES)
    goto: list[dict[int, int]] = [{}]  # the trie of the words
    ends = set()  # the last node of each word
    for word in ("UD", "DU", "RL", "LR") + _TWINS:
        a = 0
        for k in map(letters.index, word):
            if k not in goto[a]:
                goto[a][k] = len(goto)
                goto.append({})
            a = goto[a][k]
        ends.add(a)
    fail = [0] * len(goto)
    delta = [[0] * 4 for _ in goto]
    order = [0]
    for a in order:  # breadth first, so fail[a] and its row are done
        for k in range(4):
            if k in goto[a]:
                b = delta[a][k] = goto[a][k]
                fail[b] = delta[fail[a]][k] if a else 0
                order.append(b)
            else:
                delta[a][k] = delta[fail[a]][k] if a else 0
    live = {a: i for i, a in enumerate(a for a in order if a not in ends)}
    return [tuple(live.get(b, -1) for b in delta[a]) for a in live]


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

    steps[bi] is the move list of a search root with the blank at bi.  A
    move list holds the moves that grid's _TARGETS keeps on the board and
    that end no word of _pruner's automaton, as (k, target j, below,
    table), where below is the move list of the node the move leads to.
    So the automaton is folded into the tables: a move list stands for a
    pair (blank cell, automaton state), a root's state is 0, and a pruned
    move costs the search nothing.  Only the pairs reachable from a root
    are built, 311 of 9 * 161 on 3x3 and 910 of 16 * 161 on 4x4.  A move
    list may be empty: in a corner, after five steps the lex-larger way
    round a 2x2 block, the sixth ends a word and the other move is the
    undo.  table[v] is (dh, shift, dkeys) for tile v sliding from j to
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
    board = []  # per cell: (k, j, table) for the moves that stay on the board
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
            moves.append((k, j, table))
        board.append(moves)
    nxt = _pruner()
    lists = {(bi, 0): [] for bi in range(n * n)}  # (cell, state) -> its move list
    todo = list(lists)
    for bi, a in todo:  # grows as new pairs are met
        out = lists[bi, a]
        for k, j, table in board[bi]:
            b = nxt[a][k]
            if b >= 0:
                if (j, b) not in lists:
                    lists[j, b] = []
                    todo.append((j, b))
                out.append((k, j, lists[j, b], table))
    return [lists[bi, 0] for bi in range(n * n)], conflict2, width


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
    conflicts (_ida_tables), kept up to date move by move.  The passes
    follow _ida_tables' move lists, so they never walk a string that ends
    an undo pair or a word of _TWINS.

    The witness survives the pruning.  Every segment of the length-lex
    first optimal witness is the length-lex first shortest path between
    its ends, or a twin put in its place would make a shorter or an
    earlier witness, so the witness holds no pruned string.  h is
    admissible, so f never exceeds the optimum along the witness: each
    pass below the optimal bound meets a node of it over the bound and
    raises the bound no further than the optimum, and the pass at the
    optimal bound meets the witness first.
    That is the witness of any admissible h, Manhattan alone included,
    with the pruning or without it.

    A node counts as expanded when its f is within the bound and it is not
    the goal.  Children over the bound, and the goal child, are settled by
    the parent without a call.  g must be solvable (solve_optimal checks
    parity first): on the other component the passes never end.
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

    def dfs(bi: int, gcost: int, h: int, moves: list, keys: int) -> int:
        """_FOUND, or the smallest f over the bound below this node."""
        nonlocal expanded
        expanded += 1
        gcost += 1
        best = _NO_CHILD
        for k, j, below, table in moves:
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
            t = dfs(j, gcost, hj, below, keys + dkeys)
            if t == _FOUND:
                path.append(k)
                return _FOUND
            cells[j] = v
            cells[bi] = BLANK
            if t < best:
                best = t
        return best

    while True:
        t = dfs(g.blank_index, 0, h0, steps[g.blank_index], keys0)
        if t == _FOUND:
            return SearchResult(len(path), tuple(MOVES[k] for k in reversed(path)), expanded)
        bound = t


def solve_optimal(g: TileGrid) -> SearchResult:
    """Minimal solution from g by IDA* with Manhattan distance plus linear
    conflicts; raises Unsolvable off the goal's component and ValueError
    for n > 4.

    The witness is the first optimal sequence in length-then-lexicographic
    (U < D < R < L) order, whatever the admissible bound.  The search
    skips every move string that has a smaller twin of the same effect,
    which that witness never holds (_solve_ida); `expanded` counts IDA*
    nodes, which is what the bound and the pruning change.
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
    shift, delta, moved = (t.reshape(-1, 4) for t in _census_tables(n))
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
    side) and the side (to at most 56x56, past which _census_tables' 4 n^2
    exact ints alone pass it).  The walk goes a length at a time over packed
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
    # builds the first, a block's temporaries, and _census_tables' 4 n² moves
    width = _bits(g.n) * g.n ** 2
    code = 8 if width <= 64 else 8 + sys.getsizeof(1 << width - 1)
    block = max(1, EXHAUST_BLOCK * 8 // code)
    # held grows with k_max, and at 4^k >= EXHAUST_BYTE_CAP it is over the
    # cap on every side, so a larger k_max is sized as that k: a lower bound
    k = min(k_max, EXHAUST_BYTE_CAP.bit_length() // 2)
    held = (5 * 4 ** k // 16 + 16 * block + 4 * g.n ** 2) * (code + 8)
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
