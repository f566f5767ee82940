"""Seeded inputs and independent ground truth for the tilelab benchmark.

Nothing here imports tilelab.  Every expected answer comes from this
module's own puzzle model and breadth-first search, from the roots a
polynomial was built from, or from exact Fraction arithmetic.  Ground truth
is computed in the parent process and never timed.
"""

from __future__ import annotations

import math
import random
from collections import deque
from decimal import Decimal
from fractions import Fraction

# ---------------------------------------------------------------------------
# sliding-tile model (blank = 0, goal = 1..n*n-1 then the blank)

MOVES = (("U", -1, 0), ("D", 1, 0), ("R", 0, 1), ("L", 0, -1))
INVERSE = {"U": "D", "D": "U", "R": "L", "L": "R"}
EXHAUST_KMAX = 6


def goal_state(n: int) -> tuple:
    return tuple(range(1, n * n)) + (0,)


def step(state: tuple, n: int, letter: str):
    """State after moving the blank one cell, or None off the board."""
    b = state.index(0)
    r, c = divmod(b, n)
    for name, dr, dc in MOVES:
        if name == letter:
            nr, nc = r + dr, c + dc
            if not (0 <= nr < n and 0 <= nc < n):
                return None
            j = nr * n + nc
            cells = list(state)
            cells[b], cells[j] = cells[j], 0
            return tuple(cells)
    raise ValueError(f"unknown move {letter!r}")


def bfs_depths(n: int, limit: int | None = None) -> dict:
    """Exact depth of every state within `limit` moves of the goal."""
    start = goal_state(n)
    depth = {start: 0}
    queue = deque([start])
    while queue:
        s = queue.popleft()
        d = depth[s]
        if limit is not None and d >= limit:
            continue
        for letter, _, _ in MOVES:
            t = step(s, n, letter)
            if t is not None and t not in depth:
                depth[t] = d + 1
                queue.append(t)
    return depth


def histogram(depth: dict) -> list[int]:
    hist = [0] * (max(depth.values()) + 1)
    for d in depth.values():
        hist[d] += 1
    return hist


def solvable(state: tuple, n: int) -> bool:
    """Inversion-parity rule, with the blank's row for even n."""
    tiles = [v for v in state if v]
    inv = sum(1 for i in range(len(tiles)) for j in range(i + 1, len(tiles))
              if tiles[i] > tiles[j])
    if n % 2:
        return inv % 2 == 0
    blank_row = state.index(0) // n
    return (inv + (n - 1 - blank_row)) % 2 == 0


def manhattan(state: tuple, n: int) -> int:
    total = 0
    for i, v in enumerate(state):
        if v:
            r, c = divmod(i, n)
            hr, hc = divmod(v - 1, n)
            total += abs(r - hr) + abs(c - hc)
    return total


def ida_star(state: tuple, n: int) -> tuple[int, int]:
    """(optimal move count, nodes expanded) by this module's own IDA* with
    the Manhattan heuristic, for a solvable state.  The node count ranks
    4x4 scrambles by how hard they are to search."""
    goal = {v: divmod(v - 1, n) for v in range(1, n * n)}
    cells = list(state)
    expanded = 0

    def cost(v, i):
        r, c = divmod(i, n)
        return abs(r - goal[v][0]) + abs(c - goal[v][1])

    def dfs(b, g, h, bound, back):
        nonlocal expanded
        if g + h > bound:
            return g + h
        if h == 0:
            return -1
        expanded += 1
        best = None
        r, c = divmod(b, n)
        for j in (b - n if r else None, b + n if r < n - 1 else None,
                  b + 1 if c < n - 1 else None, b - 1 if c else None):
            if j is None or j == back:
                continue
            v = cells[j]
            cells[b], cells[j] = v, 0
            t = dfs(j, g + 1, h + cost(v, b) - cost(v, j), bound, b)
            cells[b], cells[j] = 0, v
            if t == -1:
                return -1
            best = t if best is None or t < best else best
        return best

    h0 = sum(cost(v, i) for i, v in enumerate(cells) if v)
    bound = h0
    while True:
        t = dfs(cells.index(0), 0, h0, bound, None)
        if t == -1:
            return bound, expanded
        bound = t


def replay(state: tuple, n: int, letters: str):
    """Strict replay; None if any move leaves the board."""
    for letter in letters:
        state = step(state, n, letter)
        if state is None:
            return None
    return state


def grid_text(state: tuple, n: int) -> str:
    rows = []
    for r in range(n):
        rows.append(" ".join("_" if v == 0 else str(v) for v in state[r * n:(r + 1) * n]))
    return "\n".join(rows) + "\n"


def walk(rng: random.Random, n: int, length: int) -> tuple:
    """Non-backtracking random walk of the blank from the goal."""
    s, last = goal_state(n), None
    for _ in range(length):
        options = []
        for letter, _, _ in MOVES:
            if last is not None and letter == INVERSE[last]:
                continue
            t = step(s, n, letter)
            if t is not None:
                options.append((letter, t))
        last, s = rng.choice(options)
    return s


def transpose_two_tiles(rng: random.Random, state: tuple) -> tuple:
    i, j = rng.sample([k for k, v in enumerate(state) if v], 2)
    cells = list(state)
    cells[i], cells[j] = cells[j], cells[i]
    return tuple(cells)


def lex_first_optimal(state: tuple, n: int, depth: dict) -> str:
    """First shortest solution in U < D < R < L order, from exact depths."""
    out = []
    while depth[state]:
        for letter, _, _ in MOVES:
            t = step(state, n, letter)
            if t is not None and depth.get(t) == depth[state] - 1:
                out.append(letter)
                state = t
                break
    return "".join(out)


def length_lex_rank(letters: str) -> int:
    """Position of a move string among all strings of length 1.. in
    length-then-lexicographic order (the exhaust probe count)."""
    if not letters:
        return 0
    digits = {"U": 0, "D": 1, "R": 2, "L": 3}
    shorter = sum(4 ** k for k in range(1, len(letters)))
    within = 0
    for ch in letters:
        within = within * 4 + digits[ch]
    return shorter + within + 1


def verify_ceiling(n: int, k: int) -> int:
    return n * n + 27 * k + 1


def search_ceiling(n: int, k: int) -> int:
    return 4 ** k * (n * n + 2) + 27 * k


# ---------------------------------------------------------------------------
# polynomials built from known roots

ROOT_VALUES = [Fraction(k, 2) for k in range(-8, 9)]  # integers in [-4, 4] and halves
PI_CUBIC = "pi/2,-pi^2,0,2"


def expand(roots, cofactor=(Fraction(1),)) -> list[Fraction]:
    """Low-first coefficients of cofactor * prod (x - r)^m."""
    coeffs = list(cofactor)
    for r, m in roots:
        for _ in range(m):
            nxt = [Fraction(0)] * (len(coeffs) + 1)
            for i, a in enumerate(coeffs):
                nxt[i] -= a * r
                nxt[i + 1] += a
            coeffs = nxt
    return coeffs


def exact_text(coeffs) -> str:
    return ",".join(str(c) for c in coeffs)


def float_text(coeffs) -> str:
    """Decimal spelling without exponents (tilelab's scalar grammar)."""
    toks = []
    for c in coeffs:
        s = format(Decimal(repr(float(c))), "f")
        toks.append(s if "." in s else s + ".0")
    return ",".join(toks)


def pi_cubic_roots() -> list[tuple[float, int]]:
    """2x^3 - pi^2 x + pi/2 by the trigonometric cubic formula."""
    p, q = -math.pi ** 2 / 2, math.pi / 4          # x^3 + p x + q
    a = 2 * math.sqrt(-p / 3)
    phi = math.acos(3 * q / (2 * p) * math.sqrt(-3 / p)) / 3
    return sorted((a * math.cos(phi - 2 * math.pi * k / 3), 1) for k in range(3))


def fraction_of_text(token: str) -> Fraction:
    return Fraction(Decimal(token))


def norm_truth(exact_coeffs, float_line: str):
    """Exact max-norms of p*q and |p|*|q| for the (exact, float) corpus pair."""
    q = [fraction_of_text(t) for t in float_line.split(",")]
    prod = [Fraction(0)] * (len(exact_coeffs) + len(q) - 1)
    for i, a in enumerate(exact_coeffs):
        for j, b in enumerate(q):
            prod[i + j] += a * b
    lhs = max(abs(c) for c in prod)
    rhs = max(abs(c) for c in exact_coeffs) * max(abs(c) for c in q)
    return lhs, rhs


# ---------------------------------------------------------------------------
# claim-report truths: the published bounds evaluated independently

def bound_verdicts(n: int, count: int, diameter: int) -> dict:
    fact = math.factorial(n * n)
    log_bound = math.log(fact) / math.log(4)
    m = 0
    while 4 ** (2 * (m + 1) + 1) <= fact:
        m += 1
    out = {
        "optimal_moves_log_bound": diameter <= log_bound,
        "solvable_states_branching_bound": count <= 4 * 3 ** m * 4 ** m + 4,
        "configuration_count": True,
    }
    if n >= 3:
        out["solvable_states_mobility_bound"] = count <= 4 * (n * n - n - 4)
        out["optimal_moves_mobility_bound"] = diameter <= 4 * (n * n - n - 2)
    verdicts = {k: "holds" if v else "fails" for k, v in out.items()}
    if n < 3:
        verdicts["solvable_states_mobility_bound"] = "untested"
        verdicts["optimal_moves_mobility_bound"] = "untested"
    return verdicts
