"""The three workloads: seeded op pools, fixed warm-up ops and result checks.

An op is a JSON-able dict handed to the worker; its truth stays in the
parent.  A run's ops are a fixed number of cycles, each with a fixed mix
of op kinds, and the seeded draws are stratified (by depth, probe count,
walk length, degree or shape), so every run sees the same mix and only
the values inside each stratum change with the seed.  Inputs are never
re-drawn or dropped because tilelab fails on them.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from gen import (
    EXHAUST_KMAX, PI_CUBIC, ROOT_VALUES, bfs_depths, bound_verdicts, exact_text,
    expand, float_text, goal_state, grid_text, histogram, ida_star, length_lex_rank,
    lex_first_optimal, manhattan, norm_truth, pi_cubic_roots, replay,
    search_ceiling, solvable, transpose_two_tiles, verify_ceiling, walk,
)

WORKLOADS = ("tiles-solve", "roots-find", "claims-report")

WALK4 = range(26, 35)      # 4x4 scramble lengths solved by IDA*
SOLVE4_CANDIDATES = 3      # scrambles drawn per solve4 op, one kept per stratum
ENUM4_DEPTHS = range(10, 16)
CORPUS_DEGREES = range(4, 15)
CORPUS_CANDIDATES = 3      # polynomials drawn per corpus op, one kept per stratum
CORPUS_VALUES = sorted({Fraction(p, q) for q in (1, 2, 3) for p in range(-3 * q, 3 * q + 1)})


def _spread(rng: random.Random, n: int):
    """Endless rounds of a permutation of range(n) whose every prefix covers
    the range evenly: bit-reversed counting, rotated by a seeded offset.
    Each run then sees nearly the same mix of strata, and only the draws
    inside each stratum change with the seed."""
    bits = max(1, (n - 1).bit_length())
    while True:
        offset = rng.randrange(1 << bits)
        for i in range(1 << bits):
            j = (int(format(i, f"0{bits}b")[::-1], 2) + offset) % (1 << bits)
            if j < n:
                yield j


def _spread_values(rng: random.Random, values):
    values = list(values)
    return (values[i] for i in _spread(rng, len(values)))


def _strata(rng: random.Random, items, count: int):
    """One seeded draw from each of `count` equal slices of `items` (a
    sorted list), in seeded order: every run covers the whole range."""
    out = [items[rng.randrange(k * len(items) // count, max(k * len(items) // count + 1,
                                                            (k + 1) * len(items) // count))]
           for k in range(count)]
    rng.shuffle(out)
    return iter(out)


class Truths:
    """Ground-truth tables shared by the pools (built once per run)."""

    def __init__(self, workload: str):
        self.depth3 = self.by_depth3 = self.depth4 = self.hist4 = self.depth2 = None
        if workload in ("tiles-solve", "claims-report"):
            self.depth3 = bfs_depths(3)
        if workload == "tiles-solve":
            self.by_depth3 = sorted(self.depth3, key=lambda s: (self.depth3[s], s))
            self.depth4 = bfs_depths(4, EXHAUST_KMAX)
            # every 4x4 state exactly EXHAUST_KMAX moves from the goal (where
            # every non-backtracking scramble of that length ends), by
            # exhaust probe count
            self.by_probes4 = sorted(
                (length_lex_rank(lex_first_optimal(s, 4, self.depth4)), s)
                for s, d in self.depth4.items() if d == EXHAUST_KMAX)
        if workload == "claims-report":
            self.depth2 = bfs_depths(2)
            self.hist4 = histogram(bfs_depths(4, max(ENUM4_DEPTHS)))


# ---------------------------------------------------------------------------
# tiles-solve


def _tile_op(kind, state, n, **truth):
    op = {"k": kind, "grid": grid_text(state, n)}
    if kind == "exhaust":
        op["kmax"] = EXHAUST_KMAX
    return op, dict(truth, state=state, n=n)


def tiles_pool(rng: random.Random, truths: Truths, cycles: int):
    states = truths.by_depth3
    solve3 = _strata(rng, states, cycles)
    walk4 = _spread_values(rng, WALK4)
    # 4x4 scrambles ranked by this module's own IDA* node count, so every run
    # gets the same spread of search effort
    scrambles = []
    for _ in range(SOLVE4_CANDIDATES * cycles):
        length = next(walk4)
        st = walk(rng, 4, length)
        psi, nodes = ida_star(st, 4)
        scrambles.append((nodes, st, length, psi))
    solve4 = _strata(rng, sorted(scrambles), cycles)
    near4 = _strata(rng, truths.by_probes4, 2 * cycles)
    deepest = states[-1]  # a 31-move 3x3 grid: BFS's largest working set
    out = [[_tile_op("solve3", deepest, 3, psi=truths.depth3[deepest])]]
    for c in range(cycles):
        row = []
        for slot in ("solve3", "exhaust", "solve4", "exhaust", "unsolvable"):
            if slot == "solve3":
                st = next(solve3)
                row.append(_tile_op("solve3", st, 3, psi=truths.depth3[st]))
            elif slot == "solve4":
                _, st, length, psi = next(solve4)
                row.append(_tile_op("solve4", st, 4, walk=length, h=manhattan(st, 4), psi=psi))
            elif slot == "exhaust":
                _, st = next(near4)
                seq = lex_first_optimal(st, 4, truths.depth4)
                row.append(_tile_op("exhaust", st, 4, seq=seq))
            else:  # alternate 3x3 and 4x4
                n = 3 if c % 2 else 4
                st = transpose_two_tiles(rng, walk(rng, n, 20 + c % 7))
                row.append(_tile_op("unsolvable", st, n))
        out.append(row)
    return out


def tiles_warmup(truths: Truths):
    rng = random.Random(0)
    s3, s4 = walk(rng, 3, 14), walk(rng, 4, 16)
    ex = walk(rng, 4, 3)
    seq = lex_first_optimal(ex, 4, truths.depth4)
    return [
        _tile_op("solve3", s3, 3, psi=truths.depth3[s3]),
        _tile_op("solve4", s4, 4, walk=16, h=manhattan(s4, 4)),
        _tile_op("exhaust", ex, 4, seq=seq),
        _tile_op("unsolvable", transpose_two_tiles(rng, s3), 3),
    ]


def check_tiles(truth, res):
    n, state = truth["n"], truth["state"]
    seq = res.get("seq", "")
    if "unsolvable" in res or not solvable(state, n):
        if solvable(state, n):
            return "wrong", "solvable_grid_called_unsolvable"
        if "unsolvable" not in res:
            return "wrong", "unsolvable_grid_solved"
        if res["verified"] or res["ivalid"]:
            return "wrong", "verify_accepts_non_solution"
        return "ok", None
    end = replay(state, n, seq)
    if end != goal_state(n):
        return "wrong", "solution_does_not_reach_goal"
    if "psi" in res and res["psi"] != len(seq):
        return "wrong", "psi_differs_from_solution_length"
    if "psi" in truth and len(seq) != truth["psi"]:
        return "wrong", "psi_not_optimal"
    if "walk" in truth:
        k, h = len(seq), truth["h"]
        if k > truth["walk"] or k < h or (k - h) % 2:
            return "wrong", "psi_violates_manhattan_or_parity"
    if "seq" in truth and seq != truth["seq"]:
        return "wrong", "exhaust_not_length_lex_first"
    if not (res["verified"] and res["ivalid"]):
        return "wrong", "verify_rejects_solution"
    if res["decisions"] > verify_ceiling(n, len(seq)):
        return "fail", "verify_budget_exceeded"
    if "sdecisions" in res and res["sdecisions"] > search_ceiling(n, EXHAUST_KMAX):
        return "fail", "search_budget_exceeded"
    return "ok", None


def tiles_counters(res):
    return [res.get("psi"), res.get("expanded"), res.get("decisions"), res.get("sdecisions"),
            length_lex_rank(res.get("seq", "")) if "sdecisions" in res else None]


# ---------------------------------------------------------------------------
# roots-find

# (mode, multiplicities of distinct real roots, root-free quadratic factor).
# A cycle holds every cheap and middle slot.  The heavy shapes cost from a
# few times to fifty times more in one draw than in another ((3, 1): 20 ms
# to 1.1 s), and a run holds only 5-6 cycles, so they are drawn once, from
# a fixed seed, and open every run.
CHEAP_SLOTS = [("real", (1, 1), False), ("real", (2,), False), ("real", (2, 1), False),
               ("real", (3,), False)]
MIDDLE_SLOTS = [("real", (), True)] * 3 + [("complex", (1, 1), False)] * 3 + [("complex", (2, 2), False)]
HEAVY_SLOTS = [("real", (1, 1, 1), False), ("real", (2, 2), False), ("real", (1,), True),
               ("complex", (2, 1), False), ("complex", (1, 1, 1), False),
               ("real", (3, 1), False)]


def _root_free_quadratic(rng: random.Random):
    b = Fraction(rng.randint(-4, 4), 2)
    c = b * b / 4 + rng.choice((Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)))
    return (c, b, Fraction(1))


def _find_ops(text, mode, roots):
    return {"k": "find", "text": text, "mode": mode}, {"roots": roots}


def _slot_ops(rng: random.Random, mode, mults, quad):
    """The exact and the float spelling of one drawn polynomial."""
    roots = list(zip(rng.sample(ROOT_VALUES, len(mults)), mults))
    coeffs = expand(roots, _root_free_quadratic(rng) if quad else (Fraction(1),))
    want = [(complex(r), m) for r, m in roots]
    return [_find_ops(exact_text(coeffs), mode, want), _find_ops(float_text(coeffs), mode, want)]


def roots_pool(rng: random.Random, cycles: int):
    exact_pi = [(complex(r), m) for r, m in pi_cubic_roots()]
    fixed = [
        _find_ops(PI_CUBIC, "real", exact_pi),
        # (x-1)(x-2)(x-3): roots in arithmetic progression
        _find_ops("-6,11,-6,1", "real", [(1, 1), (2, 1), (3, 1)]),
        # x^2 - 1 in complex mode
        _find_ops("-1,0,1", "complex", [(-1, 1), (1, 1)]),
    ]
    heavy_rng = random.Random(0)
    for slot in HEAVY_SLOTS:
        fixed += _slot_ops(heavy_rng, *slot)
    out = [fixed]
    for _ in range(cycles):
        slots = CHEAP_SLOTS + MIDDLE_SLOTS
        rng.shuffle(slots)
        out.append([op for slot in slots for op in _slot_ops(rng, *slot)])
    return out


def roots_warmup():
    coeffs = expand([(Fraction(-2), 1), (Fraction(1), 1)])
    return [
        _find_ops(exact_text(coeffs), "real", [(-2, 1), (1, 1)]),
        _find_ops(float_text(coeffs), "real", [(-2, 1), (1, 1)]),
        _find_ops(exact_text(coeffs), "complex", [(-2, 1), (1, 1)]),
    ]


ROOT_TOL = 1e-6  # relative distance within which a root matches
ORACLE_REJECTED = "independent root oracle disagrees with this case"


def _match_roots(got, want):
    """None if the root sets agree, else the failure cause."""
    if len(got) != len(want):
        return "wrong_root_set"
    got = sorted(got, key=lambda t: (t[0].real, t[0].imag))
    want = sorted(want, key=lambda t: (t[0].real, t[0].imag))
    mult_bad = False
    for (gv, gm), (wv, wm) in zip(got, want):
        if abs(gv - wv) > ROOT_TOL * max(1.0, abs(wv)):
            return "wrong_root_set"
        mult_bad |= gm != wm
    return "wrong_multiplicity" if mult_bad else None


def check_find(truth, res):
    if res.get("nps"):
        if any(o[4] == ORACLE_REJECTED for o in res["outcomes"]):
            return "fail", "oracle_disagreement"
        return "fail", "no_pattern_solved"
    got = [(complex(re, im), m) for re, im, m in res["roots"]]
    want = [(complex(v), m) for v, m in truth["roots"]]
    cause = _match_roots(got, want)
    return ("wrong", cause) if cause else ("ok", None)


def find_counters(res):
    outs = res.get("outcomes", [])
    return [len(outs), sum(o[2] for o in outs), sum(o[3] for o in outs), len(res.get("roots", []))]


# ---------------------------------------------------------------------------
# claims-report


def _corpus_op(roots):
    coeffs = expand(roots)
    lines = [exact_text(coeffs), float_text(coeffs)]
    lhs, rhs = norm_truth(coeffs, lines[1])
    want = [(complex(r), m) for r, m in roots]
    return {"k": "corpus", "lines": lines}, {"roots": want, "norm": (lhs, rhs)}


def _rverify_op(roots, r, m):
    return ({"k": "rverify", "text": exact_text(expand(roots)), "root": str(r)},
            {"mult": m})


def _claims_corpus_roots(rng: random.Random, degree: int):
    k = rng.randint(max(3, math.ceil(degree / 4)), min(degree, 8))
    mults = [1] * k
    for _ in range(degree - k):
        i = rng.choice([j for j in range(k) if mults[j] < 4])
        mults[i] += 1
    values = sorted(rng.sample(CORPUS_VALUES, k))
    return list(zip(values, mults))


def claims_pool(rng: random.Random, truths: Truths, cycles: int):
    witness = [(Fraction(0), 1), (Fraction(1), 1), (Fraction(2), 1), (Fraction(7), 2)]
    fixed = [
        ({"k": "enum", "n": 2, "limit": None}, {"hist": histogram(truths.depth2)}),
        ({"k": "bounds3"}, {"hist": histogram(truths.depth3)}),
        # x(x-1)(x-2)(x-7)^2, whose float spelling loses the double root
        _corpus_op(witness),
        _rverify_op(witness, Fraction(7), 2),
    ]
    out = [fixed]
    depths = _spread_values(rng, ENUM4_DEPTHS)
    degrees = _spread_values(rng, CORPUS_DEGREES)
    # corpus polynomials ranked by degree, then by distinct roots (which
    # together set the cost of the Sturm oracle), so every run gets the
    # same spread of oracle work
    drawn = [_claims_corpus_roots(rng, next(degrees)) for _ in range(CORPUS_CANDIDATES * cycles)]
    corpus = _strata(rng, sorted(drawn, key=lambda r: (sum(m for _, m in r), len(r))), cycles)
    for _ in range(cycles):
        d = next(depths)
        roots = next(corpus)
        out.append([({"k": "enum", "n": 4, "limit": d}, {"hist": truths.hist4[:d + 1]}),
                    _corpus_op(roots)]
                   + [_rverify_op(roots, r, m) for r, m in rng.sample(roots, 3)])
    return out


def claims_warmup(truths: Truths):
    roots = [(Fraction(-1, 3), 2), (Fraction(1, 2), 1), (Fraction(2), 1)]
    return [
        ({"k": "enum", "n": 2, "limit": None}, {"hist": histogram(truths.depth2)}),
        ({"k": "enum", "n": 4, "limit": 8}, {"hist": truths.hist4[:9]}),
        _corpus_op(roots),
        _rverify_op(roots, Fraction(-1, 3), 2),
    ]


def check_claims(truth, res):
    if "hist" in truth:
        hist = truth["hist"]
        if (res["count"], res["diameter"], res["hist"]) != (sum(hist), len(hist) - 1, hist):
            return "wrong", "census_mismatch"
        if "verdicts" in res and res["verdicts"] != bound_verdicts(3, sum(hist), len(hist) - 1):
            return "wrong", "bound_verdict_mismatch"
        return "ok", None
    if "mult" in truth:
        if not res["is_root"]:
            return "wrong", "root_rejected"
        if res["mult"] != truth["mult"]:
            return "wrong", "wrong_multiplicity"
        return "ok", None
    for line in res["lines"]:
        got = [(complex(v), m) for v, m in line]
        cause = _match_roots(got, truth["roots"])
        if cause:
            return "wrong", cause
    lhs, rhs = truth["norm"]
    got_lhs, got_rhs, holds = res["norm"]
    if abs(got_lhs - float(lhs)) > 1e-9 * float(lhs) or abs(got_rhs - float(rhs)) > 1e-9 * float(rhs):
        return "wrong", "norm_value_mismatch"
    gap = abs(lhs - rhs) / rhs
    if (gap == 0 and not holds) or (gap > 1e-9 and holds):
        return "wrong", "norm_verdict_mismatch"
    return "ok", None


def claims_counters(res):
    if "count" in res:
        return [res["count"], res["diameter"]]
    if "lines" in res:
        return [len(line) for line in res["lines"]]
    return [res.get("mult")]


# ---------------------------------------------------------------------------


def build(workload: str, seed: int, cycles: int):
    """(warm-up ops, cycles of ops, cycles of truths)."""
    truths = Truths(workload)
    rng = random.Random(seed)
    if workload == "tiles-solve":
        warm, pool = tiles_warmup(truths), tiles_pool(rng, truths, cycles)
    elif workload == "roots-find":
        warm, pool = roots_warmup(), roots_pool(rng, cycles)
    else:
        warm, pool = claims_warmup(truths), claims_pool(rng, truths, cycles)
    return ([o for o, _ in warm], [[o for o, _ in row] for row in pool],
            [[t for _, t in row] for row in pool])


CHECKS = {"tiles-solve": check_tiles, "roots-find": check_find, "claims-report": check_claims}
COUNTERS = {"tiles-solve": tiles_counters, "roots-find": find_counters,
            "claims-report": claims_counters}


def check(workload: str, truth, res):
    """("ok" | "fail" | "wrong", cause or None) for one op's output."""
    if "error" in res:
        return "fail", "exception:" + res["error"].split(":")[0]
    return CHECKS[workload](truth, res)


ROADMAP_ROWS = {  # input -> (cases, GN iterations, starts)
    PI_CUBIC: (3, 1366, 33),
    "2,-3,0,1,0,1": (13, 13660, 355),
    "1,0,0,0,0,0,1": (23, 27291, 672),
}
CENSUS3 = (181440, 31)
DEFECT_C_FLOAT = "0.0,98.0,-175.0,93.0,-17.0,1.0"
