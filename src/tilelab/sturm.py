"""Independent real-root oracle: Sturm chains plus bisection.

This module deliberately shares no machinery with the Vieta-system solver
beyond the Poly container; it is the second route in every dual-route root
check.  A float coefficient is read as the simplest rational that rounds
to it, so 0.1 is 1/10 and pi is 245850922/78256779.  Chains are built in
integers, by pseudo-remainders that scale each element by a positive
factor and divide out its content, and signs at a rational point p/q are
read off homogeneous Horner sums in integers alone.

Exact input, and float input whose exact reading has a repeated factor,
is first split by Yun's algorithm into square-free factors s_m, each
holding the roots of multiplicity m.  Each factor's own chain isolates its
roots, and before each halving a bracket is snapped to the simplest
rational inside it: when s_m vanishes there, that is the root.  Every
root comes back as the float nearest it.  Only a float input whose
reading is square-free runs one chain on the whole reading, dropping
remainder terms below _REM_DUST of the dividend, so a root the floats
repeat only up to rounding, such as pi in pi^2 - 2 pi x + x^2, keeps its
multiplicity; a derivative ladder then polishes each root and reads it.
count_real_roots_in reads its input by the same rule.

Counting uses half-open intervals (a, b], so every root lands in exactly
one side of a split; multiple roots collapse the chain at gcd(p, p') and
are still counted once, which is what makes the count "distinct roots".
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest

from .poly import (
    COMPLEX,
    RATIONAL,
    Poly,
    RootSet,
    eval_horner,
    float_coeffs,
)
from .search import ResourceLimit

BISECT_WIDTH = 1e-12


def _simplest_rational(lo: Fraction, hi: Fraction, closed: bool) -> Fraction:
    """The simplest rational between lo < hi: the least denominator, then
    the least magnitude.  The ends belong to the interval when closed.

    The continued-fraction walk (the Stern-Brocot descent) takes the
    smallest integer in the interval if there is one, and otherwise goes
    on with the reciprocal of the part above the integer part.
    """
    if hi < 0 or (hi == 0 and not closed):
        return -_simplest_rational(-hi, -lo, closed)
    if lo < 0 or (lo == 0 and closed):
        return Fraction(0)
    # the interval is ln/ld .. hn/hd in integers; hd = 0 stands for infinity
    ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    lo_in = hi_in = closed
    terms = []
    while True:
        n = ln // ld
        k = n if lo_in and ln == n * ld else n + 1  # the smallest integer in the interval, if any
        if hd == 0 or k * hd < hn or (hi_in and k * hd == hn):
            break
        terms.append(n)
        # on to 1 / (value - n): its ends are 1 / (hi - n) and 1 / (lo - n)
        ln, ld, hn, hd = hd, hn - n * hd, ld, ln - n * ld
        lo_in, hi_in = hi_in, lo_in
    num, den = k, 1
    for n in reversed(terms):
        num, den = n * num + den, num
    return Fraction(num, den)


def _read_float(x: float) -> Fraction:
    """The simplest rational that rounds to the finite float x.

    A value halfway to a neighbour rounds to the even one of the two, so
    the rounding interval holds its ends exactly when x is even, which is
    when float() takes the lower end to x.  Above the largest float the
    upper end is where rounding overflows.
    """
    if x < 0:
        return -_read_float(-x)
    if x == 0:
        return Fraction(0)
    v, below, above = Fraction(x), Fraction(math.nextafter(x, 0.0)), math.nextafter(x, math.inf)
    lo = (below + v) / 2
    hi = (v + Fraction(above)) / 2 if above < math.inf else v + (v - below) / 2
    return _simplest_rational(lo, hi, float(lo) == x)


def _as_real_coeffs(p: Poly) -> tuple[list[Fraction], bool]:
    """Low-first exact coefficients, and whether they were read from floats.

    Float input must pass poly.float_coeffs' rule for real coefficients.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has no root set")
    if p.kind == RATIONAL:
        return list(p.coeffs), False
    return [_read_float(x) for x in float_coeffs(p, real=True)], True


ORACLE_DEGREE_CAP = 36  # the highest degree real-mode roots find hands the oracle before SHAPE_CAP

# a float reading's chain drops a remainder term at most this share of the
# dividend's largest coefficient: smaller is roundoff
_REM_DUST = Fraction(1e-11)


def _capped(coeffs: list) -> list:
    """coeffs, or ResourceLimit when their degree is above ORACLE_DEGREE_CAP."""
    if len(coeffs) - 1 > ORACLE_DEGREE_CAP:
        raise ResourceLimit(f"degree {len(coeffs) - 1} exceeds the oracle's cap {ORACLE_DEGREE_CAP}")
    return coeffs


def _real_reading(p: Poly) -> tuple[list[Fraction], dict[int, list[int]] | None]:
    """p's exact coefficients and their square_free_split, or None in place
    of the split when they were read from floats and are square-free.

    Raises ResourceLimit above ORACLE_DEGREE_CAP.
    """
    coeffs, from_float = _as_real_coeffs(p)
    split = square_free_split(_capped(coeffs))
    return coeffs, None if from_float and list(split) == [1] else split


def _derivative_coeffs(coeffs: list) -> list:
    return [i * c for i, c in enumerate(coeffs)][1:]


def _primitive(a: list[int]) -> list[int]:
    """a over the gcd of its coefficients, with a positive lead."""
    g = math.gcd(*a)
    g = -g if a[-1] < 0 else g
    return [c // g for c in a]


def _integer(coeffs: list[Fraction]) -> list[int]:
    """The primitive integer polynomial with a positive lead that is a
    rational multiple of coeffs."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return _primitive([c.numerator * (den // c.denominator) for c in coeffs])


def _int_pseudo_rem(a: list[int], b: list[int], dust=0) -> list[int]:
    """|lead(b)|^k times the remainder of a by b, for some k: integers only.

    The factor is positive, so every sign of the remainder is kept.  A
    leading term at most dust times the largest coefficient of a is
    dropped; each step scales a by |lead(b)|, and the bound with it.
    """
    a = list(a)
    num, den = dust.as_integer_ratio()
    bound = num * max(map(abs, a))
    lead, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    while len(a) >= len(b):
        top, shift = sign * a[-1], len(a) - len(b)
        a = [c * lead for c in a]
        for i, bc in enumerate(b):
            a[shift + i] -= top * bc
        a.pop()  # leading term cancels by construction
        bound *= lead
        while a and abs(a[-1]) * den <= bound:
            a.pop()
    return a


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """The primitive gcd of two integer polynomials, b possibly zero."""
    while b:
        a, b = b, _int_pseudo_rem(a, b)
        b = b and _primitive(b)
    return _primitive(a)


def _int_quo(a: list[int], b: list[int]) -> list[int]:
    """The quotient of a by b, for a and b whose long division divides
    exactly at every step: a primitive b that divides a (by Gauss's lemma
    the quotient has integer coefficients), or an a that carries the factor
    lead(b)^(deg a - deg b + 1).  The remainder is dropped."""
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for shift in range(len(out) - 1, -1, -1):
        factor = out[shift] = a[shift + len(b) - 1] // b[-1]
        for i, bc in enumerate(b):
            a[shift + i] -= factor * bc
    return out


def square_free_split(coeffs: list[Fraction]) -> dict[int, list[int]]:
    """{m: s_m} with p = c * prod s_m^m, by Yun's algorithm.

    p is given by its low-first exact coefficients and c is a rational
    constant.  Each s_m is a primitive integer polynomial with a positive
    lead, square-free and of degree at least 1, and the s_m are pairwise
    coprime, so the roots of s_m are exactly the roots of p of
    multiplicity m (Yun 1976, On square-free decomposition algorithms).
    The arithmetic stays in integers: every gcd is primitive, so every
    quotient is exact.
    """
    if len(coeffs) <= 1:
        return {}
    f = _integer(coeffs)
    deriv = _derivative_coeffs(f)
    g = _int_gcd(f, deriv)
    b, c = _int_quo(f, g), _int_quo(deriv, g)
    out = {}
    m = 1
    while len(b) > 1:
        # b = prod_{i >= m} s_i and c - b' vanishes at the roots of s_m but
        # at no other root of b, so their gcd is s_m
        d = [x - y for x, y in zip_longest(c, _derivative_coeffs(b), fillvalue=0)]
        while d and not d[-1]:
            d.pop()
        s = _int_gcd(b, d)
        if len(s) > 1:
            out[m] = s
        b, c = _int_quo(b, s), _int_quo(d, s)
        m += 1
    return out


def _sturm_chain(f: list[int], dust=0) -> list[list[int]]:
    """The Sturm chain of the integer polynomial f, of degree at least 1:
    f, f', then each remainder negated, in integers.

    Each element is a positive multiple of the classical one, over its
    content, so the chain takes the classical signs.  With dust, each
    remainder drops its roundoff (_int_pseudo_rem); the bound is relative,
    so the chain drops what a chain kept at unit scale would.
    """
    chain = [f, _derivative_coeffs(f)]
    while len(chain[-1]) > 1:
        rem = _int_pseudo_rem(chain[-2], chain[-1], dust)
        if not rem:
            break
        g = math.gcd(*rem)
        chain.append([-c // g for c in rem])
    return chain


def _q_powers(q: int, d: int) -> list[int]:
    out = [1]
    for _ in range(d):
        out.append(out[-1] * q)
    return out


def _int_eval(coeffs: list[int], p: int, q_pow: list[int]) -> int:
    """q^d * P(p/q) for d = len(coeffs) - 1: the sign of P(p/q), as q > 0."""
    acc = 0
    for c, qk in zip(reversed(coeffs), q_pow):
        acc = acc * p + c * qk
    return acc


def _int_variations(chain: list[list[int]], p: int, q: int) -> tuple[int, bool]:
    """The sign changes along an integer chain at p/q (q > 0), and whether
    p/q is a root of chain[0].

    q = 0 with p = +-1 gives the count at +-infinity: there each
    element's homogeneous value is its leading coefficient times p^d.
    """
    q_pow = _q_powers(q, len(chain[0]) - 1)
    values = [_int_eval(coeffs, p, q_pow) for coeffs in chain]
    signs = [v > 0 for v in values if v]
    return sum(s != t for s, t in zip(signs, signs[1:])), not values[0]


# the midpoint, then offsets around it: one more candidate than a chain
# under ORACLE_DEGREE_CAP has roots
_SPLIT_OFFSETS = tuple(Fraction(1, 2) + Fraction((-1) ** j * ((j + 1) // 2), 1021)
                       for j in range(ORACLE_DEGREE_CAP + 1))


def _split_point(chain: list[list[int]], a: Fraction, b: Fraction) -> tuple[Fraction, int]:
    """A counting point strictly inside (a, b), with its variation count.

    Every chain element is divisible by gcd(p, p'), so at a multiple root
    the whole chain vanishes and variation counts turn meaningless; even a
    simple-root hit makes the count ambiguous.  So the point is never on a
    root of p = chain[0]: every caller caps p at ORACLE_DEGREE_CAP, and
    _SPLIT_OFFSETS holds more candidates than p has roots.
    """
    span = b - a
    for offset in _SPLIT_OFFSETS:
        x = a + span * offset
        v, on_root = _int_variations(chain, x.numerator, x.denominator)
        if not on_root:
            return x, v
    raise RuntimeError(f"degree {len(chain[0]) - 1} is above ORACLE_DEGREE_CAP")


def count_real_roots_in(p: Poly, lo, hi) -> int:
    """Distinct real roots of p in the half-open interval (lo, hi]; none
    when lo >= hi.

    p is read as oracle_real_roots reads it: exact input, and a float
    reading with a repeated factor, is counted factor by factor on
    square_free_split; a float reading that is square-free is counted on
    the square-free part p / gcd(p, p') of the chain that drops roundoff.
    Raises ValueError for a NaN end and ResourceLimit above
    ORACLE_DEGREE_CAP.
    """
    for name, x in (("lo", lo), ("hi", hi)):
        if x != x:
            raise ValueError(f"count_real_roots_in: {name} is NaN")
    coeffs, split = _real_reading(p)
    if lo >= hi:
        return 0
    if split is not None:
        chains = [_sturm_chain(s) for s in split.values()]
    else:
        chain = _sturm_chain(_integer(coeffs), _REM_DUST)
        a, g = chain[0], chain[-1]
        if len(g) > 1:
            # the last element is gcd(p, p'), which vanishes with the whole
            # chain at a multiple root; an endpoint there is only counted
            # right on the square-free part
            scale = abs(g[-1]) ** (len(a) - len(g) + 1)
            chain = _sturm_chain(_int_quo([c * scale for c in a], g), _REM_DUST)
        chains = [chain]
    lo, hi = _homogeneous(lo), _homogeneous(hi)
    return sum(_int_variations(c, *lo)[0] - _int_variations(c, *hi)[0] for c in chains)


def _homogeneous(x) -> tuple[int, int]:
    """(p, q) with x = p/q exactly; an infinite x is (+-1, 0)."""
    if x in (math.inf, -math.inf):
        return (1 if x > 0 else -1), 0
    x = Fraction(x)
    return x.numerator, x.denominator


def root_bound(p: Poly) -> float:
    """Cauchy bound: every root has magnitude below 1 + max|a_i| / |a_d|."""
    return _cauchy_bound(_as_real_coeffs(p)[0])


def _cauchy_bound(coeffs: list[Fraction]) -> float:
    try:
        rest = max((float(abs(c)) for c in coeffs[:-1]), default=0.0)
        bound = 1.0 + rest / float(abs(coeffs[-1]))
    except (OverflowError, ZeroDivisionError):  # a coefficient above or a lead below the range
        bound = math.inf
    if bound == math.inf:
        raise ValueError("a coefficient or the root bound lies past the float range")
    return bound


def _width(a: Fraction, b: Fraction) -> float:
    """b - a as a float, inf for a bracket wider than the float range (the
    bound's first bracket (-hi, hi] when hi is above half of it)."""
    try:
        return float(b - a)
    except OverflowError:
        return math.inf


def _isolate(chain: list[list[int]], hi: Fraction, cluster: float) -> list[tuple]:
    """Brackets (a, b] in (-hi, hi], ascending, each holding one root of chain[0].

    Each entry carries the variation count at its lower end.  A bracket
    narrower than cluster, relative to its ends, is kept as one root even
    when the chain counts more: a chain that drops roundoff cannot tell
    such a cluster apart.
    """
    def variations(x: Fraction) -> int:
        return _int_variations(chain, x.numerator, x.denominator)[0]

    # each entry carries the variation counts at its ends, so every point's
    # count is computed once; (a, b] holds v_a - v_b distinct roots
    intervals: list[tuple] = []
    stack = [(-hi, hi, variations(-hi), variations(hi))]
    while stack:
        a, b, va, vb = stack.pop()
        k = va - vb
        if k <= 0:
            continue
        if k == 1 or (cluster and _width(a, b) < cluster * max(1.0, abs(float(a)), abs(float(b)))):
            intervals.append((a, b, va))
            continue
        mid, vm = _split_point(chain, a, b)
        stack.append((a, mid, va, vm))
        stack.append((mid, b, vm, vb))
    intervals.sort(key=lambda iv: iv[0])
    return intervals


def _halve(chain: list[list[int]], a: Fraction, b: Fraction, va: int) -> tuple:
    """The half of (a, b] that keeps its root, with the new lower count."""
    mid, vm = _split_point(chain, a, b)
    return (a, mid, va) if va - vm >= 1 else (mid, b, vm)


def _pin_root(chain: list[list[int]], a: Fraction, b: Fraction, va: int,
              decide: bool) -> tuple[Fraction | None, Fraction]:
    """(root, a): (a, b] holds one root of the square-free chain[0], a
    primitive integer polynomial (a factor from square_free_split).

    Before each halving the simplest rational in the bracket is tried; if
    chain[0] vanishes there, that is the root, exactly.  A rational root's
    denominator divides the lead L of chain[0], and a bracket narrower
    than 1/L^2 holds at most one rational of denominator at most L, its
    simplest; past either point no snap can hit.  To decide is to stop
    there, so that root is None exactly when the root is irrational.
    Otherwise the halving stops once both ends round to the same float,
    which is then the float nearest the root; root is None when no snap
    hit by then.
    """
    lead = chain[0][-1]
    gap = Fraction(1, lead * lead)
    snap = True
    while True:
        if snap:
            r = _simplest_rational(a, b, False)
            # chain[0] alone says whether r is a root
            if r.denominator <= lead and _int_variations(chain[:1], r.numerator, r.denominator)[1]:
                return r, a
            snap = r.denominator <= lead and b - a >= gap
        if (not snap) if decide else float(a) == float(b):
            return None, a
        a, b, va = _halve(chain, a, b, va)


def oracle_real_roots(p: Poly) -> RootSet:
    """All distinct real roots with multiplicities, ascending, deterministic.

    Exact input, and float input whose exact reading has a repeated
    factor, is split by square_free_split: the roots of each factor s_m
    are isolated by its own exact Sturm chain and have multiplicity m,
    and each is reported as the float nearest it (_pin_root).  A float
    input whose reading is square-free takes the chain that drops
    roundoff, so that a root the floats repeat only up to rounding keeps
    its multiplicity: count-driven bisection (sign-based bisection would
    miss even-multiplicity roots) shrinks every bracket below
    BISECT_WIDTH, and the derivative ladder of _refine_float_root polishes
    the root and reads that multiplicity.  Every chain is built and
    evaluated in integers.  The residual is |p(value)| in p's own
    arithmetic.  Raises ValueError when a coefficient or the root bound
    lies past the float range, and ResourceLimit above ORACLE_DEGREE_CAP.
    """
    coeffs, split = _real_reading(p)
    if len(coeffs) <= 1:
        return RootSet(())
    hi = Fraction(_cauchy_bound(coeffs)).limit_denominator(1) + 1
    if split is None:
        return _float_reading_roots(p, coeffs, hi)
    roots = []
    for m, s in split.items():
        chain = _sturm_chain(s)
        for a, b, va in _isolate(chain, hi, 0.0):
            r, a = _pin_root(chain, a, b, va, False)
            value = float(a if r is None else r)
            residual = (float(abs(eval_horner(p, Fraction(value)))) if p.kind == RATIONAL
                        else abs(eval_horner(p, value)))
            roots.append((value, m, residual))
    roots.sort()
    return RootSet(tuple(roots))


def splits_over_rationals(coeffs: list[Fraction]) -> bool:
    """True iff the exact polynomial with these low-first coefficients is
    a product of linear factors over Q.

    It is exactly when each factor s_m of square_free_split has deg s_m
    real roots and _pin_root finds every one of them rational.  Raises
    ResourceLimit above ORACLE_DEGREE_CAP.
    """
    for s in square_free_split(_capped(coeffs)).values():
        chain = _sturm_chain(s)
        if _int_variations(chain, -1, 0)[0] - _int_variations(chain, 1, 0)[0] < len(s) - 1:
            return False
        hi = Fraction(max(abs(c) for c in s[:-1]) // s[-1] + 2)  # the Cauchy bound, rounded up
        if any(_pin_root(chain, a, b, va, True)[0] is None for a, b, va in _isolate(chain, hi, 0.0)):
            return False
    return True


def _float_reading_roots(p: Poly, coeffs: list[Fraction], hi: Fraction) -> RootSet:
    """Roots of a float input whose exact reading is square-free."""
    chain = _sturm_chain(_integer(coeffs), _REM_DUST)
    centers = []
    for a, b, va in _isolate(chain, hi, 1e-10):
        while _width(a, b) > BISECT_WIDTH:
            a, b, va = _halve(chain, a, b, va)
        centers.append(float((a + b) / 2))

    roots = []
    for i, r in enumerate(centers):
        # polishing may only move a center toward its own root, never past a
        # neighboring bracket's root
        gaps = [abs(r - other) for j, other in enumerate(centers) if j != i]
        max_shift = min(gaps) / 4 if gaps else 0.05 * max(1.0, abs(r))
        max_shift = max(max_shift, 1e-6 * max(1.0, abs(r)))
        r, mult = _refine_float_root(p, r, max_shift)
        roots.append((r, mult, abs(eval_horner(p, r))))

    # noisy chains can hand two brackets the same root; keep one entry per root
    merged: list[tuple[float, int, float]] = []
    for r, m, res in roots:
        if merged and abs(r - merged[-1][0]) <= 1e-6 * max(1.0, abs(r)):
            keep = merged[-1] if merged[-1][2] <= res else (r, m, res)
            merged[-1] = keep
        else:
            merged.append((r, m, res))

    return RootSet(tuple(merged))


def _derivative(q: Poly) -> Poly:
    return Poly(tuple((i + 1) * c for i, c in enumerate(q.coeffs[1:])), COMPLEX)


def _coeff_scale(q: Poly, x: float) -> float:
    acc = 0.0
    ax = max(1.0, abs(x))
    for c in reversed(q.coeffs):
        acc = acc * ax + abs(c)
    return max(acc, 1e-300)


def _refine_float_root(work: Poly, x0: float, max_shift: float) -> tuple[float, int]:
    """Polish a bracketed root and read off its multiplicity.

    Float evaluations of p are pure roundoff within ~eps^(1/m) of a root of
    multiplicity m, so bisection alone leaves x0 anywhere in that noise
    basin.  For each candidate m the root is simple for the (m-1)th
    derivative: Newton there restores full accuracy.  A candidate counts
    only if it stays within max_shift of x0 (so it cannot be a different
    root) and every lower derivative vanishes relative to its coefficient
    scale; the largest surviving candidate wins.
    """
    derivs = [work]
    while derivs[-1].degree and derivs[-1].degree >= 1:
        derivs.append(_derivative(derivs[-1]))
    best = (x0, 1)
    for m in range(1, len(derivs)):
        q, dq = derivs[m - 1], derivs[m]
        x = x0
        for _ in range(20):
            dv = eval_horner(dq, x)
            if dv == 0:
                break
            step = (eval_horner(q, x) / dv).real
            x -= step
            if abs(step) <= 1e-15 * max(1.0, abs(x)):
                break
        if abs(x - x0) > max_shift:
            continue
        # at a true root Horner noise is a few eps of the coefficient scale;
        # in the flat valley between clustered roots it is orders larger, so
        # a tight relative threshold separates the two
        if all(abs(eval_horner(derivs[j], x)) <= 1e-11 * _coeff_scale(derivs[j], x)
               for j in range(m)):
            best = (x, m)
    return best
