"""Independent real-root oracle: Sturm chains plus bisection.

This module deliberately shares no machinery with the Vieta-system solver
beyond the Poly container; it is the second route in every dual-route root
check.  A float coefficient is read as the simplest rational that rounds
to it, so 0.1 is 1/10 and pi is 245850922/78256779.  Chains are built in
integers, by pseudo-remainders that scale each element by a positive
factor and divide out its content, and signs at a rational point p/q are
read off homogeneous Horner sums in integers alone.  Bisection keeps no
Fraction either: a bracket is two integers over one denominator, and a
split multiplies that denominator by the split point's, with no gcd.

Exact input, and float input whose exact reading has a repeated factor,
is first split by Yun's algorithm into square-free factors s_m, each
holding the roots of multiplicity m.  Each factor's own chain isolates its
roots; then each bracket is halved by the sign of s_m alone, which
changes sign across its simple root, and before each halving it is
snapped to the simplest rational inside it: when s_m vanishes there, that
is the root.  Every root comes back as the float nearest it.  Only a
float input whose reading is square-free runs one chain on the whole
reading, dropping remainder terms below _REM_DUST of the dividend, so a
root the floats repeat only up to rounding, such as pi in
pi^2 - 2 pi x + x^2, keeps its multiplicity; a derivative ladder then
polishes each root and reads it.
count_real_roots_in reads its input by the same rule.

Counting uses half-open intervals (a, b], so every root lands in exactly
one side of a split; multiple roots collapse the chain at gcd(p, p') and
are still counted once, which is what makes the count "distinct roots".
"""

from __future__ import annotations

import math
import sys
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


def _simplest_rational(lo: int, hi: int, den: int, closed: bool) -> tuple[int, int]:
    """(num, q): the simplest rational between lo/den < hi/den (den > 0),
    the least denominator, then the least magnitude, in lowest terms with
    q > 0.  The ends belong to the interval when closed.

    The continued-fraction walk (the Stern-Brocot descent) takes the
    smallest integer in the interval if there is one, and otherwise goes
    on with the reciprocal of the part above the integer part.
    """
    if hi < 0 or (hi == 0 and not closed):
        num, q = _simplest_rational(-hi, -lo, den, closed)
        return -num, q
    if lo < 0 or (lo == 0 and closed):
        return 0, 1
    # the interval is ln/ld .. hn/hd in integers; hd = 0 stands for infinity
    ln, ld, hn, hd = lo, den, hi, den
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
    num, q = k, 1
    for n in reversed(terms):
        num, q = n * num + q, num
    return num, q


def _read_float(x: float) -> Fraction:
    """The simplest rational that rounds to the finite float x.

    A value halfway to a neighbour rounds to the even one of the two, so
    the rounding interval holds its ends exactly when x is even, which is
    when float() takes the lower end to x.  Past the largest float the
    next step up would be 2^1024, and rounding overflows from halfway
    there.  x and its neighbours are read over one power-of-two
    denominator.
    """
    if x < 0:
        return -_read_float(-x)
    if x == 0:
        return Fraction(0)
    above = math.nextafter(x, math.inf)
    ratios = [math.nextafter(x, 0.0).as_integer_ratio(), x.as_integer_ratio(),
              above.as_integer_ratio() if above < math.inf else (2 ** sys.float_info.max_exp, 1)]
    unit = max(q for _, q in ratios)
    below, v, up = (n * (unit // q) for n, q in ratios)
    lo, hi = below + v, v + up
    num, q = _simplest_rational(lo, hi, 2 * unit, lo / (2 * unit) == x)
    return Fraction(num, q)


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
_REM_DUST = 1e-11


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


def _over_lcm(coeffs: list[Fraction]) -> tuple[list[int], int]:
    """(a, unit): coeffs times the lcm unit of their denominators, in integers."""
    unit = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (unit // c.denominator) for c in coeffs], unit


def _integer(coeffs: list[Fraction]) -> list[int]:
    """The primitive integer polynomial with a positive lead that is a
    rational multiple of coeffs."""
    return _primitive(_over_lcm(coeffs)[0])


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


# the midpoint, then offsets around it, as (num, q): one more candidate
# than a chain under ORACLE_DEGREE_CAP has roots
_SPLIT_OFFSETS = tuple((Fraction(1, 2) + Fraction((-1) ** j * ((j + 1) // 2), 1021)).as_integer_ratio()
                       for j in range(ORACLE_DEGREE_CAP + 1))


def _split_point(chain: list[list[int]], a: int, b: int, den: int) -> tuple[int, int, int]:
    """(x, q, v): a counting point x/(den*q) strictly between a/den and
    b/den, with its variation count.  Over the point's denominator den*q
    the bracket's ends are a*q and b*q; no gcd is taken.

    Every chain element is divisible by gcd(p, p'), so at a multiple root
    the whole chain vanishes and variation counts turn meaningless; even a
    simple-root hit makes the count ambiguous.  So the point is never on a
    root of p = chain[0]: every caller caps p at ORACLE_DEGREE_CAP, and
    _SPLIT_OFFSETS holds more candidates than p has roots.
    """
    span = b - a
    for num, q in _SPLIT_OFFSETS:
        x = a * q + span * num
        v, on_root = _int_variations(chain, x, den * q)
        if not on_root:
            return x, q, v
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


def _width(a: int, b: int, den: int) -> float:
    """(b - a) / den as a float, inf for a bracket wider than the float
    range (the bound's first bracket (-hi, hi] when hi is above half of it)."""
    try:
        return (b - a) / den
    except OverflowError:
        return math.inf


def _isolate(chain: list[list[int]], hi: int, cluster: float) -> list[tuple[int, int, int, int]]:
    """Brackets (a/den, b/den] in (-hi, hi], as (a, b, den, v_a), ascending,
    each holding one root of chain[0]; v_a is the variation count at the
    lower end.

    A bracket narrower than cluster, relative to its ends, is kept as one
    root even when the chain counts more: a chain that drops roundoff
    cannot tell such a cluster apart.
    """
    # each entry carries the variation counts at its ends, so every point's
    # count is computed once; (a, b] holds v_a - v_b distinct roots.  The
    # right half goes on the stack first, so brackets come off in order.
    intervals = []
    stack = [(-hi, hi, 1, _int_variations(chain, -hi, 1)[0], _int_variations(chain, hi, 1)[0])]
    while stack:
        a, b, den, va, vb = stack.pop()
        k = va - vb
        if k <= 0:
            continue
        if k == 1 or (cluster and _width(a, b, den) < cluster * max(1.0, abs(a / den), abs(b / den))):
            intervals.append((a, b, den, va))
            continue
        mid, q, vm = _split_point(chain, a, b, den)
        stack.append((mid, b * q, den * q, vm, vb))
        stack.append((a * q, mid, den * q, va, vm))
    return intervals


def _halve(chain: list[list[int]], a: int, b: int, den: int, va: int) -> tuple[int, int, int, int]:
    """The half of (a/den, b/den] that keeps its root, as (a, b, den, v_a)."""
    mid, q, vm = _split_point(chain, a, b, den)
    return (a * q, mid, den * q, va) if va - vm >= 1 else (mid, b * q, den * q, vm)


def _sign_at(coeffs: list[int], p: int, q: int) -> int:
    """The sign of the integer polynomial coeffs at p/q, q > 0."""
    v = _int_eval(coeffs, p, _q_powers(q, len(coeffs) - 1))
    return (v > 0) - (v < 0)


def _pin_root(s: list[int], lo: int, hi: int, den: int, decide: bool) -> tuple[int, int] | None:
    """(lo/den, hi/den] holds one root of s, a square-free primitive integer
    polynomial (a factor from square_free_split), and s(lo/den) is not 0.
    Returns (x, q) for the point x/q: the root exactly, or else the lower
    end of a bracket whose ends round to the same float, which is the
    float nearest the root.  To decide, it returns None in place of that
    lower end, exactly when the root is irrational.

    The bracket is halved at its midpoint by the sign of s alone: s is
    square-free, so it changes sign across its root, and a midpoint where
    it vanishes is the root.  Before each halving the simplest rational in
    the bracket is tried; if s vanishes there, that is the root.  A
    rational root's denominator divides the lead L of s, and a bracket
    narrower than 1/L^2 holds at most one rational of denominator at most
    L, its simplest; past either point no snap can hit.  To decide is to
    stop there.  Otherwise the halving stops once both ends round to the
    same float.  Raises RuntimeError when s vanishes at the lower end.
    """
    lead = s[-1]
    sign_lo = _sign_at(s, lo, den)
    if not sign_lo:
        raise RuntimeError(f"the lower end {lo}/{den} is a root: no sign to bisect by")
    snap = True
    while True:
        if snap:
            num, q = _simplest_rational(lo, hi, den, False)
            if q <= lead and not _sign_at(s, num, q):
                return num, q
            snap = q <= lead and (hi - lo) * lead * lead >= den
        if (not snap) if decide else lo / den == hi / den:
            return None if decide else (lo, den)
        mid, den = lo + hi, 2 * den
        sign_mid = _sign_at(s, mid, den)
        if not sign_mid:
            return mid, den
        lo, hi = (mid, 2 * hi) if sign_mid == sign_lo else (2 * lo, mid)


def _exact_residual(coeffs: list[Fraction], x: float) -> float:
    """|p(x)| rounded once, for the exact low-first coefficients of p: one
    integer Horner sum over the lcm of their denominators."""
    a, unit = _over_lcm(coeffs)
    num, q = x.as_integer_ratio()
    d = len(a) - 1
    return abs(_int_eval(a, num, _q_powers(q, d))) / (unit * q ** d)


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
    hi = int(Fraction(_cauchy_bound(coeffs)).limit_denominator(1)) + 1
    if split is None:
        return _float_reading_roots(p, coeffs, hi)
    roots = []
    for m, s in split.items():
        chain = _sturm_chain(s)
        for a, b, den, _ in _isolate(chain, hi, 0.0):
            num, q = _pin_root(s, a, b, den, False)
            value = num / q
            residual = _exact_residual(coeffs, value) if p.kind == RATIONAL else abs(eval_horner(p, value))
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
        hi = max(abs(c) for c in s[:-1]) // s[-1] + 2  # the Cauchy bound, rounded up
        if any(_pin_root(s, a, b, den, True) is None for a, b, den, _ in _isolate(chain, hi, 0.0)):
            return False
    return True


def _float_reading_roots(p: Poly, coeffs: list[Fraction], hi: int) -> RootSet:
    """Roots of a float input whose exact reading is square-free."""
    chain = _sturm_chain(_integer(coeffs), _REM_DUST)
    centers = []
    for a, b, den, va in _isolate(chain, hi, 1e-10):
        while _width(a, b, den) > BISECT_WIDTH:
            a, b, den, va = _halve(chain, a, b, den, va)
        centers.append((a + b) / (2 * den))

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
