"""Independent real-root oracle: Descartes bisection plus sign bisection.

This module deliberately shares no machinery with the Vieta-system solver
beyond the Poly container; it is the second route in every dual-route root
check.  A float coefficient is read as the simplest rational that rounds
to it, so 0.1 is 1/10 and pi is 245850922/78256779.  Every step on the
roots is in integers: a bracket is two integers over one denominator, a
halving doubles that denominator with no gcd, and signs at a rational
point p/q are read off homogeneous Horner sums.

Every input is answered on one exact path.  Its exact polynomial is
first split by Yun's algorithm into square-free factors s_m, each holding
the roots of multiplicity m.  The roots of each factor are isolated by
Descartes' rule of signs on integer Taylor shifts (Collins & Akritas
1976; Rouillier & Zimmermann 2004, Efficient isolation of polynomial's
real roots): the interval is halved until each piece holds at most one
root, and a midpoint where s_m vanishes is a root.  Then each bracket is
halved by the sign of s_m alone, which changes sign across its simple
root, and before each halving it is snapped to the simplest rational
inside it: when s_m vanishes there, that is the root.  Every root comes
back as the float nearest it, whatever bracket held it.

The exact polynomial is the reading, except for a float input of degree 2
or more whose reading is square-free.  Float digits name a box of
polynomials (Kahan 1972, Conserving confluence curbs ill-condition), and
such an input is read as the most merged c * prod (x - r_i)^m_i, a
complex r_i with its conjugate, that lies within _MERGE_TOL * |P|_i of the
reading in every coefficient i, where |P| is the same product over the
magnitudes of each factor's coefficients.  So pi^2 - 2 pi x + x^2 has the
double root pi.  Candidates come from the companion eigenvalues, clustered
at each radius of _RADII (a cluster's mean is well conditioned: Zeng 2005,
Computing multiple roots of inexact polynomials), and a cluster merges
only when it is tight: the reading's Taylor coefficients at the merged
root are, within _MERGE_TOL, those of one root of that multiplicity.  So
two simple roots further apart than 2 sqrt(_MERGE_TOL) = 2e-5 of their
size always read as two, whatever the other roots do to |P|, and closer
ones read as one double root when the box holds one.  The exact box test
decides, and when no candidate passes the reading itself is split.
count_real_roots_in reads its input by the same rule.

Counting uses half-open intervals (a, b]: each factor's roots in the
open interval are isolated as above, and b is tested by the factor's
sign.  Each root is a simple root of one factor s_m, so it is counted
once, which is what makes the count "distinct roots".
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import cache
from itertools import zip_longest

import numpy as np

from .limits import ResourceLimit
from .poly import (
    COMPLEX,
    RATIONAL,
    Poly,
    RootSet,
    _exact_residual,
    _int_eval,
    _over_lcm,
    _q_powers,
    convolve,
    eval_horner,
    float_coeffs,
)


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

# the float contract: a candidate's coefficient i may lie this share of
# |P|_i from the reading, and a merged cluster must be tight to it
# (_cluster_factor); 1e-11 leaves more float products with a wrong root
# count, and 1e-9 lets pairs 3e-5 apart merge
_MERGE_TOL = Fraction(1e-10)
# the clustering radii, relative to max(1, |z|), widest (most merged) first
_RADII = tuple(10.0 ** -k for k in range(1, 9))


def _capped(coeffs: list) -> list:
    """coeffs, or ResourceLimit when their degree is above ORACLE_DEGREE_CAP."""
    if len(coeffs) - 1 > ORACLE_DEGREE_CAP:
        raise ResourceLimit(f"degree {len(coeffs) - 1} exceeds the oracle's cap {ORACLE_DEGREE_CAP}")
    return coeffs


def _real_reading(p: Poly) -> tuple[list[Fraction], dict[int, list[int]]]:
    """p's exact coefficients and the square_free_split p is answered by:
    the reading's, or for a square-free float reading of degree 2 or more
    that of its _structured_reading.

    Raises ResourceLimit above ORACLE_DEGREE_CAP, and else ValueError when
    a coefficient or the root bound lies past the float range.
    """
    coeffs, from_float = _as_real_coeffs(p)
    _cauchy_bound(_capped(coeffs))
    split = square_free_split(coeffs)
    if from_float and list(split) == [1] and len(coeffs) > 2:
        if (structured := _structured_reading(coeffs)) is not coeffs:
            split = square_free_split(structured)
    return coeffs, split


def _structured_reading(coeffs: list[Fraction]) -> list[Fraction]:
    """The most merged exact c * prod f_i^m_i within the float contract of
    the square-free float reading coeffs (low first, degree 2 or more).

    The companion eigenvalues are joined into single-linkage clusters at
    each radius of _RADII.  A cluster of m values reads as one root of
    multiplicity m only when it is tight (_cluster_factor); at each radius
    the partition takes the tight clusters there and, inside the others,
    the partition of the next narrower radius.  Widest first, each
    partition with a cluster proposes a candidate: the reading's lead times
    f^m for each cluster's exact factor f.  The first candidate of the
    reading's degree whose every coefficient lies within _MERGE_TOL * |P|_i
    of the reading is returned, |P| being the same product over the
    magnitudes of each factor's coefficients; with none, the reading
    itself.
    """
    with np.errstate(all="ignore"):
        z = np.roots([float(c) for c in reversed(coeffs)])
        gaps = np.abs(z[:, None] - z) / np.maximum(1.0, np.maximum.outer(np.abs(z), np.abs(z)))
    a = _integer(coeffs)
    factor = cache(lambda c: _cluster_factor(a, z[list(c)]))  # a cluster's factor, or None
    partition, partitions = [(i,) for i in range(len(z))], []
    for radius in reversed(_RADII):  # each partition coarsens the one before
        if np.count_nonzero(gaps <= radius) == len(z):  # no two values are joined
            continue
        tight = [c for c in map(tuple, _linkage(gaps <= radius)) if len(c) > 1 and factor(c) is not None]
        partition = sorted(tight + [c for c in partition if not any(c[0] in t for t in tight)])
        partitions.append(partition)
    for clusters in dict.fromkeys(map(tuple, reversed(partitions))):  # widest first, each once
        factors = [factor(c) for c in clusters]
        if len(clusters) == len(z) or None in factors:  # no cluster, or a value past the float range or NaN
            continue
        product, size = [coeffs[-1]], [abs(coeffs[-1])]
        for f, c in zip(factors, clusters):
            for _ in c:
                product, size = convolve(product, f, 0), convolve(size, [abs(v) for v in f], 0)
        if len(product) == len(coeffs) and all(
                abs(p - c) <= _MERGE_TOL * s for p, s, c in zip(product, size, coeffs)):
            return product
    return coeffs


def _linkage(near: np.ndarray) -> list[list[int]]:
    """The single-linkage clusters of the symmetric adjacency matrix near,
    as index lists."""
    clusters = []
    for i, row in enumerate(near.tolist()):
        linked = [c for c in clusters if any(row[j] for j in c)]
        clusters = [c for c in clusters if c not in linked] + [sum(linked, []) + [i]]
    return clusters


def _cluster_factor(a: list[int], w: np.ndarray) -> list | None:
    """The exact factor f of which the m companion eigenvalues w of the
    integer polynomial a read as m roots, or None for a value past the
    float range, for NaN, or for a cluster (m > 1) that is not tight.  For
    their root r, f is x - r on the real line (when w reaches it),
    x^2 - 2 Re(r) x + |r|^2 above it, and 1 below it: the conjugate
    cluster above holds it.

    r is their mean, on the real line when w reaches it, after Newton's
    method on the (m-1)th derivative of a, where a root of multiplicity m
    is simple: at most 30 steps, each evaluated exactly at r and rounded
    once, until a step no longer moves r.  The cluster is tight when a's
    Taylor coefficients T_j at r are those of one root of multiplicity m
    within the float contract: |T_j / T_m| <= _MERGE_TOL * C(m, j) *
    |r|^(m-j) for every j < m.  So the reading's own roots decide, not
    the less accurate eigenvalues, and two of them further apart than
    2 * sqrt(_MERGE_TOL) * |r| stay two roots whatever the other roots do
    to |P|.
    """
    m, mean = len(w), complex(w.mean())
    r = mean.real if w.imag.min() <= 0 else mean
    taylor = [[math.comb(i, j) * c for i, c in enumerate(a)][j:] for j in range(m + 1)]  # a^(j) / j!
    try:
        for _ in range(30):
            xr, xi, q = _gauss_point(r)
            (fr, fi), (gr, gi) = _gauss_eval(taylor[m - 1], xr, xi, q), _gauss_eval(taylor[m], xr, xi, q)
            den = m * q * (gr * gr + gi * gi)
            step = complex((fr * gr + fi * gi) / den, (fi * gr - fr * gi) / den) if den else 0j
            if r - step == r:
                break
            r -= step
        xr, xi, q = _gauss_point(r)
    except (OverflowError, ValueError):
        return None
    norm = [re * re + im * im for re, im in (_gauss_eval(t, xr, xi, q) for t in taylor)]
    if m > 1 and any(norm[j] > _MERGE_TOL ** 2 * math.comb(m, j) ** 2 * (xr * xr + xi * xi) ** (m - j) * norm[m]
                     for j in range(m)):
        return None
    real, below = w.imag.min() <= 0, w.imag.max() < 0
    return [1] if below else list(map(Fraction, [-r.real, 1] if real else [r.real ** 2 + r.imag ** 2, -2 * r.real, 1]))


def _gauss_point(x: complex) -> tuple[int, int, int]:
    """(xr, xi, q) with x = (xr + xi i) / q exactly, q a power of two."""
    (re, re_q), (im, im_q) = x.real.as_integer_ratio(), x.imag.as_integer_ratio()
    q = max(re_q, im_q)
    return re * (q // re_q), im * (q // im_q), q


def _gauss_eval(coeffs: list[int], xr: int, xi: int, q: int) -> tuple[int, int]:
    """q^d * P((xr + xi i) / q) for d = len(coeffs) - 1, as the integer
    pair (real part, imaginary part)."""
    re = im = 0
    for c, qk in zip(reversed(coeffs), _q_powers(q, len(coeffs) - 1)):
        re, im = re * xr - im * xi + c * qk, re * xi + im * xr
    return re, im


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
    return _primitive(_over_lcm(coeffs)[0])


def _int_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """|lead(b)|^k times the remainder of a by b, for some k: integers only.

    The factor is positive, so every sign of the remainder is kept.  Zero
    leading terms are dropped.
    """
    a = list(a)
    lead, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    while len(a) >= len(b):
        top, shift = sign * a[-1], len(a) - len(b)
        a = [c * lead for c in a]
        for i, bc in enumerate(b):
            a[shift + i] -= top * bc
        a.pop()  # leading term cancels by construction
        while a and not a[-1]:
            a.pop()
    return a


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """The primitive gcd of two integer polynomials, b possibly zero."""
    while b:
        a, b = b, _int_pseudo_rem(a, b)
        b = b and _primitive(b)
    return _primitive(a)


def _int_quo(a: list[int], b: list[int]) -> list[int]:
    """The quotient of a by a primitive b that divides it; by Gauss's
    lemma the quotient has integer coefficients, so every step of the long
    division divides exactly."""
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


def _shift(a: list[int], k: int) -> list[int]:
    """a(x + k), low first: the Taylor shift by k, by repeated synthetic
    division in integers."""
    a = list(a)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += k * a[j + 1]
    return a


def _variations(a: list[int]) -> int:
    """The sign changes of (x+1)^d a(1/(x+1)), d = deg a: by Descartes'
    rule of signs the number of roots of a in the open interval (0, 1), or
    more by an even number.  A root at 0 or 1 is not counted."""
    signs = [c > 0 for c in _shift(a[::-1], 1) if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _bound(s: list[int]) -> int:
    """An integer above the magnitude of every root of s (of degree at
    least 1, with a positive lead): the Cauchy bound, rounded up past it."""
    return max(map(abs, s[:-1])) // s[-1] + 2


def _isolate(s: list[int], lo: int, hi: int, den: int) -> list[tuple[int, int, int]]:
    """The roots of s, a square-free integer polynomial of degree at least
    1, in the open interval (lo/den, hi/den), lo < hi and den > 0,
    ascending: a bracket (a, b, q) holds one root in (a/q, b/q] and s
    vanishes at neither end, and (a, a, q) is the root a/q exactly.

    Descartes bisection (Collins & Akritas 1976): a piece (a/q, b/q)
    carries f(x) = c * s(a/q + x (b - a)/q) for some c > 0, an integer
    polynomial whose roots in (0, 1) are those of s in the piece.  A piece
    whose f shows no sign change (_variations) holds no root; one that
    shows one holds one, and is a bracket unless s vanishes at an end.
    Any other piece is halved: 2^d f(x/2) carries the left half and its
    shift by 1 the right half, whose constant term, 2^d f(1/2), is 0
    exactly when the midpoint is a root.  So a piece with a root at an end
    is halved again until its root is off the ends, and every bracket
    meets _pin_root's preconditions.
    """
    d = len(s) - 1
    f = _shift([c * den ** (d - i) for i, c in enumerate(s)], lo)  # den^d s((lo + x) / den)
    out, stack = [], [([c * (hi - lo) ** i for i, c in enumerate(f)], lo, hi, den)]
    while stack:  # the left half comes off first, then the midpoint, then the right half
        f, lo, hi, den = stack.pop()
        if not f:  # a midpoint that is a root
            out.append((lo, hi, den))
            continue
        v = _variations(f)
        if v == 1 and f[0] and sum(f):  # f(0) and f(1) are not 0
            out.append((lo, hi, den))
        elif v:
            left = [c << (d - i) for i, c in enumerate(f)]
            right, mid = _shift(left, 1), lo + hi
            stack += [(right, mid, 2 * hi, 2 * den)] + [([], mid, mid, 2 * den)] * (not right[0])
            stack.append((left, 2 * lo, mid, 2 * den))
    return out


def count_real_roots_in(p: Poly, lo, hi) -> int:
    """Distinct real roots of p in the half-open interval (lo, hi]; none
    when lo >= hi.

    p is read as oracle_real_roots reads it (_real_reading) and counted
    factor by factor on that square_free_split, so it counts exactly the
    roots the oracle returns: each factor s's roots in the open interval
    (max(lo, -B), min(hi, B)), B = _bound(s), by _isolate, and one more
    when s vanishes at its upper end.  Raises what the oracle raises
    (_real_reading), and ValueError for a NaN end.
    """
    for name, x in (("lo", lo), ("hi", hi)):
        if x != x:
            raise ValueError(f"count_real_roots_in: {name} is NaN")
    _, split = _real_reading(p)
    count = 0
    for s in split.values():
        a, b = max(lo, -_bound(s)), min(hi, _bound(s))
        if a < b:
            (an, ad), (bn, bd) = Fraction(a).as_integer_ratio(), Fraction(b).as_integer_ratio()
            count += len(_isolate(s, an * bd, bn * ad, ad * bd)) + (not _sign_at(s, bn, bd))
    return count


def root_bound(p: Poly) -> float:
    """Cauchy bound: every root has magnitude below 1 + max|a_i| / |a_d|.

    That sum in floats can round below the bound; then the float above
    the one nearest the bound is returned, so the float is a bound too
    (inf for a bound above the largest float).
    """
    coeffs = _as_real_coeffs(p)[0]
    bound, exact = _cauchy_bound(coeffs), 1 + max(map(abs, coeffs[:-1]), default=0) / abs(coeffs[-1])
    return bound if bound >= exact else math.nextafter(float(min(exact, sys.float_info.max)), math.inf)


def _cauchy_bound(coeffs: list[Fraction]) -> float:
    try:
        rest = max((float(abs(c)) for c in coeffs[:-1]), default=0.0)
        bound = 1.0 + rest / float(abs(coeffs[-1]))
    except (OverflowError, ZeroDivisionError):  # a coefficient above or a lead below the range
        bound = math.inf
    if bound == math.inf:
        raise ValueError("a coefficient or the root bound lies past the float range")
    return bound


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


def oracle_real_roots(p: Poly) -> RootSet:
    """All distinct real roots with multiplicities, ascending, deterministic.

    p is read by _real_reading: exact input, and a float reading with a
    repeated factor, as itself, and a square-free float reading of
    degree 2 or more by the float contract (_structured_reading).  The
    roots of each factor s_m of its square_free_split are isolated on
    (-B, B), B = _bound(s_m), by _isolate and have multiplicity m, and
    each is reported as the float nearest it (_pin_root).  The residual is
    |p(value)| in p's own arithmetic.  Raises ValueError when a
    coefficient or the root bound lies past the float range, and
    ResourceLimit above ORACLE_DEGREE_CAP.
    """
    coeffs, split = _real_reading(p)
    cleared = _over_lcm(coeffs) if p.kind == RATIONAL else None
    roots = []
    for m, s in split.items():
        for a, b, den in _isolate(s, -_bound(s), _bound(s), 1):
            num, q = (a, den) if a == b else _pin_root(s, a, b, den, False)
            value = num / q
            residual = (_exact_residual(*cleared, *value.as_integer_ratio()) if cleared
                        else abs(eval_horner(p, value)))
            roots.append((value, m, residual))
    roots.sort()
    return RootSet(tuple(roots))


def is_nicely_factored(p: Poly) -> bool:
    """True iff p splits into linear factors over its working field.

    Complex kind: always true for nonzero p (fundamental theorem).
    Rational kind: exactly when _isolate finds deg s_m real roots for each
    factor s_m of square_free_split, and every one of them is rational: an
    exact hit, or a bracket in which _pin_root decides so.  Raises
    ResourceLimit above ORACLE_DEGREE_CAP.
    """
    if p.is_zero():
        return False
    if p.kind == COMPLEX:
        return True
    for s in square_free_split(_capped(list(p.coeffs))).values():
        roots = _isolate(s, -_bound(s), _bound(s), 1)
        if len(roots) < len(s) - 1 or any(a != b and _pin_root(s, a, b, den, True) is None
                                          for a, b, den in roots):
            return False
    return True
