"""Independent real-root oracle: Sturm chains plus bisection.

This module deliberately shares no machinery with the Vieta-system solver
beyond the Poly container; it is the second route in every dual-route root
check.  Rational-kind input runs the whole chain in exact arithmetic: the
chain is built in Fractions, each element is scaled by the lcm of its
denominators to integer coefficients, and signs at a rational point p/q are
read off homogeneous Horner sums in integers alone.  Counting uses
half-open intervals (a, b], so every root lands in exactly one side of a
split; multiple roots collapse the chain at gcd(p, p') and are still
counted once, which is what makes the count "distinct roots".
"""

from __future__ import annotations

import math
from fractions import Fraction

from .poly import (
    COMPLEX,
    RATIONAL,
    NotARoot,
    Poly,
    RootSet,
    eval_horner,
    max_norm,
    multiplicity,
)

BISECT_WIDTH = 1e-12


def _as_real_coeffs(p: Poly) -> tuple[list, bool]:
    """Low-first real coefficients; exact flag says Fractions were kept."""
    if p.is_zero():
        raise ValueError("the zero polynomial has no root set")
    if p.kind == RATIONAL:
        return list(p.coeffs), True
    out = []
    scale = float(max_norm(p))
    for c in p.coeffs:
        c = complex(c)
        if abs(c.imag) > 1e-12 * max(1.0, scale):
            raise ValueError("real-root oracle needs real coefficients")
        out.append(c.real)
    return out, False


_REM_DUST = 1e-11  # float chain elements are unit-scaled; smaller is roundoff


def _trim(coeffs: list, exact: bool) -> list:
    if exact:
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return coeffs
    while coeffs and abs(coeffs[-1]) <= _REM_DUST:
        coeffs.pop()
    return coeffs


def _unit_scale(coeffs: list) -> list:
    # positive rescaling preserves every sign in the chain
    top = max(abs(c) for c in coeffs)
    return coeffs if top == 0 else [c / top for c in coeffs]


def _poly_rem(a: list, b: list, exact: bool) -> list:
    """Remainder of a by b, low-first; float mode trims roundoff dust."""
    a = list(a)
    lead = b[-1]
    while len(a) >= len(b):
        factor = a[-1] / lead
        shift = len(a) - len(b)
        for i, bc in enumerate(b):
            a[shift + i] -= factor * bc
        a.pop()  # leading term cancels by construction
        a = _trim(a, exact)
        if not a:
            break
    return a


def _sturm_chain(coeffs: list, exact: bool) -> list[list]:
    first = list(coeffs) if exact else _unit_scale(list(coeffs))
    chain = [first]
    deriv = [i * c for i, c in enumerate(first)][1:]
    if deriv:
        chain.append(deriv if exact else _unit_scale(deriv))
    while len(chain[-1]) > 1:
        rem = _poly_rem(chain[-2], chain[-1], exact)
        if not rem:
            break
        if not exact:
            rem = _unit_scale(rem)
        chain.append([-c for c in rem])
    return chain


def _eval(coeffs: list, x):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def _variations(chain: list[list], x) -> int:
    signs = []
    for coeffs in chain:
        v = _eval(coeffs, x)
        if v > 0:
            signs.append(1)
        elif v < 0:
            signs.append(-1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _integer_chain(chain: list[list]) -> list[list[int]]:
    """Each exact chain element times the lcm of its denominators.

    The scale is positive, so every sign the chain takes is kept.
    """
    out = []
    for coeffs in chain:
        den = math.lcm(*(c.denominator for c in coeffs))
        out.append([c.numerator * (den // c.denominator) for c in coeffs])
    return out


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


def _int_variations(chain: list[list[int]], p: int, q: int) -> int:
    """_variations for an integer chain at p/q (q > 0), without Fractions.

    q = 0 with p = +-1 gives the count at +-infinity: there each
    element's homogeneous value is its leading coefficient times p^d.
    """
    q_pow = _q_powers(q, len(chain[0]) - 1)
    changes = 0
    last = 0
    for coeffs in chain:
        v = _int_eval(coeffs, p, q_pow)
        if v:
            if last and (v > 0) != (last > 0):
                changes += 1
            last = v
    return changes


def _degenerate_at(chain: list[list], x, exact: bool) -> bool:
    """True when x sits on a root of p itself.

    Every chain element is divisible by gcd(p, p'), so at a multiple root
    the whole chain vanishes and variation counts turn meaningless; even a
    simple-root hit makes the endpoint count ambiguous.  Counting points
    must dodge these.
    """
    if exact:
        return _int_eval(chain[0], x.numerator, _q_powers(x.denominator, len(chain[0]) - 1)) == 0
    v = _eval(chain[0], x)
    ax = max(1.0, abs(float(x)))
    scale = 0.0
    for c in reversed(chain[0]):
        scale = scale * ax + abs(c)
    return abs(v) <= 1e-9 * max(scale, 1e-300)


def _split_point(chain: list[list], a, b, exact: bool):
    """A counting point strictly inside (a, b), never on a root of p."""
    span = b - a
    for j in range(33):
        # offsets around the midpoint; more candidates than p has roots
        if exact:
            t = Fraction(1, 2) + Fraction((-1) ** j * ((j + 1) // 2), 1021)
        else:
            t = 0.5 + ((-1) ** j) * ((j + 1) // 2) / 1021.0
        x = a + span * t
        if not _degenerate_at(chain, x, exact):
            return x
    return a + span / 2  # give up; float callers tolerate junk counts


def count_real_roots_in(p: Poly, lo, hi) -> int:
    """Distinct real roots of p in the half-open interval (lo, hi]."""
    coeffs, exact = _as_real_coeffs(p)
    if len(coeffs) <= 1:
        return 0
    chain = _sturm_chain(coeffs, exact)
    if exact:
        chain = _integer_chain(chain)
        return _int_variations(chain, *_homogeneous(lo)) - _int_variations(chain, *_homogeneous(hi))
    return _variations(chain, lo) - _variations(chain, hi)


def _homogeneous(x) -> tuple[int, int]:
    """(p, q) with x = p/q exactly; an infinite x is (+-1, 0)."""
    if x in (math.inf, -math.inf):
        return (1 if x > 0 else -1), 0
    x = Fraction(x)
    return x.numerator, x.denominator


def root_bound(p: Poly) -> float:
    """Cauchy bound: every root has magnitude below 1 + max|a_i| / |a_d|."""
    coeffs, _ = _as_real_coeffs(p)
    lead = abs(coeffs[-1])
    rest = [abs(c) for c in coeffs[:-1]]
    return 1.0 + (float(max(rest)) / float(lead) if rest else 0.0)


def oracle_real_roots(p: Poly, refine_width: float = BISECT_WIDTH) -> RootSet:
    """All distinct real roots with multiplicities, ascending, deterministic.

    Sturm counting isolates each distinct root, count-driven bisection
    shrinks every bracket below refine_width (sign-based bisection would
    miss even-multiplicity roots), and repeated synthetic deflation
    recovers the multiplicity.
    """
    coeffs, exact = _as_real_coeffs(p)
    if len(coeffs) <= 1:
        return RootSet((), 0)
    chain = _sturm_chain(coeffs, exact)
    variations = _variations
    if exact:
        chain = _integer_chain(chain)

        def variations(chain, x):
            return _int_variations(chain, x.numerator, x.denominator)

    bound = root_bound(p)
    if exact:
        lo = Fraction(bound).limit_denominator(1) + 1
        lo, hi = -lo, lo
    else:
        lo, hi = -bound - 1.0, bound + 1.0

    # each entry carries the variation counts at its ends, so every point's
    # count is computed once; (a, b] holds v_a - v_b distinct roots
    intervals: list[tuple] = []
    stack = [(lo, hi, variations(chain, lo), variations(chain, hi))]
    while stack:
        a, b, va, vb = stack.pop()
        k = va - vb
        if k <= 0:
            continue
        # below float resolution a claimed multi-root cluster is one root
        if k == 1 or float(b - a) < 1e-10 * max(1.0, abs(float(a)), abs(float(b))):
            intervals.append((a, b, va))
            continue
        mid = _split_point(chain, a, b, exact)
        vm = variations(chain, mid)
        stack.append((a, mid, va, vm))
        stack.append((mid, b, vm, vb))
    intervals.sort(key=lambda iv: float(iv[0]))

    centers = []
    for a, b, va in intervals:
        while float(b - a) > refine_width:
            mid = _split_point(chain, a, b, exact)
            vm = variations(chain, mid)
            if va - vm >= 1:
                b = mid
            else:
                a, va = mid, vm
        centers.append(float((a + b) / 2))

    work = p if p.kind == COMPLEX else Poly(tuple(map(complex, p.coeffs)), COMPLEX)
    roots = []
    for i, r in enumerate(centers):
        # polishing may only move a center toward its own root, never past a
        # neighboring bracket's root
        gaps = [abs(r - other) for j, other in enumerate(centers) if j != i]
        max_shift = min(gaps) / 4 if gaps else 0.05 * max(1.0, abs(r))
        max_shift = max(max_shift, 1e-6 * max(1.0, abs(r)))
        near_int = abs(r - round(r)) <= 1e-9 * max(1.0, abs(r))
        if exact and near_int and eval_horner(p, Fraction(round(r))) == 0:
            mult = multiplicity(p, Fraction(round(r)))
            r = float(round(r))
            residual = 0.0
        else:
            r, mult = _refine_float_root(work, r, max_shift)
            try:
                mult = multiplicity(work, r, tol=1e-6)  # deflation at the polished point
            except NotARoot:
                pass  # isolation proved a root is here; keep the scan's answer
            residual = abs(eval_horner(work, r))
        roots.append((r, mult, residual))

    # noisy chains can hand two brackets the same root; keep one entry per root
    merged: list[tuple[float, int, float]] = []
    for r, m, res in roots:
        if merged and abs(r - merged[-1][0]) <= 1e-6 * max(1.0, abs(r)):
            keep = merged[-1] if merged[-1][2] <= res else (r, m, res)
            merged[-1] = keep
        else:
            merged.append((r, m, res))

    return RootSet(tuple(merged), len(merged))


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
