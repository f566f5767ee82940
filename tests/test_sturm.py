import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from tilelab import sturm
from tilelab import (
    REAL_MODE,
    ResourceLimit,
    complex_poly,
    count_real_roots_in,
    eval_horner,
    find_roots_report,
    mul,
    multiplicity,
    oracle_real_roots,
    parse_poly_text,
    poly,
    root_bound,
    zero,
)


def poly_from_roots(root_mults, kind_rational: bool):
    if kind_rational:
        p = poly([1])
        for r, m in root_mults:
            for _ in range(m):
                p = mul(p, poly([-Fraction(r), 1]))
    else:
        p = complex_poly([1])
        for r, m in root_mults:
            for _ in range(m):
                p = mul(p, complex_poly([-r, 1]))
    return p


def random_root_mults(rng, k, max_mult):
    roots = []
    while len(roots) < k:
        r = rng.uniform(-5, 5)
        if all(abs(r - s) > 0.35 for s, _ in roots):
            roots.append((r, rng.randint(1, max_mult)))
    return sorted(roots)


class TestKnownRootSets:
    def test_pi_cubic(self):
        p = parse_poly_text("pi/2, -pi^2, 0, 2")
        rs = oracle_real_roots(p)
        assert rs.count == 3
        want = (-2.2971089299, 0.1599847286, 2.1371242013)
        for (got, mult, residual), expect in zip(rs.roots, want):
            assert got == pytest.approx(expect, abs=1e-9)
            assert mult == 1
            assert residual < 1e-9
        for value, _, _ in rs.roots:
            assert abs(p(value)) < 1e-9

    def test_no_real_roots(self):
        rs = oracle_real_roots(poly([1, 0, 1]))
        assert rs.count == 0
        assert rs.roots == ()

    def test_double_plus_simple(self):
        p = mul(mul(poly([-1, 1]), poly([-1, 1])), poly([-2, 1]))
        rs = oracle_real_roots(p)
        assert [(round(v, 9), m) for v, m, _ in rs.roots] == [(1.0, 2), (2.0, 1)]

    def test_irrational_double_roots(self):
        p = mul(poly([-2, 0, 1]), poly([-2, 0, 1]))  # (x^2 - 2)^2
        rs = oracle_real_roots(p)
        assert rs.count == 2
        s = math.sqrt(2)
        assert rs.roots[0][0] == pytest.approx(-s, abs=1e-9)
        assert rs.roots[1][0] == pytest.approx(s, abs=1e-9)
        assert [m for _, m, _ in rs.roots] == [2, 2]

    def test_constant_and_linear(self):
        assert oracle_real_roots(poly([5])).count == 0
        rs = oracle_real_roots(poly([-3, 2]))  # 2x - 3
        assert rs.count == 1
        assert rs.roots[0][0] == pytest.approx(1.5)

    def test_root_at_zero(self):
        rs = oracle_real_roots(poly([0, 0, 1]))
        assert rs.count == 1
        assert rs.roots[0][:2] == (0.0, 2)


class TestValidation:
    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            oracle_real_roots(zero())

    def test_imaginary_coefficients_rejected(self):
        with pytest.raises(ValueError):
            oracle_real_roots(complex_poly([1j, 1]))

    def test_tiny_imaginary_dust_tolerated(self):
        rs = oracle_real_roots(complex_poly([-1 + 1e-15j, 1]))
        assert rs.count == 1

    @pytest.mark.parametrize("imag", [math.nan, math.inf, -math.inf])
    def test_non_finite_imaginary_parts_rejected(self, imag):
        # the oracle and the count read real coefficients by the finder's rule
        p = complex_poly([complex(-1, imag), 1])
        errors = []
        for route in (oracle_real_roots, lambda q: count_real_roots_in(q, -math.inf, math.inf),
                      lambda q: find_roots_report(q, REAL_MODE)):
            with pytest.raises(ValueError) as exc:
                route(p)
            errors.append(str(exc.value))
        assert len(set(errors)) == 1

    def test_degree_cap(self):
        cap = sturm.ORACLE_DEGREE_CAP
        over = poly([1] + [0] * cap + [1])  # x^37 + 1
        for p in (over, complex_poly([float(c) for c in over.coeffs])):
            with pytest.raises(ResourceLimit):
                oracle_real_roots(p)
            with pytest.raises(ResourceLimit):
                count_real_roots_in(p, -math.inf, math.inf)
        at_cap = poly([-1] + [0] * (cap - 1) + [1])  # x^36 - 1
        assert [(v, m) for v, m, _ in oracle_real_roots(at_cap).roots] == [(-1.0, 1), (1.0, 1)]
        assert count_real_roots_in(at_cap, -math.inf, math.inf) == 2

    @pytest.mark.parametrize("p", [
        complex_poly([0.0, 0.0, 1e300, 1e-10]),  # a float reading with a repeated factor
        complex_poly([1e300, 1e-10]),
        poly([-2 ** 2000, 1]),
        poly([0, 0, -2 ** 2000, 1]),
    ])
    def test_float_range(self, p):
        # the count reads p as the oracle does, so it refuses what the oracle refuses
        errors = []
        for route in (oracle_real_roots, lambda q: count_real_roots_in(q, -math.inf, math.inf)):
            with pytest.raises(ValueError, match="past the float range") as exc:
                route(p)
            errors.append(str(exc.value))
        assert len(set(errors)) == 1

    def test_roots_on_split_points_up_to_the_cap(self):
        # 36 roots on (0, 1): every midpoint of the first five halvings, so
        # every piece up to depth 5 has roots at its ends, and five more
        dyadic = [Fraction(k, 32) for k in range(1, 32)]
        roots = sorted(dyadic + [Fraction(1, 1021), Fraction(1, 7), Fraction(1, 5), Fraction(1, 3),
                                 Fraction(2, 3)])
        assert len(roots) == sturm.ORACLE_DEGREE_CAP
        p = poly_from_roots([(r, 1) for r in roots], True)
        found = sturm._isolate(sturm._integer(list(p.coeffs)), 0, 1, 1)
        assert {Fraction(a, q) for a, b, q in found if a == b} == set(dyadic)
        for a, b, q in found:
            if a != b:
                assert sum(Fraction(a, q) < r <= Fraction(b, q) for r in roots) == 1
                assert Fraction(a, q) not in roots and Fraction(b, q) not in roots
        assert len(found) == len(roots)
        assert [(v, m) for v, m, _ in oracle_real_roots(p).roots] == [(float(r), 1) for r in roots]
        assert count_real_roots_in(p, 0, 1) == len(roots)


class TestCounting:
    def test_half_open_intervals(self):
        p = poly_from_roots([(1, 1), (2, 1), (3, 1)], True)
        assert count_real_roots_in(p, 0, 4) == 3
        assert count_real_roots_in(p, 1, 3) == 2  # 1 excluded, 3 included
        assert count_real_roots_in(p, 0, 1) == 1
        assert count_real_roots_in(p, 3, 10) == 0

    def test_multiple_roots_counted_once(self):
        p = poly_from_roots([(1, 3)], True)
        assert count_real_roots_in(p, 0, 2) == 1

    def test_constant_has_no_roots(self):
        assert count_real_roots_in(poly([7]), -10, 10) == 0

    def test_empty_interval_and_nan_ends(self):
        p = poly([-1, 0, 1])
        assert count_real_roots_in(p, 2, -2) == 0
        assert count_real_roots_in(p, 1, 1) == 0
        assert count_real_roots_in(p, math.inf, -math.inf) == 0
        for lo, hi, name in ((math.nan, 1, "lo"), (-1, math.nan, "hi")):
            with pytest.raises(ValueError, match=f"{name} is NaN"):
                count_real_roots_in(p, lo, hi)

    def test_multiple_root_endpoint(self):
        third, half = Fraction(1, 3), Fraction(1, 2)
        p = poly_from_roots([(third, 2), (half, 1)], True)
        assert count_real_roots_in(p, 0, third) == 1
        assert count_real_roots_in(p, third, half) == 1

    @given(st.lists(st.tuples(st.fractions(-3, 3, max_denominator=4), st.integers(1, 3)),
                    min_size=1, max_size=4),
           st.lists(st.fractions(-4, 4, max_denominator=4), max_size=4))
    def test_counts_on_a_partition_add_up(self, root_mults, cuts):
        roots = {r for r, _ in root_mults}
        p = poly_from_roots(root_mults, True)
        # cut at some of the roots themselves as well as elsewhere
        points = [-math.inf] + sorted(set(cuts) | set(list(roots)[::2])) + [math.inf]
        counts = [count_real_roots_in(p, a, b) for a, b in zip(points, points[1:])]
        assert counts == [sum(1 for r in roots if a < r <= b)
                          for a, b in zip(points, points[1:])]
        assert sum(counts) == len(roots)


class TestRootBound:
    def test_cauchy_value(self):
        assert root_bound(poly([-6, 11, -6, 1])) == 12.0
        assert root_bound(poly([0, 0, 1])) == 1.0

    def test_bound_contains_all_roots(self):
        rng = random.Random(31)
        for _ in range(30):
            rm = random_root_mults(rng, rng.randint(1, 4), 2)
            p = poly_from_roots(rm, False)
            b = root_bound(p)
            assert all(abs(r) < b for r, _ in rm)

    def test_a_true_bound_where_the_float_sum_rounds_below_it(self):
        # 1 + 10^127 rounds to the float 1e127, which lies below the root 10^127
        p = poly([0, 10 ** 127, -1])
        assert Fraction(1e127) < 10 ** 127
        assert Fraction(root_bound(p)) > 10 ** 127 + 1
        assert root_bound(p) == math.nextafter(1e127, math.inf)
        # x + the largest float: no float lies above its bound
        assert root_bound(poly([Fraction(sys.float_info.max), 1])) == math.inf

    def test_bracket_wider_than_the_float_range(self):
        # the bound is finite, but the first bracket (-hi, hi] is not
        got = oracle_real_roots(complex_poly([1.0, 1e-308]))
        assert got.count == 1 and got.roots[0][0] == pytest.approx(-1e308)
        got = oracle_real_roots(complex_poly([0.0, -10.0, 9.915282147559008e-308]))
        assert [r for r, _, _ in got.roots] == [0.0, pytest.approx(10 / 9.915282147559008e-308)]

    def test_a_root_above_the_float_cauchy_bound(self):
        p = poly([0, 10 ** 127, -1])
        assert [(v, m) for v, m, _ in oracle_real_roots(p).roots] == [(0.0, 1), (1e127, 1)]
        assert count_real_roots_in(p, -math.inf, math.inf) == 2

    # float polynomials with exponents up to +-308 whose largest root lies
    # above the Cauchy bound summed in floats
    @pytest.mark.parametrize("draw", [83, 107, 124, 145, 173])
    def test_extreme_exponents_lose_no_root(self, draw):
        rng = random.Random(1)
        for _ in range(draw + 1):
            d = rng.randint(2, 6)
            p = complex_poly([rng.uniform(-9, 9) * 10.0 ** rng.randint(-308, 307) for _ in range(d + 1)])
        _, split = sturm._real_reading(p)
        want = sum(ref_count(ref_chain(list(map(Fraction, s))), -math.inf, math.inf) for s in split.values())
        assert oracle_real_roots(p).count == count_real_roots_in(p, -math.inf, math.inf) == want


class TestRandomizedRecovery:
    def test_float_kind_contract_class(self):
        rng = random.Random(101)
        for _ in range(60):
            rm = random_root_mults(rng, rng.randint(1, 4), 3)
            if sum(m for _, m in rm) > 6:
                continue
            p = poly_from_roots(rm, False)
            rs = oracle_real_roots(p)
            assert rs.count == len(rm)
            for (got, gm, _), (want, wm) in zip(rs.roots, rm):
                assert got == pytest.approx(want, abs=1e-6)
                assert gm == wm

    def test_rational_kind_contract_class(self):
        rng = random.Random(202)
        for _ in range(60):
            k = rng.randint(1, 4)
            roots = []
            while len(roots) < k:
                r = Fraction(rng.randint(-10, 10), rng.randint(1, 4))
                if all(abs(float(r - s)) > 0.3 for s, _ in roots):
                    roots.append((r, rng.randint(1, 3)))
            roots.sort()
            if sum(m for _, m in roots) > 6:
                continue
            p = poly_from_roots(roots, True)
            rs = oracle_real_roots(p)
            assert rs.count == len(roots)
            for (got, gm, _), (want, wm) in zip(rs.roots, roots):
                assert got == pytest.approx(float(want), abs=1e-9)
                assert gm == wm

    def test_simple_roots_float(self):
        rng = random.Random(303)
        for _ in range(100):
            rm = random_root_mults(rng, rng.randint(1, 5), 1)
            p = poly_from_roots(rm, False)
            rs = oracle_real_roots(p)
            assert rs.count == len(rm)
            for (got, gm, _), (want, _) in zip(rs.roots, rm):
                assert got == pytest.approx(want, abs=1e-7)
                assert gm == 1

    def test_ascending_and_deterministic(self):
        p = parse_poly_text("pi/2, -pi^2, 0, 2")
        a = oracle_real_roots(p)
        b = oracle_real_roots(p)
        assert a == b
        values = [v for v, _, _ in a.roots]
        assert values == sorted(values)


# ---------------------------------------------------------------------------
# the integer isolator and the oracle against Sturm chains, bisection and
# evaluation in Fractions


def ref_chain(coeffs):
    """The Sturm chain in Fractions."""

    def rem(a, b):
        a = list(a)
        while len(a) >= len(b):
            factor, shift = a[-1] / b[-1], len(a) - len(b)
            for i, bc in enumerate(b):
                a[shift + i] -= factor * bc
            a.pop()
            while a and not a[-1]:
                a.pop()
        return a

    chain = [list(coeffs)]
    chain.append([i * c for i, c in enumerate(chain[0])][1:])
    while len(chain[-1]) > 1:
        r = rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return chain


def ref_eval(coeffs, x):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def ref_variations(chain, x):
    signs = []
    for coeffs in chain:
        v = ref_eval(coeffs, x)
        if v > 0:
            signs.append(1)
        elif v < 0:
            signs.append(-1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def ref_count(chain, a, b):
    """The roots of chain[0], square-free, in (a, b] by Sturm's theorem;
    at +-infinity each element takes the sign of its lead times x^d."""

    def variations(x):
        if x in (math.inf, -math.inf):
            signs = [(c[-1] > 0) == (x > 0 or len(c) % 2 == 1) for c in chain]
            return sum(s != t for s, t in zip(signs, signs[1:]))
        return ref_variations(chain, x)

    return variations(a) - variations(b)


def check_isolation(s, lo, hi, den):
    """_isolate on the factor s and (lo/den, hi/den) against its Fraction
    Sturm chain: integers only, ascending, each bracket holding one root
    with no root at either end, each exact hit a root, and as many of them
    as roots in the open interval.  Returns the brackets."""
    chain = ref_chain(list(map(Fraction, s)))
    found = sturm._isolate(s, lo, hi, den)
    assert all(type(x) is int for bracket in found for x in bracket)
    ends = [(Fraction(a, q), Fraction(b, q)) for a, b, q in found]
    for a, b in ends:
        if a == b:
            assert ref_eval(chain[0], a) == 0
        else:
            assert ref_count(chain, a, b) == 1
            assert ref_eval(chain[0], a) != 0 and ref_eval(chain[0], b) != 0
    assert all(b <= c for (_, b), (c, _) in zip(ends, ends[1:]))
    lo, hi = Fraction(lo, den), Fraction(hi, den)
    assert all(lo <= a and b <= hi for a, b in ends)
    assert len(found) == ref_count(chain, lo, hi) - (ref_eval(chain[0], hi) == 0)
    return found


def check_every_root(s):
    """check_isolation on (-B, B), B = sturm._bound(s): it finds as many
    roots as the Sturm count on (-inf, inf)."""
    found = check_isolation(s, -sturm._bound(s), sturm._bound(s), 1)
    assert len(found) == ref_count(ref_chain(list(map(Fraction, s))), -math.inf, math.inf)


def ref_pin(s, a, b):
    """The float nearest the one root of s in (a, b], by Fraction bisection
    on the sign of s at the upper end."""
    sign_b = ref_eval(s, b) > 0
    while ref_eval(s, b) and float(a) != float(b):
        mid = (a + b) / 2
        if ref_eval(s, mid) == 0 or (ref_eval(s, mid) > 0) == sign_b:
            b = mid
        else:
            a = mid
    return float(b)


def ref_oracle(p):
    """oracle_real_roots on the same square-free split, in Fractions alone:
    roots isolated by halving with each factor's Sturm chain, pinned by
    ref_pin, and the exact residual by the Fraction evaluator."""
    coeffs, split = sturm._real_reading(p)
    roots = []
    for m, s in split.items():
        s = list(map(Fraction, s))
        chain, bound = ref_chain(s), 1 + max(abs(c) for c in s[:-1]) / s[-1]
        stack = [(-bound, bound)]
        while stack:
            a, b = stack.pop()
            n = ref_count(chain, a, b)
            if n == 1:
                value = ref_pin(s, a, b)
                residual = (float(abs(ref_eval(coeffs, Fraction(value)))) if p.kind == "rational"
                            else abs(eval_horner(p, value)))
                roots.append((value, m, residual))
            elif n > 1:
                stack += [(a, (a + b) / 2), ((a + b) / 2, b)]
    return tuple(sorted(roots))


# float spellings whose readings are square-free: simple roots, and pi as
# a double and a triple root
PI_PINS = ("pi/2,-pi^2,0,2", "pi^2,-2*pi,1", "-pi^3,3*pi^2,-3*pi,1")


CORPUS_VALUES = sorted({Fraction(p, q) for q in (1, 2, 3) for p in range(-3 * q, 3 * q + 1)})


def corpus_poly(rng, degree):
    """Rational roots with multiplicities, degree 4-14, and now and then an
    irrational pair from x^2 - 2 or x^2 - 3."""
    k = rng.randint(max(3, math.ceil(degree / 4)), min(degree, 8))
    mults = [1] * k
    for _ in range(degree - k):
        mults[rng.choice([j for j in range(k) if mults[j] < 4])] += 1
    roots = list(zip(sorted(rng.sample(CORPUS_VALUES, k)), mults))
    p = poly_from_roots(roots, True)
    if rng.random() < 0.3:
        p = mul(p, poly([-rng.choice((2, 3)), 0, 1]))
    return p, [r for r, _ in roots]


class TestIntegerChain:
    def test_variations_match_fraction_evaluator(self):
        # each factor of a corpus polynomial, on (-B, B) and on intervals
        # whose ends are roots, points between roots and random points
        rng = random.Random(4141)
        on_root = 0
        for i in range(60):
            p, roots = corpus_poly(rng, 4 + i % 11)
            points = list(roots) + [(a + b) / 2 for a, b in zip(roots, roots[1:])]
            points += [Fraction(rng.randint(-400, 400), rng.randint(1, 60)) for _ in range(12)]
            for s in sturm.square_free_split(list(p.coeffs)).values():
                check_every_root(s)
                for x in points:
                    sign = (ref_eval(s, x) > 0) - (ref_eval(s, x) < 0)
                    assert sturm._sign_at(s, x.numerator, x.denominator) == sign
                for a, b in itertools.combinations(sorted(set(points)), 2):
                    if rng.random() < 0.1:
                        den = a.denominator * b.denominator
                        check_isolation(s, a.numerator * b.denominator, b.numerator * a.denominator, den)
                        on_root += ref_eval(s, a) == 0 or ref_eval(s, b) == 0
        assert on_root > 50  # the sample does reach intervals with a root at an end

    def test_float_readings_match_fraction_sturm_counts(self):
        rng = random.Random(4242)
        exact = [corpus_poly(rng, 4 + i % 11)[0] for i in range(10)]
        exact += [mul(p, poly([1, 1, 1])) for p in exact]  # with a pair of complex roots
        # sparse ones, with complex roots near the real line
        exact += [poly([0, 1, 0, 1]), poly([-1, 1, 0, 0, 1]), poly([0, 0, -3, 0, 1, 0, 1])]
        # the exact readings of float spellings, whose integers are long
        floats = [parse_poly_text(t) for t in PI_PINS]
        rng5 = random.Random(5)
        floats += [poly_from_roots(random_root_mults(rng5, rng5.randint(1, 5), 4), False)
                   for _ in range(12)]
        floats += [complex_poly([rng.uniform(-3, 3) for _ in range(rng.randint(3, 9))] + [1.0])
                   for _ in range(12)]
        for p in exact + floats:
            for s in sturm._real_reading(p)[1].values():
                check_every_root(s)

    def test_oracle_matches_fraction_reference(self):
        rng = random.Random(5252)
        polys = [corpus_poly(rng, 4 + i % 11)[0] for i in range(22)]
        splits = [p.degree == 4 + i % 11 for i, p in enumerate(polys)]  # no factor x^2 - 2 or x^2 - 3
        # float spellings read by the float contract: the pi pins and
        # products of well-separated float roots
        polys += [parse_poly_text(t) for t in PI_PINS]
        rng = random.Random(5)
        products = [poly_from_roots(random_root_mults(rng, rng.randint(1, 4), 3), False)
                    for _ in range(12)]
        polys += [p for p in products if not on_split_path(p)]
        assert sum(not on_split_path(p) for p in polys) >= 12
        got = [oracle_real_roots(p) for p in polys]
        for p, rs in zip(polys[22:], got[22:]):
            # the count reads a float spelling as the oracle does
            for lo, hi in [(-3.5, 0.25), (Fraction(1, 3), math.pi), (-5, 5)]:
                want = sum(lo < value <= hi for value, _, _ in rs.roots)
                assert count_real_roots_in(p, lo, hi) == want
        assert [rs.roots for rs in got] == [ref_oracle(p) for p in polys]
        assert [sturm.is_nicely_factored(p) for p in polys[:22]] == splits
        assert True in splits and False in splits

    def test_float_endpoint_is_counted_exactly(self):
        p = poly([-1, 3])  # root 1/3
        assert count_real_roots_in(p, 0, Fraction(1, 3)) == 1
        # the float 1/3 lies just below the root; rounded, 3 * (1/3) was 1
        assert Fraction(1 / 3) < Fraction(1, 3)
        assert count_real_roots_in(p, 0, 1 / 3) == 0

    def test_infinite_endpoints(self):
        inf = math.inf
        p = poly_from_roots([(-2, 1), (Fraction(1, 2), 2), (3, 1)], True)
        assert count_real_roots_in(p, -inf, inf) == 3
        assert count_real_roots_in(p, 0, inf) == 2
        assert count_real_roots_in(p, -inf, 0) == 1
        assert count_real_roots_in(mul(p, poly([0, -1])), -inf, inf) == 4  # negative lead
        assert count_real_roots_in(poly([1, 0, 1]), -inf, inf) == 0


# ---------------------------------------------------------------------------
# float coefficients are read as the simplest rational that rounds to them


class TestReadFloat:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(2.0 ** 53 + 2)  # both ends of its interval round to an even neighbour
    @example(sys.float_info.max)  # its upper neighbour is infinity
    @example(5e-324)
    @example(0.1)
    @example(-0.0)
    def test_simplest_rational_that_rounds_back(self, x):
        r = sturm._read_float(x)
        assert float(r) == x
        # the nearest p/q below and above x: if any p/q rounds to x, one of
        # these does, as the values that round to x form an interval
        for q in range(1, min(r.denominator, 1000)):
            p = math.floor(Fraction(x) * q)
            assert float(Fraction(p, q)) != x
            assert float(Fraction(p + 1, q)) != x

    def test_pi_reading(self):
        assert sturm._read_float(math.pi) == Fraction(245850922, 78256779)

    @pytest.mark.parametrize("x", [sys.float_info.max, 5e-324, sys.float_info.min, 1.0, 2.0 ** -60,
                                   2.0 ** 600, 2.0 ** 53 + 2, math.pi])
    def test_reading_matches_the_fraction_formula(self, x):
        # at a power of two the gap below is half the gap above
        v, below, above = Fraction(x), Fraction(math.nextafter(x, 0.0)), math.nextafter(x, math.inf)
        lo = (below + v) / 2
        hi = (v + Fraction(above)) / 2 if above < math.inf else v + (v - below) / 2
        r = Fraction(*sturm._simplest_rational(lo.numerator * hi.denominator,
                                               hi.numerator * lo.denominator,
                                               lo.denominator * hi.denominator, float(lo) == x))
        assert sturm._read_float(x) == r
        assert sturm._read_float(-x) == -r

    def test_simplest_rational_in_brackets(self):
        rng = random.Random(99)
        for _ in range(300):
            a = Fraction(rng.randint(-300, 300), rng.randint(1, 40))
            b = a + Fraction(rng.randint(1, 50), rng.randint(1, 400))
            den = math.lcm(a.denominator, b.denominator)
            for closed in (False, True):
                r = Fraction(*sturm._simplest_rational(int(a * den), int(b * den), den, closed))

                def inside(x):
                    return a <= x <= b if closed else a < x < b

                assert inside(r)
                # nothing inside has a smaller denominator, or the same one
                # and a smaller magnitude
                for q in range(1, r.denominator + 1):
                    for num in range(math.floor(a * q), math.ceil(b * q) + 1):
                        x = Fraction(num, q)
                        if inside(x):
                            assert (x.denominator, abs(x)) >= (r.denominator, abs(r))


class TestPinRoot:
    @pytest.mark.parametrize("decide", [False, True])
    def test_a_midpoint_on_the_root_is_returned_exactly(self, decide):
        # 2x - 1 on (-1, 2]: the snap tries 0, then the midpoint 1/2 is the root
        assert Fraction(*sturm._pin_root([-1, 2], -1, 2, 1, decide)) == Fraction(1, 2)

    def test_snap_goes_on_until_the_bracket_is_narrower_than_one_over_the_lead_squared(self):
        # 5x - 2 on (3/10, 9/20]: the simplest rational 1/3 misses, and the
        # bracket, narrower than 1/5 but not than 1/25, may still hold 2/5
        assert sturm._pin_root([-2, 5], 6, 9, 20, True) == (2, 5)

    def test_irrational_root(self):
        s = [-2, 0, 1]  # x^2 - 2 on (1, 2]
        assert sturm._pin_root(s, 1, 2, 1, True) is None
        num, q = sturm._pin_root(s, 1, 2, 1, False)
        assert is_nearest_float(poly(s), num / q)

    def test_a_root_at_the_lower_end_raises(self):
        # (1/2, 1]: the sign at the lower end is 0, so there is nothing to bisect by
        with pytest.raises(RuntimeError, match="lower end"):
            sturm._pin_root([-1, 2], 1, 2, 2, False)

    def test_brackets_are_integers_over_one_denominator(self):
        p = mul(poly([-2, 0, 1]), poly_from_roots([(Fraction(1, 3), 1), (5, 1)], True))
        found = check_isolation(sturm.square_free_split(list(p.coeffs))[1], -8, 8, 1)
        ends = [(Fraction(a, den), Fraction(b, den)) for a, b, den in found]
        assert len(ends) == 4
        for (a, b), root in zip(ends, (-math.sqrt(2), Fraction(1, 3), math.sqrt(2), 5)):
            assert a < root <= b or a == root == b

    @pytest.mark.parametrize("spell", [lambda p: p, lambda p: complex_poly([float(c) for c in p.coeffs])],
                             ids=["exact", "float"])
    def test_roots_on_the_first_midpoints(self, spell):
        # x (x - 1/1000) (x + 1/1000): the bound is 2, so the first midpoint
        # 0 is a root and lies at the lower end of every piece holding 1/1000
        exact = poly_from_roots([(Fraction(-1, 1000), 1), (0, 1), (Fraction(1, 1000), 1)], True)
        p = spell(exact)
        s = sturm._real_reading(p)[1][1]
        assert sturm._bound(s) == 2
        found = check_isolation(s, -2, 2, 1)
        assert (0, 0, 2) in found
        assert [(v, m) for v, m, _ in oracle_real_roots(p).roots] == [(-0.001, 1), (0.0, 1), (0.001, 1)]
        assert sturm.is_nicely_factored(exact)
        assert count_real_roots_in(p, 0, 1) == 1  # lo on a root
        assert count_real_roots_in(p, Fraction(-1, 1000), 0) == 1
        assert count_real_roots_in(p, -math.inf, 0) == 2
        assert count_real_roots_in(p, 0, Fraction(1, 1000)) == 1
        assert count_real_roots_in(p, Fraction(1, 1000), math.inf) == 0


class TestFloatSpelling:
    def test_float_spelling_matches_exact_spelling(self):
        rng = random.Random(6161)
        for i in range(66):
            p, _ = corpus_poly(rng, 4 + i % 11)
            exact = oracle_real_roots(p)
            spelled = oracle_real_roots(complex_poly([float(c) for c in p.coeffs]))
            assert spelled.count == exact.count
            assert [m for _, m, _ in spelled.roots] == [m for _, m, _ in exact.roots]
            for (got, _, _), (want, _, _) in zip(spelled.roots, exact.roots):
                assert got == pytest.approx(want, rel=1e-6, abs=1e-6)

    def test_clustered_quadruple_roots_keep_their_multiplicity(self):
        # defect (d) of perfbench/README.md: three quadruple roots 1/3 apart
        p = poly_from_roots([(-2, 4), (Fraction(-5, 3), 4), (Fraction(-4, 3), 4)], True)
        rs = oracle_real_roots(p)
        assert [m for _, m, _ in rs.roots] == [4, 4, 4]
        for (got, _, _), want in zip(rs.roots, (-2, -5 / 3, -4 / 3)):
            assert got == pytest.approx(want, abs=1e-4)

    def test_float_spelling_keeps_a_simple_root_simple(self):
        # the simple root -1 sits 1/3 from a double and a quadruple root
        want = [(-2, 2), (Fraction(-5, 3), 2), (Fraction(-4, 3), 3), (-1, 1),
                (Fraction(-2, 3), 4), (Fraction(7, 3), 2)]
        exact = poly_from_roots(want, True)
        rs = oracle_real_roots(complex_poly([float(c) for c in exact.coeffs]))
        assert [m for _, m, _ in rs.roots] == [m for _, m in want]
        for (got, _, _), (r, _) in zip(rs.roots, want):
            assert got == pytest.approx(float(r), abs=1e-4)

    def test_refined_roots_of_one_cluster_are_merged(self):
        # the reading splits the double root into two simple roots about
        # 1e-8 apart; the float contract merges them
        want = [(3.9157058820507142, 2), (4.27707208428134, 1), (4.986464536534012, 3)]
        rs = oracle_real_roots(poly_from_roots(want, False))
        assert [m for _, m, _ in rs.roots] == [2, 1, 3]
        for (got, _, _), (r, _) in zip(rs.roots, want):
            assert got == pytest.approx(r, abs=1e-9)

    def test_coefficients_past_the_float_range(self):
        for p in (poly([2 ** 2000, 1]), poly([1, Fraction(1, 2 ** 2000)]),
                  complex_poly([float("inf"), 1])):
            with pytest.raises(ValueError):
                oracle_real_roots(p)


# ---------------------------------------------------------------------------
# the square-free split: every exact input, and every float input whose exact
# reading has a repeated factor, is answered factor by factor, and each root
# comes back as the float nearest it


def spellings(roots):
    exact = poly_from_roots(roots, True)
    return exact, complex_poly([float(c) for c in exact.coeffs])


def on_split_path(p) -> bool:
    coeffs, from_float = sturm._as_real_coeffs(p)
    return not from_float or list(sturm.square_free_split(coeffs)) != [1]


def is_nearest_float(p, value) -> bool:
    """True when p changes sign across the rounding interval of value, so
    that the simple root inside rounds to value."""
    half_ulp = Fraction(math.ulp(value)) / 2
    lo, hi = (eval_horner(p, Fraction(value) + d) for d in (-half_ulp, half_ulp))
    return (lo < 0) != (hi < 0)


# the 11 draws of perfbench's claims corpus (_claims_corpus_roots, seeds 11-13,
# 300 draws each) whose roots came back up to 0.035 off in both spellings
CORPUS_MISSES = [
    [(-3, 4), (Fraction(-8, 3), 2), (Fraction(-7, 3), 4), (Fraction(-4, 3), 2), (Fraction(5, 2), 2)],
    [(Fraction(-5, 2), 4), (Fraction(-5, 3), 4), (Fraction(-3, 2), 3)],
    [(Fraction(-8, 3), 1), (-2, 4), (Fraction(-3, 2), 4), (Fraction(-4, 3), 2)],
    [(Fraction(1, 3), 3), (1, 3), (Fraction(5, 2), 4), (Fraction(8, 3), 4)],
    [(2, 2), (Fraction(7, 3), 2), (Fraction(5, 2), 4)],
    [(Fraction(3, 2), 4), (Fraction(5, 3), 3), (2, 4)],
    [(-2, 3), (Fraction(7, 3), 3), (Fraction(5, 2), 2), (Fraction(8, 3), 3), (3, 2)],
    [(Fraction(1, 3), 2), (Fraction(4, 3), 4), (Fraction(3, 2), 3), (Fraction(7, 3), 4)],
    [(Fraction(-2, 3), 1), (Fraction(4, 3), 4), (2, 4), (Fraction(7, 3), 4)],
    [(-2, 2), (Fraction(-1, 2), 2), (2, 2), (Fraction(7, 3), 2), (Fraction(5, 2), 3), (Fraction(8, 3), 3)],
    [(Fraction(1, 2), 3), (2, 4), (Fraction(5, 2), 3), (Fraction(8, 3), 2)],
]

SMALL_DOMAIN = [Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 3),
                Fraction(1), Fraction(3, 2)]


def small_domain_products():
    """Every prod (x - r)^m over distinct r from SMALL_DOMAIN, degree <= 6."""
    for k in range(1, 7):
        for roots in itertools.combinations(SMALL_DOMAIN, k):
            for mults in itertools.product(range(1, 7), repeat=k):
                if sum(mults) <= 6:
                    yield list(zip(roots, mults))


class TestSquareFreeSplit:
    def test_factors_rebuild_the_input(self):
        rng = random.Random(7171)
        for i in range(40):
            p, roots = corpus_poly(rng, 4 + i % 11)
            split = sturm.square_free_split(list(p.coeffs))
            product = poly([1])
            for m, s in split.items():
                assert s[-1] > 0 and math.gcd(*s) == 1
                assert len(sturm._int_gcd(s, sturm._derivative_coeffs(s))) == 1
                for _ in range(m):
                    product = mul(product, poly(s))
            for s, t in itertools.combinations(split.values(), 2):
                assert len(sturm._int_gcd(s, t)) == 1
            scale = p.coeffs[-1] / product.coeffs[-1]
            assert [c * scale for c in product.coeffs] == list(p.coeffs)
            for r in roots:
                assert eval_horner(poly(split[multiplicity(p, r)]), r) == 0

    def test_constants_have_no_factors(self):
        assert sturm.square_free_split([Fraction(5)]) == {}

    @pytest.mark.parametrize("roots", CORPUS_MISSES)
    def test_corpus_draws_come_back_exactly(self, roots):
        for p in spellings(roots):
            rs = oracle_real_roots(p)
            assert [(v, m) for v, m, _ in rs.roots] == [(float(r), m) for r, m in roots]

    def test_irrational_roots_are_the_nearest_floats(self):
        # (x^2 - 2)^2 (x^2 - 3) (x - 1/3)^3
        p = mul(mul(poly([-2, 0, 1]), poly([-2, 0, 1])), poly([-3, 0, 1]))
        p = mul(p, poly_from_roots([(Fraction(1, 3), 3)], True))
        rs = oracle_real_roots(p)
        assert [(v, m) for v, m, _ in rs.roots] == [
            (-math.sqrt(3), 1), (-math.sqrt(2), 2), (1 / 3, 3), (math.sqrt(2), 2), (math.sqrt(3), 1)]
        assert rs.roots[2][2] == float(abs(eval_horner(p, Fraction(1 / 3))))  # exact residual

    def test_float_reading_with_a_repeated_factor_and_a_close_pair(self):
        # x^2 - (B/D) x + C/D has two simple roots 1.6e-6 apart near 3.1415,
        # a pair like the reading of pi^2 - 2 pi x + x^2; times (x - 1)^2
        # every coefficient still reads back exactly
        D, B, C = 2 * 10 ** 7, 125661929, 197386505
        pair = poly([Fraction(C, D), Fraction(-B, D), 1])
        exact = mul(poly_from_roots([(1, 2)], True), pair)
        spelled = complex_poly([float(c) for c in exact.coeffs])
        assert [sturm._read_float(c.real) for c in spelled.coeffs] == list(exact.coeffs)
        # so the reading is not square-free and the split path answers: the
        # pair stays two simple roots, each the float nearest it
        assert on_split_path(spelled)
        rs = oracle_real_roots(spelled)
        assert [m for _, m, _ in rs.roots] == [2, 1, 1]
        assert rs.roots[0][0] == 1.0
        for value, _, _ in rs.roots[1:]:
            assert is_nearest_float(pair, value)
        assert rs.roots[2][0] - rs.roots[1][0] == pytest.approx(1.6e-6, rel=0.01)
        assert count_real_roots_in(spelled, -math.inf, math.inf) == 3  # read as the oracle reads it
        # the pair alone reads square-free, and the float contract merges a
        # pair this close into one double root, as it merges pi^2,-2*pi,1
        alone = complex_poly([float(c) for c in pair.coeffs])
        assert not on_split_path(alone)
        rs = oracle_real_roots(alone)
        assert [m for _, m, _ in rs.roots] == [2]
        assert rs.roots[0][0] == pytest.approx(B / (2 * D), rel=1e-9)


class TestSmallDomainGate:
    def test_every_product_on_a_small_domain(self):
        calls, split_calls, wrong = 0, 0, []
        for roots in small_domain_products():
            want = [(float(r), m) for r, m in roots]
            for p in spellings(roots):
                got = [(v, m) for v, m, _ in oracle_real_roots(p).roots]
                calls += 1
                if count_real_roots_in(p, -math.inf, math.inf) != len(got):
                    wrong.append((p, "count"))
                if on_split_path(p):
                    split_calls += 1
                    ok = got == want
                else:
                    ok = len(got) == len(want) and all(
                        gm == wm and abs(gv - wv) <= 1e-9 * max(1.0, abs(wv))
                        for (gv, gm), (wv, wm) in zip(got, want))
                if not ok:
                    wrong.append((p, got))
        assert calls == 3430
        assert 1715 < split_calls < calls  # both paths are exercised
        assert wrong == []


# ---------------------------------------------------------------------------
# the float contract: a square-free float reading is answered as the most
# merged c * prod (x - r_i)^m_i within _MERGE_TOL * |P|_i of it


def hard_float_products():
    """random_root_mults(rng, rng.randint(1, 6), 4) from Random(5), 400
    draws, those of degree at most 10: 252 roots-with-multiplicity lists."""
    rng = random.Random(5)
    draws = [random_root_mults(rng, rng.randint(1, 6), 4) for _ in range(400)]
    return [rm for rm in draws if sum(m for _, m in rm) <= 10]


def reads_right(rs, root_mults) -> bool:
    return rs.count == len(root_mults) and all(
        gm == wm and abs(got - want) <= 1e-6 for (got, gm, _), (want, wm) in zip(rs.roots, root_mults))


# draws 4, 68, 88, 156 and 174 of hard_float_products: their readings split
# repeated roots into clusters that a root-count rule can miscount
FLOAT_PRODUCT_MISSES = [
    [(-4.819324646214699, 4), (-1.3381552415813944, 1), (-0.4717774654383131, 2), (1.2371303107723506, 2)],
    [(-3.0450589056001465, 3), (-1.3466316384909938, 1), (2.1309941927833584, 1), (2.5806709707635234, 3),
     (3.163679448484503, 2)],
    [(-4.918589739858007, 2), (-3.5953281623824243, 1), (-0.8114685690088042, 2), (-0.18847177438224616, 1),
     (0.45355975722004693, 4)],
    [(-4.78930296694709, 3), (-2.8073230634723467, 2), (1.9933302145280827, 1), (3.4759232418669495, 3),
     (4.4269050982632105, 1)],
    [(-2.723963009542596, 1), (0.8268498544384251, 1), (2.1230220397972666, 3), (4.992606814324027, 4)],
]


class TestFloatContract:
    def test_count_follows_the_oracle_on_hard_float_products(self):
        draws = hard_float_products()
        assert len(draws) == 252
        misses = []
        for i, rm in enumerate(draws):
            p = poly_from_roots(rm, False)
            rs = oracle_real_roots(p)
            assert count_real_roots_in(p, -math.inf, math.inf) == rs.count, i
            if not reads_right(rs, rm):
                misses.append(i)
        # three draws with roots 0.35-0.7 apart and multiplicities 3-4 still
        # read wrong, as they did before the float contract
        assert set(misses) <= {14, 92, 251}

    @pytest.mark.parametrize("root_mults", FLOAT_PRODUCT_MISSES)
    def test_float_products_come_back_right(self, root_mults):
        assert reads_right(oracle_real_roots(poly_from_roots(root_mults, False)), root_mults)

    # the last three are close pairs whose other roots widen |P| enough
    # that a double-root reading of the pair fits the whole box; the
    # tightness test of _cluster_factor keeps each pair apart
    @pytest.mark.parametrize("root_mults", [
        [(1.0, 1), (1.00003, 1)],
        [(-1.7, 1), (2.0, 1), (2.00006, 1)],
        [(-0.769025682656892, 1), (3.3916132663029064, 1), (3.3917150147008956, 1), (4.989788833958253, 1)],
        [(-4.879541402096562, 1), (-3.1366687446141075, 1), (-3.1365746445517693, 1), (1.6224095627532158, 1)],
        [(1.687369692043232, 1), (1.6874203131339933, 1), (4.362117966402664, 1)],
    ])
    def test_a_pair_3e_5_apart_stays_two_simple_roots(self, root_mults):
        p = poly_from_roots(root_mults, False)
        rs = oracle_real_roots(p)
        assert [m for _, m, _ in rs.roots] == [1] * len(root_mults)
        for (got, _, _), (want, _) in zip(rs.roots, root_mults):
            assert got == pytest.approx(want, abs=1e-9)

    # a pair 3e-5 apart that is not tight stays two roots, and a multiple
    # root elsewhere still merges at its own, wider radius
    @pytest.mark.parametrize("root_mults", [
        [(-2.616259974470372, 1), (-2.6161814866711377, 1), (3.4217511284574087, 4)],
        [(-2.2529660803442297, 2), (-0.4426514131896173, 2), (1.6042168921772255, 1), (1.6042650186839909, 1),
         (3.648825892767496, 3)],
    ])
    def test_a_multiple_root_merges_beside_a_pair_that_stays_two(self, root_mults):
        assert reads_right(oracle_real_roots(poly_from_roots(root_mults, False)), root_mults)

    def test_structured_reading_of_the_pi_pins(self):
        cubic = sturm._as_real_coeffs(parse_poly_text("pi/2, -pi^2, 0, 2"))[0]
        assert sturm._structured_reading(cubic) == cubic
        square = sturm._as_real_coeffs(parse_poly_text("pi^2,-2*pi,1"))[0]
        pi = Fraction(math.pi)
        assert sturm._structured_reading(square) == [pi * pi, -2 * pi, 1]
