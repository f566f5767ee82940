import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from tilelab import (
    COMPLEX,
    EXACT_BITS_CAP,
    KindMismatch,
    NotARoot,
    Poly,
    RATIONAL,
    ResourceLimit,
    RootSet,
    add,
    complex_poly,
    eval_horner,
    eval_naive,
    float_coeffs,
    format_poly_text,
    is_nicely_factored,
    max_norm,
    mul,
    multiplicity,
    norm_claim_check,
    parse_poly_text,
    parse_scalar,
    poly,
    poly_from_json,
    poly_to_json,
    rational_poly,
    synthetic_divide,
    verify_root,
    zero,
)
from tilelab import sturm

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50)
small_floats = st.floats(min_value=-50, max_value=50,
                         allow_nan=False, allow_infinity=False)


class TestConstruction:
    def test_kind_inference(self):
        assert poly([1, 2]).kind == RATIONAL
        assert poly([Fraction(1, 2), 3]).kind == RATIONAL
        assert poly([1.0, 2]).kind == COMPLEX
        assert poly([1j]).kind == COMPLEX

    def test_explicit_kind(self):
        assert rational_poly([1, 2]).coeffs == (Fraction(1), Fraction(2))
        assert complex_poly([1, 2]).coeffs == (1 + 0j, 2 + 0j)

    def test_rational_kind_rejects_floats(self):
        with pytest.raises(TypeError):
            poly([0.5], RATIONAL)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            poly([1], "p-adic")

    def test_trailing_zeros_stripped(self):
        p = poly([1, 2, 0, 0])
        assert p.coeffs == (Fraction(1), Fraction(2))
        assert p.degree == 1

    def test_zero_polynomial(self):
        z = zero()
        assert z.is_zero()
        assert z.degree is None
        assert z.coeffs == ()
        assert poly([0, 0]).is_zero()
        assert eval_horner(z, 7) == 0
        assert eval_horner(zero(COMPLEX), 7) == 0j


class TestEvaluation:
    def test_known_value(self):
        p = poly([1, 2, 3])  # 3x^2 + 2x + 1
        assert p(2) == 17
        assert p(Fraction(1, 2)) == Fraction(11, 4)

    @given(st.lists(rationals, max_size=9), rationals)
    def test_horner_matches_naive_rational(self, coeffs, x):
        p = poly(coeffs, RATIONAL)
        assert eval_horner(p, x) == eval_naive(p, x)

    @given(st.lists(small_floats, max_size=9), small_floats)
    def test_horner_matches_naive_complex(self, coeffs, x):
        p = poly(coeffs, COMPLEX)
        got, want = eval_horner(p, x), eval_naive(p, x)
        scale = max(1.0, sum(abs(c) * abs(x) ** i for i, c in enumerate(p.coeffs)))
        assert abs(got - want) <= 1e-12 * scale


class TestArithmetic:
    def test_add(self):
        assert add(poly([1, 2]), poly([3, 4, 5])).coeffs == (4, 6, 5)

    def test_add_cancels_to_zero(self):
        assert add(poly([1, -1]), poly([-1, 1])).is_zero()

    def test_mul(self):
        # (1 + x)(1 - x) = 1 - x^2
        assert mul(poly([1, 1]), poly([1, -1])).coeffs == (1, 0, -1)

    def test_mul_by_zero(self):
        assert mul(poly([1, 2]), zero()).is_zero()

    def test_operators(self):
        p, q = poly([1, 1]), poly([2])
        assert (p + q).coeffs == (3, 1)
        assert (p * q).coeffs == (2, 2)

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatch):
            add(poly([1]), complex_poly([1]))
        with pytest.raises(KindMismatch):
            mul(poly([1]), complex_poly([1]))

    @given(st.lists(rationals, max_size=6), st.lists(rationals, max_size=6),
           rationals)
    def test_mul_agrees_with_pointwise(self, a, b, x):
        p, q = poly(a, RATIONAL), poly(b, RATIONAL)
        assert eval_horner(mul(p, q), x) == eval_horner(p, x) * eval_horner(q, x)


class TestMaxNorm:
    def test_values(self):
        assert max_norm(poly([1, -5, 3])) == 5
        assert max_norm(zero()) == 0
        assert max_norm(complex_poly([3 + 4j])) == 5.0

    @given(st.lists(rationals, max_size=8), st.lists(rationals, max_size=8))
    def test_submultiplicative_not_multiplicative(self, a, b):
        p, q = poly(a, RATIONAL), poly(b, RATIONAL)
        lhs = max_norm(mul(p, q))
        d = min(len(p.coeffs), len(q.coeffs))
        assert lhs <= max(1, d) * max_norm(p) * max_norm(q)

    def test_claim_check_counterexample(self):
        check = norm_claim_check(poly([1, 1]), poly([1, 1]))
        assert not check.holds
        assert check.lhs == 2
        assert check.rhs == 1

    def test_claim_check_holding_case(self):
        # multiplying by a monomial only shifts coefficients
        check = norm_claim_check(poly([0, 1]), poly([3, -7, 2]))
        assert check.holds
        assert check.lhs == check.rhs == 7

    def test_claim_check_complex_kind(self):
        check = norm_claim_check(complex_poly([1, 1]), complex_poly([1, 1]))
        assert not check.holds
        assert check.lhs == pytest.approx(2.0)
        assert check.rhs == pytest.approx(1.0)


class TestSyntheticDivision:
    def test_exact_division(self):
        p = mul(poly([-1, 1]), poly([-2, 1]))  # (x-1)(x-2)
        q, rem = synthetic_divide(p, 1)
        assert rem == 0
        assert q.coeffs == (-2, 1)

    def test_remainder_is_evaluation(self):
        p = poly([5, 0, 3])
        _, rem = synthetic_divide(p, 2)
        assert rem == eval_horner(p, 2) == 17

    @given(st.lists(rationals, min_size=1, max_size=8), rationals)
    def test_identity(self, coeffs, r):
        p = poly(coeffs, RATIONAL)
        if p.is_zero():
            return
        q, rem = synthetic_divide(p, r)
        recomposed = add(mul(q, poly([-r, 1], RATIONAL)), poly([rem], RATIONAL))
        assert recomposed.coeffs == p.coeffs

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            synthetic_divide(zero(), 1)


class TestMultiplicity:
    def test_exact_kind(self):
        p = mul(mul(poly([-1, 1]), poly([-1, 1])), poly([-2, 1]))
        assert multiplicity(p, 1) == 2
        assert multiplicity(p, 2) == 1

    def test_exact_fraction_root(self):
        p = mul(poly([Fraction(-1, 2), 1]), poly([Fraction(-1, 2), 1]))
        assert multiplicity(p, Fraction(1, 2)) == 2

    def test_complex_kind_with_tolerance(self):
        p = complex_poly([1, -2, 1])  # (x-1)^2
        assert multiplicity(p, 1.0 + 1e-12) == 2

    def test_not_a_root(self):
        with pytest.raises(NotARoot):
            multiplicity(poly([-1, 1]), 2)

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            multiplicity(zero(), 0)


class TestVerifyRoot:
    def test_exact_pair_is_exact(self):
        p = poly([Fraction(-1, 10 ** 12), 1])
        assert verify_root(p, 0) == (1e-12, None)
        assert verify_root(p, Fraction(1, 10 ** 12)) == (0.0, 1)
        assert verify_root(poly([-1, 3]), Fraction(1, 3)) == (0.0, 1)
        assert verify_root(poly([1, -2, 1]), 1) == (0.0, 2)

    def test_float_root_reads_the_polynomial_in_floats(self):
        p = poly([Fraction(-1, 10 ** 12), 1])
        assert verify_root(p, 0.0) == (1e-12, 1)
        assert verify_root(complex_poly([1, -2, 1]), 1 + 1e-12) == (pytest.approx(0.0), 2)
        assert verify_root(complex_poly([1, 0, 1]), 1j) == (0.0, 1)
        assert verify_root(complex_poly([-1, 0, 1]), 3.0) == (8.0, None)

    def test_a_constant_has_no_root(self):
        # a residual under the tolerance, but no deflation stage divides
        assert verify_root(complex_poly([1e-12]), 1.0) == (1e-12, None)
        assert verify_root(poly([5]), 1) == (5.0, None)

    @pytest.mark.parametrize("p, r", [
        (zero(), 0),
        (poly([-1, 1]), math.nan),
        (poly([-1, 1]), complex(1, math.inf)),
        (poly([-1, 1]), Fraction(2 ** 2000)),
        (poly([2 ** 2000, 1]), 1),
        (poly([1, 0, 0, 1]), 1e200),
        (poly([1, 0, 0, 1]), Fraction(10 ** 200)),
    ], ids=["zero", "nan-root", "inf-root", "root-past-range", "coeff-past-range",
            "float-value-past-range", "exact-value-past-range"])
    def test_rejected(self, p, r):
        with pytest.raises(ValueError):
            verify_root(p, r)


class TestFloatCoeffs:
    def test_complex_and_real_reads(self):
        p = poly([Fraction(1, 2), 3])
        assert float_coeffs(p) == [0.5 + 0j, 3 + 0j]
        assert float_coeffs(complex_poly([-1 + 1e-15j, 1]), real=True) == [-1.0, 1.0]
        assert float_coeffs(complex_poly([1j, 1])) == [1j, 1 + 0j]

    @pytest.mark.parametrize("c", [1j, complex(-1, math.nan), complex(-1, math.inf),
                                   complex(math.nan, 0), complex(math.inf, 0)])
    def test_real_rule_rejects(self, c):
        with pytest.raises(ValueError):
            float_coeffs(complex_poly([c, 1]), real=True)

    def test_past_float_range(self):
        with pytest.raises(ValueError):
            float_coeffs(poly([2 ** 2000, 1]))


class TestNicelyFactored:
    def test_zero_is_not(self):
        assert not is_nicely_factored(zero())

    def test_complex_kind_always_is(self):
        assert is_nicely_factored(complex_poly([1, 0, 1]))
        assert is_nicely_factored(complex_poly([5]))

    def test_split_rational(self):
        assert is_nicely_factored(mul(poly([-1, 1]), poly([-2, 1])))
        assert is_nicely_factored(poly([0, 0, 1]))       # x^2
        assert is_nicely_factored(poly([Fraction(3)]))   # constants split trivially
        p = mul(poly([-Fraction(1, 2), 1]), poly([3, 2]))
        assert is_nicely_factored(p)

    def test_irreducible_quadratics(self):
        assert not is_nicely_factored(poly([1, 0, 1]))   # x^2 + 1
        assert not is_nicely_factored(poly([-2, 0, 1]))  # x^2 - 2
        assert not is_nicely_factored(mul(poly([1, 0, 1]), poly([-1, 1])))

    def test_large_constant_term_is_decided_fast(self):
        start = time.perf_counter()
        assert not is_nicely_factored(poly([2 ** 70 + 1, 0, 1]))  # x^2 + 2^70 + 1
        assert time.perf_counter() - start < 1.0

    def test_close_roots_with_large_denominators(self):
        p = mul(poly([-Fraction(1, 1000003), 1]), poly([-Fraction(1, 1000033), 1]))
        assert is_nicely_factored(mul(p, p))
        # x^2 - 4/1000003^2 splits, x^2 - 2/1000003^2 does not
        assert is_nicely_factored(mul(p, poly([-Fraction(4, 1000003 ** 2), 0, 1])))
        assert not is_nicely_factored(mul(p, poly([-Fraction(2, 1000003 ** 2), 0, 1])))
        assert is_nicely_factored(poly([2 ** 2000, 1]))  # a root past the float range

    def test_degree_cap(self):
        cap = sturm.ORACLE_DEGREE_CAP
        assert is_nicely_factored(poly([0] * cap + [1]))  # x^36
        with pytest.raises(ResourceLimit):
            is_nicely_factored(poly([0] * (cap + 1) + [1]))  # x^37


class TestSerialization:
    def test_parse_poly_text_exact(self):
        p = parse_poly_text("1, -2, 1/3")
        assert p.kind == RATIONAL
        assert p.coeffs == (Fraction(1), Fraction(-2), Fraction(1, 3))

    def test_parse_poly_text_with_pi(self):
        p = parse_poly_text("pi/2, -pi^2, 0, 2")
        assert p.kind == COMPLEX
        assert p.coeffs[0] == pytest.approx(math.pi / 2)
        assert p.coeffs[1] == pytest.approx(-math.pi ** 2)
        assert p.coeffs[2] == 0
        assert p.coeffs[3] == 2

    def test_parse_scalar_forms(self):
        assert parse_scalar("3") == 3
        assert parse_scalar("-3/4") == Fraction(-3, 4)
        assert parse_scalar("--2") == 2
        assert parse_scalar("2^3") == 8
        assert parse_scalar("2*pi") == pytest.approx(2 * math.pi)
        assert parse_scalar("-pi/2") == pytest.approx(-math.pi / 2)
        assert parse_scalar("1.5") == 1.5

    def test_parse_scalar_rejects_junk(self):
        # polynomial text has no imaginary unit
        for bad in ("", "x", "pi^", "1..2", "1j", "2*1j"):
            with pytest.raises(ValueError):
                parse_scalar(bad)

    def test_parse_poly_text_rejects_empty(self):
        with pytest.raises(ValueError):
            parse_poly_text("")

    def test_format_round_trip_rational(self):
        p = poly([Fraction(1, 3), -2, 5])
        assert parse_poly_text(format_poly_text(p)).coeffs == p.coeffs

    def test_format_zero(self):
        assert format_poly_text(zero()) == "0"

    def test_json_round_trip(self):
        for p in (poly([Fraction(1, 3), -2]), complex_poly([1.5, -2.25, 3])):
            doc = poly_to_json(p)
            back = poly_from_json(doc)
            assert back.kind == p.kind
            assert back.coeffs == p.coeffs

    def test_json_rejects_bad_docs(self):
        with pytest.raises(ValueError):
            poly_from_json({"coeffs": ["1"]})
        with pytest.raises(ValueError):
            poly_from_json({"coeffs": ["1"], "kind": "decimal"})
        with pytest.raises(ValueError):
            poly_from_json({"coeffs": 5, "kind": "rational"})
        with pytest.raises(ValueError):
            poly_from_json({"coeffs": [[1]], "kind": "rational"})

    def test_json_rational_rejects_bool_and_float(self):
        for coeffs in ([True, 1], [1, 1.5], [1, False]):
            with pytest.raises(ValueError):
                poly_from_json({"coeffs": coeffs, "kind": "rational"})
        assert poly_from_json({"coeffs": [1, "3/4", "0.1"], "kind": "rational"}).coeffs == (
            1, Fraction(3, 4), Fraction(1, 10))

    def test_json_rational_zero_divisor_and_size_cap(self):
        with pytest.raises(ValueError, match="divides by zero"):
            poly_from_json({"coeffs": ["1/0", 1], "kind": "rational"})
        # the exponent is judged before 10^exponent is built
        for big in ("1e999999999", "1E1_000_000_000", "1e-70000", "1e30000"):
            with pytest.raises(ResourceLimit, match=f"{EXACT_BITS_CAP}-bit cap"):
                poly_from_json({"coeffs": [big, 1], "kind": "rational"})
        assert poly_from_json({"coeffs": ["1e3", "2.5e-1"], "kind": "rational"}).coeffs == (
            1000, Fraction(1, 4))

    def test_exact_size_cap(self):
        assert parse_scalar("2^32768") == 2 ** 32768  # 2 bits a factor: at the cap
        for big in ("9^999999999", "2^32769", "9^10000*9^10000*9^10000", "1/3^30000/3^30000"):
            with pytest.raises(ResourceLimit, match=f"{EXACT_BITS_CAP}-bit cap"):
                parse_scalar(big)

    def test_overflow_and_zero_division_are_value_errors(self):
        for bad in ("pi^999999", "2.5^99999", "1/0", "1.5/0", "2^2000*1.5", "2^2000/pi"):
            with pytest.raises(ValueError):
                parse_scalar(bad)
        with pytest.raises(ValueError):
            parse_poly_text("2^1100, 1.5")  # exact, but past the float range


SCALAR_TEXT = st.text(alphabet="0123456789.^*/+-pi ", max_size=30) | st.text()


def raises_only_value_error_or_limit(parse, text):
    try:
        parse(text)
    except (ValueError, ResourceLimit):
        pass


class TestMalformedText:
    """The poly parsers reject outside input with ValueError, or with
    ResourceLimit when an exact coefficient is too large, and nothing else."""

    @given(SCALAR_TEXT)
    @example("9^999999999")
    @example("pi^999999")
    @example("1/0")
    @example("2^2000*1.5")
    def test_parse_scalar(self, text):
        raises_only_value_error_or_limit(parse_scalar, text)

    @given(st.lists(SCALAR_TEXT, max_size=6).map(",".join))
    @example("2^1100,1.5")
    def test_parse_poly_text(self, text):
        raises_only_value_error_or_limit(parse_poly_text, text)


class TestRootSet:
    def test_to_json_real_and_complex_values(self):
        rs = RootSet(roots=((1.0, 2, 0.0), (1j, 1, 0.0)))
        doc = rs.to_json()
        assert doc["tau"] == 2
        assert doc["roots"][0] == {"value": 1.0, "mult": 2, "residual": 0.0}
        assert doc["roots"][1]["value"] == {"re": 0.0, "im": 1.0}
