import itertools
import math
import re
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

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
    synthetic_divide,
    verify_root,
)
from tilelab import sturm
from tilelab.poly import _deflations

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
        assert poly([1, 2], RATIONAL).coeffs == (Fraction(1), Fraction(2))
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
        z = poly([], RATIONAL)
        assert z.is_zero()
        assert z.degree is None
        assert z.coeffs == ()
        assert poly([0, 0]).is_zero()
        assert eval_horner(z, 7) == 0
        assert eval_horner(poly([], COMPLEX), 7) == 0j


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
        assert mul(poly([1, 2]), poly([], RATIONAL)).is_zero()

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
        assert max_norm(poly([], RATIONAL)) == 0
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
            synthetic_divide(poly([], RATIONAL), 1)


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
            multiplicity(poly([], RATIONAL), 0)


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
        (poly([], RATIONAL), 0),
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


# the small domain of the ROADMAP's sweeps, and a lead that is not monic
SMALL_DOMAIN = (-2, -1, Fraction(-1, 2), 0, Fraction(1, 3), 1, Fraction(3, 2))
LEAD = Fraction(-7, 4)


def reference_deflations(p, r) -> int:
    """The Fraction route the integer kernel replaced: repeated exact
    synthetic division by x - r while the remainder is 0."""
    m = 0
    while len(p.coeffs) >= 2:
        p, rem = synthetic_divide(p, r)
        if rem != 0:
            break
        m += 1
    return m


class TestIntegerKernel:
    def test_small_domain_products_match_the_fraction_route(self):
        # every product of small-domain roots, with repetition, of degree
        # 1 to 6, times LEAD, at every small-domain value and at 2/5
        count = 0
        for d in range(1, 7):
            for roots in itertools.combinations_with_replacement(SMALL_DOMAIN, d):
                p = poly([LEAD])
                for r in roots:
                    p = mul(p, poly([-r, 1]))
                count += 1
                for x in (*SMALL_DOMAIN, Fraction(2, 5)):
                    m = reference_deflations(p, x)
                    assert m == roots.count(x)
                    assert _deflations(p, x) == m
                    assert verify_root(p, x) == (float(abs(eval_horner(p, x))), m or None)
                    if m:
                        assert multiplicity(p, x) == m
                    else:
                        with pytest.raises(NotARoot):
                            multiplicity(p, x)
        assert count == 1715

    def test_root_still_goes_through_coerce(self):
        p = poly([-1, 1])
        with pytest.raises(TypeError, match="rational coefficients must be exact"):
            multiplicity(p, 1.0)
        assert multiplicity(p, "1") == 1
        # a constant has no root, whatever the point
        with pytest.raises(NotARoot):
            multiplicity(poly([5]), 1.0)


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
        assert not is_nicely_factored(poly([], RATIONAL))

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
        assert format_poly_text(poly([], RATIONAL)) == "0"

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

# parse_scalar as it read every exact atom as a Fraction: the reference its
# int-reading grammar must agree with
_REF_NUMBER = re.compile(r"^\d+(\.\d+)?$")


def _reference_atom(tok: str):
    if tok == "pi":
        return math.pi
    if _REF_NUMBER.match(tok):
        return Fraction(tok) if "." not in tok else float(tok)
    m = re.match(r"^pi\^(\d+)$", tok)
    if m:
        return math.pi ** int(m.group(1))
    m = re.match(r"^(\d+(\.\d+)?)\^(\d+)$", tok)
    if m:
        exponent = int(m.group(3))
        if "." in m.group(1):
            return float(m.group(1)) ** exponent
        base = int(m.group(1))
        if exponent * base.bit_length() > EXACT_BITS_CAP:
            raise ResourceLimit(f"{tok!r} exceeds the {EXACT_BITS_CAP}-bit cap on exact coefficients")
        return Fraction(base ** exponent)
    raise ValueError(f"bad coefficient factor {tok!r}")


def _reference_capped(text: str, x):
    if isinstance(x, Fraction) and x.numerator.bit_length() + x.denominator.bit_length() > EXACT_BITS_CAP:
        raise ResourceLimit(f"{text!r} exceeds the {EXACT_BITS_CAP}-bit cap on exact coefficients")
    return x


def reference_parse_scalar(text: str):
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty coefficient")
    sign = 1
    while s and s[0] in "+-":
        if s[0] == "-":
            sign = -sign
        s = s[1:]
    if not s:
        raise ValueError(f"bad coefficient {text!r}")
    value = None
    try:
        for part in s.split("*"):
            pieces = part.split("/")
            v = _reference_atom(pieces[0])
            for den in pieces[1:]:
                v = _reference_capped(text, v / _reference_atom(den))
            value = v if value is None else _reference_capped(text, value * v)
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"coefficient {text!r} has no finite value: {exc}") from None
    if isinstance(value, Fraction):
        return sign * value
    return sign * float(value)


def parse_outcome(parse, text):
    """The type and exact value of the result (a float by its hex, so that
    -0.0 and nan compare too), or the class and message of the exception."""
    try:
        value = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), value.hex() if isinstance(value, float) else value.as_integer_ratio()


# scalar text from the grammar's pieces: sign runs, spaces, digit runs with
# leading zeros, decimals, pi, ^k, / and *, as well-formed products of
# quotients and joined freely
_SIGNS = st.text("+-", max_size=3)
_POWER = st.one_of(st.just(""), st.integers(0, 12).map("^{}".format),
                   st.integers(0, 70000).map("^{}".format))
_ATOM = st.tuples(st.one_of(
    st.text("0123456789", min_size=1, max_size=20),
    st.tuples(st.text("0123456789", min_size=1, max_size=6),
              st.text("0123456789", min_size=1, max_size=6)).map(".".join),
    st.just("pi")), _POWER).map("".join)
_PRODUCT = st.tuples(_SIGNS, _ATOM, st.lists(st.tuples(st.sampled_from(["*", "/", " * ", " / "]), _ATOM),
                                             max_size=4)).map(
    lambda t: t[0] + t[1] + "".join(op + atom for op, atom in t[2]))
_JOINED = st.lists(st.one_of(_SIGNS, st.just(" "), _ATOM, st.sampled_from(["/", "*", "^"])),
                   min_size=1, max_size=8).map("".join)
GRAMMAR_TEXT = _PRODUCT | _JOINED


class TestParserEquivalence:
    @settings(max_examples=400, deadline=None)
    @given(GRAMMAR_TEXT)
    @example("2^40000*2^40000")
    @example("2^32768*2^32768")   # each factor at the cap, their product past it
    @example("3^30000/2^30000")   # a quotient past the cap
    @example("1/0")
    @example("6/0")
    @example("0/0")
    @example("-3/4/0")
    @example("007/0014")
    @example("- 2 * 3/4 * pi")
    @example("9^500*pi")          # exact past the float range, then a float
    @example("2.5/9^500")
    def test_same_value_and_type_or_same_error(self, text):
        assert parse_outcome(parse_scalar, text) == parse_outcome(reference_parse_scalar, text)

    @pytest.mark.parametrize("text, error, message", [
        ("2^40000*2^40000", ResourceLimit,
         f"'2^40000' exceeds the {EXACT_BITS_CAP}-bit cap on exact coefficients"),
        # each factor within the cap, their product past it
        ("2^32768*2^32768", ResourceLimit,
         f"'2^32768*2^32768' exceeds the {EXACT_BITS_CAP}-bit cap on exact coefficients"),
        ("3^30000/2^30000", ResourceLimit,
         f"'3^30000/2^30000' exceeds the {EXACT_BITS_CAP}-bit cap on exact coefficients"),
        ("1/0", ValueError, "coefficient '1/0' has no finite value: Fraction(1, 0)"),
    ], ids=["power", "product", "quotient", "zero-divisor"])
    def test_cap_and_zero_divisor(self, text, error, message):
        assert parse_outcome(parse_scalar, text) == (error, message)


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
