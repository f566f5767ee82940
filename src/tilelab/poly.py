"""Dense univariate polynomials in two coefficient kinds.

Coefficients are stored low degree first.  The "rational" kind holds exact
Fractions; the "complex" kind holds machine complex numbers (real inputs
just have zero imaginary parts).  The zero polynomial is the empty
coefficient sequence and has no degree.  Mixing kinds raises KindMismatch:
callers convert explicitly or not at all.

Two rules live here so that every caller shares them.  verify_root decides
a claimed root: exactly when polynomial and root are both exact, in
integers on the kernel the Sturm oracle shares, else in complex
arithmetic under the one tolerance MULTIPLICITY_TOL.  float_coeffs
reads coefficients as machine numbers, and as reals under REAL_COEFF_TOL;
the Sturm oracle and the real-mode finder both read float input by it.
"""

from __future__ import annotations

import cmath
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .limits import ResourceLimit

RATIONAL = "rational"
COMPLEX = "complex"
# largest exact coefficient the parser builds, in bits of numerator plus
# denominator: far past any float's range, yet cheap for the oracle's integer
# arithmetic.  Powers are judged before they are computed.
EXACT_BITS_CAP = 2 ** 16
# an integer literal of at least this many significant digits is at least
# 10^(digits - 1) >= 2^(EXACT_BITS_CAP - 1), past the cap by its length alone
_CAP_DIGITS = math.ceil((EXACT_BITS_CAP - 1) / math.log2(10)) + 1
# int() converts any shorter run of digits whatever the interpreter's limit
# on integer strings (sys.get_int_max_str_digits), so only longer runs are
# judged before they are read
_LONG = sys.int_info.str_digits_check_threshold
# a float-kind deflation stage divides evenly when its remainder is below
# this, relative to max(1, max_norm): the one tolerance of verify_root
MULTIPLICITY_TOL = 1e-9
# a coefficient is real when its imaginary part is at most this, relative
# to max(1, max|c|): the one rule of float_coeffs(p, real=True)
REAL_COEFF_TOL = 1e-12


class KindMismatch(TypeError):
    """Arithmetic attempted between polynomials of different coefficient kinds."""


class NotARoot(ValueError):
    """multiplicity() called on a point that is not a root."""


def _coerce(kind: str, value):
    if kind == RATIONAL:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
        raise TypeError(f"rational coefficients must be exact, got {type(value).__name__}")
    return complex(value)


@dataclass(frozen=True)
class Poly:
    """Immutable dense polynomial; use the module constructors to build one."""

    coeffs: tuple
    kind: str

    @property
    def degree(self) -> int | None:
        """Index of the highest structurally nonzero coefficient; None if zero."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Poly") -> "Poly":
        return add(self, other)

    def __mul__(self, other: "Poly") -> "Poly":
        return mul(self, other)

    def __call__(self, x):
        return eval_horner(self, x)


def _normalize(coeffs: list) -> tuple:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly(coeffs: Sequence, kind: str | None = None) -> Poly:
    """Build a polynomial from low-to-high coefficients.

    Without an explicit kind, exact inputs (ints, Fractions) give the
    rational kind and anything floating gives the complex kind.
    """
    values = list(coeffs)
    if kind is None:
        exact = all(isinstance(v, (int, Fraction)) for v in values)
        kind = RATIONAL if exact else COMPLEX
    if kind not in (RATIONAL, COMPLEX):
        raise ValueError(f"unknown coefficient kind {kind!r}")
    return Poly(_normalize([_coerce(kind, v) for v in values]), kind)


def complex_poly(coeffs: Sequence) -> Poly:
    return poly(coeffs, COMPLEX)


def _check_kinds(p: Poly, q: Poly) -> str:
    if p.kind != q.kind:
        raise KindMismatch(f"cannot combine {p.kind} and {q.kind} polynomials")
    return p.kind


def eval_horner(p: Poly, x):
    """Evaluate by Horner's rule: d multiplications, no explicit powers."""
    if not p.coeffs:
        return Fraction(0) if p.kind == RATIONAL else 0j
    acc = p.coeffs[-1]
    for c in reversed(p.coeffs[:-1]):
        acc = acc * x + c
    return acc


def eval_naive(p: Poly, x):
    """Reference evaluation as an explicit power sum (the fidelity oracle)."""
    total = Fraction(0) if p.kind == RATIONAL else 0j
    for i, c in enumerate(p.coeffs):
        total += c * x ** i
    return total


def add(p: Poly, q: Poly) -> Poly:
    kind = _check_kinds(p, q)
    out = list(p.coeffs) + [_coerce(kind, 0)] * max(0, len(q.coeffs) - len(p.coeffs))
    for i, c in enumerate(q.coeffs):
        out[i] += c
    return Poly(_normalize(out), kind)


def convolve(a: Sequence, b: Sequence, zero_value):
    """Coefficient convolution of two low-first sequences."""
    if not a or not b:
        return []
    out = [zero_value] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def mul(p: Poly, q: Poly) -> Poly:
    kind = _check_kinds(p, q)
    z = _coerce(kind, 0)
    return Poly(_normalize(convolve(p.coeffs, q.coeffs, z)), kind)


def max_norm(p: Poly):
    """Largest coefficient magnitude; 0 for the zero polynomial.

    Exact (a Fraction) in the rational kind, a float otherwise.
    """
    if not p.coeffs:
        return Fraction(0) if p.kind == RATIONAL else 0.0
    return max(abs(c) for c in p.coeffs)


def float_coeffs(p: Poly, real: bool = False) -> list:
    """p's coefficients in machine arithmetic: complex numbers, or with
    real the floats of their real parts.

    Raises ValueError for a coefficient past the float range or not
    finite, and with real for an imaginary part above
    REAL_COEFF_TOL * max(1, max|c|).
    """
    try:
        values = [complex(c) for c in p.coeffs]
    except OverflowError:  # an exact coefficient past the float range
        raise ValueError("a coefficient lies past the float range") from None
    if not all(cmath.isfinite(z) for z in values):
        raise ValueError("coefficients must be finite")
    if not real:
        return values
    bound = REAL_COEFF_TOL * max(1.0, max((abs(z) for z in values), default=0.0))
    if any(abs(z.imag) > bound for z in values):
        raise ValueError("real coefficients are required")
    return [z.real for z in values]


@dataclass(frozen=True)
class NormCheck:
    """Outcome of one multiplicativity probe: is |pq| == |p|*|q| under max_norm?"""

    holds: bool
    lhs: object  # max_norm(p * q)
    rhs: object  # max_norm(p) * max_norm(q)


def norm_claim_check(p: Poly, q: Poly) -> NormCheck:
    """Probe the claim that max_norm is multiplicative.

    The claim is false in general ((1 + x)^2 gives 2 vs 1); the result is
    recorded as data, never asserted.
    """
    lhs = max_norm(mul(p, q))
    rhs = max_norm(p) * max_norm(q)
    if p.kind == RATIONAL:
        holds = lhs == rhs
    else:
        scale = max(1.0, abs(rhs))
        holds = abs(lhs - rhs) <= 1e-12 * scale
    return NormCheck(holds, lhs, rhs)


def synthetic_divide(p: Poly, r) -> tuple[Poly, object]:
    """Divide by (x - r): returns (quotient, remainder scalar p(r))."""
    if p.is_zero():
        raise ValueError("cannot divide the zero polynomial")
    r = _coerce(p.kind, r)
    out = []
    acc = _coerce(p.kind, 0)
    for c in reversed(p.coeffs):
        acc = acc * r + c
        out.append(acc)
    out.reverse()
    remainder = out[0]
    return Poly(_normalize(out[1:]), p.kind), remainder


# ---------------------------------------------------------------------------
# the integer kernel of every exact check: a rational polynomial is read
# over the lcm of its denominators, and a point p/q through homogeneous
# Horner sums, so no Fraction is built per step (the Sturm oracle shares it)


def _over_lcm(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """(a, unit): coeffs times the lcm unit of their denominators, in integers."""
    unit = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (unit // c.denominator) for c in coeffs], unit


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


def _exact_residual(a: list[int], unit: int, num: int, q: int) -> float:
    """|P(num/q)| rounded once, for P = a / unit with a from _over_lcm and
    q > 0: one integer Horner sum, divided by int true division, which
    rounds correctly as Fraction.__float__ does.  Raises OverflowError past
    the float range."""
    d = len(a) - 1
    return abs(_int_eval(a, num, _q_powers(q, d))) / (unit * q ** d)


def _int_deflations(a: list[int], num: int, den: int) -> int:
    """Largest m with (den x - num)^m dividing the integer polynomial a (low
    first, nonzero lead), num/den in lowest terms with den > 0.

    den x - num is primitive, so by Gauss's lemma it divides a over the
    rationals exactly when the quotient is integral.  Each stage is
    synthetic division from the top, q_(i-1) = (a_i + num q_i) / den, and
    divides exactly when every step divides evenly and the remainder
    a_0 + num q_0 is 0.
    """
    m = 0
    while len(a) >= 2:
        out = []
        acc = 0
        for c in a[:0:-1]:
            acc, rem = divmod(c + num * acc, den)
            if rem:
                return m
            out.append(acc)
        if a[0] + num * acc:
            return m
        out.reverse()
        a = out
        m += 1
    return m


def _deflations(p: Poly, r) -> int:
    """Largest m with (x - r)^m dividing p; 0 when r is not a root.

    Exact in the rational kind, in integers (_int_deflations); in the
    complex kind, by repeated synthetic division, each stage's remainder
    must stay below MULTIPLICITY_TOL * max(1, max_norm) of its dividend.
    """
    if len(p.coeffs) < 2:  # a constant has no root, whatever r is
        return 0
    r = _coerce(p.kind, r)
    if p.kind == RATIONAL:
        return _int_deflations(_over_lcm(p.coeffs)[0], r.numerator, r.denominator)
    m = 0
    while len(p.coeffs) >= 2:
        quotient, rem = synthetic_divide(p, r)
        if not abs(rem) < MULTIPLICITY_TOL * max(1.0, float(max_norm(p))):
            break
        m += 1
        p = quotient
    return m


def multiplicity(p: Poly, r) -> int:
    """Largest m with (x - r)^m dividing p, by _deflations' rule.

    Raises NotARoot if r is not a root at all.
    """
    if p.is_zero():
        raise ValueError("every point is a root of the zero polynomial")
    m = _deflations(p, r)
    if m == 0:
        raise NotARoot(f"{r!r} is not a root (remainder {eval_horner(p, r)!r})")
    return m


def verify_root(p: Poly, r) -> tuple[float, int | None]:
    """The one rule that decides a claimed root: (|p(r)|, the multiplicity
    of r, or None when r is not a root).

    An exact pair, p rational and r an int or a Fraction, is decided
    exactly, in integers over the lcm of p's denominators: r is a root
    when p(r) == 0, and the residual is one integer Horner sum, rounded
    once to a float.  Any other pair reads p in complex
    arithmetic, where every deflation stage, the first included, must
    leave a remainder below MULTIPLICITY_TOL * max(1, max_norm) of its
    dividend.  Raises ValueError for the zero polynomial, a root that is
    not finite, and a coefficient or value past the float range.
    """
    if p.is_zero():
        raise ValueError("every point is a root of the zero polynomial")
    values = float_coeffs(p)
    try:
        z = complex(r)
    except OverflowError:  # an exact root past the float range
        raise ValueError("the root value lies past the float range") from None
    shown = z.real if z.imag == 0 else z
    if not cmath.isfinite(z):
        raise ValueError(f"root value {shown} is not finite")
    exact = p.kind == RATIONAL and isinstance(r, (int, Fraction))
    if exact:
        a, unit = _over_lcm(p.coeffs)
        mult = _int_deflations(a, r.numerator, r.denominator)
    else:
        floats = complex_poly(values)
        mult = _deflations(floats, z)
    try:
        residual = (_exact_residual(a, unit, r.numerator, r.denominator) if exact
                    else float(abs(eval_horner(floats, z))))
    except OverflowError:  # an exact value past the float range
        residual = math.inf
    if not math.isfinite(residual):
        raise ValueError(f"the polynomial's value at {shown} lies past the float range")
    return residual, mult or None


@dataclass(frozen=True)
class RootSet:
    """Roots with multiplicities; count is the number of distinct roots."""

    roots: tuple[tuple[object, int, float], ...]  # (value, multiplicity, |p(value)|)

    @property
    def count(self) -> int:
        return len(self.roots)

    def values(self) -> list:
        return [r[0] for r in self.roots]

    def to_json(self) -> dict:
        out = [{"value": json_scalar(value), "mult": mult, "residual": residual}
               for value, mult, residual in self.roots]
        return {"roots": out, "tau": self.count}


def json_scalar(v):
    """A JSON value for a number: a float when its imaginary part is 0,
    else {"re": ..., "im": ...}."""
    z = complex(v)
    return z.real if z.imag == 0 else {"re": z.real, "im": z.imag}


# ---------------------------------------------------------------------------
# serialization: "pi/2, -pi^2, 0, 2" is 2x^3 - pi^2 x + pi/2

_NUMBER = re.compile(r"^\d+(\.\d+)?$")
_DIGIT_RUN = re.compile(r"\d[\d_]*")


def _judge_literal(run: str) -> None:
    """Refuse a run of digits (an optional sign, underscores between
    digits) before int() reads it: ResourceLimit when its significant
    digits alone put it past EXACT_BITS_CAP, and ValueError when it is
    longer than the interpreter converts (sys.get_int_max_str_digits)."""
    digits = run.lstrip("+-").replace("_", "")
    if len(digits.lstrip("0")) >= _CAP_DIGITS:
        raise ResourceLimit(f"a literal of {len(digits)} digits exceeds the "
                            f"{EXACT_BITS_CAP}-bit cap on exact coefficients")
    limit = sys.get_int_max_str_digits()
    if limit and len(digits) > limit:
        raise ValueError(f"a literal of {len(digits)} digits is longer than the "
                         f"{limit} digits an integer literal may have")


def _int_literal(run: str) -> int:
    """int(run), for a run of digits that _judge_literal admits."""
    if len(run) > _LONG:
        _judge_literal(run)
    return int(run)


def _parse_atom(tok: str):
    if tok == "pi":
        return math.pi
    if _NUMBER.match(tok):
        return _int_literal(tok) if "." not in tok else float(tok)
    m = re.match(r"^pi\^(\d+)$", tok)
    if m:
        return math.pi ** _int_literal(m.group(1))
    m = re.match(r"^(\d+(\.\d+)?)\^(\d+)$", tok)
    if m:
        exponent = _int_literal(m.group(3))
        if "." in m.group(1):
            return float(m.group(1)) ** exponent
        base = _int_literal(m.group(1))
        # base < 2^bits, so the power needs at most exponent * bits bits
        if exponent * base.bit_length() > EXACT_BITS_CAP:
            raise ResourceLimit(f"{tok!r} exceeds the {EXACT_BITS_CAP}-bit cap on exact coefficients")
        return base ** exponent
    raise ValueError(f"bad coefficient factor {tok!r}")


def _capped(text: str, x):
    """x itself, or ResourceLimit when x is exact (an int or a Fraction) and
    over EXACT_BITS_CAP bits of numerator plus denominator."""
    if not isinstance(x, float) and x.numerator.bit_length() + x.denominator.bit_length() > EXACT_BITS_CAP:
        raise ResourceLimit(f"{text!r} exceeds the {EXACT_BITS_CAP}-bit cap on exact coefficients")
    return x


def _fraction(x):
    """x as an operand wherever it does not meet another int: an int as a
    Fraction, so it meets a Fraction, a float or a zero divisor as it did
    when every exact atom was one, errors and their messages included."""
    return Fraction(x) if type(x) is int else x


def parse_scalar(text: str):
    """One coefficient: products/quotients of numbers and pi powers.

    An integer token is read as an int, and two ints combine as ints: a
    product as their product, a quotient as one Fraction(p, q).  The value
    is a Fraction when exact, else a float.  Raises ValueError on
    malformed text, a zero divisor, a float overflow or a literal longer
    than int() reads, and ResourceLimit on an exact literal, power,
    product or quotient over EXACT_BITS_CAP bits.
    """
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
            v = _parse_atom(pieces[0])
            for den in pieces[1:]:
                d = _parse_atom(den)
                v = _capped(text, Fraction(v, d) if type(v) is int is type(d) and d
                            else _fraction(v) / _fraction(d))
            if value is not None:
                v = _capped(text, value * v if type(value) is int is type(v)
                            else _fraction(value) * _fraction(v))
            value = v
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"coefficient {text!r} has no finite value: {exc}") from None
    if isinstance(value, float):
        return sign * value
    return _fraction(value if sign > 0 else -value)


def parse_poly_text(text: str) -> Poly:
    """Comma-separated low-to-high coefficients; any pi or decimal point
    makes the whole polynomial complex-kind, otherwise it is rational."""
    parts = [p for p in text.split(",")]
    if not parts or not text.strip():
        raise ValueError("empty polynomial text")
    values = [parse_scalar(p) for p in parts]
    if all(isinstance(v, Fraction) for v in values):
        return poly(values, RATIONAL)
    try:
        return poly(values, COMPLEX)
    except OverflowError as exc:  # an exact coefficient beyond the float range
        raise ValueError(f"coefficient too large for a float polynomial: {exc}") from None


def format_poly_text(p: Poly) -> str:
    if not p.coeffs:
        return "0"
    toks = []
    for c in p.coeffs:
        if p.kind == RATIONAL:
            toks.append(str(c))
        else:
            c = complex(c)
            toks.append(repr(c.real) if c.imag == 0 else repr(c))
    return ", ".join(toks)


def poly_to_json(p: Poly) -> dict:
    return {"coeffs": [str(c) if p.kind == RATIONAL else repr(complex(c))
                       for c in p.coeffs],
            "kind": p.kind}


def _json_fraction(c) -> Fraction:
    """An exact JSON coefficient such as 3, "3/4" or "1e3".

    A zero divisor is a ValueError.  A long run of digits is judged
    (_judge_literal) and an exponent is judged before Fraction computes
    10^exponent, and the value is held to EXACT_BITS_CAP.
    """
    if isinstance(c, str) and len(c) > _LONG:
        for run in _DIGIT_RUN.findall(c):
            _judge_literal(run)
    exponent = re.search(r"[eE]([-+]?[\d_]+)\s*$", c) if isinstance(c, str) else None
    if exponent and abs(int(exponent.group(1))) > EXACT_BITS_CAP:
        raise ResourceLimit(f"{c!r} exceeds the {EXACT_BITS_CAP}-bit cap on exact coefficients")
    try:
        return _capped(c, Fraction(c))
    except ZeroDivisionError:
        raise ValueError(f"coefficient {c!r} divides by zero") from None


def poly_from_json(doc: dict) -> Poly:
    if not isinstance(doc, dict) or not isinstance(doc.get("coeffs"), list) or "kind" not in doc:
        raise ValueError('polynomial JSON must be {"coeffs": [...], "kind": ...}')
    kind = doc["kind"]
    if kind == RATIONAL:
        # a JSON float or bool is not an exact value; "3/4" and "0.1" are
        for c in doc["coeffs"]:
            if isinstance(c, bool) or not isinstance(c, (int, str)):
                raise ValueError(f"rational coefficients are integers or strings, got {c!r}")
        return poly([_json_fraction(c) for c in doc["coeffs"]], RATIONAL)
    if kind == COMPLEX:
        return poly([complex(str(c).replace(" ", "")) for c in doc["coeffs"]], COMPLEX)
    raise ValueError(f"unknown coefficient kind {kind!r}")
