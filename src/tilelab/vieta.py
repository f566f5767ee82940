"""Root finding by factorization-shape enumeration and coefficient matching.

A degree-d target is matched against candidate shapes

    c * (x - r_1)^m_1 * ... * (x - r_k)^m_k * q(x)

where q is monic and must have no real roots; complex mode factors
completely, so its shapes have no q.  Shapes are
enumerated in a fixed order, each one induces a system of coefficient
equations in the unknowns (r, c, q), and each system goes through an exact
linear presolve followed by damped Gauss-Newton from a deterministic battery
of starts.  The first two starts of a shape run alone; the rest run in
lockstep, as the rows of one array, with one stacked least-squares solve
a round, and each row keeps the bits, counts and work charges it would
have alone.  The coefficient map and its Jacobian are written once, for
one start or a stack of rows; only the convolution changes with the
array's rank and the mode (VietaSystem._stages).  Both keep one rule, for
one start and for each row of a stack alike: every finite entry has the
bits of the plain expansion by np.convolve, and an entry is not finite
exactly where the plain expansion's is not, since Gauss-Newton reads
nothing but finiteness there.  A case can end three
ways: solved, inconsistent (exact contradiction, or every start ran to a
stationary point or a constraint violation), or no-convergence (anything
less conclusive).  Real-mode answers are only accepted when the independent
Sturm oracle agrees, so a wrong shape can cost time but never produce a
wrong root set.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .poly import RATIONAL, Poly, RootSet, complex_poly, eval_horner, float_coeffs, json_scalar
from .search import ResourceLimit
from .sturm import count_real_roots_in, oracle_real_roots

REAL_MODE = "real"
COMPLEX_MODE = "complex"
# the shape order of each mode when none is given (see enumerate_patterns)
DEFAULT_ORDER = {REAL_MODE: "merged", COMPLEX_MODE: "generic"}

SOLVED = "solved"
INCONSISTENT = "inconsistent"
NO_CONVERGENCE = "no_convergence"

# golden-ratio conjugate: start parameters fill the unit interval evenly
_PHI = 0.6180339887498949
# complex starts turn by sqrt(2) - 1 each; a step of _PHI^2 would cancel the
# t * _PHI above (_PHI + _PHI^2 = 1) and leave every start at one angle
_TURN = math.sqrt(2) - 1

# Gauss-Newton iterations one find_roots_report call may spend, a start
# counting as at least one; past it the search raises ResourceLimit
GN_WORK_CAP = 100_000
TOL = 1e-10        # max-norm bound on the coefficient residual
MAX_ITERS = 100    # Gauss-Newton iterations per start
STARTS = 32        # deterministic multi-start battery size
# The first starts of a shape run alone (_gauss_newton), the rest in
# lockstep (_runs).  On roots-find seeds 21-23, 239 of the 261 shapes
# that Gauss-Newton solves accept at start 1 or 2, where a block would run
# rows for starts that are never used; the 184 that fail run all 32.  On
# seed 21 (best of 3), no solo start takes 2.27 s in all with a 7.5 ms
# median request, one 2.32 s and 7.6 ms, two 2.02 s and 2.3 ms and three
# 2.49 s and 3.0 ms.
_SOLO_STARTS = 2

# shapes one enumeration may list (degree 36 has 84 250 in real mode, degree
# 37 has 102 793); past it enumerate_patterns raises ResourceLimit
SHAPE_CAP = 100_000


class DegreeMismatch(ValueError):
    """Pattern total does not equal the target degree."""


class NoPatternSolved(Exception):
    """Every enumerated case failed; carries the per-case outcomes."""

    def __init__(self, outcomes: tuple["CaseOutcome", ...]):
        self.outcomes = outcomes
        detail = "; ".join(f"{o.pattern.label()}: {o.status}" for o in outcomes)
        super().__init__(f"no factorization shape solved ({detail})")


@dataclass(frozen=True)
class MultiplicityPattern:
    """Root multiplicities (nonincreasing) plus the degree of the monic cofactor."""

    mults: tuple[int, ...]
    cofactor_degree: int = 0

    def __post_init__(self):
        object.__setattr__(self, "mults", tuple(self.mults))
        # type() rather than isinstance(): a bool is an int, but never a
        # multiplicity or a degree
        if any(type(m) is not int or m < 1 for m in self.mults):
            raise ValueError(f"multiplicities must be ints of at least 1, got {self.mults!r}")
        if list(self.mults) != sorted(self.mults, reverse=True):
            raise ValueError("multiplicities must be nonincreasing")
        e = self.cofactor_degree
        if type(e) is not int or e < 0:
            raise ValueError(f"cofactor degree must be a nonnegative int, got {e!r}")
        if not self.mults and e == 0:
            raise ValueError("pattern needs at least one root or a cofactor")

    @property
    def k(self) -> int:
        return len(self.mults)

    @property
    def total(self) -> int:
        return sum(self.mults) + self.cofactor_degree

    def label(self) -> str:
        parts = ",".join(str(m) for m in self.mults)
        if self.cofactor_degree:
            tail = f"q{self.cofactor_degree}"
            return f"{parts}+{tail}" if parts else tail
        return parts


def _partitions_desc(s: int, cap: int | None = None):
    """Integer partitions of s as nonincreasing tuples, descending lex."""
    if s == 0:
        yield ()
        return
    if cap is None or cap > s:
        cap = s
    for first in range(cap, 0, -1):
        for rest in _partitions_desc(s - first, first):
            yield (first,) + rest


def enumerate_patterns(d: int, mode: str = REAL_MODE, order: str | None = None) -> list[MultiplicityPattern]:
    """All candidate shapes for degree d, in a deterministic order.

    Complex mode factors completely, so the multiplicities always sum to d.
    Real mode also admits a root-free monic cofactor of degree d - s for
    every s in {d, d-2, d-3, ..., 0}; degree 1 is excluded because a monic
    real linear factor is itself a real root.  Groups are ordered by
    descending s.  Within a group, "merged" order puts fewer distinct roots
    first (descending lex) and "generic" order puts the all-simple shape
    first (ascending lex).  The default is merged order in real mode and
    generic order in complex mode.  More than SHAPE_CAP shapes raise
    ResourceLimit before the rest are built.
    """
    # type() rather than isinstance(): a bool is an int, but never a degree
    if type(d) is not int:
        raise ValueError(f"degree must be an int, got {d!r}")
    if d < 1:
        raise ValueError("degree must be at least 1")
    if mode not in (REAL_MODE, COMPLEX_MODE):
        raise ValueError(f"unknown mode {mode!r}")
    if order is None:
        order = DEFAULT_ORDER[mode]
    if order not in ("merged", "generic"):
        raise ValueError(f"unknown order {order!r}")
    sums = [d] if mode == COMPLEX_MODE else [d] + list(range(d - 2, -1, -1))
    out: list[MultiplicityPattern] = []
    for s in sums:
        group = list(islice(_partitions_desc(s), SHAPE_CAP + 1 - len(out)))
        if len(out) + len(group) > SHAPE_CAP:
            raise ResourceLimit(f"degree {d} has more than {SHAPE_CAP} shapes in {mode} mode")
        if order == "generic":
            group.reverse()
        out.extend(MultiplicityPattern(p, d - s) for p in group)
    return out


@dataclass(frozen=True)
class VietaSystem:
    """Coefficient equations for one shape against one target.

    Unknown vector layout: [r_1 .. r_k, c, b_0 .. b_{e-1}] with the monic
    cofactor q(x) = x^e + b_{e-1} x^{e-1} + ... + b_0.
    """

    pattern: MultiplicityPattern
    target: Poly
    mode: str

    @cached_property
    def degree(self) -> int:
        return self.pattern.total

    @cached_property
    def k(self) -> int:
        return self.pattern.k

    @cached_property
    def cofactor_degree(self) -> int:
        return self.pattern.cofactor_degree

    @cached_property
    def n_unknowns(self) -> int:
        return self.k + 1 + self.cofactor_degree

    @cached_property
    def dtype(self):
        return np.float64 if self.mode == REAL_MODE else np.complex128

    @cached_property
    def _one(self) -> np.ndarray:
        # the product's empty start; read-only, so every call can share it
        one = np.ones(1, dtype=self.dtype)
        one.flags.writeable = False
        return one

    @cached_property
    def tvec(self) -> np.ndarray:
        """The target's coefficients, low to high, in the mode's dtype
        (read-only)."""
        real = self.mode == REAL_MODE
        tvec = np.array(float_coeffs(self.target, real), dtype=self.dtype)
        tvec.flags.writeable = False
        return tvec

    def _split(self, u: np.ndarray):
        k = self.k
        return u[:k], u[k], u[k + 1:]

    def _stages(self, u: np.ndarray):
        """The pieces of the shape's expansion at u, one start or a stack of
        rows: (one, lins, times, conv).  one is the empty product, lins[i]
        the linear factor x - r_i, times(a, lins[i]) multiplies by it and
        conv(a, b) convolves, row by row for a stack, each as np.convolve
        on one start: bit for bit in every finite entry, and not finite in
        the same entries.  Real rows share each stage's slices
        (_times_linear, _convolve_rows); complex rows share each stage's
        stacked dot products (_convolve_complex), since slices change the
        bits of a complex product.

        lins[i] is [0.0 - r_i, 1], which is np.convolve([1], [-r_i, 1]) bit
        for bit, so a product starts at its first factor; no later product
        tells it from [-r_i, 1], since every sum starts from 0.0."""
        k, dtype = self.k, self.dtype
        if u.ndim == 1:
            conv = np.convolve
            lins = [np.array([0.0 - u[i], 1.0], dtype=dtype) for i in range(k)]
            return self._one, lins, conv, conv
        lins = np.ones((k, len(u), 2), dtype=dtype)
        lins[:, :, 0] = 0.0 - u[:, :k].T
        one = np.ones((len(u), 1), dtype=dtype)
        if self.mode == REAL_MODE:
            return one, lins, _times_linear, _convolve_rows
        return one, lins, _convolve_complex, _convolve_complex

    def _lead(self, u: np.ndarray):
        """c: a scalar for one start, a column for a stack of rows."""
        return u[self.k] if u.ndim == 1 else u[:, self.k, None]

    def _cofactor(self, u: np.ndarray, one: np.ndarray) -> np.ndarray:
        """The monic cofactor [b_0 .. b_{e-1}, 1], a row per row of u."""
        return np.concatenate([u[..., self.k + 1:], one], axis=-1)

    def _product(self, u: np.ndarray) -> np.ndarray:
        """Monic part: prod (x - r_i)^{m_i} * q(x), coefficients low to high,
        a row of them for each row of a stack."""
        one, lins, times, conv = self._stages(u)
        acc = one
        for lin, m in zip(lins, self.pattern.mults):
            acc = lin if acc is one else times(acc, lin)
            for _ in range(m - 1):
                acc = times(acc, lin)
        if self.cofactor_degree:
            acc = conv(acc, self._cofactor(u, one))
        return acc

    def coeffs(self, u: np.ndarray) -> np.ndarray:
        """Coefficient vector of the expanded shape at unknowns u, a row of
        them for each row of a stack."""
        u = np.asarray(u, dtype=self.dtype)
        return self._lead(u) * self._product(u)

    def residual(self, u: np.ndarray) -> np.ndarray:
        return self.coeffs(u) - self.tvec

    def jacobian(self, u: np.ndarray) -> np.ndarray:
        """Analytic Jacobian of the coefficient map, one column per unknown,
        a matrix of them for each row of a stack."""
        k = self.k
        u = np.asarray(u, dtype=self.dtype)
        one, lins, times, conv = self._stages(u)
        c = self._lead(u)
        cols = np.zeros(u.shape[:-1] + (self.degree + 1, self.n_unknowns), dtype=self.dtype)

        def mul(a, b):
            # conv(a, b) without the empty product's stage: np.convolve([1], b)
            # is b + 0.0, bit for bit where b is finite and not finite where
            # b is not (a complex inf may turn to nan); only finiteness is
            # read from a Jacobian that is not finite
            return b + 0.0 if a is one else a + 0.0 if b is one else conv(a, b)

        factors = []  # (x - r_i)^{m_i}, its stub (x - r_i)^{m_i - 1}, m_i
        for lin, m in zip(lins, self.pattern.mults):
            stub, f = one, lin  # mul(one, lin) (see _stages)
            for _ in range(m - 1):
                stub, f = f, times(f, lin)
            factors.append((f, stub, m))
        # prefix[i] = f_0 * ... * f_{i-1}; prefix[k] is the whole root product
        prefix = [one]
        for f, _, _ in factors:
            prefix.append(mul(prefix[-1], f))
        q = None
        full = prefix[-1]
        if self.cofactor_degree:
            q = self._cofactor(u, one)
            full = mul(full, q)
        cols[..., : full.shape[-1], k] = full  # d/dc
        for i, (_, stub, m) in enumerate(factors):
            # d/dr_i of (x - r_i)^m is -m (x - r_i)^{m-1}
            part = prefix[i]
            for f_j, _, _ in factors[i + 1:]:
                part = mul(part, f_j)
            col = -m * c * mul(part, stub)
            if q is not None:
                col = conv(col, q)
            cols[..., : col.shape[-1], i] = col
        if q is not None:
            base = c * prefix[-1]
            for t in range(self.cofactor_degree):
                # d/db_t multiplies the root product by x^t
                cols[..., t : t + base.shape[-1], k + 1 + t] = base
        return cols


def _times_linear(a: np.ndarray, lin: np.ndarray) -> np.ndarray:
    """Row i is np.convolve(a[i], lin[i]), bit for bit, for real rows and a
    monic linear lin[i]: np.convolve adds each coefficient's products to
    0.0, and with one of the two products exact, slices keep the bits."""
    out = np.zeros((len(a), a.shape[1] + 1))
    out[:, :-1] += a * lin[:, :1]
    out[:, 1:] += a
    return out


def _convolve_complex(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row i is np.convolve(a[i], b[i]) for complex rows: bit for bit in
    every finite entry, and not finite in the same entries.

    np.convolve puts the wider operand first (equal widths keep their
    order), reverses the other into a contiguous copy and takes each output
    coefficient as one complex dot product of contiguous runs, which numpy
    hands to BLAS (zdotu).  A stacked (rows, 1, n) @ (rows, n, 1) matmul
    hands each row's product to the same dot, so one matmul per output
    coefficient keeps the bits of every finite entry.  An entry whose dot
    meets an inf or a nan, or overflows, is not finite either way, though
    matmul may pair its nan and inf components otherwise.
    """
    x, y = (b, a) if b.shape[1] > a.shape[1] else (a, b)
    n1, n2 = x.shape[1], y.shape[1]
    x = np.ascontiguousarray(x)[:, None, :]
    rev = y[:, ::-1, None].copy()
    out = np.empty((len(a), n1 + n2 - 1), dtype=np.result_type(a, b))
    for k in range(n1 + n2 - 1):
        i0, i1 = max(0, k - n2 + 1), min(k, n1 - 1) + 1
        j0 = n2 - 1 - k + i0
        out[:, k] = (x[:, :, i0:i1] @ rev[:, j0:j0 + i1 - i0])[:, 0, 0]
    return out


def _convolve_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row i is np.convolve(a[i], b[i]), bit for bit, for real rows.

    Against one term v, np.convolve is a * v + 0.0, and against a monic
    linear factor it is _times_linear.  Longer pairs run np.convolve row by
    row into rows of the product's width, which an empty stack keeps too:
    slices change the bits of a longer real sum, and a stacked matmul does
    too, since numpy computes a real convolution's middle coefficients in
    its own loop rather than by BLAS dots (_convolve_complex keeps the bits
    of complex rows only).
    """
    for x, y in ((a, b), (b, a)):
        if y.shape[1] == 1:
            return x * y + 0.0
        if y.shape[1] == 2 and (y[:, 1] == 1.0).all():
            return _times_linear(x, y)
    return np.fromiter(map(np.convolve, a, b), (float, a.shape[1] + b.shape[1] - 1), len(a))


def _sumsq_rows(X: np.ndarray) -> np.ndarray:
    """Row i is float(np.vdot(X[i], X[i]).real), bit for bit: a stacked
    matmul keeps the dot product's bits, where einsum and sum do not.  X
    must be C-ordered to keep a one-start f's bits: np.vdot rounds a
    strided row otherwise than a contiguous one.  Some BLAS kernels
    (OpenBLAS's Prescott ddot) also round a real row that starts off a
    16-byte boundary otherwise than a fresh vector, so the rows of a real
    stack of odd width are first copied into rows of even width."""
    if X.dtype == np.float64 and X.flags.c_contiguous and X.shape[1] % 2:
        even = np.empty((len(X), X.shape[1] + 1))
        even[:, :-1] = X
        return (even[:, None, :-1] @ even[:, :-1, None])[:, 0, 0]
    return (X.conj()[:, None, :] @ X[:, :, None])[:, 0, 0].real


def _norm_rows(X: np.ndarray) -> np.ndarray:
    """Row i is np.linalg.norm(X[i]), bit for bit: numpy takes a complex
    vector's norm as sqrt(re . re + im . im)."""
    if np.iscomplexobj(X):
        return np.sqrt(_sumsq_rows(X.real) + _sumsq_rows(X.imag))
    return np.sqrt(_sumsq_rows(X))


def _lstsq_failed(err, flag):
    raise LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq_rows(J: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Row i is numpy's lstsq(J[i], rhs[i], rcond=None)[0], bit for bit,
    from one call of the gufunc that lstsq wraps (lstsq itself refuses a
    stack); a 2-d J with a 1-d rhs is one row.  The signature, rcond and
    errstate are lstsq's, so a LAPACK failure raises LinAlgError under any
    outer errstate.  Every entry must be finite: on a NaN, LAPACK prints
    DLASCL errors and may never return.
    """
    m, n = J.shape[-2:]
    signature = "DDd->Ddid" if np.iscomplexobj(J) else "ddd->ddid"
    with np.errstate(call=_lstsq_failed, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        x = _umath_linalg.lstsq(J, rhs[..., None], np.finfo(J.dtype).eps * max(m, n),
                                signature=signature)[0]
    return x[..., 0]


def build_system(pattern: MultiplicityPattern, target: Poly, mode: str = REAL_MODE) -> VietaSystem:
    """The coefficient equations of one shape against one target.

    This is the one gate on which shapes a mode admits, and it has two
    rules: complex mode factors completely, so its shapes have no
    cofactor; real mode admits no linear cofactor, since a monic real
    linear factor is itself a real root.  The target must also lie in the
    mode's coefficient domain (VietaSystem.tvec).  Every violation is a
    ValueError.
    """
    d = target.degree
    if d is None or d < 1:
        raise ValueError("target must have degree at least 1")
    if mode not in (REAL_MODE, COMPLEX_MODE):
        raise ValueError(f"unknown mode {mode!r}")
    if pattern.total != d:
        raise DegreeMismatch(f"pattern totals {pattern.total}, target degree is {d}")
    if mode == COMPLEX_MODE and pattern.cofactor_degree:
        raise ValueError("complex mode factors completely: a shape has no cofactor")
    if pattern.cofactor_degree == 1:
        raise ValueError("a monic real linear cofactor is itself a real root")
    system = VietaSystem(pattern, target, mode)
    system.tvec  # validates the coefficient domain
    return system


@dataclass(frozen=True)
class CaseOutcome:
    """Result of attacking one shape: status plus the solve trace."""

    pattern: MultiplicityPattern
    status: str
    roots: tuple = ()                 # (value, multiplicity) pairs when solved
    leading: complex | float | None = None
    cofactor: tuple = ()              # monic cofactor coefficients, low to high
    residual: float | None = None     # max-norm coefficient residual
    reason: str | None = None
    iterations: int = 0               # Gauss-Newton iterations spent in total
    starts_used: int = 0
    collision: tuple | None = None    # (merged pattern, merged values) hint

    def to_json(self) -> dict:
        out = {
            "case": self.pattern.label(),
            "status": self.status,
            "iterations": self.iterations,
            "starts_used": self.starts_used,
        }
        if self.status == SOLVED:
            out["roots"] = [
                {"value": json_scalar(v), "mult": m} for v, m in self.roots
            ]
            out["residual"] = self.residual
            if self.cofactor:
                out["cofactor"] = [json_scalar(v) for v in self.cofactor]
        if self.reason:
            out["reason"] = self.reason
        return out


def _presolve(system: VietaSystem) -> CaseOutcome | None:
    """Exact stage: cases fully determined by linear coefficient equations.

    The leading equation always forces c = a_d.  With a single root and no
    cofactor the next equation forces the root, and every remaining
    coefficient becomes a pure check.  With no roots at all the cofactor is
    the whole monic part.  Anything else is left to the numeric stage.
    """
    pat = system.pattern
    d = system.degree
    exact = system.target.kind == RATIONAL
    a = system.target.coeffs if exact else system.tvec
    scale = float(np.max(np.abs(system.tvec)))

    if pat.k == 0:
        # q = p / a_d; solved iff q has no real roots (only real mode has q)
        c = a[d]
        b = tuple(v / c for v in a[:d])
        count = _cofactor_real_roots(b)
        if count:
            return CaseOutcome(
                pat, INCONSISTENT,
                reason=f"cofactor must be root-free but has {count} real root(s)",
            )
        return CaseOutcome(
            pat, SOLVED, roots=(),
            leading=_native(c), cofactor=tuple(_native(v) for v in b),
            residual=0.0,
        )

    if pat.k == 1 and pat.cofactor_degree == 0:
        # c (x - r)^m: c = a_d, then a_{d-1} = -c m r pins r
        m = pat.mults[0]
        c = a[d]
        # c * m may overflow where a_{d-1} / c does not; only then divide
        # first, which rounds differently
        r = -a[d - 1] / (c * m) if exact or cmath.isfinite(c * m) else -(a[d - 1] / c) / m
        pred = [c * math.comb(m, j) * (-r) ** (m - j) for j in range(m + 1)] if exact else None
        if not exact:
            rr = complex(r)
            try:
                pred = [complex(c) * math.comb(m, j) * (-rr) ** (m - j) for j in range(m + 1)]
            except OverflowError:
                pass
            if pred is None or not cmath.isfinite(rr):
                # no float target can match a coefficient past the float range
                return CaseOutcome(
                    pat, INCONSISTENT,
                    reason=(
                        f"with c={_fmt(c)} the x^{d-1} equation forces r={_fmt(r)}, "
                        f"but then r^{m} lies past the float range"
                    ),
                )
        for i in range(d + 1):
            want, got = pred[i], a[i]
            # a NaN difference is a mismatch too
            bad = (want != got) if exact else not abs(complex(want) - complex(got)) <= 1e-9 * max(1.0, scale)
            if bad:
                return CaseOutcome(
                    pat, INCONSISTENT,
                    reason=(
                        f"with c={_fmt(c)} the x^{d-1} equation forces r={_fmt(r)}, "
                        f"but then the x^{i} coefficient must be {_fmt(want)}, not {_fmt(got)}"
                    ),
                )
        rv = system.dtype(r).item()  # a float in real mode, a complex in complex mode
        resid = max(abs(complex(w) - complex(g)) for w, g in zip(pred, a))
        return CaseOutcome(
            pat, SOLVED, roots=((rv, m),), leading=_native(c), residual=float(resid),
        )
    return None


def _native(v):
    if isinstance(v, Fraction):
        return float(v)
    z = complex(v)
    return z.real if z.imag == 0 else z


def _fmt(v) -> str:
    if isinstance(v, Fraction):
        return str(v)
    z = complex(v) + 0.0  # drop negative zero
    return f"{z.real:.6g}" if z.imag == 0 else f"{z.real:.6g}{z.imag:+.6g}j"


def _start_battery(system: VietaSystem):
    """Deterministic root values spread over the root bound disk, one list
    of k at a time as the solver asks for them."""
    tvec = system.tvec
    lead = abs(complex(tvec[-1]))
    radius = 1.0 + max(abs(complex(v)) for v in tvec[:-1]) / lead
    k = system.k
    for t in range(STARTS):
        fracs = [math.modf((2 * i + 1) / (2 * k) + t * _PHI)[0] for i in range(k)]
        if system.mode == REAL_MODE:
            yield [radius * math.cos(math.pi * frac) for frac in fracs]
        else:
            rho = 0.3 + 0.7 * ((t % 5) + 1) / 5.0
            yield [radius * rho * cmath.exp(2j * math.pi * (frac + t * _TURN)) for frac in fracs]


def _start(system: VietaSystem, roots) -> np.ndarray:
    """The unknown vector that starts Gauss-Newton at the k root values:
    c = a_d, and the cofactor at x^e (all b zero).  This is where a start
    enters the mode's domain: real mode takes the values' real parts."""
    u = np.zeros(system.n_unknowns, dtype=system.dtype)
    u[:system.k] = np.real(roots) if system.mode == REAL_MODE else roots
    u[system.k] = system.tvec[-1]
    return u


class _WorkMeter:
    """Gauss-Newton work left for one request, out of GN_WORK_CAP."""

    def __init__(self):
        self.left = GN_WORK_CAP

    def spend(self, units: int) -> None:
        self.left -= units
        if self.left < 0:
            raise ResourceLimit(
                f"root search passed the cap of {GN_WORK_CAP} Gauss-Newton iterations "
                "(a start counts as at least one)")


# the backtracking line search tries lam = 1 and then these 29 halvings
# (each one exact), in order
_HALVINGS = tuple(0.5 ** j for j in range(1, 30))
_HALVING_COLUMN = np.array(_HALVINGS)[:, None]
# a solo start (_gauss_newton) tries all 29 halvings in one exact call
# (_halving_trials) only when lam = 1 raised f at least this many times: the
# call costs about three to seven one-by-one steps, and below this ratio a
# halving or two usually passes; a block's rows always make the call
_BATCH_RATIO = 64.0


def _trial(system: VietaSystem, u, lam: float, step):
    """The exact kernel at u + lam * step: (candidate, residual, f2)."""
    cand = u + lam * step
    r2 = system.residual(cand)
    return cand, r2, float(np.vdot(r2, r2).real)


def _halving_candidates(u, step) -> np.ndarray:
    """The candidates of _halving_trials: row j is u + _HALVINGS[j] * step,
    bit for bit as _trial makes it; given rows of u and step, row 29 r + j
    is that of row r.

    Each lam multiplies step as a broadcast scalar, as in _trial; with the
    operands the other way round, numpy's complex multiply may round
    differently (FMA or not), down to the sign of an underflowed zero.
    """
    cands = u[..., None, :] + _HALVING_COLUMN * step[..., None, :]
    return cands.reshape(-1, cands.shape[-1])


def _halving_trials(system: VietaSystem, U, step):
    """The exact kernel at all 29 halvings of each row of U and step (or of
    one start) in one call: (candidates, residuals, f2), where candidate
    and residual 29 r + j belong to f2[r, j], each as _trial gives it.
    The candidates keep their bits; a residual keeps the bits of every
    finite entry and is not finite in the same entries (see _stages), and
    _sumsq_rows keeps np.vdot's bits on these C-ordered rows.  So f2 has
    _trial's bits where it is finite and is not finite where _trial's is
    not, and the first halving with f2 < f is the same."""
    cands = _halving_candidates(U, step)
    r2s = system.residual(cands)
    return cands, r2s, _sumsq_rows(r2s).reshape(-1, len(_HALVINGS))


def _gauss_newton(system: VietaSystem, u0: np.ndarray):
    """Damped Gauss-Newton; returns (u, max-residual, status, iterations).

    status is "converged", "stalled" (no descent direction made progress,
    i.e. a stationary point of the squared residual, or the residual or
    Jacobian is not finite), or "maxiter".  The caller charges the start
    max(1, iterations) units of work (_runs).  The line search accepts the
    first of lam = 1 and its 29 halvings whose exact residual is smaller.
    The halvings run one by one, or in one exact call (_halving_trials)
    when lam = 1 raised a finite f at least _BATCH_RATIO-fold.
    """
    u = np.array(u0, dtype=system.dtype)
    res = system.residual(u)
    f = float(np.vdot(res, res).real)
    if float(np.max(np.abs(res))) < TOL:
        return u, float(np.max(np.abs(res))), "converged", 0
    # an accepted step has f2 < f, so a finite residual, and res is only
    # replaced by accepted ones
    finite_res = bool(np.isfinite(res).all())
    status = "maxiter"
    iters = 0
    for it in range(MAX_ITERS):
        iters = it + 1
        jac = system.jacobian(u)
        if not (finite_res and np.isfinite(jac).all()):
            # LAPACK would print DLASCL errors and may never return
            status = "stalled"
            break
        step = _lstsq_rows(jac, -res)
        if not np.all(np.isfinite(step)):
            status = "stalled"
            break
        lam = 1.0
        cand, r2, f2 = _trial(system, u, lam, step)
        if not f2 < f:
            if math.isfinite(f) and f2 >= _BATCH_RATIO * f:
                cands, r2s, f2s = _halving_trials(system, u, step)
                # the first halving that passes, if any; its row is copied,
                # since a row of the batch may start off a 16-byte boundary
                # (_sumsq_rows)
                tries = [(_HALVINGS[j], cands[j].copy(), r2s[j], float(f2s[0, j]))
                         for j in np.flatnonzero(f2s[0] < f)[:1]]
            else:
                tries = ((lam, *_trial(system, u, lam, step)) for lam in _HALVINGS)
            for lam, cand, r2, f2 in tries:
                if f2 < f:
                    break
            else:
                status = "stalled"
                break
        u, res, f = cand, r2, f2
        if float(np.max(np.abs(res))) < TOL:
            status = "converged"
            break
        if float(np.linalg.norm(lam * step)) <= 1e-14 * (1.0 + float(np.linalg.norm(u))):
            status = "stalled"
            break
    return u, float(np.max(np.abs(res))), status, iters


def _line_search_rows(system: VietaSystem, U, RES, F, step, rows) -> np.ndarray:
    """_gauss_newton's line search for each row listed, in lockstep: each
    row takes the first lam, in the same order, whose exact residual is
    smaller.

    Every row tries lam = 1 in one call of the exact kernel, and every row
    it rejects tries all 29 halvings in one more (_halving_trials).
    Rows that find a step move in place (U, RES and F).  Returns each
    row's lam, 0 where none passed, in the rows' dtype: numpy's complex
    multiply by a float column may round an underflowed zero otherwise
    than by a scalar.
    """
    lam = np.zeros(len(U), dtype=U.dtype)
    if not rows.size:  # no row to try: skip the kernel calls
        return lam
    cand = U[rows] + np.ones((len(rows), 1), dtype=U.dtype) * step[rows]
    r2 = system.residual(cand)
    f2 = _sumsq_rows(r2)
    won = f2 < F[rows]
    U[rows[won]], RES[rows[won]], F[rows[won]], lam[rows[won]] = cand[won], r2[won], f2[won], 1.0
    rows = rows[~won]
    if not rows.size:
        return lam
    # row r's halvings are candidates 29 r to 29 r + 28, in order
    cand, r2, f2 = _halving_trials(system, U[rows], step[rows])
    passed = f2 < F[rows, None]
    found = passed.any(axis=1)
    j = passed.argmax(axis=1)[found]  # each row's first passing halving
    won, pick = rows[found], np.flatnonzero(found) * len(_HALVINGS) + j
    U[won], RES[won], F[won], lam[won] = cand[pick], r2[pick], f2[found, j], _HALVING_COLUMN[j, 0]
    return lam


def _gauss_newton_rows(system: VietaSystem, U):
    """_gauss_newton from each row of U, all in lockstep: a round is one
    coefficient map, one Jacobian and one line search (_line_search_rows)
    for every row still running.  After each round, yields
    {row: (u, residual, status, iterations)} for the rows that finished in
    it, each exactly as _gauss_newton returns it."""
    RES = system.residual(U)
    F = _sumsq_rows(RES)
    resid = np.abs(RES).max(axis=1)
    rows = np.arange(len(U))
    fin = resid < TOL
    yield {i: (U[i].copy(), float(resid[i]), "converged", 0) for i in np.flatnonzero(fin)}
    # an accepted step has f2 < f, so a finite residual (see _gauss_newton)
    OK = np.isfinite(RES).all(axis=1)
    for it in range(MAX_ITERS):
        rows, U, RES, F, OK = rows[~fin], U[~fin], RES[~fin], F[~fin], OK[~fin]
        if not rows.size:
            return
        status = np.full(len(U), "", dtype=object)
        J = system.jacobian(U)
        live = OK & np.isfinite(J).all(axis=(1, 2))
        step = np.zeros_like(U)
        step[live] = _lstsq_rows(J[live], -RES[live])
        live &= np.isfinite(step).all(axis=1)
        lam = _line_search_rows(system, U, RES, F, step, np.flatnonzero(live))
        moved = lam != 0
        resid = np.abs(RES).max(axis=1)
        status[~moved] = "stalled"
        status[moved & (resid < TOL)] = "converged"
        tiny = _norm_rows(lam[:, None] * step) <= 1e-14 * (1.0 + _norm_rows(U))
        status[moved & ~(resid < TOL) & tiny] = "stalled"
        fin = status != ""
        yield {rows[i]: (U[i].copy(), float(resid[i]), status[i], it + 1) for i in np.flatnonzero(fin)}
    yield {rows[i]: (U[i].copy(), float(resid[i]), "maxiter", MAX_ITERS)
           for i in np.flatnonzero(~fin)}


def _runs(system: VietaSystem, starts, work: _WorkMeter):
    """(u, residual, status, iterations) from each start, in order, each
    charged max(1, iterations) units of work before it is yielded.

    The first _SOLO_STARTS starts run alone; the rest run in lockstep
    blocks (_gauss_newton_rows).  A finished row waits for the rows before
    it, and rows after one the caller accepts are dropped uncharged.  A
    block takes all the starts left, up to min(STARTS, work.left) + 1 of
    them: each row costs at least one unit, so the meter runs out before
    any later row's turn.
    """
    starts = iter(starts)
    for values in islice(starts, _SOLO_STARTS):
        result = _gauss_newton(system, _start(system, values))
        work.spend(max(1, result[3]))
        yield result
    while block := [_start(system, v) for v in islice(starts, min(STARTS, work.left) + 1)]:
        waiting, turn = {}, 0
        for finished in _gauss_newton_rows(system, np.array(block)):
            waiting.update(finished)
            while turn in waiting:
                result = waiting.pop(turn)
                work.spend(max(1, result[3]))
                turn += 1
                yield result


def _check_constraints(system: VietaSystem, u: np.ndarray):
    """Returns (ok, reason, collision) for a converged candidate.

    For each root pair, the roots within the pair's gap of its midpoint form
    a cluster.  Welding the cluster onto its multiplicity-weighted centroid
    and expanding through the coefficient map shows whether the fit can tell
    those roots apart: the pair collides when the weld moves the
    coefficients by at most 10 * TOL * max(1, max|target|).  A collided
    cluster is numerically indistinguishable from one root of the summed
    multiplicity.
    """
    roots, c, b = system._split(u)
    scale = float(np.max(np.abs(system.tvec)))
    if abs(complex(c)) <= 1e-12 * max(1.0, scale):
        return False, "leading scalar collapsed to zero", None
    mults = system.pattern.mults
    fitted = system.coeffs(u)
    bound = 10.0 * TOL * max(1.0, scale)
    clusters = []
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            mid, gap = (roots[i] + roots[j]) / 2, abs(roots[i] - roots[j])
            members = [l for l in range(len(roots)) if abs(roots[l] - mid) <= gap]
            welded = u.copy()
            welded[members] = (sum(mults[l] * roots[l] for l in members)
                               / sum(mults[l] for l in members))
            if float(np.max(np.abs(system.coeffs(welded) - fitted))) <= bound:
                clusters.append(set(members))
    if clusters:
        merged = _merge_collision(system.pattern, roots, clusters)
        return False, "roots collided inside the clustering radius", merged
    if system.cofactor_degree:
        count = _cofactor_real_roots(b)
        if count:
            return False, f"cofactor acquired {count} real root(s)", None
    return True, None, None


def _cofactor_real_roots(b) -> int:
    """Distinct real roots of the monic x^e + b_{e-1} x^{e-1} + ... + b_0,
    read from floats."""
    probe = complex_poly([float(np.real(v)) for v in b] + [1.0])
    return count_real_roots_in(probe, -math.inf, math.inf)


def _merge_collision(pattern: MultiplicityPattern, roots: np.ndarray, clusters: list[set[int]]):
    """Join overlapping collided clusters and propose the merged shape, each
    group one root of summed multiplicity at its centroid, plus warm values."""
    groups: list[set[int]] = []
    for members in clusters + [{l} for l in range(len(roots))]:
        for g in [g for g in groups if g & members]:
            members = members | g
            groups.remove(g)
        groups.append(members)
    merged = []
    for group in groups:
        items = sorted(((complex(roots[l]), pattern.mults[l]) for l in group),
                       key=lambda t: (t[0].real, t[0].imag))
        tot = sum(m for _, m in items)
        merged.append((sum(v * m for v, m in items) / tot, tot))
    merged.sort(key=lambda t: (-t[1], t[0].real, t[0].imag))
    new_pat = MultiplicityPattern(tuple(m for _, m in merged), pattern.cofactor_degree)
    return new_pat, tuple(v for v, _ in merged)


def solve_case(system: VietaSystem, warm_starts: tuple = ()) -> CaseOutcome:
    """Attack one shape: exact presolve, then the multi-start numeric stage.

    Solved needs the residual under TOL plus all side constraints (distinct
    roots, nonzero leading scalar, root-free cofactor).  Inconsistent means
    an exact contradiction, or every start certifiably ran out of descent
    (stationary point) or violated a constraint.  Anything weaker, such as
    a start still moving at the iteration cap, is NoConvergence.  Work past
    GN_WORK_CAP raises ResourceLimit.

    The numeric stage runs the warm starts in order, then the STARTS
    battery.  A warm start is a sequence of k root values (real mode uses
    their real parts); like every battery start it sets c = a_d and the
    cofactor to x^e.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # see find_roots_report
        return _solve_case(system, chain(warm_starts, _start_battery(system)), _WorkMeter())


def _solve_case(system: VietaSystem, starts, work: _WorkMeter) -> CaseOutcome:
    """solve_case on a shared work meter, running exactly the starts it is
    handed (each k root values, in order) and no battery of its own.
    Handed none, it reports NoConvergence: no start is no evidence."""
    pre = _presolve(system)
    if pre is not None:
        return pre

    total_iters = 0
    starts_used = 0
    best_violation: tuple[float, str, tuple | None] | None = None
    saw_maxiter = False
    best_resid = math.inf
    for u, resid, status, iters in _runs(system, starts, work):
        starts_used += 1
        total_iters += iters
        best_resid = min(best_resid, resid)
        if status == "converged":
            ok, why, merged = _check_constraints(system, u)
            if ok:
                roots, c, b = system._split(u)
                pairs = sorted(
                    ((_native(v), m) for v, m in zip(roots, system.pattern.mults)),
                    key=lambda t: (complex(t[0]).real, complex(t[0]).imag),
                )
                return CaseOutcome(
                    system.pattern, SOLVED,
                    roots=tuple(pairs), leading=_native(c),
                    cofactor=tuple(_native(v) for v in b),
                    residual=resid, iterations=total_iters, starts_used=starts_used,
                )
            if best_violation is None or resid < best_violation[0]:
                best_violation = (resid, why, merged)
        elif status == "maxiter":
            saw_maxiter = True
    status = NO_CONVERGENCE if saw_maxiter or not starts_used else INCONSISTENT
    if not starts_used:
        reason = "no start was run"
    elif saw_maxiter:
        reason = f"iteration cap reached with best residual {best_resid:.3e}"
    elif best_violation is not None:
        reason = f"every start stalled or violated a constraint ({best_violation[1]})"
    else:
        reason = (f"all {starts_used} starts reached stationary points with "
                  f"residual at best {best_resid:.3e}, above tol {TOL:.1e}")
    return CaseOutcome(
        system.pattern, status, reason=reason,
        iterations=total_iters, starts_used=starts_used,
        collision=best_violation[2] if best_violation else None,
    )


@dataclass(frozen=True)
class FindReport:
    """find_roots plus the full per-case history behind the answer."""

    roots: RootSet
    outcomes: tuple[CaseOutcome, ...]  # the last one is the accepted case

    @property
    def case(self) -> MultiplicityPattern:
        return self.outcomes[-1].pattern

    def to_json(self) -> dict:
        doc = self.roots.to_json()
        doc["case"] = self.case.label()
        doc["outcomes"] = [o.to_json() for o in self.outcomes]
        return doc


def _oracle_agrees(found: RootSet, oracle: RootSet) -> bool:
    if found.count != oracle.count:
        return False
    for (v1, m1, _), (v2, m2, _) in zip(found.roots, oracle.roots):
        a, b = complex(v1).real, float(v2)
        if abs(a - b) > 1e-6 * max(1.0, abs(a), abs(b)):
            return False
        if m1 != m2:
            return False
    return True


def find_roots_report(p: Poly, mode: str = REAL_MODE, order: str | None = None) -> FindReport:
    """Walk the shapes in order and return the first accepted solution.

    Real mode cross-validates every candidate answer against the Sturm
    oracle; disagreement demotes the case to no-convergence and the walk
    continues.  A collision hint re-dispatches the merged shape with the
    collided values as a warm start before moving on.  If nothing is
    accepted the walk ends in NoPatternSolved carrying all outcomes.  The
    whole walk shares one GN_WORK_CAP; past it, or past SHAPE_CAP shapes,
    the walk raises ResourceLimit.

    Overflow and invalid operations are not reported as numpy warnings:
    a start whose residual or Jacobian is not finite stalls, and the
    presolve reports a value past the float range as inconsistent.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        d = p.degree
        if d is None or d < 1:
            raise ValueError("target must have degree at least 1")
        patterns = enumerate_patterns(d, mode, order)
        work = _WorkMeter()
        oracle = oracle_real_roots(p) if mode == REAL_MODE else None
        outcomes: list[CaseOutcome] = []
        for pattern in patterns:
            system = build_system(pattern, p, mode)
            outcome = _solve_case(system, _start_battery(system), work)
            if outcome.status != SOLVED and outcome.collision is not None:
                outcomes.append(outcome)
                merged_pat, values = outcome.collision
                merged = build_system(merged_pat, p, mode)
                outcome = _solve_case(merged, chain((values,), _start_battery(merged)), work)
            outcomes.append(outcome)
            if outcome.status != SOLVED:
                continue
            # _solve_case sorts the roots; a presolve answer has at most one
            found = RootSet(tuple((v, m, abs(complex(eval_horner(p, v))))
                                  for v, m in outcome.roots))
            if oracle is not None and not _oracle_agrees(found, oracle):
                outcomes[-1] = replace(
                    outcome, status=NO_CONVERGENCE,
                    reason="independent root oracle disagrees with this case",
                )
                continue
            return FindReport(found, tuple(outcomes))
        raise NoPatternSolved(tuple(outcomes))


def find_roots(p: Poly, mode: str = REAL_MODE, order: str | None = None) -> RootSet:
    """Distinct roots with multiplicities via the first shape that solves."""
    return find_roots_report(p, mode, order).roots
