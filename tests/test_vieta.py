import itertools
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from tilelab import vieta
from tilelab.cli import main
from tilelab.search import ResourceLimit
from tilelab import (
    COMPLEX_MODE,
    DegreeMismatch,
    INCONSISTENT,
    MultiplicityPattern,
    NO_CONVERGENCE,
    NoPatternSolved,
    REAL_MODE,
    RootSet,
    SOLVED,
    VietaSystem,
    build_system,
    complex_poly,
    enumerate_patterns,
    find_roots,
    find_roots_report,
    mul,
    oracle_real_roots,
    parse_poly_text,
    poly,
    solve_case,
)


@lru_cache(maxsize=None)
def partition_count(s: int, cap: int | None = None) -> int:
    if s == 0:
        return 1
    cap = s if cap is None or cap > s else cap
    return sum(partition_count(s - first, first) for first in range(cap, 0, -1))


def labels(patterns):
    return [p.label() for p in patterns]


def expand(pattern: MultiplicityPattern, roots, c, cofactor=()):
    """Reference expansion through the polynomial layer, not numpy."""
    p = complex_poly([c])
    for r, m in zip(roots, pattern.mults):
        for _ in range(m):
            p = mul(p, complex_poly([-r, 1]))
    if pattern.cofactor_degree:
        p = mul(p, complex_poly(list(cofactor) + [1]))
    return p


class TestPattern:
    def test_labels(self):
        assert MultiplicityPattern((2, 1)).label() == "2,1"
        assert MultiplicityPattern((1,), 2).label() == "1+q2"
        assert MultiplicityPattern((), 3).label() == "q3"

    def test_totals(self):
        pat = MultiplicityPattern((3, 1), 2)
        assert pat.k == 2
        assert pat.total == 6

    @pytest.mark.parametrize("mults, cofactor_degree, match", [
        ((2.5,), 0, "multiplicities must be ints"),
        ((2.0,), 0, "multiplicities must be ints"),
        ((True,), 0, "multiplicities must be ints"),
        (("2",), 0, "multiplicities must be ints"),
        ((2,), 1.5, "cofactor degree must be a nonnegative int"),
        ((2,), True, "cofactor degree must be a nonnegative int"),
    ])
    def test_non_int_parts_are_rejected(self, mults, cofactor_degree, match):
        with pytest.raises(ValueError, match=match):
            MultiplicityPattern(mults, cofactor_degree)

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiplicityPattern((1, 2))  # must be nonincreasing
        with pytest.raises(ValueError):
            MultiplicityPattern((0,))
        with pytest.raises(ValueError):
            MultiplicityPattern((1,), -1)
        with pytest.raises(ValueError):
            MultiplicityPattern(())


class TestEnumeration:
    def test_d3_real_default_order(self):
        assert labels(enumerate_patterns(3)) == ["3", "2,1", "1,1,1", "1+q2", "q3"]

    def test_d3_real_generic_order(self):
        got = labels(enumerate_patterns(3, order="generic"))
        assert got == ["1,1,1", "2,1", "3", "1+q2", "q3"]

    def test_d2_real(self):
        assert labels(enumerate_patterns(2)) == ["2", "1,1", "q2"]

    def test_d1(self):
        assert labels(enumerate_patterns(1)) == ["1"]
        assert labels(enumerate_patterns(1, COMPLEX_MODE)) == ["1"]

    def test_d4_complex_default_order(self):
        got = labels(enumerate_patterns(4, COMPLEX_MODE))
        assert got == ["1,1,1,1", "2,1,1", "2,2", "3,1", "4"]

    def test_counts_match_partition_oracle(self):
        for d in range(1, 9):
            real = enumerate_patterns(d)
            cplx = enumerate_patterns(d, COMPLEX_MODE)
            want_real = partition_count(d) + sum(
                partition_count(s) for s in range(d - 1))
            assert len(real) == want_real
            assert len(cplx) == partition_count(d)

    def test_no_linear_cofactor_in_real_mode(self):
        for d in range(1, 9):
            assert all(p.cofactor_degree != 1 for p in enumerate_patterns(d))

    def test_every_pattern_totals_d(self):
        for d in range(1, 7):
            for mode in (REAL_MODE, COMPLEX_MODE):
                assert all(p.total == d for p in enumerate_patterns(d, mode))

    def test_complex_mode_factors_completely(self):
        for d in range(1, 7):
            assert all(p.cofactor_degree == 0
                       for p in enumerate_patterns(d, COMPLEX_MODE))

    def test_shape_cap_bounds_the_list(self, capsys, monkeypatch):
        assert main(["roots", "cases", "--degree", "30"]) == 0
        assert len(json.loads(capsys.readouterr().out)["cases"]) == 24_064
        monkeypatch.setattr(vieta, "SHAPE_CAP", 24_064)
        assert len(enumerate_patterns(30)) == 24_064
        monkeypatch.setattr(vieta, "SHAPE_CAP", 24_063)
        with pytest.raises(ResourceLimit, match="more than 24063 shapes in real mode"):
            enumerate_patterns(30)

    @pytest.mark.parametrize("d", [True, 2.5, 3.0, "3"])
    def test_non_int_degree_is_rejected(self, d):
        with pytest.raises(ValueError, match="degree must be an int"):
            enumerate_patterns(d)

    def test_validation(self):
        with pytest.raises(ValueError):
            enumerate_patterns(0)
        with pytest.raises(ValueError):
            enumerate_patterns(3, "quaternionic")
        with pytest.raises(ValueError):
            enumerate_patterns(3, order="random")


class TestBuildSystem:
    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            build_system(MultiplicityPattern((2,)), poly([1, 0, 0, 1]))

    def test_real_mode_rejects_linear_cofactor(self):
        with pytest.raises(ValueError):
            build_system(MultiplicityPattern((1,), 1), poly([1, 0, 1]))

    def test_real_mode_rejects_imaginary_targets(self):
        with pytest.raises(ValueError):
            build_system(MultiplicityPattern((2,)), complex_poly([1j, 0, 1]))

    @pytest.mark.parametrize("mode", [REAL_MODE, COMPLEX_MODE])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_targets_are_rejected(self, mode, bad):
        with pytest.raises(ValueError):
            build_system(MultiplicityPattern((1, 1)), complex_poly([bad, 0, 1]), mode)

    def test_target_vector_is_read_only(self):
        system = build_system(MultiplicityPattern((1, 1)), poly([2, -3, 1]))
        assert system.tvec.tolist() == [2.0, -3.0, 1.0]
        with pytest.raises(ValueError):
            system.tvec[0] = 5.0
        with pytest.raises(AttributeError):
            system.tvec = np.zeros(3)

    def test_constant_target_rejected(self):
        with pytest.raises(ValueError):
            build_system(MultiplicityPattern((1,)), poly([5]))

    @pytest.mark.parametrize("mults, e, coeffs", [
        ((), 2, [2, -3, 1]),      # x^2 - 3x + 2
        ((1,), 2, [0, 2, -3, 1]),  # x^3 - 3x^2 + 2x
        ((), 1, [2, 1]),          # x + 2
    ])
    def test_complex_mode_rejects_cofactors(self, mults, e, coeffs):
        # complex mode factors completely: admitted, ((), 2) would "solve"
        # x^2 - 3x + 2 with no roots at all
        with pytest.raises(ValueError, match="no cofactor"):
            build_system(MultiplicityPattern(mults, e), poly(coeffs), COMPLEX_MODE)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            build_system(MultiplicityPattern((1, 1)), poly([2, -3, 1]), mode="bogus")

    def test_unknown_layout(self):
        sys_ = build_system(MultiplicityPattern((2, 1), 2), poly([1, 0, 0, 0, 0, 1]))
        assert sys_.n_unknowns == 2 + 1 + 2
        assert sys_.degree == 5


class TestCoefficientMap:
    def test_dual_route_against_poly_layer(self):
        rng = random.Random(41)
        for _ in range(40):
            d = rng.randint(1, 8)
            mode = rng.choice((REAL_MODE, COMPLEX_MODE))
            pats = enumerate_patterns(d, mode)
            pat = rng.choice(pats)
            target = poly([0] * d + [1])  # placeholder fixing the degree
            system = build_system(pat, target, mode)
            if mode == REAL_MODE:
                roots = [rng.uniform(-3, 3) for _ in range(pat.k)]
                c = rng.choice((-2.0, -1.0, 1.0, 2.0))
                b = [rng.uniform(-2, 2) for _ in range(pat.cofactor_degree)]
            else:
                roots = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                         for _ in range(pat.k)]
                c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) or 1.0
                b = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                     for _ in range(pat.cofactor_degree)]
            u = np.array(roots + [c] + b, dtype=system.dtype)
            got = system.coeffs(u)
            want = expand(pat, roots, c, b).coeffs
            assert len(got) == len(want)
            scale = max(1.0, max(abs(complex(w)) for w in want))
            for g, w in zip(got, want):
                assert abs(complex(g) - complex(w)) <= 1e-9 * scale

    def test_jacobian_matches_finite_differences(self):
        rng = random.Random(43)
        h = 1e-6
        worst = 0.0
        for _ in range(60):
            d = rng.randint(1, 5)
            mode = rng.choice((REAL_MODE, COMPLEX_MODE))
            pat = rng.choice(enumerate_patterns(d, mode))
            system = build_system(pat, poly([0] * d + [1]), mode)
            u = np.array([rng.uniform(-2, 2) for _ in range(system.n_unknowns)],
                         dtype=system.dtype)
            u[system.k] = rng.choice((1.0, 2.0, -1.5))
            jac = system.jacobian(u)
            for i in range(system.n_unknowns):
                e = np.zeros_like(u)
                e[i] = h
                fd = (system.coeffs(u + e) - system.coeffs(u - e)) / (2 * h)
                scale = max(1.0, float(np.max(np.abs(jac))))
                err = float(np.max(np.abs(jac[:, i] - fd))) / scale
                worst = max(worst, err)
        assert worst < 1e-4

    def test_residual_zero_at_exact_point(self):
        target = expand(MultiplicityPattern((2, 1)), [1.0, 2.0], 1.0)
        target = poly([round(complex(c).real) for c in target.coeffs])
        system = build_system(MultiplicityPattern((2, 1)), target)
        r = system.residual(np.array([1.0, 2.0, 1.0]))
        assert float(np.max(np.abs(r))) < 1e-12


CUBIC = "pi/2, -pi^2, 0, 2"


class TestSolveCase:
    def test_single_root_shape_is_inconsistent_by_presolve(self):
        target = parse_poly_text(CUBIC)
        out = solve_case(build_system(MultiplicityPattern((3,)), target))
        assert out.status == INCONSISTENT
        assert "forces r=" in out.reason
        assert out.iterations == 0

    def test_double_plus_simple_shape_is_inconsistent(self):
        target = parse_poly_text(CUBIC)
        out = solve_case(build_system(MultiplicityPattern((2, 1)), target))
        assert out.status == INCONSISTENT
        assert out.starts_used == 32  # every start had to be exhausted

    def test_all_simple_shape_solves(self):
        target = parse_poly_text(CUBIC)
        out = solve_case(build_system(MultiplicityPattern((1, 1, 1)), target))
        assert out.status == SOLVED
        assert out.residual < 1e-10
        values = [v for v, _ in out.roots]
        assert values == sorted(values)
        for v in values:
            assert abs(target(v)) < 1e-9

    def test_exact_presolve_single_root(self):
        target = poly([-2, 6, -6, 2])  # 2 (x - 1)^3
        out = solve_case(build_system(MultiplicityPattern((3,)), target))
        assert out.status == SOLVED
        assert out.roots == ((1.0, 3),)
        assert out.leading == 2.0
        assert out.residual == 0.0

    def test_exact_presolve_cofactor_only(self):
        target = poly([2, 0, 2])  # 2 (x^2 + 1)
        out = solve_case(build_system(MultiplicityPattern((), 2), target))
        assert out.status == SOLVED
        assert out.leading == 2.0
        assert out.cofactor == (1.0, 0.0)

    def test_cofactor_with_real_roots_is_inconsistent(self):
        target = poly([-2, 0, 2])  # 2 (x^2 - 1) has real roots
        out = solve_case(build_system(MultiplicityPattern((), 2), target))
        assert out.status == INCONSISTENT
        assert "root-free" in out.reason

    def test_cofactor_that_acquires_a_real_root_is_rejected(self):
        # (x - 1)(x - 2)(x^2 + 1): the shape 1+q3 fits only with a real root
        # in the cofactor
        target = mul(mul(poly([-1, 1]), poly([-2, 1])), poly([1, 0, 1]))
        out = solve_case(build_system(MultiplicityPattern((1,), 3), target, REAL_MODE))
        assert out.status == INCONSISTENT
        assert "cofactor acquired 1 real root(s)" in out.reason

    def test_private_solver_runs_only_the_starts_it_is_handed(self):
        # (2,1) fits pi/2 - pi^2 x + 2x^3 from no start, so the one warm
        # start fails and nothing follows it
        system = build_system(MultiplicityPattern((2, 1)), parse_poly_text(CUBIC))
        out = vieta._solve_case(system, ((1.0, 2.0),), vieta._WorkMeter())
        assert out.status != SOLVED
        assert out.starts_used == 1
        assert out.iterations > 0

    def test_no_start_is_no_evidence_of_inconsistency(self):
        # shape 1,1,1 solves this cubic; with no start run nothing is known
        system = build_system(MultiplicityPattern((1, 1, 1)), parse_poly_text(CUBIC))
        out = vieta._solve_case(system, (), vieta._WorkMeter())
        assert (out.status, out.reason) == (NO_CONVERGENCE, "no start was run")
        assert out.starts_used == 0 and out.iterations == 0

    def test_failed_warm_start_is_followed_by_the_battery(self):
        system = build_system(MultiplicityPattern((2, 1)), parse_poly_text(CUBIC))
        out = solve_case(system, warm_starts=((1.0, 2.0),))
        assert out.status == INCONSISTENT
        assert out.starts_used == 1 + vieta.STARTS

    def test_warm_start_short_circuits(self):
        target = poly([-2, 5, -4, 1])  # (x - 1)^2 (x - 2)
        system = build_system(MultiplicityPattern((2, 1)), target)
        out = solve_case(system, warm_starts=((1.0, 2.0),))
        assert out.status == SOLVED
        assert out.starts_used == 1
        assert out.iterations == 0

    def test_outcome_json_shapes(self):
        target = parse_poly_text(CUBIC)
        solved = solve_case(build_system(MultiplicityPattern((1, 1, 1)), target))
        doc = solved.to_json()
        assert doc["case"] == "1,1,1"
        assert doc["status"] == "solved"
        assert len(doc["roots"]) == 3
        bad = solve_case(build_system(MultiplicityPattern((3,)), target))
        doc2 = bad.to_json()
        assert doc2["status"] == "inconsistent"
        assert "roots" not in doc2
        assert doc2["reason"]


class TestFindRoots:
    @pytest.mark.parametrize("found, agrees", [
        (((1.0, 1, 0.0), (2.0, 2, 0.0)), True),
        (((1.0, 1, 0.0), (2.001, 2, 0.0)), False),  # a value off by more than 1e-6
        (((1.0, 1, 0.0), (2.0, 1, 0.0)), False),    # a multiplicity off
        (((1.0, 1, 0.0),), False),                  # a root missing
    ])
    def test_oracle_agreement(self, found, agrees):
        oracle = RootSet(((1.0, 1, 0.0), (2.0, 2, 0.0)))
        assert vieta._oracle_agrees(RootSet(found), oracle) is agrees

    def test_cubic_case_history(self):
        report = find_roots_report(parse_poly_text(CUBIC))
        assert [o.pattern.label() for o in report.outcomes] == ["3", "2,1", "1,1,1"]
        assert [o.status for o in report.outcomes] == [
            INCONSISTENT, INCONSISTENT, SOLVED]
        assert report.case.label() == "1,1,1"
        assert report.roots.count == 3

    def test_cubic_matches_oracle(self):
        target = parse_poly_text(CUBIC)
        report = find_roots_report(target)
        oracle = oracle_real_roots(target)
        for (got, gm, res), (want, wm, _) in zip(report.roots.roots, oracle.roots):
            assert got == pytest.approx(want, abs=1e-8)
            assert gm == wm
            assert res < 1e-9

    def test_no_real_roots_resolved_by_cofactor_case(self):
        report = find_roots_report(poly([1, 0, 1]))
        assert report.roots.count == 0
        assert report.case.label() == "q2"
        statuses = [(o.pattern.label(), o.status) for o in report.outcomes]
        assert statuses == [("2", INCONSISTENT), ("1,1", INCONSISTENT),
                            ("q2", SOLVED)]

    def test_complex_mode_finds_imaginary_pair(self):
        rs = find_roots(poly([1, 0, 1]), mode=COMPLEX_MODE)
        assert rs.count == 2
        values = sorted(rs.values(), key=lambda z: complex(z).imag)
        assert complex(values[0]) == pytest.approx(-1j, abs=1e-8)
        assert complex(values[1]) == pytest.approx(1j, abs=1e-8)

    def test_collision_redispatches_merged_shape(self):
        target = poly([-2, 5, -4, 1])  # (x - 1)^2 (x - 2)
        for mode, iterations in ((REAL_MODE, 617), (COMPLEX_MODE, 677)):
            report = find_roots_report(target, mode, order="generic")
            first, merged = report.outcomes
            assert (first.pattern.label(), first.status) == ("1,1,1", INCONSISTENT)
            assert (first.iterations, first.starts_used) == (iterations, 32)
            assert first.collision[0].label() == "2,1"
            # the merged values are the first start, and it has already converged
            assert (merged.pattern.label(), merged.status) == ("2,1", SOLVED)
            assert (merged.iterations, merged.starts_used) == (0, 1)
            got = [(complex(v), m) for v, m, _ in report.roots.roots]
            assert [(round(v.real, 6), round(v.imag, 6), m) for v, m in got] == [
                (1.0, 0.0, 2), (2.0, 0.0, 1)]

    def test_repeated_complex_root_via_merge(self):
        target = expand(MultiplicityPattern((2,)), [1 + 1j], 1.0)
        rs = find_roots(target, mode=COMPLEX_MODE)
        assert rs.count == 1
        value, m, _ = rs.roots[0]
        assert m == 2
        assert complex(value) == pytest.approx(1 + 1j, abs=1e-7)

    def test_starved_config_raises_with_history(self, monkeypatch):
        monkeypatch.setattr(vieta, "STARTS", 1)
        monkeypatch.setattr(vieta, "MAX_ITERS", 1)
        with pytest.raises(NoPatternSolved) as err:
            find_roots_report(parse_poly_text(CUBIC))
        outcomes = err.value.outcomes
        assert [o.pattern.label() for o in outcomes] == [
            "3", "2,1", "1,1,1", "1+q2", "q3"]
        assert all(o.status in (INCONSISTENT, NO_CONVERGENCE) for o in outcomes)
        assert "no factorization shape solved" in str(err.value)

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            find_roots(poly([3]))

    def test_report_json_shape(self):
        doc = find_roots_report(parse_poly_text(CUBIC)).to_json()
        assert doc["tau"] == 3
        assert doc["case"] == "1,1,1"
        assert len(doc["outcomes"]) == 3
        assert {o["case"] for o in doc["outcomes"]} == {"3", "2,1", "1,1,1"}


# every monic integer-root polynomial of degree 2 with roots in [-3, 3] and
# of degree 3 with roots in [-2, 2], repeats allowed: 28 + 35 root multisets
SMALL_INTEGER_ROOTS = [
    *itertools.combinations_with_replacement(range(-3, 4), 2),
    *itertools.combinations_with_replacement(range(-2, 3), 3),
]


class TestIntegerRootSweep:
    """An exhaustive gate: easy inputs answer exactly, never NoPatternSolved."""

    @pytest.mark.parametrize("mode", [REAL_MODE, COMPLEX_MODE])
    def test_every_small_integer_root_polynomial_answers(self, mode):
        assert len(SMALL_INTEGER_ROOTS) == 63
        failed = []
        for roots in SMALL_INTEGER_ROOTS:
            target = poly([1])
            for r in roots:
                target = mul(target, poly([-r, 1]))
            want = sorted(Counter(roots).items())
            try:
                got = [(complex(v), m) for v, m, _ in find_roots(target, mode=mode).roots]
            except NoPatternSolved:
                failed.append((roots, "NoPatternSolved"))
                continue
            if len(got) != len(want) or any(
                    abs(g - w) > 1e-6 * max(1, abs(w)) or gm != wm
                    for (g, gm), (w, wm) in zip(got, want)):
                failed.append((roots, got))
        assert failed == []


class TestConfig:
    def test_defaults(self):
        assert vieta.TOL == 1e-10
        assert vieta.MAX_ITERS == 100
        assert vieta.STARTS == 32


class TestRoundTrips:
    def test_recovery_batch(self):
        rng = random.Random(71)
        ok = 0
        for _ in range(50):
            k = rng.randint(1, 4)
            roots = []
            while len(roots) < k:
                r = rng.uniform(-5, 5)
                if all(abs(r - s) > 0.4 for s in roots):
                    roots.append(r)
            roots.sort()
            c = rng.choice((-2, -1, 1, 2))
            target = expand(MultiplicityPattern((1,) * k), roots, float(c))
            rs = find_roots(target, order="generic")
            assert rs.count == k
            for (got, m, _), want in zip(rs.roots, roots):
                assert m == 1
                assert got == pytest.approx(want, abs=1e-6)
            ok += 1
        assert ok == 50


# ---------------------------------------------------------------------------
# the Gauss-Newton kernel keeps the bits of the straightforward expansion

TESTS_DIR = Path(__file__).resolve().parent
DATA_DIR = TESTS_DIR / "data"
# The pinned documents and counts are the bits of one OpenBLAS kernel, since
# every BLAS call the kernel makes rounds otherwise under another: each is
# made in a child process under Haswell, which every x86-64-v3 CPU can run,
# whichever kernel this process has.  The child runs this checkout's src.
PIN_ENV = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "PYTHONPATH": os.pathsep.join(
    filter(None, [str(TESTS_DIR.parent / "src"), os.environ.get("PYTHONPATH")]))}


def on_pinned_kernel(*argv):
    """python argv, run in a child process on the pinned kernel."""
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=300, env=PIN_ENV)


def pinned(name, *args):
    """This module's name(*args), run on the pinned kernel; its value comes
    back as JSON."""
    code = (f"import json, sys; sys.path.insert(0, {str(TESTS_DIR)!r}); import test_vieta; "
            f"print(json.dumps(test_vieta.{name}(*{args!r})))")
    proc = on_pinned_kernel("-c", code)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def assert_bits_where_finite(got, want):
    """The rule of the coefficient map and the Jacobian, for one start and
    for each row of a stack: got has want's bits in every finite entry and
    is not finite in the same entries (Gauss-Newton reads nothing but
    finiteness there)."""
    assert got.dtype == want.dtype and got.shape == want.shape
    finite = np.isfinite(want)
    assert (np.isfinite(got) == finite).all()
    assert got[finite].tobytes() == want[finite].tobytes()


def ref_product(system, u):
    """The plain expansion: every factor convolved in from [1]."""
    k = system.k
    b = u[k + 1:]
    acc = np.ones(1, dtype=system.dtype)
    for r, m in zip(u[:k], system.pattern.mults):
        lin = np.array([-r, 1.0], dtype=system.dtype)
        for _ in range(m):
            acc = np.convolve(acc, lin)
    if system.cofactor_degree:
        acc = np.convolve(acc, np.concatenate([b, np.ones(1, dtype=system.dtype)]))
    return acc


def ref_coeffs(system, u):
    u = np.asarray(u, dtype=system.dtype)
    return u[system.k] * ref_product(system, u)


def ref_jacobian(system, u):
    """The plain Jacobian: every product rebuilt from [1] for every column."""
    dt = system.dtype
    u = np.asarray(u, dtype=dt)
    k = system.k
    roots, c, b = u[:k], u[k], u[k + 1:]
    cols = np.zeros((system.degree + 1, system.n_unknowns), dtype=dt)
    factors = []
    for r, m in zip(roots, system.pattern.mults):
        lin = np.array([-r, 1.0], dtype=dt)
        f = np.ones(1, dtype=dt)
        for _ in range(m):
            f = np.convolve(f, lin)
        factors.append((lin, f, m))
    q = None
    if system.cofactor_degree:
        q = np.concatenate([b, np.ones(1, dtype=dt)])
    full = np.ones(1, dtype=dt)
    for _, f, _ in factors:
        full = np.convolve(full, f)
    if q is not None:
        full = np.convolve(full, q)
    cols[: full.size, k] = full
    for i, (lin, _, m) in enumerate(factors):
        part = np.ones(1, dtype=dt)
        for j, (_, f_j, _) in enumerate(factors):
            if j != i:
                part = np.convolve(part, f_j)
        stub = np.ones(1, dtype=dt)
        for _ in range(m - 1):
            stub = np.convolve(stub, lin)
        col = -m * c * np.convolve(part, stub)
        if q is not None:
            col = np.convolve(col, q)
        cols[: col.size, i] = col
    if q is not None:
        base = np.ones(1, dtype=dt)
        for _, f, _ in factors:
            base = np.convolve(base, f)
        base = c * base
        for t in range(system.cofactor_degree):
            cols[t : t + base.size, k + 1 + t] = base
    return cols


class TestKernelBits:
    def test_coeffs_and_jacobian_match_reference_bytes(self):
        rng = random.Random(7007)

        def entry():
            return rng.choice((0.0, -0.0, rng.uniform(-3, 3), rng.uniform(-1e-3, 1e-3)))

        def point(system):
            if system.mode == REAL_MODE:
                return np.array([entry() for _ in range(system.n_unknowns)])
            return np.array([complex(entry(), entry()) for _ in range(system.n_unknowns)])

        zeros, stacks = 0, Counter()
        for _ in range(2000):
            d = rng.randint(1, 7)
            mode = rng.choice((REAL_MODE, COMPLEX_MODE))
            pat = rng.choice(enumerate_patterns(d, mode))
            system = build_system(pat, poly([0] * d + [1]), mode)
            u = point(system)
            zeros += int(np.any(np.signbit(u.real) & (u.real == 0)))
            one = (system.coeffs(u), system.jacobian(u))
            for got, want in zip(one, (ref_coeffs(system, u), ref_jacobian(system, u))):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            # a stack of rows, u first: row i is the plain expansion at U[i];
            # an empty stack keeps the width of a row
            size = rng.choice((0, 1, 2, 33))
            U = np.array([u] + [point(system) for _ in range(size - 1)])[:size]
            C, J = system.coeffs(U), system.jacobian(U)
            assert C.dtype == J.dtype == U.dtype
            assert C.shape == (size, d + 1) and J.shape == (size, d + 1, system.n_unknowns)
            for i, row in enumerate(U):
                assert C[i].tobytes() == ref_coeffs(system, row).tobytes()
                assert J[i].tobytes() == ref_jacobian(system, row).tobytes()
            if size == 1:
                assert C[0].tobytes() == one[0].tobytes() and J[0].tobytes() == one[1].tobytes()
            stacks[size, mode] += 1
        assert zeros > 500  # -0.0 entries were exercised
        assert all(stacks[size, mode] > 100
                   for size in (0, 1, 2, 33) for mode in (REAL_MODE, COMPLEX_MODE))

    def test_jacobian_is_finite_where_the_reference_is(self):
        # the Jacobian skips the empty product's stages, which may turn a
        # complex inf into nan, and a stack's complex products may pair nan
        # and inf otherwise than np.convolve: both keep the reference's bits
        # where it is finite and are not finite where it is not
        rng = random.Random(7010)

        def entry():
            return rng.choice((0.0, -0.0, rng.uniform(-3, 3), rng.uniform(-1e160, 1e160),
                               rng.uniform(-1e300, 1e300)))

        seen = Counter()
        with np.errstate(all="ignore"):
            for _ in range(3000):
                d = rng.randint(1, 7)
                mode = rng.choice((REAL_MODE, COMPLEX_MODE))
                pat = rng.choice(enumerate_patterns(d, mode))
                system = build_system(pat, poly([0] * d + [1]), mode)
                u = np.array([entry() if mode == REAL_MODE else complex(entry(), entry())
                              for _ in range(system.n_unknowns)])
                want = ref_jacobian(system, u)
                assert_bits_where_finite(system.jacobian(u), want)
                assert_bits_where_finite(system.jacobian(u[None])[0], want)
                assert_bits_where_finite(system.coeffs(u[None])[0], ref_coeffs(system, u))
                seen[mode, bool(np.isfinite(want).all())] += 1
        assert all(seen[mode, finite] > 200
                   for mode in (REAL_MODE, COMPLEX_MODE) for finite in (False, True))

    def test_first_linear_step_is_plus_zero(self):
        values = (0.0, -0.0, 1.5, -2.0)
        for a, b in itertools.product(values, repeat=2):
            lin = np.array([a, b])
            want = np.convolve(np.ones(1), lin)
            assert want.tobytes() == (lin + 0.0).tobytes()
        for parts in itertools.product(values, repeat=4):
            lin = np.array([complex(*parts[:2]), complex(*parts[2:])])
            want = np.convolve(np.ones(1, dtype=np.complex128), lin)
            assert want.tobytes() == (lin + 0.0).tobytes()
        # so the kernel builds x - r as [0.0 - r, 1], which is that first
        # step, and no later product tells it from [-r, 1]: np.convolve sums
        # from 0.0, and so do the slices of _times_linear
        rng = random.Random(7011)
        for parts in itertools.product(values, repeat=2):
            for r in (parts[0], complex(*parts)):
                plain, built = np.array([-r, 1.0]), np.array([0.0 - r, 1.0])
                assert built.tobytes() == np.convolve(np.ones(1, plain.dtype), plain).tobytes()
                for width in range(1, 6):
                    acc = np.array([rng.choice(values) if plain.dtype == float
                                    else complex(rng.choice(values), rng.choice(values))
                                    for _ in range(width)])
                    assert np.convolve(acc, built).tobytes() == np.convolve(acc, plain).tobytes()
                    if plain.dtype == float:
                        got, want = (vieta._times_linear(acc[None], lin[None]) for lin in (built, plain))
                        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("argv, pin", [
        (("--poly=pi/2,-pi^2,0,2",), "roots_find_pi_cubic.json"),
        (("--poly=196,14,-111/4,-1,1", "--mode", "complex"), "roots_find_quartic_complex.json"),
        # (x + 1)(x^2 + 1): answers 1+q2
        (("--poly=1,1,1,1",), "roots_find_cubic_cofactor.json"),
        # x^4 - 3x^2 + 4 has no real roots: eight shapes fail before q4
        (("--poly=4,0,-3,0,1",), "roots_find_quartic_cofactor.json"),
    ])
    def test_roots_find_document_is_pinned(self, argv, pin):
        want = (DATA_DIR / pin).read_text()
        doc = json.loads(want)
        proc = on_pinned_kernel("-m", "tilelab.cli", "roots", "find", *argv)
        # no real roots is exit 1
        assert (proc.returncode, proc.stdout) == (0 if doc["roots"] else 1, want), proc.stderr
        assert sum(o["iterations"] for o in doc["outcomes"]) > 1000  # Gauss-Newton ran

    def test_real_mode_collision_document_is_pinned(self):
        # (x - 1)^2 (x - 2) in generic order: 1,1,1 collides, and 2,1 solves
        # from the real parts of the welded values, its one warm start
        want = (DATA_DIR / "roots_find_cubic_collision.json").read_text()
        proc = on_pinned_kernel("-m", "tilelab.cli", "roots", "find", "--poly=-2,5,-4,1",
                                "--order", "generic")
        assert (proc.returncode, proc.stdout) == (0, want), proc.stderr
        first, second = json.loads(want)["outcomes"]
        assert "roots collided" in first["reason"]
        assert (second["case"], second["status"], second["starts_used"]) == ("2,1", SOLVED, 1)


def ref_gauss_newton(system, u0):
    """The plain damped Gauss-Newton: all 30 steps of the line search
    evaluated in turn, every product rebuilt from [1]."""
    tvec = system.tvec
    u = np.array(u0, dtype=system.dtype)
    res = ref_coeffs(system, u) - tvec
    f = float(np.vdot(res, res).real)
    if float(np.max(np.abs(res))) < vieta.TOL:
        return u, float(np.max(np.abs(res))), "converged", 0
    status, iters = "maxiter", 0
    for it in range(vieta.MAX_ITERS):
        iters = it + 1
        step, *_ = np.linalg.lstsq(ref_jacobian(system, u), -res, rcond=None)
        if not np.all(np.isfinite(step)):
            status = "stalled"
            break
        lam = 1.0
        for _ in range(30):
            cand = u + lam * step
            r2 = ref_coeffs(system, cand) - tvec
            f2 = float(np.vdot(r2, r2).real)
            if f2 < f:
                break
            lam *= 0.5
        else:
            status = "stalled"
            break
        u, res, f = cand, r2, f2
        if float(np.max(np.abs(res))) < vieta.TOL:
            status = "converged"
            break
        if float(np.linalg.norm(lam * step)) <= 1e-14 * (1.0 + float(np.linalg.norm(u))):
            status = "stalled"
            break
    return u, float(np.max(np.abs(res))), status, iters


def random_system(rng):
    """A random shape of degree 1-7 in either mode and a point u.  Half the
    targets expand the shape at u, so u solves the system up to the target's
    rounding; the others are random coefficients, with u random."""
    d = rng.randint(1, 7)
    mode = rng.choice((REAL_MODE, COMPLEX_MODE))
    pat = rng.choice(enumerate_patterns(d, mode))

    def value():
        if mode == REAL_MODE:
            return rng.uniform(-3, 3)
        return complex(rng.uniform(-3, 3), rng.uniform(-3, 3))

    roots = [value() for _ in range(pat.k)]
    c = rng.choice((1.0, -2.0, 0.5))
    cofactor = [value() for _ in range(pat.cofactor_degree)]
    if rng.random() < 0.5:
        target = expand(pat, roots, c, cofactor)
    else:
        target = complex_poly([value() for _ in range(d)] + [c])
    system = build_system(pat, target, mode)
    return system, np.array(roots + [c] + cofactor, dtype=system.dtype)


def random_vector(rng, system, scale):
    n = system.n_unknowns
    if system.mode == REAL_MODE:
        return np.array([scale * rng.uniform(-1, 1) for _ in range(n)])
    return np.array([scale * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)])


class TestLineSearchCertificate:
    """The line search evaluates every halving exactly, one by one or all 29
    in one call, and a start whose residual is not finite stalls."""

    def test_batched_candidates_are_the_scalar_candidates_bit_for_bit(self):
        rng = random.Random(1314)
        extremes = (0.0, -0.0, 5e-324, -2.5e-320, 1e-300, 3e300, -1e308)

        def entry():
            return rng.choice(extremes + (rng.uniform(-3, 3), rng.uniform(-1e-8, 1e-8)))

        for _ in range(400):
            n = rng.randint(2, 10)
            as_complex = rng.random() < 0.5

            def vector():
                if as_complex:
                    return np.array([complex(entry(), entry()) for _ in range(n)])
                return np.array([entry() for _ in range(n)])

            u, step = vector(), vector()
            with np.errstate(all="ignore"):
                cands = vieta._halving_candidates(u, step)
                assert cands.shape == (len(vieta._HALVINGS), n) and cands.dtype == u.dtype
                for j, lam in enumerate(vieta._HALVINGS):
                    assert cands[j].tobytes() == (u + lam * step).tobytes()

    def test_gauss_newton_matches_the_plain_line_search(self, monkeypatch):
        rng = random.Random(1315)
        trials = vieta._halving_trials
        solo = []

        def spy(system, U, step):
            solo.append(U.ndim == 1)
            return trials(system, U, step)

        monkeypatch.setattr(vieta, "_halving_trials", spy)
        iterations = 0
        for _ in range(40):
            system, _ = random_system(rng)
            for values in itertools.islice(vieta._start_battery(system), 3):
                u0 = vieta._start(system, values)
                u, resid, status, iters = vieta._gauss_newton(system, u0)
                want_u, want_resid, want_status, want_iters = ref_gauss_newton(system, u0)
                assert u.tobytes() == want_u.tobytes()
                assert (resid, status, iters) == (want_resid, want_status, want_iters)
                iterations += iters
        # the one-start batch of all 29 halvings ran often
        assert iterations > 2_000 and sum(solo) > 1_000

    @pytest.mark.parametrize("coeffs, mode", [
        ([1e300, 1e300, 1.0], REAL_MODE),
        ([1e300, 1e300, 1.0], COMPLEX_MODE),
        ([1e308, 1e308, 1e308], REAL_MODE),
        ([1e308, 1e308, 1e308], COMPLEX_MODE),
    ])
    def test_a_non_finite_residual_or_jacobian_stalls_the_start(self, capfd, coeffs, mode):
        with np.errstate(all="ignore"):
            try:
                find_roots_report(complex_poly(coeffs), mode)
            except NoPatternSolved as exc:
                outcomes = exc.outcomes
            else:
                outcomes = ()
        # lstsq never sees them, so LAPACK prints nothing
        out, _ = capfd.readouterr()
        assert "LASCL" not in out
        assert all(o.status == INCONSISTENT for o in outcomes)

    def test_an_overflowing_power_makes_the_shape_inconsistent(self):
        system = build_system(MultiplicityPattern((2,)), complex_poly([1e300, 1e300, 1.0]))
        outcome = solve_case(system)
        assert outcome.status == INCONSISTENT
        assert outcome.reason == ("with c=1 the x^1 equation forces r=-5e+299, "
                                  "but then r^2 lies past the float range")

    def test_an_overflowing_leading_product_still_forces_the_right_root(self):
        # c * m overflows: the root comes from a_1 / c first
        system = build_system(MultiplicityPattern((2,)), complex_poly([1e308, 1e308, 1e308]))
        with np.errstate(all="ignore"):
            outcome = solve_case(system)
        assert outcome.status == INCONSISTENT
        assert outcome.reason == ("with c=1e+308 the x^1 equation forces r=-0.5, "
                                  "but then the x^0 coefficient must be 2.5e+307, not 1e+308")

    def test_a_root_past_the_float_range_makes_the_shape_inconsistent(self):
        # r = -1 / 1e-309 overflows: no float root can solve the shape
        system = build_system(MultiplicityPattern((1,)), complex_poly([1.0, 1e-309]), COMPLEX_MODE)
        with np.errstate(all="ignore"):
            outcome = solve_case(system)
        assert outcome.status == INCONSISTENT
        assert outcome.reason.endswith("but then r^1 lies past the float range")


def capped_reports(caps):
    """find_roots_report(CUBIC) under each GN_WORK_CAP, the default first:
    its JSON document, or the message of the ResourceLimit it raises."""
    default, out = vieta.GN_WORK_CAP, []
    try:
        for cap in (default, *caps):
            vieta.GN_WORK_CAP = cap
            try:
                out.append(find_roots_report(parse_poly_text(CUBIC)).to_json())
            except ResourceLimit as exc:
                out.append(str(exc))
    finally:
        vieta.GN_WORK_CAP = default
    return out


class TestWorkCap:
    def test_cap_counts_iterations_and_zero_iteration_starts(self):
        # 1 365 iterations over 33 starts, each start iterating at least once
        want, at_cap, past_cap = pinned("capped_reports", (1365, 1364))
        assert sum(o["iterations"] for o in want["outcomes"]) == 1365
        assert sum(o["starts_used"] for o in want["outcomes"]) == 33
        assert at_cap == want
        assert past_cap.startswith("root search passed the cap of 1364 ")

    def test_a_start_without_iterations_costs_one(self, monkeypatch):
        system = build_system(MultiplicityPattern((2, 1)), poly([-2, 5, -4, 1]))
        warm = ((1.0, 2.0),)
        monkeypatch.setattr(vieta, "GN_WORK_CAP", 1)
        assert solve_case(system, warm_starts=warm).status == SOLVED
        monkeypatch.setattr(vieta, "GN_WORK_CAP", 0)
        with pytest.raises(ResourceLimit):
            solve_case(system, warm_starts=warm)

    def test_huge_battery_is_built_lazily(self, monkeypatch):
        monkeypatch.setattr(vieta, "GN_WORK_CAP", 50)
        monkeypatch.setattr(vieta, "STARTS", 10 ** 9)
        monkeypatch.setattr(vieta, "MAX_ITERS", 1)
        with pytest.raises(ResourceLimit):
            find_roots_report(parse_poly_text(CUBIC))

    def test_cli_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(vieta, "GN_WORK_CAP", 50)
        assert main(["roots", "find", "--poly=" + CUBIC.replace(" ", "")]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("tilelab: resource limit: root search passed the cap of 50")


# ---------------------------------------------------------------------------
# the lockstep block: every start after the first two runs as a row of one
# array, and each row keeps the bits of the one-start kernel

BLOCK_SIZES = (1, 2, 3, 5, 33)


def signed_entry(rng):
    return rng.choice((0.0, -0.0, rng.uniform(-3, 3), rng.uniform(-1e-3, 1e-3)))


def random_block(rng, system, size):
    n = system.n_unknowns
    if system.mode == REAL_MODE:
        return np.array([[signed_entry(rng) for _ in range(n)] for _ in range(size)])
    return np.array([[complex(signed_entry(rng), signed_entry(rng)) for _ in range(n)]
                     for _ in range(size)])


def complex_entries(gen, shape, wild):
    """Complex entries of the given shape: each part 0.0, -0.0 or uniform
    in [-3, 3] or [-1e-3, 1e-3]; if wild, one part in 20 is instead near
    1e160 or 1e300, inf, -inf or nan."""
    parts = gen.uniform(-3.0, 3.0, shape + (2,))
    kind = gen.integers(0, 100 if wild else 4, shape + (2,))
    parts[kind == 0] = 0.0
    parts[kind == 1] = -0.0
    parts[kind == 2] *= 1e-3
    parts[kind == 4] *= 1e160
    parts[kind == 5] *= 1e300
    parts[kind == 6] = np.inf
    parts[kind == 7] = -np.inf
    parts[kind == 8] = np.nan
    return parts.view(np.complex128)[..., 0]


class TestBlockKernel:
    def test_convolve_rows_is_np_convolve_bit_for_bit(self):
        rng = random.Random(7009)
        routes = Counter()
        for _ in range(3000):
            size = rng.choice(BLOCK_SIZES)
            widths = [rng.randint(1, 7) for _ in range(2)]
            a, b = (np.array([[signed_entry(rng) for _ in range(w)] for _ in range(size)])
                    for w in widths)
            if rng.random() < 0.5:  # a monic linear factor, x - r
                b = np.array([[signed_entry(rng), 1.0] for _ in range(size)])
            if rng.random() < 0.5:
                a, b = b, a
            got = vieta._convolve_rows(a, b)
            want = np.array([np.convolve(x, y) for x, y in zip(a, b)])
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            routes[size, min(a.shape[1], b.shape[1]) >= 3] += 1
        # every block size ran the slice route and the row-by-row route
        assert all(routes[size, wide] > 50 for size in BLOCK_SIZES for wide in (False, True))

    def test_convolve_complex_is_np_convolve_bit_for_bit(self, monkeypatch):
        # complex stacks of every block size and of the line search's 29
        # halvings a row, widths 1-7 in both orders, some second factors
        # monic and linear; entries of +-0.0, and in some stacks entries
        # near 1e160 and 1e300 that overflow, inf and nan.  Every row keeps
        # np.convolve's bits where it is finite and is not finite where it
        # is not, and np.convolve itself never runs
        gen = np.random.default_rng(7012)
        convolve, calls = np.convolve, []

        def counted(*args):
            calls.append(1)
            return convolve(*args)

        monkeypatch.setattr(np, "convolve", counted)
        seen = Counter()
        sizes = BLOCK_SIZES + tuple(29 * size for size in BLOCK_SIZES)
        for _ in range(1500):
            size = int(gen.choice(sizes))
            wild = bool(gen.random() < 0.5)
            widths = [int(w) for w in gen.integers(1, 8, 2)]
            a, b = (complex_entries(gen, (size, w), wild) for w in widths)
            if gen.random() < 0.3:  # a monic linear factor, x - r
                b = np.ones((size, 2), dtype=np.complex128)
                b[:, 0] = complex_entries(gen, (size,), wild)
            if gen.random() < 0.5:
                a, b = b, a
            with np.errstate(all="ignore"):
                calls.clear()
                got = vieta._convolve_complex(a, b)
                taken = len(calls)
                want = np.array([convolve(x, y) for x, y in zip(a, b)])
            assert got.dtype == want.dtype == np.complex128 and got.shape == want.shape
            assert taken == 0
            for i in range(size):
                assert_bits_where_finite(got[i], want[i])
            finite = np.isfinite(want).all(axis=1)
            seen[size] += 1
            seen["wider second" if a.shape[1] < b.shape[1] else
                 "equal" if a.shape[1] == b.shape[1] else "wider first"] += 1
            seen["mixed"] += int(finite.any() and not finite.all())
            seen["signed zero"] += int(np.signbit(a.real[a.real == 0]).any())
            seen["overflow"] += int((np.isfinite(a).all(axis=1) & np.isfinite(b).all(axis=1)
                                     & ~finite).any())
            seen["nan or inf"] += int(not (np.isfinite(a).all() and np.isfinite(b).all()))
        assert all(seen[size] > 50 for size in sizes)
        assert all(seen[key] > 100 for key in ("wider second", "equal", "wider first", "mixed",
                                               "signed zero", "overflow", "nan or inf"))

    def test_block_rows_are_the_one_row_kernel_bytes(self, monkeypatch):
        rng = random.Random(7008)
        convolve, times_linear, stacked = np.convolve, vieta._times_linear, vieta._convolve_complex
        route = []

        def rowwise(*args):
            route.append("rows")
            return convolve(*args)

        def slices(*args):
            route.append("slices")
            return times_linear(*args)

        def dots(*args):
            route.append("dots")
            return stacked(*args)

        monkeypatch.setattr(np, "convolve", rowwise)
        monkeypatch.setattr(vieta, "_times_linear", slices)
        monkeypatch.setattr(vieta, "_convolve_complex", dots)
        routes, zeros = Counter(), 0
        for _ in range(1500):
            d = rng.randint(1, 7)
            mode = rng.choice((REAL_MODE, COMPLEX_MODE))
            pat = rng.choice(enumerate_patterns(d, mode))
            system = build_system(pat, poly([0] * d + [1]), mode)
            size = rng.choice(BLOCK_SIZES)
            U = random_block(rng, system, size)
            zeros += int(np.any(np.signbit(U.real) & (U.real == 0)))
            outs, taken = [], []
            for kernel in (system.coeffs, system.jacobian):
                route.clear()
                outs.append(kernel(U))
                taken.append(set(route))
            C, J = outs
            routes.update((size, r) for r in set().union(*taken))
            if mode == COMPLEX_MODE:
                # every stage of a finite complex stack runs the stacked dot
                # products and no np.convolve (a lone root's product has no
                # stage)
                assert taken == [{"dots"} if d > 1 else set()] * 2
            assert C.shape == (size, d + 1) and J.shape == (size, d + 1, system.n_unknowns)
            for i, u in enumerate(U):
                assert C[i].tobytes() == system.coeffs(u).tobytes()
                assert J[i].tobytes() == system.jacobian(u).tobytes()
            for X in (C, U):
                sumsq, norm = vieta._sumsq_rows(X), vieta._norm_rows(X)
                for i, x in enumerate(X):
                    x = x.copy()  # a fresh vector, as a one-start loop has
                    assert sumsq[i] == float(np.vdot(x, x).real)
                    assert norm[i].tobytes() == np.float64(np.linalg.norm(x)).tobytes()
        assert zeros > 500  # -0.0 entries were exercised
        assert all(routes[size, r] > 20 for size in BLOCK_SIZES for r in ("rows", "slices", "dots"))
        # complex stacks that mix finite rows with rows whose products
        # overflow: every stage still runs the stacked dot products and no
        # np.convolve, and every row keeps the one-row kernel's bytes where
        # they are finite and is not finite where they are not
        mixed = Counter()
        with np.errstate(all="ignore"):
            for _ in range(600):
                d = rng.randint(2, 7)
                pat = rng.choice(enumerate_patterns(d, COMPLEX_MODE))
                system = build_system(pat, poly([0] * d + [1]), COMPLEX_MODE)
                size = rng.choice(BLOCK_SIZES[1:])
                U = random_block(rng, system, size)
                for i in rng.sample(range(size), rng.randint(1, (size + 1) // 2)):
                    U[i, rng.randrange(system.n_unknowns)] *= rng.choice((1e160, 1e300))
                for kernel in (system.coeffs, system.jacobian):
                    route.clear()
                    X = kernel(U)
                    assert set(route) == {"dots"}
                    finite = np.isfinite(X.reshape(size, -1)).all(axis=1)
                    for i, u in enumerate(U):
                        assert_bits_where_finite(X[i], kernel(u))
                    mixed[kernel.__name__] += int(finite.any() and not finite.all())
        assert all(mixed[name] > 100 for name in ("coeffs", "jacobian"))

    def test_lstsq_rows_is_lstsq_bit_for_bit(self):
        # every (equations, unknowns) shape up to degree 6, stacks of 1 and
        # 33 rows; some rows rank-deficient, some scaled near 1e-300, and
        # every entry finite (LAPACK may hang on a NaN)
        rng = random.Random(2601)
        kinds, deficient = Counter(), 0
        for mode in (REAL_MODE, COMPLEX_MODE):
            shapes = sorted({(d + 1, build_system(pat, poly([0] * d + [1]), mode).n_unknowns)
                             for d in range(1, 7) for pat in enumerate_patterns(d, mode)})
            assert len(shapes) > 5
            dtype = np.float64 if mode == REAL_MODE else np.complex128

            def entries(*dims):
                values = [complex(signed_entry(rng), signed_entry(rng)) if mode == COMPLEX_MODE
                          else signed_entry(rng) for _ in range(math.prod(dims))]
                return np.array(values, dtype).reshape(dims)

            for (m, n), size, _ in itertools.product(shapes, (1, 33), range(3)):
                J, rhs = entries(size, m, n), entries(size, m)
                for i in range(size):
                    kind = rng.choice(("plain", "deficient", "tiny"))
                    if kind == "deficient" and n > 1:
                        a, b = rng.sample(range(n), 2)
                        J[i, :, a] = J[i, :, b] * rng.uniform(-2, 2)
                    elif kind == "deficient":
                        J[i] = 0.0
                    elif kind == "tiny":
                        scale = rng.uniform(0.5, 2.0) * 1e-300
                        J[i] *= scale
                        rhs[i] *= scale
                    kinds[size, kind] += 1
                    deficient += int(np.linalg.matrix_rank(J[i]) < n)
                assert np.isfinite(J).all() and np.isfinite(rhs).all()
                got = vieta._lstsq_rows(J, rhs)
                assert got.dtype == dtype and got.shape == (size, n)
                for i in range(size):
                    want = np.linalg.lstsq(J[i], rhs[i], rcond=None)[0]
                    assert got[i].tobytes() == want.tobytes()
                    assert vieta._lstsq_rows(J[i], rhs[i]).tobytes() == want.tobytes()
        assert all(kinds[size, kind] > 20 for size in (1, 33) for kind in ("plain", "deficient", "tiny"))
        assert deficient > 1000

    def test_no_non_finite_row_reaches_the_least_squares(self, monkeypatch):
        # the inputs of the non-finite and overflow tests above: the solo
        # path and, past start 2, the block path hand _lstsq_rows only
        # finite rows
        lstsq_rows, rows = vieta._lstsq_rows, Counter()

        def guarded(J, rhs):
            assert np.isfinite(J).all() and np.isfinite(rhs).all()
            rows[J.ndim] += len(J) if J.ndim == 3 else 1
            return lstsq_rows(J, rhs)

        monkeypatch.setattr(vieta, "_lstsq_rows", guarded)
        for coeffs, mode in itertools.product(([1e300, 1e300, 1.0], [1e308, 1e308, 1e308]),
                                              (REAL_MODE, COMPLEX_MODE)):
            with np.errstate(all="ignore"):
                try:
                    find_roots_report(complex_poly(coeffs), mode)
                except NoPatternSolved:
                    pass
        assert rows[2] > 0 and rows[3] > 0  # both paths solved finite rows

    @np.errstate(over="ignore", invalid="ignore")
    def test_line_search_rows_is_the_plain_line_search(self):
        # each listed row takes the first of lam = 1 and the 29 halvings
        # whose _trial residual is smaller, or none; rows not listed, and
        # rows where none passes, keep their bytes
        rng = random.Random(7011)
        outcomes = Counter()

        def stretch():  # a third of the steps overflow the residual
            return 10.0 ** (rng.uniform(150, 300) if rng.random() < 1 / 3 else rng.uniform(-3, 3))

        for _ in range(400):
            system, u = random_system(rng)
            size = rng.choice(BLOCK_SIZES)
            U = np.array([u + random_vector(rng, system, 10.0 ** rng.uniform(-14, 0))
                          for _ in range(size)])
            RES = system.residual(U)
            F = vieta._sumsq_rows(RES)
            # a Gauss-Newton step, shrunk or stretched, and half of them
            # turned uphill, where no halving may pass
            step = np.array([np.linalg.lstsq(system.jacobian(x), -r, rcond=None)[0]
                             * rng.choice((1, -1)) * stretch()
                             for x, r in zip(U, RES)])
            rows = np.array(sorted(rng.sample(range(size), rng.randint(0, size))), dtype=int)
            want = [U.copy(), RES.copy(), F.copy(), np.zeros(size, dtype=U.dtype)]
            for i in rows:
                for lam in (1.0,) + vieta._HALVINGS:
                    cand, r2, f2 = vieta._trial(system, U[i], lam, step[i])
                    outcomes["not finite"] += not math.isfinite(f2)
                    if f2 < F[i]:
                        for out, value in zip(want, (cand, r2, f2, lam)):
                            out[i] = value
                        outcomes["full" if lam == 1.0 else "halving"] += 1
                        break
                else:
                    outcomes["none"] += 1
            outcomes["empty", system.mode] += not rows.size
            lam = vieta._line_search_rows(system, U, RES, F, step, rows)
            for got, expected in zip((U, RES, F, lam), want):
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
        assert all(outcomes[o] > 200 for o in ("full", "halving", "none"))
        assert outcomes["not finite"] > 100
        assert outcomes["empty", REAL_MODE] > 10 and outcomes["empty", COMPLEX_MODE] > 10


def block_results(system, U0):
    """Each row's result from _gauss_newton_rows, and the round it finished in."""
    results, rounds = {}, {}
    for n, finished in enumerate(vieta._gauss_newton_rows(system, U0)):
        results.update(finished)
        rounds.update((row, n) for row in finished)
    assert sorted(results) == list(range(len(U0)))
    return [results[i] for i in range(len(U0))], [rounds[i] for i in range(len(U0))]


def meter_runs_out():
    """The charge of each start of the pi cubic's shape 2,1, and for each cap
    below their sum, the ResourceLimit messages of find_roots_report(CUBIC)
    with the first two starts alone and the rest in a block, and with every
    start alone: (charges, [(cap, messages)])."""
    target = parse_poly_text(CUBIC)
    system = build_system(MultiplicityPattern((2, 1)), target)
    charges = [max(1, vieta._gauss_newton(system, vieta._start(system, v))[3])
               for v in vieta._start_battery(system)]
    solo = sum(charges[:vieta._SOLO_STARTS])
    caps = (1, charges[0] - 1, charges[0] + 1,  # inside the solo starts
            solo, solo + 1, solo + charges[2], solo + charges[2] + 7, 700, sum(charges) - 1)
    default, runs = (vieta.GN_WORK_CAP, vieta._SOLO_STARTS), []
    try:
        for cap in caps:
            messages = []
            for solo_starts in (2, 10 ** 9):
                vieta.GN_WORK_CAP, vieta._SOLO_STARTS = cap, solo_starts
                try:
                    find_roots_report(target)
                except ResourceLimit as exc:
                    messages.append(str(exc))
                else:
                    messages.append(None)
            runs.append((cap, messages))
    finally:
        vieta.GN_WORK_CAP, vieta._SOLO_STARTS = default
    return charges, runs


class TestLockstep:
    def test_block_rows_match_the_one_start_loop(self):
        rng = random.Random(1316)
        statuses, iterations, overtaken = Counter(), 0, 0
        for _ in range(60):
            system, _ = random_system(rng)
            U0 = np.array([vieta._start(system, v)
                           for v in itertools.islice(vieta._start_battery(system), 8)])
            got, rounds = block_results(system, U0)
            for u0, (u, resid, status, iters) in zip(U0, got):
                want_u, *want = vieta._gauss_newton(system, u0)
                assert u.dtype == want_u.dtype and u.tobytes() == want_u.tobytes()
                assert [resid, status, iters] == want
                statuses[status] += 1
                iterations += iters
            overtaken += any(later < earlier for earlier, later in zip(rounds, rounds[1:]))
        assert iterations > 5_000 and overtaken > 10
        assert all(statuses[s] > 20 for s in ("converged", "stalled", "maxiter"))

    def test_the_earliest_accepted_start_wins(self, monkeypatch):
        # (x - 1)(x - 2)(x - 3): two starts with coincident roots stall and
        # run alone; in the block the exact roots converge before any
        # iteration, ahead of the battery start before them
        system = build_system(MultiplicityPattern((1, 1, 1)), poly([-6, 11, -6, 1]))
        battery = list(itertools.islice(vieta._start_battery(system), 2))
        starts = [[0.0] * 3, [5.0] * 3, battery[0], [1.0, 2.0, 3.0], battery[1]]
        U0 = np.array([vieta._start(system, v) for v in starts[2:]])
        (first, exact, _), rounds = block_results(system, U0)
        assert exact[2:] == ("converged", 0) and first[2] == "converged" and first[3] > 0
        assert rounds[1] < rounds[0]
        got = vieta._solve_case(system, starts, vieta._WorkMeter())
        monkeypatch.setattr(vieta, "_SOLO_STARTS", 10 ** 9)  # the one-start loop
        want = vieta._solve_case(system, starts, vieta._WorkMeter())
        assert got == want
        assert got.status == SOLVED and got.starts_used == 3
        alone = [vieta._gauss_newton(system, vieta._start(system, v))
                 for v in starts[:3]]
        assert got.iterations == sum(iters for *_, iters in alone)
        assert [s for _, _, s, _ in alone] == ["stalled", "stalled", "converged"]

    def test_the_meter_runs_out_inside_a_block(self):
        # the pi cubic spends its first 1 359 units on shape 2,1, whose
        # starts 3-32 run in one block
        charges, runs = pinned("meter_runs_out")
        assert sum(charges) == 1359
        solo = sum(charges[:vieta._SOLO_STARTS])
        assert charges[0] > 2 and charges[0] + 1 < solo  # three caps inside the solo starts
        for cap, (blocked, alone) in runs:
            # the block and the one-start loop run out at the same start
            assert blocked is not None and blocked == alone
            assert f"cap of {cap} Gauss-Newton iterations" in blocked


# every product of 2, of 3 and of 4 roots from this set, repeats allowed
DOMAIN_ROOTS = tuple(Fraction(v) for v in ("-2", "-1", "-1/2", "0", "1/3", "1", "3/2"))
DOMAIN = [*itertools.combinations_with_replacement(DOMAIN_ROOTS, 2),
          *itertools.combinations_with_replacement(DOMAIN_ROOTS, 3)]
DOMAIN_4 = list(itertools.combinations_with_replacement(DOMAIN_ROOTS, 4))


def domain_text(roots, spelling):
    coeffs = [Fraction(1)]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([Fraction(0)] + coeffs, coeffs + [Fraction(0)])]
    if spelling == "exact":
        return ",".join(str(c) for c in coeffs)
    return ",".join(format(Decimal(repr(float(c))), "f") for c in coeffs)


def unanswered(domain, mode, spelling):
    """The products of the domain that fail or answer wrong."""
    bad = []
    for roots in domain:
        want = sorted(Counter(roots).items())
        try:
            got = [(complex(v), m) for v, m, _ in
                   find_roots(parse_poly_text(domain_text(roots, spelling)), mode=mode).roots]
        except NoPatternSolved:
            bad.append((roots, "NoPatternSolved"))
            continue
        if len(got) != len(want) or any(
                abs(g - w) > 1e-6 * max(1, abs(w)) or gm != wm
                for (g, gm), (w, wm) in zip(got, want)):
            bad.append((roots, got))
    return bad


class TestSmallDomainWalk:
    """An exhaustive gate: every small product answers with its roots and
    multiplicities, in both modes, and up to degree 3 in both spellings.  A
    failure found here is pinned, not dropped from the domain."""

    @pytest.mark.parametrize("spelling", ["exact", "float"])
    @pytest.mark.parametrize("mode", [REAL_MODE, COMPLEX_MODE])
    def test_every_product_of_two_and_three_roots_answers(self, mode, spelling):
        assert len(DOMAIN) == 28 + 84
        assert unanswered(DOMAIN, mode, spelling) == []

    @pytest.mark.parametrize("mode", [REAL_MODE, COMPLEX_MODE])
    def test_every_product_of_four_roots_answers(self, mode):
        # the exact spelling only, which halves the cost
        assert len(DOMAIN_4) == 210
        assert unanswered(DOMAIN_4, mode, "exact") == []
