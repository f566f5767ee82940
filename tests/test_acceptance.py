"""End-to-end acceptance checks, one test per advertised capability.

Run with -v to get a pass/fail line per criterion.  Every frozen number
here was computed independently (brute force, mpmath, or the Sturm
oracle) before being written down; nothing is copied from the library
under test.
"""

import math
import random
import time

import pytest

from tilelab import (
    CostLedger,
    Move,
    MOVES,
    NoPatternSolved,
    RATIONAL,
    add,
    apply_seq,
    budget,
    claim_report,
    complex_poly,
    configuration_count,
    decode,
    enumerate_reachable,
    eval_horner,
    eval_naive,
    exhaust_sequences,
    find_roots_report,
    goal,
    grids_equal,
    instrumented_verify,
    length,
    max_norm,
    mul,
    new_grid,
    norm_claim_check,
    optimal_moves_log_bound,
    optimal_moves_mobility_bound,
    oracle_real_roots,
    parse_moves,
    parse_poly_text,
    poly,
    reverse_seq,
    solvable_states_mobility_bound,
    solve_optimal,
    verify_solution,
)
from conftest import code_depths

EXAMPLE_CELLS = (1, 0, 2, 4, 5, 6, 3, 8, 9, 10, 7, 11, 13, 14, 15, 12)


def test_c01_worked_example_solves_in_five_moves():
    g = new_grid(4, EXAMPLE_CELLS)
    seq = parse_moves("RDDRD")
    start = time.perf_counter()
    assert grids_equal(apply_seq(g, seq), goal(4))
    assert verify_solution(g, seq) is True
    result = solve_optimal(g)
    elapsed = time.perf_counter() - start
    assert result.psi == 5
    assert elapsed < 1.0


def test_c02_reverse_sequence_reconstructs_example():
    g = new_grid(4, EXAMPLE_CELLS)
    back = reverse_seq(parse_moves("RDDRD"))
    assert grids_equal(apply_seq(goal(4), back), g)


def test_c03_census_counts_and_claim_verdicts():
    start = time.perf_counter()
    table2 = enumerate_reachable(2)
    assert time.perf_counter() - start < 0.1
    assert table2.count == 12
    assert table2.diameter == 6

    start = time.perf_counter()
    table3 = enumerate_reachable(3)
    assert time.perf_counter() - start < 60.0
    assert table3.count == 181440
    assert table3.diameter == 31

    rep = claim_report(3, table3)
    for key in (
        "optimal_moves_log_bound",
        "solvable_states_branching_bound",
        "solvable_states_mobility_bound",
        "optimal_moves_mobility_bound",
    ):
        assert rep.verdicts[key] == "fails"
    assert rep.verdicts["configuration_count"] == "holds"


def test_c04_bound_formulas():
    assert solvable_states_mobility_bound(3) == 8
    assert optimal_moves_mobility_bound(3) == 16
    # log4(9!) = 9.23457 to five places; the often-quoted 9.2316 is a
    # typo, so compare against an independent computation instead
    reference = math.lgamma(10) / math.log(4)
    assert optimal_moves_log_bound(3) == pytest.approx(reference, abs=1e-3)
    assert configuration_count(2) == 24


def test_c05_decision_budgets():
    # every n=2 state, verified with its optimal sequence
    table2 = enumerate_reachable(2)
    for key, depth in code_depths(table2):
        g = new_grid(2, decode(key, 2))
        seq = solve_optimal(g).seq
        assert len(seq) == depth
        ledger = CostLedger()
        assert instrumented_verify(g, seq, ledger) is True
        assert ledger.decisions <= budget("verify", 2, depth).ceiling

    # random grids and sequences, accepted or not, stay inside the budget
    rng = random.Random(905)
    for trial in range(10_000):
        n = 3 if trial % 2 == 0 else 4
        g = goal(n)
        for _ in range(rng.randint(0, 20)):
            g = apply_seq(g, (rng.choice(MOVES),), total=True)
        seq = [rng.choice(MOVES) for _ in range(rng.randint(0, 12))]
        ledger = CostLedger()
        instrumented_verify(g, seq, ledger)
        assert ledger.decisions <= budget("verify", n, len(seq)).ceiling

    # brute-force search over all n=2 states stays inside its budget
    for key in table2.codes.tolist():
        g = new_grid(2, decode(key, 2))
        ledger = CostLedger()
        exhaust_sequences(g, 6, ledger)
        assert ledger.decisions <= budget("search", 2, 6).ceiling


def test_c06_program_length():
    assert length("1!+456j") == 7
    assert length("y=3; for(i=1; i<k; i++){ y=y+i;}") == 28


def test_c07_pi_cubic_three_case_walk():
    p = parse_poly_text("pi/2, -pi^2, 0, 2")
    start = time.perf_counter()
    rep = find_roots_report(p)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0

    assert [o.pattern.mults for o in rep.outcomes] == [(3,), (2, 1), (1, 1, 1)]
    assert [o.status for o in rep.outcomes] == [
        "inconsistent", "inconsistent", "solved"]
    assert rep.roots.count == 3
    for value, m, _ in rep.roots.roots:
        assert m == 1
        assert abs(complex(eval_horner(p, value))) < 1e-9

    oracle = oracle_real_roots(p)
    for (got, _, _), (want, _, _) in zip(rep.roots.roots, oracle.roots):
        assert abs(complex(got).real - float(want)) < 1e-8


def test_c08_root_recovery_batch():
    rng = random.Random(2026)
    recovered = 0
    wrong = 0
    for _ in range(500):
        k = rng.randint(1, 5)
        roots = []
        while len(roots) < k:
            r = rng.uniform(-5.0, 5.0)
            if all(abs(r - s) > 0.25 for s in roots):
                roots.append(r)
        roots.sort()
        c = rng.choice((-2, -1, 1, 2))
        target = complex_poly([c])
        for r in roots:
            target = mul(target, complex_poly([-r, 1]))
        try:
            rs = find_roots_report(target, order="generic").roots
        except NoPatternSolved:
            continue
        good = rs.count == k and all(
            m == 1 and abs(complex(got).real - want) <= 1e-6
            for (got, m, _), want in zip(rs.roots, roots))
        if good:
            recovered += 1
        else:
            wrong += 1
    assert wrong == 0
    assert recovered >= 495


def test_c09_norm_multiplicativity_and_axioms():
    chk = norm_claim_check(parse_poly_text("1,1"), parse_poly_text("1,1"))
    assert chk.lhs == 2
    assert chk.rhs == 1
    assert chk.holds is False

    rng = random.Random(17)
    for _ in range(10_000):
        p = poly([rng.randint(-9, 9) for _ in range(rng.randint(0, 7))], RATIONAL)
        q = poly([rng.randint(-9, 9) for _ in range(rng.randint(0, 7))], RATIONAL)
        np_, nq = max_norm(p), max_norm(q)
        assert np_ >= 0 and nq >= 0
        assert (np_ == 0) == (p.degree is None)
        assert max_norm(add(p, q)) <= np_ + nq


def test_c10_evaluation_agreement():
    rng = random.Random(404)
    for _ in range(10_000):
        coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                  for _ in range(rng.randint(1, 21))]
        p = complex_poly(coeffs)
        x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        scale = sum(abs(a) * abs(x) ** i for i, a in enumerate(coeffs))
        gap = abs(eval_horner(p, x) - eval_naive(p, x))
        assert gap <= 1e-12 * max(1.0, scale)
