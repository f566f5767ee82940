import os
import random
import subprocess
import sys

import pytest

import tilelab.cost
from tilelab import (
    MOVE_DECISION_CEILINGS,
    MOVES,
    CeilingExceeded,
    CostLedger,
    Move,
    PRIMITIVES,
    apply_seq,
    budget,
    decode,
    goal,
    grids_equal,
    instrumented_apply,
    instrumented_verify,
    legal_moves,
    length,
    new_grid,
    polytime_witness,
    solve_optimal,
    verify_solution,
)

# arm k spends (k+1) + 1 + k + 1 + k^2 decisions on a legal move
LEGAL_COST = {Move.UP: 6, Move.DOWN: 11, Move.RIGHT: 18, Move.LEFT: 27}
ILLEGAL_COST = {Move.UP: 2, Move.DOWN: 3, Move.RIGHT: 4, Move.LEFT: 5}


class TestLedger:
    def test_starts_at_zero(self):
        ledger = CostLedger()
        assert ledger.decisions == 0
        assert set(ledger.per_primitive) == set(PRIMITIVES)

    def test_add_and_snapshot(self):
        ledger = CostLedger()
        ledger.add("guard", 2)
        ledger.add("compare", 3)
        assert ledger.decisions == 5
        snap = ledger.snapshot()
        snap["guard"] = 99
        assert ledger.per_primitive["guard"] == 2  # snapshot is a copy

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CostLedger().add("swap", -1)


class TestInstrumentedApply:
    def test_legal_move_costs(self):
        center = new_grid(3, [1, 2, 3, 4, None, 5, 6, 7, 8])
        for m in MOVES:
            ledger = CostLedger()
            out = instrumented_apply(center, m, ledger)
            assert ledger.decisions == LEGAL_COST[m]
            assert grids_equal(out, apply_seq(center, (m,), total=True))

    def test_illegal_move_costs(self):
        g = goal(2)  # D and R fall off the board
        for m in (Move.DOWN, Move.RIGHT):
            ledger = CostLedger()
            out = instrumented_apply(g, m, ledger)
            assert out is g
            assert ledger.decisions == ILLEGAL_COST[m]
            assert ledger.decisions <= 5

    def test_worst_arm_hits_every_ceiling(self):
        g = goal(2)  # L is legal and is the most expensive arm
        ledger = CostLedger()
        instrumented_apply(g, Move.LEFT, ledger)
        snap = ledger.snapshot()
        assert snap["offset"] == MOVE_DECISION_CEILINGS["offset"]
        assert snap["relocate"] + snap["reverse_offset"] == \
            MOVE_DECISION_CEILINGS["relocate_chain"]
        assert ledger.decisions - snap["guard"] == \
            MOVE_DECISION_CEILINGS["swap_chain"]
        assert ledger.decisions == MOVE_DECISION_CEILINGS["guard_chain"]

    def test_matches_total_semantics_on_random_walks(self):
        rng = random.Random(17)
        g = goal(3)
        ledger = CostLedger()
        for _ in range(200):
            m = rng.choice(MOVES)
            out = instrumented_apply(g, m, ledger)
            assert grids_equal(out, apply_seq(g, (m,), total=True))
            g = out


class TestCeilingChecks:
    """A breached ceiling raises CeilingExceeded naming it, also under -O."""

    def test_move_chain_ceiling_raises(self, monkeypatch):
        monkeypatch.setitem(MOVE_DECISION_CEILINGS, "guard_chain", 26)
        instrumented_apply(goal(2), Move.UP, CostLedger())  # 6 decisions
        with pytest.raises(CeilingExceeded, match="guard_chain ceiling 26 exceeded: 27"):
            instrumented_apply(goal(2), Move.LEFT, CostLedger())

    def test_illegal_move_ceiling_raises(self, monkeypatch):
        monkeypatch.setattr(tilelab.cost, "ILLEGAL_MOVE_CEILING", 4)
        corner = new_grid(2, [None, 1, 2, 3])  # U and L fall off the board
        instrumented_apply(corner, Move.UP, CostLedger())
        with pytest.raises(CeilingExceeded, match="illegal_move ceiling 4 exceeded: 5"):
            instrumented_apply(corner, Move.LEFT, CostLedger())

    def test_verify_budget_raises(self, monkeypatch, example_grid):
        from tilelab import parse_moves
        real = tilelab.cost.budget
        monkeypatch.setattr(tilelab.cost, "budget",
                            lambda kind, n, k: real(kind, n, 0))
        with pytest.raises(CeilingExceeded, match="verify ceiling 17 exceeded: 86"):
            instrumented_verify(example_grid, parse_moves("RDDRD"), CostLedger())

    def test_checks_survive_optimize_flag(self):
        code = ("import tilelab.cost as c\n"
                "c.MOVE_DECISION_CEILINGS['offset'] = 3\n"
                "try:\n"
                "    c.instrumented_apply(c.goal(2), c.Move.LEFT, c.CostLedger())\n"
                "except c.CeilingExceeded as exc:\n"
                "    print(exc)\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "offset ceiling 3 exceeded: 4 decisions"


class TestInstrumentedVerify:
    def test_exact_decision_total(self, example_grid):
        from tilelab import parse_moves
        seq = parse_moves("RDDRD")
        ledger = CostLedger()
        assert instrumented_verify(example_grid, seq, ledger)
        want = sum(LEGAL_COST[m] for m in seq) + 16 + 1
        assert ledger.decisions == want

    def test_agrees_with_plain_verifier(self, table2):
        rng = random.Random(23)
        for code in table2.codes.tolist():
            g = new_grid(2, decode(code, 2))
            seq = tuple(rng.choice(MOVES) for _ in range(rng.randrange(6)))
            ledger = CostLedger()
            assert instrumented_verify(g, seq, ledger) == verify_solution(g, seq)

    def test_within_budget_exhaustively_n2(self, table2):
        for code in table2.codes.tolist():
            g = new_grid(2, decode(code, 2))
            seq = solve_optimal(g).seq
            ledger = CostLedger()
            assert instrumented_verify(g, seq, ledger)
            assert ledger.decisions <= budget("verify", 2, len(seq)).ceiling

    def test_rejecting_run_stays_in_budget(self):
        g = goal(3)
        seq = (Move.UP, Move.UP)
        ledger = CostLedger()
        assert not instrumented_verify(g, seq, ledger)
        assert ledger.decisions <= budget("verify", 3, 2).ceiling

    def test_compare_count_never_short_circuits(self):
        # even an immediately wrong grid pays n^2 + 1 compare decisions
        g = new_grid(2, [3, 2, 1, None])
        ledger = CostLedger()
        instrumented_verify(g, (), ledger)
        assert ledger.per_primitive["compare"] == 5


class TestBudget:
    def test_verify_formula(self):
        assert budget("verify", 2, 0).ceiling == 5
        assert budget("verify", 3, 2).ceiling == 64
        assert budget("verify", 4, 5).ceiling == 152

    def test_search_formula(self):
        assert budget("search", 2, 0).ceiling == 6
        assert budget("search", 2, 5).ceiling == 4 ** 5 * 6 + 135
        assert budget("search", 4, 5).ceiling == 4 ** 5 * 18 + 135

    def test_search_is_exact_big_integer(self):
        assert budget("search", 2, 40).ceiling == 4 ** 40 * 6 + 27 * 40

    def test_validation(self):
        with pytest.raises(ValueError):
            budget("verify", 1, 0)
        with pytest.raises(ValueError):
            budget("verify", 2, -1)
        with pytest.raises(ValueError):
            budget("probe", 2, 0)

    @pytest.mark.parametrize("kind", ["verify", "search"])
    @pytest.mark.parametrize("n, k", [(3, 1.5), (3, True), (2.0, 1), (True, 1)])
    def test_sizes_must_be_ints(self, kind, n, k):
        with pytest.raises(ValueError, match="[nk] must be an int"):
            budget(kind, n, k)

    def test_fields(self):
        b = budget("verify", 3, 4)
        assert (b.kind, b.n, b.k) == ("verify", 3, 4)


class TestLength:
    def test_examples(self):
        assert length("1!+456j") == 7
        assert length("y=3; for(i=1; i<k; i++){ y=y+i;}") == 28

    def test_whitespace_only(self):
        assert length("") == 0
        assert length(" \t\r\n ") == 0

    def test_counts_every_other_character(self):
        assert length("a b\nc") == 3


class TestPolytimeWitness:
    def test_small_budget_cases(self):
        # floor: (1^2 + 1)^(4 + 1) = 32
        assert polytime_witness(32, 1, 2, 0)
        assert not polytime_witness(33, 1, 2, 0)

    def test_verifier_runs_qualify(self, example_grid):
        from tilelab import parse_moves
        seq = parse_moves("RDDRD")
        ledger = CostLedger()
        instrumented_verify(example_grid, seq, ledger)
        assert polytime_witness(ledger.decisions, length("1!+456j"), 4, 5)

    def test_exact_arithmetic_at_boundary(self):
        bound = (7 ** 2 + 1) ** (9 + 27 * 2 + 1)
        assert polytime_witness(bound, 7, 3, 2)
        assert not polytime_witness(bound + 1, 7, 3, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            polytime_witness(1, 0, 2, 0)
        with pytest.raises(ValueError):
            polytime_witness(-1, 1, 2, 0)
        with pytest.raises(ValueError):
            polytime_witness(1, 1, 1, 0)
        with pytest.raises(ValueError):
            polytime_witness(1, 1, 2, -1)

    @pytest.mark.parametrize("n, k", [(2.0, 1), (True, 1), (3, 1.0), (3, False)])
    def test_sizes_must_be_ints(self, n, k):
        with pytest.raises(ValueError, match="[nk] must be an int"):
            polytime_witness(10, 5, n, k)
