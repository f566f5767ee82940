import math

import mpmath
import pytest

from tilelab import (
    BoundReport,
    DomainError,
    claim_report,
    configuration_count,
    enumerate_reachable,
    goal,
    new_grid,
    optimal_moves_log_bound,
    optimal_moves_mobility_bound,
    parse_moves,
    polytime_witness,
    solvable_states_branching_bound,
    solvable_states_mobility_bound,
    verify_solution,
)


class TestVerifySolution:
    def test_accepts_known_solution(self, example_grid):
        assert verify_solution(example_grid, parse_moves("RDDRD"))

    def test_rejects_wrong_sequence(self, example_grid):
        assert not verify_solution(example_grid, parse_moves("RDDR"))
        assert not verify_solution(example_grid, ())

    def test_total_mode_tolerates_boundary_moves(self):
        # D and R fall off the board at the goal and must act as identity
        assert verify_solution(goal(2), parse_moves("DR"))

    def test_empty_sequence_on_goal(self):
        assert verify_solution(goal(3), ())


class TestBoundFormulas:
    def test_configuration_count(self):
        assert configuration_count(2) == 24
        assert configuration_count(3) == 362880
        assert configuration_count(4) == math.factorial(16)

    def test_log_bound_against_high_precision(self):
        mpmath.mp.dps = 50
        for n in (2, 3, 4, 5):
            want = mpmath.log(mpmath.factorial(n * n)) / mpmath.log(4)
            assert abs(optimal_moves_log_bound(n) - float(want)) < 1e-9

    def test_log_bound_n3_value(self):
        assert optimal_moves_log_bound(3) == pytest.approx(9.2345665099, abs=1e-9)

    def test_branching_bound_values(self):
        assert solvable_states_branching_bound(2) == 8
        assert solvable_states_branching_bound(3) == 82948

    def test_branching_bound_floor_is_exact(self):
        # the inner floor((log4((n^2)!) - 1) / 2) must be taken on exact
        # integers; recover m from the output and check it both ways
        mpmath.mp.dps = 60
        for n in (2, 3, 4, 5, 6):
            val = solvable_states_branching_bound(n)
            m = 0
            while 4 * 3 ** (m + 1) * 4 ** (m + 1) + 4 <= val:
                m += 1
            assert 4 * 3 ** m * 4 ** m + 4 == val
            want = int(mpmath.floor(
                (mpmath.log(mpmath.factorial(n * n)) / mpmath.log(4) - 1) / 2))
            assert m == want

    def test_mobility_bounds_at_n3(self):
        assert solvable_states_mobility_bound(3) == 8
        assert optimal_moves_mobility_bound(3) == 16

    def test_domains(self):
        for fn in (configuration_count, optimal_moves_log_bound,
                   solvable_states_branching_bound):
            with pytest.raises(DomainError):
                fn(1)
        for fn in (solvable_states_mobility_bound, optimal_moves_mobility_bound):
            with pytest.raises(DomainError):
                fn(2)

    @pytest.mark.parametrize("fn", [
        configuration_count, optimal_moves_log_bound, solvable_states_branching_bound,
        solvable_states_mobility_bound, optimal_moves_mobility_bound,
        lambda n: polytime_witness(1, 1, n, 0),
    ])
    @pytest.mark.parametrize("n", [3.5, 2.0, True, 3.0])
    def test_non_int_side_is_a_value_error(self, fn, n):
        # a malformed argument, not a point outside the formula's domain
        with pytest.raises(ValueError, match="n must be an int") as exc:
            fn(n)
        assert not isinstance(exc.value, DomainError)


class TestClaimReport:
    def test_n2_verdicts(self, table2):
        rep = claim_report(2, table2)
        assert rep.ground_truth == {"solvable_states": 12, "diameter": 6}
        assert rep.verdicts == {
            "optimal_moves_log_bound": "fails",
            "solvable_states_branching_bound": "fails",
            "solvable_states_mobility_bound": "untested",
            "optimal_moves_mobility_bound": "untested",
            "configuration_count": "holds",
        }
        assert rep.bounds["solvable_states_mobility_bound"] is None
        assert rep.bounds["optimal_moves_mobility_bound"] is None

    def test_n3_verdicts(self, table3):
        rep = claim_report(3, table3)
        assert rep.ground_truth == {"solvable_states": 181440, "diameter": 31}
        assert rep.verdicts == {
            "optimal_moves_log_bound": "fails",
            "solvable_states_branching_bound": "fails",
            "solvable_states_mobility_bound": "fails",
            "optimal_moves_mobility_bound": "fails",
            "configuration_count": "holds",
        }
        assert rep.bounds["solvable_states_mobility_bound"] == 8
        assert rep.bounds["optimal_moves_mobility_bound"] == 16

    def test_report_leaves_the_index_unbuilt(self):
        # the report reads the census counts; only depth_of sorts the codes
        table = enumerate_reachable(3)
        claim_report(3, table)
        assert "_index" not in table.__dict__
        assert table.depth_of(goal(3)) == 0
        assert table.depth_of(new_grid(3, [6, 4, 7, 8, 5, None, 3, 2, 1])) == 31

    def test_report_builds_own_table_when_omitted(self):
        rep = claim_report(2)
        assert rep.ground_truth["solvable_states"] == 12

    def test_table_size_mismatch(self, table2):
        with pytest.raises(ValueError):
            claim_report(3, table2)

    @pytest.mark.parametrize("n, limit", [(3, 5), (2, 6)])
    def test_truncated_census_is_refused(self, n, limit):
        # the 51 states within 5 moves of the 3x3 goal would grade three
        # failing bounds as holding; (2, 6) stops at the true diameter,
        # which the census has not yet seen to be the last level
        table = enumerate_reachable(n, depth_limit=limit)
        assert not table.complete
        with pytest.raises(ValueError, match="depth limit"):
            claim_report(n, table)

    def test_out_of_scale_n(self):
        with pytest.raises(DomainError):
            claim_report(4)

    @pytest.mark.parametrize("n", [True, False, 2.0, 3.0, "3"])
    def test_non_int_side_is_a_value_error(self, n):
        # the int-argument rule of the bound functions, before the scale test
        with pytest.raises(ValueError, match="n must be an int") as exc:
            claim_report(n)
        assert not isinstance(exc.value, DomainError)

    def test_to_json_shape(self, table2):
        doc = claim_report(2, table2).to_json()
        assert set(doc) == {"n", "ground_truth", "bounds", "verdicts"}
        assert doc["ground_truth"] == {"solvable_states": 12, "diameter": 6}
        assert set(doc["bounds"]) == {
            "optimal_moves_log_bound",
            "solvable_states_branching_bound",
            "solvable_states_mobility_bound",
            "optimal_moves_mobility_bound",
            "configuration_count",
        }
        assert doc["bounds"]["configuration_count"] == 24
        assert isinstance(doc["verdicts"], dict)

    def test_report_dataclass_round_trip(self, table2):
        rep = claim_report(2, table2)
        assert isinstance(rep, BoundReport)
        assert rep.to_json()["verdicts"] == rep.verdicts
