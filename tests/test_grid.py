import json
import random

import pytest
from hypothesis import example, given, strategies as st

from tilelab import (
    BLANK,
    DuplicateTile,
    IllegalMove,
    MissingBlank,
    Move,
    MOVES,
    MultipleBlanks,
    TileGrid,
    ValueOutOfRange,
    apply_seq,
    format_grid_text,
    format_moves,
    goal,
    grid_from_json,
    grid_to_json,
    grids_equal,
    inverse_move,
    legal_moves,
    load_grid,
    move_target,
    new_grid,
    parse_grid_text,
    parse_moves,
    reverse_seq,
)


def random_grid(n: int, rng: random.Random) -> TileGrid:
    cells = list(range(n * n))
    rng.shuffle(cells)
    return new_grid(n, cells)


class TestConstruction:
    def test_goal_layout(self):
        g = goal(3)
        assert g.cells == (1, 2, 3, 4, 5, 6, 7, 8, BLANK)
        assert g.blank_index == 8
        assert g.blank_pos == (3, 3)
        assert grids_equal(g, new_grid(3, [1, 2, 3, 4, 5, 6, 7, 8, None]))

    def test_goal_rejects_small_side(self):
        with pytest.raises(ValueError):
            goal(1)

    @pytest.mark.parametrize("n", [2.0, True, "3"])
    def test_side_must_be_an_int(self, n):
        with pytest.raises(ValueError, match="grid side must be an int"):
            goal(n)
        with pytest.raises(ValueError, match="grid side must be an int"):
            new_grid(n, [1, 2, 3, None])

    def test_new_grid_accepts_none_blank(self):
        g = new_grid(2, [1, None, 2, 3])
        assert g.cells == (1, BLANK, 2, 3)
        assert g.blank_index == 1

    def test_new_grid_shape_checked_before_contents(self):
        with pytest.raises(ValueError, match="expected 4 entries"):
            new_grid(2, [1, 2, 3])

    def test_missing_blank(self):
        with pytest.raises(MissingBlank):
            new_grid(2, [1, 2, 3, 3])

    def test_multiple_blanks(self):
        with pytest.raises(MultipleBlanks):
            new_grid(2, [None, 0, 1, 2])

    def test_value_out_of_range(self):
        with pytest.raises(ValueOutOfRange):
            new_grid(2, [1, 2, 4, None])
        with pytest.raises(ValueOutOfRange):
            new_grid(2, [1, 2, -1, None])
        with pytest.raises(ValueOutOfRange):  # True == 1 and False == 0, but neither is a cell
            new_grid(2, [True, 2, 3, False])

    def test_duplicate_tile(self):
        with pytest.raises(DuplicateTile):
            new_grid(3, [1, 1, 2, 3, 4, 5, 6, 7, None])

    def test_rows(self):
        g = goal(2)
        assert g.rows() == [[1, 2], [3, BLANK]]


class TestMoves:
    def test_canonical_order_and_arms(self):
        assert [m.letter for m in MOVES] == ["U", "D", "R", "L"]
        assert [m.arm for m in MOVES] == [1, 2, 3, 4]

    def test_inverse_pairs(self):
        assert inverse_move(Move.UP) is Move.DOWN
        assert inverse_move(Move.DOWN) is Move.UP
        assert inverse_move(Move.RIGHT) is Move.LEFT
        assert inverse_move(Move.LEFT) is Move.RIGHT

    def test_inverse_is_the_xor_rule_and_an_involution(self):
        for m in MOVES:
            inv = inverse_move(m)
            assert inv is MOVES[(m.arm - 1) ^ 1]
            assert inverse_move(inv) is m
            assert (inv.dr, inv.dc) == (-m.dr, -m.dc)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])  # grid serves any side; search stops at 4
    def test_one_table_of_targets(self, n):
        from tilelab.grid import _TARGETS

        for i, row in enumerate(_TARGETS[n]):
            r, c = divmod(i, n)
            want = []
            for m in MOVES:
                nr, nc = r + m.dr, c + m.dc
                want.append(nr * n + nc if 0 <= nr < n and 0 <= nc < n else -1)
            assert list(row) == want
            g = new_grid(n, list(range(1, i + 1)) + [None] + list(range(i + 1, n * n)))
            assert [move_target(g, m) for m in MOVES] == [None if j < 0 else j for j in want]
        assert len(_TARGETS[n]) == n * n

    def test_legal_moves_at_corner(self):
        # goal blank sits bottom-right: only U and L stay on the board
        assert legal_moves(goal(3)) == (Move.UP, Move.LEFT)

    def test_legal_moves_at_center(self):
        g = new_grid(3, [1, 2, 3, 4, None, 5, 6, 7, 8])
        assert legal_moves(g) == MOVES

    def test_move_target_off_board(self):
        assert move_target(goal(2), Move.DOWN) is None
        assert move_target(goal(2), Move.RIGHT) is None

    def test_apply_move_swaps_blank(self):
        g = apply_seq(goal(2), (Move.UP,))
        assert g.cells == (1, BLANK, 3, 2)
        assert g.blank_index == 1

    def test_strict_raises_at_boundary(self):
        with pytest.raises(IllegalMove, match="illegal move D at step 0"):
            apply_seq(goal(2), (Move.DOWN,))

    def test_total_is_identity_at_boundary(self):
        g = goal(2)
        assert apply_seq(g, (Move.DOWN,), total=True) is g
        assert apply_seq(g, (Move.RIGHT,), total=True) is g

    def test_apply_seq_reports_failing_index(self):
        with pytest.raises(IllegalMove) as err:
            apply_seq(goal(3), parse_moves("ULDDD"))
        assert err.value.index == 3  # U, L, D land legally; the fourth move falls off
        assert err.value.move is Move.DOWN

    def test_apply_seq_total_skips_illegal(self):
        # D starts illegal and R is illegal after UU; both must act as identity
        strict = apply_seq(goal(3), parse_moves("UU"))
        padded = apply_seq(goal(3), parse_moves("DUUR"), total=True)
        assert grids_equal(strict, padded)


class TestSequences:
    def test_parse_moves(self):
        assert parse_moves("RDDRD") == (
            Move.RIGHT, Move.DOWN, Move.DOWN, Move.RIGHT, Move.DOWN)
        assert parse_moves(" r d\n") == (Move.RIGHT, Move.DOWN)
        assert parse_moves("") == ()

    def test_parse_moves_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_moves("RDX")

    def test_format_moves_round_trip(self):
        s = "ULURDLDR"
        assert format_moves(parse_moves(s)) == s

    def test_reverse_of_rddrd(self):
        assert format_moves(reverse_seq(parse_moves("RDDRD"))) == "ULUUL"

    def test_reverse_seq_undoes(self, example_grid):
        seq = parse_moves("RDDRD")
        there = apply_seq(example_grid, seq)
        back = apply_seq(there, reverse_seq(seq))
        assert grids_equal(back, example_grid)

    @given(st.integers(0, 10 ** 9), st.integers(0, 40))
    def test_random_walk_round_trips(self, seed, steps):
        rng = random.Random(seed)
        g = random_grid(3, rng)
        seq = []
        cur = g
        for _ in range(steps):
            m = rng.choice(legal_moves(cur))
            cur = apply_seq(cur, (m,))
            seq.append(m)
        assert grids_equal(apply_seq(cur, reverse_seq(seq)), g)


class TestSerialization:
    def test_parse_grid_text(self, example_grid):
        text = "1 _ 2 4\n5 6 3 8\n9 10 7 11\n13 14 15 12\n"
        assert grids_equal(parse_grid_text(text), example_grid)

    def test_text_round_trip(self):
        rng = random.Random(7)
        for n in (2, 3, 4):
            for _ in range(20):
                g = random_grid(n, rng)
                assert grids_equal(parse_grid_text(format_grid_text(g)), g)

    def test_text_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            parse_grid_text("1 2\n3 _ 4\n")

    def test_text_rejects_bad_token(self):
        with pytest.raises(ValueError):
            parse_grid_text("1 x\n3 _\n")

    def test_text_rejects_empty(self):
        with pytest.raises(ValueError):
            parse_grid_text("  \n ")

    def test_json_round_trip(self, example_grid):
        doc = grid_to_json(example_grid)
        assert doc["n"] == 4
        assert doc["cells"][1] is None
        assert grids_equal(grid_from_json(doc), example_grid)
        assert grids_equal(grid_from_json(json.dumps(doc)), example_grid)

    def test_json_rejects_missing_keys(self):
        with pytest.raises(ValueError):
            grid_from_json({"cells": [1, 2, 3, None]})

    def test_load_grid_sniffs_format(self, example_grid):
        assert grids_equal(load_grid("1 2\n3 _\n"), new_grid(2, [1, 2, 3, None]))
        assert grids_equal(
            load_grid(json.dumps(grid_to_json(example_grid))), example_grid)



JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 20) | st.floats() | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=12)
CELLS = st.lists(st.none() | st.booleans() | st.integers(-1, 16), max_size=17)


def raises_only_value_error(parse, text):
    try:
        parse(text)
    except ValueError:  # GridError subclasses it
        pass


class TestMalformedInput:
    """Parsers of outside input reject it with ValueError and nothing else."""

    @given(st.text() | st.text().map(lambda s: "{" + s))
    @example('{"n": ' + "[" * 100_000)
    def test_load_grid_text(self, text):
        raises_only_value_error(load_grid, text)

    @given(n=st.integers(-2, 5) | JSON_VALUES, cells=CELLS | JSON_VALUES)
    @example(n="3", cells=[1, 2, 3, 4, 5, 6, 7, 8, None])
    @example(n=None, cells=[])
    @example(n=2, cells=5)
    def test_load_grid_json(self, n, cells):
        raises_only_value_error(load_grid, json.dumps({"n": n, "cells": cells}))

    def test_bool_side_is_rejected(self):
        with pytest.raises(ValueError, match="grid side must be an int"):
            grid_from_json({"n": True, "cells": [1, None]})

    @given(st.text())
    def test_parse_moves(self, text):
        raises_only_value_error(parse_moves, text)
