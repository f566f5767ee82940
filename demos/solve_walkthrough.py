"""
Solving a 4x4 grid in five moves
================================

A move names the arm the blank reaches along: U pulls the tile above
into the blank, D the tile below, R the tile to the right, L the tile
to the left.  One tile slides per move.
"""

from tilelab import (
    apply_seq,
    format_grid_text,
    format_moves,
    goal,
    grids_equal,
    legal_moves,
    new_grid,
    parse_moves,
    reverse_seq,
    solve_optimal,
    verify_solution,
)

# a scrambled grid; _ marks the blank
start = new_grid(4, (1, 0, 2, 4,
                     5, 6, 3, 8,
                     9, 10, 7, 11,
                     13, 14, 15, 12))
print("start position:")
print(format_grid_text(start))
print("legal moves here:", format_moves(legal_moves(start)))

# an optimal solver over the move alphabet
result = solve_optimal(start)
print("\noptimal length:", result.psi)
print("witness:", format_moves(result.seq))
print("nodes expanded:", result.expanded)

# replay the witness and land on the goal
end = apply_seq(start, result.seq)
print("\nafter replay:")
print(format_grid_text(end))
print("is goal:", grids_equal(end, goal(4)))
print("verifier accepts:", verify_solution(start, result.seq))

# reversing a sequence means reading it backwards with each move
# inverted; pushing the reversal through the goal restores the start
back = reverse_seq(result.seq)
print("\nreversed witness:", format_moves(back))
restored = apply_seq(goal(4), back)
print("goal + reversed witness == start:", grids_equal(restored, start))

# illegal moves distinguish the two application modes: strict raises,
# total ignores the move and keeps the state
probe = parse_moves("UUUU")
lenient = apply_seq(goal(4), probe, total=True)
print("\nfour U moves in total mode move the blank up three rows only:")
print(format_grid_text(lenient))
