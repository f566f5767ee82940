"""Workbench for sliding-tile solvability and factor-matching root finding.

Two instruments share one toolbox.  The tile side models an n x n sliding
puzzle as blank-centric moves, solves positions optimally, verifies claimed
solutions in a bounded number of decisions, and audits a family of counting
and cost bounds against brute-force enumeration.  The polynomial side
matches targets against factorization shapes to recover roots with
multiplicities, cross-checked by an exact real-root oracle that isolates
roots by Descartes bisection.
"""

from .limits import ResourceLimit
from .grid import (
    BLANK,
    DuplicateTile,
    GridError,
    IllegalMove,
    MissingBlank,
    Move,
    MOVES,
    MultipleBlanks,
    TileGrid,
    ValueOutOfRange,
    apply_move,
    apply_move_total,
    apply_seq,
    format_grid_text,
    format_moves,
    goal,
    grid_from_json,
    grid_to_json,
    grids_equal,
    inverse_move,
    is_goal,
    legal_moves,
    load_grid,
    move_target,
    new_grid,
    parse_grid_text,
    parse_moves,
    reverse_seq,
)
from .search import (
    DEFAULT_STATE_CAP,
    EXHAUST_CANDIDATE_CAP,
    NotFound,
    ReachabilityTable,
    SearchResult,
    Unsolvable,
    candidate_rank,
    candidate_sequences,
    decode,
    encode,
    enumerate_reachable,
    exhaust_sequences,
    is_solvable,
    solve_optimal,
)
from .verify import (
    BoundReport,
    DomainError,
    claim_report,
    configuration_count,
    optimal_moves_log_bound,
    optimal_moves_mobility_bound,
    solvable_states_branching_bound,
    solvable_states_mobility_bound,
    verify_solution,
)
from .cost import (
    MOVE_DECISION_CEILINGS,
    PRIMITIVES,
    Budget,
    CeilingExceeded,
    CostLedger,
    budget,
    instrumented_apply,
    instrumented_verify,
    length,
    polytime_witness,
)
from .poly import (
    COMPLEX,
    EXACT_BITS_CAP,
    RATIONAL,
    KindMismatch,
    NormCheck,
    NotARoot,
    Poly,
    RootSet,
    add,
    complex_poly,
    eval_horner,
    eval_naive,
    float_coeffs,
    format_poly_text,
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
from .sturm import count_real_roots_in, is_nicely_factored, oracle_real_roots, root_bound
from .vieta import (
    COMPLEX_MODE,
    INCONSISTENT,
    NO_CONVERGENCE,
    REAL_MODE,
    SOLVED,
    CaseOutcome,
    DegreeMismatch,
    FindReport,
    MultiplicityPattern,
    NoPatternSolved,
    VietaSystem,
    build_system,
    enumerate_patterns,
    find_roots,
    find_roots_report,
    solve_case,
)

__version__ = "0.1.0"
