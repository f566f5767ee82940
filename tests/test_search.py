import random
import tracemalloc
from collections import deque
from itertools import permutations

import pytest

from tilelab import (
    CostLedger,
    MOVES,
    Move,
    NotFound,
    ResourceLimit,
    Unsolvable,
    apply_seq,
    budget,
    candidate_rank,
    candidate_sequences,
    decode,
    encode,
    enumerate_reachable,
    exhaust_sequences,
    format_moves,
    goal,
    grids_equal,
    instrumented_verify,
    inverse_move,
    is_solvable,
    legal_moves,
    new_grid,
    parse_moves,
    reverse_seq,
    solve_optimal,
    verify_solution,
)
from tilelab import search
from tilelab.grid import BLANK
from tilelab.search import _bits, _census_tables, _ida_tables, _lower_bound
from conftest import code_depths

# the 31-move 3x3 grid  6 4 7 / 8 5 _ / 3 2 1
DEEPEST3 = (6, 4, 7, 8, 5, 0, 3, 2, 1)


def lex_first_optimal(g, table):
    """Reference witness: from g, repeatedly take the first move in
    U < D < R < L order that lowers the exact census depth."""
    out = []
    depth = table.depth_of(g)
    while depth:
        for m in legal_moves(g):
            nxt = apply_seq(g, (m,))
            if table.depth_of(nxt) == depth - 1:
                out.append(m)
                g, depth = nxt, depth - 1
                break
    return tuple(out)


def exhaust_reference(g, k_max, ledger):
    """Reference enumerator: replay every candidate from g in
    candidate_sequences order, one compare decision each."""
    target = goal(g.n)
    ledger.add("compare", 1)
    if grids_equal(g, target):
        return ()
    for cand in candidate_sequences(k_max):
        ledger.add("compare", 1)
        if grids_equal(apply_seq(g, cand, total=True), target):
            instrumented_verify(g, cand, ledger)
            return cand
    raise NotFound


def assert_exhaust_matches_reference(sides):
    """exhaust_sequences against exhaust_reference, sequences and ledger
    snapshots, from random walks of 0-8 moves on each side at k_max 0..6."""
    rng = random.Random(41)
    outcomes = {"found": 0, "not_found": 0}
    for n in sides:
        starts = []
        for walk in (0, 2, 4, 6, 8):
            g, last = goal(n), None
            for _ in range(walk):
                m = rng.choice([m for m in legal_moves(g) if m is not last])
                g, last = apply_seq(g, (m,)), inverse_move(m)
            starts.append(g)
        for g in starts:
            for k_max in range(7):
                want_ledger, got_ledger = CostLedger(), CostLedger()
                want = outcome(exhaust_reference, g, k_max, want_ledger)
                got = outcome(exhaust_sequences, g, k_max, got_ledger)
                assert got == want
                assert got_ledger.snapshot() == want_ledger.snapshot()
                assert outcome(exhaust_sequences, g, k_max, CostLedger()) == got
                outcomes["found" if got is not None else "not_found"] += 1
    assert outcomes["found"] > 0 and outcomes["not_found"] > 0


def enumerate_reference(n, depth_limit=None, max_states=2_000_000):
    """Reference census: the per-state deque BFS that enumerate_reachable
    replaced, with the depth read back from the dict for every state."""
    from tilelab.grid import _TARGETS
    from tilelab.search import _bits

    b = _bits(n)
    nbrs = [[j for j in row if j >= 0] for row in _TARGETS[n]]
    start = goal(n)
    code0 = encode(start.cells, n)
    depths = {code0: 0}
    frontier = deque([(code0, start.blank_index)])
    diameter = 0
    hist = [1]
    while frontier:
        code, bi = frontier.popleft()
        d = depths[code]
        if depth_limit is not None and d >= depth_limit:
            continue
        for j in nbrs[bi]:
            v = (code >> (b * j)) & ((1 << b) - 1)
            nxt = code - (v << (b * j)) + (v << (b * bi))
            if nxt not in depths:
                if len(depths) >= max_states:
                    raise ResourceLimit(f"state cap {max_states} exceeded at depth {d + 1}")
                depths[nxt] = d + 1
                if d + 1 > diameter:
                    diameter = d + 1
                    hist.append(0)
                hist[d + 1] += 1
                frontier.append((nxt, j))
    return depths, hist, diameter


def manhattan_ida_reference(g):
    """Reference solver: the Manhattan-only IDA* that the linear-conflict
    kernel replaced, children in U < D < R < L order; (psi, seq)."""
    from tilelab.grid import _TARGETS

    n = g.n
    dist = [[abs(i // n - (v - 1) // n) + abs(i % n - (v - 1) % n) for i in range(n * n)]
            for v in range(n * n)]
    steps = [[(k, j) for k, j in enumerate(row) if j >= 0] for row in _TARGETS[n]]
    cells = list(g.cells)
    path = []

    def dfs(bi, gcost, h, bound, back):
        """True at the goal, else the smallest f over the bound below."""
        if h == 0:
            return True
        if gcost + h > bound:
            return gcost + h
        best = None
        for k, j in steps[bi]:
            if k == back:
                continue
            v = cells[j]
            cells[bi], cells[j] = v, 0
            t = dfs(j, gcost + 1, h + dist[v][bi] - dist[v][j], bound, k ^ 1)
            cells[bi], cells[j] = 0, v
            if t is True:
                path.append(MOVES[k])
                return True
            if best is None or t < best:
                best = t
        return best

    h0 = sum(dist[v][i] for i, v in enumerate(cells) if v)
    bound = h0
    while (t := dfs(g.blank_index, 0, h0, bound, -1)) is not True:
        bound = t
    return len(path), tuple(reversed(path))


def lower_bound_reference(cells, n):
    """Reference bound, from the board alone: Manhattan distance plus, for
    every row and column, twice (tiles homed in it - the longest increasing
    subsequence of their home positions along it)."""

    def lis(xs):
        best = [1] * len(xs)
        for i in range(len(xs)):
            for j in range(i):
                if xs[j] < xs[i]:
                    best[i] = max(best[i], best[j] + 1)
        return max(best, default=0)

    h = sum(abs(i // n - (v - 1) // n) + abs(i % n - (v - 1) % n)
            for i, v in enumerate(cells) if v)
    for k in range(n):
        row = [cells[k * n + c] for c in range(n)]
        col = [cells[r * n + k] for r in range(n)]
        for homes in ([(v - 1) % n for v in row if v and (v - 1) // n == k],
                      [(v - 1) // n for v in col if v and (v - 1) % n == k]):
            h += 2 * (len(homes) - lis(homes))
    return h


def walk(rng, n, length):
    """Non-backtracking random walk of the blank from the goal."""
    g, last = goal(n), None
    for _ in range(length):
        m = rng.choice([m for m in legal_moves(g) if m != last])
        g, last = apply_seq(g, (m,)), inverse_move(m)
    return g


def outcome(search, g, k_max, ledger):
    try:
        return search(g, k_max, ledger)
    except NotFound:
        return None


class TestCensus:
    def test_n2_component(self, table2):
        assert table2.count == 12
        assert table2.diameter == 6
        assert table2.depth_histogram == [1, 2, 2, 2, 2, 2, 1]
        assert sum(table2.depth_histogram) == table2.count

    def test_n3_component(self, table3):
        assert table3.count == 181440
        assert table3.diameter == 31
        assert sum(table3.depth_histogram) == 181440
        assert len(table3.depth_histogram) == 32

    def test_depth_of(self, table2):
        assert table2.depth_of(goal(2)) == 0
        swapped = new_grid(2, [2, 1, 3, None])
        assert table2.depth_of(swapped) is None

    @pytest.mark.parametrize("n", [2, 3])
    def test_depth_of_matches_the_reference_on_every_state(self, n, table2, table3):
        table = table2 if n == 2 else table3
        depths, _, _ = enumerate_reference(n)
        assert len(depths) == table.count
        for code, depth in depths.items():
            assert table.depth_of(new_grid(n, decode(code, n))) == depth

    def test_depth_of_is_none_off_the_2x2_component(self, table2):
        off = [perm for perm in permutations(range(4)) if not is_solvable(new_grid(2, perm))]
        assert len(off) == 12
        for perm in off:
            assert table2.depth_of(new_grid(2, perm)) is None

    def test_depth_of_another_side_is_an_error(self, table2):
        # encoded with the table's side, the 3x3 goal would read as unreachable
        with pytest.raises(ValueError, match="table is for n=2"):
            table2.depth_of(goal(3))

    def test_complete_only_when_the_frontier_empties(self, table2, table3):
        assert table2.complete and table3.complete
        assert table2.diameter == 6
        # a limit at the diameter holds every state but never saw the empty level
        at_diameter = enumerate_reachable(2, depth_limit=6)
        assert at_diameter.count == table2.count
        assert not at_diameter.complete
        assert enumerate_reachable(2, depth_limit=7).complete
        assert not enumerate_reachable(3, depth_limit=5).complete
        assert not enumerate_reachable(2, depth_limit=0).complete

    def test_depth_limit_truncates(self):
        t = enumerate_reachable(3, depth_limit=4)
        assert t.diameter == 4
        assert t.depth_histogram == [1, 2, 4, 8, 16]

    def test_state_cap_raises(self):
        with pytest.raises(ResourceLimit):
            enumerate_reachable(3, max_states=1000)

    @pytest.mark.parametrize("n, limit", [(2, None), (3, None)] + [(4, d) for d in range(16)])
    def test_matches_deque_reference(self, n, limit, table3):
        t = table3 if n == 3 else enumerate_reachable(n, depth_limit=limit)
        states, hist, diameter = enumerate_reference(n, depth_limit=limit)
        assert code_depths(t) == list(states.items())  # discovery order too
        assert (t.count, t.depth_histogram, t.diameter) == (len(states), hist, diameter)

    @pytest.mark.parametrize("n, limit", [(3, None), (4, 12)])
    @pytest.mark.parametrize("cap", [10, 1000])
    def test_state_cap_depth_matches_reference(self, n, limit, cap):
        with pytest.raises(ResourceLimit) as got:
            enumerate_reachable(n, depth_limit=limit, max_states=cap)
        with pytest.raises(ResourceLimit) as want:
            enumerate_reference(n, depth_limit=limit, max_states=cap)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("kwargs", [{"depth_limit": -1}, {"max_states": 0},
                                        {"max_states": -5}])
    def test_negative_limits_rejected(self, kwargs):
        with pytest.raises(ValueError):
            enumerate_reachable(3, **kwargs)

    @pytest.mark.parametrize("n, limit", [(3, None), (4, 12)])
    def test_state_cap_at_its_exact_boundary(self, n, limit, table3):
        t = table3 if n == 3 else enumerate_reachable(n, depth_limit=limit)
        at = enumerate_reachable(n, depth_limit=limit, max_states=t.count)
        assert at.codes.tobytes() == t.codes.tobytes()
        assert at.depth_histogram == t.depth_histogram
        with pytest.raises(ResourceLimit) as got:
            enumerate_reachable(n, depth_limit=limit, max_states=t.count - 1)
        with pytest.raises(ResourceLimit) as want:
            enumerate_reference(n, depth_limit=limit, max_states=t.count - 1)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("kwargs", [{"depth_limit": 2.5}, {"depth_limit": 3.0},
                                        {"depth_limit": True}, {"depth_limit": False},
                                        {"depth_limit": "3"}, {"max_states": 1000.0},
                                        {"max_states": True}, {"max_states": None}])
    def test_non_int_limits_rejected(self, kwargs):
        with pytest.raises(ValueError, match="must be an int"):
            enumerate_reachable(3, **kwargs)

    @pytest.mark.parametrize("n", [3.0, 2.5, True])
    def test_non_int_side_rejected(self, n):
        with pytest.raises(ValueError, match="n must be an int"):
            enumerate_reachable(n)

    def test_packed_states_stop_at_n4(self):
        with pytest.raises(ValueError):
            enumerate_reachable(5, depth_limit=1)

    def test_n4_requires_depth_limit(self):
        with pytest.raises(ValueError):
            enumerate_reachable(4)
        t = enumerate_reachable(4, depth_limit=3)
        assert t.depth_histogram == [1, 2, 4, 10]


class TestCensusTables:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_slot_and_move(self, n):
        """Each table entry against the grid layer: a random arrangement per
        blank cell, moved by apply_seq, or by total mode off the board."""
        valid, shift, delta, child = _census_tables(n)
        mask = (1 << _bits(n)) - 1
        rng = random.Random(n)
        for bi in range(n * n):
            tiles = list(range(1, n * n))
            rng.shuffle(tiles)
            g = new_grid(n, tiles[:bi] + [None] + tiles[bi:])
            parent = encode(g.cells, n)
            legal = legal_moves(g)
            for undo in range(5):
                for k, m in enumerate(MOVES):
                    e = (bi * 5 + undo) * 4 + k
                    assert valid[e] == (m in legal and k != undo)
                    nxt = apply_seq(g, (m,), total=True)
                    tile = (parent >> int(shift[e])) & mask
                    code = parent + tile * int(delta[e])
                    if n <= 4:  # uint64 tables wrap modulo 2^64
                        code %= 1 << 64
                    assert code == encode(nxt.cells, n)
                    assert child[e] == nxt.blank_index * 5 + (k ^ 1)
                    assert MOVES[k ^ 1] == inverse_move(m)


class TestEncoding:
    def test_round_trip(self):
        rng = random.Random(3)
        for n in (2, 3, 4):
            for _ in range(25):
                cells = list(range(n * n))
                rng.shuffle(cells)
                assert decode(encode(tuple(cells), n), n) == tuple(cells)

    def test_goal_codes_distinct_per_n(self):
        codes = {encode(goal(n).cells, n) for n in (2, 3, 4)}
        assert len(codes) == 3


class TestSolvability:
    def test_matches_bfs_membership_exhaustively(self, table2):
        # all 24 arrangements of {blank, 1, 2, 3}: parity test == BFS membership
        member = {decode(code, 2) for code in table2.codes.tolist()}
        agree = 0
        for perm in permutations(range(4)):
            g = new_grid(2, perm)
            assert is_solvable(g) == (perm in member)
            agree += 1
        assert agree == 24

    def test_spot_checks_n3(self, table3):
        rng = random.Random(5)
        hits = 0
        for _ in range(200):
            cells = list(range(9))
            rng.shuffle(cells)
            g = new_grid(3, cells)
            on_component = table3.depth_of(g) is not None
            assert is_solvable(g) == on_component
            hits += on_component
        assert 0 < hits < 200  # sample saw both classes


class TestSolveOptimal:
    def test_all_n2_states_match_census(self, table2):
        for code, depth in code_depths(table2):
            g = new_grid(2, decode(code, 2))
            res = solve_optimal(g)
            assert res.psi == depth == len(res.seq)
            assert verify_solution(g, res.seq)
            want = lex_first_optimal(g, table2)
            assert res.seq == want

    def test_goal_is_zero_moves(self):
        res = solve_optimal(goal(3))
        assert res.psi == 0
        assert res.seq == ()

    def test_example_grid(self, example_grid):
        res = solve_optimal(example_grid)
        assert res.psi == 5
        assert format_moves(res.seq) == "RDDRD"

    def test_bfs_and_ida_agree(self, table3):
        rng = random.Random(9)
        for code, depth in rng.sample(sorted(code_depths(table3)), 12):
            g = new_grid(3, decode(code, 3))
            assert solve_optimal(g).psi == depth

    def test_ida_on_n4(self, example_grid):
        res = solve_optimal(example_grid)
        assert res.psi == 5
        assert verify_solution(example_grid, res.seq)

    def test_unsolvable_raises(self):
        with pytest.raises(Unsolvable):
            solve_optimal(new_grid(2, [2, 1, 3, None]))

    def test_depth_stratified_n3_gives_lex_first_witness(self, table3):
        by_depth = {}
        for code, depth in sorted(code_depths(table3)):
            by_depth.setdefault(depth, []).append(code)
        assert len(by_depth[31]) == 2
        rng = random.Random(31)
        codes = list(by_depth[31])
        for depth in range(31):
            codes += rng.sample(by_depth[depth], min(2, len(by_depth[depth])))
        for code in codes:
            g = new_grid(3, decode(code, 3))
            want = lex_first_optimal(g, table3)
            res = solve_optimal(g)
            assert (res.psi, res.seq) == (len(want), want)

    def test_expanded_counts_are_pinned(self, example_grid):
        res = solve_optimal(new_grid(3, DEEPEST3))
        assert res.psi == 31
        assert format_moves(res.seq) == "ULDRDLULDRUURDDLULURRDLLURRDLDR"
        assert res.expanded == 9196
        assert solve_optimal(example_grid).expanded == 5
        witness = parse_moves("DLDLURDRRDLLLUUURRDRDDLUULULDDRRRD")
        res = solve_optimal(apply_seq(goal(4), reverse_seq(witness)))
        assert (res.seq, res.expanded) == (witness, 11935)

    def test_4x4_witnesses_match_manhattan_ida(self):
        # 20 non-backtracking walks of 30..52 moves; the seed keeps the
        # Manhattan-only reference near a second in all
        rng = random.Random(4)
        for i in range(20):
            g = walk(rng, 4, 30 + i * 22 // 19)
            res = solve_optimal(g)
            assert (res.psi, res.seq) == manhattan_ida_reference(g)

    def test_algo_validation(self, example_grid):
        with pytest.raises(TypeError):  # IDA* is the only solver
            solve_optimal(example_grid, "bfs")
        with pytest.raises(ValueError):
            solve_optimal(goal(5))


class TestLowerBound:
    def test_admissible_on_the_whole_3x3_census(self, table3):
        # h changes by 1 on every move and is 0 at the goal, so it also
        # has the parity of the depth
        bad = [code for code, depth in code_depths(table3)
               if not (h := _lower_bound(decode(code, 3), 3)[0]) <= depth or (depth - h) % 2]
        assert bad == []

    @pytest.mark.parametrize("n, seed", [(2, 2), (3, 3), (4, 4)])
    def test_incremental_bound_matches_a_fresh_one_along_walks(self, n, seed):
        steps, _, width = _ida_tables(n)
        rng = random.Random(seed)
        cells = list(goal(n).cells)
        bi, back = n * n - 1, -1
        h, keys = _lower_bound(cells, n)
        assert h == 0
        for _ in range(600):
            _, j, back, table = rng.choice(steps[bi][back])
            v = cells[j]
            dh, shift, dkeys = table[v]  # one step of _solve_ida's dfs
            hj = h + dh[keys >> shift & (1 << width) - 1]
            assert abs(hj - h) == 1
            keys += dkeys
            cells[bi], cells[j], bi, h = v, BLANK, j, hj
            assert h == lower_bound_reference(cells, n)
            assert (h, keys) == _lower_bound(cells, n)


class TestExhaust:
    def test_candidate_order_and_count(self):
        cands = list(candidate_sequences(2))
        assert len(cands) == 4 + 16
        assert cands[0] == (Move.UP,)
        assert cands[3] == (Move.LEFT,)
        assert cands[4] == (Move.UP, Move.UP)
        assert cands[-1] == (Move.LEFT, Move.LEFT)
        assert len(list(candidate_sequences(5))) == 1364

    def test_goal_needs_no_moves(self):
        from tilelab import exhaust_sequences
        assert exhaust_sequences(goal(3), 2, CostLedger()) == ()

    def test_finds_first_witness_at_frozen_position(self, example_grid):
        from tilelab import exhaust_sequences
        seq = exhaust_sequences(example_grid, 5, CostLedger())
        assert format_moves(seq) == "RDDRD"
        cands = list(candidate_sequences(5))
        assert cands.index(parse_moves("RDDRD")) == 941  # 942nd candidate probed

    def test_not_found_below_psi(self, example_grid):
        from tilelab import exhaust_sequences
        with pytest.raises(NotFound):
            exhaust_sequences(example_grid, 4, CostLedger())

    def test_k_max_validation(self):
        from tilelab import exhaust_sequences
        with pytest.raises(ValueError):
            exhaust_sequences(goal(2), -1, CostLedger())

    @pytest.mark.parametrize("k_max", [True, False, 2.0, 1.5, "3"])
    def test_k_max_must_be_an_int(self, k_max):
        # a bool must not walk as 0 or 1, nor a float reach range()
        with pytest.raises(ValueError, match="k_max must be an int"):
            exhaust_sequences(goal(2), k_max, CostLedger())

    def test_candidate_cap(self):
        # the byte cap bounds the candidates on 2x2 to 4x4: k_max 11 walks
        # all (4^12 - 4) / 3 of them, and 12 or a huge k_max is refused
        # before the walk, sized cheaply and charging nothing
        for n in (2, 3, 4):
            g = goal(n)
            cells = list(g.cells)
            cells[0], cells[1] = cells[1], cells[0]  # off the goal's component
            ledger = CostLedger()
            with pytest.raises(NotFound):
                exhaust_sequences(new_grid(n, cells), 11, ledger)
            assert ledger.decisions == 1 + (4 ** 12 - 4) // 3 == 5_592_405
            for k_max in (12, 10 ** 9):
                ledger = CostLedger()
                tracemalloc.start()
                try:
                    with pytest.raises(ResourceLimit, match="over the byte cap"):
                        exhaust_sequences(g, k_max, ledger)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert ledger.decisions == 0
                assert peak < 2 ** 20

    def test_ledgered_run_stays_inside_budget(self, table2):
        from tilelab import exhaust_sequences
        for code, depth in code_depths(table2):
            g = new_grid(2, decode(code, 2))
            ledger = CostLedger()
            seq = exhaust_sequences(g, depth, ledger)
            assert len(seq) == depth
            assert ledger.decisions <= budget("search", 2, depth).ceiling

    def test_candidate_rank_is_position(self):
        assert candidate_rank(()) == 0
        for pos, cand in enumerate(candidate_sequences(5), start=1):
            assert candidate_rank(cand) == pos
        assert candidate_rank(parse_moves("RDDRD")) == 942

    def test_matches_per_candidate_reference(self):
        assert_exhaust_matches_reference((2, 3, 4, 5))

    @pytest.mark.parametrize("block", [1, 3])
    def test_block_boundaries_match_the_reference(self, monkeypatch, block):
        # the default block never splits a length up to 6, so the hit's
        # index 4 * s + hit is tested with blocks of one and three prefixes
        # (n = 5's wider codes scale three down to one)
        monkeypatch.setattr(search, "EXHAUST_BLOCK", block)
        assert_exhaust_matches_reference((2, 3, 4, 5))

    def test_unsolvable_4x4_at_the_cap_edge(self):
        # every candidate of length 1..11 compared, and the last length,
        # 4^11 codes, never stored
        g = new_grid(4, list(range(1, 14)) + [15, 14, None])
        ledger = CostLedger()
        tracemalloc.start()
        try:
            with pytest.raises(NotFound):
                exhaust_sequences(g, 11, ledger)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ledger.decisions == 1 + (4 ** 12 - 4) // 3 == 5_592_405
        assert peak < 64 * 2 ** 20

    @pytest.mark.parametrize("n, k_max", [(8, 11), (64, 7)])
    def test_over_the_byte_cap_is_refused_before_the_walk(self, n, k_max):
        # the walk would store 4^10 exact 384-bit codes at n = 8, and at
        # n = 64 the move tables alone pass the cap
        ledger = CostLedger()
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimit, match="over the byte cap"):
                exhaust_sequences(goal(n), k_max, ledger)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ledger.decisions == 0
        assert peak < 2 ** 20

    @pytest.mark.parametrize("n, witness", [(8, "UUUULDDDDR"), (16, "UUUURDDDD")])
    def test_wide_grid_at_the_byte_cap_edge(self, n, witness):
        # at the largest k_max the cap admits, the walk stores length
        # k_max - 1 whole before it meets the witness, early in length k_max
        seq = parse_moves(witness)
        k_max = len(seq)
        with pytest.raises(ResourceLimit, match="over the byte cap"):
            exhaust_sequences(goal(n), k_max + 1, CostLedger())
        g = apply_seq(goal(n), reverse_seq(seq))
        tracemalloc.start()
        try:
            assert exhaust_sequences(g, k_max, CostLedger()) == seq
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < search.EXHAUST_BYTE_CAP

    def test_returns_shortest_then_lex_first(self):
        # depth-1 state: both U...U paddings and the exact move exist; the
        # enumerator must return the length-1 witness
        g = apply_seq(goal(3), parse_moves("U"))
        from tilelab import exhaust_sequences
        assert format_moves(exhaust_sequences(g, 3, CostLedger())) == "D"
