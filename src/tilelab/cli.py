"""Command line front end.

One invocation produces exactly one JSON document on standard output;
diagnostics go to standard error.  Exit codes separate "the answer is no"
from "could not answer":

    0  success
    1  domain-negative result (invalid solution, unsolvable grid, no
       sequence found, no real roots, no factorization shape solved)
    2  usage error (bad flags, malformed input: main reports every
       ValueError, from any layer, this way)
    3  resource limit hit

roots verify holds no rule of its own: it parses, calls poly.verify_root
and emits, and is_root is true exactly when the multiplicity is not null.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cost import MOVE_DECISION_CEILINGS, CostLedger, budget, instrumented_apply, instrumented_verify
from .grid import format_moves, load_grid, parse_moves
from .limits import ResourceLimit
from .poly import (
    MULTIPLICITY_TOL,
    Poly,
    complex_poly,
    json_scalar,
    norm_claim_check,
    parse_poly_text,
    parse_scalar,
    poly_from_json,
    verify_root,
)
from .search import (
    DEFAULT_STATE_CAP,
    NotFound,
    Unsolvable,
    candidate_rank,
    enumerate_reachable,
    exhaust_sequences,
    solve_optimal,
)
from .sturm import oracle_real_roots
from .verify import claim_report
from .vieta import DEFAULT_ORDER, NoPatternSolved, enumerate_patterns, find_roots_report

USAGE_ERROR = 2
DOMAIN_NEGATIVE = 1
RESOURCE_LIMIT = 3

# puzzle solve --algo exhaust: the --kmax it walks to when none is given
SOLVE_EXHAUST_KMAX = 8


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_grid_arg(path: str):
    try:
        return load_grid(_read_text(path))
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load grid from {path}: {exc}") from exc


def _load_poly_arg(args) -> Poly:
    if args.poly is not None:
        try:
            return parse_poly_text(args.poly)
        except ValueError as exc:
            raise ValueError(f"bad polynomial text: {exc}") from exc
    try:
        text = _read_text(args.infile)
        if text.lstrip().startswith("{"):
            return poly_from_json(json.loads(text))
        return parse_poly_text(text)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load polynomial from {args.infile}: {exc}") from exc
    except RecursionError:  # the JSON decoder recurses once per nesting level
        raise ValueError(f"cannot load polynomial from {args.infile}: "
                          "JSON is nested too deeply") from None


def _emit(doc: dict) -> None:
    """Write doc to stdout as indented JSON; json.dump writes it chunk by
    chunk, so a large document is never held as one string."""
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# puzzle handlers


def _exhaust(infile: str, kmax: int):
    """(grid, ledger, sequence) of the exhaust walk to kmax; the sequence
    is None when no sequence of at most kmax moves solves the grid."""
    g = _load_grid_arg(infile)
    ledger = CostLedger()
    try:
        return g, ledger, exhaust_sequences(g, kmax, ledger)
    except NotFound:
        return g, ledger, None


def _ledger_doc(head: dict, ledger: CostLedger, key: str, ceiling: int, per_primitive: bool) -> dict:
    """head, then the ledger's decisions against the ceiling named key, and
    the per-primitive counts when asked for."""
    doc = {**head, "decisions": ledger.decisions, key: ceiling, "within": ledger.decisions <= ceiling}
    if per_primitive:
        doc["per_primitive"] = ledger.snapshot()
    return doc


def _cmd_puzzle_solve(args) -> int:
    if args.algo == "exhaust":
        kmax = SOLVE_EXHAUST_KMAX if args.kmax is None else args.kmax
        _, ledger, seq = _exhaust(args.infile, kmax)
        if seq is None:
            _emit({"found": False, "kmax": kmax})
            return DOMAIN_NEGATIVE
        # candidates probed until the winner; the empty-sequence
        # pre-check is not a candidate and does not count
        doc = {
            "psi": len(seq),
            "seq": format_moves(seq),
            "expanded": candidate_rank(seq),
            "decisions": ledger.decisions,
        }
        _emit(doc)
        return 0
    if args.kmax is not None:
        raise ValueError("--kmax applies only to --algo exhaust")
    try:
        res = solve_optimal(_load_grid_arg(args.infile))
    except Unsolvable as exc:
        _emit({"solvable": False, "reason": str(exc)})
        return DOMAIN_NEGATIVE
    _emit({"solvable": True, "psi": res.psi, "seq": format_moves(res.seq),
           "expanded": res.expanded})
    return 0


def _cmd_puzzle_verify(args) -> int:
    g = _load_grid_arg(args.infile)
    seq = parse_moves(args.seq)
    ledger = CostLedger()
    valid = instrumented_verify(g, seq, ledger)
    cap = budget("verify", g.n, len(seq))
    _emit(_ledger_doc({"valid": valid}, ledger, "budget", cap.ceiling, args.emit_ledger))
    return 0 if valid else DOMAIN_NEGATIVE


def _cmd_puzzle_enumerate(args) -> int:
    table = enumerate_reachable(args.n, depth_limit=args.depth_limit,
                                max_states=args.state_cap)
    doc = {
        "n": table.n,
        "count": table.count,
        "diameter": table.diameter,
        "depth_histogram": list(table.depth_histogram),
        "complete": table.complete,
    }
    _emit(doc)
    return 0


def _cmd_puzzle_bounds(args) -> int:
    _emit(claim_report(args.n).to_json())
    return 0


def _cmd_puzzle_cost(args) -> int:
    g = _load_grid_arg(args.infile)
    seq = parse_moves(args.seq)
    ledger = CostLedger()
    cur = g
    for mv in seq:
        cur = instrumented_apply(cur, mv, ledger)
    ceiling = MOVE_DECISION_CEILINGS["guard_chain"] * len(seq)
    _emit(_ledger_doc({}, ledger, "ceiling", ceiling, args.emit_ledger))
    return 0


def _cmd_puzzle_exhaust(args) -> int:
    g, ledger, seq = _exhaust(args.infile, args.kmax)
    # after the walk, whose cap keeps a huge --kmax out of 4^k arithmetic
    cap = budget("search", g.n, args.kmax)
    if seq is None:
        head = {"found": False, "kmax": args.kmax}
    else:
        head = {"found": True, "psi": len(seq), "seq": format_moves(seq)}
    # the not-found document has no per_primitive field
    per_primitive = args.emit_ledger and seq is not None
    _emit(_ledger_doc(head, ledger, "budget", cap.ceiling, per_primitive))
    return DOMAIN_NEGATIVE if seq is None else 0


# ---------------------------------------------------------------------------
# roots handlers


def _cmd_roots_find(args) -> int:
    p = _load_poly_arg(args)
    try:
        rep = find_roots_report(p, mode=args.mode, order=args.order)
    except NoPatternSolved as exc:
        doc = {
            "roots": [],
            "tau": None,
            "case": None,
            "outcomes": [o.to_json() for o in exc.outcomes],
            "error": "no factorization shape solved",
        }
        _emit(doc)
        return DOMAIN_NEGATIVE
    doc = rep.to_json()
    _emit(doc)
    return 0 if rep.roots.count > 0 else DOMAIN_NEGATIVE


def _cmd_roots_verify(args) -> int:
    p = _load_poly_arg(args)
    try:
        root = parse_scalar(args.root)
    except ValueError:
        try:
            root = complex(args.root)
        except ValueError as exc:
            raise ValueError(f"cannot parse root value {args.root!r}") from exc
    residual, mult = verify_root(p, root)
    doc = {
        "root": json_scalar(root),
        "residual": residual,
        "tol": MULTIPLICITY_TOL,
        "is_root": mult is not None,
        "multiplicity": mult,
    }
    _emit(doc)
    return 0 if mult is not None else DOMAIN_NEGATIVE


def _cmd_roots_cases(args) -> int:
    pats = enumerate_patterns(args.degree, args.mode, args.order)
    doc = {
        "degree": args.degree,
        "mode": args.mode,
        "order": args.order or DEFAULT_ORDER[args.mode],
        "cases": [
            {
                "label": p.label(),
                "mults": list(p.mults),
                "cofactor_degree": p.cofactor_degree,
            }
            for p in pats
        ],
    }
    _emit(doc)
    return 0


# ---------------------------------------------------------------------------
# report handler


def _cmd_report(args) -> int:
    bounds = [claim_report(n).to_json() for n in sorted(set(args.n or [2]))]
    polynomials = []
    norm_checks = []
    if args.poly_corpus:
        try:
            lines = [
                ln.strip()
                for ln in _read_text(args.poly_corpus).splitlines()
                if ln.strip() and not ln.strip().startswith("#")
            ]
        except OSError as exc:
            raise ValueError(f"cannot read corpus {args.poly_corpus}: {exc}") from exc
        polys = []
        for ln in lines:
            try:
                polys.append((ln, parse_poly_text(ln)))
            except ValueError as exc:
                raise ValueError(f"bad corpus line {ln!r}: {exc}") from exc
        for text, p in polys:
            entry = {"poly": text}
            if p.degree is None or p.degree < 1:
                entry["tau"] = 0
                entry["roots"] = []
            else:
                try:
                    found = oracle_real_roots(p)
                except ValueError as exc:
                    raise ValueError(f"bad corpus line {text!r}: {exc}") from exc
                entry["tau"] = found.count
                entry["roots"] = found.to_json()["roots"]
            polynomials.append(entry)
        # consecutive non-overlapping pairs: (0,1), (2,3), ...
        for i in range(0, len(polys) - 1, 2):
            (t1, p1), (t2, p2) = polys[i], polys[i + 1]
            if p1.kind != p2.kind:
                p1 = complex_poly([complex(c) for c in p1.coeffs])
                p2 = complex_poly([complex(c) for c in p2.coeffs])
            chk = norm_claim_check(p1, p2)
            norm_checks.append(
                {
                    "pair": [t1, t2],
                    "product_norm": float(chk.lhs),
                    "norm_product": float(chk.rhs),
                    "multiplicative": chk.holds,
                }
            )
    doc = {"bounds": bounds, "polynomials": polynomials, "norm_checks": norm_checks}
    _emit(doc)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_poly_source(sub):
    """--poly or --in: exactly one must be given."""
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--poly", help='low-to-high coefficients, e.g. "pi/2,-pi^2,0,2"')
    source.add_argument("--in", dest="infile", help="polynomial file (text or JSON); - for stdin")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="tilelab",
        description="Sliding-tile solvability workbench and factor-matching root finder.",
    )
    groups = top.add_subparsers(dest="group", required=True)

    puzzle = groups.add_parser("puzzle", help="sliding-tile operations")
    pz = puzzle.add_subparsers(dest="command", required=True)

    p_solve = pz.add_parser("solve", help="optimal solution for a grid")
    p_solve.add_argument("--in", dest="infile", required=True,
                         help="grid file (text or JSON); - for stdin")
    p_solve.add_argument("--algo", choices=("auto", "exhaust"),
                         default="auto")
    p_solve.add_argument("--kmax", type=int,
                         help=f"sequence length cap for --algo exhaust (default {SOLVE_EXHAUST_KMAX})")
    p_solve.set_defaults(func=_cmd_puzzle_solve)

    p_verify = pz.add_parser("verify", help="check a claimed solution")
    p_verify.add_argument("--in", dest="infile", required=True)
    p_verify.add_argument("--seq", required=True, help='move letters, e.g. "RDDRD"')
    p_verify.add_argument("--emit-ledger", action="store_true")
    p_verify.set_defaults(func=_cmd_puzzle_verify)

    p_enum = pz.add_parser("enumerate", help="census of the goal component")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--depth-limit", type=int, default=None)
    p_enum.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP)
    p_enum.set_defaults(func=_cmd_puzzle_enumerate)

    p_bounds = pz.add_parser("bounds", help="claim-check the published bounds")
    p_bounds.add_argument("--n", type=int, choices=(2, 3), required=True)
    p_bounds.set_defaults(func=_cmd_puzzle_bounds)

    p_cost = pz.add_parser("cost", help="decision cost of applying a sequence")
    p_cost.add_argument("--in", dest="infile", required=True)
    p_cost.add_argument("--seq", required=True)
    p_cost.add_argument("--emit-ledger", action="store_true")
    p_cost.set_defaults(func=_cmd_puzzle_cost)

    p_ex = pz.add_parser("exhaust", help="brute-force search with budget accounting")
    p_ex.add_argument("--in", dest="infile", required=True)
    p_ex.add_argument("--kmax", type=int, required=True)
    p_ex.add_argument("--emit-ledger", action="store_true")
    p_ex.set_defaults(func=_cmd_puzzle_exhaust)

    roots = groups.add_parser("roots", help="polynomial root operations")
    rt = roots.add_subparsers(dest="command", required=True)

    r_find = rt.add_parser("find", help="roots via factorization-shape matching")
    _add_poly_source(r_find)
    r_find.add_argument("--mode", choices=("real", "complex"), default="real")
    r_find.add_argument("--order", choices=("merged", "generic"), default=None,
                        help="case order (default: merged in real mode, generic in complex)")
    r_find.set_defaults(func=_cmd_roots_find)

    r_verify = rt.add_parser("verify", help="residual check for a claimed root")
    _add_poly_source(r_verify)
    r_verify.add_argument("--root", required=True)
    r_verify.set_defaults(func=_cmd_roots_verify)

    r_cases = rt.add_parser("cases", help="list factorization shapes for a degree")
    r_cases.add_argument("--degree", type=int, required=True)
    r_cases.add_argument("--mode", choices=("real", "complex"), default="real")
    r_cases.add_argument("--order", choices=("merged", "generic"), default=None)
    r_cases.set_defaults(func=_cmd_roots_cases)

    rep = groups.add_parser("report", help="aggregate claim-check report")
    rep.add_argument("--n", type=int, choices=(2, 3), action="append",
                     help="board sizes to census (repeatable; default 2)")
    rep.add_argument("--poly-corpus", default=None,
                     help="text file, one polynomial per line; consecutive "
                          "non-overlapping pairs feed the norm check")
    rep.set_defaults(func=_cmd_report)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # malformed input, found by any layer
        print(f"tilelab: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ResourceLimit as exc:
        print(f"tilelab: resource limit: {exc}", file=sys.stderr)
        return RESOURCE_LIMIT


if __name__ == "__main__":
    sys.exit(main())
