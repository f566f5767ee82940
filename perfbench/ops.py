"""One benchmark op per request kind: the library calls the matching
tilelab CLI handler makes, in the same order, plus the equivalent CLI argv.

Only the worker process imports this module.
"""

from __future__ import annotations

import importlib
from fractions import Fraction
from types import SimpleNamespace

import tilelab

PUBLIC = {
    "grid": ("load_grid",),
    "search": ("solve_optimal", "exhaust_sequences", "enumerate_reachable"),
    "verify": ("verify_solution", "claim_report"),
    "cost": ("instrumented_verify", "budget"),
    "poly": ("parse_poly_text", "parse_scalar", "eval_horner", "max_norm",
             "multiplicity", "norm_claim_check", "complex_poly"),
    "sturm": ("oracle_real_roots",),
    "vieta": ("find_roots_report",),
}
# by module path: the package re-exports a function named poly
MODULES = {layer: importlib.import_module(f"tilelab.{layer}") for layer in PUBLIC}
cost, poly, search, vieta = (MODULES[k] for k in ("cost", "poly", "search", "vieta"))


def _letters(seq) -> str:
    return "".join(m.letter for m in seq)


def _solve_attrs(args, kwargs, res):
    out = {"n": args[0].n}
    if res is not None:
        out.update(psi=res.psi, expanded=res.expanded)
    return out


# span attributes read back by the per-layer metrics
ATTRS = {
    "solve_optimal": _solve_attrs,
    "exhaust_sequences": lambda a, k, r: None if r is None else {"seq": _letters(r)},
    "enumerate_reachable": lambda a, k, r: None if r is None else {"n": a[0], "states": r.count},
    "verify_solution": lambda a, k, r: {"moves": len(a[1])},
    "instrumented_verify": lambda a, k, r: {"decisions": a[2].decisions, "n": a[0].n,
                                            "k": len(a[1])},
    "oracle_real_roots": lambda a, k, r: {"kind": a[0].kind, "degree": a[0].degree,
                                          "roots": None if r is None else r.count},
    "find_roots_report": lambda a, k, r: {"mode": k.get("mode", "real")},
}


def library(tracer=None) -> SimpleNamespace:
    """The public layer functions an op calls, traced when a tracer is given."""
    ns = {}
    for layer, names in PUBLIC.items():
        for name in names:
            fn = getattr(MODULES[layer], name)
            ns[name] = fn if tracer is None else tracer.wrap(f"{layer}.{name}", fn, ATTRS.get(name))
    return SimpleNamespace(**ns)


def nested_targets():
    """Cross-layer calls inside the library that the traced pass also spans."""
    return [
        (search, "is_solvable", "search.is_solvable", None),
        (cost, "instrumented_verify", "cost.instrumented_verify", ATTRS["instrumented_verify"]),
        (vieta, "oracle_real_roots", "sturm.oracle_real_roots", ATTRS["oracle_real_roots"]),
    ]


def cli_module():
    """tilelab.cli, imported only by the traced run's CLI sample."""
    return importlib.import_module("tilelab.cli")


def cli_targets():
    """Library names the CLI module calls, spanned under cli.main."""
    cli = cli_module()
    return [(cli, name, f"{layer}.{name}", None)
            for layer, names in PUBLIC.items() for name in names if hasattr(cli, name)]


# ---------------------------------------------------------------------------
# ops


def _tiles(lib, op):
    g = lib.load_grid(op["grid"])
    out = {}
    seq = ()
    if op["k"] == "exhaust":
        ledger = cost.CostLedger()
        seq = lib.exhaust_sequences(g, op["kmax"], ledger)
        out["sdecisions"] = ledger.decisions
        out["sceiling"] = lib.budget("search", g.n, op["kmax"]).ceiling
    else:
        try:
            res = lib.solve_optimal(g)
        except search.Unsolvable:
            out["unsolvable"] = True
        else:
            seq = res.seq
            out["psi"], out["expanded"] = res.psi, res.expanded
    out["seq"] = _letters(seq)
    out["verified"] = lib.verify_solution(g, seq)
    ledger = cost.CostLedger()
    out["ivalid"] = lib.instrumented_verify(g, seq, ledger)
    out["decisions"] = ledger.decisions
    out["vceiling"] = lib.budget("verify", g.n, len(seq)).ceiling
    return out


def outcome_row(o) -> list:
    return [o.pattern.label(), o.status, o.iterations, o.starts_used, o.reason or "",
            o.collision is not None]


def _find(lib, op):
    p = lib.parse_poly_text(op["text"])
    try:
        rep = lib.find_roots_report(p, mode=op["mode"])
    except vieta.NoPatternSolved as exc:
        return {"nps": True, "outcomes": [outcome_row(o) for o in exc.outcomes]}
    roots = []
    for value, mult, _ in rep.roots.roots:
        z = complex(value)
        roots.append([z.real, z.imag, mult])
    return {"roots": roots, "case": rep.case.label() if rep.case else None,
            "outcomes": [outcome_row(o) for o in rep.outcomes]}


def _enum(lib, op):
    table = lib.enumerate_reachable(op["n"], depth_limit=op["limit"])
    return {"count": table.count, "diameter": table.diameter, "hist": list(table.depth_histogram)}


def _bounds3(lib, op):
    table = lib.enumerate_reachable(3)
    out = {"count": table.count, "diameter": table.diameter, "hist": list(table.depth_histogram)}
    out["verdicts"] = lib.claim_report(3, table).to_json()["verdicts"]
    return out


def _corpus(lib, op):
    polys = [lib.parse_poly_text(line) for line in op["lines"]]
    lines = []
    for p in polys:
        found = lib.oracle_real_roots(p)
        lines.append([[float(v), m] for v, m, _ in found.roots])
    p1, p2 = polys
    if p1.kind != p2.kind:
        p1 = lib.complex_poly([complex(c) for c in p1.coeffs])
        p2 = lib.complex_poly([complex(c) for c in p2.coeffs])
    chk = lib.norm_claim_check(p1, p2)
    return {"lines": lines, "norm": [float(chk.lhs), float(chk.rhs), chk.holds]}


def _rverify(lib, op):
    p = lib.parse_poly_text(op["text"])
    native = lib.parse_scalar(op["root"])
    value = complex(native)
    value = value.real if value.imag == 0 else value
    residual = abs(complex(lib.eval_horner(p, value)))
    is_root = residual <= 1e-9 * max(1.0, float(lib.max_norm(p)))
    mult = None
    if is_root:
        try:
            mult = lib.multiplicity(p, Fraction(native))
        except poly.NotARoot:
            mult = None
    return {"residual": residual, "is_root": is_root, "mult": mult}


RUN = {"solve3": _tiles, "solve4": _tiles, "exhaust": _tiles, "unsolvable": _tiles,
       "find": _find, "enum": _enum, "bounds3": _bounds3, "corpus": _corpus,
       "rverify": _rverify}


def run_op(lib, op) -> dict:
    return RUN[op["k"]](lib, op)


def cli_requests(op, res) -> list[tuple[list[str], str]]:
    """(argv, stdin text) of the CLI requests that answer the same op."""
    k = op["k"]
    if k in ("solve3", "solve4", "unsolvable", "exhaust"):
        solve = ["puzzle", "solve", "--in", "-"]
        if k == "exhaust":
            solve += ["--algo", "exhaust", "--kmax", str(op["kmax"])]
        check = ["puzzle", "verify", "--in", "-", "--seq", res.get("seq", "")]
        return [(solve, op["grid"]), (check, op["grid"])]
    if k == "find":
        return [(["roots", "find", "--poly=" + op["text"], "--mode", op["mode"]], "")]
    if k == "enum":
        argv = ["puzzle", "enumerate", "--n", str(op["n"])]
        if op["limit"] is not None:
            argv += ["--depth-limit", str(op["limit"])]
        return [(argv, "")]
    if k == "bounds3":
        return [(["puzzle", "bounds", "--n", "3"], "")]
    if k == "corpus":
        return [(["report", "--poly-corpus", "-"], "\n".join(op["lines"]) + "\n")]
    return [(["roots", "verify", "--poly=" + op["text"], "--root=" + op["root"]], "")]
