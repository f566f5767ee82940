"""Per-layer metrics of the traced pass.

Times are means per call of the span named in the metric ("x.s"), medians
in milliseconds ("ms_p50"), or ratios of summed work to summed span time
("per_s").  Counts are means per call unless they say otherwise.  A
metric whose layer a workload does not call reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from gen import length_lex_rank, verify_ceiling
from workloads import ORACLE_REJECTED

LAYERS = ("grid", "search", "verify", "cost", "poly", "sturm", "vieta", "cli")

UNITS = {
    "grid.load_grid.s": "s",
    "search.solve_optimal.s": "s",
    "search.solve_optimal.expanded": "count",
    "search.bfs.expanded_per_s": "1/s",
    "search.ida.expanded_per_s": "1/s",
    "search.solve.useful_ratio": "ratio",
    "search.is_solvable.s": "s",
    "search.exhaust.s": "s",
    "search.exhaust.probes": "count",
    "search.exhaust.probes_per_s": "1/s",
    "search.enumerate.s": "s",
    "search.enumerate.n3.states_per_s": "1/s",
    "search.enumerate.n4.states_per_s": "1/s",
    "verify.verify_solution.s": "s",
    "verify.verify_solution.moves_per_s": "1/s",
    "verify.claim_report.s": "s",
    "cost.instrumented_verify.s": "s",
    "cost.decisions": "count",
    "cost.decisions_per_s": "1/s",
    "cost.verify_budget_use": "ratio",
    "cost.search_budget_use": "ratio",
    "poly.parse_poly_text.s": "s",
    "poly.multiplicity.s": "s",
    "poly.eval_horner.s": "s",
    "poly.norm_claim_check.s": "s",
    "sturm.oracle_real_roots.s": "s",
    "sturm.oracle.exact.ms_p50": "ms",
    "sturm.oracle.float.ms_p50": "ms",
    "sturm.oracle.exact.d4-8.ms_p50": "ms",
    "sturm.oracle.exact.d10-14.ms_p50": "ms",
    "sturm.roots_found": "count",
    "vieta.find_roots_report.s": "s",
    "vieta.real.ms_p50": "ms",
    "vieta.complex.ms_p50": "ms",
    "vieta.cases_per_request": "count",
    "vieta.gn_iterations": "count",
    "vieta.gn_iterations_per_s": "1/s",
    "vieta.starts_per_case": "count",
    "vieta.solved_case_ratio": "ratio",
    "vieta.no_pattern_solved": "count",
    "vieta.oracle_rejections": "count",
    "vieta.collisions": "count",
    "cli.main.ms_p50": "ms",
    "cli.overhead_ratio": "ratio",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
}


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def _rate(num, den) -> float:
    return num / den if den else 0.0


def _p50_ms(durs) -> float:
    return statistics.median(durs) * 1e3 if durs else 0.0


def metrics(ops, results, tracer, cli) -> dict:
    spans, selfs = tracer.spans, tracer.self_times()
    names = {rec[1]: rec[3] for rec in spans}
    calls = defaultdict(list)  # span name -> [(duration, attrs, parent name, self time)]
    layer_self: dict[str, float] = defaultdict(float)
    op_wall = 0.0
    for rec, own in zip(spans, selfs):
        name, dur = rec[3], rec[5] - rec[4]
        if name == "op":
            op_wall += dur
            continue
        layer_self[name.split(".")[0]] += own
        calls[name].append((dur, rec[6] or {}, names.get(rec[2]), own))

    def mean_s(name):
        return _mean([c[0] for c in calls[name]])

    m = {"grid.load_grid.s": mean_s("grid.load_grid")}

    solved = [(d, a) for d, a, _, _ in calls["search.solve_optimal"] if "expanded" in a]
    m["search.solve_optimal.s"] = mean_s("search.solve_optimal")
    m["search.solve_optimal.expanded"] = _mean([a["expanded"] for _, a in solved])
    for algo, sizes in (("bfs", (2, 3)), ("ida", (4,))):
        part = [(d, a) for d, a in solved if a["n"] in sizes]
        m[f"search.{algo}.expanded_per_s"] = _rate(sum(a["expanded"] for _, a in part),
                                                    sum(d for d, _ in part))
    m["search.solve.useful_ratio"] = _rate(sum(a["psi"] for _, a in solved),
                                           sum(a["expanded"] for _, a in solved))
    m["search.is_solvable.s"] = mean_s("search.is_solvable")

    ex = [(d, length_lex_rank(a["seq"])) for d, a, _, _ in calls["search.exhaust_sequences"] if a]
    m["search.exhaust.s"] = mean_s("search.exhaust_sequences")
    m["search.exhaust.probes"] = _mean([p for _, p in ex])
    m["search.exhaust.probes_per_s"] = _rate(sum(p for _, p in ex), sum(d for d, _ in ex))

    enum = [(d, a) for d, a, _, _ in calls["search.enumerate_reachable"] if a]
    m["search.enumerate.s"] = mean_s("search.enumerate_reachable")
    for n in (3, 4):
        part = [(d, a) for d, a in enum if a["n"] == n]
        m[f"search.enumerate.n{n}.states_per_s"] = _rate(sum(a["states"] for _, a in part),
                                                          sum(d for d, _ in part))

    vs = calls["verify.verify_solution"]
    m["verify.verify_solution.s"] = mean_s("verify.verify_solution")
    m["verify.verify_solution.moves_per_s"] = _rate(sum(a["moves"] for _, a, _, _ in vs),
                                                    sum(c[0] for c in vs))
    m["verify.claim_report.s"] = mean_s("verify.claim_report")

    top = [(d, a) for d, a, parent, _ in calls["cost.instrumented_verify"] if parent == "op"]
    m["cost.instrumented_verify.s"] = mean_s("cost.instrumented_verify")
    m["cost.decisions"] = _mean([a["decisions"] for _, a in top])
    m["cost.decisions_per_s"] = _rate(sum(a["decisions"] for _, a in top), sum(d for d, _ in top))
    m["cost.verify_budget_use"] = _mean([a["decisions"] / verify_ceiling(a["n"], a["k"])
                                         for _, a in top])
    m["cost.search_budget_use"] = _mean([r["sdecisions"] / r["sceiling"]
                                         for r in results if "sdecisions" in r])

    for name in ("parse_poly_text", "multiplicity", "eval_horner", "norm_claim_check"):
        m[f"poly.{name}.s"] = mean_s(f"poly.{name}")

    oracle = [(d, a) for d, a, _, _ in calls["sturm.oracle_real_roots"]]
    exact = [(d, a) for d, a in oracle if a.get("kind") == "rational"]
    m["sturm.oracle_real_roots.s"] = mean_s("sturm.oracle_real_roots")
    m["sturm.oracle.exact.ms_p50"] = _p50_ms([d for d, _ in exact])
    m["sturm.oracle.float.ms_p50"] = _p50_ms([d for d, a in oracle if a.get("kind") == "complex"])
    m["sturm.oracle.exact.d4-8.ms_p50"] = _p50_ms([d for d, a in exact if 4 <= a["degree"] <= 8])
    m["sturm.oracle.exact.d10-14.ms_p50"] = _p50_ms([d for d, a in exact if 10 <= a["degree"] <= 14])
    m["sturm.roots_found"] = _mean([a["roots"] for _, a in oracle if a.get("roots") is not None])

    finds = calls["vieta.find_roots_report"]
    found = [r for op, r in zip(ops, results) if op["k"] == "find" and "error" not in r]
    outcomes = [o for r in found for o in r["outcomes"]]
    m["vieta.find_roots_report.s"] = mean_s("vieta.find_roots_report")
    for mode in ("real", "complex"):
        m[f"vieta.{mode}.ms_p50"] = _p50_ms([d for d, a, _, _ in finds if a.get("mode") == mode])
    m["vieta.cases_per_request"] = _mean([len(r["outcomes"]) for r in found])
    m["vieta.gn_iterations"] = _mean([sum(o[2] for o in r["outcomes"]) for r in found])
    m["vieta.gn_iterations_per_s"] = _rate(sum(o[2] for o in outcomes), sum(c[3] for c in finds))
    m["vieta.starts_per_case"] = _rate(sum(o[3] for o in outcomes), len(outcomes))
    m["vieta.solved_case_ratio"] = _rate(sum(1 for r in found if "roots" in r), len(found))
    m["vieta.no_pattern_solved"] = sum(1 for r in found if r.get("nps"))
    m["vieta.oracle_rejections"] = sum(1 for o in outcomes if o[4] == ORACLE_REJECTED)
    m["vieta.collisions"] = sum(1 for o in outcomes if o[5] or "collided" in o[4])

    m["cli.main.ms_p50"] = statistics.median(cli["ms"]) if cli["ms"] else 0.0
    m["cli.overhead_ratio"] = _rate(sum(cli["ms"]), sum(cli["lib_ms"])) - 1.0
    cli_spans = zip(cli["tracer"].spans, cli["tracer"].self_times())
    main_self = main_wall = 0.0
    for rec, own in cli_spans:
        if rec[3] == "cli.main":
            main_self += own
            main_wall += rec[5] - rec[4]
    for layer in LAYERS[:-1]:  # library layers, from the traced pass
        m[f"{layer}.share"] = _rate(layer_self[layer], op_wall)
    m["cli.share"] = _rate(main_self, main_wall)
    m["trace.overhead_ratio"] = 1.0 - _rate(sum(cli["lib_ms"]), sum(cli["traced_ms"]))
    return m
