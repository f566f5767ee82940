"""One fresh process that imports tilelab and drives one workload.

Reads {"workload", "mode", "warmup", "ops", ...} as JSON on stdin and
writes one JSON document to stdout.  Every mode first imports tilelab and
runs the warm-up ops, which is the set-up time.  Modes:

  setup  then only time the probe, for the host speed
  run    then time every op once, in order
  trace  then run every op once with spans on, time a sample of them
         untraced, traced and through tilelab.cli.main, and, for
         roots-find, make the one-off ROADMAP and defect checks

The set-up clock starts just before tilelab is imported.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import resource
import sys
import time

CLI_SAMPLE = 16
# probe sizes: about 1 ms in all on a 2-vCPU x86-64 host, a third each
PROBE_LOOPS, PROBE_SORT, PROBE_SOLVES = 3500, 1800, 16
PROBE_TABLE = tuple(range(7, 7 + 256))
_solves = None
SETUP_PROBES = 100        # host speed for a set-up-only process
ROADMAP_INPUTS = ("pi/2,-pi^2,0,2", "2,-3,0,1,0,1", "1,0,0,0,0,0,1",
                  "0.0,98.0,-175.0,93.0,-17.0,1.0")


def guarded(ops, lib, op) -> dict:
    try:
        return ops.run_op(lib, op)
    except Exception as exc:  # recorded as the op's failure cause
        return {"error": f"{type(exc).__name__}: {exc}"}


def probe() -> float:
    """Seconds for a fixed mix of the kinds of work the ops do: an integer
    and indexing loop, a list sort and small least-squares solves.  It
    measures how fast the host runs that mix just now.  It allocates
    nothing lasting, so what the ops leave on the heap does not change its
    time, and the collector is off while it runs."""
    global _solves
    if _solves is None:
        import numpy as np  # imported by tilelab already; not set-up time

        _solves = (np.linalg.lstsq, np.arange(24.0).reshape(6, 4) + np.eye(6, 4), np.arange(6.0))
    lstsq, a, b = _solves
    table, clock = PROBE_TABLE, time.perf_counter
    gc.disable()
    try:
        t = clock()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc = (acc + table[i & 255] * i) & 0xFFFFF
        sorted([(i * 7919) % 10007 for i in range(PROBE_SORT)], key=abs)
        for _ in range(PROBE_SOLVES):
            lstsq(a, b, rcond=None)
        return clock() - t
    finally:
        gc.enable()


def timed_pass(ops, lib, flat, tracer=None):
    """Every op once, in order, each timed alone, with a probe before the
    first op and after every op: (results, op times, probe times)."""
    results, times, probes = [], [], [probe()]
    clock = time.perf_counter
    run = guarded if tracer is None else tracer.wrap("op", guarded)
    for i, op in enumerate(flat):
        if tracer is not None:
            tracer.op = i
        t = clock()
        results.append(run(ops, lib, op))
        times.append(clock() - t)
        probes.append(probe())
    return results, times, probes


def cli_call(cli, argv, stdin_text) -> int:
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)
    finally:
        sys.stdin = saved


def paired_sample(ops, flat, seed):
    """A seeded sample of the run's ops, each timed three ways back to back
    (library call untraced, library call traced, the same requests through
    tilelab.cli.main), so slow spells of the machine hit all three alike.
    The CLI requests are then repeated with spans under cli.main."""
    from spans import Tracer

    cli = ops.cli_module()
    picks = sorted(random.Random(seed).sample(range(len(flat)), min(CLI_SAMPLE, len(flat))))
    lib, scratch = ops.library(), Tracer()
    traced_lib = ops.library(scratch)
    lib_ms, traced_ms, cli_ms, codes, requests = [], [], [], [], []
    clock = time.perf_counter
    for i in picks:
        t = clock()
        res = guarded(ops, lib, flat[i])
        lib_ms.append((clock() - t) * 1e3)
        with scratch.patched(ops.nested_targets()):
            t = clock()
            guarded(ops, traced_lib, flat[i])
            traced_ms.append((clock() - t) * 1e3)
        reqs = ops.cli_requests(flat[i], res)
        t = clock()
        codes.append([cli_call(cli, argv, text) for argv, text in reqs])
        cli_ms.append((clock() - t) * 1e3)
        requests.append(reqs)
    tracer = Tracer()
    with tracer.patched(ops.cli_targets() + [(cli, "main", "cli.main", None)]):
        for n, reqs in enumerate(requests):
            tracer.op = n
            for argv, text in reqs:
                cli_call(cli, argv, text)
    return {"ms": cli_ms, "lib_ms": lib_ms, "traced_ms": traced_ms, "codes": codes,
            "tracer": tracer}


def roadmap_checks(ops):
    """Untimed one-off runs: the ROADMAP work counts and defect (c)."""
    tl = ops.tilelab
    out = {}
    for text in ROADMAP_INPUTS:
        p = tl.parse_poly_text(text)
        try:
            rep = tl.find_roots_report(p)
            outcomes, tau = rep.outcomes, rep.roots.count
        except tl.NoPatternSolved as exc:
            outcomes, tau = exc.outcomes, None
        out[text] = {"outcomes": [ops.outcome_row(o) for o in outcomes], "tau": tau,
                     "oracle_tau": tl.oracle_real_roots(p).count}
    return out


def main():
    payload = json.load(sys.stdin)
    t0 = time.perf_counter()
    import ops  # imports tilelab and numpy: part of set-up
    import numpy

    lib = ops.library()
    warm = [guarded(ops, lib, op) for op in payload["warmup"]]
    doc = {"setup_s": time.perf_counter() - t0, "warmup": warm,
           "tilelab": ops.tilelab.__file__, "numpy": numpy.__version__,
           "python": sys.version.split()[0]}
    flat = payload["ops"]
    if payload["mode"] == "setup":
        doc["probes"] = [probe() for _ in range(SETUP_PROBES)]
    elif payload["mode"] == "run":
        results, times, probes = timed_pass(ops, lib, flat)
        doc.update(results=results, times=times, probes=probes,
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    else:
        import layers
        from spans import Tracer

        tracer = Tracer()
        with tracer.patched(ops.nested_targets()):
            results, _, doc["probes"] = timed_pass(ops, ops.library(tracer), flat, tracer=tracer)
        cli = paired_sample(ops, flat, payload["sample_seed"])
        tracer.dump(payload["spans_path"])
        doc["results"] = results
        doc["per_layer"] = layers.metrics(flat, results, tracer, cli)
        doc["cli_codes"] = cli["codes"]
        if payload["workload"] == "roots-find":
            doc["roadmap"] = roadmap_checks(ops)
    json.dump(doc, sys.stdout)


if __name__ == "__main__":
    main()
