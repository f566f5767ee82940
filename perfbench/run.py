"""tilelab benchmark: one command, three seeded workloads, checked outputs.

    python3 perfbench/run.py --workload tiles-solve --seed 1 --seconds 27 --trace 0

Run from the repository root.  The parent process builds the seeded inputs
and their ground truth (never timed): a fixed number of op cycles, sized
from --seconds, so a seed always gives the same ops.  It then starts fresh
worker processes one at a time.  Each imports tilelab and runs the warm-up
ops.  Two of them then time every op once, with a probe between ops
for the host speed; together they take about --seconds.  An op's time,
scaled to a reference host speed, is the smaller of its two.  The parent
checks every output and prints an environment line, a summary line and,
last, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from one untraced and one traced pass over the same
ops.  See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# Timed passes per run, each in a fresh process; an op's time is the smaller
# of its two.  Slow spells of the host are mostly taken out by the probe
# scaling below, and the jitter left by the minimum (see README).
PASSES = 2
# Op cycles per second of --seconds, so that the passes take about --seconds
# on a 2-vCPU x86-64 host; every cycle has the same mix of ops.
CYCLES_PER_S = {"tiles-solve": 1.3, "roots-find": 0.22, "claims-report": 1.85}
# Host speed: the worker times a fixed probe between ops, and every
# time metric is scaled to a host on which the probe takes PROBE_REF_S.
PROBE_REF_S = 1e-3
PROBE_WINDOW = 12         # probes on each side of an op for its host speed
TAIL_SHARE = 10           # op_ms_tail10_mean: mean of the slowest 10% of ops
DIGEST_OPS = 25           # ops whose work counters form the digest
RUN_TIMEOUT = 170          # seconds for all the workers of one run
DEADLINE = time.monotonic() + RUN_TIMEOUT
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1"}


def worker(payload: dict) -> dict:
    """Run one worker process to its end and return its JSON document."""
    env = dict(os.environ, PYTHONHASHSEED="0", **BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                          input=json.dumps(payload), capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=max(1.0, DEADLINE - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"perfbench: worker exited with {proc.returncode}")
    return json.loads(proc.stdout)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def scaled(times, probes) -> list[float]:
    """Op times at the reference speed, where the probe takes PROBE_REF_S.
    The host speed at op i is the median of the PROBE_WINDOW probes on each
    side of it (probe i runs just before op i, probe i + 1 just after)."""
    out = []
    for i, t in enumerate(times):
        near = probes[max(0, i + 1 - PROBE_WINDOW):i + 1 + PROBE_WINDOW]
        out.append(t * PROBE_REF_S / statistics.median(near))
    return out


def tail_ms(times) -> float:
    """Mean of the slowest TAIL_SHARE percent of the ops, in ms."""
    k = max(1, len(times) * TAIL_SHARE // 100)
    return statistics.fmean(sorted(times)[-k:]) * 1e3


def roadmap_gate(roadmap: dict) -> dict:
    """Cases, GN iterations and starts of the ROADMAP rows, against the table."""
    out = {}
    for text, want in workloads.ROADMAP_ROWS.items():
        rows = roadmap[text]["outcomes"]
        got = (len(rows), sum(r[2] for r in rows), sum(r[3] for r in rows))
        out[text] = {"cases_iterations_starts": got, "expected": want, "ok": got == tuple(want)}
    return out


def known_defects(workload: str, statuses, roadmap) -> dict:
    """What the baseline's three documented defects look like in this run."""
    def cause_of(i):
        return statuses[i][1] or "answered" if i < len(statuses) else "not_run"

    if workload == "roots-find":
        out = {"a:-6,11,-6,1": cause_of(1), "b:complex -1,0,1": cause_of(2)}
        if roadmap:
            w = roadmap[workloads.DEFECT_C_FLOAT]
            out["c:" + workloads.DEFECT_C_FLOAT] = {
                "roots_find": "no_pattern_solved" if w["tau"] is None else f"tau={w['tau']}",
                "oracle_tau": w["oracle_tau"], "expected_tau": 4}
        return out
    if workload == "claims-report":
        return {"c:corpus x(x-1)(x-2)(x-7)^2": cause_of(2)}
    return {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tilelab", "__init__.py")):
        print(f"perfbench: no tilelab package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    cycles = max(1, round(args.seconds * CYCLES_PER_S[args.workload]))
    warm_ops, op_rows, truth_rows = workloads.build(args.workload, args.seed, cycles)
    flat_ops = [op for row in op_rows for op in row]
    flat_truths = [t for row in truth_rows for t in row]
    run = {"workload": args.workload, "warmup": warm_ops, "ops": flat_ops, "mode": "run"}
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        passes = [worker(run)]
        traced = worker(dict(run, mode="trace", sample_seed=args.seed + 1, spans_path=os.path.join(
            out_dir, f"spans-{args.workload}-{args.seed}.jsonl")))
        procs = passes + [traced]
    else:
        # set-up-only processes before, between and after the passes, so
        # set-up is sampled 2 * PASSES + 1 times a run at little cost
        setup = dict(run, mode="setup", ops=[])
        procs, passes = [worker(setup)], []
        for _ in range(PASSES):
            passes.append(worker(run))
            procs += [passes[-1], worker(setup)]

    results = passes[0]["results"]
    # an op's time at the reference speed, smallest over the passes
    times = [min(ts) for ts in zip(*(scaled(p["times"], p["probes"]) for p in passes))]
    raw_times = [min(ts) for ts in zip(*(p["times"] for p in passes))]
    setup_s = [p["setup_s"] * PROBE_REF_S / statistics.median(p["probes"]) for p in procs]
    statuses = [workloads.check(args.workload, t, r) for t, r in zip(flat_truths, results)]
    n = len(results)
    failed = sum(1 for s, _ in statuses if s != "ok")
    wrong = sum(1 for s, _ in statuses if s == "wrong")
    causes = Counter(c for s, c in statuses if s != "ok")

    counters = [workloads.COUNTERS[args.workload](r) for r in results[:DIGEST_OPS]]
    gates = {
        "warmup_counters_repeat": all(p["warmup"] == procs[0]["warmup"] for p in procs),
        "pass_counters_repeat": all(p["results"] == results for p in passes),
        "every_op_checked": n == len(flat_truths),
    }
    if args.workload == "claims-report":
        census = results[1] if n > 1 else {}
        gates["census3_181440_d31"] = (census.get("count"), census.get("diameter")) == workloads.CENSUS3
    last = procs[-1]
    roadmap = last.get("roadmap")
    if args.trace:
        gates["traced_counters_repeat"] = traced["results"] == results
    if roadmap:
        rows = roadmap_gate(roadmap)
        gates["roadmap_counts"] = all(r["ok"] for r in rows.values())

    kinds = Counter(op["k"] for op in flat_ops[:n])
    env = {
        "environment": {
            "nproc": os.cpu_count(), "cpu": cpu_model(), "python": last["python"],
            "numpy": last["numpy"], "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "cycles": cycles, "passes": len(passes),
            "ops_by_kind": dict(kinds), "blas_threads": BLAS_PIN,
            "tilelab": os.path.relpath(last["tilelab"], ROOT),
        }
    }
    summary = {
        "fail_ratio": failed / n, "wrong_ratio": wrong / n, "causes": dict(causes),
        "op_time_s": sum(times), "tail_samples": max(1, n * TAIL_SHARE // 100),
        "setup_samples": [p["setup_s"] for p in procs],
        "probe_ms_p50": [statistics.median(p["probes"]) * 1e3 for p in passes],
        "unscaled": {"ops_per_s": n / sum(raw_times),
                     "op_ms_p50": statistics.median(raw_times) * 1e3,
                     "op_ms_tail": tail_ms(raw_times)},
        "known_defects": known_defects(args.workload, statuses, roadmap),
        "counter_digest": hashlib.sha256(json.dumps(
            [counters, last["warmup"]], sort_keys=True).encode()).hexdigest()[:16],
        "gates": gates,
    }
    if roadmap:
        summary["roadmap"] = rows
    if args.trace:
        summary["cli_exit_codes"] = traced["cli_codes"]

    if args.trace:
        from layers import UNITS
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in traced["per_layer"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "ops_per_s": {"value": n / sum(times), "unit": "1/s"},
            "op_ms_p50": {"value": statistics.median(times) * 1e3, "unit": "ms"},
            "op_ms_tail10_mean": {"value": tail_ms(times), "unit": "ms"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes),
                            "unit": "MB"},
            "pass_ratio": {"value": 1 - failed / n, "unit": "ratio"},
            "sound_ratio": {"value": 1 - wrong / n, "unit": "ratio"},
        }
    print(json.dumps(env))
    print(json.dumps(summary))
    print(json.dumps({"correct": all(gates.values()), "attempted": n, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
