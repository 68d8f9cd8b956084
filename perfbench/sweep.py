"""Solver growth sweep: an ungated side report of how the depth and
sequential-subnet solvers scale with channel count.

    python3 perfbench/sweep.py [--cap 60] [--seed 0]

Each case runs in a fresh process under a time cap.  A case that hits the
cap is killed and recorded as capped, not dropped.  For every case the
report names the filter shape, the requested factorization, the wall time,
the lstsq system sizes and calls, and the relative residual of the result.
The record goes to ``.perfbench/BENCH_sweep_seed<seed>.json``.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from run import OUT, ROOT, bootstrap, machine_record, src_lines

# morph_practical: G = (c_out, c_in, k, k) factored as (k1:c_l)(k2:c_out).
PRACTICAL = [
    {"c_in": 32, "c_out": 32, "k": 5, "c_l": 128, "k1": 5, "k2": 1},
    {"c_in": 64, "c_out": 32, "k": 5, "c_l": 128, "k1": 5, "k2": 1},
    {"c_in": 32, "c_out": 64, "k": 5, "c_l": 256, "k1": 5, "k2": 1},
    {"c_in": 64, "c_out": 64, "k": 3, "c_l": 64, "k1": 3, "k2": 3},
]
# morph_sequential: G = (C, C, 3, 3) factored as (3:2C)(3:2C)(1:C).
SEQUENTIAL = [{"c": c} for c in (4, 6, 8)]


def cases():
    for case in PRACTICAL:
        yield {"solver": "morph_practical", **case}
    for case in SEQUENTIAL:
        yield {"solver": "morph_sequential", **case}


def run_case(case, seed):
    """Solve one case in this process and describe it."""
    import numpy as np

    import netmorph as nm
    from tracing import Tracer
    from workloads import warm_up

    rng = np.random.default_rng([seed, 1603])
    if case["solver"] == "morph_practical":
        g = rng.standard_normal((case["c_out"], case["c_in"], case["k"], case["k"]))
        req = nm.DepthMorphRequest(layer_index=0, c_l=case["c_l"], k1=case["k1"], k2=case["k2"], seed=seed)
    else:
        c = case["c"]
        g = rng.standard_normal((c, c, 3, 3))
    warm_up(nm)
    tracer = Tracer()
    mark = tracer.mark()
    tracer.install()
    t = time.perf_counter()
    try:
        if case["solver"] == "morph_practical":
            outcome = nm.morph_practical(g, req)
            factors = [outcome.f_lo, outcome.f_hi]
        else:
            factors = nm.morph_sequential(g, widths=[2 * c, 2 * c], kernels=[3, 3, 1], seed=seed)
    finally:
        seconds = time.perf_counter() - t
        tracer.uninstall()
    calls, self_s, counters = tracer.summary(mark)
    composed = factors[0]
    for f in factors[1:]:
        composed = nm.compose_filters(composed, f)
    target = nm.pad_filter(g, composed.shape[2])
    return {
        "seconds": seconds,
        "g_shape": list(g.shape),
        "factor_shapes": [list(f.shape) for f in factors],
        "lstsq_calls": calls["lstsq"],
        "lstsq_self_s": self_s["lstsq"],
        "lstsq_cells": counters["lstsq.cells"],
        "lstsq_systems": sorted({f"{m}x{n}" for m, n in tracer.systems}),
        "relative_residual": float(np.linalg.norm(composed - target) / np.linalg.norm(target)),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--cap", type=float, default=60.0, help="seconds allowed per case")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--case", help="run one case given as JSON in this process and print its result")
    args = p.parse_args(argv)
    bootstrap()
    if args.case:
        print(json.dumps(run_case(json.loads(args.case), args.seed)))
        return 0

    results = []
    for case in cases():
        cmd = [sys.executable, str(Path(__file__).resolve()), "--seed", str(args.seed), "--case", json.dumps(case)]
        t = time.perf_counter()
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=args.cap, check=True)
            result = {"capped": False, **json.loads(done.stdout.strip().splitlines()[-1])}
        except subprocess.TimeoutExpired:
            result = {"capped": True, "cap_s": args.cap}
        except subprocess.CalledProcessError as exc:
            result = {"capped": False, "error": exc.stderr.strip().splitlines()[-1]}
        result["process_wall_s"] = time.perf_counter() - t
        results.append({"case": case, **result})
        if result["capped"] or "error" in result:
            shown = "capped" if result["capped"] else f"error={result['error']}"
        else:
            shown = f"seconds={result['seconds']!r} lstsq_calls={result['lstsq_calls']} residual={result['relative_residual']:.2e}"
        print(" ".join(f"{k}={v}" for k, v in case.items()) + f" {shown}", flush=True)

    OUT.mkdir(exist_ok=True)
    record = {"seed": args.seed, "cap_s": args.cap, "machine": machine_record(), "src_lines": src_lines(), "cases": results}
    with open(OUT / f"BENCH_sweep_seed{args.seed}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
