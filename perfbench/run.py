"""netmorph benchmark: one workload per invocation, measured end to end or
traced layer by layer.

    python3 perfbench/run.py --workload cifar-depth --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up (import, inputs, one warm-up solve) is timed in this
process and in a few fresh processes, and its median is reported.  Then
whole passes of the workload run one after another, closed loop, until the
next pass would end after ``--seconds``.  With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` passes alternate between untraced and traced, and the JSON
holds per-layer metrics from the traced passes plus the tracing overhead.
The lines before it are ``key=value`` reports: the machine, the workload
shapes, every metric with its unit, median, tail percentile and sample
count, and each failed operation.  A full record, with every sample, goes
to ``.perfbench/BENCH_<workload>_seed<seed>_trace<0|1>.json``; traced runs
also write their spans next to it.

BLAS and OpenMP pools are set, before numpy is first imported, to the
number of CPUs this process may run on, so it never runs more threads, and
numpy is told not to ask for transparent huge pages.
"""

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("cifar-depth", "morph-chain", "mnist-train")
SETUP_PROBES = 6  # fresh processes timed for set-up, besides this one
END_TO_END = {
    "setup_s": "s",
    "workflow_s": "s",
    "morph_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MiB",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the harness self-test")
    p.add_argument("--setup-only", action="store_true", help="time one set-up and print it (used for set-up probes)")
    return p.parse_args(argv)


def bootstrap():
    """Check the checkout, cap thread pools and make ``src`` importable.
    Must run before numpy is imported."""
    if not (SRC / "netmorph" / "__init__.py").is_file():
        sys.exit(f"error=no netmorph sources under {SRC}; run from a full source checkout")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    # Without transparent huge pages, big arrays do not speed up part-way
    # through a run when the kernel gets round to backing them with huge
    # pages, which made the first mnist-train pass about 12% slower.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    sys.path.insert(0, str(SRC))


def timed_setup(args, workdir):
    """Build the workload and time its set-up, numpy import included."""
    t = time.perf_counter()
    from workloads import WORKLOADS as classes

    workload = classes[args.workload](args.seed, workdir, args.size)
    workload.setup()
    return workload, time.perf_counter() - t


def probe_setups(args):
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--setup-only"]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# machine record


def _blas_threads(np):
    """Thread count the loaded OpenBLAS reports, or the configured cap."""
    import ctypes

    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (OSError, AttributeError):
        lib = None
    for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def machine_record():
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(np),
    }


def src_lines():
    total = 0
    for path in sorted(glob.glob(str(SRC / "netmorph" / "*.py"))):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


# ---------------------------------------------------------------------------
# statistics


def describe(samples):
    """Median, the highest percentile with at least ten samples beyond it
    (None when there are too few samples for one above the median), and
    the sample count."""
    import numpy as np

    n = len(samples)
    p = 100.0 * (1.0 - 10.0 / n) if n else 0.0
    tail = (round(p, 1), float(np.percentile(samples, p))) if p > 50.0 else None
    return {"median": statistics.median(samples), "tail": tail, "n": n}


def _line(name, unit, stats):
    tail = f"p{stats['tail'][0]:g}={stats['tail'][1]!r}" if stats["tail"] else "tail=none"
    return f"metric={name} unit={unit} median={stats['median']!r} {tail} n={stats['n']}"


# ---------------------------------------------------------------------------
# the run


def run(args):
    workdir = OUT / f"work-{os.getpid()}"
    try:
        workload, own_setup = timed_setup(args, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        return measure(args, workload, own_setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, own_setup):
    from tracing import COUNTERS, LAYERS, Tracer
    from workloads import Ledger, PassAborted

    ledger, tracer = Ledger(), Tracer() if args.trace else None
    passes, layer_passes = [], []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            mark = tracer.mark()
            tracer.install()
        t = time.perf_counter()
        try:
            result = workload.run_pass(ledger, traced)
        except PassAborted:
            result = None
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"traced": traced, "wall_s": time.perf_counter() - t, "result": result})
        if traced:
            layer_passes.append(tracer.summary(mark))
        if args.trace and len(passes) < 2:
            continue
        typical = statistics.median(p["wall_s"] for p in passes)
        if time.perf_counter() - start + typical > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Probed after the passes, so that their memory churn cannot slow a pass.
    setup_samples = [own_setup] + probe_setups(args)

    done = [p for p in passes if p["result"] is not None]
    untraced = [p["result"] for p in done if not p["traced"]]
    problems = [problem for p in done for problem in p["result"].problems]
    if len({p["result"].digest for p in done}) > 1:
        problems.append("passes with one seed gave different outputs")
    if not untraced:
        problems.append("no untraced pass completed")

    samples = {
        "setup_s": setup_samples,
        "workflow_s": [r.workflow_s for r in untraced],
        "morph_s": [r.morph_s for r in untraced],
        "verify_s": [r.verify_s for r in untraced],
        "peak_rss_mb": [peak_rss_mb],
    }
    report = {name: describe(values) for name, values in samples.items() if values}
    info = {}
    if workload.name == "mnist-train" and untraced:
        info["train_samples_per_s"] = ("1/s", describe([r.train_samples_per_s for r in untraced]))

    if args.trace:
        metrics = per_layer_metrics(workload, layer_passes, done, LAYERS, COUNTERS)
    else:
        metrics = {name: {"value": report[name]["median"], "unit": unit} for name, unit in END_TO_END.items() if name in report}

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "machine": machine_record(),
        "src_lines": src_lines(),
        "shapes": workload.shapes(),
        "end_to_end": {name: dict(report[name], unit=END_TO_END[name], samples=samples[name]) for name in report},
        "info": {name: dict(stats, unit=unit) for name, (unit, stats) in info.items()},
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "fail_frac": ledger.failed / ledger.attempted if ledger.attempted else None,
        "failures": ledger.failures,
        "problems": problems,
        "passes": [_pass_record(p) for p in passes],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}_seed{args.seed}_trace{args.trace}"
    with open(OUT / f"BENCH_{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if tracer is not None:
        with open(OUT / f"spans_{stem}.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)

    print_report(record, report, info)
    if not untraced or (args.trace and "trace.overhead_s" not in metrics):
        print("error=too few passes completed to give every metric", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


def _pass_record(p):
    r = p["result"]
    if r is None:
        return {"traced": p["traced"], "wall_s": p["wall_s"], "aborted": True}
    return {
        "traced": p["traced"], "wall_s": p["wall_s"], "workflow_s": r.workflow_s, "morph_s": r.morph_s,
        "verify_s": r.verify_s, "train_samples_per_s": r.train_samples_per_s, "notes": r.notes,
    }


def per_layer_metrics(workload, layer_passes, done, layers, counters):
    metrics = {}
    if not layer_passes:
        return metrics
    for layer in layers:
        metrics[f"{layer}.calls"] = {"value": statistics.median(c[layer] for c, _, _ in layer_passes), "unit": "count"}
        metrics[f"{layer}.self_s"] = {"value": statistics.median(s[layer] for _, s, _ in layer_passes), "unit": "s"}
    for counter, unit in counters.items():
        metrics[counter] = {"value": statistics.median(k[counter] for _, _, k in layer_passes), "unit": unit}
    attempts = metrics["morph_depth.shrink_attempts"]["value"]
    metrics["morph_depth.useful_ratio"] = {"value": workload.depth_morphs / attempts if attempts else 0.0, "unit": "ratio"}
    traced = [p["result"].workflow_s for p in done if p["traced"]]
    untraced = [p["result"].workflow_s for p in done if not p["traced"]]
    if traced and untraced:
        metrics["trace.workflow_s"] = {"value": statistics.median(traced), "unit": "s"}
        metrics["trace.overhead_s"] = {"value": statistics.median(traced) - statistics.median(untraced), "unit": "s"}
    return metrics


def print_report(record, report, info):
    print(f"workload={record['workload']}")
    print(f"seed={record['seed']}")
    print(f"trace={record['trace']}")
    for key, value in record["machine"].items():
        print(f"machine.{key}={value}")
    print(f"src_lines={record['src_lines']}")
    print(f"shapes={json.dumps(record['shapes'])}")
    for name, stats in report.items():
        print(_line(name, END_TO_END[name], stats))
    for name, (unit, stats) in info.items():
        print(_line(name, unit, stats))
    print(f"metric=fail_frac unit=ratio value={record['fail_frac']!r} attempted={record['attempted']} failed={record['failed']}")
    for failure in sorted(set(record["failures"])):
        print(f"failed_op={failure} count={record['failures'].count(failure)}")
    for problem in record["problems"]:
        print(f"problem={problem}")
    if record["trace"]:
        for name, m in record["metrics"].items():
            print(f"layer={name} unit={m['unit']} value={m['value']!r}")


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("error=--seconds must be positive")
    bootstrap()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
