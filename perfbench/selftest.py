"""Harness self-test at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload, traced and untraced, ends its output with the
result object, that the object names every metric of BENCHMARK.json with
the unit given there, that the report lines give the end-to-end metrics
with their units, and that a morph made wrong on purpose turns into failed
operations (a false verdict raises fail_frac).  Exits 1 on any failure.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from run import ROOT, bootstrap

problems = []


def check(ok, what):
    print(f"{'ok' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def check_outputs(spec):
    names = [w["name"] for w in spec["workloads"]]
    for workload in names:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload, "--seed", "3",
                   "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            where = f"{workload} trace={trace}"
            check(done.returncode == 0, f"{where} exits 0")
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                check(False, f"{where} ends with a JSON result")
                continue
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{where} result keys")
            check(result["correct"] is True and result["attempted"] >= 1, f"{where} correct with attempts")
            want = {m["name"]: m["unit"] for m in metrics}
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            check(got == want, f"{where} emits every metric with its unit")
            check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()), f"{where} values are numbers")
            if trace == 0:
                for name in list(want) + ["fail_frac"] + (["train_samples_per_s"] if workload == "mnist-train" else []):
                    check(any(line.startswith(f"metric={name} unit=") for line in lines), f"{where} reports {name} with a unit")


def check_false_verdict():
    """A deliberately wrong depth morph must show up as failed operations."""
    bootstrap()
    import netmorph
    import netmorph.cli
    from workloads import CifarDepth, Ledger, MnistTrain

    real = netmorph.insert_depth

    def broken_insert_depth(net, req, *args, **kwargs):
        child = real(net, req, *args, **kwargs)
        layers = list(child.layers)
        last = child.conv_indices()[-1]
        conv = layers[last]
        bias = conv.bias.copy()
        bias[0] += 10.0
        layers[last] = netmorph.ConvLayer(weights=conv.weights, bias=bias, pad=conv.pad, fc=conv.fc)
        return child.with_layers(layers)

    workdir = ROOT / ".perfbench" / f"selftest-{os.getpid()}"
    for cls in (CifarDepth, MnistTrain):
        workload = cls(3, workdir, "tiny")
        workload.setup()
        clean = Ledger()
        workload.run_pass(clean)
        netmorph.insert_depth = netmorph.cli.insert_depth = broken_insert_depth
        try:
            broken = Ledger()
            workload.run_pass(broken)
        finally:
            netmorph.insert_depth = netmorph.cli.insert_depth = real
        shutil.rmtree(workdir, ignore_errors=True)
        check(clean.failed == 0, f"{cls.name} clean pass has no failed operation")
        check(broken.failed > 0 and broken.failed / broken.attempted > clean.failed / clean.attempted,
              f"{cls.name} wrong morph raises fail_frac ({broken.failures})")


def main():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    check_outputs(spec)
    check_false_verdict()
    print(f"selftest {'failed: ' + str(len(problems)) if problems else 'passed'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
