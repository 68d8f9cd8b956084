"""The benchmark's trace hooks (perfbench/tracing.py) still reach the
functions they wrap.  The tracer rebinds functions by name, so a refactor
that moves a traced function, or calls it through a binding the tracer
cannot see, would silently zero its per-layer metrics.  Every package name
the benchmark's scripts use must also still exist, and every workload must
pass its own checks at its tiny size, so that breaking either fails here
and not in the next benchmark run."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import netmorph
import netmorph.cli
import netmorph.morph_depth
from netmorph import DepthMorphRequest, make_rng

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """Import ``perfbench/<name>.py``, which is not a package module."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads")


def _traced(call):
    """Run ``call()`` under the benchmark's tracer; return its result and
    the per-layer call counts and counters it recorded.  ``call`` looks the
    traced functions up when it runs, so it reaches their wrappers."""
    tracer = _load("tracing").Tracer()
    mark = tracer.mark()
    tracer.install()
    try:
        result = call()
    finally:
        tracer.uninstall()
    calls, _, counters = tracer.summary(mark)
    return result, calls, counters


def test_every_traced_function_resolves():
    for mod_name, fn_name in _load("tracing").TRACED:
        assert callable(getattr(importlib.import_module(f"netmorph.{mod_name}"), fn_name, None)), (mod_name, fn_name)


def _package_names(tree):
    """Dotted names the code in ``tree`` reads through ``nm.<...>`` or
    ``netmorph.<...>``.  Assignment targets such as
    ``netmorph.cli.insert_depth = ...`` may create a name, so they are
    skipped; the object they assign to (``netmorph.cli``) is read."""
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or isinstance(node.ctx, ast.Store):
            continue
        parts, value = [node.attr], node.value
        while isinstance(value, ast.Attribute):
            parts.append(value.attr)
            value = value.value
        if isinstance(value, ast.Name) and value.id in ("nm", "netmorph"):
            names.add(".".join(reversed(parts)))
    return names


def _resolves(dotted):
    obj = netmorph
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_every_package_name_the_benchmark_uses_exists():
    for module in pkgutil.iter_modules(netmorph.__path__):
        importlib.import_module(f"netmorph.{module.name}")  # each submodule becomes a package attribute
    names = {
        (source.name, name)
        for source in sorted(PERFBENCH.glob("*.py"))
        for name in _package_names(ast.parse(source.read_text(), filename=str(source)))
    }
    assert ("workloads.py", "forward") in names and ("selftest.py", "cli") in names
    missing = sorted((source, name) for source, name in names if not _resolves(name))
    assert not missing


def test_cli_depth_morph_reaches_the_traced_solver(tmp_path, capsys):
    parent, child = str(tmp_path / "parent.nmph"), str(tmp_path / "child.nmph")
    assert netmorph.cli.main(["parse", "--arch", "(3:8)(3:4)", "--input-shape", "2,10,10", "-o", parent]) == 0
    code, calls, counters = _traced(
        lambda: netmorph.cli.main(
            ["morph", "-i", parent, "-o", child, "--op", "depth", "--layer", "0", "--cl", "16", "--k1", "3", "--k2", "1"]
        )
    )
    assert code == 0
    assert calls["cli.main"] == 1
    assert calls["morph_depth.morph_practical"] == 1
    assert counters["morph_depth.shrink_attempts"] >= 1


@pytest.mark.parametrize("shape", [(4, 3, 3, 3), (8, 2, 3, 3)], ids=["shrink-upper", "shrink-lower"])
def test_every_shrink_attempt_is_counted(shape):
    # Both requests converge at their second attempt (3x3, then 1x1 on the
    # shrinking side); each attempt is one upper and one lower factor solve.
    g = make_rng(42).standard_normal(shape)
    req = DepthMorphRequest(layer_index=0, c_l=4, k1=3, k2=3)
    outcome, calls, counters = _traced(lambda: netmorph.morph_depth.morph_practical(g, req))
    assert outcome.shrunk_kernel == 1
    assert calls["morph_depth.morph_practical"] == 1
    assert calls["tensor_ops.lstsq_factor_step"] == 4
    assert counters["morph_depth.shrink_attempts"] == 2


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_tiny_workload_passes_its_own_checks(name, tmp_path):
    workload = WORKLOADS.WORKLOADS[name](1, tmp_path, "tiny")
    workload.setup()
    ledger = WORKLOADS.Ledger()
    first, second = (workload.run_pass(ledger) for _ in range(2))
    assert ledger.attempted > 0 and ledger.failed == 0, ledger.failures
    assert first.problems == [] and second.problems == []
    assert first.digest == second.digest
