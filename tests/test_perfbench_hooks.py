"""The benchmark's trace hooks (perfbench/tracing.py) still reach the
functions they wrap.  The tracer rebinds functions by name, so a refactor
that moves a traced function, or calls it through a binding the tracer
cannot see, would silently zero its per-layer metrics."""

import importlib
import importlib.util
from pathlib import Path

import netmorph.cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    for mod_name, fn_name in _tracing().TRACED:
        assert callable(getattr(importlib.import_module(f"netmorph.{mod_name}"), fn_name, None)), (mod_name, fn_name)


def test_cli_depth_morph_reaches_the_traced_solver(tmp_path, capsys):
    parent, child = str(tmp_path / "parent.nmph"), str(tmp_path / "child.nmph")
    assert netmorph.cli.main(["parse", "--arch", "(3:8)(3:4)", "--input-shape", "2,10,10", "-o", parent]) == 0
    tracer = _tracing().Tracer()
    mark = tracer.mark()
    tracer.install()
    try:
        code = netmorph.cli.main(
            ["morph", "-i", parent, "-o", child, "--op", "depth", "--layer", "0", "--cl", "16", "--k1", "3", "--k2", "1"]
        )
    finally:
        tracer.uninstall()
    assert code == 0
    calls, _, counters = tracer.summary(mark)
    assert calls["cli.main"] == 1
    assert calls["morph_depth.morph_practical"] == 1
    assert counters["morph_depth.shrink_attempts"] >= 1
