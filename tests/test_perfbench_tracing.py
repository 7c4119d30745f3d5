"""The benchmark's tracer finds every name it patches in the package.

``perfbench/tracing.py`` wraps module-level names the solvers look up at call
time, and stops the benchmark with ``MissingBinding`` when one is gone.  Building
its patches here makes a rename in the package fail the tests in about a second,
not only in the benchmark's self-test.  Only ``perfbench/`` is read.
"""

import importlib.util
from pathlib import Path

import pytest

from hjbqvi.grid import build_uniform_grid
from hjbqvi.problem import builtin

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_exists(tracing):
    modules = tracing.load_modules()
    patches = tracing.Tracer()._patches(modules)
    assert (modules["penalty"], "_best_control") in patches
    assert (modules["penalty"], "residual") in patches
    assert (modules["penalty"], "InterventionTable") in patches


@pytest.mark.parametrize("module, attr", [
    ("penalty", "_best_control"),
    ("penalty", "residual"),
    ("penalty", "InterventionTable"),
])
def test_a_missing_binding_is_named(tracing, monkeypatch, module, attr):
    modules = tracing.load_modules()
    monkeypatch.delattr(modules[module], attr)
    with pytest.raises(tracing.MissingBinding, match=attr):
        tracing.Tracer()._patches(modules)


def test_traced_table_sizes_its_arrays(tracing):
    # The traced table reads its arrays by attribute name: moving or renaming
    # one fails here, not only in the benchmark's self-test.
    modules = tracing.load_modules()
    tracer = tracing.Tracer()
    problem, grid = builtin("cash"), build_uniform_grid(Q=4, M=4, N=3, T=3)
    with tracer.installed("unit", modules):
        operators = modules["operators"]
        operators.InterventionTable(problem, grid,
                                    operators.discretize_controls(problem, grid.rho), 0.0)
    assert tracer.counters["unit"]["operators.intervention_table.bytes"] > 0
