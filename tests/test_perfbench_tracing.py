"""The benchmark's tracer finds every name it patches in the package.

``perfbench/tracing.py`` wraps module-level names the solvers look up at call
time, and stops the benchmark with ``MissingBinding`` when one is gone.  Building
its patches here makes a rename in the package fail the tests in about a second,
not only in the benchmark's self-test.  ``perfbench/`` is only read: the
module is compiled from its source, and no bytecode is written beside it.
"""

import importlib
import types
from dataclasses import replace
from pathlib import Path

import pytest

from hjbqvi.grid import build_uniform_grid
from hjbqvi.problem import builtin

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING_PATH)
    source = TRACING_PATH.read_text(encoding="utf-8")
    exec(compile(source, str(TRACING_PATH), "exec"), module.__dict__)
    return module


TRACING = load_tracing()


@pytest.fixture(scope="module")
def tracing():
    return TRACING


@pytest.mark.parametrize("span, attr, binder", [
    (span, attr, binder) for span, attr, binders in TRACING.FUNCTION_SPANS for binder in binders
])
def test_every_function_span_binder_has_its_name(span, attr, binder):
    # A renamed spsolve, _assemble or analyze_matrix fails here, where the
    # traced benchmark would exit 2 (MissingBinding).
    assert hasattr(importlib.import_module(f"hjbqvi.{binder}"), attr), (span, binder)


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


def test_traced_block_layout_table_sizes_its_arrays(tracing):
    # Cash through an undeclared reset shift builds the block layout, whose
    # nodes x K cost block the tracer sizes with the rest.
    modules = tracing.load_modules()
    tracer = tracing.Tracer()
    cash = builtin("cash")
    problem = replace(cash, impulse_shift=lambda t, x, z: cash.impulse_shift(t, x, z))
    grid = build_uniform_grid(Q=4, M=4, N=3, T=3)
    with tracer.installed("unit", modules):
        operators = modules["operators"]
        table = operators.InterventionTable(problem, grid,
                                            operators.discretize_controls(problem, grid.rho), 0.0)
    assert table._reset is None and table.costs.shape == table._impulse_grid.shape
    assert tracer.counters["unit"]["operators.intervention_table.bytes"] >= (
        table.costs.nbytes + table._impulse_grid.nbytes)


def test_traced_steps_start_from_the_step_before(tracing):
    # Under the tracer's wrappers a cash solve still starts each step after
    # the first from the last improvement before it: one argmax per
    # assembled system, plus the first step's initial one.
    modules = tracing.load_modules()
    tracer = tracing.Tracer()
    problem, grid = builtin("cash"), build_uniform_grid(Q=4, M=8, N=6, T=3)
    with tracer.installed("unit", modules):
        controls = modules["operators"].discretize_controls(problem, grid.rho)
        sol = modules["penalty"].solve_finite_horizon(problem, grid, controls)
    metrics = tracing.unit_layer_metrics(tracer.table("unit"), tracer.counters["unit"],
                                         [sol], [controls], 0)
    assert metrics["penalty.assemble.calls"] == sum(
        step.iterations for step in sol.diagnostics.timesteps)
    assert metrics["penalty.best_control.calls"] == 1 + metrics["penalty.assemble.calls"]
