"""Span tracing of hjbqvi from outside the package.

Each traced layer boundary is a module-level name that the solvers look up
at call time.  ``from .x import y`` binds a separate copy of ``y`` in every
importing module, so each binding is replaced on its own (for example
``penalty.analyze_matrix`` and ``semilag.analyze_matrix``).  Nothing under
``src/`` changes; the originals are restored when a traced unit ends.  A
binding that a module no longer has raises ``MissingBinding`` (the benchmark
then exits 2): skipping it would read as a layer whose cost fell to 0.

Spans (name, start, end, parent, unit id) are kept in memory and written out
when the run ends.  A span's self time is its duration minus the durations
of its direct children; single-threaded calls nest, so children never
overlap.
"""

from __future__ import annotations

import gzip
import importlib
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (span name, attribute, modules whose binding of it is replaced)
FUNCTION_SPANS = (
    ("problem.eval_on", "eval_on",
     ("problem", "operators", "penalty", "semilag", "oracle", "harness")),
    ("penalty.best_control", "_best_control", ("penalty",)),
    ("penalty.residual", "residual", ("penalty",)),
    ("penalty.assemble", "_assemble", ("penalty",)),
    ("penalty.spsolve", "spsolve", ("penalty",)),
    ("matrices.analyze", "analyze_matrix", ("penalty", "semilag", "harness")),
    ("semilag.sl_rhs", "sl_rhs", ("semilag",)),
    ("semilag.thomas", "thomas_solve", ("semilag",)),
    ("semilag.assemble_A", "assemble_A", ("semilag",)),
    ("oracle.brute_force", "brute_force_residual", ("harness", "cli")),
    ("harness.solve", "_solve_for_study", ("harness",)),
    ("harness.sup_error", "sup_error", ("harness",)),
    ("harness.stability", "check_stability_bound", ("harness", "cli")),
    ("cli.parse_config", "parse_config", ("cli",)),
    ("cli.write_artifacts", "write_solution_csv", ("cli",)),
    ("cli.write_artifacts", "write_plotdata_csv", ("cli",)),
    ("cli.write_artifacts", "write_json", ("cli",)),
)

SETUP_UNIT = "setup"


class MissingBinding(RuntimeError):
    """A traced name is gone from the module that used to look it up."""


def binding(module, attr):
    if not hasattr(module, attr):
        raise MissingBinding(f"{module.__name__} has no {attr!r}; update FUNCTION_SPANS "
                             "in perfbench/tracing.py to the name the solvers now call")
    return getattr(module, attr)


class Tracer:
    """In-memory span recorder that patches hjbqvi while a unit is traced."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index, unit]
        self._stack: list[int] = []
        self.unit = None
        self.ranges: dict = {}          # unit -> (first span index, end index)
        self.counters: dict = defaultdict(Counter)
        self.captured: dict = defaultdict(lambda: {"solutions": [], "controls": []})

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.unit]
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return traced

    def _capture(self, kind, fn):
        """Keep each result of ``fn`` for the unit's layer metrics."""
        def capturing(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.captured[self.unit][kind].append(result)
            return result
        return capturing

    def _patches(self, modules) -> dict:
        """(owner, attribute) -> replacement for every traced binding."""
        patches = {}
        for name, attr, binders in FUNCTION_SPANS:
            for binder in binders:
                module = modules[binder]
                patches[(module, attr)] = self.wrap(name, binding(module, attr))

        # Study levels build their own solutions and controls inside harness.
        harness = modules["harness"]
        for attr, kind in (("_solve_for_study", "solutions"), ("discretize_controls", "controls")):
            inner = patches.get((harness, attr), binding(harness, attr))
            patches[(harness, attr)] = self._capture(kind, inner)

        operators = modules["operators"]
        counters = self.counters
        impulse_values = binding(operators.DiscreteControls, "impulse_values")

        def counted_impulse_values(controls, t, x):
            counters[self.unit]["operators.impulse_values.calls"] += 1
            return impulse_values(controls, t, x)

        patches[(operators.DiscreteControls, "impulse_values")] = counted_impulse_values

        table_class = self._traced_table_class(binding(operators, "InterventionTable"))
        for binder in ("operators", "penalty", "semilag", "oracle"):
            binding(modules[binder], "InterventionTable")
            patches[(modules[binder], "InterventionTable")] = table_class
        return patches

    def _traced_table_class(self, base):
        """Subclass whose construction is a span and whose arrays are sized."""
        build = self.wrap("operators.intervention_table", base.__init__)
        counters = self.counters
        tracer = self

        class TracedInterventionTable(base):
            def __init__(self, *args, **kwargs):
                build(self, *args, **kwargs)
                built = (self.costs, self.k, self.alpha, self.k_next, self.offsets,
                         self._impulse_grid)
                counters[tracer.unit]["operators.intervention_table.bytes"] += sum(
                    arr.nbytes for arr in built if arr is not None)

        return TracedInterventionTable

    @contextmanager
    def installed(self, unit, modules):
        """Patch the package, record everything under ``unit``, then restore."""
        patches = self._patches(modules)
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr in patches]
        self.unit = unit
        first = len(self.spans)
        try:
            for (owner, attr), replacement in patches.items():
                setattr(owner, attr, replacement)
            yield
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
            self.unit = None
            self.ranges[unit] = (first, len(self.spans))

    # -- analysis ----------------------------------------------------------

    def table(self, unit) -> dict:
        """name -> [calls, self seconds, inclusive durations] for one unit."""
        first, stop = self.ranges.get(unit, (0, 0))
        spans = self.spans[first:stop]
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent - first] += end - start
        table: dict = defaultdict(lambda: [0, 0.0, []])
        for (name, start, end, _, _), covered in zip(spans, child):
            entry = table[name]
            entry[0] += 1
            entry[1] += end - start - covered
            entry[2].append(end - start)
        return table

    def write(self, path) -> None:
        """One CSV row per span: index, name, start, end, parent, unit."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent,unit\n")
            for i, (name, start, end, parent, unit) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{unit}\n")


def unit_layer_metrics(spans: dict, counters: Counter, solutions: list,
                       controls: list, artifact_bytes: int) -> dict:
    """Per-layer metrics of one traced unit (all except the run-level ones)."""
    def calls(name):
        return spans[name][0] if name in spans else 0

    def seconds(name):
        return spans[name][1] if name in spans else 0.0

    impulse_calls = counters["operators.impulse_values.calls"]
    entries = sum(len(getattr(c, "_impulse_cache", ())) for c in controls)
    has_cache = any(hasattr(c, "_impulse_cache") for c in controls)
    penalty_sols = [s for s in solutions if s.scheme == "penalty"]
    semilag_sols = [s for s in solutions if s.scheme == "semilagrangian"]
    iters = [step.iterations for s in penalty_sols for step in s.diagnostics.timesteps]
    active = [p.intervene for s in penalty_sols for p in s.policies if p is not None]
    level_solves = spans["harness.solve"][2] if "harness.solve" in spans else []

    return {
        "problem.eval_on.calls": calls("problem.eval_on"),
        "problem.eval_on.s": seconds("problem.eval_on"),
        "operators.intervention_table.builds": calls("operators.intervention_table"),
        "operators.intervention_table.s": seconds("operators.intervention_table"),
        # Computed from the built arrays' sizes, not measured.
        "operators.intervention_table.mb":
            counters["operators.intervention_table.bytes"] / 1e6,
        "operators.impulse_values.calls": impulse_calls,
        "operators.impulse_cache.entries": entries,
        "operators.impulse_cache.hit_ratio":
            (impulse_calls - entries) / impulse_calls if impulse_calls and has_cache else 0.0,
        "penalty.best_control.calls": calls("penalty.best_control"),
        "penalty.best_control.s": seconds("penalty.best_control"),
        "penalty.residual.s": seconds("penalty.residual"),
        "penalty.assemble.calls": calls("penalty.assemble"),
        "penalty.assemble.s": seconds("penalty.assemble"),
        "penalty.spsolve.s": seconds("penalty.spsolve"),
        "penalty.pi_iters_per_step": sum(iters) / len(iters) if iters else 0.0,
        "penalty.pi_iters_max": max(iters) if iters else 0,
        "penalty.intervene_share":
            sum(int(a.sum()) for a in active) / sum(a.size for a in active) if active else 0.0,
        "matrices.analyze.calls": calls("matrices.analyze"),
        "matrices.analyze.s": seconds("matrices.analyze"),
        "semilag.sl_rhs.s": seconds("semilag.sl_rhs"),
        "semilag.thomas.s": seconds("semilag.thomas"),
        "semilag.assemble_A.s": seconds("semilag.assemble_A"),
        "semilag.oversteps": sum(s.diagnostics.oversteps for s in semilag_sols),
        "semilag.interior_oversteps":
            sum(s.diagnostics.interior_oversteps for s in semilag_sols),
        "oracle.brute_force.calls": calls("oracle.brute_force"),
        "oracle.brute_force.s": seconds("oracle.brute_force"),
        "harness.solve.s": seconds("harness.solve"),
        "harness.sup_error.s": seconds("harness.sup_error"),
        "harness.stability.s": seconds("harness.stability"),
        # Finest level's inclusive solve time over the next-coarser level's.
        "harness.doubling_ratio":
            level_solves[-1] / level_solves[-2] if len(level_solves) >= 2 else 0.0,
        "cli.write_artifacts.s": seconds("cli.write_artifacts"),
        "cli.artifact_bytes": artifact_bytes,
    }


def median_metrics(per_unit: list[dict]) -> dict:
    """Median of each metric over the traced units."""
    return {name: statistics.median(m[name] for m in per_unit) for name in per_unit[0]}


def load_modules() -> dict:
    return {name: importlib.import_module(f"hjbqvi.{name}")
            for name in ("problem", "operators", "penalty", "matrices", "semilag",
                         "oracle", "harness", "cli")}
