"""Continuous problem data for combined stochastic and impulse control.

A problem is the data of the dynamic-programming quasi-variational
inequality

    min( -sup_b { u_t + drift(x,b) u_x + 1/2 diffusion(x,b)^2 u_xx
                  + running_reward(t,x,b) },
         u - sup_z { u(t, x + impulse_shift(t,x,z)) + impulse_cost(t,x,z) } ) = 0

on [0, T) x R with terminal value terminal_reward, or its stationary
analogue with a discount rate in place of the time derivative.

Standing hypotheses, checked by :func:`validate` on sampled points:

* rewards bounded and jumping at the terminal time never gains
  (sup_z { g(x + shift) + cost } <= g(x)),
* the impulse set is a nonempty interval at every (t, x),
* the impulse cost is strictly negative everywhere,
* the diffusion is nonnegative (the semi-Lagrangian solve checks, exactly,
  that it ignores the control: :func:`semilag.diffusion_variance`).

Coefficients are plain callables (scalar in, scalar out); array-aware
callables are exploited when they broadcast, via :func:`eval_on`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grid import SpaceTimeGrid


def eval_on(fn: Callable, *args) -> np.ndarray:
    """Evaluate a scalar coefficient callable on broadcast array arguments.

    Tries a direct vectorized call first; falls back to a scalar loop when
    the callable is not array-aware, which shows as a TypeError or ValueError
    (any other exception propagates).  A scalar return against array input is
    taken as a constant function.  A non-finite value (NaN or infinite)
    raises ValueError naming the first argument tuple that produced one: the
    schemes would otherwise read a NaN drift as zero drift, since it is
    neither >= 0 nor < 0 in the upwind choice.
    """
    arrs = np.broadcast_arrays(*[np.asarray(a, dtype=float) for a in args])
    shape = arrs[0].shape
    if shape == ():
        out = np.asarray(float(fn(*[float(a) for a in arrs])))
    else:
        try:
            out = np.asarray(fn(*arrs), dtype=float)
        except (TypeError, ValueError):
            out = None
        if out is not None and out.ndim == 0:
            out = np.full(shape, float(out))
        if out is None or out.shape != shape:
            flat = zip(*(a.ravel() for a in arrs))
            out = np.array([float(fn(*vals)) for vals in flat]).reshape(shape)
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        where = tuple(float(a.ravel()[bad[0]]) for a in arrs)
        raise ValueError(f"coefficient {getattr(fn, '__name__', fn)!s} returned "
                         f"{float(out.ravel()[bad[0]])} at arguments {where}")
    return out


@dataclass(frozen=True)
class ProblemSpec:
    """Immutable problem data; coefficient callables must be re-entrant.

    ``horizon`` (terminal time T) and ``discount`` (rate beta) are mutually
    exclusive.  In the infinite-horizon case the time argument of
    ``running_reward``, ``impulse_shift``, ``impulse_cost`` and
    ``impulse_bounds`` is vestigial and is always passed as 0.
    """

    drift: Callable[[float, float], float]            # drift(x, b)
    diffusion: Callable[[float, float], float]        # diffusion(x, b) >= 0
    running_reward: Callable[[float, float, float], float]   # f(t, x, b)
    terminal_reward: Callable[[float], float]         # g(x)
    impulse_shift: Callable[[float, float, float], float]    # displacement of x
    impulse_cost: Callable[[float, float, float], float]     # < 0
    impulse_bounds: Callable[[float, float], tuple[float, float]]
    control_bounds: tuple[float, float]
    horizon: float | None = None
    discount: float | None = None
    exact: Callable[[float, float], float] | None = None
    name: str = "custom"

    def __post_init__(self):
        if (self.horizon is None) == (self.discount is None):
            raise ValueError("exactly one of horizon (T) and discount (beta) must be set")
        if self.horizon is not None and not 0 < self.horizon < np.inf:
            raise ValueError(f"horizon must be finite and positive, got {self.horizon!r}")
        if self.discount is not None and not 0 < self.discount < np.inf:
            raise ValueError(f"discount must be finite and positive, got {self.discount!r}")
        lo, hi = self.control_bounds
        if hi < lo:
            raise ValueError(f"empty control interval {self.control_bounds!r}")

    @property
    def finite_horizon(self) -> bool:
        return self.horizon is not None


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_value: float
    witness: tuple

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return f"{self.name}: {status} (worst {self.worst_value:.6g} at {self.witness})"


@dataclass(frozen=True)
class ValidationReport:
    checks: list[CheckResult] = field(default_factory=list)
    lipschitz_estimate: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def _subsample(values: np.ndarray, count: int) -> np.ndarray:
    if values.size <= count:
        return values
    idx = np.unique(np.linspace(0, values.size - 1, count).round().astype(int))
    return values[idx]


def uniform_sample(lo: float, hi: float, resolution: float) -> np.ndarray:
    """Endpoints-included uniform sample with ceil(width / resolution) + 1 points.

    A nonempty width takes at least one step, so the sample holds both lo and
    hi even when width / resolution underflows to zero.
    """
    if hi <= lo:
        return np.array([float(lo)])
    count = max(int(np.ceil((hi - lo) / resolution)), 1) + 1
    return np.linspace(lo, hi, count)


def intervention_of_terminal(problem: ProblemSpec, x: float, resolution: float) -> float:
    """Brute-force sup_z { g(x + shift) + cost } at the terminal time."""
    t = problem.horizon if problem.finite_horizon else 0.0
    lo, hi = problem.impulse_bounds(t, x)
    if hi < lo:
        return -np.inf
    zs = uniform_sample(float(lo), float(hi), resolution)
    targets = x + eval_on(problem.impulse_shift, t, x, zs)
    gains = eval_on(problem.terminal_reward, targets) + eval_on(problem.impulse_cost, t, x, zs)
    return float(gains.max())


def validate(problem: ProblemSpec, grid: SpaceTimeGrid, samples: int = 64) -> ValidationReport:
    """Check the standing hypotheses on a deterministic sample of grid points.

    The report carries every check with its worst witness; callers decide
    what a failure means.  It raises ValueError for ``samples < 1``, for a
    non-finite impulse bound (naming its (t, x)) and, through
    :func:`eval_on`, when a coefficient returns a non-finite value.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    xs = _subsample(grid.nodes, samples)
    if problem.finite_horizon:
        ts = _subsample(grid.times(), samples)
        t_terminal = problem.horizon
    else:
        ts = np.array([0.0])
        t_terminal = 0.0
    z_resolution = max(grid.rho, 1e-12)
    b_lo, b_hi = problem.control_bounds
    bs = np.array([b_lo]) if b_hi == b_lo else np.linspace(b_lo, b_hi, min(samples, 9))

    # Impulse cost must be strictly negative everywhere.
    worst_cost = -np.inf
    cost_witness = ()
    # Impulse intervals must be nonempty.
    min_width = np.inf
    width_witness = ()
    for t in ts:
        for x in xs:
            lo, hi = problem.impulse_bounds(t, x)
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValueError(f"non-finite impulse bounds at (t={float(t)!r}, "
                                 f"x={float(x)!r}): [{float(lo)!r}, {float(hi)!r}]")
            width = hi - lo
            if width < min_width:
                min_width, width_witness = width, (float(t), float(x))
            if hi < lo:
                continue
            zs = uniform_sample(float(lo), float(hi), z_resolution)
            costs = eval_on(problem.impulse_cost, t, x, zs)
            k = int(costs.argmax())
            if costs[k] > worst_cost:
                worst_cost, cost_witness = float(costs[k]), (float(t), float(x), float(zs[k]))

    # Jumping at the terminal time must never gain.
    worst_gain = -np.inf
    gain_witness = ()
    for x in xs:
        gap = intervention_of_terminal(problem, x, z_resolution) - float(
            eval_on(problem.terminal_reward, x)
        )
        if gap > worst_gain:
            worst_gain, gain_witness = gap, (float(t_terminal), float(x))

    # One row per sampled control.
    mu = eval_on(problem.drift, xs, bs[:, np.newaxis])
    sg = eval_on(problem.diffusion, xs, bs[:, np.newaxis])

    # Sampled Lipschitz quotient of drift and diffusion in x, uniform over b.
    lipschitz = 0.0
    if xs.size >= 2:
        dx = np.diff(xs)
        lipschitz = max(float((np.abs(np.diff(mu)) / dx).max()),
                        float((np.abs(np.diff(sg)) / dx).max()))

    # Diffusion sign (part of the data contract, cheap to confirm); the
    # witness is the smallest control, then the leftmost node, at the minimum.
    kb, kx = np.unravel_index(int(sg.argmin()), sg.shape)
    worst_diffusion, diffusion_witness = float(sg[kb, kx]), (float(xs[kx]), float(bs[kb]))

    checks = [
        CheckResult("impulse_cost_negative", worst_cost < 0.0, worst_cost, cost_witness),
        CheckResult("terminal_intervention_no_gain", worst_gain <= 1e-12, worst_gain, gain_witness),
        CheckResult("impulse_set_nonempty", min_width >= 0.0, float(min_width), width_witness),
        CheckResult("diffusion_nonnegative", worst_diffusion >= 0.0, worst_diffusion, diffusion_witness),
    ]
    return ValidationReport(checks=checks, lipschitz_estimate=lipschitz)


def _known_params(params: dict, allowed: dict) -> dict:
    unknown = set(params) - set(allowed)
    if unknown:
        raise ValueError(f"unknown problem parameters: {sorted(unknown)}")
    merged = dict(allowed)
    merged.update(params)
    for name, value in merged.items():
        if value is not None and not np.isfinite(float(value)):
            raise ValueError(f"problem parameter {name} must be finite, got {value!r}")
    return merged


def _horizon_fields(p: dict) -> dict:
    if p.get("beta") is not None:
        return {"horizon": None, "discount": float(p["beta"])}
    return {"horizon": float(p["T"]), "discount": None}


def builtin(name: str, params: dict | None = None) -> ProblemSpec:
    """Named test problems.

    ``constant``   no dynamics, terminal reward c; the value is identically c.
    ``heat``       pure diffusion with terminal sin(x); closed-form value
                   exp(-s^2 (T-t) / 2) sin(x) on the untruncated line, and the
                   impulse branch is never active.
    ``cash``       bounded drift control, quadratic holding cost, impulses
                   that reset the state at a fixed plus proportional cost.

    Passing ``beta`` switches any of them to the stationary (discounted)
    problem; rewards of the builtins are time-independent, so this is valid.
    """
    params = dict(params or {})
    if name == "constant":
        p = _known_params(params, {"c": 5.0, "T": 1.0, "beta": None})
        c = float(p["c"])
        finite = p.get("beta") is None
        return ProblemSpec(
            drift=lambda x, b: 0.0,
            diffusion=lambda x, b: 1.0,
            running_reward=lambda t, x, b: 0.0,
            terminal_reward=lambda x: c + 0.0 * x,
            impulse_shift=lambda t, x, z: 0.0 * z,
            impulse_cost=lambda t, x, z: -1.0 + 0.0 * z,
            impulse_bounds=lambda t, x: (0.0, 1.0),
            control_bounds=(0.0, 0.0),
            exact=(lambda t, x: c + 0.0 * x) if finite else (lambda t, x: 0.0 * x),
            name="constant",
            **_horizon_fields(p),
        )
    if name == "heat":
        p = _known_params(params, {"s": 1.0, "T": 1.0, "beta": None})
        s = float(p["s"])
        finite = p.get("beta") is None
        T = float(p["T"]) if finite else None
        exact = (lambda t, x: np.exp(-0.5 * s * s * (T - t)) * np.sin(x)) if finite \
            else (lambda t, x: 0.0 * x)
        return ProblemSpec(
            drift=lambda x, b: 0.0,
            diffusion=lambda x, b: s + 0.0 * x,
            running_reward=lambda t, x, b: 0.0,
            terminal_reward=np.sin,
            impulse_shift=lambda t, x, z: z - x,
            impulse_cost=lambda t, x, z: -3.0 + 0.0 * z,
            impulse_bounds=lambda t, x: (-1.0, 1.0),
            control_bounds=(0.0, 0.0),
            exact=exact,
            name="heat",
            **_horizon_fields(p),
        )
    if name == "cash":
        p = _known_params(
            params,
            {"G": 2.0, "c0": 2.0, "lam": 0.5, "s": 1.0, "b_max": 0.5, "T": 3.0, "beta": None},
        )
        G, c0, lam = float(p["G"]), float(p["c0"]), float(p["lam"])
        s, b_max = float(p["s"]), float(p["b_max"])
        if c0 < G:
            raise ValueError(f"cash problem needs c0 >= G for a terminal no-gain margin, got c0={c0} < G={G}")
        return ProblemSpec(
            drift=lambda x, b: b + 0.0 * x,
            diffusion=lambda x, b: s + 0.0 * x,
            running_reward=lambda t, x, b: -np.minimum(x * x, G),
            terminal_reward=lambda x: -np.minimum(x * x, G),
            impulse_shift=lambda t, x, z: z - x,
            impulse_cost=lambda t, x, z: -c0 - lam * np.abs(z - x),
            impulse_bounds=lambda t, x: (-1.0, 1.0),
            control_bounds=(-b_max, b_max),
            name="cash",
            **_horizon_fields(p),
        )
    raise ValueError(f"unknown builtin problem {name!r}; known: constant, heat, cash")
