"""Continuous problem data for combined stochastic and impulse control.

A problem is the data of the dynamic-programming quasi-variational
inequality

    min( -sup_b { u_t + drift(x,b) u_x + 1/2 diffusion(x,b)^2 u_xx
                  + running_reward(t,x,b) },
         u - sup_z { u(t, x + impulse_shift(t,x,z)) + impulse_cost(t,x,z) } ) = 0

on [0, T) x R with terminal value terminal_reward, or its stationary
analogue with a discount rate in place of the time derivative.

Standing hypotheses, checked by :func:`validate` on up to
``VALIDATE_SAMPLES`` nodes and times of a grid:

* rewards bounded and jumping at the terminal time never gains
  (sup_z { g(x + shift) + cost } <= g(x)),
* the impulse set is a nonempty interval at every (t, x),
* the impulse cost is strictly negative everywhere,
* the diffusion is nonnegative (the semi-Lagrangian solve checks, exactly,
  that it ignores the control: :func:`semilag.diffusion_variance`).

Coefficients are plain callables (scalar in, scalar out); array-aware
callables are exploited when they broadcast, via :func:`eval_on` (and
:func:`impulse_bounds_on` for the impulse bounds).  Every finite sample of
an interval -- the control set, each node's impulse candidates, and the
candidates :func:`validate` checks -- is :func:`uniform_sample`'s.

A problem declares structure the solvers exploit through its callables,
and ``ProblemSpec`` reads each declaration back off them, so it cannot
disagree with the values the solvers would otherwise evaluate:

* a **reset**: impulses reset the state to z at cost -c0 - lam |z - x|.
  ``impulse_shift`` is :func:`reset_shift` and ``impulse_cost`` a
  :class:`ResetCost` (:func:`reset_impulse` gives both); read back as
  ``ProblemSpec.reset_cost``.  Jump tables then take the impulse maximum
  in O(n + K) rather than over a nodes x K block.
* a **reward that ignores the control**: ``running_reward`` is a
  :class:`SeparableReward`, state(t, x) alone; read back as
  ``ProblemSpec.separable_reward``.  When the drift is also b itself and
  the diffusion ignores b, which the penalty solve checks on the values,
  the penalty control maximum reads only the first and last control of
  each sign half: 4 of the B controls for cash at every grid size.  When
  the semi-Lagrangian feet x + drift(x, b) dt are nondecreasing in b, which
  that solve checks on the values, its control maximum reads only the ends
  of each run of feet in one interpolation cell: 4 of the B controls per
  node for cash (:func:`semilag._candidate_rows`).

Undeclared problems keep the general paths: every impulse candidate and
all B sampled controls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grid import SpaceTimeGrid


def eval_on(fn: Callable, *args) -> np.ndarray:
    """Evaluate a scalar coefficient callable on broadcast array arguments.

    Tries a direct call on the arguments as given first, unbroadcast, so a
    callable that ignores an argument is evaluated on the others' shape
    alone: cash's reward, which ignores b, costs n values, not controls x n.
    A result whose shape broadcasts to the arguments' broadcast shape (a
    scalar included, taken as a constant function) is returned as a
    read-only ``np.broadcast_to`` view of that shape.  The call falls back
    to a scalar loop when the callable is not array-aware, which shows as a
    TypeError or ValueError (any other exception propagates), or when its
    result has any other shape.  A non-finite value (NaN or infinite)
    raises ValueError naming the first broadcast argument tuple that
    produced one: the schemes would otherwise read a NaN drift as zero
    drift, since it is neither >= 0 nor < 0 in the upwind choice.
    """
    arrs = [np.asarray(a, dtype=float) for a in args]
    shape = np.broadcast_shapes(*(a.shape for a in arrs))
    if shape == ():
        raw = np.asarray(float(fn(*[float(a) for a in arrs])))
    else:
        try:
            raw = np.asarray(fn(*arrs), dtype=float)
            np.broadcast_to(raw, shape)     # ValueError: another shape
        except (TypeError, ValueError):
            flat = zip(*(np.broadcast_to(a, shape).ravel() for a in arrs))
            raw = np.array([float(fn(*vals)) for vals in flat]).reshape(shape)
    out = np.broadcast_to(raw, shape)
    if not np.isfinite(raw).all():
        bad = np.unravel_index(np.flatnonzero(~np.isfinite(out))[0], shape)
        where = tuple(float(np.broadcast_to(a, shape)[bad]) for a in arrs)
        raise ValueError(f"coefficient {getattr(fn, '__name__', fn)!s} returned "
                         f"{float(out[bad])} at arguments {where}")
    return out


@dataclass(frozen=True)
class ProblemSpec:
    """Immutable problem data; coefficient callables must be re-entrant.

    ``horizon`` (terminal time T) and ``discount`` (rate beta) are mutually
    exclusive.  In the infinite-horizon case the time argument of
    ``running_reward``, ``impulse_shift``, ``impulse_cost`` and
    ``impulse_bounds`` is vestigial and is always passed as 0.

    ``reset_cost`` is the impulse cost when the impulses are declared
    resets (see :class:`ResetCost`): jump tables then take the impulse
    maximum from its (c0, lam), not by evaluating the callables
    (:class:`operators.InterventionTable`).  The declaration is the pair of
    callables itself, so replacing either one drops it.
    ``separable_reward`` is the running reward when it is declared to
    ignore the control (see :class:`SeparableReward`): the penalty and the
    semi-Lagrangian control maxima may then read a few rows of the control
    sample only (:func:`penalty._control_band`, :func:`semilag.foot_points`),
    each after checking on the drift's values that the rows suffice.
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

    @property
    def reset_cost(self) -> ResetCost | None:
        """``impulse_cost`` when ``impulse_shift`` is :func:`reset_shift` and
        ``impulse_cost`` a :class:`ResetCost`, else None."""
        cost = self.impulse_cost
        if self.impulse_shift is reset_shift and isinstance(cost, ResetCost):
            return cost
        return None

    @property
    def separable_reward(self) -> SeparableReward | None:
        """``running_reward`` when it is a :class:`SeparableReward`, else None."""
        reward = self.running_reward
        return reward if isinstance(reward, SeparableReward) else None


@dataclass(frozen=True)
class SeparableReward:
    """The running reward state(t, x), declared to ignore the control b.

    Its values are those of ``state``, so the declaration cannot be false.
    The drift and diffusion take no t, so a solve checks once, on their
    values, what else its reduction needs (:func:`penalty._control_band`,
    :func:`semilag.foot_points`); the reward takes t, so it is declared by
    its callable instead.
    """

    state: Callable[[float, float], float]

    def __call__(self, t, x, b):
        return self.state(t, x)


def reset_shift(t, x, z):
    """The shift z - x of a reset to z: the declared reset's impulse_shift."""
    return z - x


@dataclass(frozen=True)
class ResetCost:
    """The cost -c0 - lam |z - x| of a reset to z, with finite c0 > 0 and
    lam >= 0 (checked here).

    Paired with :func:`reset_shift`, it declares that every impulse is such
    a reset at every t, which a problem's jump tables read as (c0, lam).
    Being the callable the solves would otherwise evaluate, the declaration
    cannot disagree with it.
    """

    c0: float
    lam: float

    def __post_init__(self):
        if not (0 < self.c0 < np.inf and 0 <= self.lam < np.inf):
            raise ValueError("a reset cost needs finite c0 > 0 and lam >= 0, "
                             f"got c0={self.c0!r}, lam={self.lam!r}")

    def __call__(self, t, x, z):
        return -self.c0 - self.lam * abs(z - x)


def reset_impulse(c0: float, lam: float) -> dict:
    """``impulse_shift`` and ``impulse_cost`` of a reset to z at cost
    -c0 - lam |z - x|, as ``ProblemSpec`` keywords."""
    return {"impulse_shift": reset_shift, "impulse_cost": ResetCost(c0, lam)}


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


#: :func:`validate` samples at most this many nodes and this many times.
VALIDATE_SAMPLES = 64


def _subsample(values: np.ndarray, count: int) -> np.ndarray:
    if values.size <= count:
        return values
    idx = np.unique(np.linspace(0, values.size - 1, count).round().astype(int))
    return values[idx]


def uniform_sample(lo, hi, resolution: float) -> np.ndarray:
    """Endpoints-included uniform sample of [lo, hi] at spacing at most ``resolution``.

    ``lo`` and ``hi`` are scalars or arrays of one shape; the sample adds a
    last axis of K points, K the largest count, a shorter row repeating its
    last point.  A nonempty interval has ceil(width / resolution) + 1 points,
    at least 2 (both ends, even where width / resolution underflows to 0);
    hi <= lo gives the one point lo.  The points are ``np.linspace(lo, hi,
    count)``'s bit for bit: k * step + lo, the last hi.  linspace's zero-step
    branch cannot trigger: the step is at least min(width, resolution / 2).
    """
    lo = np.asarray(lo, dtype=float)[..., np.newaxis]
    hi = np.asarray(hi, dtype=float)[..., np.newaxis]
    width = hi - lo
    last = np.maximum(np.ceil(width / resolution), width > 0.0)   # count - 1
    step = width / np.maximum(last, 1.0)
    columns = np.arange(int(last.max(initial=0.0)) + 1, dtype=float)
    return np.where(columns >= last, np.where(last > 0, hi, lo), columns * step + lo)


def impulse_bounds_on(problem: ProblemSpec, t: float,
                      nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The impulse bounds (lo, hi) at time t over the nodes, as two arrays.

    Array first, as :func:`eval_on` does: one call ``impulse_bounds(t, nodes)``
    whose lo and hi are each a per-node array or a scalar (constant over the
    nodes).  A TypeError or ValueError from that call, or any other shape,
    falls back to one scalar call per node.  ValueError names the first node
    whose bounds are not finite; an empty interval (hi < lo) is the caller's
    to judge.
    """
    try:
        lo, hi = problem.impulse_bounds(t, nodes)
        pair = [np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)]
    except (TypeError, ValueError):
        pair = []
    if pair and all(bound.shape in ((), nodes.shape) for bound in pair):
        lo_hi = np.empty((2, nodes.size))
        lo_hi[0], lo_hi[1] = pair
    else:
        lo_hi = np.array([problem.impulse_bounds(t, x) for x in nodes.tolist()],
                         dtype=float).reshape(-1, 2).T
    lo, hi = lo_hi
    if not np.isfinite(lo_hi).all():
        i = np.flatnonzero(~np.isfinite(lo_hi).all(axis=0))[0]
        raise ValueError(f"non-finite impulse bounds at (t={float(t)!r}, x={float(nodes[i])!r}): "
                         f"[{float(lo[i])!r}, {float(hi[i])!r}]")
    return lo, hi


def validate(problem: ProblemSpec, grid: SpaceTimeGrid) -> ValidationReport:
    """Check the standing hypotheses at up to ``VALIDATE_SAMPLES`` evenly
    spread nodes and times of the grid, ends included.

    Each sampled time, and the terminal time, reads the impulse bounds once
    over the nodes and samples the candidates as one block
    (:func:`uniform_sample` at the grid's rho).  The report carries every
    check with its worst witness, the first in (t, x, z) order; callers
    decide what a failure means.  ValueError names a non-finite impulse
    bound's (t, x), or (through :func:`eval_on`) a non-finite coefficient.
    """
    xs = _subsample(grid.nodes, VALIDATE_SAMPLES)
    ts = _subsample(grid.times(), VALIDATE_SAMPLES)
    t_terminal = problem.horizon if problem.finite_horizon else 0.0
    z_resolution = max(grid.rho, 1e-12)
    b_lo, b_hi = problem.control_bounds
    bs = np.array([b_lo]) if b_hi == b_lo else np.linspace(b_lo, b_hi, 9)

    def candidates(t):
        """(hi - lo, the nodes with a nonempty impulse set, their candidate rows) at t."""
        lo, hi = impulse_bounds_on(problem, t, xs)
        keep = hi >= lo
        return hi - lo, keep, uniform_sample(lo[keep], hi[keep], z_resolution)

    # Impulse cost must be strictly negative everywhere, and impulse
    # intervals nonempty.
    worst_cost, cost_witness = -np.inf, ()
    min_width, width_witness = np.inf, ()
    for t in ts:
        width, keep, zs = candidates(t)
        i = int(width.argmin())
        if width[i] < min_width:
            min_width, width_witness = width[i], (float(t), float(xs[i]))
        if keep.any():
            x_col = xs[keep, np.newaxis]
            costs = eval_on(problem.impulse_cost, t, x_col, zs)
            r, k = np.unravel_index(int(costs.argmax()), costs.shape)
            if costs[r, k] > worst_cost:
                worst_cost = float(costs[r, k])
                cost_witness = (float(t), float(x_col[r, 0]), float(zs[r, k]))

    # Jumping at the terminal time must never gain.
    worst_gain, gain_witness = -np.inf, ()
    _, keep, zs = candidates(t_terminal)
    g_x = eval_on(problem.terminal_reward, xs)
    if keep.any():
        x_col = xs[keep, np.newaxis]
        targets = x_col + eval_on(problem.impulse_shift, t_terminal, x_col, zs)
        gaps = (eval_on(problem.terminal_reward, targets)
                + eval_on(problem.impulse_cost, t_terminal, x_col, zs)).max(axis=1) - g_x[keep]
        i = int(gaps.argmax())
        worst_gain, gain_witness = float(gaps[i]), (float(t_terminal), float(x_col[i, 0]))

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
    merged = {**allowed, **params}
    for name, value in merged.items():
        if value is None:
            continue
        try:
            number = None if isinstance(value, bool) else float(value)
        except (TypeError, ValueError, OverflowError):
            number = None
        if number is None or not np.isfinite(number):
            kind = "a number" if number is None else "finite"
            raise ValueError(f"problem parameter {name} must be {kind}, got {value!r}")
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
                   impulse branch (a reset at cost -3) is never active.
    ``cash``       bounded drift control, quadratic holding cost, impulses
                   that reset the state at a fixed plus proportional cost.

    ``heat`` and ``cash`` take their impulse callables from
    :func:`reset_impulse`, so they declare their resets.  ``cash``'s
    reward is a :class:`SeparableReward`: it ignores b.

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
            impulse_bounds=lambda t, x: (-1.0, 1.0),
            control_bounds=(0.0, 0.0),
            exact=exact,
            name="heat",
            **reset_impulse(3.0, 0.0),
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

        def holding(t, x):
            # -min(x^2, G), the running and the terminal reward.  On a float
            # the builtin min gives np.minimum's value at a fraction of its
            # cost, which the audit's scalar loops pay per (t, x, b).
            if isinstance(x, float):
                return -min(x * x, G)
            return -np.minimum(x * x, G)

        return ProblemSpec(
            drift=lambda x, b: b + 0.0 * x,
            diffusion=lambda x, b: s + 0.0 * x,
            running_reward=SeparableReward(holding),
            terminal_reward=lambda x: holding(0.0, x),
            impulse_bounds=lambda t, x: (-1.0, 1.0),
            control_bounds=(-b_max, b_max),
            name="cash",
            **reset_impulse(c0, lam),
            **_horizon_fields(p),
        )
    raise ValueError(f"unknown builtin problem {name!r}; known: constant, heat, cash")
