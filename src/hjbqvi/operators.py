"""Discrete spatial operators on grid functions.

A grid function is a plain float array of length 2M+1; entry ``i`` holds the
value at node ``x_{i-M}``.

The stencils follow the monotone implicit discretization:

* the generator drift u_x + 1/2 diffusion^2 u_xx as one banded stencil
  (:func:`generator_band`): the first difference upwinded on the sign of the
  local drift plus the three-point (divided-difference) second difference,
  zero at j = +-M (zero boundary stencils impose a Neumann condition at
  +-Q).  The penalty systems and control argmax, the semi-Lagrangian
  matrix and both schemes' monotonicity rows all read from this function,
* linear interpolation with convex weights, clamped to the boundary values
  outside [-Q, Q],
* intervention maximum over the discretized impulse set,
  (max_z { interp(u, x_j + shift) + cost }), ties to the smallest z.

Everything here is pure given immutable inputs; per-node work can run in
parallel with no shared mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .grid import SpaceTimeGrid
from .problem import ProblemSpec, eval_on, uniform_sample


def generator_band(nodes: np.ndarray, drift,
                   variance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Banded coefficients (lower, diag, upper) of L = drift D_upwind + 1/2 variance D2.

    ``drift`` and ``variance`` (the squared diffusion, diffusion^2) are
    per-node coefficients with any leading shape (one row per control, say);
    they broadcast against each other and the nodes.  Taking the variance
    rather than the diffusion lets a caller scale it (variance * dt) before
    the band divides by the cell widths.
    Row j of L reads lower_j u_{j-1} + diag_j u_j + upper_j u_{j+1}.  The
    first difference is forward for drift >= 0 and backward for drift < 0;
    the second difference is the divided-difference generalization of
    (u_{j-1} - 2 u_j + u_{j+1}) / dx^2.  Off-diagonals are nonnegative, each
    row sums to zero, and the boundary rows are zero.
    """
    drift, variance, _ = np.broadcast_arrays(np.asarray(drift, dtype=float),
                                             np.asarray(variance, dtype=float), nodes)
    lower = np.zeros(drift.shape)
    diag = np.zeros(drift.shape)
    upper = np.zeros(drift.shape)
    if nodes.size >= 3:
        h = np.diff(nodes)
        h_minus, h_plus = h[:-1], h[1:]
        mu = drift[..., 1:-1]
        s2 = variance[..., 1:-1]
        forward = np.where(mu >= 0.0, mu, 0.0) / h_plus
        backward = np.where(mu < 0.0, -mu, 0.0) / h_minus
        lower[..., 1:-1] = backward + s2 / (h_minus * (h_minus + h_plus))
        upper[..., 1:-1] = forward + s2 / (h_plus * (h_minus + h_plus))
        diag[..., 1:-1] = -(forward + backward + s2 / (h_minus * h_plus))
    return lower, diag, upper


def apply_band(band, u: np.ndarray) -> np.ndarray:
    """(L u)_j for a band from :func:`generator_band`, any leading shape.

    Rows sum to zero, so each row is evaluated as
    lower_j (u_{j-1} - u_j) + upper_j (u_{j+1} - u_j): exactly zero on
    constants, and controls whose stencils see equal differences tie exactly.
    """
    lower, _, upper = band
    out = np.zeros(lower.shape)
    centre = u[1:-1]
    out[..., 1:-1] = lower[..., 1:-1] * (u[:-2] - centre) + upper[..., 1:-1] * (u[2:] - centre)
    return out


def implicit_matrix(weight, band, rows=(), cols=(), data=()) -> sp.csr_matrix:
    """CSR form of weight * I - L for L given by its band.

    Boundary rows hold only their diagonal; interior rows always hold both
    off-diagonals, so the sparsity pattern does not depend on the
    coefficients.  Extra (rows, cols, data) entries are added in, duplicates
    summed.
    """
    lower, diag, upper = band
    n = diag.size
    interior = np.arange(1, n - 1)
    every = np.arange(n)
    matrix = sp.coo_matrix(
        (np.concatenate([-upper[1:-1], -lower[1:-1], np.asarray(data, dtype=float),
                         weight - diag]),
         (np.concatenate([interior, interior, np.asarray(rows, dtype=int), every]),
          np.concatenate([interior + 1, interior - 1, np.asarray(cols, dtype=int), every]))),
        shape=(n, n),
    )
    return matrix.tocsr()


def interp_weights(nodes: np.ndarray, x: float) -> tuple[int, float]:
    """Index k and weight a with interp = (1-a) u_k + a u_{k+1}, a in [0, 1).

    Outside the grid the value clamps: the returned weight is 0 and k is the
    nearest boundary offset, so the single coupling carries full weight.
    """
    if x <= nodes[0]:
        return 0, 0.0
    if x >= nodes[-1]:
        return nodes.size - 1, 0.0
    k = int(np.searchsorted(nodes, x, side="right")) - 1
    alpha = (x - nodes[k]) / (nodes[k + 1] - nodes[k])
    return k, float(alpha)


def interp_weights_many(nodes: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`interp_weights` with identical clamp semantics."""
    xs = np.asarray(xs, dtype=float)
    k = np.searchsorted(nodes, xs, side="right") - 1
    k = np.clip(k, 0, nodes.size - 2)
    alpha = (xs - nodes[k]) / (nodes[k + 1] - nodes[k])
    left = xs <= nodes[0]
    right = xs >= nodes[-1]
    k[left] = 0
    alpha[left] = 0.0
    k[right] = nodes.size - 1
    alpha[right] = 0.0
    return k, alpha


def interp(u: np.ndarray, grid: SpaceTimeGrid, x: float) -> float:
    """Monotone linear interpolation of a grid function, clamped outside [-Q, Q]."""
    k, alpha = interp_weights(grid.nodes, x)
    if alpha == 0.0:
        return float(u[k])
    return float((1.0 - alpha) * u[k] + alpha * u[k + 1])


@dataclass
class DiscreteControls:
    """Finite control and impulse sets at refinement rho.

    ``controls`` samples the control interval; ``impulse_values(t, x)``
    samples the impulse interval at that point (memoized, since the solvers
    revisit the same (t, x) many times per timestep).  Both include their
    interval endpoints, and their spacing is at most rho, so the Hausdorff
    distance to the continuous sets is at most rho / 2.
    """

    problem: ProblemSpec
    rho: float
    controls: np.ndarray
    _impulse_cache: dict = field(default_factory=dict, repr=False)

    def impulse_values(self, t: float, x: float) -> np.ndarray:
        key = (float(t), float(x))
        cached = self._impulse_cache.get(key)
        if cached is None:
            lo, hi = self.problem.impulse_bounds(t, x)
            if hi < lo:
                raise ValueError(f"empty impulse set at (t={t!r}, x={x!r}): [{lo!r}, {hi!r}]")
            cached = uniform_sample(float(lo), float(hi), self.rho)
            self._impulse_cache[key] = cached
        return cached


def discretize_controls(problem: ProblemSpec, rho: float) -> DiscreteControls:
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho!r}")
    lo, hi = problem.control_bounds
    return DiscreteControls(problem=problem, rho=float(rho),
                            controls=uniform_sample(float(lo), float(hi), rho))


class InterventionResult(NamedTuple):
    values: np.ndarray    # best jump value per node
    impulses: np.ndarray  # achieving z per node (smallest on ties)


class InterventionTable:
    """Precomputed jump targets and costs for one time level.

    The impulse candidates, their interpolation weights and their costs
    depend only on (t, x_j); building them once lets repeated applications
    to changing iterates run as pure array arithmetic.  When every node has
    the same number of impulse candidates (the usual case), construction and
    application are fully vectorized over nodes; ragged impulse sets fall
    back to a per-node loop.
    """

    def __init__(self, problem: ProblemSpec, grid: SpaceTimeGrid,
                 controls: DiscreteControls, t: float):
        self.grid = grid
        self.t = float(t)
        nodes = grid.nodes
        zs_all = [controls.impulse_values(t, float(x)) for x in nodes]
        sizes = {zs.size for zs in zs_all}
        if len(sizes) == 1:
            per_node = sizes.pop()
            impulse_grid = np.vstack(zs_all)                      # (n, K)
            x_col = nodes[:, np.newaxis]
            targets = x_col + eval_on(problem.impulse_shift, t, x_col, impulse_grid)
            costs = eval_on(problem.impulse_cost, t, x_col, impulse_grid)
            self._stride = per_node
            self._impulse_grid = impulse_grid
            self.offsets = np.arange(nodes.size + 1) * per_node
            self.costs = costs.ravel()
            self.k, self.alpha = interp_weights_many(nodes, targets.ravel())
        else:
            offsets = [0]
            cost_all, k_all, a_all = [], [], []
            for x, zs in zip(nodes, zs_all):
                targets = x + eval_on(problem.impulse_shift, t, x, zs)
                costs = eval_on(problem.impulse_cost, t, x, zs)
                k, alpha = interp_weights_many(nodes, np.atleast_1d(targets))
                k_all.append(k)
                a_all.append(alpha)
                cost_all.append(np.atleast_1d(costs))
                offsets.append(offsets[-1] + zs.size)
            self._stride = None
            self._impulse_grid = None
            self.offsets = np.array(offsets)
            self.costs = np.concatenate(cost_all)
            self.k = np.concatenate(k_all)
            self.alpha = np.concatenate(a_all)
        self.impulses = zs_all
        self.k_next = np.minimum(self.k + 1, nodes.size - 1)

    def candidate_values(self, u: np.ndarray) -> np.ndarray:
        return (1.0 - self.alpha) * u[self.k] + self.alpha * u[self.k_next] + self.costs

    def apply(self, u: np.ndarray) -> InterventionResult:
        cand = self.candidate_values(u)
        n = self.grid.n_nodes
        if self._stride is not None:
            block = cand.reshape(n, self._stride)
            best = block.argmax(axis=1)
            rows = np.arange(n)
            return InterventionResult(values=block[rows, best],
                                      impulses=self._impulse_grid[rows, best])
        values = np.empty(n)
        impulses = np.empty(n)
        for i in range(n):
            seg = cand[self.offsets[i]:self.offsets[i + 1]]
            k = int(seg.argmax())
            values[i] = seg[k]
            impulses[i] = self.impulses[i][k]
        return InterventionResult(values=values, impulses=impulses)


def apply_intervention(u: np.ndarray, grid: SpaceTimeGrid, t: float,
                       problem: ProblemSpec, controls: DiscreteControls) -> InterventionResult:
    """Best-impulse value max_z { interp(u, x_j + shift) + cost } at every node."""
    return InterventionTable(problem, grid, controls, t).apply(u)
