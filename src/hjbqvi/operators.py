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
  outside [-Q, Q] (:func:`interp_weights`, over arrays of points),
* two intervention operators M with one interface: ``apply(u)`` gives
  (Mu)_j and the impulse attaining it, ``jump_rows(rows, impulses)`` gives
  ``(couplings, cost)``, active row j reading (Mu)_j = sum of w u_col over
  its (col, w) couplings + cost.  :class:`InterventionTable` is the impulse
  maximum max_z { interp(u, x_j + shift) + cost }, ties to the smallest z,
  over one time level's candidates as a nodes x K block (a node with fewer
  than K candidates repeats its last one).  :class:`FrozenObstacle` is a
  fixed vector with no couplings: an optimal-stopping obstacle.

The functions here are pure.  The one mutable piece is
``DiscreteControls._impulse_cache``, which memoizes ``impulse_values`` and
grows by one entry per distinct (t, node set) it is asked for: per time
level on the penalty and iterated optimal stopping paths, and on the
semi-Lagrangian path per table build, which is once per solve when the
impulse data do not depend on t.  Each entry is one nodes x K candidate
block, shared by every table built at that level and read-only.  Share a
``DiscreteControls`` between threads only with that in mind.
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


def interp_weights(nodes: np.ndarray, xs) -> tuple[np.ndarray, np.ndarray]:
    """Indices k and weights a per point with interp = (1-a) u_k + a u_{k+1}, a in [0, 1).

    Outside the grid the value clamps: the weight is 0 and k is the nearest
    boundary index, so the single coupling carries full weight.
    """
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


def impulse_bounds_on(problem: ProblemSpec, t: float,
                      nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The impulse bounds (lo, hi) at time t over the nodes, as two arrays.

    ValueError names the first node whose bounds are not finite, or whose
    interval is empty (hi < lo).
    """
    bounds = np.array([problem.impulse_bounds(t, x) for x in nodes.tolist()],
                      dtype=float).reshape(-1, 2)
    lo, hi = bounds[:, 0], bounds[:, 1]
    if not (np.isfinite(bounds).all() and (lo <= hi).all()):
        finite = np.isfinite(bounds).all(axis=1)
        i = np.flatnonzero(~(finite & (lo <= hi)))[0]
        kind = "empty impulse set" if finite[i] else "non-finite impulse bounds"
        raise ValueError(f"{kind} at (t={float(t)!r}, x={float(nodes[i])!r}): "
                         f"[{float(lo[i])!r}, {float(hi[i])!r}]")
    return lo, hi


@dataclass
class DiscreteControls:
    """Finite control and impulse sets at refinement rho.

    ``controls`` samples the control interval.  ``impulse_values(t, nodes)``
    samples the impulse interval at every node of one time level as a
    nodes x K block, K the largest candidate count at any node; row i is
    ``uniform_sample(lo_i, hi_i, rho)`` followed by copies of its last z.
    The block is memoized per (t, node set), since both table builds of a
    penalty step and the brute-force audit read the same level, and is
    read-only because they share it.  Both samples include their interval
    endpoints, and their spacing is at most rho, so the Hausdorff distance
    to the continuous sets is at most rho / 2.
    """

    problem: ProblemSpec
    rho: float
    controls: np.ndarray
    _impulse_cache: dict = field(default_factory=dict, repr=False)

    def impulse_values(self, t: float, nodes: np.ndarray) -> np.ndarray:
        """The nodes x K impulse candidate block at time t.

        Each row is computed as ``np.linspace(lo, hi, count)`` computes it,
        bit for bit: step = (hi - lo) / (count - 1), candidate k is
        k * step + lo, and every column from count - 1 on holds hi (a single
        candidate holds lo).  linspace's branch for a step that underflows
        to zero cannot trigger here: count = ceil((hi - lo) / rho) + 1 keeps
        the step at no less than min(hi - lo, rho / 2), up to rounding.
        """
        nodes = np.asarray(nodes, dtype=float)
        key = (float(t), nodes.tobytes())
        block = self._impulse_cache.get(key)
        if block is None:
            lo, hi = impulse_bounds_on(self.problem, t, nodes)
            width = hi - lo
            last = np.ceil(width / self.rho)[:, np.newaxis]   # count - 1 per node
            step = width[:, np.newaxis] / np.maximum(last, 1.0)
            columns = np.arange(int(last.max()) + 1, dtype=float)
            block = np.where(columns >= last,
                             np.where(last > 0, hi[:, np.newaxis], lo[:, np.newaxis]),
                             columns * step + lo[:, np.newaxis])
            block.flags.writeable = False
            self._impulse_cache[key] = block
        return block


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
    to changing iterates run as pure array arithmetic.  The candidates form
    one nodes x K block (``_impulse_grid``), K the largest impulse count at
    any node.  A node with fewer candidates repeats its last z: the copy has
    the same value as the candidate it repeats, and argmax keeps the first
    of equal values, so padding never changes a result.  ``costs``, ``k``
    and ``alpha`` are the block flattened row by row; node i owns entries
    ``offsets[i]:offsets[i + 1]``.
    """

    def __init__(self, problem: ProblemSpec, grid: SpaceTimeGrid,
                 controls: DiscreteControls, t: float):
        self.t = float(t)
        self._problem = problem
        self._nodes = nodes = grid.nodes
        impulse_grid = controls.impulse_values(t, nodes)   # (n, K), shared
        per_node = impulse_grid.shape[1]
        x_col = nodes[:, np.newaxis]
        targets = x_col + eval_on(problem.impulse_shift, t, x_col, impulse_grid)
        self._impulse_grid = impulse_grid
        self.offsets = np.arange(nodes.size + 1) * per_node
        self.costs = eval_on(problem.impulse_cost, t, x_col, impulse_grid).ravel()
        self.k, self.alpha = interp_weights(nodes, targets.ravel())
        self.k_next = np.minimum(self.k + 1, nodes.size - 1)

    def same_data_at(self, t: float) -> bool:
        """Whether the table at time t would be this one.

        True when the impulse bounds at every node, and the shifts and costs
        of these candidates, equal at t those this table was built from.
        Each node's candidates run from its lower to its upper bound, so the
        first and last columns of the block are the bounds at ``self.t``.
        The shifts are evaluated at both times rather than kept, so a table
        holds no more memory than it needs for :meth:`apply`.  Costs the
        bounds read a build's ``impulse_values`` sample also makes (one scalar
        ``impulse_bounds`` call per node) and three array calls; a build adds
        the candidate block, its shifts and costs and the interpolation weights.
        """
        problem, nodes, zs = self._problem, self._nodes, self._impulse_grid
        lo, hi = impulse_bounds_on(problem, t, nodes)
        if not (np.array_equal(lo, zs[:, 0]) and np.array_equal(hi, zs[:, -1])):
            return False
        x_col = nodes[:, np.newaxis]
        return (np.array_equal(eval_on(problem.impulse_cost, t, x_col, zs).ravel(), self.costs)
                and np.array_equal(eval_on(problem.impulse_shift, t, x_col, zs),
                                   eval_on(problem.impulse_shift, self.t, x_col, zs)))

    def jump_rows(self, rows, impulses) -> tuple[tuple, np.ndarray]:
        """Couplings and cost of the candidate ``impulses[r]`` at node ``rows[r]``.

        The couplings are the interpolation pairs (k, 1 - alpha) and
        (k + 1, alpha); a zero weight marks no coupling.  ValueError names
        the first node whose impulse is not a candidate there.
        """
        rows = np.asarray(rows, dtype=int)
        impulses = np.asarray(impulses, dtype=float)
        match = self._impulse_grid[rows] == impulses[:, np.newaxis]
        found = match.any(axis=1)
        if not found.all():
            bad = int(np.argmin(found))
            raise ValueError(f"impulse {float(impulses[bad])!r} at node index {int(rows[bad])} "
                             f"(t={self.t!r}) is not one of that node's candidates")
        flat = self.offsets[rows] + match.argmax(axis=1)
        k, alpha = self.k[flat], self.alpha[flat]
        return ((k, 1.0 - alpha), (k + 1, alpha)), self.costs[flat]

    def apply(self, u: np.ndarray) -> InterventionResult:
        """Best-impulse value max_z { interp(u, x_j + shift) + cost } at every node."""
        values = (1.0 - self.alpha) * u[self.k] + self.alpha * u[self.k_next] + self.costs
        block = values.reshape(self._impulse_grid.shape)
        best = block.argmax(axis=1)
        rows = np.arange(block.shape[0])
        return InterventionResult(values=block[rows, best],
                                  impulses=self._impulse_grid[rows, best])


class FrozenObstacle:
    """A fixed obstacle, (Mu)_j = values_j: no couplings, NaN impulses."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def apply(self, u: np.ndarray) -> InterventionResult:
        return InterventionResult(values=self.values,
                                  impulses=np.full(self.values.shape, np.nan))

    def jump_rows(self, rows, impulses) -> tuple[tuple, np.ndarray]:
        return (), self.values[rows]
