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
  outside [-Q, Q] (:func:`interp_weights`, over arrays of points): each
  point is clipped into [-Q, Q] first, so it reads a cell k in [0, n - 2]
  and couples to nodes k and k + 1 only,
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
impulse data do not depend on t.  Each entry refers to a read-only nodes x K
candidate block, shared by every table built at that level and by every
later level whose impulse bounds equal it bit for bit, so bounds that ignore
t keep one block per node set in memory, not one per level.  Share a
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
    """Indices k and weights a per point with interp = (1-a) u_k + a u_{k+1}, a in [0, 1].

    Clamp first: the points (an array of any shape) are clipped into
    [x_0, x_{n-1}], so every point, NaN and +-inf included, gets a cell
    k in [0, n - 2]; one at or beyond x_{n-1} reads (n - 2, 1).  The cell is
    the floor of ``np.interp`` over the node indices, capped at n - 2 (where
    a NaN lands, with a NaN weight) and moved down one where rounding put it
    past the point.  The weights are formed in the clipped copy, and the
    gathers share one work array: fewer temporaries per table build.
    """
    alpha = np.clip(xs, nodes[0], nodes[-1])
    work = np.interp(alpha, nodes, np.arange(nodes.size, dtype=float))
    k = np.fmin(work, nodes.size - 2, out=work).astype(np.intp)
    # k is in range, and mode="clip" lets take write to work unbuffered.
    k -= alpha < nodes.take(k, out=work, mode="clip")
    alpha -= nodes.take(k, out=work, mode="clip")
    alpha /= np.diff(nodes).take(k, out=work, mode="clip")
    return k, alpha


def impulse_bounds_on(problem: ProblemSpec, t: float,
                      nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The impulse bounds (lo, hi) at time t over the nodes, as two arrays.

    Array first, as :func:`problem.eval_on` does: one call
    ``impulse_bounds(t, nodes)`` whose lo and hi are each a per-node array or
    a scalar (constant over the nodes).  A TypeError or ValueError from that
    call, or any other shape, falls back to one scalar call per node.
    ValueError names the first node whose bounds are not finite, or whose
    interval is empty (hi < lo).
    """
    lo_hi = _bounds_array(problem, t, nodes)
    if lo_hi is None:
        lo_hi = np.array([problem.impulse_bounds(t, x) for x in nodes.tolist()],
                         dtype=float).reshape(-1, 2).T
    lo, hi = lo_hi
    if not (np.isfinite(lo_hi).all() and (lo <= hi).all()):
        finite = np.isfinite(lo_hi).all(axis=0)
        i = np.flatnonzero(~(finite & (lo <= hi)))[0]
        kind = "empty impulse set" if finite[i] else "non-finite impulse bounds"
        raise ValueError(f"{kind} at (t={float(t)!r}, x={float(nodes[i])!r}): "
                         f"[{float(lo[i])!r}, {float(hi[i])!r}]")
    return lo, hi


def _bounds_array(problem: ProblemSpec, t: float, nodes: np.ndarray) -> np.ndarray | None:
    """(lo, hi) from one array call as a 2 x nodes array, or None when the
    callable is not array-aware (see :func:`impulse_bounds_on`)."""
    try:
        lo, hi = problem.impulse_bounds(t, nodes)
        pair = [np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)]
    except (TypeError, ValueError):
        return None
    out = np.empty((2, nodes.size))
    for row, bound in zip(out, pair):
        if bound.shape not in ((), nodes.shape):
            return None
        row[:] = bound
    return out


@dataclass
class DiscreteControls:
    """Finite control and impulse sets at refinement rho.

    ``controls`` samples the control interval.  ``impulse_values(t, nodes)``
    samples the impulse interval at every node of one time level as a
    nodes x K block, K the largest candidate count at any node; row i is
    ``uniform_sample(lo_i, hi_i, rho)`` followed by copies of its last z.
    The block is memoized per (t, node set), since both table builds of a
    penalty step and the brute-force audit read the same level, and is
    read-only because they share it.  A level whose bounds equal, bit for
    bit, the first and last columns of the newest block for the same node
    count gets that block rather than a new sample: the sample is a
    function of (lo, hi, rho) alone, so bounds that ignore t cost one
    block per solve.  Both samples include their interval endpoints, and
    their spacing is at most rho, so the Hausdorff distance to the
    continuous sets is at most rho / 2.
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
        to zero cannot trigger here: count = max(ceil((hi - lo) / rho), 1) + 1
        on a nonempty interval keeps the step at no less than
        min(hi - lo, rho / 2), up to rounding.

        Sharing a block keeps every bit: its first column is lo, or +0.0
        where lo is -0.0 on a nonzero width (k * step + lo reads +0.0 there,
        and samples the same row from either zero), and its last column is
        hi, or lo on a zero width (the row is then lo throughout).  So bounds
        equal to those columns sample the same rows, and the same K.
        """
        nodes = np.asarray(nodes, dtype=float)
        key = (float(t), nodes.tobytes())
        block = self._impulse_cache.get(key)
        if block is None:
            lo, hi = impulse_bounds_on(self.problem, t, nodes)
            newest = next((b for b in reversed(self._impulse_cache.values())
                           if b.shape[0] == nodes.size), None)
            if (newest is not None and lo.tobytes() == newest[:, 0].tobytes()
                    and hi.tobytes() == newest[:, -1].tobytes()):
                self._impulse_cache[key] = newest
                return newest
            width = hi - lo
            # count - 1 per node, at least 1 on a nonempty width, as in uniform_sample
            last = np.maximum(np.ceil(width / self.rho), width > 0.0)[:, np.newaxis]
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
    of equal values, so padding never changes a result.  ``costs``, ``k``,
    ``alpha`` and ``stay`` (1 - alpha) are the block flattened row by row;
    node i owns entries ``offsets[i]:offsets[i + 1]``.  Targets are clamped
    first (see :func:`interp_weights`), so ``k_next`` = k + 1 is a node for
    every candidate.  The table also keeps the block's shifts (``_shifts``),
    so that :meth:`same_data_at` evaluates the shift once, at the new time.
    """

    def __init__(self, problem: ProblemSpec, grid: SpaceTimeGrid,
                 controls: DiscreteControls, t: float):
        self.t = float(t)
        self._problem = problem
        self._nodes = nodes = grid.nodes
        impulse_grid = controls.impulse_values(t, nodes)   # (n, K), shared
        per_node = impulse_grid.shape[1]
        x_col = nodes[:, np.newaxis]
        self._impulse_grid = impulse_grid
        self._shifts = eval_on(problem.impulse_shift, t, x_col, impulse_grid)
        self.offsets = np.arange(nodes.size + 1) * per_node
        self.costs = eval_on(problem.impulse_cost, t, x_col, impulse_grid).ravel()
        self.k, self.alpha = interp_weights(nodes, (x_col + self._shifts).ravel())
        self.stay = 1.0 - self.alpha
        self.k_next = self.k + 1

    def same_data_at(self, t: float) -> bool:
        """Whether the table at time t would be this one.

        True when the impulse bounds at every node, and the shifts and costs
        of these candidates, equal at t those this table was built from.
        Each node's candidates run from its lower to its upper bound, so the
        first and last columns of the block are the bounds at ``self.t``;
        the shifts at ``self.t`` are the kept ``_shifts`` block.  A check
        costs the bounds read a build's ``impulse_values`` sample also makes
        (see :func:`impulse_bounds_on`) and one array call each for the
        bounds, costs and shifts at t; a build adds the candidate block and
        the interpolation weights.
        """
        problem, nodes, zs = self._problem, self._nodes, self._impulse_grid
        lo, hi = impulse_bounds_on(problem, t, nodes)
        if not (np.array_equal(lo, zs[:, 0]) and np.array_equal(hi, zs[:, -1])):
            return False
        x_col = nodes[:, np.newaxis]
        return (np.array_equal(eval_on(problem.impulse_cost, t, x_col, zs).ravel(), self.costs)
                and np.array_equal(eval_on(problem.impulse_shift, t, x_col, zs), self._shifts))

    def jump_rows(self, rows, impulses) -> tuple[tuple, np.ndarray]:
        """Couplings and cost of the candidate ``impulses[r]`` at node ``rows[r]``.

        The couplings are the interpolation pairs (k, 1 - alpha) and
        (k + 1, alpha), both columns on the grid; a zero weight marks no
        coupling (at a clamped target one of the two).  ValueError names
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
        k = self.k[flat]
        return ((k, self.stay[flat]), (k + 1, self.alpha[flat])), self.costs[flat]

    def apply(self, u: np.ndarray) -> InterventionResult:
        """Best-impulse value max_z { interp(u, x_j + shift) + cost } at every node,
        formed as (1 - alpha) u_k + alpha u_{k+1} + cost in two work arrays."""
        values = u.take(self.k)
        values *= self.stay
        right = u.take(self.k_next)
        right *= self.alpha
        values += right
        values += self.costs
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
