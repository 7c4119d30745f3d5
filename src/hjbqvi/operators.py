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
  outside [-Q, Q] (:func:`interp_weights`, read by jump tables and foot
  points through one gather, :class:`Interpolant`): each point is clipped
  first, so it reads a cell k in [0, n - 2] and couples to nodes k and k + 1,
* the rows of the control sample that both schemes' control maxima read
  (:func:`candidate_rows`, one H x nodes index, gathered by :func:`row_at`),
* two intervention operators M with one interface: ``apply(u)`` gives
  (Mu)_j and the impulse attaining it, with that impulse's column in the
  candidate array the operator read (which a policy keeps in place of the
  value), ``jump_rows(rows, columns)`` gives, for those columns,
  ``(couplings, cost)``, active row j reading (Mu)_j = sum of w u_col over
  its (col, w) couplings + cost.  :class:`InterventionTable` is the impulse
  maximum max_z { interp(u, x_j + shift) + cost }, ties to the smallest z,
  over one time level's candidates (a node with fewer than K candidates
  repeats its last one).  :class:`FrozenObstacle` is a fixed vector with no
  couplings: an optimal-stopping obstacle.

A jump table has two layouts (see :class:`InterventionTable`).  The reset
layout serves a problem whose impulses are declared resets
(``ProblemSpec.reset_cost``: shift z - x, cost -c0 - lam |z - x|, as in
every builtin that intervenes) when the impulse bounds are equal at every
node.  Then (Mu)_j = max_k { v_k - lam |z_k - x_j| } - c0 with
v_k = interp(u, z_k), a maximum over a cone, which is two running maxima
over z: the L1 case of the distance transform of sampled functions
(Felzenszwalb & Huttenlocher, Theory of Computing 8, 2012).  A level's
first build costs O(n + K) and every later one on the same candidate row
and nodes O(n) (:meth:`DiscreteControls.reset_level`), one ``apply``
O(n + K), and the reuse check ``same_data_at``
O(n): it compares the bounds and evaluates no callable, and with bounds
declared to ignore t (``ProblemSpec.time_free_bounds``) it reads nothing
and holds at every t.  The values are
those of the block layout up to rounding, so an exact tie there may go to
another candidate.

The block layout serves every other table: the nodes x K targets
x_j + shift, one interpolant per node, and the nodes x K cost block,
O(n K) per build and per ``apply``.

The functions here are pure.  The mutable pieces are two memos of
:class:`DiscreteControls`.  ``_impulse_cache`` memoizes ``impulse_values``
and grows by one entry per distinct (t, node set) it is asked for: per time
level on the penalty and iterated optimal stopping paths, and on the
semi-Lagrangian path per table build, which is once per solve when the
impulse data do not depend on t.  Each entry refers to a read-only nodes x K
candidate block, shared by every table built at that level, by every
later level whose impulse bounds give it bit for bit, and by the policies
that index it, so bounds that ignore t keep one block per node set in
memory, not one per level; bounds equal at every node keep one row.
``_reset_level`` is one slot, the newest :class:`ResetLevel`, whose
read-only arrays every reset table on that candidate row and node set
shares; a build on another row or node set replaces it.  Neither memo is
locked: share a ``DiscreteControls`` between threads only with that in
mind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .grid import SpaceTimeGrid
from .problem import ProblemSpec, eval_on, impulse_bounds_on, uniform_sample


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

    The CSR arrays are built directly: one stable sort of row * n + col,
    ``np.add.reduceat`` over each run of equal positions, and ``indptr`` by
    ``searchsorted``, with int32 index arrays wherever n and the entry
    count fit, as ``sp.coo_matrix(...).tocsr()`` gives them.  Where a
    position holds at most two entries (every system the solvers build: a
    penalty row's self-coupling is merged into its diagonal first, and its
    two couplings are distinct columns), the result has that conversion's
    bytes.  With three or more, the sum is taken in the order the entries
    are listed, which may differ from the conversion's by rounding.
    """
    lower, diag, upper = band
    n = diag.size
    interior = np.arange(1, n - 1)
    every = np.arange(n)
    row = np.concatenate([interior, interior, np.asarray(rows, dtype=np.intp), every])
    col = np.concatenate([interior + 1, interior - 1, np.asarray(cols, dtype=np.intp), every])
    values = np.concatenate([-upper[1:-1], -lower[1:-1], np.asarray(data, dtype=float),
                             weight - diag])
    position = row * n + col
    order = np.argsort(position, kind="stable")
    position = position[order]
    starts = np.flatnonzero(np.concatenate([[True], position[1:] != position[:-1]]))
    index_type = np.int32 if max(n, position.size) < 2**31 else np.int64
    matrix = sp.csr_matrix(
        (np.add.reduceat(values[order], starts), col[order[starts]].astype(index_type),
         np.searchsorted(position[starts], np.arange(n + 1) * n).astype(index_type)),
        shape=(n, n))
    matrix.has_canonical_format = True
    return matrix


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


class Interpolant:
    """Clamped linear interpolation at fixed points, from their :func:`interp_weights`.

    Taking (k, alpha), not the points, lets a caller's points be freed before
    ``stay`` and ``k_next`` are allocated.  Weights 0 and 1 (nodes, and points
    at or beyond either end) read a node value exactly; elsewhere the result
    is within a few ulps of ``np.interp``'s slope (x - x_k) + u_k.
    """

    def __init__(self, k: np.ndarray, alpha: np.ndarray):
        self.k, self.alpha = k, alpha
        self.stay = 1.0 - alpha
        self.k_next = k + 1

    def interp(self, u: np.ndarray) -> np.ndarray:
        """(1 - alpha) u_k + alpha u_{k+1} in two work arrays, shaped like k."""
        values = u.take(self.k)
        values *= self.stay
        right = u.take(self.k_next)
        right *= self.alpha
        values += right
        return values


def candidate_rows(piece: np.ndarray, param: np.ndarray) -> np.ndarray | None:
    """Per node, the rows of a controls x nodes block that a maximum over
    the rows may read, or None when they are not nondecreasing down the
    rows (``piece``, then ``param`` within one piece), checked exactly on
    the values.

    Both control maxima use it when the reward is declared to ignore b
    (``ProblemSpec.separable_reward``).  A node's candidate value is then
    affine in ``param`` along each run of rows with one ``piece``: the
    penalty row (L_b u)_j in the drift on drift < 0 and on drift >= 0,
    where the upwinding picks one one-sided difference (piece drift >= 0),
    and the semi-Lagrangian interp(u, foot) in the weight within one
    interpolation cell (piece the cell).  So in exact arithmetic a run's
    maximum, and its first maximising row, is the run's first row or the
    first row of its last ``param``.  Those rows are kept, in row order; a
    node with fewer than the largest count H repeats its last, giving an
    H x nodes index.  A column of every row is the full sample in the same
    layout.  Cash keeps 4 of its B controls per node in both schemes.
    Where controls differ only by rounding, the full sample could pick an
    interior one; the brute-force audits (:mod:`oracle`) read every sampled
    control, and so check the reduction independently.
    """
    new_piece = piece[1:] != piece[:-1]
    if (piece[1:] < piece[:-1]).any() or (~new_piece & (param[1:] < param[:-1])).any():
        return None
    B, n = piece.shape
    first = np.ones((B, n), dtype=bool)
    first[1:] = new_piece
    last = np.ones((B, n), dtype=bool)
    last[:-1] = new_piece
    # Each row's run end (the first last row at or below it), and whether
    # the row has the param its run ends with.
    end = np.where(last, np.arange(B)[:, np.newaxis], B)
    end = np.minimum.accumulate(end[::-1], axis=0)[::-1]
    at_end = param == np.take_along_axis(param, end, axis=0)
    keep = first.copy()
    keep[1:] |= at_end[1:] & ~at_end[:-1]
    rows, cols = np.nonzero(keep)
    slots = (np.cumsum(keep, axis=0) - 1)[rows, cols]
    index = np.broadcast_to(B - 1 - keep[::-1].argmax(axis=0), (slots.max() + 1, n)).copy()
    index[slots, cols] = rows
    return index


def row_at(index: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """index[picks_j, j] at each node j, for an H x nodes ``index`` of
    :func:`candidate_rows` or a column of every row, which serves each node."""
    return index[picks, np.arange(picks.size) if index.shape[1] > 1 else 0]


def _bits_constant(values: np.ndarray) -> bool:
    """Whether every entry of a float array has the first one's bytes
    (unlike ``==``, this tells -0.0 from +0.0)."""
    bits = values.view(np.int64)
    return bool((bits == bits[0]).all())


def _nonempty_bounds_on(problem: ProblemSpec, t: float,
                        nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`problem.impulse_bounds_on`; ValueError names the first node
    whose impulse set is empty (hi < lo), as a table needs a candidate there."""
    lo, hi = impulse_bounds_on(problem, t, nodes)
    if (hi < lo).any():
        i = np.flatnonzero(hi < lo)[0]
        raise ValueError(f"empty impulse set at (t={float(t)!r}, x={float(nodes[i])!r}): "
                         f"[{float(lo[i])!r}, {float(hi[i])!r}]")
    return lo, hi


class ResetLevel(NamedTuple):
    """What a reset-layout :class:`InterventionTable` reads of its candidate
    row z and its nodes, all read-only: the :class:`Interpolant` of z (each
    1 x K) and each node's split points in z, one ``searchsorted`` each.
    Node j's forward sweep reads z[:below[j]] (z <= x_j), its backward
    sweep z[above[j]:] (z >= x_j)."""

    k: np.ndarray
    alpha: np.ndarray
    stay: np.ndarray
    k_next: np.ndarray
    below: np.ndarray
    above: np.ndarray


@dataclass(eq=False)
class DiscreteControls:
    """Finite control and impulse sets at refinement rho.

    ``controls`` samples the control interval.  ``impulse_values(t, nodes)``
    is the nodes x K block ``uniform_sample(lo, hi, rho)`` of one time
    level's impulse intervals, K the largest candidate count.  The block is
    memoized per (t, node set), since both table builds of a penalty step
    and the brute-force audit read the same level, and is read-only because
    they share it.  A level whose bounds give, bit for bit, the first and
    last columns of the newest block for the same node count gets that block
    rather than a new sample: the sample is a function of (lo, hi, rho)
    alone, so bounds that ignore t cost one block per solve.  A level whose
    lo and hi are each the same bytes at every node, as in every builtin,
    samples one row of K and returns it broadcast to nodes x K, so its block
    holds K values, not nodes x K (32 MB at M=2000 for cash).  Both samples
    include their interval endpoints, and their spacing is at most rho, so
    the Hausdorff distance to the continuous sets is at most rho / 2.

    Beside the blocks it keeps, in one slot, the :class:`ResetLevel` of the
    newest candidate row a reset-layout table asked for
    (:meth:`reset_level`), which the tables on that row and node set share.
    Neither memo is a field of the record: ``dataclasses.replace`` gives
    the new record empty ones, so a replaced ``rho`` or ``controls`` samples
    afresh.  ``==`` is identity, as for :class:`solution.PenaltyPolicy`: a
    generated one would compare the ``controls`` arrays inside a tuple,
    which raises for two distinct arrays.
    """

    problem: ProblemSpec
    rho: float
    controls: np.ndarray
    _impulse_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _reset_level: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def impulse_values(self, t: float, nodes: np.ndarray) -> np.ndarray:
        """The nodes x K impulse candidate block at time t:
        :func:`problem.uniform_sample` of the nodes' impulse bounds at rho,
        each row ``np.linspace``'s bit for bit.  ValueError names the first
        node whose bounds are not finite or whose impulse set is empty.

        Sharing a block keeps every bit.  The bounds are compared with the
        columns the sample would write: the first is lo, or +0.0 where lo is
        -0.0 on a nonzero width (k * step + lo reads +0.0 there, and samples
        the same row from either zero), and the last is hi, or lo on a zero
        width (the row is then lo throughout).  So bounds that give the
        newest block's columns sample its rows, and its K; bounds such as
        (0.0 * x, max(x, 0)), whose -0.0 and +0.0 differ only in bytes the
        sample never writes, share one block.  Equal bounds at every node
        sample one row, which :func:`np.broadcast_to` returns read-only.

        A level not yet cached reads the bounds even when they are declared
        to ignore t (``ProblemSpec.time_free_bounds``): the brute-force
        audits sample every level's candidates through this method, and
        reading there is what lets them check the values a solve keeps
        (``test_declared_values_are_read_once`` pins N bound reads).
        """
        nodes = np.asarray(nodes, dtype=float)
        key = (float(t), nodes.tobytes())
        block = self._impulse_cache.get(key)
        if block is None:
            lo, hi = _nonempty_bounds_on(self.problem, t, nodes)
            newest = next((b for b in reversed(self._impulse_cache.values())
                           if b.shape[0] == nodes.size), None)
            # The columns uniform_sample writes first and last: 0 * step + lo
            # is +0.0 at lo = -0.0 on a nonzero width, and a zero width is lo.
            nonzero = hi > lo
            first, last = np.where(nonzero, lo + 0.0, lo), np.where(nonzero, hi, lo)
            if (newest is not None and first.tobytes() == newest[:, 0].tobytes()
                    and last.tobytes() == newest[:, -1].tobytes()):
                block = newest
            elif _bits_constant(lo) and _bits_constant(hi):
                row = uniform_sample(lo[0], hi[0], self.rho)
                block = np.broadcast_to(row, (nodes.size, row.size))
            else:
                block = uniform_sample(lo, hi, self.rho)
                block.flags.writeable = False
            self._impulse_cache[key] = block
        return block

    def reset_level(self, z: np.ndarray, nodes: np.ndarray) -> ResetLevel:
        """The :class:`ResetLevel` of the candidate row ``z`` on ``nodes``.

        One slot keeps the newest, keyed on the bytes of z and of the nodes:
        a block is shared by node sets of the same size, so its identity
        does not name the nodes, and bytes tell -0.0 from +0.0.  Both tables
        of a penalty step read one level, and bounds that ignore t one level
        per solve, so the slot serves every build after a level's first;
        bounds that move in t replace it at each level and keep one record
        alive, not one per level.
        """
        key = (z.tobytes(), nodes.tobytes())
        if self._reset_level is None or self._reset_level[0] != key:
            interpolant = Interpolant(*interp_weights(nodes, z[np.newaxis]))
            level = ResetLevel(interpolant.k, interpolant.alpha, interpolant.stay,
                               interpolant.k_next, np.searchsorted(z, nodes, side="right"),
                               np.searchsorted(z, nodes, side="left"))
            for part in level:
                part.flags.writeable = False
            self._reset_level = key, level
        return self._reset_level[1]


def discretize_controls(problem: ProblemSpec, rho: float) -> DiscreteControls:
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho!r}")
    lo, hi = problem.control_bounds
    return DiscreteControls(problem=problem, rho=float(rho),
                            controls=uniform_sample(float(lo), float(hi), rho))


class InterventionResult(NamedTuple):
    values: np.ndarray      # best jump value per node
    impulses: np.ndarray    # achieving z per node (smallest on ties)
    columns: np.ndarray     # z's column in candidates per node, -1 for none
    candidates: np.ndarray  # the nodes x K candidate array the operator read


class InterventionTable(Interpolant):
    """Precomputed jump data for one time level, in one of two layouts.

    The impulse candidates depend only on (t, x_j); building what the
    maximum needs once lets repeated applications to changing iterates run
    as pure array arithmetic.  Each build reads the level's nodes x K
    candidate block (``_impulse_grid``, shared through
    :meth:`DiscreteControls.impulse_values`), K the largest impulse count at
    any node.  ``_reset`` is the problem's ``reset_cost`` in the reset
    layout and None in the block layout.  :meth:`apply` returns each node's
    chosen column of ``_impulse_grid`` with the array itself, which the
    policies built from it index.

    **Reset layout**, when the problem's impulses are declared resets at
    cost -c0 - lam |z - x| (``ProblemSpec.reset_cost``) and the impulse
    bounds are equal at every node, so every row of the block is the same
    candidate row z (``_z``).  The table is the
    :class:`Interpolant` of z itself (``k``, ``alpha``, ``stay`` and
    ``k_next`` 1 x K), plus each node's split points in z (one
    ``searchsorted`` each).  Those depend on z and the nodes alone, so a
    build takes them, read-only, from the controls' :class:`ResetLevel`
    (:meth:`DiscreteControls.reset_level`), computing them only when the
    slot holds another row or node set: a penalty step's second build, and
    every build after the first under bounds that ignore t, is a lookup
    keyed on O(n + K) bytes plus the products lam z and lam x_j.
    :meth:`apply` takes v_k = interp(u, z_k) and two running maxima, max
    over z_k <= x_j of (v_k + lam z_k), less
    lam x_j, and max over z_k >= x_j of (v_k - lam z_k), plus lam x_j:
    O(n + K) per call, no nodes x K array.  Within a sweep the first index
    that reaches the maximum wins, and the forward sweep wins an exact tie,
    so ties go to the smallest z.  The value returned is the chosen
    candidate's v_k + (-c0 - lam |z_k - x_j|), the sum the block layout and
    :meth:`jump_rows` form.  ``costs`` is None.

    **Block layout**, for every other table.  A node with fewer candidates
    repeats its last z: the copy has the same value as the candidate it
    repeats, and argmax keeps the first of equal values, so padding never
    changes a result.  The table is the :class:`Interpolant` of the
    nodes x K targets x_j + shift; :meth:`apply` adds it to the costs,
    O(n K) per call.  ``costs`` is the nodes x K cost block as ``eval_on``
    returns it.  Every node has K candidates, so ``offsets`` is None in both
    layouts; it stays an attribute because ``perfbench/tracing.py`` reads it.
    The table also keeps the block's shifts (``_shifts``), so that
    :meth:`same_data_at` evaluates the shift once, at the new time.  That
    block (208 KB at M=160) pays for itself: a semi-Lagrangian solve of
    cash with an undeclared reset shift z - x took 0.06-0.10 and 0.40-0.42 s
    at M=160 and 320 reusing its table, 0.15 and 0.96-1.05 s rebuilding it
    every step, with identical surfaces (best of 3, two runs on a 2-core
    Xeon, Python 3.11).
    """

    def __init__(self, problem: ProblemSpec, grid: SpaceTimeGrid,
                 controls: DiscreteControls, t: float):
        self.t = float(t)
        self._problem = problem
        self._nodes = nodes = grid.nodes
        self.costs = self.offsets = None
        impulse_grid = controls.impulse_values(t, nodes)   # (n, K), shared
        self._impulse_grid = impulse_grid
        lo, hi = impulse_grid[:, 0], impulse_grid[:, -1]
        self._reset = None
        # A broadcast block (one sampled row, strides[0] == 0) is equal at
        # every node by construction.
        if problem.reset_cost is not None and (
                not impulse_grid.strides[0] or ((lo == lo[0]).all() and (hi == hi[0]).all())):
            self._reset = problem.reset_cost
            lam = self._reset.lam
            self._z = z = impulse_grid[0]
            if impulse_grid.strides[0]:
                # Rows equal in value but not in bytes (a zero width whose
                # lo is -0.0 at some nodes): a result's columns index z.
                self._impulse_grid = np.broadcast_to(z, impulse_grid.shape)
            # The shared level stands in for Interpolant.__init__.
            level = controls.reset_level(z, nodes)
            self.k, self.alpha, self.stay, self.k_next = level[:4]
            self._below, self._above = level.below, level.above
            self._lam_z = lam * z
            self._lam_x = lam * nodes
            return
        x_col = nodes[:, np.newaxis]
        self._shifts = eval_on(problem.impulse_shift, t, x_col, impulse_grid)
        self.costs = eval_on(problem.impulse_cost, t, x_col, impulse_grid)
        super().__init__(*interp_weights(nodes, x_col + self._shifts))

    def same_data_at(self, t: float) -> bool:
        """Whether the table at time t would be this one.

        True when the impulse bounds at every node equal at t those this
        table was built from (each node's candidates run from its lower to
        its upper bound, so they are the block's first and last columns)
        and, in the block layout, the shifts and costs of these candidates
        do too.  The bounds read is the one a build's ``impulse_values``
        sample also makes (see :func:`problem.impulse_bounds_on`); bounds
        declared to ignore t (``ProblemSpec.time_free_bounds``) are equal
        at every t and are not read.  In the reset layout that is the whole
        check, O(n), or no work with such bounds: the declared shift and
        cost do not depend on t.  In the block layout it adds one array call
        each for the costs and shifts at t, compared with the kept blocks.
        """
        problem, nodes, zs = self._problem, self._nodes, self._impulse_grid
        if problem.time_free_bounds is None:
            lo, hi = _nonempty_bounds_on(problem, t, nodes)
            if not (np.array_equal(lo, zs[:, 0]) and np.array_equal(hi, zs[:, -1])):
                return False
        if self._reset is not None:
            return True
        x_col = nodes[:, np.newaxis]
        return (np.array_equal(eval_on(problem.impulse_cost, t, x_col, zs), self.costs)
                and np.array_equal(eval_on(problem.impulse_shift, t, x_col, zs), self._shifts))

    def jump_rows(self, rows, columns) -> tuple[tuple, np.ndarray]:
        """Couplings and cost of the candidate in column ``columns[r]`` of
        ``_impulse_grid`` at node ``rows[r]``: the columns :meth:`apply`
        returns, which a policy keeps (``PenaltyPolicy.impulse_columns``).
        A policy carried from the step before (``penalty.StepStart``) indexes
        a candidate row equal to this table's, so its columns read the same
        candidates.

        The couplings are the interpolation pairs (k, 1 - alpha) and
        (k + 1, alpha), both columns on the grid; a zero weight marks no
        coupling (at a clamped target one of the two).  In the reset layout
        the pairs are read from the 1 x K row and the cost
        -c0 - lam |z - x_j| is formed for these rows only.  ValueError names
        the first node whose column is outside [0, K).
        """
        rows = np.asarray(rows, dtype=np.intp)
        columns = np.asarray(columns, dtype=np.intp)
        width = self._impulse_grid.shape[1]
        outside = (columns < 0) | (columns >= width)
        if outside.any():
            bad = int(np.argmax(outside))
            raise ValueError(f"column {int(columns[bad])} at node index {int(rows[bad])} "
                             f"(t={self.t!r}) is outside the {width} candidates of the table")
        if self._reset is not None:
            c0, lam = self._reset.c0, self._reset.lam
            at = (0, columns)
            cost = -c0 - lam * np.abs(self._z[columns] - self._nodes[rows])
        else:
            at = (rows, columns)
            cost = self.costs[rows, columns]
        k = self.k[at]
        return ((k, self.stay[at]), (k + 1, self.alpha[at])), cost

    def apply(self, u: np.ndarray) -> InterventionResult:
        """Best-impulse value max_z { interp(u, x_j + shift) + cost } at every node."""
        if self._reset is not None:
            return self._sweep(u)
        block = self.interp(u)
        block += self.costs
        best = block.argmax(axis=1)
        rows = np.arange(block.shape[0])
        return InterventionResult(values=block[rows, best],
                                  impulses=self._impulse_grid[rows, best],
                                  columns=best, candidates=self._impulse_grid)

    def _sweep(self, u: np.ndarray) -> InterventionResult:
        """The reset layout's :meth:`apply`: two running maxima over z.

        ``up[i]`` is the maximum of v_k + lam z_k over the first i
        candidates and ``down[i]`` that of v_k - lam z_k over candidates
        i.. K - 1, each -inf over none.  A node reads ``up`` at ``_below``
        and ``down`` at ``_above``; ``down_at[i]`` is the smallest index
        attaining ``down[i]``.

        The shared level's index arrays are read-only, and ``take`` copies
        such an index array on every call, so they are read by indexing:
        v is :meth:`interp`'s sum, formed with its operations in its order.
        """
        c0, lam = self._reset.c0, self._reset.lam
        v = u[self.k[0]]
        v *= self.stay[0]
        right = u[self.k_next[0]]
        right *= self.alpha[0]
        v += right
        size = v.size
        up = np.empty(size + 1)
        up[0] = -np.inf
        np.maximum.accumulate(v + self._lam_z, out=up[1:])
        backward = v - self._lam_z
        down = np.empty(size + 1)
        down[size] = -np.inf
        down[:size] = np.maximum.accumulate(backward[::-1])[::-1]
        down_at = np.zeros(size + 1, dtype=np.intp)
        # Candidate i is the smallest maximizer from i on where it is at
        # least the maximum beyond it; the index size - 1 never beats the
        # running minimum from the right.
        down_at[:size] = np.minimum.accumulate(
            np.where(backward >= down[1:], np.arange(size), size - 1)[::-1])[::-1]
        forward = up[self._below]
        # The running maximum first reaches a prefix's maximum at the
        # prefix's smallest maximizer (index 0 for an empty prefix).
        up_at = np.searchsorted(up[1:], forward)
        forward -= self._lam_x
        back = down[self._above]
        back += self._lam_x
        best = np.where(forward >= back, up_at, down_at[self._above])
        impulses = self._z.take(best)
        # The chosen candidate's value, summed as jump_rows and the block
        # layout sum it.
        values = -c0 - lam * np.abs(impulses - self._nodes)
        values += v.take(best)
        return InterventionResult(values=values, impulses=impulses, columns=best,
                                  candidates=self._impulse_grid)


class FrozenObstacle:
    """A fixed obstacle, (Mu)_j = values_j: no couplings, no candidates (a
    nodes x 0 array, column -1 at every node) and NaN impulses."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def apply(self, u: np.ndarray) -> InterventionResult:
        n = self.values.size
        return InterventionResult(values=self.values, impulses=np.full(n, np.nan),
                                  columns=np.full(n, -1), candidates=np.empty((n, 0)))

    def jump_rows(self, rows, columns) -> tuple[tuple, np.ndarray]:
        return (), self.values[rows]
