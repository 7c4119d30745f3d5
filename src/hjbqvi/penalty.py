"""Implicit penalty scheme for the quasi-variational inequality.

Per timestep n < N the scheme solves, implicitly in u^n,

    -max_b { (u^{n+1}_j - u^n_j)/dt + (L_b u^n)_j + f(t_n, x_j, b) }
    - max( (Mu^n)_j - u^n_j, 0 ) / epsilon  =  0,        u^N_j = g(x_j),

where L_b is the upwinded discrete generator and (Mu)_j the discretized
intervention maximum.  For fixed per-node controls (b_j, penalty indicator
d_j, impulse z_j) the equations are linear with a weakly chained diagonally
dominant M-matrix, so each timestep is solved exactly by policy iteration
(greedy improvement alternating with a direct sparse solve), which
terminates in finitely many steps on such systems.  The generator
coefficients of the assembled systems, of the control argmax and of the
monotonicity row all come from :func:`operators.generator_band`.

drift(x, b) and diffusion(x, b) take no t, so the band of L_b that the
control argmax reads, one row per control it maximises over at each node,
is the same at every step and every policy iteration: a caller builds it
once (:func:`_control_band`) and passes it down as ``band``.  The running
reward f(t, x, b) is fixed within a step, so a step evaluates it once on
the same rows (``reward``, the step's :func:`_reward_block`); a reward
declared to ignore t (``ProblemSpec.time_free_reward``, as in every
builtin) is evaluated once per solve, with the band, and every step reads
those rows.  Each assembled system reads, at node j, the
row of the band and of the reward block that the argmax chose, so the
systems and the argmax read the same numbers.  The band keeps every
sampled control, or, when the reward ignores b
(``ProblemSpec.separable_reward``) and the diffusion ignores b, each
node's :func:`operators.candidate_rows` of the drift where those exist:
4 rows for cash at every grid size, against B = 2 b_max / rho + 1.

:func:`residual` is the formula alone and builds nothing: the gate
passes it the argmax values of the last policy improvement, which evaluated
the same u, and (Mu)_j; the row of :func:`monotonicity_row` passes a pinned
scalar (Mu)_j.

Most policy systems of a finite-horizon solve repeat the one solved just
before: on cash at M=160, N=120, 121 of 143.  A solve, and an
iterated-optimal-stopping call, therefore passes one :class:`SystemMemo`
to every step, which keeps the last distinct matrix with its WCDD report,
the one holder of both.  A system whose operands (the time weight, 1/eps,
the control rows, the active rows and the couplings ``jump_rows``
returns) equal the kept ones, byte for byte, reuses them, and is
recognised before any of its matrix is built: the penalty triplets,
``implicit_matrix`` and ``analyze_matrix`` run once per distinct system,
and every matrix solved has passed its check.  :func:`_assemble` returns
the rhs, built anew for every system, and policy iteration solves it
through the memo.  A kept matrix is solved by ``spsolve`` the first time;
when it recurs it is factorised once, and the factors, whose solves match
``spsolve`` bit for bit, serve it until another system replaces it.
Surfaces, policies and diagnostics are therefore those of a solve that
assembles every system afresh.

Policy iteration at step n opens with an improvement at u^{n+1}, the
iterate at which step n+1 ended with one.  A finite-horizon solve passes
each step the :class:`StepStart` of the step before, and the step takes
its first policy from there, with no control argmax and no jump sweep,
when a fresh improvement would find the same: the start evaluated this
very u^{n+1} array, on the same reward block (a reward declared to ignore
t; one evaluated at each t never carries), and the step's own jump table
is in the reset layout with the data of the one before
(:meth:`operators.InterventionTable.same_data_at`, no work for time-free
bounds).  The start keeps the argmax's first index at each node, taken
before near-tied previous rows are kept, so the first policy is a fresh
improvement's bit for bit.  On the benchmark's cash at M=160, N=120 this
takes 119 of 263 control argmaxes, and as many jump sweeps, out of a solve.
Block-layout tables and operators a caller supplies never carry.

A step returns its policy beside u, its diagnostics and its
:class:`StepStart`; ``Solution.policies`` is the only place a solve keeps
the policy.

The stationary (discounted) analogue replaces the time difference by
-beta u_j and solves a single such system, on a grid with no time axis
(N = T = 0), whose rho is the spacing alone.

The penalty parameter must vanish with the mesh: epsilon = c_eps * rho, a
solve's one setting.  Policy iteration ends in finitely many steps on these
WCDD systems (Azimzadeh & Forsyth, SIAM J. Numer. Anal. 54(3), 2016), so
its limits are constants: ``PI_TOL``, ``MAX_ITERS`` and ``RESIDUAL_TOL``.

M enters :func:`penalty_timestep` as ``intervention``, any operator with the
interface of :mod:`operators` (``apply`` and ``jump_rows``) and the one
optional operand: ``None`` builds the problem's own
:class:`operators.InterventionTable` at the step's time for policy iteration
and, once that is freed, again for the residual gate.  A
:class:`operators.FrozenObstacle` turns the timestep into a plain variational
inequality solve, which the iterated-optimal-stopping solver builds on; a
step given an operator returns no :class:`StepStart`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse.linalg import spsolve

from .exceptions import MatrixStructureError, NonConvergenceError, SolverError
from .grid import SpaceTimeGrid
from .matrices import analyze_matrix, factorise
from .operators import (
    DiscreteControls,
    InterventionResult,
    InterventionTable,
    apply_band,
    candidate_rows,
    discretize_controls,
    generator_band,
    implicit_matrix,
    row_at,
)
from .problem import ProblemSpec, eval_on
from .solution import (
    PenaltyPolicy,
    SolveDiagnostics,
    Solution,
    SolverConfig,
    TimestepDiagnostics,
    backward_induction,
    default_epsilon,
    require_time_axis,
)

#: Policy iteration stops on a sup-norm update below PI_TOL (or an unchanged
#: policy), fails after MAX_ITERS; a step fails at a residual above RESIDUAL_TOL.
PI_TOL = 1e-10
RESIDUAL_TOL = 1e-8
MAX_ITERS = 100


# Control values at most this many eps * (the node's largest |value|) below
# the maximum count as tied with it (see _best_control): on cash, rounding
# ties (+-b at x = 0) differ by up to about 1 such unit, real changes by 1e5
# or more.
_TIE_ULPS = 64


@dataclass(frozen=True, eq=False)
class ControlBand:
    """The control rows a policy improvement maximises over, and L_b on them.

    ``index`` holds each node's rows of ``controls.controls``, H x nodes as
    in :class:`semilag.FootPoints` (a column of every row for the full
    sample); ``parts`` is the band (lower, diag, upper) of
    :func:`generator_band` on those rows, read-only, so that a
    :class:`SystemMemo` may compare a band by identity.  ``reward`` is the
    running reward on those rows (rows x nodes, read-only) when it is
    declared to ignore t (``ProblemSpec.time_free_reward``), else None:
    :func:`_reward_block` returns it at every t.
    """

    index: np.ndarray
    parts: tuple
    reward: np.ndarray | None


class StepStart(NamedTuple):
    """What a step's last policy improvement found, from which the next step
    may start (:func:`_solve_step`): the iterate ``u`` it evaluated, the
    reward block it read, the time ``t`` of its jump table, the argmax's own
    row at each node (``rows``, before any near-tied previous row is kept)
    and the jump result.  A fresh improvement at ``u``, given no previous
    rows, builds its policy from ``rows`` and ``jump`` alone."""

    u: np.ndarray
    reward: np.ndarray
    t: float
    rows: np.ndarray
    jump: InterventionResult


class SystemMemo:
    """The last distinct policy matrix of a solve, with its report and, once
    it recurs, its factors.

    A policy matrix is a pure function of the operands :func:`_assemble`
    builds it from: the control band (the same object, whose arrays are
    read-only) and the key, which holds the time weight, 1/eps and the
    bytes of each node's control index, of the active rows and of each
    (column, weight) array ``jump_rows`` returns for them.  The key compares
    values, never a table's identity, so systems on the block-layout tables
    rebuilt at every step still match.  :func:`_assemble` reuses the kept
    matrix and report when the band and key equal the kept ones, and only
    otherwise forms the penalty triplets and builds, checks and keeps the
    new matrix.  :meth:`solve` solves the kept matrix: by ``spsolve`` on its
    first use, and from then on by one :func:`matrices.factorise`, whose
    solves match ``spsolve`` bit for bit.
    """

    def __init__(self):
        self.band = self.key = self.matrix = self.report = None
        self._factor = None
        self._uses = 0

    def holds(self, band, key) -> bool:
        """Whether the kept matrix is the one these operands build."""
        return band is self.band and key == self.key

    def keep(self, band, key, matrix, report) -> None:
        self.band, self.key, self.matrix, self.report = band, key, matrix, report
        self._factor = None
        self._uses = 0

    def solve(self, rhs) -> np.ndarray:
        """u with (kept matrix) u = rhs."""
        self._uses += 1
        if self._uses == 1:
            return spsolve(self.matrix, rhs)
        if self._factor is None:
            self._factor = factorise(self.matrix, "policy system")
        return self._factor(rhs)


def _require_epsilon(epsilon) -> None:
    """ValueError unless the penalty parameter is finite and positive."""
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")


def _control_band(grid, problem, controls) -> ControlBand:
    """The :class:`ControlBand` a solve's policy improvements read.

    Every sampled control, unless the reward is declared to ignore b
    (``ProblemSpec.separable_reward``) and the diffusion rows are equal,
    compared exactly: then each node's :func:`operators.candidate_rows` of
    the drift's sign and value, where those exist.  Each kept row equals
    that control's row of the full band bit for bit.  A reward declared to
    ignore t is evaluated here, once, on the kept rows.
    """
    nodes, column = grid.nodes, controls.controls[:, np.newaxis]
    drift = eval_on(problem.drift, nodes, column)
    sigma = eval_on(problem.diffusion, nodes, column)
    index = None
    if problem.separable_reward is not None and not (sigma != sigma[0]).any():
        index = candidate_rows(drift >= 0.0, drift)
    if index is None:
        index = np.arange(column.size)[:, np.newaxis]
    parts = generator_band(nodes, np.take_along_axis(drift, index, 0),
                           np.take_along_axis(sigma, index, 0) ** 2)
    for part in parts:
        part.flags.writeable = False
    reward = None
    if problem.time_free_reward is not None:
        # Any t gives these values; eval_on's result is a read-only view.
        reward = eval_on(problem.running_reward, 0.0, nodes, controls.controls[index])
    return ControlBand(index=index, parts=parts, reward=reward)


def _reward_block(t, grid, problem, controls, band):
    """f(t, x_j, b) with one row per control of the :class:`ControlBand`
    ``band`` (its rows x nodes): the band's ``reward`` when it keeps the
    time-free rows, else evaluated at t."""
    if band.reward is not None:
        return band.reward
    return eval_on(problem.running_reward, t, grid.nodes, controls.controls[band.index])


def _best_control(u, band, reward, previous=None):
    """Max over the band's controls of (L_b u)_j + f(t, x_j, b), ``band``
    being the ``parts`` of a :class:`ControlBand` and ``reward`` its
    :func:`_reward_block` at t.

    Returns (values, indices, first): the values are the maximum, and
    ``first`` holds the first index argmax meets, so ties go to the smallest
    control.  Given the ``previous`` indices, a node keeps its previous
    control wherever that control's value is at most ``_TIE_ULPS`` * eps *
    max_b |value| below the maximum, so controls that tie up to rounding
    (+-b at a symmetric node) do not flip between policy iterations; without
    them the indices are ``first``.  The values stay the true maximum.
    max_b |value| is taken over the band's rows; on the rows of
    :func:`operators.candidate_rows` it is the full sample's in exact
    arithmetic, |value| being convex along each run.
    """
    vals = apply_band(band, u) + reward
    first = vals.argmax(axis=0)
    nodes = np.arange(vals.shape[1])
    best = vals[first, nodes]
    if previous is None:
        return best, first, first
    # max_b |vals_bj|, as max(best_j, -min_b vals_bj) since best_j >= min_b vals_bj
    scale = np.maximum(best, -vals.min(axis=0))
    keep = vals[previous, nodes] >= best - _TIE_ULPS * np.finfo(float).eps * scale
    return best, np.where(keep, previous, first), first


def _policy(u, controls, band, idx, jump) -> PenaltyPolicy:
    """The policy at the iterate ``u`` of the :class:`ControlBand` ``band``'s
    rows ``idx`` and the jump result ``jump``: the rows of the sampled
    controls those rows index at each node, the impulses' columns in the
    candidates ``jump`` read, and the penalty indicator, strict, d_j = 1 iff
    the best jump value exceeds u_j, so at equality the penalty stays off."""
    return PenaltyPolicy.chosen(controls.controls, row_at(band.index, idx),
                                jump.values - u > 0.0, jump)


def _improve(u, controls, intervention, band, reward, previous=None):
    """(policy, argmax values, argmax row indices, (first rows, jump)) at the
    iterate ``u``, keeping near-tied ``previous`` rows (:func:`_best_control`)
    of the :class:`ControlBand` ``band``: :func:`_policy` of those rows and
    of ``intervention.apply(u)``.  The control argmax ignores the time (or
    discount) term, which does not depend on b.  The last value is what a
    :class:`StepStart` keeps."""
    best_vals, best_idx, first = _best_control(u, band.parts, reward, previous)
    jump = intervention.apply(u)
    return _policy(u, controls, band, best_idx, jump), best_vals, best_idx, (first, jump)


def residual(u, rhs_base, time_weight, best, jump, epsilon) -> np.ndarray:
    """Pointwise residual of the discrete penalty equations

        -max_b { rhs_base_j - time_weight u_j + (L_b u)_j + f_j(b) }
        - max( (Mu)_j - u_j, 0 ) / epsilon,

    with the (rhs_base, time_weight) pair of :func:`_assemble`:
    (u^{n+1}/dt, 1/dt) for a timestep, (0, beta) for the stationary equations.
    ``best`` is max_b { (L_b u)_j + f_j(b) } at this u, the values of
    :func:`_best_control`, and ``jump`` is (Mu)_j, an array or one scalar
    for every node.
    """
    _require_epsilon(epsilon)
    return -(best + (rhs_base - time_weight * u)) - np.maximum(jump - u, 0.0) / epsilon


def _assemble(policy, rhs_base, time_weight, epsilon, intervention,
              control_band, reward, idx, memo) -> np.ndarray:
    """The rhs of the penalty equations at a frozen policy, leaving their
    matrix in the :class:`SystemMemo` ``memo``: the kept one when the memo
    holds the one these operands build, and otherwise built, checked and
    kept there.

    Row j:  time_weight*u_j - (L_{b_j} u)_j + (d_j/eps)(u_j - sum_c w_c u_c)
            = rhs_base_j + f_j(b_j) + (d_j/eps) * cost_j,
    with zero stencils in the boundary rows.  L_{b_j} and f_j(b_j) are row
    idx_j of the :class:`ControlBand` and of the step's :func:`_reward_block`,
    ``idx`` holding the row index of b_j at each node.  The couplings
    (c, w_c) and the cost of each active row are read from
    ``intervention.jump_rows`` at the policy's impulse columns, from the
    operator that chose the policy or, for a policy carried from the step
    before, one with an equal candidate row: interpolation pairs for a jump
    table, none for a frozen obstacle.
    Couplings that land on the row itself merge into the diagonal; the
    structural check rejects any configuration that loses the M-matrix sign
    pattern or WCDD.

    The memo is asked first, on the operands as ``jump_rows`` returns them
    (the :class:`SystemMemo` key); the penalty rows' (rows, cols, data),
    the band gather, ``implicit_matrix`` and ``analyze_matrix`` run only for
    a system the memo does not hold.
    """
    nodes = np.arange(idx.size)
    rhs = np.asarray(rhs_base, dtype=float) + reward[idx, nodes]
    inv_eps = 1.0 / epsilon
    active = np.flatnonzero(policy.intervene)
    couplings, cost = intervention.jump_rows(active, policy.impulse_columns[active])
    rhs[active] += inv_eps * cost
    key = (float(time_weight), inv_eps, idx.tobytes(), active.tobytes(),
           *(part.tobytes() for pair in couplings for part in pair))
    if memo.holds(control_band, key):
        return rhs

    # Penalty rows: one diagonal entry of 1/eps (less any coupling that lands
    # on the row itself), summed into the band's diagonal by implicit_matrix.
    # A zero weight (alpha == 0, or alpha == 1 at a target clamped to +Q) is
    # dropped: an explicit zero would add a false edge to the WCDD
    # reachability search.
    on_diag = np.full(active.size, inv_eps)
    rows, cols, data = [active], [active], [on_diag]
    for col, share in couplings:
        weight = inv_eps * share
        used = share > 0.0
        on_diag -= np.where(used & (col == active), weight, 0.0)
        off = used & (col != active)
        rows.append(active[off])
        cols.append(col[off])
        data.append(-weight[off])
    rows, cols, data = np.concatenate(rows), np.concatenate(cols), np.concatenate(data)
    band = tuple(part[idx, nodes] for part in control_band.parts)
    matrix = implicit_matrix(float(time_weight), band, rows, cols, data)
    report = analyze_matrix(matrix)
    if not report.passed:
        raise MatrixStructureError(
            f"assembled penalty system is outside the scheme's guarantees: {report.witness}",
            report=report,
        )
    memo.keep(control_band, key, matrix, report)
    return rhs


def _policy_iteration(u_start, rhs_base, time_weight, epsilon, controls, intervention, band,
                      reward, time_index, memo, start=None):
    """Policy iteration from ``u_start``; returns the solution, its policy,
    the step's diagnostics, and the control argmax values and the (first
    rows, jump) of the last policy improvement, which evaluated the returned
    u.  The first policy is that of a fresh improvement at ``u_start``, or
    of its (first rows, jump) when given them as ``start``.  It stops on an
    unchanged policy or an update below ``PI_TOL``; each later improvement
    keeps the controls that still tie with the best up to rounding, so the
    stop does not depend on rounding.  Each system is assembled into and
    solved by the :class:`SystemMemo` ``memo``."""
    diag = TimestepDiagnostics(time_index=time_index, iterations=0)
    if start is None:
        policy, _, best_idx, _ = _improve(u_start, controls, intervention, band, reward)
    else:
        best_idx, jump = start
        policy = _policy(u_start, controls, band, best_idx, jump)
    u = np.asarray(u_start, dtype=float)
    for _ in range(MAX_ITERS):
        rhs = _assemble(policy, rhs_base, time_weight, epsilon, intervention,
                        band, reward, best_idx, memo)
        diag.iterations += 1
        diag.min_dominance_margin = min(diag.min_dominance_margin, memo.report.min_margin)
        u_new = memo.solve(rhs)
        if not np.all(np.isfinite(u_new)):
            raise SolverError("policy system solve returned non-finite values")
        new_policy, best_vals, best_idx, found = _improve(u_new, controls, intervention, band,
                                                          reward, best_idx)
        update = float(np.abs(u_new - u).max())
        diag.updates.append(update)
        unchanged = policy.same_as(new_policy)
        u, policy = u_new, new_policy
        if unchanged or update < PI_TOL:
            break
    else:
        raise NonConvergenceError(
            f"policy iteration hit MAX_ITERS={MAX_ITERS} at t index {time_index}",
            history=diag.updates,
        )
    return u, policy, diag, best_vals, found


def _solve_step(u_start, rhs_base, time_weight, t, grid, problem, controls, band,
                epsilon, intervention, time_index, where, memo,
                start=None) -> tuple[np.ndarray, PenaltyPolicy, TimestepDiagnostics,
                                     StepStart | None]:
    """(u, policy, diagnostics, start) of one system of penalty equations (a
    timestep or the stationary equations), solved by policy iteration from
    ``u_start`` and gated on the pointwise :func:`residual`; ``band`` is the
    :func:`_control_band`, and the step reads the running reward once, as
    its :func:`_reward_block`.  Policy systems go through the
    :class:`SystemMemo` ``memo``.

    A step that builds its own jump table (``intervention`` None) returns
    the :class:`StepStart` of its last improvement, else None.  Given the
    ``start`` of the step before, it takes its first policy from there,
    without an argmax or a jump sweep, when that improvement evaluated
    ``u_start`` itself, with the same reward block (one object: a reward
    evaluated at each t never carries), and this step's table, in the reset
    layout, has the data of the one at ``start.t``
    (:meth:`operators.InterventionTable.same_data_at`, no work for
    time-free bounds).  The first policy is then the one a fresh
    improvement builds.  A block-layout table is never checked: its check
    evaluates the n x K costs and shifts, which on cash with an undeclared
    shift took longer than the ``apply`` it would save (0.107 against
    0.076 ms at M=160, 0.476 against 0.347 ms at M=320; best of 5 x 200
    calls, 2-core Xeon, Python 3.11).
    """
    _require_epsilon(epsilon)
    reward = _reward_block(t, grid, problem, controls, band)
    table = InterventionTable(problem, grid, controls, t) if intervention is None else intervention
    carried = None
    if (intervention is None and start is not None and start.u is u_start
            and start.reward is reward and table.costs is None
            and table.same_data_at(start.t)):
        carried = start.rows, start.jump
    u, policy, diag, best, found = _policy_iteration(
        u_start, rhs_base, time_weight, epsilon, controls, table, band, reward, time_index,
        memo, carried)
    # Given None, policy iteration and the gate each build the table at t,
    # the first freed before the second: one alive at a time.
    del table
    last = None
    if intervention is None:
        last = StepStart(u, reward, t, *found)
        intervention = InterventionTable(problem, grid, controls, t)
    res = residual(u, rhs_base, time_weight, best, intervention.apply(u).values, epsilon)
    diag.final_residual = float(np.abs(res).max())
    if diag.final_residual > RESIDUAL_TOL:
        raise NonConvergenceError(
            f"{where}: residual {diag.final_residual:.3g} exceeds "
            f"RESIDUAL_TOL {RESIDUAL_TOL:.3g}",
            history=diag.updates,
        )
    return u, policy, diag, last


def penalty_timestep(u_next, t, grid, problem, controls, band, epsilon, intervention=None,
                     memo=None, start=None) -> tuple[np.ndarray, PenaltyPolicy,
                                                     TimestepDiagnostics, StepStart | None]:
    """(u^n, policy, diagnostics, start) of one implicit timestep by policy
    iteration, its residual at most ``RESIDUAL_TOL``; ``band`` is the
    :func:`_control_band`.  A solve passes every step the same
    :class:`SystemMemo`, so that a step whose system repeats the one before
    reuses it; None gives the step its own.  It also passes each step the
    :class:`StepStart` the step before returned, from which the step starts
    where that is the policy a fresh improvement would find
    (:func:`_solve_step`)."""
    u_next = np.asarray(u_next, dtype=float)
    return _solve_step(u_next, u_next / grid.dt, 1.0 / grid.dt, t, grid, problem, controls,
                       band, epsilon, intervention, time_index=int(round(t / grid.dt)),
                       where="penalty timestep", memo=memo or SystemMemo(), start=start)


def solve_finite_horizon(problem: ProblemSpec, grid: SpaceTimeGrid,
                         controls: DiscreteControls | None = None,
                         cfg: SolverConfig | None = None) -> Solution:
    """:func:`solution.backward_induction` of :func:`penalty_timestep` from
    u^N = g, with one :func:`_control_band` and one :class:`SystemMemo` for
    every step, each step given the :class:`StepStart` of the one before."""
    require_time_axis(problem, grid)
    controls = controls or discretize_controls(problem, grid.rho)
    epsilon = default_epsilon(grid, cfg or SolverConfig())

    band = _control_band(grid, problem, controls)
    diagnostics = SolveDiagnostics(control_rows=band.index.shape[0])
    memo, start = SystemMemo(), None

    def step(u_next, n):
        nonlocal start
        u, policy, step_diag, start = penalty_timestep(u_next, n * grid.dt, grid, problem,
                                                       controls, band, epsilon, memo=memo,
                                                       start=start)
        diagnostics.record_step(step_diag)
        return u, policy

    surface, policies = backward_induction(
        grid, eval_on(problem.terminal_reward, grid.nodes), step)
    return Solution(grid=grid, scheme="penalty", surface=surface, policies=policies,
                    diagnostics=diagnostics, epsilon=epsilon)


def solve_infinite_horizon(problem: ProblemSpec, grid: SpaceTimeGrid,
                           controls: DiscreteControls | None = None,
                           cfg: SolverConfig | None = None) -> Solution:
    """Stationary discounted equations on a grid with no time axis (N = 0),
    solved by policy iteration from u = 0."""
    require_time_axis(problem, grid, stationary=True)
    controls = controls or discretize_controls(problem, grid.rho)
    epsilon = default_epsilon(grid, cfg or SolverConfig())

    zeros = np.zeros(grid.n_nodes)
    band = _control_band(grid, problem, controls)
    u, policy, step_diag, _ = _solve_step(zeros, zeros, problem.discount, 0.0, grid, problem,
                                          controls, band, epsilon, None, time_index=0,
                                          where="stationary solve", memo=SystemMemo())
    diagnostics = SolveDiagnostics(control_rows=band.index.shape[0])
    diagnostics.record_step(step_diag)
    return Solution(grid=grid, scheme="penalty", surface=u[np.newaxis, :],
                    policies=[policy], diagnostics=diagnostics, epsilon=epsilon)


def monotonicity_row(problem, grid, controls, epsilon, t):
    """``row(j, u_n, u_next, obstacle_value)``: the :func:`residual` the solve
    is gated on at node j (stationary, ``u_next`` unused, when discounted), with
    (Mu)_j = ``obstacle_value`` at every node: the scheme as a function of the
    off-node values, for the monotonicity checker.  The :func:`_control_band`
    and the :func:`_reward_block` at t are built once, here."""
    band = _control_band(grid, problem, controls)
    reward = _reward_block(t, grid, problem, controls, band)

    def row(j, u_n, u_next, obstacle_value) -> float:
        u_n = np.asarray(u_n, dtype=float)
        if problem.finite_horizon:
            rhs_base, time_weight = np.asarray(u_next, dtype=float) / grid.dt, 1.0 / grid.dt
        else:
            rhs_base, time_weight = 0.0, problem.discount
        best = _best_control(u_n, band.parts, reward)[0]
        return float(residual(u_n, rhs_base, time_weight, best, obstacle_value,
                              epsilon)[grid.offset(j)])
    return row
