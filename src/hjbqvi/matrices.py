"""Structural checks for the assembled linear systems.

The schemes rely on monotone (M-matrix) structure: positive diagonal,
nonpositive off-diagonal entries, and weakly chained diagonal dominance
(WCDD): every row weakly diagonally dominant and every row connected,
through the directed sparsity graph, to a strictly dominant row.  WCDD
implies nonsingularity, which is what makes the per-timestep policy systems
uniquely solvable.  A system solved more than once is factorised once
(:func:`factorise`), with solves that match ``spsolve`` bit for bit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .exceptions import SolverError

# Relative slack distinguishing "strict" from float noise.
_REL_TOL = 1e-12


@dataclass
class MatrixReport:
    size: int
    sign_pattern_ok: bool
    weakly_dominant_ok: bool
    wcdd_ok: bool
    strictly_dominant_ok: bool
    min_margin: float           # min over rows of |diag| - sum |offdiag|
    strict_rows: int
    witness: str | None = None

    @property
    def passed(self) -> bool:
        """Monotone sign pattern plus WCDD (the penalty-system requirement)."""
        return self.sign_pattern_ok and self.weakly_dominant_ok and self.wcdd_ok

    def __str__(self):
        status = "pass" if self.passed else f"FAIL ({self.witness})"
        return (
            f"matrix {self.size}x{self.size}: {status}; "
            f"min margin {self.min_margin:.3g}, strict rows {self.strict_rows}/{self.size}"
        )


def _as_csr(matrix) -> sp.csr_matrix:
    if sp.issparse(matrix):
        return matrix.tocsr()
    return sp.csr_matrix(np.asarray(matrix, dtype=float))


def analyze_matrix(matrix) -> MatrixReport:
    """Sign pattern, row dominance and WCDD chain reachability.

    Accepts a dense array or any scipy sparse matrix, and reads its CSR
    arrays directly, one stored entry at a time (duplicate and unsorted
    indices included).  Row sums of |a_ij| use ``np.add.reduceat``, the
    order of scipy's ``abs(A).sum(axis=1)``, so the margins match it bit for
    bit.  Reachability is a breadth-first search from the strictly dominant
    rows along reversed off-diagonal edges (row i depends on column k when
    a_ik != 0).
    """
    A = _as_csr(matrix)
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got {A.shape}")
    diag = A.diagonal()
    abs_diag = np.abs(diag)
    counts = np.diff(A.indptr)
    stored = np.flatnonzero(counts)
    abs_sum = np.zeros(n)
    abs_sum[stored] = np.add.reduceat(np.abs(A.data), A.indptr[stored])
    off_sum = abs_sum - abs_diag
    scale = abs_diag + off_sum + 1.0
    margin = abs_diag - off_sum

    sign_ok = True
    sign_witness = None
    if np.any(diag <= 0.0):
        i = int(np.argmin(diag))
        sign_ok, sign_witness = False, f"nonpositive diagonal {diag[i]:.3g} in row {i}"
    else:
        rows = np.repeat(np.arange(n), counts)
        bad = (A.indices != rows) & (A.data > _REL_TOL * scale[rows])
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            sign_ok = False
            sign_witness = (
                f"positive off-diagonal {A.data[k]:.3g} at ({rows[k]}, {A.indices[k]})"
            )

    weak = margin >= -_REL_TOL * scale
    strict = margin > _REL_TOL * scale
    weak_ok = bool(weak.all())
    weak_witness = None
    if not weak_ok:
        i = int(np.argmin(margin / scale))
        weak_witness = f"row {i} not weakly dominant (margin {margin[i]:.3g})"

    # BFS from strict rows along reversed edges of the sparsity digraph.
    reachable = strict.copy()
    if weak_ok and not strict.all():
        AT = A.T.tocsr()
        queue = deque(np.flatnonzero(strict))
        while queue:
            col = queue.popleft()
            start, stop = AT.indptr[col], AT.indptr[col + 1]
            for row in AT.indices[start:stop]:
                if row != col and not reachable[row]:
                    reachable[row] = True
                    queue.append(row)
    wcdd_ok = weak_ok and bool(reachable.all())
    wcdd_witness = None
    if weak_ok and not wcdd_ok:
        stranded = np.flatnonzero(~reachable)
        wcdd_witness = (
            f"rows {stranded.tolist()} have no chain to a strictly dominant row"
        )

    witness = None
    if not sign_ok:
        witness = sign_witness
    elif not weak_ok:
        witness = weak_witness
    elif not wcdd_ok:
        witness = wcdd_witness

    return MatrixReport(
        size=n,
        sign_pattern_ok=sign_ok,
        weakly_dominant_ok=weak_ok,
        wcdd_ok=wcdd_ok,
        strictly_dominant_ok=bool(strict.all()),
        min_margin=float(margin.min()) if n else 0.0,
        strict_rows=int(strict.sum()),
        witness=witness,
    )


def factorise(A: sp.csr_matrix, name: str):
    """``solve(rhs)``, the solution of A u = rhs, from one SuperLU factorisation.

    The CSR arrays of A are the CSC arrays of its transpose.  Factorising
    A^T and solving the transposed system is what scipy's spsolve does with
    a CSR matrix, so each solve matches spsolve bit for bit.  A singular
    matrix, which spsolve would answer with NaN, is a SolverError naming the
    matrix by ``name``.
    """
    try:
        lu = splu(A.T.tocsc())
    except RuntimeError as exc:
        raise SolverError(f"{name} is singular ({exc}); its solve "
                          "would return non-finite values") from exc
    return partial(lu.solve, trans="T")
