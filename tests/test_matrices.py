from collections import deque
from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse as sp

from hjbqvi import penalty as penalty_mod
from hjbqvi.grid import build_boundary_refined_grid, build_uniform_grid
from hjbqvi.matrices import _REL_TOL, MatrixReport, analyze_matrix
from hjbqvi.operators import discretize_controls
from hjbqvi.penalty import solve_finite_horizon
from hjbqvi.problem import builtin
from hjbqvi.semilag import assemble_A


# Rows 0-1 chain to the strict row 0; rows 2-3 are weakly dominant but stranded.
STRANDED = np.array([
    [2.0, -1.0, 0.0, 0.0],
    [-1.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, -1.0],
    [0.0, 0.0, -1.0, 1.0],
])


def reference_analyze(matrix) -> MatrixReport:
    """The structure check written with scipy matrix operations:
    ``abs(A).sum(axis=1)`` for the row sums and ``A.tocoo()`` for the signs."""
    A = matrix.tocsr() if sp.issparse(matrix) else sp.csr_matrix(np.asarray(matrix, dtype=float))
    n = A.shape[0]
    diag = A.diagonal()
    off_sum = np.asarray(abs(A).sum(axis=1)).ravel() - np.abs(diag)
    scale = np.abs(diag) + off_sum + 1.0
    margin = np.abs(diag) - off_sum

    sign_ok, sign_witness = True, None
    if np.any(diag <= 0.0):
        i = int(np.argmin(diag))
        sign_ok, sign_witness = False, f"nonpositive diagonal {diag[i]:.3g} in row {i}"
    else:
        coo = A.tocoo()
        bad = (coo.row != coo.col) & (coo.data > _REL_TOL * scale[coo.row])
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            sign_ok = False
            sign_witness = (
                f"positive off-diagonal {coo.data[k]:.3g} at ({coo.row[k]}, {coo.col[k]})"
            )

    weak = margin >= -_REL_TOL * scale
    strict = margin > _REL_TOL * scale
    weak_ok = bool(weak.all())
    weak_witness = None
    if not weak_ok:
        i = int(np.argmin(margin / scale))
        weak_witness = f"row {i} not weakly dominant (margin {margin[i]:.3g})"

    reachable = strict.copy()
    if weak_ok and not strict.all():
        AT = A.T.tocsr()
        queue = deque(np.flatnonzero(strict))
        while queue:
            col = queue.popleft()
            for row in AT.indices[AT.indptr[col]:AT.indptr[col + 1]]:
                if row != col and not reachable[row]:
                    reachable[row] = True
                    queue.append(row)
    wcdd_ok = weak_ok and bool(reachable.all())
    wcdd_witness = None
    if weak_ok and not wcdd_ok:
        wcdd_witness = (f"rows {np.flatnonzero(~reachable).tolist()} "
                        "have no chain to a strictly dominant row")

    witness = sign_witness if not sign_ok else weak_witness if not weak_ok else wcdd_witness
    return MatrixReport(
        size=n, sign_pattern_ok=sign_ok, weakly_dominant_ok=weak_ok, wcdd_ok=wcdd_ok,
        strictly_dominant_ok=bool(strict.all()),
        min_margin=float(margin.min()) if n else 0.0,
        strict_rows=int(strict.sum()), witness=witness,
    )


def assert_same_report(matrix):
    got, want = analyze_matrix(matrix), reference_analyze(matrix)
    for f in fields(MatrixReport):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, float):
            assert type(a) is float and np.float64(a).tobytes() == np.float64(b).tobytes(), f.name
        elif f.name == "witness":
            assert (a is None) == (b is None) and str(a) == str(b)
        else:
            assert a == b, f.name
    return got


def penalty_systems(monkeypatch, M):
    """Every system a cash penalty solve checks, captured at the check."""
    captured = []
    check = penalty_mod.analyze_matrix

    def capture(matrix):
        captured.append(matrix.copy())
        return check(matrix)

    monkeypatch.setattr(penalty_mod, "analyze_matrix", capture)
    p = builtin("cash")
    g = build_uniform_grid(Q=4, M=M, N=3 * M // 4, T=p.horizon)
    solve_finite_horizon(p, g, discretize_controls(p, g.rho))
    monkeypatch.undo()
    return captured


def dominant(n, rng, density=0.4):
    """A random nonsingular M-matrix: negative off-diagonals, dominant diagonal."""
    off = -rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < density)
    np.fill_diagonal(off, 0.0)
    return off + np.diag(-off.sum(axis=1) + rng.uniform(0.0, 1.0, n))


def non_canonical(dense, rng):
    """CSR of ``dense`` with each row's entries shuffled and one split in two."""
    data, indices, indptr = [], [], [0]
    for row in dense:
        cols = np.flatnonzero(row)
        rng.shuffle(cols)
        for col in cols:
            if col == cols[0]:
                share = rng.uniform(0.2, 0.8)
                data += [share * row[col], (1.0 - share) * row[col]]
                indices += [col, col]
            else:
                data.append(row[col])
                indices.append(col)
        indptr.append(len(data))
    A = sp.csr_matrix((np.array(data), np.array(indices), np.array(indptr)), shape=dense.shape)
    assert not A.has_canonical_format
    return A


class TestAnalyzeMatrixMatchesReference:
    """Every report field equals that of the scipy-operation reference,
    floats byte for byte and witnesses as strings."""

    @pytest.mark.parametrize("M", [10, 20])
    def test_penalty_systems_of_a_cash_solve(self, monkeypatch, M):
        systems = penalty_systems(monkeypatch, M)
        assert len(systems) > 0
        assert any(s.nnz > 3 * s.shape[0] - 4 for s in systems)   # jump couplings present
        for matrix in systems:
            assert assert_same_report(matrix).passed

    @pytest.mark.parametrize("grid", [
        build_uniform_grid(Q=4, M=16, N=8, T=1),
        build_boundary_refined_grid(Q=4, rho=0.1, c_b=1.0, N=20, T=1),
    ], ids=["uniform", "refined"])
    def test_semi_lagrangian_matrix(self, grid):
        p = builtin("cash")
        report = assert_same_report(assemble_A(grid, p, discretize_controls(p, grid.rho)))
        assert report.passed and report.strictly_dominant_ok

    def test_non_canonical_csr(self):
        rng = np.random.default_rng(7)
        dense = dominant(30, rng)
        A = non_canonical(dense, rng)
        assert assert_same_report(A).passed
        bad = dense.copy()
        bad[3, 17] = 0.5                      # one positive off-diagonal
        assert "(3, 17)" in assert_same_report(non_canonical(bad, rng)).witness

    def test_coo_and_dense_inputs(self):
        rng = np.random.default_rng(8)
        dense = dominant(25, rng, density=0.9)   # long rows: reduceat sums pairwise
        coo = sp.coo_matrix(dense)
        doubled = sp.coo_matrix((np.concatenate([coo.data, coo.data]) / 2.0,
                                 (np.tile(coo.row, 2), np.tile(coo.col, 2))), shape=coo.shape)
        for matrix in (dense, coo, doubled, sp.csc_matrix(dense)):
            assert assert_same_report(matrix).passed

    @pytest.mark.parametrize("matrix, flag, phrase", [
        (np.array([[2.0, -1.0], [-1.0, -0.5]]), "sign_pattern_ok", "nonpositive diagonal"),
        (sp.csr_matrix((np.array([2.0]), np.array([0]), np.array([0, 1, 1])), shape=(2, 2)),
         "sign_pattern_ok", "nonpositive diagonal"),   # an empty row
        (np.array([[2.0, 0.5], [0.0, 2.0]]), "sign_pattern_ok", "positive off-diagonal"),
        (np.array([[2.0, -1.0, 0.0], [-1.0, 1.5, -1.0], [0.0, -1.0, 2.0]]),
         "weakly_dominant_ok", "not weakly dominant"),
        (STRANDED, "wcdd_ok", "rows [2, 3] have no chain to a strictly dominant row"),
    ], ids=["negative-diagonal", "empty-row", "positive-off-diagonal", "not-dominant",
            "stranded-chain"])
    def test_one_matrix_per_failure_kind(self, matrix, flag, phrase):
        report = assert_same_report(matrix)
        assert not report.passed and not getattr(report, flag)
        assert phrase in report.witness
