from dataclasses import fields, replace

import numpy as np
import pytest

from hjbqvi.grid import build_uniform_grid
from hjbqvi.operators import discretize_controls
from hjbqvi.oracle import solve_iterated_optimal_stopping
from hjbqvi.penalty import solve_finite_horizon
from hjbqvi.problem import builtin
from hjbqvi.semilag import solve_semi_lagrangian
from hjbqvi.solution import PenaltyPolicy, SolverConfig, backward_induction

SOLVERS = {"penalty": solve_finite_horizon, "semilagrangian": solve_semi_lagrangian,
           "ios": solve_iterated_optimal_stopping}


def cash_problems():
    """Cash, whose tables take the reset layout; its twin with an undeclared
    shift, whose tables take the block layout; and cash resetting to z = 0
    from bounds (0.0 * x, 0.0 * x), whose candidate rows are equal in value
    but -0.0 at x < 0, so the reset tables read row 0 of a nodes x 1 block."""
    cash = builtin("cash")
    return {"cash": cash,
            "undeclared": replace(cash, impulse_shift=lambda t, x, z: cash.impulse_shift(t, x, z)),
            "signed-zero": replace(cash, impulse_bounds=lambda t, x: (0.0 * x, 0.0 * x))}


def footprint(table: np.ndarray) -> int:
    """Bytes a value table holds: one row for a broadcast block."""
    return table[0].nbytes if table.strides[0] == 0 else table.nbytes


class TestBackwardInduction:
    def test_recording_step(self):
        g = build_uniform_grid(Q=2, M=3, N=4, T=1)
        terminal = np.linspace(-1.0, 1.0, g.n_nodes)
        calls, returned = [], []

        def step(u_next, n):
            calls.append((n, u_next))
            u = u_next + 1.0
            returned.append(u)
            return u, f"policy {n}"

        surface, policies = backward_induction(g, terminal, step)

        assert [n for n, _ in calls] == [3, 2, 1, 0]
        assert np.array_equal(calls[0][1], terminal)
        for (_, u_next), previous in zip(calls[1:], returned):
            assert u_next is previous
        assert surface.shape == (g.N + 1, g.n_nodes)
        assert surface[g.N].tobytes() == terminal.tobytes()
        assert policies == ["policy 0", "policy 1", "policy 2", "policy 3", None]
        for (n, _), u in zip(calls, returned):
            assert surface[n].tobytes() == u.tobytes()
            assert not np.shares_memory(surface[n], u)
            u += 100.0
            assert surface[n].tobytes() != u.tobytes()


class TestSolverConfig:
    @pytest.mark.parametrize("field", ["c_eps"])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_tolerances_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite and positive"):
            SolverConfig(**{field: value})

    def test_c_eps_is_the_one_setting(self):
        assert [f.name for f in fields(SolverConfig)] == ["c_eps"]
        assert SolverConfig().c_eps == 1.0


class TestStoredPolicies:
    """A solution keeps each step's policy as indices into shared value tables."""

    @pytest.mark.parametrize("scheme", list(SOLVERS))
    def test_at_most_seven_bytes_per_node(self, scheme):
        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=10, N=8, T=3)
        c = discretize_controls(p, g.rho)
        policies = [q for q in SOLVERS[scheme](p, g, c).policies if q is not None]
        nodes = sum(q.intervene.size for q in policies)
        owned = sum(a.nbytes for q in policies
                    for a in (q.control_rows, q.intervene, q.impulse_columns))
        tables = {id(t): t for q in policies for t in (q.control_values, q.candidates)}
        shared = sum(footprint(t) for t in tables.values())
        assert owned <= 7 * nodes
        # One control sample and one candidate row, each counted once.
        K = c.impulse_values(0.0, g.nodes).shape[1]
        assert shared <= 8 * (c.controls.size + K)
        for q in policies:
            assert q.control_values is c.controls
            assert q.control_rows.dtype == np.min_scalar_type(c.controls.size - 1)
            assert q.impulse_columns.dtype == np.int32

    def test_reset_levels_hold_one_candidate_row(self):
        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=10, N=8, T=3)
        c = discretize_controls(p, g.rho)
        policies = solve_finite_horizon(p, g, c).policies[:-1]
        for n in range(g.N + 1):
            block = c.impulse_values(n * g.dt, g.nodes)
            assert block.shape == (g.n_nodes, block.shape[1]) and block.base.size == block.shape[1]
        assert {id(q.candidates) for q in policies} == {id(c.impulse_values(0.0, g.nodes))}

    @pytest.mark.parametrize("scheme", list(SOLVERS))
    @pytest.mark.parametrize("name", list(cash_problems()))
    def test_values_match_a_value_storing_reference(self, monkeypatch, name, scheme):
        # Each policy's values as a record that stores them keeps them: the
        # controls its rows pick and the impulses its jump result computed,
        # copied when the policy is built.  A second solve on the same
        # controls runs before the comparison, so shared tables that changed
        # later would show.
        built = {}
        chosen = PenaltyPolicy.chosen.__func__

        def recording(cls, control_values, rows, intervene, jump):
            policy = chosen(cls, control_values, rows, intervene, jump)
            built[id(policy)] = (policy, control_values[rows].copy(), jump.impulses.copy())
            return policy

        monkeypatch.setattr(PenaltyPolicy, "chosen", classmethod(recording))
        p = cash_problems()[name]
        g = build_uniform_grid(Q=4, M=10, N=8, T=3)
        c = discretize_controls(p, g.rho)
        sol = SOLVERS[scheme](p, g, c)
        SOLVERS[scheme](p, g, c)
        policies = sol.policies[:-1]
        for q in policies:
            stored, controls, impulses = built[id(q)]
            assert stored is q
            assert q.controls.tobytes() == controls.tobytes()
            assert q.impulses.tobytes() == impulses.tobytes()
        if scheme != "ios":
            assert any(q.intervene.any() for q in policies)

    def test_same_as_compares_values_across_tables(self):
        n = 4
        rows, intervene = np.array([0, 1, 1, 0]), np.array([False, True, True, False])
        columns = np.array([-1, 1, 0, -1])
        a = PenaltyPolicy(rows, intervene, columns, np.array([-1.0, 1.0]),
                          np.broadcast_to([0.0, 0.5], (n, 2)))
        b = PenaltyPolicy(rows, intervene, columns[[0, 2, 1, 3]], np.array([-1.0, 1.0]),
                          np.broadcast_to([0.5, 0.0], (n, 2)))
        assert a.same_as(b) and b.same_as(a)
        assert not a.same_as(replace(a, impulse_columns=columns[[0, 2, 1, 3]]))
        assert not a.same_as(replace(b, control_rows=1 - rows))
        assert a.impulses.tobytes() == np.array([np.nan, 0.5, 0.0, np.nan]).tobytes()
        assert a.controls.tolist() == [-1.0, 1.0, 1.0, -1.0]
