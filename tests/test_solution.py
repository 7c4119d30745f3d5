from dataclasses import fields

import numpy as np
import pytest

from hjbqvi.grid import build_uniform_grid
from hjbqvi.solution import SolverConfig, backward_induction


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
