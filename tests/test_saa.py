import numpy as np
import pytest

import hypermarg.saa
from hypermarg import Box, tomo_problem
from hypermarg.objective import eval_F_exact
from hypermarg.saa import saa_optimize

from test_objective import noise_only_problem


class TestSaaOptimize:
    def test_matches_closed_form_on_scaled_identity(self):
        # With Psi = theta_1 I every Lanczos quadform is exact, so the
        # fixed-sample surface coincides with F and the minimizer is
        # |b|^2 / m in closed form.
        b = np.array([1.0, 3.0, -2.0, 1.0, 2.0, -1.0])
        problem = noise_only_problem(
            b, box=Box(np.array([0.05]), np.array([30.0]))
        )
        target = float(b @ b) / b.size
        out = saa_optimize(
            problem,
            theta0=np.array([10.0]),
            n_probes=8,
            k_steps=6,
            max_iters=400,
            tol=1e-10,
            grad_eps=1e-7,
            pcg_tol=1e-12,
        )
        assert out.converged
        assert abs(out.theta[0] - target) < 1e-6 * target

    def test_descends_fixed_surface_and_true_objective(self):
        problem = tomo_problem(s=5, n_src=4, n_rec=6, seed=6)
        theta0 = problem.box.center()
        f0 = eval_F_exact(problem, theta0).value
        out = saa_optimize(
            problem, theta0=theta0, n_probes=16, k_steps=20, seed=0,
            max_iters=40, tol=1e-8,
        )
        segment_values = [rec.f_hat for rec in out.records]
        for prev, cur in zip(segment_values, segment_values[1:]):
            assert cur <= prev + 1e-9 * max(1.0, abs(prev))
        assert eval_F_exact(problem, out.theta).value < f0
        # one fixed surface throughout: the returned value is its value at
        # the returned point, the last segment's
        assert out.f_value == segment_values[-1]

    def test_deterministic_given_seed(self):
        problem_a = tomo_problem(s=4, n_src=3, n_rec=5, seed=2)
        problem_b = tomo_problem(s=4, n_src=3, n_rec=5, seed=2)
        kw = dict(n_probes=8, k_steps=10, seed=3, max_iters=15)
        out_a = saa_optimize(problem_a, **kw)
        out_b = saa_optimize(problem_b, **kw)
        np.testing.assert_array_equal(out_a.theta, out_b.theta)
        assert out_a.f_value == out_b.f_value
        out_c = saa_optimize(problem_a, **{**kw, "seed": 4})
        assert np.any(out_c.theta != out_a.theta)

    def test_each_theta_evaluated_once(self, monkeypatch):
        # finite-difference base points and segment restarts revisit thetas
        # the run has already evaluated; they must not cost a second solve
        problem = tomo_problem(s=4, n_src=3, n_rec=5, seed=2)
        thetas = []
        real = hypermarg.saa.eval_F_slq

        def spy(problem, theta, *args, **kwargs):
            thetas.append(np.asarray(theta).tobytes())
            return real(problem, theta, *args, **kwargs)

        monkeypatch.setattr(hypermarg.saa, "eval_F_slq", spy)
        before = problem.counters.snapshot()
        out = saa_optimize(
            problem, n_probes=8, k_steps=10, seed=3, max_iters=15, segment_iters=5
        )
        assert len(out.records) == 3
        assert len(thetas) == out.fn_evals
        assert out.fn_evals == sum(rec.fn_evals for rec in out.records)
        assert out.fn_evals == len(set(thetas))
        # nothing is applied after the last record
        assert problem.counters.snapshot() == out.records[-1].counters
        assert out.records[-1].counters != before

    def test_nonpositive_iteration_counts_raise(self):
        problem = tomo_problem(s=4, n_src=3, n_rec=5, seed=2)
        with pytest.raises(ValueError, match="positive"):
            saa_optimize(problem, max_iters=0)
        with pytest.raises(ValueError, match="positive"):
            saa_optimize(problem, segment_iters=0)

    def test_start_outside_box_raises(self):
        problem = tomo_problem(s=4, n_src=3, n_rec=5, seed=2)
        with pytest.raises(ValueError, match="box"):
            saa_optimize(problem, theta0=problem.box.upper + 1.0)
