import time

import numpy as np
import pytest

import hypermarg.saa
from hypermarg import Box, make_test_problem, tomo_problem
from hypermarg.objective import eval_F_exact
from hypermarg.operators import NumericalError
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
        values = [rec.f_hat for rec in out.records]
        assert len(values) == out.iterations
        for prev, cur in zip(values, values[1:]):
            assert cur <= prev + 1e-9 * max(1.0, abs(prev))
        assert eval_F_exact(problem, out.theta).value < f0
        # one fixed surface throughout: the returned value is its value at
        # the returned point, the last record's
        assert out.f_value == values[-1]

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
        # the gradient at an accepted point reads that point's evaluation;
        # it must not cost a second solve of the same theta
        problem = tomo_problem(s=4, n_src=3, n_rec=5, seed=2)
        thetas = []
        real = hypermarg.saa.eval_F_slq

        def spy(problem, theta, *args, **kwargs):
            thetas.append(np.asarray(theta).tobytes())
            return real(problem, theta, *args, **kwargs)

        monkeypatch.setattr(hypermarg.saa, "eval_F_slq", spy)
        before = problem.counters.snapshot()
        out = saa_optimize(problem, n_probes=8, k_steps=10, seed=3, max_iters=15)
        assert len(out.records) == out.iterations > 1
        assert len(thetas) == out.fn_evals
        assert out.fn_evals == sum(rec.fn_evals for rec in out.records)
        assert out.fn_evals == len(set(thetas))
        # nothing is applied after the last record
        assert problem.counters.snapshot() == out.records[-1].counters
        assert out.records[-1].counters != before

    def test_gradient_work_is_on_the_ledger(self, monkeypatch):
        # Every Psi application of a run is an evaluation's (Lanczos and CG)
        # or a gradient's (its reverse pass, one per Lanczos step after the
        # first), and fn_evals counts the evaluations alone.
        problem = tomo_problem(s=4, n_src=3, n_rec=5, seed=2)
        real_eval, real_grad = hypermarg.saa.eval_F_slq, hypermarg.saa.grad_F_slq
        charged = {"eval": 0, "grad": 0}
        calls = {"eval": 0, "grad": 0}

        def counted(kind, real):
            def call(*args, **kwargs):
                start = problem.counters.psi.count
                out = real(*args, **kwargs)
                charged[kind] += problem.counters.psi.count - start
                calls[kind] += 1
                return out

            return call

        monkeypatch.setattr(hypermarg.saa, "eval_F_slq", counted("eval", real_eval))
        monkeypatch.setattr(hypermarg.saa, "grad_F_slq", counted("grad", real_grad))
        before = problem.counters.psi.count
        out = saa_optimize(problem, n_probes=8, k_steps=10, seed=3, max_iters=15)
        assert calls["eval"] == out.fn_evals
        assert 1 < calls["grad"] == out.iterations < out.fn_evals
        assert charged["grad"] >= calls["grad"] * 8 * (10 - 1) > 0
        assert out.records[-1].counters["psi"] - before == charged["eval"] + charged["grad"]

    def test_converges_from_the_symmetric_deblur_center(self):
        # At this box center (l2 = 0, l1 = l3) Psi has repeated eigenvalues
        # and F_hat dips about 1e-10 below its neighbours; the exact gradient
        # there is not the slope nearby, and the run must still converge.
        problem = make_test_problem("deblur", s=8, seed=0)
        out = saa_optimize(problem, theta0=problem.box.center(), n_probes=16)
        assert out.converged
        assert out.f_value <= -66.510111 + 1e-6

    def test_failed_trial_solve_is_backtracked_from(self, monkeypatch):
        # Psi = theta_1 I, with the evaluations in a region of theta failing
        # as an unconverged misfit solve does.
        b = np.array([1.0, 3.0, -2.0, 1.0, 2.0, -1.0])
        problem = noise_only_problem(b, box=Box(np.array([0.05]), np.array([30.0])))
        real = hypermarg.saa.eval_F_slq
        failed = []

        def failing(region):
            def evaluate(problem, theta, *args, **kwargs):
                if region(theta[0]):
                    failed.append(float(theta[0]))
                    raise NumericalError("misfit solve stalled")
                return real(problem, theta, *args, **kwargs)

            return evaluate

        kw = dict(n_probes=8, k_steps=6, max_iters=400, tol=1e-10, pcg_tol=1e-12)
        # The minimizer |b|^2 / m = 10/3 lies above 2, and the first line
        # search from 10 tries 0.96: that trial is inf, the search backtracks,
        # and the run still converges.
        monkeypatch.setattr(hypermarg.saa, "eval_F_slq", failing(lambda t: t < 2.0))
        out = saa_optimize(problem, theta0=np.array([10.0]), **kw)
        assert failed and out.converged
        assert out.failed_trials == len(failed)
        assert abs(out.theta[0] - 10.0 / 3.0) < 1e-6
        # a failure at the start point is an error
        with pytest.raises(NumericalError, match="misfit solve"):
            saa_optimize(problem, theta0=np.array([1.0]), **kw)

    def test_quick_start_converges_within_max_iters(self):
        # Before the box minimizer moved the positive parameters in log
        # theta, this run stopped at its cap of 100 iterations.
        t0 = time.time()
        problem = make_test_problem("tomo", s=8, n_src=8, n_rec=9, seed=0)
        out = saa_optimize(problem, n_probes=16, seed=0, max_iters=100)
        assert out.converged and out.iterations < 100
        assert time.time() - t0 < 60, "runtime budget of 60 s exceeded"

    def test_nonpositive_iteration_counts_raise(self):
        problem = tomo_problem(s=4, n_src=3, n_rec=5, seed=2)
        with pytest.raises(ValueError, match="positive"):
            saa_optimize(problem, max_iters=0)

    def test_start_outside_box_raises(self):
        problem = tomo_problem(s=4, n_src=3, n_rec=5, seed=2)
        with pytest.raises(ValueError, match="box"):
            saa_optimize(problem, theta0=problem.box.upper + 1.0)
