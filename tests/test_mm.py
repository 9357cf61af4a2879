import time

import numpy as np
import pytest

import hypermarg.mm
from hypermarg import (
    Box,
    ProblemSpec,
    deblur_problem,
    make_test_problem,
    superres_problem,
    tomo_problem,
)
from hypermarg.mm import (
    InnerResult,
    build_surrogate,
    exact_surrogate,
    exact_surrogate_grad,
    m3c_optimize,
    mm_optimize_exact,
    projected_gradient_min,
)
from hypermarg.objective import dense_objective_pieces, eval_F_exact, grad_F_exact
from hypermarg.operators import NumericalError
from hypermarg.probes import canonical_probes, rademacher_probes

from fd import grad_fd_central
from test_objective import noise_only_problem, relerr


def spy_probe_blocks(monkeypatch):
    """The probe block of every surrogate m3c builds, in order."""
    blocks = []
    real = hypermarg.mm.build_surrogate

    def spy(problem, theta_t, probes, *args, **kwargs):
        blocks.append(probes.w.copy())
        return real(problem, theta_t, probes, *args, **kwargs)

    monkeypatch.setattr(hypermarg.mm, "build_surrogate", spy)
    return blocks


class TestExactSurrogate:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: deblur_problem(s=6, seed=1),
            lambda: tomo_problem(s=6, n_src=5, n_rec=6, seed=1),
        ],
        ids=["deblur", "tomo"],
    )
    def test_tangent_at_anchor(self, make):
        problem = make()
        theta_t = problem.theta_true
        g = exact_surrogate(problem, theta_t, theta_t)
        f = eval_F_exact(problem, theta_t).value
        assert abs(g - f) < 1e-10 * max(1.0, abs(f))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: deblur_problem(s=6, seed=1),
            lambda: tomo_problem(s=6, n_src=5, n_rec=6, seed=1),
        ],
        ids=["deblur", "tomo"],
    )
    def test_dominates_objective(self, make):
        problem = make()
        rng = np.random.default_rng(42)
        # uniform over the box shrunk by a tenth of its span per side
        span = problem.box.upper - problem.box.lower
        lo = problem.box.lower + 0.1 * span
        for _ in range(3):
            theta_t = lo + 0.8 * span * rng.random(problem.p)
            for _ in range(50):
                theta = lo + 0.8 * span * rng.random(problem.p)
                g = exact_surrogate(problem, theta, theta_t)
                f = eval_F_exact(problem, theta).value
                assert g >= f - 1e-9 * max(1.0, abs(f))

    def test_scaled_anchor_gap_closed_form(self):
        # With Psi(theta) = theta_1 I the anchor at 1 gives
        # G - F = (m/2) (c - 1 - ln c) at theta_1 = c.
        problem = noise_only_problem(np.zeros(7))
        theta_t = np.array([1.0])
        for c in (0.3, 0.9, 1.0, 2.5):
            g = exact_surrogate(problem, np.array([c]), theta_t)
            f = eval_F_exact(problem, np.array([c])).value
            expected = 3.5 * (c - 1.0 - np.log(c))
            assert abs((g - f) - expected) < 1e-12

    def test_gradient_matches_finite_differences(self):
        # tomo has a fixed forward map; deblur and superres exercise the
        # forward-map (dA) terms of the gradient
        for problem in (
            tomo_problem(s=6, n_src=5, n_rec=6, seed=3),
            deblur_problem(s=8, seed=3),
            superres_problem(s=8, decim=2, frames=2, seed=3),
        ):
            theta_t = problem.theta_true
            theta = problem.box.project(1.15 * theta_t)
            g = exact_surrogate_grad(problem, theta, theta_t)
            g_fd = grad_fd_central(
                lambda th: exact_surrogate(problem, th, theta_t),
                theta,
                problem.box,
                eps_rel=1e-6,
            )
            assert relerr(g_fd, g) < 1e-5, problem.name


    def test_missing_forward_derivative_raises(self):
        problem = deblur_problem(s=6)
        broken = ProblemSpec(
            **{
                **problem.__dict__,
                "da_builders": (problem.da_builders[0], None, problem.da_builders[2]),
            }
        )
        theta_t = problem.theta_true
        with pytest.raises(ValueError, match="forward-map component 1"):
            exact_surrogate_grad(broken, theta_t, theta_t)


class TestStochasticSurrogate:
    def test_canonical_probes_reproduce_exact_surrogate_gradient(self):
        problem = tomo_problem(s=6, n_src=5, n_rec=6, seed=5)
        theta_t = problem.theta_true
        theta = problem.box.project(1.2 * theta_t)
        surrogate = build_surrogate(
            problem, theta_t, canonical_probes(problem.m), pcg_tol=1e-13
        )
        g_hat = surrogate.gradient(theta)
        g = exact_surrogate_grad(problem, theta, theta_t)
        assert relerr(g_hat, g) < 1e-7

    def test_canonical_probes_reproduce_exact_surrogate_value(self):
        # Up to the anchor constant (logdet Psi_t - m)/2, which the sampled
        # surrogate deliberately omits.
        problem = tomo_problem(s=6, n_src=5, n_rec=6, seed=5)
        theta_t = problem.theta_true
        theta = problem.box.project(0.8 * theta_t)
        surrogate = build_surrogate(
            problem, theta_t, canonical_probes(problem.m), pcg_tol=1e-13
        )
        psi_t = dense_objective_pieces(problem, theta_t).psi
        shift = 0.5 * (np.linalg.slogdet(psi_t)[1] - problem.m)
        g_hat = surrogate.value(theta) + shift
        g = exact_surrogate(problem, theta, theta_t)
        assert abs(g_hat - g) < 1e-7 * max(1.0, abs(g))

    def test_unbiased_over_probe_draws(self):
        problem = tomo_problem(s=4, n_src=3, n_rec=5, seed=7)
        theta_t = problem.theta_true
        theta = problem.box.project(1.3 * theta_t)
        psi_t = dense_objective_pieces(problem, theta_t).psi
        shift = 0.5 * (np.linalg.slogdet(psi_t)[1] - problem.m)
        target = exact_surrogate(problem, theta, theta_t)
        values = []
        for seed in range(150):
            probes = rademacher_probes(problem.m, 32, seed)
            surrogate = build_surrogate(problem, theta_t, probes, pcg_tol=1e-11)
            values.append(surrogate.value(theta) + shift)
        values = np.array(values)
        se = values.std(ddof=1) / np.sqrt(values.size)
        assert abs(values.mean() - target) < 5.0 * se + 1e-9

    def test_gradient_matches_finite_differences(self):
        problem = deblur_problem(s=6, seed=2)
        theta_t = problem.theta_true
        theta = problem.box.project(
            theta_t + np.array([0.2 * theta_t[0], 0.1, 0.05, 0.05, -0.05])
        )
        probes = rademacher_probes(problem.m, 8, seed=3)
        surrogate = build_surrogate(problem, theta_t, probes, pcg_tol=1e-12)
        g = surrogate.gradient(theta)
        g_fd = grad_fd_central(surrogate.value, theta, problem.box, eps_rel=1e-6)
        assert relerr(g_fd, g) < 1e-5

    def test_anchor_solve_failure_is_hard_error(self):
        problem = tomo_problem(s=6, n_src=5, n_rec=6, seed=1)
        probes = rademacher_probes(problem.m, 2, seed=0)
        with pytest.raises(NumericalError, match="anchor solve"):
            build_surrogate(
                problem, problem.theta_true, probes, pcg_tol=1e-14, pcg_maxit=1
            )

    def test_failed_trial_solve_is_inf_and_failed_anchor_solve_raises(self):
        problem = tomo_problem(s=6, n_src=5, n_rec=6, seed=1)
        theta_t = problem.theta_true
        probes = rademacher_probes(problem.m, 2, seed=0)
        surrogate = build_surrogate(problem, theta_t, probes, pcg_tol=1e-14)
        surrogate.pcg_maxit = 1
        trial = problem.box.project(1.1 * theta_t)
        assert surrogate.value(trial) == np.inf
        assert surrogate.failed_trials == 1
        with pytest.raises(NumericalError, match="misfit solve"):
            surrogate.value(theta_t)
        assert surrogate.failed_trials == 1

    def test_warm_started_value_matches_cold_within_cg_tolerance(self):
        problem = tomo_problem(s=6, n_src=5, n_rec=6, seed=5)
        theta_t = problem.theta_true
        tol = 1e-8
        first = problem.box.project(1.05 * theta_t)
        second = problem.box.project(1.05 * (1.0 + 1e-4) * theta_t)
        probes = rademacher_probes(problem.m, 4, seed=1)
        warm = build_surrogate(problem, theta_t, probes, pcg_tol=tol)
        cold = build_surrogate(problem, theta_t, probes, pcg_tol=tol)
        warm.value(first)
        iters_before = warm.pcg_iters
        cold_before = cold.pcg_iters
        v_warm = warm.value(second)
        v_cold = cold.value(second)
        assert warm.pcg_iters - iters_before < cold.pcg_iters - cold_before
        # each misfit c^T r is within ||c||^2 tol / lambda_min(Psi) of exact
        psi = dense_objective_pieces(problem, second).psi
        c = problem.residual_offset(second)
        bound = float(c @ c) * tol / np.linalg.eigvalsh(psi)[0]
        assert abs(v_warm - v_cold) <= bound

    def test_solved_block_attached_to_probes(self):
        # the surrogate pairs its probes with the only copy of Psi_t^{-1} W
        problem = tomo_problem(s=4, n_src=3, n_rec=5, seed=1)
        probes = rademacher_probes(problem.m, 5, seed=0)
        surrogate = build_surrogate(problem, problem.theta_true, probes, pcg_tol=1e-12)
        assert surrogate.probes is probes
        assert surrogate.z.shape == (problem.m, 5)
        psi = dense_objective_pieces(problem, problem.theta_true).psi
        resid = psi @ surrogate.z - probes.w
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(probes.w)
        assert not hasattr(probes, "z")


class TestNonzeroPriorMean:
    """The dA mu_x terms of the gradients, which no shipped problem reaches."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: deblur_problem(s=8, seed=6),
            lambda: superres_problem(s=8, decim=2, frames=2, seed=6),
        ],
        ids=["deblur", "superres"],
    )
    def test_gradients_match_differences_and_each_other(self, make):
        shipped = make()
        mu_x = 0.3 * np.random.default_rng(11).standard_normal(shipped.n)
        problem = ProblemSpec(**{**shipped.__dict__, "mu_x": mu_x})
        theta_t = problem.theta_true
        theta = problem.box.project(1.15 * theta_t)

        g_f = grad_F_exact(problem, theta)
        g_f_fd = grad_fd_central(
            lambda th: eval_F_exact(problem, th).value,
            theta,
            problem.box,
            eps_rel=1e-6,
        )
        assert relerr(g_f_fd, g_f) < 1e-5

        g = exact_surrogate_grad(problem, theta, theta_t)
        g_fd = grad_fd_central(
            lambda th: exact_surrogate(problem, th, theta_t),
            theta,
            problem.box,
            eps_rel=1e-6,
        )
        assert relerr(g_fd, g) < 1e-5

        surrogate = build_surrogate(
            problem, theta_t, canonical_probes(problem.m), pcg_tol=1e-12
        )
        assert relerr(surrogate.gradient(theta), g) < 1e-9


class TestProjectedGradient:
    def test_quadratic_converges_to_box_projection(self):
        box = Box(lower=np.zeros(2), upper=np.ones(2))
        a = np.array([2.0, -1.0])
        out = projected_gradient_min(
            lambda t: 0.5 * float(np.sum((t - a) ** 2)),
            lambda t: t - a,
            np.array([0.5, 0.5]),
            box,
            tol=1e-12,
        )
        assert isinstance(out, InnerResult)
        assert out.converged
        np.testing.assert_allclose(out.theta, [1.0, 0.0], atol=1e-8)

    def test_rosenbrock_descends_monotonically(self):
        box = Box(lower=np.array([-2.0, -2.0]), upper=np.array([2.0, 2.0]))
        f = lambda t: float((1 - t[0]) ** 2 + 100.0 * (t[1] - t[0] ** 2) ** 2)

        def g(t):
            return np.array(
                [
                    -2.0 * (1 - t[0]) - 400.0 * t[0] * (t[1] - t[0] ** 2),
                    200.0 * (t[1] - t[0] ** 2),
                ]
            )

        seen = []
        fun = lambda t: seen.append(f(t)) or seen[-1]
        out = projected_gradient_min(
            fun, g, np.array([-1.2, 1.0]), box, max_iters=2000, tol=1e-12
        )
        # every accepted iterate must not increase the objective
        assert out.value <= seen[0]
        assert out.value < 0.5
        accepted = [seen[0]]
        for v in seen[1:]:
            if v <= accepted[-1]:
                accepted.append(v)
        assert accepted[-1] == pytest.approx(out.value)

    def test_stationary_start_returns_immediately(self):
        box = Box(lower=np.array([-1.0]), upper=np.array([1.0]))
        out = projected_gradient_min(
            lambda t: 0.5 * float(t @ t),
            lambda t: np.asarray(t),
            np.array([0.0]),
            box,
            tol=1e-12,
        )
        assert out.converged
        assert out.iterations == 1
        assert out.theta[0] == 0.0

    def test_descent_against_active_bound_stops(self):
        # minimum at -3, box floor at 0: iterates pin to the floor and the
        # null projected step signals stationarity
        box = Box(lower=np.array([0.0]), upper=np.array([5.0]))
        out = projected_gradient_min(
            lambda t: 0.5 * float((t[0] + 3.0) ** 2),
            lambda t: np.array([t[0] + 3.0]),
            np.array([1.0]),
            box,
            tol=1e-12,
        )
        assert out.converged and out.stop == "stationary"
        assert abs(out.theta[0]) < 1e-10

    def test_positive_coordinates_move_in_log_theta(self):
        # f = sum (log t)^2 / 2 is the unit quadratic in u = log t: from
        # t = 100 the first step lands on the minimizer t = 1, where linear
        # steps across four decades would crawl.
        box = Box(lower=np.full(2, 1e-4), upper=np.full(2, 1e4))
        out = projected_gradient_min(
            lambda t: 0.5 * float(np.sum(np.log(t) ** 2)),
            lambda t: np.log(t) / t,
            np.array([100.0, 100.0]),
            box,
            tol=1e-12,
        )
        assert out.converged
        assert out.iterations <= 3
        np.testing.assert_allclose(out.theta, [1.0, 1.0], rtol=1e-12)

    def test_start_point_is_evaluated_and_returned_bit_for_bit(self):
        # exp(log 10) is 10.000000000000002: the start point must reach fun
        # and grad as given, and come back unchanged when no step is taken.
        box = Box(lower=np.array([0.05]), upper=np.array([30.0]))
        theta0 = np.array([10.0])
        seen = []

        def fun(t):
            seen.append(t.tobytes())
            return 0.0 if t.tobytes() == theta0.tobytes() else np.inf

        grads = []
        out = projected_gradient_min(
            fun, lambda t: grads.append(t.tobytes()) or np.array([1.0]), theta0, box
        )
        assert seen[0] == theta0.tobytes()
        assert grads[0] == theta0.tobytes()
        assert not out.converged and len(seen) == 41
        assert out.stop == "line_search"
        assert out.theta.tobytes() == theta0.tobytes()

    def test_every_evaluated_theta_lies_in_the_box(self):
        # The iterates run into an upper bound of 10 and a lower bound of
        # 1e-5, where exp(log(bound)) lands just outside the box.
        box = Box(lower=np.array([0.05, 1e-5]), upper=np.array([10.0, 30.0]))
        seen = []

        def fun(t):
            seen.append(t.copy())
            return float(t[1] - t[0])

        out = projected_gradient_min(
            fun, lambda t: np.array([-1.0, 1.0]), np.array([1.0, 1.0]), box, tol=1e-12
        )
        assert out.converged
        for t in seen:
            assert np.all(t >= box.lower) and np.all(t <= box.upper)
        np.testing.assert_array_equal(out.theta, [10.0, 1e-5])

    def test_ill_conditioned_box_quadratic_converges(self):
        # Curvatures 1 to 1000: a fixed step sized for the stiff coordinate
        # crawls along the flat one (2,000 iterations were not enough), and
        # the Barzilai-Borwein step does not.
        lam = np.array([1.0, 10.0, 100.0, 1000.0])
        a = np.array([0.3, -0.2, 0.5, 2.0])
        box = Box(lower=-np.ones(4), upper=np.ones(4))
        out = projected_gradient_min(
            lambda t: 0.5 * float(np.sum(lam * (t - a) ** 2)),
            lambda t: lam * (t - a),
            np.zeros(4),
            box,
            max_iters=100,
            tol=1e-10,
        )
        assert out.converged
        np.testing.assert_allclose(out.theta, [0.3, -0.2, 0.5, 1.0], atol=1e-5)

    def test_ill_conditioned_quadratic_in_log_theta_converges(self):
        # The same in u = log theta: sum lam_j (u_j - log c_j)^2 / 2.
        lam = np.array([1.0, 30.0, 300.0])
        c = np.array([0.01, 5.0, 2.0])
        box = Box(lower=np.full(3, 1e-3), upper=np.full(3, 1e3))
        out = projected_gradient_min(
            lambda t: 0.5 * float(np.sum(lam * (np.log(t) - np.log(c)) ** 2)),
            lambda t: lam * (np.log(t) - np.log(c)) / t,
            np.ones(3),
            box,
            max_iters=200,
            tol=1e-10,
        )
        assert out.converged
        np.testing.assert_allclose(out.theta, c, rtol=1e-5)

    def test_step_that_leaves_f_unchanged_is_convergence(self):
        # Near 1e17 a change of 4.5 is below f's resolution: Armijo passes
        # on rounding alone, and the loop stops there instead of running on.
        box = Box(lower=np.array([-10.0]), upper=np.array([10.0]))
        out = projected_gradient_min(
            lambda t: 1e17 + 0.5 * float((t[0] - 3.0) ** 2),
            lambda t: np.array([t[0] - 3.0]),
            np.array([0.0]),
            box,
        )
        assert out.converged
        assert out.stop == "flat"
        assert out.iterations == 1

    def test_small_move_converges_and_the_cap_does_not(self):
        box = Box(lower=np.array([-10.0]), upper=np.array([10.0]))
        fun = lambda t: float(np.cosh(t[0] - 3.0))
        grad = lambda t: np.array([np.sinh(t[0] - 3.0)])
        capped = projected_gradient_min(fun, grad, np.array([0.0]), box, max_iters=1)
        assert not capped.converged and capped.stop == "max_iters"
        out = projected_gradient_min(fun, grad, np.array([0.0]), box, tol=1e-3)
        assert out.converged and out.stop == "move"


class TestExactMMChain:
    def test_monotone_descent_on_tomo(self):
        problem = tomo_problem(s=6, n_src=5, n_rec=6, seed=4)
        f0 = eval_F_exact(problem, problem.box.center()).value
        out = mm_optimize_exact(problem, outer_iters=8, tol=1e-8)
        values = [rec.f_audit for rec in out.records]
        assert values[-1] < f0
        for prev, cur in zip(values, values[1:]):
            assert cur <= prev + 1e-9 * max(1.0, abs(prev))

    def test_converges_to_closed_form_minimizer(self):
        # F(t) = (m/2) ln t + |b|^2/(2t): minimizer t* = |b|^2/m, and the MM
        # iteration is the geometric-mean map t -> sqrt(t * t*), a contraction
        # in log t.  Here t* = 4 exactly.
        b = np.full(4, 2.0)
        problem = noise_only_problem(b, box=Box(np.array([0.01]), np.array([50.0])))
        out = mm_optimize_exact(
            problem, theta0=np.array([20.0]), outer_iters=60, tol=1e-9,
            inner_iters=200, inner_tol=1e-12,
        )
        assert out.converged
        assert abs(out.theta[0] - 4.0) < 1e-5

    def test_restart_at_minimizer_stops_after_one_outer(self):
        b = np.full(4, 2.0)
        problem = noise_only_problem(b, box=Box(np.array([0.01]), np.array([50.0])))
        first = mm_optimize_exact(
            problem, theta0=np.array([20.0]), outer_iters=60, tol=1e-9,
            inner_iters=200, inner_tol=1e-12,
        )
        # Re-anchoring at the minimizer moves by at most inner-solver noise,
        # so at the chain's own working tolerance it stops immediately.
        again = mm_optimize_exact(
            problem, theta0=first.theta, outer_iters=25, tol=1e-6,
            inner_iters=200, inner_tol=1e-12,
        )
        assert again.converged
        assert again.outer_iters == 1
        assert again.f_value <= first.f_value + 1e-9 * abs(first.f_value)

    def test_start_outside_box_raises(self):
        problem = tomo_problem(s=4, n_src=3, n_rec=5, seed=4)
        bad = problem.box.upper + 1.0
        with pytest.raises(ValueError, match="box"):
            mm_optimize_exact(problem, theta0=bad)

    def test_null_step_from_stalled_inner_loop_is_not_convergence(self, monkeypatch):
        # An inner loop that gives up at the anchor proposes a step of 0;
        # the audit accepts it, but it must not count as convergence.
        def stalled(fun, grad, theta0, box, **kwargs):
            theta = np.array(theta0, dtype=float)
            return InnerResult(
                theta=theta, value=fun(theta), iterations=1, fn_evals=1,
                grad_evals=0, converged=False, stop="line_search",
            )

        monkeypatch.setattr(hypermarg.mm, "projected_gradient_min", stalled)
        problem = tomo_problem(s=4, n_src=3, n_rec=5, seed=4)
        out = mm_optimize_exact(problem, outer_iters=3)
        assert not out.converged
        assert out.outer_iters == 3
        assert all(rec.accepted and rec.rel_step == 0.0 for rec in out.records)

    def test_proposal_that_raises_the_audited_f_is_rejected(self, monkeypatch):
        # Each audit reads 1e6 higher than the one before, so no proposal
        # passes: every one is rejected and the chain stays at its start.
        real = hypermarg.mm.eval_F_exact
        calls = []

        def rising(*args, **kwargs):
            out = real(*args, **kwargs)
            out.value += 1e6 * len(calls)
            calls.append(None)
            return out

        monkeypatch.setattr(hypermarg.mm, "eval_F_exact", rising)
        problem = tomo_problem(s=4, n_src=3, n_rec=5, seed=4)
        start = problem.box.center()
        out = mm_optimize_exact(problem, outer_iters=3)
        assert len(calls) == 4
        assert [rec.accepted for rec in out.records] == [False, False, False]
        assert all(np.isnan(rec.rel_step) for rec in out.records)
        np.testing.assert_array_equal(out.theta, start)
        assert not out.converged


class TestM3cChain:
    def test_descends_and_mostly_accepts(self):
        problem = tomo_problem(s=6, n_src=5, n_rec=6, seed=8)
        f0 = eval_F_exact(problem, problem.box.center()).value
        out = m3c_optimize(
            problem, outer_iters=10, n_probes=16, seed=0, tol=1e-6
        )
        assert out.audit_mode == "exact"
        assert out.f_value < f0
        values = [rec.f_audit for rec in out.records]
        for prev, cur in zip(values, values[1:]):
            assert cur <= prev + 1e-9 * max(1.0, abs(prev))
        accept_rate = np.mean([rec.accepted for rec in out.records])
        assert accept_rate >= 0.8

    def test_rejection_keeps_anchor_and_doubles_probes(self, monkeypatch):
        problem = tomo_problem(s=4, n_src=3, n_rec=5, seed=8)
        theta0 = problem.theta_true
        blocks = spy_probe_blocks(monkeypatch)
        # A hugely negative slack makes the audit unpassable, forcing the
        # rejection path deterministically.  The doubling stops at m = 15,
        # where the probes are the canonical ones.
        assert problem.m == 15
        out = m3c_optimize(
            problem,
            theta0=theta0,
            outer_iters=3,
            n_probes=4,
            seed=1,
            audit_slack_rel=-100.0,
        )
        assert not out.converged
        assert all(not rec.accepted for rec in out.records)
        assert [rec.n_probes for rec in out.records] == [4, 8, 15]
        np.testing.assert_array_equal(blocks[-1], canonical_probes(15).w)
        np.testing.assert_array_equal(out.theta, theta0)
        assert all(np.isnan(rec.rel_step) for rec in out.records)

    def test_deterministic_given_seed(self):
        problem_a = tomo_problem(s=4, n_src=3, n_rec=5, seed=2)
        problem_b = tomo_problem(s=4, n_src=3, n_rec=5, seed=2)
        out_a = m3c_optimize(problem_a, outer_iters=4, n_probes=8, seed=5)
        out_b = m3c_optimize(problem_b, outer_iters=4, n_probes=8, seed=5)
        np.testing.assert_array_equal(out_a.theta, out_b.theta)
        assert [r.f_audit for r in out_a.records] == [r.f_audit for r in out_b.records]
        out_c = m3c_optimize(problem_a, outer_iters=4, n_probes=8, seed=6)
        assert np.any(out_c.theta != out_a.theta)

    def test_slq_audit_mode_runs(self):
        problem = tomo_problem(s=4, n_src=3, n_rec=5, seed=3)
        out = m3c_optimize(
            problem,
            outer_iters=3,
            n_probes=8,
            seed=0,
            audit="slq",
            audit_probes=16,
            audit_k=12,
        )
        assert out.audit_mode == "slq"
        assert np.isfinite(out.f_value)

    def test_proposal_the_audit_cannot_evaluate_is_rejected(self, monkeypatch):
        # Every SLQ audit after the one at the start raises, as an
        # unconverged misfit solve does: each proposal is rejected, the
        # anchor kept and the probe count doubled, and the run completes.
        problem = tomo_problem(s=4, n_src=3, n_rec=5, seed=3)
        real = hypermarg.mm.eval_F_slq
        calls = []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) > 1:
                raise NumericalError("misfit solve stalled")
            return real(*args, **kwargs)

        monkeypatch.setattr(hypermarg.mm, "eval_F_slq", failing)
        blocks = spy_probe_blocks(monkeypatch)
        start = problem.box.center()
        out = m3c_optimize(
            problem, outer_iters=3, n_probes=4, seed=0, audit="slq",
            audit_probes=16, audit_k=12,
        )
        assert len(calls) == 4
        assert not out.converged
        assert all(not rec.accepted for rec in out.records)
        assert [rec.n_probes for rec in out.records] == [4, 8, 15]
        np.testing.assert_array_equal(blocks[-1], canonical_probes(15).w)
        np.testing.assert_array_equal(out.theta, start)

    def test_unknown_audit_mode_raises(self):
        problem = tomo_problem(s=4, n_src=3, n_rec=5, seed=3)
        with pytest.raises(ValueError, match="audit"):
            m3c_optimize(problem, audit="majority-vote")

    def test_counters_recorded_monotone(self):
        problem = tomo_problem(s=4, n_src=3, n_rec=5, seed=3)
        out = m3c_optimize(problem, outer_iters=4, n_probes=8, seed=0)
        a_counts = [rec.counters["a"] for rec in out.records]
        assert all(b > a for a, b in zip(a_counts, a_counts[1:]))

    def test_default_settings_complete_on_tomo_12(self):
        # Line-search trials reach box corners where the misfit solve
        # stalls; such a trial must be rejected, not abort the run.
        problem = tomo_problem(s=12, n_src=12, n_rec=12, seed=0)
        out = m3c_optimize(problem)
        assert out.converged
        assert out.f_value < eval_F_exact(problem, problem.box.center()).value

    def test_null_step_from_stalled_inner_loop_is_not_convergence(self):
        # From the box center the inner loop exhausts its backtracking and
        # proposes the anchor itself; the audit accepts that null step, but
        # it is no evidence of stationarity (the exact gradient there has
        # norm about 190).
        problem = superres_problem(s=16, decim=2, frames=2, seed=0)
        center = problem.box.center()
        out = m3c_optimize(problem, theta0=center, outer_iters=4, seed=0)
        assert not (out.converged and np.array_equal(out.theta, center))


class TestConvergesInLogTheta:
    """The optimizers end at the optimum, not at an iteration cap.

    Each case failed before the box minimizer moved the positive
    parameters in log theta: the chains stopped at their caps with F
    0.9 nats (quick start) and 116 nats (deblur) above the optimum.
    """

    def test_quick_start_m3c_reaches_the_exact_chain_optimum(self):
        t0 = time.time()
        problem = make_test_problem("tomo", s=8, n_src=8, n_rec=9, seed=0)
        exact = mm_optimize_exact(problem)
        assert exact.converged
        out = m3c_optimize(
            problem, problem.box.center(), outer_iters=25, n_probes=16, seed=0
        )
        assert out.converged
        assert abs(eval_F_exact(problem, out.theta).value - exact.f_value) <= 0.01
        assert time.time() - t0 < 60, "runtime budget of 60 s exceeded"

    def test_default_m3c_converges_on_deblur_16(self):
        t0 = time.time()
        problem = make_test_problem("deblur", s=16, seed=0)
        out = m3c_optimize(problem)
        assert out.converged
        assert eval_F_exact(problem, out.theta).value <= -339.9
        assert time.time() - t0 < 150, "runtime budget of 150 s exceeded"


class TestInnerLoopsFinishBelowTheirCaps:
    """The quick start's inner loops stop on their own tests.

    With a step that only doubled or halved, 12 of the 20 m3c loops ran to
    their cap of 50 (827 inner iterations), and 6 of the 18 exact-chain
    loops to their cap of 100 (1,183).
    """

    def test_quick_start(self):
        problem = make_test_problem("tomo", s=8, n_src=8, n_rec=9, seed=0)
        out = m3c_optimize(
            problem, problem.box.center(), outer_iters=25, n_probes=16, seed=0
        )
        inner = [rec.inner_iters for rec in out.records]
        assert sum(inner) <= 500
        assert inner.count(50) <= 1
        exact = mm_optimize_exact(problem)
        inner = [rec.inner_iters for rec in exact.records]
        assert sum(inner) <= 600
        assert max(inner) < 100
