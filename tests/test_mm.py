import time
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import hypermarg.mm
import hypermarg.objective
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
    Point,
    StochasticSurrogate,
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

    def spy(problem, theta_t, w, *args, **kwargs):
        blocks.append(w.copy())
        return real(problem, theta_t, w, *args, **kwargs)

    monkeypatch.setattr(hypermarg.mm, "build_surrogate", spy)
    return blocks


def minimize(fun, grad, theta0, box, **kwargs):
    """``projected_gradient_min`` over a value and a gradient function, from theta0."""
    evaluate = lambda t: Point(t, fun(t), None, lambda: grad(t))
    return projected_gradient_min(evaluate, evaluate(theta0), box, **kwargs)


def slq_audit(monkeypatch, problem):
    """Give m3c its SLQ audit on a small problem, over 16 probes at depth 12."""
    monkeypatch.setattr(hypermarg.mm, "DENSE_LIMIT", problem.m - 1)
    monkeypatch.setattr(hypermarg.mm, "AUDIT_PROBES", 16)
    monkeypatch.setattr(hypermarg.mm, "AUDIT_K", 12)


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
        g_hat = surrogate.value(theta).gradient()
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
        g_hat = surrogate.value(theta).value + shift
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
            values.append(surrogate.value(theta).value + shift)
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
        g = surrogate.value(theta).gradient()
        g_fd = grad_fd_central(
            lambda th: surrogate.value(th).value, theta, problem.box, eps_rel=1e-6
        )
        assert relerr(g_fd, g) < 1e-5

    def test_anchor_solve_failure_is_hard_error(self):
        problem = tomo_problem(s=6, n_src=5, n_rec=6, seed=1)
        probes = rademacher_probes(problem.m, 2, seed=0)
        with pytest.raises(NumericalError, match="anchor solve"):
            build_surrogate(
                problem, problem.theta_true, probes, pcg_tol=1e-14, pcg_maxit=1
            )

    def test_failed_misfit_solve_raises_and_m3c_backtracks_from_it(self, monkeypatch):
        problem = tomo_problem(s=6, n_src=5, n_rec=6, seed=1)
        theta_t = problem.theta_true
        probes = rademacher_probes(problem.m, 2, seed=0)
        surrogate = build_surrogate(problem, theta_t, probes, pcg_tol=1e-14)
        surrogate.pcg_maxit = 1
        for theta in (problem.box.project(1.1 * theta_t), theta_t):
            with pytest.raises(NumericalError, match="misfit solve"):
                surrogate.value(theta)
        # In a run, every misfit solve below half the start's noise variance
        # fails: the line search backtracks from those trial points, the
        # records count them, and the run completes above that floor.
        problem = tomo_problem(s=4, n_src=3, n_rec=5, seed=0)
        start = problem.box.center()
        real = StochasticSurrogate.value

        def failing(self, theta):
            if theta[0] < 0.5 * start[0]:
                raise NumericalError("misfit solve stalled")
            return real(self, theta)

        monkeypatch.setattr(StochasticSurrogate, "value", failing)
        out = m3c_optimize(problem, outer_iters=4, n_probes=4, seed=0)
        assert out.records[0].failed_trials > 0
        assert out.theta[0] >= 0.5 * start[0]
        assert out.f_value < eval_F_exact(problem, start).value

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
        v_warm = warm.value(second).value
        v_cold = cold.value(second).value
        assert warm.pcg_iters - iters_before < cold.pcg_iters - cold_before
        # each misfit c^T r is within ||c||^2 tol / lambda_min(Psi) of exact
        psi = dense_objective_pieces(problem, second).psi
        c = problem.residual_offset(second)
        bound = float(c @ c) * tol / np.linalg.eigvalsh(psi)[0]
        assert abs(v_warm - v_cold) <= bound

    def test_w_is_the_probe_block_and_z_its_anchor_solves(self):
        # the surrogate pairs its probes with the only copy of Psi_t^{-1} W
        problem = tomo_problem(s=4, n_src=3, n_rec=5, seed=1)
        probes = rademacher_probes(problem.m, 5, seed=0)
        surrogate = build_surrogate(problem, problem.theta_true, probes, pcg_tol=1e-12)
        assert surrogate.w is probes
        assert surrogate.z.shape == (problem.m, 5)
        psi = dense_objective_pieces(problem, problem.theta_true).psi
        resid = psi @ surrogate.z - probes
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(probes)


DENSE_AT_M = [
    pytest.param(lambda: tomo_problem(s=4, n_src=3, n_rec=5, seed=3), id="tomo4"),
    pytest.param(lambda: deblur_problem(s=8, seed=0), id="deblur8"),
]


class TestDenseMajorantAtM:
    """m3c's majorant once its probes reach m: the exact one, from one factorization."""

    @pytest.mark.parametrize("make", DENSE_AT_M)
    def test_matches_the_canonical_surrogate(self, make):
        # The same majorant two ways: the canonical surrogate omits the
        # anchor constant (log det Psi_t - m)/2, and both gradients agree.
        problem = make()
        theta_t = problem.box.project(1.1 * problem.theta_true)
        anchor = dense_objective_pieces(problem, theta_t)
        dense = hypermarg.mm._ExactMajorant(problem, anchor, n_probes=problem.m)
        canonical = build_surrogate(
            problem, theta_t, canonical_probes(problem.m), pcg_tol=1e-12
        )
        shift = 0.5 * (anchor.logdet() - problem.m)
        for scale in (0.7, 1.0, 1.3):
            theta = problem.box.project(scale * problem.theta_true)
            exact, sampled = dense.value(theta), canonical.value(theta)
            assert abs(exact.value - (sampled.value + shift)) <= 1e-9 * max(
                1.0, abs(exact.value)
            )
            assert relerr(exact.gradient(), sampled.gradient()) < 1e-8

    @pytest.mark.parametrize("make", DENSE_AT_M)
    def test_outer_iterations_at_m_make_no_cg_solve(self, monkeypatch, make):
        # Every proposal is rejected, so the probe count doubles to m after
        # the first outer iteration and stays there.  Those iterations
        # build no probe block and no preconditioner, apply no Psi and run
        # no CG: their work is dense, off the ledger.
        problem = make()
        monkeypatch.setattr(hypermarg.mm, "AUDIT_SLACK_REL", -100.0)
        blocks = spy_probe_blocks(monkeypatch)
        n = (problem.m + 1) // 2
        out = m3c_optimize(problem, outer_iters=3, n_probes=n, seed=0)
        assert [rec.n_probes for rec in out.records] == [n, problem.m, problem.m]
        assert len(blocks) == 1
        assert out.records[0].counters["psi"] > 0
        for rec in out.records[1:]:
            assert rec.pcg_iters == 0 and rec.fn_evals > 1
            assert rec.counters == out.records[0].counters

    def test_each_theta_is_factored_once_from_n_equal_m_on(self, monkeypatch):
        # A proposal's factorization serves its audit and, once accepted,
        # the next majorant's anchor.  Only the start is factored twice:
        # the audit there holds no pieces for the first majorant to reuse.
        built = []
        real = hypermarg.objective.dense_objective_pieces

        def spy(problem, theta, *args, **kwargs):
            built.append(np.array(theta).tobytes())
            return real(problem, theta, *args, **kwargs)

        monkeypatch.setattr(hypermarg.objective, "dense_objective_pieces", spy)
        monkeypatch.setattr(hypermarg.mm, "dense_objective_pieces", spy)
        problem = tomo_problem(s=4, n_src=3, n_rec=5, seed=3)
        start = problem.box.center()
        out = m3c_optimize(problem, outer_iters=4, n_probes=problem.m, seed=0)
        assert sum(rec.accepted for rec in out.records) >= 2
        assert built.count(start.tobytes()) == 2
        assert len(built) == len(set(built)) + 1


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
        assert relerr(surrogate.value(theta).gradient(), g) < 1e-9


class TestProjectedGradient:
    def test_quadratic_converges_to_box_projection(self):
        box = Box(lower=np.zeros(2), upper=np.ones(2))
        a = np.array([2.0, -1.0])
        out = minimize(
            lambda t: 0.5 * float(np.sum((t - a) ** 2)),
            lambda t: t - a,
            np.array([0.5, 0.5]),
            box,
            tol=1e-12,
        )
        assert isinstance(out, InnerResult)
        assert out.converged
        np.testing.assert_allclose(out.point.theta, [1.0, 0.0], atol=1e-8)

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
        out = minimize(
            fun, g, np.array([-1.2, 1.0]), box, max_iters=2000, tol=1e-12
        )
        # every accepted iterate must not increase the objective
        assert out.point.value <= seen[0]
        assert out.point.value < 0.5
        accepted = [seen[0]]
        for v in seen[1:]:
            if v <= accepted[-1]:
                accepted.append(v)
        assert accepted[-1] == pytest.approx(out.point.value)

    def test_stationary_start_returns_immediately(self):
        box = Box(lower=np.array([-1.0]), upper=np.array([1.0]))
        out = minimize(
            lambda t: 0.5 * float(t @ t),
            lambda t: np.asarray(t),
            np.array([0.0]),
            box,
            tol=1e-12,
        )
        assert out.converged
        assert out.iterations == 1
        assert out.point.theta[0] == 0.0

    def test_trial_point_that_raises_is_backtracked_from(self):
        # The minimizer 2 lies above the failing region t < 1, and the first
        # trial from 10 lands at 0: that trial raises, the step halves, and
        # the run still converges.  A failure at the start point propagates.
        box = Box(lower=np.array([-5.0]), upper=np.array([20.0]))
        failed = []

        def fun(t):
            if t[0] < 1.0:
                failed.append(t[0])
                raise NumericalError("misfit solve stalled")
            return 0.5 * float((t[0] - 2.0) ** 2)

        grad = lambda t: np.array([t[0] - 2.0])
        out = minimize(fun, grad, np.array([10.0]), box, tol=1e-12)
        assert failed[0] == 0.0
        assert out.failed_trials == len(failed) > 0
        assert out.converged
        assert abs(out.point.theta[0] - 2.0) < 1e-8

    def test_gradient_that_raises_propagates(self):
        box = Box(lower=np.array([-5.0]), upper=np.array([20.0]))

        def stalled():
            raise NumericalError("misfit solve stalled")

        start = Point(np.array([10.0]), 32.0, None, stalled)
        with pytest.raises(NumericalError, match="misfit solve"):
            projected_gradient_min(lambda t: None, start, box)

    def test_descent_against_active_bound_stops(self):
        # minimum at -3, box floor at 0: iterates pin to the floor and the
        # null projected step signals stationarity
        box = Box(lower=np.array([0.0]), upper=np.array([5.0]))
        out = minimize(
            lambda t: 0.5 * float((t[0] + 3.0) ** 2),
            lambda t: np.array([t[0] + 3.0]),
            np.array([1.0]),
            box,
            tol=1e-12,
        )
        assert out.converged and out.stop == "stationary"
        assert abs(out.point.theta[0]) < 1e-10

    def test_positive_coordinates_move_in_log_theta(self):
        # f = sum (log t)^2 / 2 is the unit quadratic in u = log t: from
        # t = 100 the first step lands on the minimizer t = 1, where linear
        # steps across four decades would crawl.
        box = Box(lower=np.full(2, 1e-4), upper=np.full(2, 1e4))
        out = minimize(
            lambda t: 0.5 * float(np.sum(np.log(t) ** 2)),
            lambda t: np.log(t) / t,
            np.array([100.0, 100.0]),
            box,
            tol=1e-12,
        )
        assert out.converged
        assert out.iterations <= 3
        np.testing.assert_allclose(out.point.theta, [1.0, 1.0], rtol=1e-12)

    def test_start_point_is_evaluated_and_returned_bit_for_bit(self):
        # exp(log 10) is 10.000000000000002: the start point must reach its
        # gradient as given, and come back itself when no step is taken.
        box = Box(lower=np.array([0.05]), upper=np.array([30.0]))
        theta0 = np.array([10.0])
        seen = []

        def fun(t):
            seen.append(t.tobytes())
            return 0.0 if t.tobytes() == theta0.tobytes() else np.inf

        grads = []
        evaluate = lambda t: Point(
            t, fun(t), None, lambda: grads.append(t.tobytes()) or np.array([1.0])
        )
        start = evaluate(theta0)
        out = projected_gradient_min(evaluate, start, box)
        assert seen[0] == theta0.tobytes()
        assert grads == [theta0.tobytes()]
        assert not out.converged and len(seen) == 41
        assert out.stop == "line_search"
        assert out.point is start

    def test_every_evaluated_theta_lies_in_the_box(self):
        # The iterates run into an upper bound of 10 and a lower bound of
        # 1e-5, where exp(log(bound)) lands just outside the box.
        box = Box(lower=np.array([0.05, 1e-5]), upper=np.array([10.0, 30.0]))
        seen = []

        def fun(t):
            seen.append(t.copy())
            return float(t[1] - t[0])

        out = minimize(
            fun, lambda t: np.array([-1.0, 1.0]), np.array([1.0, 1.0]), box, tol=1e-12
        )
        assert out.converged
        for t in seen:
            assert np.all(t >= box.lower) and np.all(t <= box.upper)
        np.testing.assert_array_equal(out.point.theta, [10.0, 1e-5])

    def test_ill_conditioned_box_quadratic_converges(self):
        # Curvatures 1 to 1000: a fixed step sized for the stiff coordinate
        # crawls along the flat one (2,000 iterations were not enough), and
        # the BFGS direction, which learns the curvatures, does not.
        lam = np.array([1.0, 10.0, 100.0, 1000.0])
        a = np.array([0.3, -0.2, 0.5, 2.0])
        box = Box(lower=-np.ones(4), upper=np.ones(4))
        out = minimize(
            lambda t: 0.5 * float(np.sum(lam * (t - a) ** 2)),
            lambda t: lam * (t - a),
            np.zeros(4),
            box,
            max_iters=100,
            tol=1e-10,
        )
        assert out.converged
        np.testing.assert_allclose(out.point.theta, [0.3, -0.2, 0.5, 1.0], atol=1e-5)

    def test_ill_conditioned_quadratic_in_log_theta_converges(self):
        # The same in u = log theta: sum lam_j (u_j - log c_j)^2 / 2.
        lam = np.array([1.0, 30.0, 300.0])
        c = np.array([0.01, 5.0, 2.0])
        box = Box(lower=np.full(3, 1e-3), upper=np.full(3, 1e3))
        out = minimize(
            lambda t: 0.5 * float(np.sum(lam * (np.log(t) - np.log(c)) ** 2)),
            lambda t: lam * (np.log(t) - np.log(c)) / t,
            np.ones(3),
            box,
            max_iters=200,
            tol=1e-10,
        )
        assert out.converged
        np.testing.assert_allclose(out.point.theta, c, rtol=1e-5)

    def test_step_that_leaves_f_unchanged_is_convergence(self):
        # Near 1e17 a change of 4.5 is below f's resolution: Armijo passes
        # on rounding alone, and the loop stops there instead of running on.
        box = Box(lower=np.array([-10.0]), upper=np.array([10.0]))
        out = minimize(
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
        capped = minimize(fun, grad, np.array([0.0]), box, max_iters=1)
        assert not capped.converged and capped.stop == "max_iters"
        out = minimize(fun, grad, np.array([0.0]), box, tol=1e-3)
        assert out.converged and out.stop == "move"


    def test_line_search_stops_at_the_noise_floor_after_a_move(self):
        # f is a smooth bowl plus a sawtooth of height 1e-7 and period 1e-4,
        # as a value computed by an iterative solve is only good to its
        # tolerance.  Near the minimum at 0.37 the sawtooth outweighs the
        # slope, so every trial short of the next tooth fails Armijo, down
        # to the 40th halving.  A step below tol would be no move anyway, so
        # the line search stops at that scale and the loop has converged.
        box = Box(lower=np.array([-10.0]), upper=np.array([10.0]))
        seen = []

        def fun(t):
            seen.append(None)
            return float(2.0 * np.sinh((t[0] - 0.37) / 2.0) ** 2 + 1e-7 * ((t[0] / 1e-4) % 1.0))

        ends = []
        out = minimize(
            fun,
            lambda t: np.array([np.sinh(t[0] - 0.37)]),
            np.array([-3.0]),
            box,
            callback=lambda point: ends.append(len(seen)),
        )
        assert out.converged and out.stop == "move"
        assert out.iterations > 1
        assert ends[-1] - ends[-2] < 20  # the last iteration's trials
        assert abs(out.point.theta[0] - 0.37) < 1e-3

    def test_start_point_with_only_roundoff_scale_descent_is_returned(self):
        # Only steps of 1e-10 or less in theta descend from theta0 = 10: the
        # line search stops at the tolerance scale, far above that, without
        # a move and without evidence of stationarity.
        box = Box(lower=np.array([0.05]), upper=np.array([30.0]))
        theta0 = np.array([10.0])
        seen = []

        def fun(t):
            seen.append(None)
            return -(t[0] - 10.0) if t[0] - 10.0 <= 1e-10 else 1.0

        out = minimize(fun, lambda t: np.array([-1.0]), theta0, box)
        assert not out.converged and out.stop == "line_search"
        assert out.iterations == 1
        assert out.point.theta.tobytes() == theta0.tobytes()
        assert out.fn_evals == len(seen) < 41

    def test_first_trial_step_is_step0_when_given(self):
        box = Box(lower=np.array([-10.0]), upper=np.array([10.0]))
        seen = []

        def fun(t):
            seen.append(t[0])
            return 0.5 * (t[0] - 3.0) ** 2

        out = minimize(
            fun, lambda t: np.array([t[0] - 3.0]), np.array([0.0]), box,
            max_iters=1, step0=0.25,
        )
        assert seen[1] == 0.75  # 0 - 0.25 * (0 - 3), accepted at once
        assert out.step == 0.25  # no (s, y) pair yet: the scale is handed on as given

    def test_first_pair_rescales_the_inverse_hessian(self):
        # f = (t - 3)^2 has curvature 2.  The first step, 0.25 * 6, lands at
        # 1.5; its pair (s, y) = (1.5, 3) rescales H to s'y/y'y = 1/2, the
        # exact inverse Hessian, so the next trial is the minimizer itself.
        box = Box(lower=np.array([-10.0]), upper=np.array([10.0]))
        seen = []

        def fun(t):
            seen.append(t[0])
            return float((t[0] - 3.0) ** 2)

        out = minimize(
            fun, lambda t: np.array([2.0 * (t[0] - 3.0)]), np.array([0.0]), box,
            step0=0.25,
        )
        assert seen == [0.0, 1.5, 3.0]
        assert out.converged and out.stop == "stationary"
        assert out.step == 0.5

    def test_coupled_quadratic_with_a_held_coordinate_converges(self):
        # f = (t - a)' A (t - a) / 2 with A coupled and a = (-1, 0.5).  At the
        # constrained minimizer (0, 0.25) the first coordinate is held at its
        # lower bound (its gradient 1.875 points out of the box), and the
        # second solves A_22 (t_2 - a_2) + A_12 (0 - a_1) = 0.
        box = Box(lower=np.zeros(2), upper=np.ones(2))
        A = np.array([[2.0, 0.5], [0.5, 2.0]])
        a = np.array([-1.0, 0.5])
        out = minimize(
            lambda t: 0.5 * float((t - a) @ A @ (t - a)),
            lambda t: A @ (t - a),
            np.array([0.9, 0.9]),
            box,
            tol=1e-12,
        )
        assert out.converged
        np.testing.assert_allclose(out.point.theta, [0.0, 0.25], atol=1e-10)

    def test_trial_clipped_into_a_corner_is_evaluated_once(self):
        # A long first step runs past both upper bounds: the trial steps 1,
        # 1/2, ..., 1/16 all clip to the corner (1, 1), which fails Armijo.
        # The corner is evaluated once; the halvings that land on it again
        # are skipped, neither evaluated nor counted as failed trials.
        box = Box(lower=np.zeros(2), upper=np.ones(2))
        a = np.array([0.3, 0.3])
        seen = []

        def fun(t):
            seen.append(tuple(t))
            return 0.5 * float(np.sum((t - a) ** 2))

        out = minimize(fun, lambda t: t - a, np.zeros(2), box, step0=100.0, tol=1e-12)
        assert seen[1] == (1.0, 1.0) and seen[2] == (0.9375, 0.9375)
        assert len(seen) == len(set(seen)) == out.fn_evals
        assert out.failed_trials == 0
        assert out.converged
        np.testing.assert_allclose(out.point.theta, a, atol=1e-10)

    def test_second_call_starts_from_the_handed_on_inverse_hessian(self):
        # The first call learns H close to A^{-1} on a coupled quadratic.  A
        # second call from elsewhere, given that H, takes -H g as its first
        # direction, whose full step lands near the minimizer; given only the
        # step scale, it relearns the curvature from the scaled identity.
        box = Box(lower=np.full(2, -10.0), upper=np.full(2, 10.0))
        A = np.array([[3.0, 1.0], [1.0, 1.0]])
        a = np.array([0.5, -0.3])
        seen = []

        def fun(t):
            seen.append(t.copy())
            return 0.5 * float((t - a) @ A @ (t - a))

        grad = lambda t: A @ (t - a)
        first = minimize(fun, grad, np.array([5.0, 5.0]), box, tol=1e-10)
        assert first.converged and first.h is not None
        np.testing.assert_allclose(first.h, np.linalg.inv(A), atol=1e-2)
        start = np.array([-4.0, 6.0])
        seen.clear()
        warm = minimize(fun, grad, start, box, tol=1e-10, step0=first.step, h0=first.h)
        np.testing.assert_allclose(seen[1], start - first.h @ grad(start), rtol=1e-14)
        cold = minimize(fun, grad, start, box, tol=1e-10, step0=first.step)
        assert warm.converged and cold.converged
        assert warm.iterations < cold.iterations
        np.testing.assert_allclose(warm.point.theta, a, atol=1e-8)


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
        assert len(again.records) == 1
        assert again.f_value <= first.f_value + 1e-9 * abs(first.f_value)

    def test_start_outside_box_raises(self):
        problem = tomo_problem(s=4, n_src=3, n_rec=5, seed=4)
        bad = problem.box.upper + 1.0
        with pytest.raises(ValueError, match="box"):
            mm_optimize_exact(problem, theta0=bad)

    def test_null_step_from_stalled_inner_loop_is_not_convergence(self, monkeypatch):
        # An inner loop that gives up at the anchor proposes a step of 0;
        # the audit accepts it, but it must not count as convergence.  The
        # anchor stays, so the next loop meets the same majorant: it must
        # not start from the H this one handed on, which would retrace it.
        given = []

        def stalled(evaluate, start, box, h0=None, **kwargs):
            given.append(h0)
            return InnerResult(
                point=start, iterations=1, fn_evals=1, grad_evals=0,
                failed_trials=0, converged=False, stop="line_search", step=1.0,
                h=np.eye(len(start.theta)),
            )

        monkeypatch.setattr(hypermarg.mm, "projected_gradient_min", stalled)
        problem = tomo_problem(s=4, n_src=3, n_rec=5, seed=4)
        out = mm_optimize_exact(problem, outer_iters=3)
        assert not out.converged
        assert len(out.records) == 3
        assert all(rec.accepted and rec.rel_step == 0.0 for rec in out.records)
        assert given == [None] * 3

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
        built = []
        real_pieces = hypermarg.mm.dense_objective_pieces

        def spy(problem, theta, *args, **kwargs):
            built.append(np.array(theta).tobytes())
            return real_pieces(problem, theta, *args, **kwargs)

        monkeypatch.setattr(hypermarg.mm, "dense_objective_pieces", spy)
        problem = tomo_problem(s=4, n_src=3, n_rec=5, seed=4)
        start = problem.box.center()
        out = mm_optimize_exact(problem, outer_iters=3)
        assert len(calls) == 4
        assert [rec.accepted for rec in out.records] == [False, False, False]
        assert all(np.isnan(rec.rel_step) for rec in out.records)
        np.testing.assert_array_equal(out.theta, start)
        assert not out.converged
        # a point's factorization serves its audit, and the kept anchor
        # keeps its own across the rejections: no theta is built twice
        assert start.tobytes() in built
        assert len(built) == len(set(built))

    def test_at_most_three_points_hold_dense_pieces(self, monkeypatch):
        # The anchor's, the accepted point's and the trial's: a point the
        # chain has moved past must not keep its factorization alive.
        alive = weakref.WeakValueDictionary()
        most = []
        real = hypermarg.mm.dense_objective_pieces

        def counted(problem, theta):
            pieces = real(problem, theta)
            alive[id(pieces)] = pieces
            most.append(len(alive))
            return pieces

        monkeypatch.setattr(hypermarg.mm, "dense_objective_pieces", counted)
        out = mm_optimize_exact(tomo_problem(s=4, n_src=3, n_rec=5, seed=4), outer_iters=4)
        assert sum(rec.accepted for rec in out.records) >= 2
        assert len(most) > 20 and max(most) <= 3

    def test_trial_whose_factorization_fails_is_backtracked_from(self, monkeypatch):
        # Every factorization below half the start's noise variance fails.
        # The line search backtracks from those trial points, the records
        # count them, and the chain completes above that floor.
        problem = tomo_problem(s=4, n_src=3, n_rec=5, seed=0)
        start = problem.box.center()
        real = hypermarg.mm.dense_objective_pieces

        def failing(problem, theta, *args, **kwargs):
            if theta[0] < 0.5 * start[0]:
                raise NumericalError("dense Psi factorization failed")
            return real(problem, theta, *args, **kwargs)

        monkeypatch.setattr(hypermarg.mm, "dense_objective_pieces", failing)
        out = mm_optimize_exact(problem)
        assert sum(rec.failed_trials for rec in out.records) > 0
        assert out.theta[0] >= 0.5 * start[0]
        assert out.f_value < eval_F_exact(problem, start).value


class TestM3cChain:
    def test_each_inner_loop_starts_from_the_last_ones_step(self, monkeypatch):
        real = hypermarg.mm.projected_gradient_min
        given, ended = [], []

        def recorder(*args, step0=None, **kwargs):
            given.append(step0)
            out = real(*args, step0=step0, **kwargs)
            ended.append(out.step)
            return out

        monkeypatch.setattr(hypermarg.mm, "projected_gradient_min", recorder)
        problem = tomo_problem(s=4, n_src=3, n_rec=5, seed=2)
        out = m3c_optimize(problem, outer_iters=4, n_probes=8, seed=5)
        assert len(given) == len(out.records) >= 3
        assert given == [None] + ended[:-1]
        assert all(step > 0 for step in ended)

    def test_loop_that_finds_no_step_hands_on_the_reduced_step(self):
        # On a deterministic majorant no trial descends from the anchor: the
        # first inner loop halves down to the tolerance scale and proposes
        # the anchor, which the audit accepts.  The second loop, on the same
        # majorant, must start where that halving stopped; starting from the
        # first loop's step would repeat it bit for bit.
        problem = tomo_problem(s=4, n_src=3, n_rec=5, seed=4)
        theta0 = problem.box.center()
        trials = []  # each inner loop's trial points, in order

        def majorant(t, theta_t, solved, widen):
            seen = []
            trials.append(seen)

            def value(theta):
                seen.append(theta)
                return Point(theta, 1.0, None, lambda: np.ones_like(theta))

            stub = SimpleNamespace(value=value, n_probes=0, pcg_iters=0)
            return stub, Point(theta_t, 0.0, None, lambda: np.ones_like(theta_t))

        out = hypermarg.mm._mm_chain(
            problem, theta0, None, majorant, lambda theta, solved: 0.0,
            outer_iters=2, tol=1e-6, inner_iters=10, inner_tol=1e-6,
        )
        assert [rec.inner_stop for rec in out.records] == ["line_search"] * 2
        assert not out.converged
        first = [np.linalg.norm(np.log(seen[0]) - np.log(theta0)) for seen in trials]
        assert first[1] < first[0]
        np.testing.assert_array_equal(trials[1][0], trials[0][-1])

    @pytest.mark.parametrize("chain", ["m3c", "exact"])
    def test_inverse_hessian_crosses_a_rejection_only_to_a_new_majorant(
        self, monkeypatch, chain
    ):
        # Every proposal is rejected.  m3c's next majorant is a wider
        # sample, 4 -> 8 probes, then the dense one at m = 15: each is a new
        # function, and H carries into it.  The dense one is rebuilt as
        # itself after its rejection, as the exact chain's majorant always
        # is, and there the next loop starts again from step * I.  The step
        # scale carries across every rejection.
        real = hypermarg.mm.projected_gradient_min
        given, ended = [], []

        def recorder(*args, step0=None, h0=None, **kwargs):
            given.append((step0, h0))
            out = real(*args, step0=step0, h0=h0, **kwargs)
            ended.append((out.step, out.h))
            return out

        monkeypatch.setattr(hypermarg.mm, "projected_gradient_min", recorder)
        monkeypatch.setattr(hypermarg.mm, "AUDIT_SLACK_REL", -100.0)
        problem = tomo_problem(s=4, n_src=3, n_rec=5, seed=8)
        if chain == "m3c":
            out = m3c_optimize(problem, outer_iters=4, n_probes=4, seed=1)
            assert [rec.n_probes for rec in out.records] == [4, 8, 15, 15]
            carried = [True, True, False]
        else:
            out = mm_optimize_exact(problem, outer_iters=3)
            carried = [False, False]
        assert not any(rec.accepted for rec in out.records)
        assert [step for step, _ in given] == [None] + [step for step, _ in ended[:-1]]
        assert given[0][1] is None
        for carries, (_, h), (_, h0) in zip(carried, ended, given[1:]):
            assert h is not None
            assert (h0 is h) if carries else (h0 is None)

    def test_descends_and_mostly_accepts(self):
        problem = tomo_problem(s=6, n_src=5, n_rec=6, seed=8)
        f0 = eval_F_exact(problem, problem.box.center()).value
        out = m3c_optimize(
            problem, outer_iters=10, n_probes=16, seed=0, tol=1e-6
        )
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
        # where the majorant is the dense exact one: that outer iteration
        # builds no probe block and makes no CG solve, and its trace is
        # exact, as m canonical probes would make it.
        assert problem.m == 15
        monkeypatch.setattr(hypermarg.mm, "AUDIT_SLACK_REL", -100.0)
        out = m3c_optimize(problem, theta0=theta0, outer_iters=3, n_probes=4, seed=1)
        assert not out.converged
        assert all(not rec.accepted for rec in out.records)
        assert [rec.n_probes for rec in out.records] == [4, 8, 15]
        assert [block.shape[1] for block in blocks] == [4, 8]
        assert out.records[2].pcg_iters == 0
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

    @pytest.mark.parametrize("above", [True, False], ids=["slq", "exact"])
    def test_audit_is_slq_exactly_above_the_dense_limit(self, monkeypatch, above):
        problem = tomo_problem(s=4, n_src=3, n_rec=5, seed=3)
        monkeypatch.setattr(hypermarg.mm, "DENSE_LIMIT", problem.m - 1 if above else problem.m)
        calls = {"slq": 0, "exact": 0}

        def counted(kind, real):
            def spy(*args, **kwargs):
                calls[kind] += 1
                return real(*args, **kwargs)

            return spy

        monkeypatch.setattr(hypermarg.mm, "eval_F_slq", counted("slq", hypermarg.mm.eval_F_slq))
        monkeypatch.setattr(
            hypermarg.mm, "eval_F_exact", counted("exact", hypermarg.mm.eval_F_exact)
        )
        out = m3c_optimize(problem, outer_iters=2, n_probes=8, seed=0)
        used = "slq" if above else "exact"
        assert calls[used] == len(out.records) + 1
        assert calls["exact" if above else "slq"] == 0

    def test_slq_audit_mode_runs(self, monkeypatch):
        problem = tomo_problem(s=4, n_src=3, n_rec=5, seed=3)
        slq_audit(monkeypatch, problem)
        out = m3c_optimize(problem, outer_iters=3, n_probes=8, seed=0)
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
        slq_audit(monkeypatch, problem)
        blocks = spy_probe_blocks(monkeypatch)
        start = problem.box.center()
        out = m3c_optimize(problem, outer_iters=3, n_probes=4, seed=0)
        assert len(calls) == 4
        assert not out.converged
        assert all(not rec.accepted for rec in out.records)
        assert [rec.n_probes for rec in out.records] == [4, 8, 15]
        np.testing.assert_array_equal(blocks[-1], canonical_probes(15))
        np.testing.assert_array_equal(out.theta, start)

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
        # From the box center an inner loop finds no step above its
        # tolerance scale and proposes the anchor itself; the audit accepts
        # that null step, but it is no evidence of stationarity (the exact
        # gradient there has norm about 190).
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


class TestM3cOnSuperres:
    """Default m3c from the center ends at the exact chain's optimum.

    There the sampled majorant sits at the integer-shift kink of the
    bilinear warp.  While each inner loop started from step * I, its line
    search found only tolerance-scale steps there, and m3c stopped 6.5-8
    nats above the exact chain.  It gets past with the inverse Hessian
    carried across the first rejection.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reaches_the_exact_chain_on_superres_16(self, seed):
        t0 = time.time()
        problem = superres_problem(s=16, decim=2, frames=2, seed=seed)
        exact = mm_optimize_exact(problem, outer_iters=100)
        assert exact.converged
        out = m3c_optimize(problem, theta0=problem.box.center())
        assert out.converged
        assert abs(eval_F_exact(problem, out.theta).value - exact.f_value) <= 0.01
        assert time.time() - t0 < 60, "runtime budget of 60 s exceeded"


class TestQuickStartM3c:
    """What the quick start's m3c run costs and records."""

    @pytest.fixture(scope="class")
    def run(self):
        stops = []
        real = hypermarg.mm.projected_gradient_min

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            stops.append(out.stop)
            return out

        problem = make_test_problem("tomo", s=8, n_src=8, n_rec=9, seed=0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hypermarg.mm, "projected_gradient_min", spy)
            out = m3c_optimize(
                problem, problem.box.center(), outer_iters=25, n_probes=16, seed=0
            )
        return problem, out, stops

    def test_surrogate_evaluations_stay_within_budget(self, run):
        # 1,044 evaluations and 64,253 Psi applications when each line
        # search halved up to 40 times at the misfit solve's noise floor and
        # every inner loop guessed its first step afresh; 19,889 PCG
        # iterations and 42,187 Psi applications with a rank-32
        # preconditioner, which missed part of A Q A^T's spectrum; 581
        # evaluations and 3,695 PCG iterations along projected steepest
        # descent with Barzilai-Borwein steps; about 300 evaluations, 2,300
        # PCG iterations and 16,000 Psi applications along projected BFGS
        # when each inner loop started from step * I and N = m ran m CG
        # solves per anchor, against about 160, 1,200 and 5,100 with the
        # inverse Hessian carried and the dense majorant at N = m
        problem, out, _ = run
        assert out.converged
        assert sum(rec.fn_evals for rec in out.records) <= 250
        assert sum(rec.pcg_iters for rec in out.records) <= 1_600
        assert problem.counters.snapshot()["psi"] <= 8_000

    def test_records_carry_the_inner_stop(self, run):
        _, out, stops = run
        assert [rec.inner_stop for rec in out.records] == stops
        assert set(stops) <= {"move", "flat", "stationary", "line_search", "max_iters"}


class TestExactChainsOnDeblur:
    """The benchmark's exact chains: deblur s=16, 6 outer iterations of at most 40."""

    def test_three_chains_stay_within_their_evaluation_budget(self):
        # 953 evaluations, and 6 of the 18 inner loops at their cap, along
        # projected steepest descent with Barzilai-Borwein steps; about 340,
        # and none at the cap, along projected BFGS from step * I in every
        # inner loop; about 280 with the inverse Hessian carried
        records = []
        for seed in range(3):
            problem = make_test_problem("deblur", s=16, seed=seed)
            records += mm_optimize_exact(problem, outer_iters=6, inner_iters=40).records
        assert len(records) == 18
        assert sum(rec.fn_evals for rec in records) <= 330
        assert all(rec.inner_stop != "max_iters" for rec in records)


class TestInnerLoopsFinishBelowTheirCaps:
    """The quick start's inner loops stop on their own tests.

    With a step that only doubled or halved, 12 of the 20 m3c loops ran to
    their cap of 50 (827 inner iterations), and 6 of the 18 exact-chain
    loops to their cap of 100 (1,183).  Projected BFGS from step * I in
    every loop took about 225 and 215; with the inverse Hessian carried
    from loop to loop, about 120 and 90.
    """

    def test_quick_start(self):
        problem = make_test_problem("tomo", s=8, n_src=8, n_rec=9, seed=0)
        out = m3c_optimize(
            problem, problem.box.center(), outer_iters=25, n_probes=16, seed=0
        )
        inner = [rec.inner_iters for rec in out.records]
        assert sum(inner) <= 250
        assert inner.count(50) <= 1
        exact = mm_optimize_exact(problem)
        inner = [rec.inner_iters for rec in exact.records]
        assert sum(inner) <= 200
        assert max(inner) < 100
