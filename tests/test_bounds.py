import math

import mpmath
import numpy as np
import pytest

import hypermarg.bounds
from hypermarg import Box
from hypermarg.bounds import (
    M3cSchedule,
    SlqPlan,
    SpectralConstants,
    covering_number_log,
    estimate_spectral_constants,
    lanczos_steps_bound,
    m3c_sample_schedule,
    slq_samples_bound,
    uniform_slq_plan,
)

from test_objective import noise_only_problem


class TestSpectralConstants:
    def test_surrogate_norm_ratios(self):
        c = SpectralConstants(alpha=1.0, beta=2.0, lipschitz=1.0)
        assert c.kappa == 2.0
        assert abs(c.varsigma_frob(50) - 2.0 * math.sqrt(50)) < 1e-12
        assert c.varsigma_two() == 2.0

    def test_exact_norms_override_surrogates(self):
        c = SpectralConstants(
            alpha=0.5, beta=2.0, lipschitz=0.0, frob_max=6.0, two_max=1.5
        )
        assert c.varsigma_frob(100) == 12.0
        assert c.varsigma_two() == 3.0

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="alpha"):
            SpectralConstants(alpha=0.0, beta=1.0, lipschitz=0.0)
        with pytest.raises(ValueError, match="alpha"):
            SpectralConstants(alpha=2.0, beta=1.0, lipschitz=0.0)
        with pytest.raises(ValueError, match="negative"):
            SpectralConstants(alpha=1.0, beta=2.0, lipschitz=-1.0)
        with pytest.raises(ValueError, match="frob_max"):
            SpectralConstants(alpha=1.0, beta=2.0, lipschitz=0.0, frob_max=1.0)
        with pytest.raises(ValueError, match="two_max"):
            SpectralConstants(alpha=1.0, beta=2.0, lipschitz=0.0, two_max=3.0)


class TestCoveringBound:
    # covering_number_log is the log of the bound max((3 r / eta)^p, 1)

    def test_unit_ball_unit_resolution(self):
        assert covering_number_log(1.0, 1.0, 3) == pytest.approx(3.0 * math.log(3.0))

    def test_radius_two(self):
        assert covering_number_log(2.0, 1.0, 1) == pytest.approx(math.log(6.0))

    def test_coarse_resolution_needs_one_point(self):
        assert covering_number_log(1.0, 1.5, 4) == 0.0
        assert covering_number_log(1.0, math.inf, 4) == 0.0

    def test_log_matches_bound(self):
        assert covering_number_log(3.0, 0.1, 5) == pytest.approx(5.0 * math.log(90.0))

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            covering_number_log(-1.0, 0.5, 2)
        with pytest.raises(ValueError):
            covering_number_log(1.0, 0.0, 2)
        with pytest.raises(ValueError):
            covering_number_log(1.0, 0.5, 0)


class TestLanczosStepsBound:
    def test_worked_example(self):
        # kappa=1, m=10, eps=1:
        #   sqrt(2)/4 * ln(4 * 10 * (sqrt(2)+1) * ln 2) = 1.486... -> 2 steps
        assert lanczos_steps_bound(1.0, 10, 1.0) == 2

    def test_condition_number_below_one_rejected(self):
        with pytest.raises(ValueError, match="condition"):
            lanczos_steps_bound(0.5, 10, 0.1)

    def test_monotone_in_accuracy_and_conditioning(self):
        ks = [lanczos_steps_bound(10.0, 100, e) for e in (1.0, 0.1, 0.01)]
        assert ks == sorted(ks)
        ks = [lanczos_steps_bound(k, 100, 0.1) for k in (1.0, 10.0, 100.0)]
        assert ks == sorted(ks)

    def test_generous_accuracy_clamps_to_one_step(self):
        assert lanczos_steps_bound(1.0, 1, 1e9) == 1


class TestSlqSamplesBound:
    CONSTANTS = SpectralConstants(alpha=1.0, beta=2.0, lipschitz=1.0)

    def test_high_precision_recomputation_agrees(self):
        # Same formula evaluated with 80-digit arithmetic must give the same
        # integer: the double-precision path is nowhere near a ceil boundary.
        n = slq_samples_bound(0.5, 0.1, 50, 2, 1.0, self.CONSTANTS)
        with mpmath.workdps(80):
            eps, delta, m, p, r = map(mpmath.mpf, ("0.5", "0.1", "50", "2", "1"))
            alpha, beta, lip = map(mpmath.mpf, ("1", "2", "1"))
            sf = mpmath.sqrt(m) * beta / alpha
            s2 = beta / alpha
            eta = alpha * eps / (5 * m * lip)
            log_gamma = p * mpmath.log(3 * r / eta)
            raw = 32 * (mpmath.mpf(25) / 4 / eps**2 * sf**2 + mpmath.mpf(5) / 2 / eps * s2)
            raw = raw * (mpmath.log(2 / delta) + log_gamma)
            assert n == int(mpmath.ceil(raw))

    def test_theta_independent_family_skips_covering(self):
        fixed = SpectralConstants(alpha=1.0, beta=2.0, lipschitz=0.0)
        n_fixed = slq_samples_bound(0.5, 0.1, 50, 2, 1.0, fixed)
        n_lip = slq_samples_bound(0.5, 0.1, 50, 2, 1.0, self.CONSTANTS)
        assert n_fixed < n_lip
        raw = 32.0 * (6.25 / 0.25 * 200.0 + 5.0 * 2.0) * math.log(20.0)
        assert n_fixed == math.ceil(raw)

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            slq_samples_bound(0.0, 0.1, 50, 2, 1.0, self.CONSTANTS)
        with pytest.raises(ValueError):
            slq_samples_bound(0.5, 1.0, 50, 2, 1.0, self.CONSTANTS)

    def test_plan_bundles_matching_pieces(self):
        plan = uniform_slq_plan(0.5, 0.1, 50, 2, 1.0, self.CONSTANTS)
        assert isinstance(plan, SlqPlan)
        assert plan.n_probes == slq_samples_bound(0.5, 0.1, 50, 2, 1.0, self.CONSTANTS)
        assert plan.k_steps == lanczos_steps_bound(2.0, 50, 0.2)
        assert abs(plan.eta - 0.002) < 1e-15
        assert abs(plan.log_gamma - 2.0 * math.log(1500.0)) < 1e-12
        assert abs(plan.gamma - 1500.0**2) < 1e-6

    def test_plan_without_lipschitz_has_unit_gamma(self):
        fixed = SpectralConstants(alpha=1.0, beta=2.0, lipschitz=0.0)
        plan = uniform_slq_plan(0.5, 0.1, 50, 2, 1.0, fixed)
        assert plan.eta == math.inf
        assert plan.log_gamma == 0.0
        assert plan.gamma == 1.0


class TestM3cSchedule:
    CONSTANTS = SpectralConstants(alpha=1.0, beta=2.0, lipschitz=1.0)

    def test_budgets_tighten_geometrically(self):
        sched = m3c_sample_schedule(0.5, 0.1, 0.8, 6, 50, 2, 1.0, self.CONSTANTS)
        assert isinstance(sched, M3cSchedule)
        assert sched.delta0 == pytest.approx(0.1 * 0.2)
        for t in range(6):
            assert sched.eps[t] == pytest.approx(0.5 * 0.8**t)
            assert sched.delta[t] == pytest.approx(sched.delta0 * 0.8**t)
        assert list(sched.n_probes) == sorted(sched.n_probes)
        assert all(n >= 1 for n in sched.n_probes)

    def test_total_failure_probability_telescopes(self):
        sched = m3c_sample_schedule(0.5, 0.1, 0.8, 40, 50, 2, 1.0, self.CONSTANTS)
        assert sum(sched.delta) < 0.1

    def test_high_precision_recomputation_agrees(self):
        sched = m3c_sample_schedule(0.5, 0.1, 0.8, 5, 50, 2, 1.0, self.CONSTANTS)
        with mpmath.workdps(80):
            eps0, delta, rho = map(mpmath.mpf, ("0.5", "0.1", "0.8"))
            m, p, r = map(mpmath.mpf, ("50", "2", "1"))
            alpha, beta, lip = map(mpmath.mpf, ("1", "2", "1"))
            sf = mpmath.sqrt(m) * beta / alpha
            s2 = beta / alpha
            delta0 = delta * (1 - rho)
            for t in range(5):
                e = eps0 * rho**t
                d = delta0 * rho**t
                log_gamma = p * mpmath.log(12 * r * m * lip / (e * alpha))
                raw = 16 * (2 * sf**2 + e * s2) / e**2 * (
                    mpmath.log(2 / d) + log_gamma
                )
                assert sched.n_probes[t] == int(mpmath.ceil(raw))

    def test_frobenius_dominated_regime(self):
        # When eps_t * s2 << 2 sF^2 the count collapses to
        # 32 sF^2 / eps_t^2 * ln(2 gamma_t / delta_t) to within 10%.
        sched = m3c_sample_schedule(0.5, 0.1, 0.7, 4, 50, 2, 1.0, self.CONSTANTS)
        sf = self.CONSTANTS.varsigma_frob(50)
        for t in range(4):
            log_term = math.log(2.0 / sched.delta[t]) + sched.log_gamma[t]
            dominant = 32.0 * sf**2 / sched.eps[t] ** 2 * log_term
            assert abs(sched.n_probes[t] - dominant) / dominant < 0.1

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError, match="rho"):
            m3c_sample_schedule(0.5, 0.1, 1.0, 5, 50, 2, 1.0, self.CONSTANTS)
        with pytest.raises(ValueError):
            m3c_sample_schedule(-0.5, 0.1, 0.8, 5, 50, 2, 1.0, self.CONSTANTS)


class TestEstimateSpectralConstants:
    def scaled_identity_problem(self):
        return noise_only_problem(
            np.zeros(6), box=Box(np.array([1.0]), np.array([2.0]))
        )

    def test_dense_mode_exact_on_scaled_identity(self):
        problem = self.scaled_identity_problem()
        c = estimate_spectral_constants(problem, n_samples=4, seed=0)
        assert abs(c.alpha - 1.0) < 1e-12
        assert abs(c.beta - 2.0) < 1e-12
        assert abs(c.lipschitz - 1.0) < 1e-12
        assert abs(c.frob_max - 2.0 * math.sqrt(6.0)) < 1e-12
        assert abs(c.two_max - 2.0) < 1e-12

    def test_matfree_mode_exact_on_scaled_identity(self, monkeypatch):
        # the matrix-free estimator serves problems the dense oracle refuses
        problem = self.scaled_identity_problem()
        monkeypatch.setattr(hypermarg.bounds, "DENSE_LIMIT", problem.m - 1)
        c = estimate_spectral_constants(problem, n_samples=4, seed=0)
        assert abs(c.alpha - 1.0) < 1e-10
        assert abs(c.beta - 2.0) < 1e-10
        assert abs(c.lipschitz - 1.0) < 1e-10
        assert abs(c.frob_max - 2.0 * math.sqrt(6.0)) < 1e-10

    def test_theta_independent_family_has_zero_lipschitz(self):
        m = 5
        problem = noise_only_problem(
            np.zeros(m), box=Box(np.array([0.5]), np.array([2.0]))
        )
        fixed = type(problem)(
            **{**problem.__dict__, "noise_index": None, "noise_var": 1.0}
        )
        c = estimate_spectral_constants(fixed, n_samples=4, seed=0)
        assert c.lipschitz == 0.0
        assert abs(c.alpha - 1.0) < 1e-12
        assert abs(c.beta - 1.0) < 1e-12


class TestSurrogateLipschitzDiagnostic:
    def test_logdet_surrogate_slope_bounded_by_constants(self):
        # the trace half of the majorant inherits Lipschitz constant
        # m L / alpha from the operator family; sampled secant slopes must
        # stay below the estimated bundle's version of that bound
        from hypermarg.objective import dense_objective_pieces
        from hypermarg.problems import make_test_problem
        from hypermarg.rng import stream

        problem = make_test_problem("tomo", s=5, n_src=4, n_rec=6, seed=0)
        k = estimate_spectral_constants(problem, n_samples=8, seed=0)
        anchor = dense_objective_pieces(problem, problem.box.center())
        logdet_t, psi_t_inv = anchor.logdet(), anchor.inverse()

        def trace_part(theta):
            psi = dense_objective_pieces(problem, theta).psi
            return 0.5 * (logdet_t - problem.m + float(np.vdot(psi_t_inv, psi)))

        rng = stream(13, "surrogate-lipschitz")
        bound = problem.m * k.lipschitz / k.alpha
        worst = 0.0
        for _ in range(30):
            th_a = problem.box.sample(rng)
            th_b = problem.box.sample(rng)
            gap = np.linalg.norm(th_a - th_b)
            if gap < 1e-9:
                continue
            slope = abs(trace_part(th_a) - trace_part(th_b)) / gap
            worst = max(worst, slope)
        assert worst > 0.0
        assert worst <= bound * 1.1
