import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from hypermarg import (
    Box,
    HyperPrior,
    ProblemSpec,
    build_psi,
    deblur_problem,
    make_test_problem,
    reconstruct,
    superres_problem,
    tomo_problem,
)
from hypermarg import objective
from hypermarg.mm import exact_surrogate
from hypermarg.objective import (
    _DerivativeActions,
    dense_gradient,
    dense_objective_pieces,
    eval_F_exact,
    eval_F_slq,
    grad_F_exact,
    grad_F_slq,
    psi_preconditioner,
)
from hypermarg.operators import NumericalError, ScaledIdentityOp, SparseLinOp
from hypermarg.pcg import pcg_solve
from hypermarg.probes import canonical_probes, rademacher_probes
from hypermarg.saa import saa_optimize

from fd import daleckii_krein, grad_fd_central, grad_fd_five_point


def noise_only_problem(b, prior=None, box=None):
    """Psi(theta) = theta_1 * I: A = 0, so only the noise variance matters."""
    b = np.asarray(b, dtype=float)
    m = b.shape[0]
    if prior is None:
        prior = HyperPrior((("uniform",),))
    if box is None:
        box = Box(lower=np.array([1e-3]), upper=np.array([50.0]))
    return ProblemSpec(
        name="noise-only",
        n=1,
        m=m,
        q_dim=1,
        ell=0,
        mu_x=np.zeros(1),
        b=b,
        box=box,
        prior=prior,
        a_builder=lambda y: SparseLinOp(scipy.sparse.csr_matrix((m, 1))),
        q_builder=lambda psi: ScaledIdentityOp(1.0, 1),
        dq_builders=(None,),
        noise_index=0,
    )


def constant_prior_mean(problem, value):
    """The same problem with mu_x = value everywhere."""
    return ProblemSpec(**{**problem.__dict__, "mu_x": np.full(problem.n, value)})


def relerr(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestExactObjective:
    def test_unit_noise_value_is_half_b_squared(self):
        problem = noise_only_problem(np.array([3.0, 4.0]))
        out = eval_F_exact(problem, np.array([1.0]))
        # Psi = I: logdet = 0, misfit = |b|^2 = 25, flat prior.
        assert abs(out.value - 12.5) < 1e-12
        assert abs(out.logdet_part) < 1e-12
        assert abs(out.misfit - 25.0) < 1e-12
        assert out.prior_part == 0.0

    def test_scaled_noise_value(self):
        problem = noise_only_problem(np.zeros(6))
        out = eval_F_exact(problem, np.array([2.0]))
        # Psi = 2I on R^6 with b = 0: F = (1/2) * 6 * ln 2.
        assert abs(out.value - 3.0 * np.log(2.0)) < 1e-12
        assert abs(out.misfit) < 1e-15
        np.testing.assert_allclose(out.r, np.zeros(6))

    def test_pieces_sum_to_value(self):
        problem = deblur_problem(s=8, seed=3)
        out = eval_F_exact(problem, problem.theta_true)
        total = out.prior_part + 0.5 * out.logdet_part + 0.5 * out.misfit
        assert abs(out.value - total) < 1e-12 * max(1.0, abs(out.value))

    def test_residual_solves_psi(self):
        problem = tomo_problem(s=6, n_src=5, n_rec=6, seed=1)
        theta = problem.theta_true
        out = eval_F_exact(problem, theta)
        psi = build_psi(problem, theta).matmat(np.eye(problem.m))
        c = problem.residual_offset(theta)
        np.testing.assert_allclose(psi @ out.r, c, atol=1e-10)

    def test_dense_path_refuses_large_problems(self):
        problem = noise_only_problem(np.zeros(3000))
        with pytest.raises(ValueError, match="dense"):
            eval_F_exact(problem, np.array([1.0]))

    def test_failed_factorization_is_numerical_error(self):
        # Psi = theta_1 I is indefinite for theta_1 < 0
        problem = noise_only_problem(
            np.ones(4), box=Box(lower=np.array([-2.0]), upper=np.array([2.0]))
        )
        with pytest.raises(NumericalError, match="factorization failed"):
            eval_F_exact(problem, np.array([-1.0]))
        with pytest.raises(NumericalError, match="factorization failed"):
            grad_F_exact(problem, np.array([-1.0]))


class TestExactGradient:
    def test_noise_only_closed_form(self):
        b = np.array([1.0, -2.0, 0.5, 3.0])
        problem = noise_only_problem(b)
        bb = float(b @ b)
        for t in (0.5, 1.0, 2.7):
            g = grad_F_exact(problem, np.array([t]))
            expected = 4.0 / (2.0 * t) - bb / (2.0 * t**2)
            assert abs(g[0] - expected) < 1e-12 * max(1.0, abs(expected))

    def test_gamma_prior_shifts_gradient_by_rate(self):
        b = np.array([1.0, -2.0, 0.5, 3.0])
        flat = noise_only_problem(b)
        gamma = noise_only_problem(b, prior=HyperPrior.gamma(0.75, 1))
        theta = np.array([1.3])
        g_flat = grad_F_exact(flat, theta)
        g_gamma = grad_F_exact(gamma, theta)
        assert abs((g_gamma[0] - g_flat[0]) - 0.75) < 1e-12

    @pytest.mark.parametrize(
        "make",
        [
            lambda: deblur_problem(s=8, seed=5),
            lambda: tomo_problem(s=8, n_src=5, n_rec=6, seed=5),
            lambda: superres_problem(s=8, decim=2, frames=2, seed=5),
        ],
        ids=["deblur", "tomo", "superres"],
    )
    def test_matches_central_differences(self, make):
        problem = make()
        theta = problem.theta_true
        g = grad_F_exact(problem, theta)
        g_fd = grad_fd_central(
            lambda t: eval_F_exact(problem, t).value, theta, problem.box, eps_rel=1e-6
        )
        assert relerr(g_fd, g) < 1e-5

    def test_missing_forward_derivative_raises(self):
        problem = deblur_problem(s=6)
        broken = ProblemSpec(
            **{
                **problem.__dict__,
                "da_builders": (problem.da_builders[0], None, problem.da_builders[2]),
            }
        )
        with pytest.raises(ValueError, match="forward-map component 1"):
            grad_F_exact(broken, problem.theta_true)


def dense_gradient_reference(problem, theta, p_mat):
    """prior + 1/2 tr(P dPsi_j) - 1/2 r^T dPsi_j r (+ r^T dA_j mu_x), all dense.

    Each dPsi_j is formed as an m x m array from dense A, Q, dQ and dA
    (A dQ A^T, dA Q A^T + A Q dA^T, and I at the noise component), and r
    solves the dense Psi(theta) by LU, so nothing is shared with the oracle.
    """
    psi_params, y = problem.split(theta)
    a = problem.build_a(y).dense()
    eye_n = np.eye(problem.n)
    q = problem.build_q(psi_params)._apply(eye_n)
    psi = a @ q @ a.T + problem.noise_variance(psi_params) * np.eye(problem.m)
    r = np.linalg.solve(psi, a @ problem.mu_x - problem.b)
    grad = problem.prior.grad_neglog(theta)
    for j in range(problem.p):
        dpsi = np.zeros((problem.m, problem.m))
        dc_term = 0.0
        if j < problem.q_dim:
            if problem.dq_builders[j] is not None:
                dq = problem.dq_builders[j](psi_params)._apply(eye_n)
                dpsi += a @ dq @ a.T
            if j == problem.noise_index:
                dpsi += np.eye(problem.m)
        else:
            da = problem.da_builders[j - problem.q_dim](y).dense()
            dpsi += da @ q @ a.T + a @ q @ da.T
            dc_term = float(r @ (da @ problem.mu_x))
        grad[j] += 0.5 * np.sum(p_mat * dpsi) - 0.5 * r @ dpsi @ r + dc_term
    return grad


class TestDenseGradientReference:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: deblur_problem(s=6, seed=3),
            lambda: constant_prior_mean(deblur_problem(s=6, seed=3), 0.3),
            lambda: tomo_problem(s=5, n_src=4, n_rec=6, seed=3),
            lambda: superres_problem(s=8, decim=2, frames=2, seed=3),
        ],
        ids=["deblur", "deblur-nonzero-mean", "tomo", "superres"],
    )
    def test_matches_dense_dpsi_formula(self, make):
        # both the gradient of F (P = Psi(theta)^{-1}) and of the majorant
        # (P the inverse at another point) against the dense formula
        problem = make()
        theta = problem.box.project(problem.theta_true)
        other = problem.box.project(theta + 0.05 * (problem.box.upper - problem.box.lower))
        pieces = dense_objective_pieces(problem, theta)
        for p_mat in (pieces.inverse(), dense_objective_pieces(problem, other).inverse()):
            g = dense_gradient(problem, pieces, p_mat)
            ref = dense_gradient_reference(problem, theta, p_mat)
            assert np.abs(g - ref).max() <= 1e-10 * np.abs(ref).max()


class TestDenseOracleLedger:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: deblur_problem(s=8, seed=4),
            lambda: tomo_problem(s=6, n_src=5, n_rec=6, seed=4),
            lambda: superres_problem(s=8, decim=2, frames=2, seed=4),
            lambda: constant_prior_mean(deblur_problem(s=6, seed=4), 0.3),
        ],
        ids=["deblur", "tomo", "superres", "deblur-nonzero-mean"],
    )
    def test_dense_oracle_charges_no_ledger(self, make):
        # the oracle's operators act through their uncounted _apply and its
        # residual offset A mu_x - b uses the dense A, so the matvec ledger
        # measures only the matrix-free paths
        problem = make()
        theta_t = problem.theta_true
        theta = problem.box.project(1.1 * theta_t)
        start = problem.counters.snapshot()
        pieces = dense_objective_pieces(problem, theta)
        dense_gradient(problem, pieces, pieces.inverse())
        exact_surrogate(problem, theta, theta_t)
        assert problem.counters.snapshot() == start


class TestFiniteDifferences:
    def test_central_differences_match_smooth_function(self):
        box = Box(lower=np.array([-10.0, -10.0]), upper=np.array([10.0, 10.0]))
        f = lambda t: float(np.sin(t[0]) + t[0] * t[1] ** 2)
        theta = np.array([0.3, -1.2])
        expected = np.array([np.cos(0.3) + 1.44, 2.0 * 0.3 * (-1.2)])
        g = grad_fd_central(f, theta, box, eps_rel=1e-6)
        np.testing.assert_allclose(g, expected, rtol=1e-9, atol=1e-9)
        g = grad_fd_five_point(f, theta, eps_rel=1e-3)
        np.testing.assert_allclose(g, expected, rtol=1e-11, atol=1e-11)


def logdet_part_gradient(problem, theta, evaluation):
    """grad_F_slq's log-det part: the misfit solve zeroed, the prior's gradient taken off."""
    no_misfit = dataclasses.replace(evaluation, r=np.zeros_like(evaluation.r))
    return grad_F_slq(problem, theta, no_misfit) - problem.prior.grad_neglog(theta)


def daleckii_krein_logdet_gradient(problem, theta, w):
    """d/dtheta of 1/(2N) sum_i w_i^T log(Psi) w_i, all dense.

    The dense derivative of the log quadratic forms with respect to Psi,
    paired with each dPsi_j formed densely from the derivative actions on
    the identity.
    """
    psi = dense_objective_pieces(problem, theta).psi
    n = w.shape[1]
    mat = daleckii_krein(psi, w, np.full(n, 0.5 / n))
    dpsi = _DerivativeActions(problem, theta).apply_all(np.eye(problem.m))
    return np.einsum("jab,ab->j", dpsi, mat)


def slq_gradient_in_u(problem, theta, w, k_steps):
    """grad_F_slq and five-point differences of F_hat, both in u = log theta.

    Coordinates with a positive lower bound move in log theta, as the box
    minimizer moves them; F_hat is evaluated with CG at 1e-12 throughout.
    """
    log = problem.box.lower > 0
    u = np.where(log, np.log(theta, where=log, out=theta.copy()), theta)
    evaluation = eval_F_slq(problem, theta, w, k_steps, pcg_tol=1e-12)
    g = grad_F_slq(problem, theta, evaluation)

    def f(v):
        t = np.where(log, np.exp(v), v)
        return eval_F_slq(problem, t, w, k_steps, pcg_tol=1e-12).value

    return np.where(log, theta * g, g), grad_fd_five_point(f, u)


def off_center(problem):
    """A fixed point a tenth of the box away from its center in each coordinate."""
    box = problem.box
    shift = np.sin(np.arange(1.0, problem.p + 1.0))
    return box.project(box.center() + 0.1 * (box.upper - box.lower) * shift)


class TestSlqGradient:
    # Agreement with five-point differences in u, relative to the gradient's
    # norm, or to 0.1 near a stationary point: the differences themselves
    # carry about 1e-8 there, from F_hat's roundoff.
    @staticmethod
    def assert_matches(g, g_fd):
        assert np.linalg.norm(g - g_fd) <= 1e-6 * max(np.linalg.norm(g_fd), 0.1)

    @pytest.mark.parametrize("seed", [0, 2])
    def test_matches_differences_along_an_saa_path(self, seed):
        problem = make_test_problem("tomo", s=8, n_src=8, n_rec=9, seed=0)
        out = saa_optimize(problem, n_probes=16, seed=seed)
        w = rademacher_probes(problem.m, 16, seed, "saa")
        assert len(out.records) >= 8
        for rec in out.records:
            self.assert_matches(*slq_gradient_in_u(problem, rec.theta, w, 30))

    @pytest.mark.parametrize(
        "make, n_probes, k_steps",
        [
            (lambda: deblur_problem(s=8, seed=0), 16, 30),
            (lambda: deblur_problem(s=16, seed=0), 16, 30),
            (lambda: deblur_problem(s=16, seed=0), 4, 20),
            (lambda: superres_problem(s=8, decim=2, frames=2, seed=0), 16, 30),
        ],
        ids=["deblur-8", "deblur-16", "deblur-16-narrow", "superres-8"],
    )
    def test_matches_differences_off_center(self, make, n_probes, k_steps):
        # deblur-16-narrow's run has 81 basis vectors and r, fewer than m = 256
        problem = make()
        w = rademacher_probes(problem.m, n_probes, seed=3)
        self.assert_matches(*slq_gradient_in_u(problem, off_center(problem), w, k_steps))

    def test_nonzero_prior_mean_adds_the_forward_derivative_term(self):
        problem = constant_prior_mean(deblur_problem(s=8, seed=1), 0.3)
        w = rademacher_probes(problem.m, 8, seed=5)
        self.assert_matches(*slq_gradient_in_u(problem, off_center(problem), w, 20))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: deblur_problem(s=8, seed=0),
            lambda: tomo_problem(s=8, n_src=8, n_rec=9, seed=0),
        ],
        ids=["deblur", "tomo"],
    )
    def test_full_depth_log_det_part_is_daleckii_krein(self, make):
        problem = make()
        theta = problem.theta_true
        w = rademacher_probes(problem.m, 6, seed=1)
        evaluation = eval_F_slq(problem, theta, w, problem.m, pcg_tol=1e-12)
        ref = daleckii_krein_logdet_gradient(problem, theta, w)
        g = logdet_part_gradient(problem, theta, evaluation)
        assert relerr(g, ref) <= 1e-10

    def test_columns_that_break_down_run_back_over_their_own_steps(self):
        # At this box center Psi has two distinct eigenvalues on the probes'
        # Krylov spaces, so every column stops after two of its 30 steps and
        # its quadrature is exact: the dense derivative is the reference.
        # F_hat itself has a kink here (the warp's integer shift), so
        # differences are no reference.
        problem = superres_problem(s=8, decim=2, frames=2, seed=0)
        theta = problem.box.center()
        w = rademacher_probes(problem.m, 16, 0, "saa")
        evaluation = eval_F_slq(problem, theta, w, 30, pcg_tol=1e-12)
        assert np.all(evaluation.decomp.steps == 2)
        g = logdet_part_gradient(problem, theta, evaluation)
        assert np.all(np.isfinite(g))
        assert relerr(g, daleckii_krein_logdet_gradient(problem, theta, w)) <= 1e-10

    def test_noise_only_closed_form(self):
        # Psi = theta_1 I: every column stops after one step, and
        # F_hat = m/2 log theta_1 + |b|^2 / (2 theta_1) for sign probes
        b = np.array([1.0, 3.0, -2.0, 1.0, 2.0, -1.0])
        problem = noise_only_problem(b)
        w = rademacher_probes(b.size, 8, seed=0)
        for t in (0.5, 10.0 / 3.0, 7.0):
            theta = np.array([t])
            evaluation = eval_F_slq(problem, theta, w, 6, pcg_tol=1e-12)
            assert np.all(evaluation.decomp.steps == 1)
            expected = b.size / (2.0 * t) - float(b @ b) / (2.0 * t**2)
            g = grad_F_slq(problem, theta, evaluation)
            assert abs(g[0] - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_charges_one_psi_application_per_step_after_the_first(self):
        problem = tomo_problem(s=6, n_src=5, n_rec=6, seed=4)
        theta = problem.theta_true
        w = rademacher_probes(problem.m, 8, seed=1)
        evaluation = eval_F_slq(problem, theta, w, 12)
        before = problem.counters.snapshot()
        grad_F_slq(problem, theta, evaluation)
        after = problem.counters.snapshot()
        decomp = evaluation.decomp
        assert after["psi"] - before["psi"] == decomp.k_eff - w.shape[1]
        # the pairing with dPsi/dtheta applies A and Q outside Psi
        assert after["a"] - before["a"] > 2 * (after["psi"] - before["psi"])


class TestSlqObjective:
    def test_canonical_full_lanczos_matches_exact(self):
        problem = deblur_problem(s=8, seed=2)
        theta = problem.theta_true
        exact = eval_F_exact(problem, theta)
        probes = canonical_probes(problem.m)
        slq = eval_F_slq(problem, theta, probes, k_steps=problem.m, pcg_tol=1e-12)
        # Canonical probes visit every diagonal entry, and full-depth Lanczos
        # reproduces each quadratic form: the estimator collapses to the truth.
        assert abs(slq.value - exact.value) < 1e-8 * max(1.0, abs(exact.value))
        assert abs(slq.logdet_part - exact.logdet_part) < 1e-8

    def test_canonical_with_preconditioner_matches_exact(self, monkeypatch):
        # The preconditioned solves m3c makes at an anchor: a block CG over
        # canonical probes gives trace(Psi^{-1}) exactly, and the misfit
        # solve gives c^T Psi^{-1} c, with a preconditioner of rank below m.
        problem = deblur_problem(s=8, seed=2)
        theta = problem.theta_true
        pieces = dense_objective_pieces(problem, theta)
        monkeypatch.setattr(objective, "PRECOND_RANK", 24)
        pre = psi_preconditioner(problem, theta, seed=11)
        psi_op = build_psi(problem, theta)
        probes = canonical_probes(problem.m)
        block = pcg_solve(psi_op, probes, pre=pre, tol=1e-12)
        assert block.converged
        trace = float(np.mean(np.sum(probes * block.x, axis=0)))
        assert trace == pytest.approx(np.trace(pieces.inverse()), rel=1e-8)
        res = pcg_solve(psi_op, pieces.c, pre=pre, tol=1e-12)
        assert res.converged
        assert float(pieces.c @ res.x) == pytest.approx(
            float(pieces.c @ pieces.r), rel=1e-8
        )

    def test_rademacher_error_within_sampling_band(self):
        problem = tomo_problem(s=8, n_src=5, n_rec=6, seed=4)
        theta = problem.theta_true
        exact = eval_F_exact(problem, theta)
        psi = dense_objective_pieces(problem, theta).psi
        lam, vec = np.linalg.eigh(psi)
        log_psi = (vec * np.log(lam)) @ vec.T
        off = log_psi - np.diag(np.diag(log_psi))
        n_probes = 40
        band = 3.0 * np.sqrt(2.0 / n_probes) * np.linalg.norm(off)
        probes = rademacher_probes(problem.m, n_probes, seed=7)
        slq = eval_F_slq(problem, theta, probes, k_steps=problem.m, pcg_tol=1e-12)
        assert abs(slq.logdet_part - exact.logdet_part) <= band + 1e-8

    def test_deterministic_and_seed_sensitive(self):
        problem = tomo_problem(s=6, n_src=5, n_rec=6, seed=4)
        theta = problem.theta_true
        probes = rademacher_probes(problem.m, 8, seed=1)
        a = eval_F_slq(problem, theta, probes, k_steps=12)
        b = eval_F_slq(problem, theta, probes, k_steps=12)
        assert a.value == b.value
        other = rademacher_probes(problem.m, 8, seed=2)
        c = eval_F_slq(problem, theta, other, k_steps=12)
        assert c.value != a.value

    def test_unconverged_misfit_solve_raises(self):
        # At this box corner (noise variance 1e-6) CG stops at pcg_maxit far
        # from the solution: its misfit was 2,656 against the exact 68,611,
        # and F_hat about 1,500 against the exact 34,385.  A misfit that
        # low would pull a minimizer toward the corner, so it is an error.
        problem = make_test_problem("deblur", s=16, seed=0)
        theta = np.array([1e-6, 10.0, 0.3, -1.0, 0.3])
        probes = rademacher_probes(problem.m, 16, seed=0)
        with pytest.raises(NumericalError, match="misfit solve"):
            eval_F_slq(problem, theta, probes, k_steps=30)
        with pytest.raises(NumericalError, match="posterior-mean solve"):
            reconstruct(problem, theta)

    def test_probe_dimension_mismatch_raises(self):
        problem = noise_only_problem(np.zeros(4))
        with pytest.raises(ValueError, match="dimension"):
            eval_F_slq(problem, np.array([1.0]), canonical_probes(5), k_steps=3)


class TestPsiPreconditioner:
    def test_scalar_noise_uses_known_shift(self):
        problem = deblur_problem(s=8, seed=1)
        theta = problem.theta_true
        pre = psi_preconditioner(problem, theta, seed=0)
        assert abs(pre.shift - theta[0]) < 1e-15


class TestDerivativeActions:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: tomo_problem(s=5, n_src=4, n_rec=6, seed=2),
            lambda: deblur_problem(s=6, seed=2),
            lambda: superres_problem(s=8, decim=2, frames=2, seed=1),
        ],
    )
    def test_block_apply_matches_column_loop_and_ledger(self, make):
        problem = make()
        actions = _DerivativeActions(problem, problem.theta_true)
        w = rademacher_probes(problem.m, 5, seed=4)

        start = problem.counters.snapshot()
        loop = np.stack([actions.apply_all(w[:, i]) for i in range(5)], axis=-1)
        mid = problem.counters.snapshot()
        block = actions.apply_all(w)
        end = problem.counters.snapshot()

        assert block.shape == (problem.p, problem.m, 5)
        for j in range(problem.p):
            assert relerr(block[j], loop[j]) <= 1e-12
        for key in ("a", "q"):
            assert end[key] - mid[key] == mid[key] - start[key]
        assert end["a"] > mid["a"]
