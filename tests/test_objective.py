import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from hypermarg import (
    Box,
    DenseLinOp,
    DenseSymOp,
    HyperPrior,
    ProblemSpec,
    build_psi,
    deblur_problem,
    make_test_problem,
    reconstruct,
    superres_problem,
    tomo_problem,
)
from hypermarg.mm import m3c_optimize
from hypermarg.objective import (
    _DerivativeActions,
    dense_objective_pieces,
    eval_F_exact,
    eval_F_slq,
    grad_F_exact,
    grad_fd,
    psi_preconditioner,
)
from hypermarg.operators import NumericalError, ScaledIdentityOp, SparseLinOp
from hypermarg.pcg import pcg_solve
from hypermarg.probes import canonical_probes, rademacher_probes
from hypermarg.rng import stream


def noise_only_problem(b, prior=None, box=None):
    """Psi(theta) = theta_1 * I: A = 0, so only the noise variance matters."""
    b = np.asarray(b, dtype=float)
    m = b.shape[0]
    if prior is None:
        prior = HyperPrior.uniform(1)
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
        r_builder=lambda psi: ScaledIdentityOp(psi[0], m),
        dq_builders=(None,),
        dr_builders=(lambda psi: ScaledIdentityOp(1.0, m),),
    )


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
        psi = build_psi(problem, theta).dense()
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
        g_fd = grad_fd(
            lambda t: eval_F_exact(problem, t).value,
            theta,
            problem.box,
            eps_rel=1e-6,
            scheme="central",
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


class TestFiniteDifferences:
    def test_forward_and_central_agree_on_smooth_function(self):
        box = Box(lower=np.array([-10.0, -10.0]), upper=np.array([10.0, 10.0]))
        f = lambda t: float(np.sin(t[0]) + t[0] * t[1] ** 2)
        theta = np.array([0.3, -1.2])
        expected = np.array([np.cos(0.3) + 1.44, 2.0 * 0.3 * (-1.2)])
        for scheme, tol in (("forward", 1e-5), ("central", 1e-9)):
            g = grad_fd(f, theta, box, eps_rel=1e-6, scheme=scheme)
            np.testing.assert_allclose(g, expected, rtol=tol, atol=tol)

    def test_central_near_bound_falls_back_one_sided(self):
        box = Box(lower=np.array([0.0]), upper=np.array([1.0]))
        f = lambda t: float(t[0] ** 2)
        # theta sits exactly on the lower bound; the central stencil cannot
        # straddle it, so the step must go up and stay inside the box.
        g = grad_fd(f, np.array([0.0]), box, eps_rel=1e-7, scheme="central")
        assert abs(g[0]) < 1e-6

    def test_box_too_thin_raises(self):
        box = Box(lower=np.array([0.0]), upper=np.array([1e-9]))
        with pytest.raises(ValueError, match="thinner"):
            grad_fd(lambda t: 0.0, np.array([5e-10]), box, eps_rel=1e-6)

    def test_unknown_scheme_raises(self):
        box = Box(lower=np.array([0.0]), upper=np.array([1.0]))
        with pytest.raises(ValueError, match="scheme"):
            grad_fd(lambda t: 0.0, np.array([0.5]), box, scheme="spectral")


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

    def test_canonical_with_preconditioner_matches_exact(self):
        # The preconditioned solves m3c makes at an anchor: a block CG over
        # canonical probes gives trace(Psi^{-1}) exactly, and the misfit
        # solve gives c^T Psi^{-1} c.
        problem = deblur_problem(s=8, seed=2)
        theta = problem.theta_true
        pieces = dense_objective_pieces(problem, theta)
        pre = psi_preconditioner(problem, theta, rank=24, seed=11)
        psi_op = build_psi(problem, theta)
        probes = canonical_probes(problem.m)
        block = pcg_solve(psi_op, probes.w, pre=pre, tol=1e-12)
        assert block.converged
        trace = float(np.mean(np.sum(probes.w * block.x, axis=0)))
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
        psi = build_psi(problem, theta).dense()
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
        pre = psi_preconditioner(problem, theta, rank=16, seed=0)
        assert abs(pre.shift - theta[0]) < 1e-15

    def test_nonscalar_noise_raises_and_runs_unpreconditioned(self):
        rng = stream(0, "nonscalar-noise-test")
        m, n = 12, 10
        a_mat = rng.standard_normal((m, n))
        r_diag = np.linspace(1.0, 3.0, m)
        problem = ProblemSpec(
            name="varying-noise",
            n=n,
            m=m,
            q_dim=1,
            ell=0,
            mu_x=np.zeros(n),
            b=rng.standard_normal(m),
            box=Box(lower=np.array([0.1]), upper=np.array([10.0])),
            prior=HyperPrior.uniform(1),
            a_builder=lambda y, _a=a_mat: DenseLinOp(_a),
            q_builder=lambda psi: ScaledIdentityOp(psi[0], n),
            r_builder=lambda psi, _d=r_diag: DenseSymOp(np.diag(_d)),
            dq_builders=(lambda psi: ScaledIdentityOp(1.0, n),),
            dr_builders=(None,),
        )
        with pytest.raises(ValueError, match="scaled-identity"):
            psi_preconditioner(problem, np.array([2.0]), rank=m, seed=0)
        out = m3c_optimize(problem, outer_iters=5, precond_rank=0)
        assert out.outer_iters >= 1
        assert np.isfinite(out.f_value)
        assert out.f_value <= eval_F_exact(problem, problem.box.center()).value


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
        w = rademacher_probes(problem.m, 5, seed=4).w

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
