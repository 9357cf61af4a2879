import numpy as np
import pytest
import scipy.sparse

from hypermarg import (
    Box,
    HyperPrior,
    ProblemSpec,
    PsiOperator,
    ScaledIdentityOp,
    SparseLinOp,
    build_psi,
    deblur_problem,
    make_test_problem,
    reconstruct,
    superres_problem,
    synthesize_data,
    tomo_problem,
)
from hypermarg.objective import dense_objective_pieces
from hypermarg.rng import stream

ALL_KINDS = ["deblur", "tomo", "superres"]


def small_problem(kind, seed=0):
    if kind == "deblur":
        return deblur_problem(s=8, seed=seed)
    if kind == "tomo":
        return tomo_problem(s=6, seed=seed)
    return superres_problem(s=8, decim=2, frames=2, seed=seed)


def test_box_validation_and_geometry():
    with pytest.raises(ValueError):
        Box(lower=np.array([0.0, 1.0]), upper=np.array([1.0, 1.0]))
    box = Box(lower=np.array([0.0, -1.0]), upper=np.array([2.0, 1.0]))
    assert box.contains([1.0, 0.0])
    assert not box.contains([3.0, 0.0])
    assert np.array_equal(box.project([5.0, -5.0]), [2.0, -1.0])
    assert box.radius() == pytest.approx(0.5 * np.hypot(2.0, 2.0))


def test_hyperprior_values():
    prior = HyperPrior(
        (("gamma", 2.0), ("gaussian", 1.0, 4.0), ("uniform",))
    )
    theta = np.array([3.0, 5.0, -7.0])
    val, grad = prior.neglog(theta), prior.grad_neglog(theta)
    assert val == pytest.approx(2.0 * 3.0 + (5.0 - 1.0) ** 2 / 8.0, abs=1e-14)
    assert np.allclose(grad, [2.0, 1.0, 0.0], atol=1e-14)


def test_hyperprior_gradient_matches_fd():
    prior = HyperPrior(
        (("gamma", 3.5), ("gaussian", -0.5, 0.7), ("gaussian", 2.0, 5.0), ("uniform",))
    )
    theta = np.array([0.8, 0.3, -1.2, 0.9])
    grad = prior.grad_neglog(theta)
    h = 1e-6
    for j in range(4):
        ej = np.zeros(4)
        ej[j] = h
        fd = (prior.neglog(theta + ej) - prior.neglog(theta - ej)) / (2.0 * h)
        assert grad[j] == pytest.approx(fd, abs=1e-8)


def test_hyperprior_outside_support_raises():
    prior = HyperPrior.gamma(1e-4, 2)
    with pytest.raises(ValueError, match="support"):
        prior.neglog(np.array([1.0, -0.1]))


def test_psi_counter_invariant():
    for kind in ALL_KINDS:
        problem = small_problem(kind)
        theta = problem.box.project(problem.theta_true)
        psi_op = build_psi(problem, theta)
        # a vector is one column; a block of k columns is charged per column
        for apply, v, k in (
            (psi_op.matvec, np.ones(problem.m), 1),
            (psi_op.matmat, np.ones((problem.m, 3)), 3),
        ):
            before = problem.counters.snapshot()
            apply(v)
            after = problem.counters.snapshot()
            charged = {key: after[key] - before[key] for key in after}
            assert charged == {"a": 2 * k, "q": k, "psi": k}, kind


def test_build_psi_rejects_out_of_box():
    problem = small_problem("tomo")
    bad = problem.box.upper * 10.0
    with pytest.raises(ValueError, match="box"):
        build_psi(problem, bad)


def test_psi_dense_matches_matvec():
    for kind in ALL_KINDS:
        problem = small_problem(kind)
        theta = problem.box.project(problem.theta_true)
        psi_op = build_psi(problem, theta)
        dense = dense_objective_pieces(problem, theta).psi
        v = stream(3, "psi-dense", kind).standard_normal(problem.m)
        assert np.allclose(psi_op.matvec(v), dense @ v, atol=1e-10 * np.abs(dense).max())


def test_psi_positive_definite_across_box():
    for kind in ALL_KINDS:
        problem = small_problem(kind)
        rng = stream(17, "spd-sweep", kind)
        for _ in range(10):
            theta = problem.box.sample(rng)
            dense = dense_objective_pieces(problem, theta).psi
            min_eig = float(np.linalg.eigvalsh(dense).min())
            assert min_eig > 0.0, (kind, theta, min_eig)


def test_same_seed_same_data():
    for kind in ALL_KINDS:
        p1 = small_problem(kind, seed=5)
        p2 = small_problem(kind, seed=5)
        p3 = small_problem(kind, seed=6)
        assert np.array_equal(p1.b, p2.b), kind
        assert not np.array_equal(p1.b, p3.b), kind


def test_theta_true_inside_box():
    for kind in ALL_KINDS:
        problem = small_problem(kind)
        assert problem.box.contains(problem.theta_true), kind


def test_synthesize_data_noise_scale():
    a_op = SparseLinOp(scipy.sparse.csr_matrix(np.eye(50)))
    x = np.full(50, 2.0)
    b, var = synthesize_data(a_op, x, noise_level=0.1, seed=3)
    # rms of the clean signal is 2, so sd should be 0.2 exactly
    assert var == pytest.approx(0.04, abs=1e-15)
    resid = b - x
    emp = np.std(resid)
    assert emp == pytest.approx(0.2, rel=0.5)


def test_reconstruct_matches_dense_formula():
    problem = small_problem("tomo")
    theta = problem.box.project(problem.theta_true)
    x_hat = reconstruct(problem, theta, pcg_tol=1e-12)
    psi_params, y = problem.split(theta)
    a = problem.build_a(y).dense()
    q = problem.build_q(psi_params).mat
    r = problem.build_r(psi_params).scale * np.eye(problem.m)
    psi_dense = a @ q @ a.T + r
    expected = q @ a.T @ np.linalg.solve(psi_dense, problem.b)
    assert np.allclose(x_hat, expected, atol=1e-7 * max(1.0, np.abs(expected).max()))


def test_reconstruct_shrinks_toward_truth():
    problem = small_problem("tomo")
    x_hat = reconstruct(problem, problem.theta_true)
    err_hat = np.linalg.norm(x_hat - problem.x_true)
    err_zero = np.linalg.norm(problem.x_true)
    assert err_hat < err_zero


def test_make_test_problem_dispatch():
    problem = make_test_problem("tomo", s=6)
    assert problem.name == "tomo"
    with pytest.raises(ValueError, match="unknown problem"):
        make_test_problem("nope")


def test_psi_operator_dimension_checks():
    a = SparseLinOp(scipy.sparse.csr_matrix(np.ones((3, 4))))
    with pytest.raises(ValueError):
        PsiOperator(a, ScaledIdentityOp(1.0, 3), ScaledIdentityOp(1.0, 3))
    with pytest.raises(ValueError):
        PsiOperator(a, ScaledIdentityOp(1.0, 4), ScaledIdentityOp(1.0, 4))
    psi_op = PsiOperator(a, ScaledIdentityOp(1.0, 4), ScaledIdentityOp(1.0, 3))
    dense = psi_op.matmat(np.eye(3))
    assert np.allclose(dense, np.ones((3, 4)) @ np.ones((4, 3)) + np.eye(3))


def noise_spec(**noise):
    """A problem with psi = (noise, prior variance) and the given noise fields."""
    return ProblemSpec(
        name="noise-contract",
        n=3,
        m=3,
        q_dim=2,
        ell=0,
        mu_x=np.zeros(3),
        b=np.ones(3),
        box=Box(np.array([0.1, 0.1]), np.array([2.0, 2.0])),
        prior=HyperPrior((("uniform",), ("uniform",))),
        a_builder=lambda y: SparseLinOp(scipy.sparse.csr_matrix(np.eye(3))),
        q_builder=lambda psi: ScaledIdentityOp(psi[1], 3),
        dq_builders=(None, lambda psi: ScaledIdentityOp(1.0, 3)),
        **noise,
    )


@pytest.mark.parametrize(
    "noise",
    [{}, {"noise_index": 0, "noise_var": 1.0}, {"noise_index": 2}, {"noise_index": -1}],
    ids=["neither", "both", "index-past-q_dim", "negative-index"],
)
def test_problem_needs_exactly_one_valid_noise_field(noise):
    with pytest.raises(ValueError, match="noise"):
        noise_spec(**noise)


@pytest.mark.parametrize(
    "noise, sigma2", [({"noise_index": 0}, 0.7), ({"noise_var": 0.25}, 0.25)], ids=["index", "fixed"]
)
def test_build_r_is_counted_noise_variance_times_identity(noise, sigma2):
    problem = noise_spec(**noise)
    psi = np.array([0.7, 1.3])
    v = np.array([1.0, -2.0, 3.0])
    assert problem.noise_variance(psi) == sigma2
    r_op = problem.build_r(psi)
    assert np.array_equal(r_op.matvec(v), sigma2 * v)
    assert r_op.counter.count == 1


def test_dense_symop_from_matern_spd():
    from hypermarg import matern_kernel, pairwise_distances

    rng = stream(4, "matern-spd")
    pts = rng.random((40, 2))
    dists = pairwise_distances(pts)
    for nu in (0.5, 1.5, 2.5):
        for _ in range(5):
            amp = 0.1 + 2.0 * rng.random()
            ell = 0.05 + 1.0 * rng.random()
            raw = matern_kernel(dists, amp, ell, nu)
            min_eig = float(np.linalg.eigvalsh(raw).min())
            assert min_eig >= -1e-9 * amp**2, (nu, amp, ell, min_eig)


def test_matern_lengthscale_derivative_matches_fd():
    from hypermarg import matern_dlengthscale, matern_kernel, pairwise_distances

    rng = stream(6, "matern-fd")
    pts = rng.random((15, 2))
    dists = pairwise_distances(pts)
    h = 1e-6
    for nu in (0.5, 1.5, 2.5):
        amp, ell = 0.9, 0.3
        fd = (
            matern_kernel(dists, amp, ell + h, nu) - matern_kernel(dists, amp, ell - h, nu)
        ) / (2.0 * h)
        analytic = matern_dlengthscale(dists, amp, ell, nu)
        assert np.abs(analytic - fd).max() <= 1e-7


def test_pairwise_distances_bit_identical_to_cdist():
    from scipy.spatial.distance import cdist

    from hypermarg import pairwise_distances

    for s in (5, 8, 16):
        centers = np.array([((i + 0.5) / s, (j + 0.5) / s) for i in range(s) for j in range(s)])
        assert np.array_equal(pairwise_distances(centers), cdist(centers, centers))
    pts = stream(8, "pairwise").standard_normal((30, 3))
    assert np.array_equal(pairwise_distances(pts), cdist(pts, pts))
