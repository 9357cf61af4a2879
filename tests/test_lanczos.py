import numpy as np
import pytest

import hypermarg
from hypermarg import (
    DenseSymOp,
    NumericalError,
    lanczos_decompose,
    nystrom_preconditioner,
    pcg_solve,
    slq_logdet_batch,
)
from hypermarg.rng import stream

from fd import daleckii_krein


def random_spd(m, seed, cond=50.0):
    rng = stream(seed, "spd")
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    eigs = np.logspace(0.0, np.log10(cond), m)
    return q @ np.diag(eigs) @ q.T


def quadform_log(op, w, k):
    """w^T log(M) w from k Lanczos steps on the one-column block w."""
    return lanczos_decompose(op, w[:, None], k).quadform_log()[0]


def test_identity_breaks_down_after_one_step():
    op = DenseSymOp(np.eye(3))
    dec = lanczos_decompose(op, np.array([[1.0], [2.0], [2.0]]), 3)
    assert dec.k_eff == 1
    assert dec.tridiagonal() == pytest.approx(np.array([[1.0]]), abs=1e-14)


def test_full_run_recovers_small_spectrum():
    op = DenseSymOp(np.diag([1.0, 2.0, 3.0, 4.0]))
    dec = lanczos_decompose(op, np.full((4, 1), 0.5), 4)
    assert dec.k_eff == 4
    ritz = np.linalg.eigvalsh(dec.tridiagonal())
    assert np.allclose(np.sort(ritz), [1.0, 2.0, 3.0, 4.0], atol=1e-10)


def test_reorthogonalization_controls_drift():
    rng = stream(21, "drift")
    q, _ = np.linalg.qr(rng.standard_normal((50, 50)))
    mat = q @ np.diag(np.logspace(0.0, 8.0, 50)) @ q.T
    op = DenseSymOp(mat)
    v = np.ones((50, 1))

    dec = lanczos_decompose(op, v, 30)
    gram = dec.basis[0] @ dec.basis[0].T - np.eye(dec.k_eff)
    assert np.abs(gram).max() <= 1e-10


def test_zero_start_vector_rejected():
    op = DenseSymOp(np.eye(4))
    with pytest.raises(ValueError):
        lanczos_decompose(op, np.zeros((4, 1)), 2)


def test_step_count_bounds_enforced():
    op = DenseSymOp(np.eye(4))
    with pytest.raises(ValueError):
        lanczos_decompose(op, np.ones((4, 1)), 5)
    with pytest.raises(ValueError):
        lanczos_decompose(op, np.ones((4, 1)), 0)


def test_quadform_log_scaled_identity():
    op = DenseSymOp(2.0 * np.eye(8))
    got = quadform_log(op, np.ones(8), 3)
    assert got == pytest.approx(8.0 * np.log(2.0), abs=1e-12)


def test_quadform_log_matches_dense_at_full_steps():
    for seed in range(5):
        m = 24
        mat = random_spd(m, seed)
        op = DenseSymOp(mat)
        w = np.where(stream(seed, "w").random(m) < 0.5, -1.0, 1.0)
        eigvals, eigvecs = np.linalg.eigh(mat)
        logm = eigvecs @ np.diag(np.log(eigvals)) @ eigvecs.T
        exact = w @ logm @ w
        got = quadform_log(op, w, m)
        assert got == pytest.approx(exact, rel=1e-8)


def test_quadform_log_rejects_indefinite():
    op = DenseSymOp(np.diag([1.0, -2.0, 3.0]))
    with pytest.raises(NumericalError, match="Ritz"):
        quadform_log(op, np.ones(3), 3)


def inv_sqrt_apply(dec):
    """V T^{-1/2} e_1 ||v||, the Lanczos approximation of M^{-1/2} v."""
    eigvals, eigvecs = np.linalg.eigh(dec.tridiagonal())
    coeff = dec.vnorm[0] * (eigvecs @ (eigvecs[0, :] / np.sqrt(eigvals)))
    return dec.basis[0, : dec.k_eff].T @ coeff


def test_inv_sqrt_scaled_identity():
    op = DenseSymOp(4.0 * np.eye(6))
    w = np.arange(1.0, 7.0)
    got = inv_sqrt_apply(lanczos_decompose(op, w[:, None], 2))
    assert np.allclose(got, w / 2.0, atol=1e-13)


def test_inv_sqrt_matches_dense_at_full_steps():
    m = 20
    mat = random_spd(m, 3)
    op = DenseSymOp(mat)
    w = stream(3, "w2").standard_normal(m)
    eigvals, eigvecs = np.linalg.eigh(mat)
    exact = eigvecs @ ((eigvecs.T @ w) / np.sqrt(eigvals))
    got = inv_sqrt_apply(lanczos_decompose(op, w[:, None], m))
    assert np.allclose(got, exact, atol=1e-8 * np.linalg.norm(exact))


def test_batch_matches_per_probe_path():
    m = 18
    mat = random_spd(m, 9)
    w_block = np.where(stream(9, "wb").random((m, 7)) < 0.5, -1.0, 1.0)
    k = 12
    batch = slq_logdet_batch(mat, w_block, k)
    op = DenseSymOp(mat)
    single = np.array(
        [quadform_log(op, w_block[:, i], k) for i in range(7)]
    )
    assert np.allclose(batch, single, rtol=1e-12, atol=1e-10)

    # Column j of a block call is the call on column j alone: for CG, a
    # vector solve, unpreconditioned and with a Nystrom preconditioner whose
    # rank equals the probe count; for Lanczos, a one-column block.  CG runs
    # to 1e-12, where the summation order of the block products (BLAS-3
    # against BLAS-2) no longer shows in the solutions; the Lanczos
    # coefficients agree to roundoff at this depth.
    n = 7
    spd = mat + np.eye(m)
    op = DenseSymOp(spd)
    pres = {
        "none": None,
        "nystrom": nystrom_preconditioner(op, 1.0, n, seed=4),
    }

    def close(a, b):
        return np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

    for name, pre in pres.items():
        block = pcg_solve(op, w_block, pre=pre, tol=1e-12)
        singles = [pcg_solve(op, w_block[:, j], pre=pre, tol=1e-12) for j in range(n)]
        assert block.converged, name
        for j, s in enumerate(singles):
            assert close(block.x[:, j], s.x), (name, j)

    dec = lanczos_decompose(op, w_block, k)
    vals = dec.quadform_log()
    for j in range(n):
        s = lanczos_decompose(op, w_block[:, [j]], k)
        assert dec.steps[j] == s.k_eff == k, j
        assert close(dec.alpha[:, j], s.alpha[:, 0]), j
        assert close(dec.beta[:, j], s.beta[:, 0]), j
        assert vals[j] == pytest.approx(s.quadform_log()[0], rel=1e-12), j

    # A column started on an eigenvector breaks down after one step and gets
    # no further operator applications; the others run all k steps.
    w_mixed = w_block.copy()
    w_mixed[:, 2] = np.linalg.eigh(spd)[1][:, 0]
    before = op.counter.count
    dec = lanczos_decompose(op, w_mixed, k)
    assert list(dec.steps) == [k, k, 1, k, k, k, k]
    assert op.counter.count - before == dec.k_eff == 6 * k + 1
    assert dec.quadform_log()[2] == pytest.approx(np.log(np.linalg.eigvalsh(spd)[0]), rel=1e-12)


def test_mid_block_breakdown_leaves_the_other_columns_running():
    # Column 2 starts in a 3-dimensional invariant subspace and breaks down
    # after 3 steps; from there on the block takes the partial-step path.
    m, k = 24, 10
    op = DenseSymOp(np.diag(np.linspace(1.0, 5.0, m)))
    w = stream(4, "mid-block").standard_normal((m, 5))
    w[:, 2] = 0.0
    w[[3, 9, 17], 2] = [1.0, -2.0, 0.5]
    before = op.counter.count
    dec = lanczos_decompose(op, w, k)
    assert list(dec.steps) == [k, k, 3, k, k]
    assert op.counter.count - before == dec.k_eff == 4 * k + 3
    # past its breakdown a column's coefficients and basis rows are zero
    assert np.all(dec.alpha[3:, 2] == 0.0) and np.all(dec.beta[2:, 2] == 0.0)
    assert np.all(dec.basis[2, 3:] == 0.0)
    # Each column is its own one-column run, to roundoff: a one-column block
    # is contiguous, and numpy sums its row products in another order.
    for j in range(5):
        s = lanczos_decompose(op, w[:, [j]], k)
        assert s.steps[0] == dec.steps[j], j
        np.testing.assert_allclose(dec.alpha[:, j], s.alpha[:, 0], rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(dec.beta[:, j], s.beta[:, 0], rtol=1e-11, atol=1e-13)
        np.testing.assert_allclose(dec.basis[j], s.basis[0], rtol=0.0, atol=1e-10)
        gram = dec.basis[j, : dec.steps[j]] @ dec.basis[j, : dec.steps[j]].T
        assert np.abs(gram - np.eye(dec.steps[j])).max() <= 1e-12, j


def adjoint_matrix(dec, op, weights):
    """The symmetric G with sum_j weights_j d quadform_log()_j = <G, dM>."""
    u_bar = dec.quadform_log_adjoint(op, weights)
    g = np.einsum("jim,jil->ml", u_bar, dec.basis)
    return 0.5 * (g + g.T)


def symmetric_directions(m, count, seed):
    e = stream(seed, "directions").standard_normal((count, m, m))
    return e + e.transpose(0, 2, 1)


def test_adjoint_is_daleckii_krein_at_full_depth():
    m = 30
    mat = random_spd(m, 5, cond=1e4)
    op = DenseSymOp(mat)
    w = np.where(stream(5, "w").random((m, 3)) < 0.5, -1.0, 1.0)
    weights = np.array([0.5, 1.0, 2.0])
    dec = lanczos_decompose(op, w, m)
    assert np.all(dec.steps == m)
    ref = daleckii_krein(mat, w, weights)
    assert np.linalg.norm(adjoint_matrix(dec, op, weights) - ref) <= 1e-10 * np.linalg.norm(ref)


def test_adjoint_matches_central_differences_when_truncated():
    # short of full depth the quadrature depends on M through its Krylov
    # basis too; 25 steps on a spectrum spread over four decades is where
    # the adjoint recurrence without its projection had lost all digits
    m = 40
    mat = random_spd(m, 6, cond=1e4)
    w = np.where(stream(6, "w").random((m, 3)) < 0.5, -1.0, 1.0)
    weights = np.array([1.0, -0.5, 0.25])

    def f(mat_):
        return float(weights @ lanczos_decompose(DenseSymOp(mat_), w, k).quadform_log())

    for k in (3, 12, 25):
        op = DenseSymOp(mat)
        dec = lanczos_decompose(op, w, k)
        g = adjoint_matrix(dec, op, weights)
        for e in symmetric_directions(m, 3, k):
            h = 1e-5
            fd = (f(mat + h * e) - f(mat - h * e)) / (2.0 * h)
            assert abs(np.vdot(g, e) - fd) <= 1e-6 * abs(fd), k


def test_adjoint_runs_each_column_back_over_its_own_steps():
    # Four distinct eigenvalues: column 0 starts on an eigenvector and stops
    # after one step, column 1 in a two-eigenvalue subspace and stops after
    # two, column 2 sees all four.  Each quadrature is exact when its Krylov
    # space is exhausted, so the dense derivative is the reference.
    m = 12
    lam = np.repeat([0.5, 1.0, 2.0, 8.0], 3)
    vec, _ = np.linalg.qr(stream(7, "basis").standard_normal((m, m)))
    mat = (vec * lam) @ vec.T
    op = DenseSymOp(mat)
    w = np.column_stack([vec[:, 4], vec[:, 0] + vec[:, 7], stream(7, "w").standard_normal(m)])
    dec = lanczos_decompose(op, w, 6)
    assert list(dec.steps) == [1, 2, 4]
    weights = np.array([1.0, 2.0, 3.0])
    before = op.counter.count
    g = adjoint_matrix(dec, op, weights)
    # one application per step after the first, to the columns still running
    assert op.counter.count - before == dec.k_eff - 3
    assert np.all(np.isfinite(g))
    ref = daleckii_krein(mat, w, weights)
    assert np.linalg.norm(g - ref) <= 1e-10 * np.linalg.norm(ref)


def test_batch_identity_gives_zero():
    w_block = np.where(stream(2, "wi").random((10, 5)) < 0.5, -1.0, 1.0)
    vals = slq_logdet_batch(np.eye(10), w_block, 4)
    assert np.allclose(vals, 0.0, atol=1e-12)


def test_batch_mean_estimates_logdet():
    m = 30
    mat = random_spd(m, 14, cond=20.0)
    exact = float(np.sum(np.log(np.linalg.eigvalsh(mat))))
    w_block = np.where(stream(14, "wm").random((m, 400)) < 0.5, -1.0, 1.0)
    est = float(np.mean(slq_logdet_batch(mat, w_block, m)))
    # 400 probes: should be well within a few standard errors
    assert abs(est - exact) < 0.15 * max(1.0, abs(exact))


def test_version_exposed():
    assert hypermarg.__version__
