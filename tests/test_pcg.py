import numpy as np
import pytest

from hypermarg import DenseSymOp, build_psi, pcg_solve, rademacher_probes, tomo_problem
from hypermarg.objective import dense_objective_pieces
from hypermarg.rng import stream


def test_diagonal_solve():
    d = np.arange(1.0, 11.0)
    op = DenseSymOp(np.diag(d))
    res = pcg_solve(op, np.ones(10), tol=1e-10)
    assert res.converged
    assert np.abs(res.x - 1.0 / d).max() <= 1e-9


def test_zero_rhs_short_circuits():
    op = DenseSymOp(np.eye(4))
    res = pcg_solve(op, np.zeros(4))
    assert res.converged and res.iterations == 0
    assert np.all(res.x == 0.0)


def test_not_converged_flag():
    rng = stream(5, "hard")
    q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    mat = q @ np.diag(np.logspace(0.0, 6.0, 40)) @ q.T
    op = DenseSymOp(mat)
    res = pcg_solve(op, np.ones(40), tol=1e-12, maxit=3)
    assert not res.converged
    assert res.iterations == 3
    assert res.relres > 1e-12


def test_energy_norm_error_monotone():
    rng = stream(8, "mono")
    a = rng.standard_normal((30, 30))
    mat = a @ a.T + 30.0 * np.eye(30)
    op = DenseSymOp(mat)
    rhs = rng.standard_normal(30)
    x_star = np.linalg.solve(mat, rhs)
    errors = []
    for k in range(1, 21):
        res = pcg_solve(op, rhs, tol=1e-16, maxit=k)
        e = res.x - x_star
        errors.append(float(np.sqrt(e @ mat @ e)))
    diffs = np.diff(errors)
    assert np.all(diffs <= 1e-10 * max(errors))


def test_iteration_count_reported_matches_matvecs():
    d = np.linspace(1.0, 4.0, 25)
    op = DenseSymOp(np.diag(d))
    before = op.counter.count
    res = pcg_solve(op, np.ones(25), tol=1e-10)
    # one matvec per iteration from a zero initial guess
    assert op.counter.count - before == res.iterations


def test_block_solve_charges_one_psi_apply_per_column_iteration():
    # At the box center Psi is well conditioned (kappa ~ 34), so each column
    # stops at the same step as its separate solve; at theta_true (kappa ~
    # 9e3) the block's summation order moves those steps by a few.
    problem = tomo_problem(s=6, n_src=5, n_rec=6, seed=1)
    center = problem.box.center()
    psi = build_psi(problem, center)
    w = rademacher_probes(problem.m, 5, seed=0)
    # an eigenvector converges in one step and a zero column in none, so the
    # columns leave the block at different steps
    w[:, 1] = np.linalg.eigh(dense_objective_pieces(problem, center).psi)[1][:, -1]
    w[:, 3] = 0.0
    singles = [pcg_solve(psi, w[:, j]).iterations for j in range(5)]
    assert singles[1] == 1 and singles[3] == 0 and max(singles) > 1
    before = problem.counters.snapshot()
    res = pcg_solve(psi, w)
    after = problem.counters.snapshot()
    assert res.converged
    assert res.iterations == sum(singles)
    assert after["psi"] - before["psi"] == res.iterations
    assert after["a"] - before["a"] == 2 * res.iterations
    np.testing.assert_array_equal(res.x[:, 3], 0.0)


def test_block_records_each_column_where_it_stopped():
    # Column 0 has two eigencomponents and converges at step 2, column 1
    # runs into maxit, column 2 is zero and takes no step.
    d = np.logspace(0.0, 4.0, 40)
    op = DenseSymOp(np.diag(d))
    rhs = np.zeros((40, 3))
    rhs[[0, 5], 0] = 1.0
    rhs[:, 1] = 1.0
    tol, maxit = 1e-10, 6
    singles = [pcg_solve(op, rhs[:, j], tol=tol, maxit=maxit) for j in range(3)]
    assert [s.iterations for s in singles] == [2, maxit, 0]
    before = op.counter.count
    res = pcg_solve(op, rhs, tol=tol, maxit=maxit)
    assert op.counter.count - before == res.iterations == 2 + maxit
    assert res.converged is False
    assert res.relres[0] <= tol < res.relres[1]
    np.testing.assert_array_equal(res.x[:, 2], 0.0)
    assert res.relres[2] == 0.0
    # each column's record is the residual of its own returned solution
    bnorm = np.linalg.norm(rhs, axis=0)
    true = np.linalg.norm(rhs - op.mat @ res.x, axis=0) / np.where(bnorm > 0, bnorm, 1.0)
    np.testing.assert_allclose(res.relres, true, rtol=1e-6, atol=1e-14)
    for j, s in enumerate(singles):
        np.testing.assert_allclose(res.x[:, j], s.x, rtol=1e-12, atol=1e-15)
        assert res.relres[j] == pytest.approx(s.relres, rel=1e-9, abs=1e-15)


def _spd(m, seed):
    rng = stream(seed, "x0")
    a = rng.standard_normal((m, m))
    return a @ a.T + m * np.eye(m), rng


@pytest.mark.parametrize("shape", [(20,), (20, 3)])
def test_exact_initial_guess_stops_after_one_apply(shape):
    mat, rng = _spd(20, 1)
    op = DenseSymOp(mat)
    x_star = rng.standard_normal(shape)
    before = op.counter.count
    res = pcg_solve(op, mat @ x_star, tol=1e-8, x0=x_star)
    assert res.converged and res.iterations == 0
    n_cols = shape[1] if len(shape) == 2 else 1
    assert op.counter.count - before == n_cols
    np.testing.assert_array_equal(res.x, x_star)


@pytest.mark.parametrize("shape", [(30,), (30, 4)])
def test_warm_start_meets_the_cold_tolerance(shape):
    mat, rng = _spd(30, 2)
    op = DenseSymOp(mat)
    rhs = rng.standard_normal(shape)
    x0 = np.linalg.solve(mat, rhs) + 1e-3 * rng.standard_normal(shape)
    tol = 1e-9
    cold = pcg_solve(op, rhs, tol=tol)
    warm = pcg_solve(op, rhs, tol=tol, x0=x0)
    assert cold.converged and warm.converged
    # the stopping test is relative to ||rhs||, not to the initial residual
    for res in (cold, warm):
        resid = np.linalg.norm(rhs - mat @ res.x, axis=0)
        assert np.all(resid <= tol * np.linalg.norm(rhs, axis=0))
    assert warm.iterations < cold.iterations


@pytest.mark.parametrize("shape", [(8,), (8, 3)])
def test_zero_rhs_gives_zero_for_any_initial_guess(shape):
    op = DenseSymOp(np.diag(np.arange(1.0, 9.0)))
    x0 = np.full(shape, 5.0)
    res = pcg_solve(op, np.zeros(shape), x0=x0)
    assert res.converged and res.iterations == 0
    np.testing.assert_array_equal(res.x, 0.0)
