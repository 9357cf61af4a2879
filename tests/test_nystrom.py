import numpy as np
import pytest

from hypermarg import DenseSymOp, nystrom_preconditioner, pcg_solve
from hypermarg.rng import stream


def test_rejects_nonpositive_shift():
    op = DenseSymOp(np.eye(4))
    with pytest.raises(ValueError):
        nystrom_preconditioner(op, 0.0, 2, seed=0)
    with pytest.raises(ValueError):
        nystrom_preconditioner(op, -1.0, 2, seed=0)


def test_pure_shift_gives_exact_inverse():
    op = DenseSymOp(3.0 * np.eye(12))
    pre = nystrom_preconditioner(op, 3.0, 4, seed=1)
    assert pre.rank == 0
    v = stream(1, "v").standard_normal(12)
    assert np.abs(pre.apply_inverse(v) - v / 3.0).max() <= 1e-10
    assert pre.eigenvalues.size == 0
    assert pre.shift == 3.0


def test_rank_one_plus_identity_solved_fast():
    m = 60
    u = stream(2, "u").standard_normal(m)
    u /= np.linalg.norm(u)
    mat = np.eye(m) + 10.0 * np.outer(u, u)
    op = DenseSymOp(mat)
    pre = nystrom_preconditioner(op, 1.0, 3, seed=2)
    res = pcg_solve(op, stream(2, "rhs").standard_normal(m), pre=pre, tol=1e-10)
    assert res.converged
    assert res.iterations <= 2


def test_low_rank_plus_identity_iteration_count():
    m = 100
    rng = stream(7, "lowrank")
    g = rng.standard_normal((m, 5))
    mat = g @ g.T + np.eye(m)
    op = DenseSymOp(mat)
    pre = nystrom_preconditioner(op, 1.0, 10, seed=7)
    res = pcg_solve(op, rng.standard_normal(m), pre=pre, tol=1e-10)
    assert res.converged
    assert res.iterations <= 8


def test_logdet_of_approximation_small_diagonal():
    op = DenseSymOp(np.diag([3.0, 3.0, 1.0, 1.0]))
    pre = nystrom_preconditioner(op, 1.0, 2, seed=3)
    assert pre.eigenvalues + pre.shift == pytest.approx([3.0, 3.0], abs=1e-8)


def test_dense_form_matches_apply():
    m = 25
    rng = stream(4, "dense")
    g = rng.standard_normal((m, 4))
    mat = g @ g.T + 1.5 * np.eye(m)
    op = DenseSymOp(mat)
    pre = nystrom_preconditioner(op, 1.5, 6, seed=4)
    u = pre.basis
    dense = u @ np.diag(pre.eigenvalues) @ u.T + pre.shift * np.eye(m)
    v = rng.standard_normal(m)
    assert np.allclose(np.linalg.solve(dense, v), pre.apply_inverse(v), atol=1e-10)


def test_exact_rank_capture():
    # operator with exactly rank-3 excess over the shift: sketch rank 3 nails it
    m = 30
    rng = stream(6, "exact")
    q, _ = np.linalg.qr(rng.standard_normal((m, 3)))
    mat = q @ np.diag([9.0, 5.0, 2.0]) @ q.T + np.eye(m)
    op = DenseSymOp(mat)
    pre = nystrom_preconditioner(op, 1.0, 3, seed=6)
    assert np.sort(pre.eigenvalues + pre.shift) == pytest.approx([3.0, 6.0, 10.0], abs=1e-8)


@pytest.mark.parametrize("rank", [3, 8])
def test_apply_inverse_matches_dense_inverse_for_vectors_and_blocks(rank):
    m = 40
    rng = stream(5, "inverse")
    g = rng.standard_normal((m, 6))
    op = DenseSymOp(g @ g.T + 0.3 * np.eye(m))
    pre = nystrom_preconditioner(op, 0.3, rank, seed=5)
    u = pre.basis
    dense = u @ np.diag(pre.eigenvalues) @ u.T + pre.shift * np.eye(m)
    inverse = np.linalg.inv(dense)
    v = rng.standard_normal(m)
    block = rng.standard_normal((m, 4))
    for x in (v, block):
        out = pre.apply_inverse(x)
        assert out.shape == x.shape
        ref = inverse @ x
        assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)


def test_full_rank_sketch_inverts_the_operator():
    # at rank m the sketch holds all of C, so P = C + shift * I is the operator itself
    m = 48
    rng = stream(8, "full")
    g = rng.standard_normal((m, m))
    shift = 0.05
    op = DenseSymOp(g @ g.T + shift * np.eye(m))
    pre = nystrom_preconditioner(op, shift, m, seed=8)
    assert pre.rank == m
    v = rng.standard_normal(m)
    out = pre.apply_inverse(op.mat @ v)
    assert np.linalg.norm(out - v) <= 1e-10 * np.linalg.norm(v)


def test_test_block_is_drawn_once_per_seed_size_and_rank():
    # every sketch with the same (seed, m, rank) reads one orthonormal,
    # read-only block, so two builds of one operator are the same factor
    from hypermarg.nystrom import _test_block

    omega = _test_block(3, 20, 5)
    assert omega is _test_block(3, 20, 5)
    assert not omega.flags.writeable
    assert np.abs(omega.T @ omega - np.eye(5)).max() <= 1e-12
    assert _test_block(4, 20, 5) is not omega
    u = stream(9, "u").standard_normal((20, 4))
    op = DenseSymOp(u @ u.T + 0.5 * np.eye(20))
    first = nystrom_preconditioner(op, 0.5, 5, seed=3)
    second = nystrom_preconditioner(op, 0.5, 5, seed=3)
    np.testing.assert_array_equal(first.basis, second.basis)
    np.testing.assert_array_equal(first.eigenvalues, second.eigenvalues)
