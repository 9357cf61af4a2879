import threading

import numpy as np
import pytest
import scipy.sparse

from hypermarg import (
    ConvolutionOp,
    DenseSymOp,
    MatvecCounter,
    ScaledIdentityOp,
    SparseLinOp,
    SuperresOp,
    build_psi,
    deblur_problem,
    psf_stencil,
    tomo_problem,
)
from hypermarg.problems import SuperresDerivOp
from hypermarg.rng import stream


def test_counter_counts_matvecs():
    op = DenseSymOp(np.eye(4))
    v = np.ones(4)
    for _ in range(7):
        op.matvec(v)
    assert op.counter.count == 7


def test_counter_thread_safety():
    counter = MatvecCounter()

    def bump():
        for _ in range(1000):
            counter.increment()

    threads = [threading.Thread(target=bump) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert counter.count == 8000


def test_shared_counter_between_forward_and_adjoint():
    op = SparseLinOp(scipy.sparse.csr_matrix(np.ones((3, 5))))
    op.matvec(np.ones(5))
    op.rmatvec(np.ones(3))
    op.rmatvec(np.ones(3))
    assert op.counter.count == 3


def test_matmat_counts_per_column():
    op = DenseSymOp(np.eye(4))
    op.matmat(np.ones((4, 6)))
    assert op.counter.count == 6


def test_sparse_block_applies_match_dense_and_count_per_column():
    rng = stream(3, "sparse-block")
    mat = np.where(rng.random((7, 5)) < 0.4, rng.standard_normal((7, 5)), 0.0)
    superres = SuperresOp(8, 2, [(0.12, 0.05), (-0.08, 0.11)])
    ops = [
        SparseLinOp(scipy.sparse.csr_matrix(mat)),
        ConvolutionOp(psf_stencil([1.1, 0.4, 0.7]), 6),
        superres,
        SuperresDerivOp(superres, 1, 0),
    ]
    for op in ops:
        dense = op.dense()
        y = rng.standard_normal((op.m, 4))
        x = rng.standard_normal((op.n, 3))
        np.testing.assert_allclose(op.rmatmat(y), dense.T @ y, rtol=1e-14, atol=1e-14)
        assert op.counter.count == 4
        np.testing.assert_allclose(op.matmat(x), dense @ x, rtol=1e-14, atol=1e-14)
        assert op.counter.count == 7
        np.testing.assert_allclose(op.rmatvec(y[:, 2]), dense.T @ y[:, 2], rtol=1e-14, atol=1e-14)
        assert op.counter.count == 8

    # Symmetric operators: a block apply is its column loop, and both charge
    # one application per column.  A Psi operator also charges its legs per
    # column: two A applications (forward and adjoint), one Q and one R.
    a = rng.standard_normal((6, 6))
    problems = [tomo_problem(s=5, n_src=4, n_rec=6, seed=2), deblur_problem(s=6, seed=2)]
    sym_ops = [DenseSymOp(a + a.T), ScaledIdentityOp(2.5, 6)] + [
        build_psi(problem, problem.theta_true) for problem in problems
    ]
    ledgers = [None, None] + [problem.counters for problem in problems]
    for op, ledger in zip(sym_ops, ledgers):
        v = rng.standard_normal((op.m, 3))
        start = op.counter.count
        legs = ledger.snapshot() if ledger else None
        loop = np.column_stack([op.matvec(v[:, j]) for j in range(3)])
        assert op.counter.count - start == 3
        mid = ledger.snapshot() if ledger else None
        block = op.matmat(v)
        assert op.counter.count - start == 6
        assert np.linalg.norm(block - loop) <= 1e-12 * np.linalg.norm(loop)
        if ledger:
            end = ledger.snapshot()
            for key, per_column in (("a", 2), ("q", 1), ("r", 1)):
                assert mid[key] - legs[key] == end[key] - mid[key] == 3 * per_column


def test_dense_does_not_count():
    op = SparseLinOp(scipy.sparse.csr_matrix(np.diag([1.0, 2.0])))
    np.testing.assert_array_equal(op.dense(), np.diag([1.0, 2.0]))
    assert op.counter.count == 0


def test_symmetry_enforced():
    with pytest.raises(ValueError):
        DenseSymOp(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize(
    "mat",
    [
        np.array([[1.0, 2.0], [2.0 + 1e-9, 1.0]]),
        np.array([[1.0, np.nan], [np.nan, 1.0]]),
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
        np.array([[np.inf, 0.0], [0.0, 1.0]]),
    ],
)
@pytest.mark.filterwarnings("error")
def test_asymmetric_or_nan_matrix_raises(mat):
    with pytest.raises(ValueError, match="symmetric"):
        DenseSymOp(mat)


def test_symmetry_tolerance_scales_with_entries():
    # within 1e-12 of the largest entry is symmetric enough, and is symmetrized
    mat = np.array([[1e3, 2.0], [2.0 + 1e-10, 1.0]])
    op = DenseSymOp(mat)
    np.testing.assert_array_equal(op.mat, op.mat.T)
    np.testing.assert_array_equal(op.mat, 0.5 * (mat + mat.T))
    assert op.mat[1, 0] != mat[1, 0]


def test_exactly_symmetric_matrix_is_stored_as_a_copy():
    mat = _random_symmetric(6)
    mat[2, 4] = mat[4, 2] = -0.0
    op = DenseSymOp(mat)
    assert op.mat.tobytes() == mat.tobytes()
    assert not np.shares_memory(op.mat, mat)
    stored = op.mat.copy()
    mat[0, 1] = mat[1, 0] = 99.0
    np.testing.assert_array_equal(op.mat, stored)


def test_scaled_identity_ops():
    op = ScaledIdentityOp(2.0, 5)
    assert np.allclose(op.matvec(np.ones(5)), 2.0)



def _random_symmetric(m):
    g = stream(12, "sym").standard_normal((m, m))
    return g + g.T


@pytest.mark.parametrize(
    "make",
    [lambda m: ScaledIdentityOp(1.7, m), lambda m: DenseSymOp(_random_symmetric(m))],
    ids=["scaled-identity", "dense"],
)
def test_uncounted_pair_and_take_match_the_dense_product(make):
    m = 6
    op = make(m)
    dense = op._apply(np.eye(m))
    rng = stream(11, "pair-take")
    u, v = rng.standard_normal((2, 4, m))
    assert op._pair(u, v) == pytest.approx(np.sum(u * (v @ dense)), rel=1e-13)
    x, y = rng.standard_normal((2, m))
    assert op._pair(x, y) == pytest.approx(x @ dense @ y, rel=1e-13)
    positions = [np.array([0, 5, 23]), np.array([7])]
    product = (u @ dense).ravel()
    taken = op._take(u, positions)
    assert len(taken) == 2
    for got, pos in zip(taken, positions):
        assert np.allclose(got, product[pos], rtol=1e-13, atol=0.0)
    assert op.counter.count == 0
