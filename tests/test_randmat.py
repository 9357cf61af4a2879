"""Tests for the seeded exactly-known-logdet matrix family."""

import numpy as np
import pytest
import scipy.linalg

from hypermarg.randmat import logdet_test_matrix

from test_objective import relerr


class TestLogdetMatrix:
    def test_spectrum_endpoints_exact(self):
        for kappa in (1.5, 3.0, 50.0):
            obj = logdet_test_matrix(12, kappa, seed=4)
            lam = np.sort(np.linalg.eigvalsh(obj.mat))
            assert abs(lam[0] - 1.0) < 1e-10 * kappa
            assert abs(lam[-1] - kappa) < 1e-10 * kappa
            assert np.allclose(lam, np.sort(obj.eigenvalues), rtol=1e-10)

    def test_logdet_matches_cholesky(self):
        obj = logdet_test_matrix(20, 8.0, seed=1)
        chol = np.linalg.cholesky(obj.mat)
        assert relerr(obj.logdet, 2.0 * np.sum(np.log(np.diag(chol)))) < 1e-12

    def test_log_matrix_matches_logm_oracle(self):
        obj = logdet_test_matrix(10, 5.0, seed=2)
        oracle = scipy.linalg.logm(obj.mat)
        assert np.max(np.abs(obj.log_mat - oracle)) < 1e-8
        assert relerr(np.trace(oracle), obj.logdet) < 1e-8

    def test_norms_exact(self):
        obj = logdet_test_matrix(15, 6.0, seed=3)
        assert relerr(obj.frob_norm, np.linalg.norm(obj.mat, "fro")) < 1e-12
        assert relerr(obj.two_norm, np.linalg.norm(obj.mat, 2)) < 1e-10

    def test_kappa_one_is_exactly_identity(self):
        obj = logdet_test_matrix(9, 1.0, seed=7)
        assert np.array_equal(obj.mat, np.eye(9))
        assert obj.logdet == 0.0

    def test_deterministic_and_seed_sensitive(self):
        a = logdet_test_matrix(8, 3.0, seed=11)
        b = logdet_test_matrix(8, 3.0, seed=11)
        c = logdet_test_matrix(8, 3.0, seed=12)
        assert np.array_equal(a.mat, b.mat)
        assert not np.array_equal(a.mat, c.mat)

    def test_constants_bundle(self):
        obj = logdet_test_matrix(10, 4.0, seed=0)
        k = obj.constants()
        assert k.lipschitz == 0.0
        assert abs(k.kappa - 4.0) < 1e-10
        assert abs(k.varsigma_frob(10) - obj.frob_norm) < 1e-10
        assert abs(k.varsigma_two() - 4.0) < 1e-10

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            logdet_test_matrix(0, 2.0)
        with pytest.raises(ValueError):
            logdet_test_matrix(5, 0.5)

