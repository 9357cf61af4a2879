"""Seeded test matrices with exactly known spectra and log-determinants.

The SPD family is built in log space: draw a spectrum ``s`` pinned to
``[0, log kappa]`` (endpoints hit exactly), conjugate by a random
orthogonal matrix, and exponentiate eigenvalue-wise.  Every quantity a
trace-estimation benchmark needs — log det, matrix logarithm, Frobenius
and spectral norms, condition number — is then available in closed form
from the spectrum, independent of any factorization of the matrix itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import SpectralConstants
from .rng import stream

__all__ = ["LogdetMatrix", "logdet_test_matrix"]


@dataclass(frozen=True)
class LogdetMatrix:
    """An SPD matrix bundled with its exactly known spectral data.

    ``mat = V diag(exp(s)) V^T`` and ``log_mat = V diag(s) V^T`` share the
    same eigenbasis, so ``logdet == s.sum()`` holds by construction rather
    than by numerical factorization.
    """

    mat: np.ndarray
    log_mat: np.ndarray
    eigenvalues: np.ndarray  # of ``mat``, ascending
    logdet: float
    kappa: float
    frob_norm: float
    two_norm: float
    seed: int = 0

    @property
    def m(self):
        return self.mat.shape[0]

    def constants(self):
        """Spectral constants for this one fixed matrix (Lipschitz 0)."""
        lam = self.eigenvalues
        return SpectralConstants(
            alpha=float(lam[0]),
            beta=float(lam[-1]),
            lipschitz=0.0,
            frob_max=self.frob_norm,
            two_max=self.two_norm,
        )


def _orthogonal(m, rng):
    """Haar-ish orthogonal factor with a deterministic sign convention."""
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diag(r))


def logdet_test_matrix(m, kappa, seed=0):
    """SPD test matrix of size m with condition number exactly ``kappa``.

    The log-spectrum is a sorted uniform sample rescaled affinely so its
    minimum is 0 and its maximum is ``log kappa`` — eigenvalue extremes 1
    and ``kappa`` are exact, and so are ``logdet`` and both norms.
    ``kappa == 1`` returns the identity matrix exactly (no rotation), so a
    benchmark's zero-error row really is zero.
    """
    if m < 1:
        raise ValueError("matrix size must be positive")
    kappa = float(kappa)
    if kappa < 1.0:
        raise ValueError("condition number must be >= 1")

    if kappa == 1.0 or m == 1:
        eye = np.eye(m)
        return LogdetMatrix(
            mat=eye,
            log_mat=np.zeros((m, m)),
            eigenvalues=np.ones(m),
            logdet=0.0,
            kappa=1.0,
            frob_norm=float(np.sqrt(m)),
            two_norm=1.0,
            seed=seed,
        )

    rng = stream(seed, "logdet-matrix")
    raw = np.sort(rng.random(m))
    s = (raw - raw[0]) / (raw[-1] - raw[0]) * np.log(kappa)
    v = _orthogonal(m, rng)

    mat = (v * np.exp(s)) @ v.T
    mat = 0.5 * (mat + mat.T)
    log_mat = (v * s) @ v.T
    log_mat = 0.5 * (log_mat + log_mat.T)

    return LogdetMatrix(
        mat=mat,
        log_mat=log_mat,
        eigenvalues=np.exp(s),
        logdet=float(s.sum()),
        kappa=kappa,
        frob_norm=float(np.sqrt(np.exp(2.0 * s).sum())),
        two_norm=kappa,
        seed=seed,
    )

