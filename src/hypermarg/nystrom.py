"""Randomized Nystrom preconditioner for shifted covariance-like operators.

For an SPD operator of the form  M = C + mu * I  with C (approximately) low
rank, a rank-L randomized Nystrom sketch of C yields the factored approximation

    P = U diag(lam) U^T + mu * (I - U U^T),     U orthonormal, lam >= 0,

whose inverse is cheap (rank-L algebra plus a scaled identity).  It serves as
the CG preconditioner for solves with the marginal covariance
Psi = A Q A^T + mu * I, whose noise covariance must be a scaled identity so
that the shift mu is known (Frangella, Tropp & Udell, "Randomized Nystrom
preconditioning", SIAM J. Matrix Anal. Appl. 2023).
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .operators import NumericalError
from .rng import stream

__all__ = [
    "NystromPreconditioner",
    "nystrom_preconditioner",
]


@dataclass
class NystromPreconditioner:
    """Factored approximation U diag(lam) U^T + shift * (I - U U^T) + shift * U U^T.

    Equivalently P = U diag(lam + shift) U^T + shift * (I - U U^T).
    ``basis`` may have fewer columns than the requested rank (sketch rank
    deficiency) or none at all (operator equals shift * I exactly).
    """

    basis: np.ndarray
    eigenvalues: np.ndarray
    shift: float

    @property
    def m(self):
        return self.basis.shape[0]

    @property
    def rank(self):
        return self.basis.shape[1]

    def apply_inverse(self, v):
        """P^{-1} v = U diag(1/(lam + shift)) U^T v + (I - U U^T) v / shift.

        ``v`` is a vector or a block of columns.
        """
        v = np.asarray(v, dtype=float)
        if self.rank == 0:
            return v / self.shift
        coeff = self.basis.T @ v
        resid = v - self.basis @ coeff
        d = self.eigenvalues + self.shift
        if v.ndim == 2:
            d = d[:, None]
        return self.basis @ (coeff / d) + resid / self.shift

    def dense(self):
        eye = np.eye(self.m)
        if self.rank == 0:
            return self.shift * eye
        u = self.basis
        return u @ np.diag(self.eigenvalues) @ u.T + self.shift * eye


def nystrom_preconditioner(op, shift, rank, seed):
    """Sketch ``op - shift * I`` and build a :class:`NystromPreconditioner`.

    Follows the numerically stabilized single-pass recipe: Gaussian test
    matrix, thin QR, a small stabilizing shift ``nu`` proportional to machine
    epsilon times the sketch norm, Cholesky of the core matrix, triangular
    solve, thin SVD.  Eigenvalue estimates are clipped at zero after the
    ``nu`` shift is removed.

    Parameters
    ----------
    op : SymOp
        SPD operator to precondition (must dominate ``shift * I``).
    shift : float
        The known identity shift mu; must be positive.
    rank : int
        Sketch rank (columns of the test matrix), 1 <= rank <= m.
    seed : int
        Seed for the Gaussian test matrix.
    """
    if shift <= 0.0:
        raise ValueError("shift must be positive")
    m = op.m
    rank = int(rank)
    if not 1 <= rank <= m:
        raise ValueError(f"rank must satisfy 1 <= rank <= {m}, got {rank}")

    rng = stream(seed, "nystrom")
    omega = rng.standard_normal((m, rank))
    omega, _ = np.linalg.qr(omega)

    sketch = op.matmat(omega) - shift * omega
    sketch_norm = float(np.linalg.norm(sketch))
    if sketch_norm <= m * np.finfo(float).eps * abs(shift):
        # operator is shift * I to working precision: empty factor
        return NystromPreconditioner(
            basis=np.zeros((m, 0)), eigenvalues=np.zeros(0), shift=float(shift)
        )

    nu = np.sqrt(m) * np.finfo(float).eps * sketch_norm
    for attempt in range(4):
        shifted = sketch + nu * omega
        core = omega.T @ shifted
        core = 0.5 * (core + core.T)
        try:
            chol = np.linalg.cholesky(core)
        except np.linalg.LinAlgError:
            nu *= 100.0
            continue
        b = scipy.linalg.solve_triangular(chol, shifted.T, lower=True).T
        u, svals, _ = np.linalg.svd(b, full_matrices=False)
        eigenvalues = np.maximum(svals**2 - nu, 0.0)
        return NystromPreconditioner(
            basis=u, eigenvalues=eigenvalues, shift=float(shift)
        )
    raise NumericalError(
        "Nystrom core matrix is not positive semidefinite; the operator does "
        f"not dominate shift * I (shift={shift:.6e})"
    )
