"""Randomized Nystrom preconditioner for shifted covariance-like operators.

For an SPD operator of the form  M = C + mu * I  with C (approximately) low
rank, a rank-L randomized Nystrom sketch of C yields the factored approximation

    P = U diag(lam) U^T + mu * (I - U U^T),     U orthonormal, lam >= 0,

whose inverse is cheap (rank-L algebra plus a scaled identity).  It serves as
the CG preconditioner for solves with the marginal covariance
Psi = A Q A^T + mu * I, whose shift mu is the problem's noise variance
(Frangella, Tropp & Udell, "Randomized Nystrom preconditioning", SIAM J.
Matrix Anal. Appl. 2023).

Every dense step here is a numpy call, so the build runs in numpy's BLAS
alone.  scipy ships its own OpenBLAS: a ``scipy.linalg`` call between numpy's
products makes two OpenBLAS thread pools contend for the same cores.  With a
scipy triangular solve, a rank-72 build for tomo s=8 took 8.0 ms on two
vCPUs at default threading, against 1.4 ms with numpy's solve.
"""

import functools
from dataclasses import dataclass

import numpy as np

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

    @functools.cached_property
    def _correction_basis(self):
        """U diag(1/(lam + shift) - 1/shift), so that P^{-1} = I / shift + (this) U^T."""
        return self.basis * (1.0 / (self.eigenvalues + self.shift) - 1.0 / self.shift)

    def apply_inverse(self, v):
        """P^{-1} v = v / shift + U diag(1/(lam + shift) - 1/shift) U^T v.

        ``v`` is a vector or a block of columns.  Two products with U: one
        with U^T and one with the scaled basis, formed once per preconditioner.
        """
        v = np.asarray(v, dtype=float)
        if self.rank == 0:
            return v / self.shift
        return v / self.shift + self._correction_basis @ (self.basis.T @ v)


@functools.lru_cache(maxsize=4)
def _test_block(seed, m, rank):
    """The orthonormalized Gaussian test matrix, read-only.

    It depends on (seed, m, rank) alone, so one draw and one QR serve every
    sketch with them: m3c sketches Psi at each anchor with the same seed.
    """
    omega, _ = np.linalg.qr(stream(seed, "nystrom").standard_normal((m, rank)))
    omega.flags.writeable = False
    return omega


def nystrom_preconditioner(op, shift, rank, seed):
    """Sketch ``op - shift * I`` and build a :class:`NystromPreconditioner`.

    Follows the numerically stabilized single-pass recipe: Gaussian test
    matrix, thin QR (both made once per (seed, m, rank) and kept), a small
    stabilizing shift ``nu`` proportional to machine epsilon times the
    sketch norm, Cholesky of the core matrix, a solve against its
    rank x rank factor, thin SVD.  Eigenvalue estimates are
    clipped at zero after the ``nu`` shift is removed.

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

    omega = _test_block(seed, m, rank)
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
        b = np.linalg.solve(chol, shifted.T).T
        u, svals, _ = np.linalg.svd(b, full_matrices=False)
        eigenvalues = np.maximum(svals**2 - nu, 0.0)
        return NystromPreconditioner(
            basis=u, eigenvalues=eigenvalues, shift=float(shift)
        )
    raise NumericalError(
        "Nystrom core matrix is not positive semidefinite; the operator does "
        f"not dominate shift * I (shift={shift:.6e})"
    )
