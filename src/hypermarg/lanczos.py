"""Lanczos tridiagonalization and the log quadratic forms built on it.

The stochastic log-determinant machinery needs one Krylov primitive:
w^T log(M) w approximated from K Lanczos steps, via the Gauss quadrature
weights hiding in the tridiagonal eigendecomposition.  It is a thin layer
over :func:`lanczos_decompose`, which is where the numerical care lives:
full re-orthogonalization and explicit breakdown detection
with a tolerance relative to the operator's estimated scale.  Breakdown is
not an error — the Krylov space is simply exhausted, and the truncated
tridiagonal matrix already gives the exact quadratic form.

``lanczos_decompose`` takes a block of starting vectors (a single vector is
a one-column block) and runs one recurrence per column, each in its own
Krylov space, with one operator product per step for all columns still
running.
"""

from dataclasses import dataclass

import numpy as np

from .operators import DenseSymOp, NumericalError, _as_block

__all__ = [
    "LanczosDecomp",
    "lanczos_decompose",
    "slq_logdet_batch",
]

# A beta below this multiple of the operator's estimated spectral scale
# terminates the recurrence (Krylov space exhausted).
BREAKDOWN_RTOL = 1e-12
_TINY = np.finfo(float).tiny


def _tridiagonals(alpha, beta):
    """(g, s, s) stack of tridiagonal matrices from (s, g) and (s-1, g) coefficients."""
    s, g = alpha.shape
    t = np.zeros((g, s, s))
    diag = np.arange(s)
    t[:, diag, diag] = alpha.T
    off = np.arange(s - 1)
    t[:, off, off + 1] = beta.T
    t[:, off + 1, off] = beta.T
    return t


@dataclass
class LanczosDecomp:
    """Result of a (possibly truncated) Lanczos run over a block of n columns.

    ``basis`` is (n, k, m): ``basis[j]`` holds the orthonormal Lanczos
    vectors of column j as rows.  ``alpha`` is (k, n) and ``beta`` (k-1, n),
    column j holding the tridiagonal coefficients of the run from column j;
    ``vnorm`` is the (n,) array of starting-vector norms (needed to undo the
    normalization in quadratic forms) and ``steps`` the (n,) array of
    per-column step counts, below k where that column broke down.  Entries
    past a column's count are zero.
    """

    basis: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    vnorm: np.ndarray
    steps: np.ndarray

    @property
    def k_eff(self):
        """Lanczos steps run, summed over the columns."""
        return int(np.sum(self.steps))

    def tridiagonal(self):
        """The tridiagonal matrix of the first column's run, steps[0] on a side."""
        s = self.steps[0]
        return _tridiagonals(self.alpha[:s, :1], self.beta[: s - 1, :1])[0]

    def quadform_log(self):
        """||v_j||^2 * e_1^T log(T_j) e_1, one value per column j."""
        values = np.empty(self.steps.shape[0])
        for s in np.unique(self.steps):
            idx = np.flatnonzero(self.steps == s)
            eigvals, eigvecs = np.linalg.eigh(
                _tridiagonals(self.alpha[:s, idx], self.beta[: s - 1, idx])
            )
            if np.any(eigvals <= 0.0):
                bad = float(eigvals.min())
                raise NumericalError(
                    f"log quadrature hit a non-positive Ritz value {bad:.6e}; "
                    "the operator is not positive definite at this accuracy"
                )
            weights = eigvecs[:, 0, :] ** 2
            values[idx] = np.einsum("gk,gk->g", weights, np.log(eigvals))
        return values * self.vnorm**2


def _row_dots(u, v):
    return np.einsum("ij,ij->i", u, v)


def lanczos_decompose(op, v, k):
    """Run k Lanczos steps of ``op`` from each column of ``v``.

    Parameters
    ----------
    op : SymOp
        Symmetric operator (applications are counted by the operator).
    v : array
        Block ``(m, n)`` of nonzero starting vectors; a single vector is a
        one-column block.  Each column runs its own recurrence, with its own
        coefficients, breakdown test and re-orthogonalization against its own
        basis.  The operator is applied once per step, through
        ``op.matmat``, to the columns that have not broken down.
    k : int
        Number of steps, 1 <= k <= m.

    Every step is fully re-orthogonalized against all previous basis vectors
    (two classical Gram-Schmidt passes, each one batched matmul over the
    columns).
    """
    m = op.m
    k = int(k)
    if not 1 <= k <= m:
        raise ValueError(f"k must satisfy 1 <= k <= {m}, got {k}")
    v = _as_block(v, m, "v")
    # The recurrence runs on rows: vt[j] is column j of v.  Squared norms and
    # the first alpha come from raw dot products: exact for sign probes,
    # which keeps the first coefficient exact too (alpha_1 = 1 exactly for
    # the identity, so its log quadratic form is exactly zero rather than
    # ~1e-15).
    vt = v.T
    vsq = _row_dots(vt, vt)
    if np.any(vsq == 0.0):
        raise ValueError("starting vector must be nonzero")
    vnorm = np.sqrt(vsq)

    n = vt.shape[0]
    basis = np.zeros((n, k, m))
    alpha = np.zeros((k, n))
    beta = np.zeros((k - 1, n))
    steps = np.full(n, k)
    active = np.ones(n, dtype=bool)
    all_active = True
    # q holds the current basis vectors as C-ordered rows, so the operator
    # gets the contiguous block q.T; broken-down columns' rows stay zero
    q = np.divide(vt, vnorm[:, None], order="C")
    q_prev = np.zeros((n, m))
    beta_prev = np.zeros(n)
    norm_est = np.zeros(n)

    for j in range(k):
        basis[:, j] = q
        if j == 0:
            raw = op.matmat(v).T
            u = raw / vnorm[:, None]
            a = _row_dots(vt, raw) / vsq
        else:
            if all_active:
                u = op.matmat(q.T).T
            else:
                u = np.zeros_like(q)
                u[active] = op.matmat(q[active].T).T
            a = _row_dots(q, u)
        u = u - a[:, None] * q - beta_prev[:, None] * q_prev
        vecs = basis[:, : j + 1]
        for _ in range(2):
            coeff = vecs @ u[:, :, None]
            u -= (coeff.transpose(0, 2, 1) @ vecs)[:, 0]
        b = np.sqrt(_row_dots(u, u))
        alpha[j] = a
        if j == k - 1:
            break
        # Gershgorin row bound on T as a running scale estimate
        norm_est = np.maximum(norm_est, np.abs(a) + np.abs(beta_prev) + b)
        dead = active & (b <= BREAKDOWN_RTOL * np.maximum(norm_est, _TINY))
        if dead.any():
            # Krylov space exhausted before the requested step count
            steps[dead] = j + 1
            active &= ~dead
            all_active = False
            if not active.any():
                break
        q_prev = q
        if all_active:
            beta_prev = b
            q = np.divide(u, b[:, None], order="C")
        else:
            beta_prev = np.where(active, b, 0.0)
            q = np.zeros((n, m))
            q[active] = u[active] / b[active, None]
        beta[j] = beta_prev

    return LanczosDecomp(basis=basis, alpha=alpha, beta=beta, vnorm=vnorm, steps=steps)


def slq_logdet_batch(mat, w_block, k):
    """Per-probe log quadratic forms for a dense symmetric matrix.

    Returns an array of w_i^T log(M) w_i values, one per column of
    ``w_block``; their mean estimates trace(log M).  Used by the
    trace-estimation benchmarks and the batched acceptance checks, where the
    operator is an explicit matrix anyway.
    """
    return lanczos_decompose(DenseSymOp(mat), w_block, k).quadform_log()
