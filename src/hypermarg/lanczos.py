"""Lanczos tridiagonalization and the log quadratic forms built on it.

The stochastic log-determinant machinery needs one Krylov primitive:
w^T log(M) w approximated from K Lanczos steps, via the Gauss quadrature
weights hiding in the tridiagonal eigendecomposition.  It is a thin layer
over :func:`lanczos_decompose`, which is where the numerical care lives:
full re-orthogonalization and explicit breakdown detection
with a tolerance relative to the operator's estimated scale.  Breakdown is
not an error — the Krylov space is simply exhausted, and the truncated
tridiagonal matrix already gives the exact quadratic form.

``lanczos_decompose`` takes one starting vector or a block of them; a block
runs one recurrence per column, each in its own Krylov space, with one
operator product per step for all columns still running.
"""

from dataclasses import dataclass

import numpy as np

from .operators import DenseSymOp, NumericalError, _columnwise

__all__ = [
    "LanczosDecomp",
    "lanczos_decompose",
    "lanczos_quadform_log",
    "slq_logdet_batch",
]

# A beta below this multiple of the operator's estimated spectral scale
# terminates the recurrence (Krylov space exhausted).
BREAKDOWN_RTOL = 1e-12


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
    """Result of a (possibly truncated) Lanczos run.

    From a starting vector: ``basis`` holds the orthonormal Lanczos vectors
    as columns (m x k_eff), ``alpha``/``beta`` are the tridiagonal
    coefficients, ``vnorm`` is the norm of the starting vector (needed to
    undo the normalization in quadratic forms), ``steps`` equals k_eff, and
    ``breakdown_step`` is the step count at which the recurrence terminated
    early, or ``None`` if all requested steps ran.

    From a block of n starting vectors: ``basis`` is (m, k, n), ``alpha`` is
    (k, n), ``beta`` is (k-1, n) and ``vnorm`` is (n,), column j holding the
    run from column j; ``steps`` is the (n,) array of per-column step counts
    (below k where that column broke down), and entries past a column's
    count are zero.  ``breakdown_step`` is ``None``.
    """

    basis: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    vnorm: float
    steps: object
    breakdown_step: int = None

    @property
    def k_eff(self):
        """Lanczos steps run, summed over the columns of a block."""
        return int(np.sum(self.steps))

    def tridiagonal(self):
        """The k_eff x k_eff tridiagonal matrix of a single-vector run."""
        return _tridiagonals(self.alpha[:, None], self.beta[:, None])[0]

    def quadform_log(self):
        """||v||^2 * e_1^T log(T) e_1, one value per column for a block."""
        block = self.alpha.ndim == 2
        alpha = self.alpha if block else self.alpha[:, None]
        beta = self.beta if block else self.beta[:, None]
        steps = np.atleast_1d(self.steps)
        values = np.empty(steps.shape[0])
        for s in np.unique(steps):
            idx = np.flatnonzero(steps == s)
            eigvals, eigvecs = np.linalg.eigh(
                _tridiagonals(alpha[:s, idx], beta[: s - 1, idx])
            )
            if np.any(eigvals <= 0.0):
                bad = float(eigvals.min())
                raise NumericalError(
                    f"log quadrature hit a non-positive Ritz value {bad:.6e}; "
                    "the operator is not positive definite at this accuracy"
                )
            weights = eigvecs[:, 0, :] ** 2
            values[idx] = np.einsum("gk,gk->g", weights, np.log(eigvals))
        values *= np.atleast_1d(self.vnorm) ** 2
        return values if block else float(values[0])


def lanczos_decompose(op, v, k):
    """Run k Lanczos steps of ``op`` from ``v``, or from each column of ``v``.

    Parameters
    ----------
    op : SymOp
        Symmetric operator (applications are counted by the operator).
    v : array
        Starting vector ``(m,)``, or a block ``(m, n)`` of starting vectors;
        each must be nonzero.  A block runs one recurrence per column, with
        its own coefficients, breakdown test and re-orthogonalization against
        its own basis, and applies the operator once per step, through
        ``op.matmat``, to the columns that have not broken down.
    k : int
        Number of steps, 1 <= k <= m.

    Every step is fully re-orthogonalized against all previous basis vectors
    (two classical Gram-Schmidt passes).
    """
    m = op.m
    k = int(k)
    if not 1 <= k <= m:
        raise ValueError(f"k must satisfy 1 <= k <= {m}, got {k}")
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[0] != m:
        raise ValueError(f"starting vector must have shape ({m},) or ({m}, n)")
    apply, dot = _columnwise(op, v)
    block = v.ndim == 2
    if block:

        def project(vecs, u):
            return np.einsum("mjn,jn->mn", vecs, np.einsum("mjn,mn->jn", vecs, u))

    else:

        def project(vecs, u):
            return vecs @ (vecs.T @ u)

    # Squared norms and the first alpha from raw dot products: exact for
    # sign probes, which keeps the first coefficient exact too (alpha_1 = 1
    # exactly for the identity, so its log quadratic form is exactly zero
    # rather than ~1e-15).
    vsq = dot(v, v)
    if np.any(vsq == 0.0):
        raise ValueError("starting vector must be nonzero")
    vnorm = np.sqrt(vsq)

    cols = v.shape[1:]
    basis = np.zeros((m, k) + cols)
    alpha = np.zeros((k,) + cols)
    beta = np.zeros((max(k - 1, 0),) + cols)
    steps = np.full(cols, k)
    active = np.ones(cols, dtype=bool)
    basis[:, 0] = v / vnorm
    v_prev = np.zeros_like(v)
    beta_prev = np.zeros(cols)
    norm_est = np.zeros(cols)

    for j in range(k):
        q = basis[:, j]
        if j == 0:
            raw = apply(v)
            u = raw / vnorm
            a = dot(v, raw) / vsq
        else:
            if active.all():
                u = apply(q)
            else:
                # only a block gets here: broken-down columns stay zero
                u = np.zeros_like(q)
                u[:, active] = op.matmat(q[:, active])
            a = dot(q, u)
        u = u - a * q - beta_prev * v_prev
        for _ in range(2):
            u -= project(basis[:, : j + 1], u)
        b = np.sqrt(dot(u, u))
        alpha[j] = a
        if j == k - 1:
            break
        # Gershgorin row bound on T as a running scale estimate
        norm_est = np.maximum(norm_est, np.abs(a) + np.abs(beta_prev) + b)
        dead = active & (b <= BREAKDOWN_RTOL * np.maximum(norm_est, np.finfo(float).tiny))
        # Krylov space exhausted before the requested step count
        steps[dead] = j + 1
        active &= ~dead
        if not active.any():
            break
        beta_prev = np.where(active, b, 0.0)
        beta[j] = beta_prev
        v_prev = q
        basis[:, j + 1] = np.where(active, u / np.where(active, b, 1.0), 0.0)

    if block:
        return LanczosDecomp(
            basis=basis, alpha=alpha, beta=beta, vnorm=vnorm, steps=steps
        )
    k_eff = int(steps)
    return LanczosDecomp(
        basis=basis[:, :k_eff].copy(),
        alpha=alpha[:k_eff].copy(),
        beta=beta[: k_eff - 1].copy(),
        vnorm=float(vnorm),
        steps=k_eff,
        breakdown_step=k_eff if k_eff < k else None,
    )


def lanczos_quadform_log(op, w, k):
    """Estimate w^T log(M) w with k Lanczos steps."""
    return lanczos_decompose(op, w, k).quadform_log()


def slq_logdet_batch(mat, w_block, k):
    """Per-probe log quadratic forms for a dense symmetric matrix.

    Returns an array of w_i^T log(M) w_i values, one per column of
    ``w_block``; their mean estimates trace(log M).  Used by the
    trace-estimation benchmarks and the batched acceptance checks, where the
    operator is an explicit matrix anyway.
    """
    mat = np.asarray(mat, dtype=float)
    w_block = np.asarray(w_block, dtype=float)
    if w_block.ndim != 2 or w_block.shape[0] != mat.shape[0]:
        raise ValueError(f"probe block must have shape ({mat.shape[0]}, n)")
    return lanczos_decompose(DenseSymOp(mat), w_block, k).quadform_log()
