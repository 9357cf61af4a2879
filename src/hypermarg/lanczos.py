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

``LanczosDecomp.quadform_log_adjoint`` is the reverse pass: the exact
derivative of the log quadratic forms with respect to the operator, from one
sweep back through the stored recurrence (Kramer, Moreno-Munoz, Roy &
Hauberg, "Gradients of functions of large matrices", NeurIPS 2024).
"""

from dataclasses import dataclass, field

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
    # (idx, eigvals, eigvecs) of the tridiagonals, one entry per step count
    _ritz: list = field(default=None, init=False, repr=False)

    @property
    def k_eff(self):
        """Lanczos steps run, summed over the columns."""
        return int(np.sum(self.steps))

    def tridiagonal(self):
        """The tridiagonal matrix of the first column's run, steps[0] on a side."""
        s = self.steps[0]
        return _tridiagonals(self.alpha[:s, :1], self.beta[: s - 1, :1])[0]

    def _ritz_pairs(self):
        """The eigendecompositions of the tridiagonals, computed once.

        A list of ``(idx, eigvals, eigvecs)``, one per distinct step count s:
        the columns ``idx`` that ran s steps, their (g, s) Ritz values and
        (g, s, s) eigenvectors.
        """
        if self._ritz is None:
            self._ritz = []
            for s in np.unique(self.steps):
                idx = np.flatnonzero(self.steps == s)
                eigvals, eigvecs = np.linalg.eigh(
                    _tridiagonals(self.alpha[:s, idx], self.beta[: s - 1, idx])
                )
                self._ritz.append((idx, eigvals, eigvecs))
        return self._ritz

    def quadform_log(self):
        """||v_j||^2 * e_1^T log(T_j) e_1, one value per column j."""
        values = np.empty(self.steps.shape[0])
        for idx, eigvals, eigvecs in self._ritz_pairs():
            if np.any(eigvals <= 0.0):
                bad = float(eigvals.min())
                raise NumericalError(
                    f"log quadrature hit a non-positive Ritz value {bad:.6e}; "
                    "the operator is not positive definite at this accuracy"
                )
            weights = eigvecs[:, 0, :] ** 2
            values[idx] = np.einsum("gk,gk->g", weights, np.log(eigvals))
        return values * self.vnorm**2

    def _coefficient_adjoints(self, weights):
        """d(sum_j weights_j quadform_log()_j) / d(alpha, beta), shaped as they are.

        For T = V diag(lam) V^T with z its first row of V, the derivative of
        e_1^T log(T) e_1 along dT is <G, dT> with the Daleckii-Krein matrix
        G = V ((z z^T) o L) V^T, L the divided differences of log at lam.
        """
        scale = weights * self.vnorm**2
        a_bar = np.zeros_like(self.alpha)
        b_bar = np.zeros_like(self.beta)
        for idx, eigvals, eigvecs in self._ritz_pairs():
            s = eigvals.shape[1]
            z = eigvecs[:, 0, :]
            inner = z[:, :, None] * z[:, None, :] * _log_divided_differences(eigvals)
            g = eigvecs @ inner @ eigvecs.transpose(0, 2, 1)
            a_bar[:s, idx] = (np.diagonal(g, axis1=1, axis2=2) * scale[idx, None]).T
            off = np.arange(s - 1)
            b_bar[: s - 1, idx] = (2.0 * g[:, off, off + 1] * scale[idx, None]).T
        return a_bar, b_bar

    def quadform_log_adjoint(self, op, weights):
        """Reverse pass through the run: adjoint vectors for the quadratic forms.

        ``op`` is the operator the run was built from and ``weights`` an (n,)
        array.  Returns ``u_bar``, shaped like ``basis``, such that the
        derivative of ``sum_j weights_j * quadform_log()_j`` along a
        symmetric perturbation dM of the operator is

            sum_{j,i} u_bar[j, i] . (dM basis[j, i]),

        exact to roundoff (at full depth, the Daleckii-Krein derivative of
        v^T log(M) v).  Each column runs back over its own steps only.  The
        operator is applied once per step after the first to the columns in
        their run; M q_i itself comes back from the three-term relation.

        The forward pass re-orthogonalizes each residual r_i against
        q_0..q_i, and its adjoint is kept in full: each step projects r_i's
        adjoint against q_0..q_i, and the coefficients that projection
        removes, times beta_i, return to the adjoints of q_0..q_i along
        q_{i+1}.  Without the projection the adjoint recurrence is unstable.
        The returns are applied lazily: ``coef[:, j, l] = coef[:, l, j]``
        holds q_j . h_l for j <= l, with h_l the adjoint of q_l before its
        returns, so one batched product with the basis per step applies a
        projection and every return owed to that step's q at once.
        """
        basis, alpha, beta, steps = self.basis, self.alpha, self.beta, self.steps
        n, _, m = basis.shape
        k = int(steps.max())  # rows past the deepest column's steps are zero
        a_bar, b_bar = self._coefficient_adjoints(np.asarray(weights, dtype=float))
        # columns that stopped at step i+1 or before have beta_i = 0 and no r_i
        inv_beta = 1.0 / np.where(beta == 0.0, 1.0, beta)
        # a_bar_i M q_i = a_bar_i (beta_{i-1} q_{i-1} + alpha_i q_i + beta_i q_{i+1})
        beta_pad = np.concatenate([np.zeros((1, n)), beta, np.zeros((1, n))])
        op_q = np.stack([beta_pad[:-1], alpha, beta_pad[1:]], axis=2) * a_bar[:, :, None]
        u_bar = np.zeros_like(basis)
        coef = np.zeros((n, k, k))
        h = carry = r_bar = np.zeros((n, m))
        for i in range(k - 1, -1, -1):
            if i < k - 1:
                # r_i's adjoint from q_{i+1} = r_i / beta_i, beta_i = ||r_i||,
                # projected against q_0..q_i
                d = (basis[:, : i + 2] @ h[:, :, None])[:, :, 0]
                coef[:, : i + 2, i + 1] = d
                coef[:, i + 1, : i + 2] = d
                r_bar = h - (coef[:, i + 1, None, :] @ basis[:, :k])[:, 0]
                r_bar *= inv_beta[i][:, None]
                r_bar += b_bar[i][:, None] * basis[:, i + 1]
            u = r_bar + a_bar[i][:, None] * basis[:, i]
            u_bar[:, i] = u
            if i == 0:
                break  # q_0 is the normalized start: nothing reads its adjoint
            live = steps > i
            op_u = np.zeros((n, m))
            op_u[live] = op.matmat(u[live].T).T
            if i == k - 1:
                h = 2.0 * op_u  # u = a_bar q: alpha's q^T (M q), and M q
            else:
                h = carry - alpha[i][:, None] * r_bar + op_u
                h += (op_q[i][:, None, :] @ basis[:, i - 1 : i + 2])[:, 0]
            carry = -beta[i - 1][:, None] * r_bar
        return u_bar


def _log_divided_differences(lam):
    """(g, s, s) first divided differences of log at each row of ``lam``.

    (log a - log b) / (a - b), as log1p((a - b) / b) / (a - b) so that
    nearby values keep their digits, and 1/b where a == b.
    """
    a = lam[:, :, None]
    b = lam[:, None, :]
    diff = a - b
    same = diff == 0.0
    safe = np.where(same, 1.0, diff)
    return np.where(same, 1.0 / b, np.log1p(safe / b) / safe)


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
