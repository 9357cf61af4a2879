"""The marginal-likelihood objective: exact, stochastic, and gradient forms.

The objective being minimized over theta (up to additive constants) is

    F(theta) = -log pi(theta) + (1/2) log det Psi(theta)
             + (1/2) (A mu_x - b)^T Psi(theta)^{-1} (A mu_x - b).

Two evaluation routes are provided and cross-validated against one another
by the test-suite:

* ``eval_F_exact`` / ``grad_F_exact``  —  dense algebra, the oracle.  Both
  read a :class:`DensePieces` (dense A and Psi, one Cholesky factor of Psi
  and the misfit solve), so a value and a gradient at the same theta share
  one factorization; the gradient is ``dense_gradient``, which the exact MM
  majorant reuses with the anchor's Psi^{-1} in place of Psi(theta)^{-1}.
  Only A is densified: Q, dQ and dA act through their own uncounted
  ``_apply`` or their sparse entries.  A value costs one gemm for Psi and
  one Cholesky factorization; a gradient costs one gemm (P A), plus one
  product of each dense Q or dQ with an m-row block (a scaled identity
  forms none).  Each dA is built once per gradient and costs two O(nnz)
  passes, a gather and a CSR matvec; all else is O(m^2) or vector work;
* ``eval_F_slq`` / ``grad_F_slq``  —  log det replaced by stochastic
  Lanczos quadrature on Psi over a fixed probe set (the sample-average
  surface the fixed-sample optimizer minimizes), one Lanczos run over the
  whole probe block, misfit solved by CG.  The evaluation keeps its Lanczos
  run, and the gradient is the exact gradient of that surface: a reverse
  pass through the run for the log-det part, and the misfit solve for the
  rest.

``psi_preconditioner`` builds the Nystrom CG preconditioner for Psi, with the
noise variance sigma^2 as its known shift.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .lanczos import LanczosDecomp, lanczos_decompose
from .model import build_psi
from .nystrom import nystrom_preconditioner
from .operators import DENSE_LIMIT, NumericalError
from .pcg import pcg_solve

__all__ = [
    "DensePieces",
    "ObjectiveEval",
    "eval_F_exact",
    "eval_F_slq",
    "grad_F_exact",
    "grad_F_slq",
    "psi_preconditioner",
    "dense_gradient",
    "dense_objective_pieces",
]


@dataclass
class ObjectiveEval:
    """One objective evaluation, with the pieces kept separate.

    ``value = prior_part + 0.5 * logdet_part + 0.5 * misfit`` holds to
    roundoff; ``r`` is the solved residual Psi^{-1}(A mu_x - b) for reuse in
    gradients; ``pcg_iterations`` is 0 on dense paths.  ``decomp`` is the
    SLQ route's Lanczos run, which its gradient reads, and None on dense
    paths.
    """

    value: float
    r: np.ndarray
    misfit: float
    logdet_part: float
    prior_part: float
    pcg_iterations: int
    decomp: LanczosDecomp = None


@dataclass
class DensePieces:
    """The dense oracle's quantities at one theta, sharing one factorization.

    ``a`` is the dense A(y) and ``q_op`` the Q(psi) operator, applied through
    its uncounted ``_apply``; ``psi = A Q A^T + sigma^2 I``, ``chol`` its
    lower Cholesky factor, ``c = A mu_x - b`` the residual offset and
    ``r = Psi^{-1} c``.  ``Psi^{-1}`` itself is formed from the factor on
    first request and kept.
    """

    theta: np.ndarray
    a: np.ndarray
    q_op: object
    psi: np.ndarray
    chol: np.ndarray
    c: np.ndarray
    r: np.ndarray
    _inverse: np.ndarray = field(default=None, repr=False)

    def logdet(self):
        return 2.0 * float(np.sum(np.log(np.diag(self.chol))))

    def inverse(self):
        """Psi^{-1} = L^{-T} L^{-1}, exactly symmetric."""
        if self._inverse is None:
            l_inv = np.linalg.inv(self.chol)
            self._inverse = l_inv.T @ l_inv
        return self._inverse

    def check_theta(self, theta):
        if not np.array_equal(self.theta, theta):
            raise ValueError("dense pieces were built at a different theta")


def _pieces_at(problem, theta, pieces):
    """``pieces`` if it was built at ``theta``, else the dense pieces built there."""
    if pieces is None:
        pieces = dense_objective_pieces(problem, theta)
    pieces.check_theta(theta)
    return pieces


def dense_objective_pieces(problem, theta):
    """Dense A and Psi, the Cholesky factor of Psi, and the misfit solve.

    The package's only dense Psi and dense factorization: every exact
    objective, gradient, majorant and spectral-constant path reads one
    :class:`DensePieces`.  Psi is ``A (Q A^T)`` with Q applied to the block
    A^T, one gemm, and sigma^2 added on its diagonal; c is formed from the
    dense A too, so the oracle charges nothing to the matvec ledger.  The
    factorization is LAPACK ``potrf`` through ``numpy.linalg``, the library
    that also does the product (scipy's own LAPACK contends with numpy's
    BLAS threads); a failed factorization raises :class:`NumericalError`.
    """
    if problem.m > DENSE_LIMIT:
        raise ValueError(
            f"dense objective path refused: m={problem.m} exceeds {DENSE_LIMIT}"
        )
    theta = np.array(theta, dtype=float)
    psi_op = build_psi(problem, theta)
    a = psi_op.a_op.dense()
    psi = a @ psi_op.q_op._apply(a.T)
    # sigma^2 onto the diagonal through its flat stride: no index arrays
    diagonal = psi.reshape(-1)[:: psi.shape[0] + 1]
    diagonal += psi_op.r_op.scale
    try:
        chol = np.linalg.cholesky(psi)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"dense Psi factorization failed: {exc}") from None
    c = a @ problem.mu_x - problem.b
    half = scipy.linalg.solve_triangular(chol, c, lower=True, check_finite=False)
    r = scipy.linalg.solve_triangular(
        chol, half, lower=True, trans="T", check_finite=False
    )
    return DensePieces(
        theta=theta, a=a, q_op=psi_op.q_op, psi=psi, chol=chol, c=c, r=r
    )


def eval_F_exact(problem, theta, pieces=None):
    """Exact objective by dense factorization (oracle path, m small).

    ``pieces`` may carry the :class:`DensePieces` already built at ``theta``.
    """
    theta = np.asarray(theta, dtype=float)
    pieces = _pieces_at(problem, theta, pieces)
    logdet = pieces.logdet()
    misfit = float(np.dot(pieces.c, pieces.r))
    prior = problem.prior.neglog(theta)
    return ObjectiveEval(
        value=prior + 0.5 * logdet + 0.5 * misfit,
        r=pieces.r,
        misfit=misfit,
        logdet_part=logdet,
        prior_part=prior,
        pcg_iterations=0,
    )


def eval_F_slq(problem, theta, w, k_steps, pcg_tol=1e-8, pcg_maxit=500):
    """Sample-average objective: SLQ log-determinant plus CG misfit.

    Deterministic given (problem, theta, w, k_steps), with ``w`` the (m, N)
    probe block: the log-determinant is ``mean_i w_i^T log(Psi) w_i``, from
    one column-batched Lanczos call over all its columns.  A misfit solve
    that does not converge within ``pcg_maxit`` raises
    :class:`NumericalError`.
    """
    theta = np.asarray(theta, dtype=float)
    if w.shape[0] != problem.m:
        raise ValueError(
            f"probe dimension {w.shape[0]} does not match problem dimension {problem.m}"
        )
    psi_op = build_psi(problem, theta)
    decomp = lanczos_decompose(psi_op, w, k_steps)
    logdet_part = float(np.mean(decomp.quadform_log()))

    c = problem.residual_offset(theta)
    res = pcg_solve(psi_op, c, tol=pcg_tol, maxit=pcg_maxit)
    if not res.converged:
        raise NumericalError(
            f"misfit solve stalled at relative residual {res.relres:.3e} "
            f"after {pcg_maxit} iterations"
        )
    misfit = float(np.dot(c, res.x))
    prior = problem.prior.neglog(theta)

    return ObjectiveEval(
        value=prior + 0.5 * logdet_part + 0.5 * misfit,
        r=res.x,
        misfit=misfit,
        logdet_part=logdet_part,
        prior_part=prior,
        pcg_iterations=res.iterations,
        decomp=decomp,
    )


def grad_F_slq(problem, theta, evaluation):
    """Exact gradient of the sample-average surface at theta.

    ``evaluation`` is ``eval_F_slq``'s at theta; its Lanczos run and misfit
    solve are reused, so no forward pass is repeated.  The log-det part is
    the run's reverse pass (``LanczosDecomp.quadform_log_adjoint``), about
    one Psi application per Lanczos step and probe; the misfit part is
    -1/2 r^T dPsi_j r + r^T dA_j mu_x, the algebra of the sampled majorant's
    gradient.  Both pair with dPsi/dtheta in one ``apply_all`` call over
    the m columns of the sum of their outer products.  The misfit part is
    exact up to the solve's tolerance.
    """
    theta = np.asarray(theta, dtype=float)
    decomp, r = evaluation.decomp, evaluation.r
    n = decomp.steps.shape[0]
    u_bar = decomp.quadform_log_adjoint(build_psi(problem, theta), np.full(n, 0.5 / n))
    # the log-det and misfit parts are sum left^T dPsi right over the pairs
    # (u_bar, q), over the run's steps, and (-r/2, r); that is tr(dPsi X),
    # X the sum of the outer products right left^T (rows past a column's
    # steps are zero), paired over X's m columns
    m = problem.m
    x = decomp.basis.reshape(-1, m).T @ u_bar.reshape(-1, m)
    x -= 0.5 * np.outer(r, r)
    actions = _DerivativeActions(problem, theta)
    terms = np.trace(actions.apply_all(x), axis1=1, axis2=2)
    grad = problem.prior.grad_neglog(theta) + terms
    da_mu = actions.forward_deriv_mu()
    if da_mu is not None:
        grad[problem.q_dim :] += da_mu @ r
    return grad


def _deriv_builders(problem):
    """Validate derivative-builder bookkeeping; None entries mean 'zero'."""
    if len(problem.dq_builders) != problem.q_dim:
        raise ValueError("problem must supply one dQ builder slot per psi component")
    if len(problem.da_builders) != problem.ell:
        raise ValueError("problem must supply one dA builder per forward-map component")
    for j, builder in enumerate(problem.da_builders):
        if builder is None:
            raise ValueError(f"derivative builder for forward-map component {j} is missing")


class _DerivativeActions:
    """Applies dPsi/dtheta_j to vectors, sharing the A^T / Q A^T legs."""

    def __init__(self, problem, theta):
        _deriv_builders(problem)
        psi_params, y = problem.split(theta)
        self.problem = problem
        self.a_op = problem.build_a(y)
        # only the dA terms apply Q
        self.q_op = problem.build_q(psi_params) if problem.ell else None
        self.dq_ops = [
            None if b is None else b(psi_params) for b in problem.dq_builders
        ]
        self.da_ops = [b(y) for b in problem.da_builders]

    def apply_all(self, v):
        """dPsi/dtheta_j applied to v, stacked over j.

        ``v`` is a vector ``(m,)``, giving a ``(p, m)`` array, or a block
        ``(m, n)``, giving ``(p, m, n)``.  Either way the operators are
        applied through ``matmat``/``rmatmat``, which charge one
        application per column.
        """
        problem = self.problem
        v = np.asarray(v, dtype=float)
        block = v if v.ndim == 2 else v[:, None]
        a_op, q_op = self.a_op, self.q_op
        out = np.zeros((problem.p,) + block.shape)
        at_v = a_op.rmatmat(block)
        for j in range(problem.q_dim):
            if self.dq_ops[j] is not None:
                out[j] += a_op.matmat(self.dq_ops[j].matmat(at_v))
        if problem.noise_index is not None:
            out[problem.noise_index] += block
        if problem.ell:
            q_at_v = q_op.matmat(at_v)
            for i, da_op in enumerate(self.da_ops):
                out[problem.q_dim + i] = da_op.matmat(q_at_v) + a_op.matmat(
                    q_op.matmat(da_op.rmatmat(block))
                )
        return out if v.ndim == 2 else out[..., 0]

    def forward_deriv_mu(self):
        """(ell, m) array of (dA/dy_j) mu_x, or None when mu_x = 0."""
        problem = self.problem
        if not problem.ell or not np.any(problem.mu_x != 0.0):
            return None
        return np.array([da.matvec(problem.mu_x) for da in self.da_ops])


def dense_gradient(problem, pieces, p_mat):
    """Gradient of  -log pi + 1/2 <P, Psi(theta)> + 1/2 c^T Psi^{-1} c  at pieces.theta.

    With ``P = Psi(theta)^{-1}`` this is the gradient of F; with ``P`` the
    inverse at a frozen anchor it is the gradient of the MM majorant.  No
    m x m dPsi and no dense Q, dQ or dA is formed, and P A is the only cubic
    product: with s = A^T r,

        <P, A dQ A^T> = <P A, (dQ A^T)^T>,      r^T A dQ A^T r = s^T dQ s,
        <P, dA Q A^T + A Q dA^T> = 2 <P A Q, dA> = 2 sum_e dA_e (P A Q)_e,
        r^T (dA Q A^T + A Q dA^T) r - 2 r^T dA mu_x = 2 r^T dA (Q s - mu_x),
        <P, I> = trace P,  r^T I r = r . r  at the noise-variance component,

    where the pairings <u, v dQ> and the entries of P A Q come from the
    operators' uncounted ``_pair`` and ``_take`` (a scaled identity forms no
    product), and the sum over e runs over the stored entries of dA's CSR
    matrix, at their ``flat_positions``.  Each dA is built once and enters
    through two O(nnz) passes: a gather of P A Q, shared by the dA's of one
    structure, and one CSR matvec.
    """
    _deriv_builders(problem)
    psi_params, y = problem.split(pieces.theta)
    a, q_op, r = pieces.a, pieces.q_op, pieces.r
    s = a.T @ r
    p_a = p_mat @ a
    grad = problem.prior.grad_neglog(pieces.theta)

    for j in range(problem.q_dim):
        trace_term = misfit_term = 0.0
        if problem.dq_builders[j] is not None:
            dq_op = problem.dq_builders[j](psi_params)
            trace_term += dq_op._pair(p_a, a)
            misfit_term += dq_op._pair(s, s)
        if j == problem.noise_index:
            trace_term += float(np.trace(p_mat))
            misfit_term += float(r @ r)
        grad[j] += 0.5 * trace_term - 0.5 * misfit_term

    if problem.ell:
        da_ops = [builder(y) for builder in problem.da_builders]
        # P A Q at the stored entries of each distinct dA structure, from one
        # product with Q; the dA's of one stencil share their structure
        structures = {id(da.flat_positions): da.flat_positions for da in da_ops}
        p_a_q = dict(zip(structures, q_op._take(p_a, structures.values())))
        q_s = q_op._apply(s) - problem.mu_x
        for i, da in enumerate(da_ops):
            trace_term = 2.0 * float(da.mat.data @ p_a_q[id(da.flat_positions)])
            misfit_term = 2.0 * float(r @ (da.mat @ q_s))
            grad[problem.q_dim + i] += 0.5 * trace_term - 0.5 * misfit_term

    return grad


def grad_F_exact(problem, theta):
    """Exact gradient by dense algebra (oracle path)."""
    theta = np.asarray(theta, dtype=float)
    pieces = dense_objective_pieces(problem, theta)
    return dense_gradient(problem, pieces, pieces.inverse())


# rank of the Nystrom preconditioner for Psi, capped at m.  A Q A^T has rank
# at most n, so at tomo s=8 (n = 64) rank 64 captures it exactly.  Of ranks
# 32, 64, 128 and 256 it also ran default m3c on deblur and superres s=16
# fastest or tied: a higher rank saves PCG steps but makes each one dearer.
PRECOND_RANK = 64


def psi_preconditioner(problem, theta, seed=0):
    """The rank-min(PRECOND_RANK, m) Nystrom preconditioner for Psi(theta).

    The noise variance is its shift.
    """
    psi_op = build_psi(problem, np.asarray(theta, dtype=float))
    rank = min(PRECOND_RANK, problem.m)
    return nystrom_preconditioner(psi_op, psi_op.r_op.scale, rank, seed)
