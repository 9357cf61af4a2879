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
  pass through the run gives an m x m matrix X with the log-det part
  tr(dPsi_j X), and the rest is the oracle's ``dense_gradient`` with
  P = X + X^T in place of Psi^{-1}, over the dense A and the misfit solve.

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
    one Psi application per Lanczos step and probe, which pairs with each
    dPsi_j as tr(dPsi_j X), X the sum of the outer products of the run's
    basis and adjoint columns.  dPsi_j is symmetric, so that is
    1/2 <X + X^T, dPsi_j>, and the gradient is the dense oracle's
    (``dense_gradient``) with P = X + X^T, the misfit solve r and the
    dense A: one m x m x n product, and no Psi or A application past the
    reverse pass.  The misfit part is exact up to the solve's tolerance.
    """
    theta = np.asarray(theta, dtype=float)
    decomp = evaluation.decomp
    n = decomp.steps.shape[0]
    psi_op = build_psi(problem, theta)
    u_bar = decomp.quadform_log_adjoint(psi_op, np.full(n, 0.5 / n))
    # rows past a column's steps are zero in both blocks
    m = problem.m
    x = decomp.basis.reshape(-1, m).T @ u_bar.reshape(-1, m)
    return dense_gradient(
        problem, theta, psi_op.a_op.dense(), psi_op.q_op, evaluation.r, x + x.T
    )


def _derivative_ops(problem, theta):
    """dQ/dpsi_j (None where Q does not depend on psi_j) and dA/dy_i at theta."""
    psi_params, y = problem.split(theta)
    dq_ops = [None if b is None else b(psi_params) for b in problem.dq_builders]
    return dq_ops, [b(y) for b in problem.da_builders]


def _misfit_terms(problem, dq_ops, da_ops, r, s, q_s):
    """r^T dPsi_j r - 2 r^T dA_j mu_x, stacked over j, from s = A^T r and q_s = Q s.

    No m x m dPsi is formed:

        r^T A dQ A^T r = s^T dQ s,      r^T I r = r . r  at the noise variance,
        r^T (dA Q A^T + A Q dA^T) r - 2 r^T dA mu_x = 2 r^T dA (Q s - mu_x).

    The pairings s^T dQ s come from the operators' uncounted ``_pair``, each
    dA enters through one product with its CSR matrix, and ``q_s`` is read
    only when A depends on theta.
    """
    terms = np.zeros(problem.p)
    for j, dq_op in enumerate(dq_ops):
        if dq_op is not None:
            terms[j] += dq_op._pair(s, s)
        if j == problem.noise_index:
            terms[j] += float(r @ r)
    if da_ops:
        q_s = q_s - problem.mu_x
        for i, da in enumerate(da_ops):
            terms[problem.q_dim + i] = 2.0 * float(r @ (da.mat @ q_s))
    return terms


def dense_gradient(problem, theta, a, q_op, r, p_mat):
    """Gradient of  -log pi + 1/2 <P, Psi(theta)> + 1/2 c^T Psi^{-1} c  at theta.

    ``a`` is the dense A(y) at theta, ``q_op`` the Q(psi) operator there,
    applied through its uncounted ``_apply``, ``r`` the misfit solve
    Psi(theta)^{-1} c and ``P`` a symmetric m x m matrix.  With
    ``P = Psi(theta)^{-1}`` this is the gradient of F; with ``P`` the
    inverse at a frozen anchor it is the gradient of the MM majorant; with
    ``P = X + X^T``, X from a Lanczos reverse pass, it is saa's gradient
    (``grad_F_slq``).  No m x m dPsi and no dense Q, dQ or dA is formed,
    and P A is the only cubic product.  The misfit part is
    ``_misfit_terms`` with s = A^T r; the trace part is

        <P, A dQ A^T> = <P A, (dQ A^T)^T>,      <P, I> = trace P,
        <P, dA Q A^T + A Q dA^T> = 2 <P A Q, dA> = 2 sum_e dA_e (P A Q)_e,

    where the pairings <u, v dQ> and the entries of P A Q come from the
    operators' uncounted ``_pair`` and ``_take`` (a scaled identity forms no
    product), and the sum over e runs over the stored entries of dA's CSR
    matrix, at their ``flat_positions``.  Each dA is built once and enters
    through two O(nnz) passes: a gather of P A Q, shared by the dA's of one
    structure, and one CSR matvec.  Nothing is charged to the matvec ledger.
    """
    dq_ops, da_ops = _derivative_ops(problem, theta)
    s = a.T @ r
    p_a = p_mat @ a

    trace_terms = np.zeros(problem.p)
    for j, dq_op in enumerate(dq_ops):
        if dq_op is not None:
            trace_terms[j] += dq_op._pair(p_a, a)
        if j == problem.noise_index:
            trace_terms[j] += float(np.trace(p_mat))
    q_s = None
    if da_ops:
        # P A Q at the stored entries of each distinct dA structure, from one
        # product with Q; the dA's of one stencil share their structure
        structures = {id(da.flat_positions): da.flat_positions for da in da_ops}
        p_a_q = dict(zip(structures, q_op._take(p_a, structures.values())))
        for i, da in enumerate(da_ops):
            trace_terms[problem.q_dim + i] = 2.0 * float(
                da.mat.data @ p_a_q[id(da.flat_positions)]
            )
        q_s = q_op._apply(s)
    misfit_terms = _misfit_terms(problem, dq_ops, da_ops, r, s, q_s)
    grad = problem.prior.grad_neglog(theta)
    grad += 0.5 * trace_terms - 0.5 * misfit_terms
    return grad


def grad_F_exact(problem, theta):
    """Exact gradient by dense algebra (oracle path)."""
    theta = np.asarray(theta, dtype=float)
    pieces = dense_objective_pieces(problem, theta)
    return dense_gradient(
        problem, theta, pieces.a, pieces.q_op, pieces.r, pieces.inverse()
    )


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
