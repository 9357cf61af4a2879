"""The marginal-likelihood objective: exact, stochastic, and gradient forms.

The objective being minimized over theta (up to additive constants) is

    F(theta) = -log pi(theta) + (1/2) log det Psi(theta)
             + (1/2) (A mu_x - b)^T Psi(theta)^{-1} (A mu_x - b).

Three evaluation routes are provided and cross-validated against one another
by the test-suite:

* ``eval_F_exact`` / ``grad_F_exact``  —  dense algebra, the oracle.  Both
  read a :class:`DensePieces` (dense A, Q, Psi, one Cholesky factor of Psi
  and the misfit solve), so a value and a gradient at the same theta share
  one factorization; the gradient is ``dense_gradient``, which the exact MM
  majorant reuses with the anchor's Psi^{-1} in place of Psi(theta)^{-1};
* ``eval_F_slq``  —  log det replaced by stochastic Lanczos quadrature on
  Psi over a fixed probe set (the sample-average surface the fixed-sample
  optimizer minimizes), one Lanczos run over the whole probe block, misfit
  solved by CG;
* ``grad_fd``  —  forward finite differences of any scalar objective,
  bound-aware, used as the derivative-free fallback and the universal
  cross-check.

``psi_preconditioner`` builds the Nystrom CG preconditioner for Psi; it
needs a scaled-identity noise covariance, whose variance is the known shift.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .lanczos import lanczos_decompose
from .model import build_psi
from .nystrom import nystrom_preconditioner
from .operators import DENSE_LIMIT, NumericalError, ScaledIdentityOp
from .pcg import pcg_solve

__all__ = [
    "DensePieces",
    "ObjectiveEval",
    "eval_F_exact",
    "eval_F_slq",
    "grad_F_exact",
    "grad_fd",
    "psi_preconditioner",
    "dense_gradient",
    "dense_objective_pieces",
]


@dataclass
class ObjectiveEval:
    """One objective evaluation, with the pieces kept separate.

    ``value = prior_part + 0.5 * logdet_part + 0.5 * misfit`` holds to
    roundoff; ``r`` is the solved residual Psi^{-1}(A mu_x - b) for reuse in
    gradients; ``pcg_iterations`` is 0 on dense paths.
    """

    value: float
    r: np.ndarray
    misfit: float
    logdet_part: float
    prior_part: float
    pcg_iterations: int


@dataclass
class DensePieces:
    """The dense oracle's quantities at one theta, sharing one factorization.

    ``a`` and ``q`` are the dense A(y) and Q(psi), ``psi = A Q A^T + R``,
    ``chol`` its lower Cholesky factor, ``c = A mu_x - b`` the residual
    offset and ``r = Psi^{-1} c``.  ``Psi^{-1}`` itself is formed from the
    factor on first request and kept.
    """

    theta: np.ndarray
    a: np.ndarray
    q: np.ndarray
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


def dense_objective_pieces(problem, theta):
    """Dense A, Q, Psi, the Cholesky factor of Psi, and the misfit solve.

    Shared by every exact objective, gradient and majorant path, so one
    :class:`DensePieces` serves them all at the same theta.  The
    factorization is LAPACK ``potrf`` through ``numpy.linalg``, the library
    that also does the products; a failed factorization raises
    :class:`NumericalError`.
    """
    if problem.m > DENSE_LIMIT:
        raise ValueError(
            f"dense objective path refused: m={problem.m} exceeds {DENSE_LIMIT}"
        )
    theta = np.array(theta, dtype=float)
    psi_op = build_psi(problem, theta)
    a = psi_op.a_op.dense()
    q = psi_op.q_op.dense()
    psi = a @ q @ a.T + psi_op.r_op.dense()
    try:
        chol = np.linalg.cholesky(psi)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"dense Psi factorization failed: {exc}") from None
    c = problem.residual_offset(theta)
    half = scipy.linalg.solve_triangular(chol, c, lower=True, check_finite=False)
    r = scipy.linalg.solve_triangular(
        chol, half, lower=True, trans="T", check_finite=False
    )
    return DensePieces(theta=theta, a=a, q=q, psi=psi, chol=chol, c=c, r=r)


def eval_F_exact(problem, theta, pieces=None):
    """Exact objective by dense factorization (oracle path, m small).

    ``pieces`` may carry the :class:`DensePieces` already built at ``theta``.
    """
    theta = np.asarray(theta, dtype=float)
    if pieces is None:
        pieces = dense_objective_pieces(problem, theta)
    pieces.check_theta(theta)
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


def eval_F_slq(
    problem,
    theta,
    probes,
    k_steps,
    pcg_tol=1e-8,
    pcg_maxit=500,
):
    """Sample-average objective: SLQ log-determinant plus CG misfit.

    Deterministic given (problem, theta, probes, k_steps): the
    log-determinant is ``mean_i w_i^T log(Psi) w_i``, from one
    column-batched Lanczos call over all probes.  A misfit solve that does
    not converge within ``pcg_maxit`` raises :class:`NumericalError`.
    """
    theta = np.asarray(theta, dtype=float)
    if probes.m != problem.m:
        raise ValueError(
            f"probe dimension {probes.m} does not match problem dimension {problem.m}"
        )
    psi_op = build_psi(problem, theta)
    decomp = lanczos_decompose(psi_op, probes.w, k_steps)
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
    )


def _deriv_builders(problem):
    """Validate derivative-builder bookkeeping; None entries mean 'zero'."""
    if len(problem.dq_builders) != problem.q_dim or len(problem.dr_builders) != problem.q_dim:
        raise ValueError(
            "problem must supply one dQ and one dR builder slot per psi component"
        )
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
        self.q_op = problem.build_q(psi_params)
        self.dq_ops = [
            None if b is None else b(psi_params) for b in problem.dq_builders
        ]
        self.dr_ops = [
            None if b is None else b(psi_params) for b in problem.dr_builders
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
            if self.dr_ops[j] is not None:
                out[j] += self.dr_ops[j].matmat(block)
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
    m x m dPsi is formed: with s = A^T r,

        <P, A dQ A^T> = <A^T P A, dQ>,      r^T A dQ A^T r = s^T dQ s,
        <P, dA Q A^T + A Q dA^T> = 2 <P A Q, dA>,
        r^T (dA Q A^T + A Q dA^T) r = 2 (dA^T r) . (Q s).
    """
    _deriv_builders(problem)
    psi_params, y = problem.split(pieces.theta)
    a, q, r = pieces.a, pieces.q, pieces.r
    s = a.T @ r
    p_a = p_mat @ a
    grad = problem.prior.grad_neglog(pieces.theta)

    if any(b is not None for b in problem.dq_builders):
        a_p_a = a.T @ p_a
    for j in range(problem.q_dim):
        trace_term = misfit_term = 0.0
        if problem.dq_builders[j] is not None:
            dq = problem.dq_builders[j](psi_params).dense()
            trace_term += float(np.vdot(a_p_a, dq))
            misfit_term += float(s @ (dq @ s))
        if problem.dr_builders[j] is not None:
            dr = problem.dr_builders[j](psi_params).dense()
            trace_term += float(np.vdot(p_mat, dr))
            misfit_term += float(r @ (dr @ r))
        grad[j] += 0.5 * trace_term - 0.5 * misfit_term

    if problem.ell:
        p_a_q = p_a @ q
        q_s = q @ s
        mu_nonzero = bool(np.any(problem.mu_x != 0.0))
        for i in range(problem.ell):
            j = problem.q_dim + i
            da = problem.da_builders[i](y).dense()
            trace_term = 2.0 * float(np.vdot(p_a_q, da))
            misfit_term = 2.0 * float((da.T @ r) @ q_s)
            if mu_nonzero:
                misfit_term -= 2.0 * float(r @ (da @ problem.mu_x))
            grad[j] += 0.5 * trace_term - 0.5 * misfit_term

    return grad


def grad_F_exact(problem, theta, pieces=None):
    """Exact gradient by dense algebra (oracle path).

    ``pieces`` may carry the :class:`DensePieces` already built at ``theta``.
    """
    theta = np.asarray(theta, dtype=float)
    _deriv_builders(problem)
    if pieces is None:
        pieces = dense_objective_pieces(problem, theta)
    pieces.check_theta(theta)
    return dense_gradient(problem, pieces, pieces.inverse())


def grad_fd(f, theta, box, eps_rel=1e-6, scheme="forward"):
    """Finite-difference gradient of a scalar function, bound-aware.

    Step size h_j = eps_rel * max(1, |theta_j|).  ``scheme="forward"`` uses
    p+1 evaluations, stepping into whichever side of the box has more room;
    ``scheme="central"`` uses second-order differences wherever both sides
    have room and falls back to a one-sided step near a bound.  A box
    thinner than 2 h_j in any coordinate is an error either way.
    """
    theta = np.asarray(theta, dtype=float)
    p = theta.shape[0]
    if box.p != p:
        raise ValueError("box dimension does not match theta")
    if scheme not in ("forward", "central"):
        raise ValueError(f"unknown difference scheme {scheme!r}")
    h = eps_rel * np.maximum(1.0, np.abs(theta))
    if np.any(box.upper - box.lower < 2.0 * h):
        raise ValueError("box is thinner than twice the difference step in some coordinate")
    f0 = None
    grad = np.zeros(p)
    for j in range(p):
        step = np.zeros(p)
        room_up = box.upper[j] - theta[j]
        room_dn = theta[j] - box.lower[j]
        if scheme == "central" and room_up >= h[j] and room_dn >= h[j]:
            step[j] = h[j]
            grad[j] = (f(theta + step) - f(theta - step)) / (2.0 * h[j])
            continue
        if f0 is None:
            f0 = f(theta)
        sign = 1.0 if room_up >= room_dn else -1.0
        step[j] = sign * h[j]
        grad[j] = sign * (f(theta + step) - f0) / h[j]
    return grad


def psi_preconditioner(problem, theta, rank=20, seed=0):
    """The Nystrom preconditioner for Psi(theta), with the noise variance as its shift.

    The noise covariance must be a :class:`ScaledIdentityOp`; any other
    raises ``ValueError`` (such a problem runs unpreconditioned).
    """
    psi_op = build_psi(problem, np.asarray(theta, dtype=float))
    r_op = psi_op.r_op
    if not isinstance(r_op, ScaledIdentityOp):
        raise ValueError(
            "the Nystrom preconditioner needs a scaled-identity noise covariance, "
            f"got {type(r_op).__name__}; run with precond_rank=0"
        )
    return nystrom_preconditioner(psi_op, r_op.scale, int(min(rank, problem.m)), seed)
