"""Preconditioned conjugate gradients, for one right-hand side or a block."""

from dataclasses import dataclass

import numpy as np

from .operators import NumericalError

__all__ = ["PcgResult", "pcg_solve"]


def _columnwise(op, v):
    """The apply and the per-column inner product for a vector or a block.

    A vector ``(m,)`` gets ``op.matvec`` and ``np.dot``; a block ``(m, n)``
    gets ``op.matmat`` and the n column inner products.
    """
    if v.ndim == 1:
        return op.matvec, np.dot
    return op.matmat, lambda u, w: np.einsum("ij,ij->j", u, w)


@dataclass
class PcgResult:
    """Solution and convergence record of :func:`pcg_solve`.

    For a block of right-hand sides ``x`` is a block, ``iterations`` the sum
    of the per-column iteration counts (which is the number of operator
    applications from a zero initial guess), ``converged`` whether every
    column converged, and ``relres`` the array of per-column final relative
    residuals.
    """

    x: np.ndarray
    iterations: int
    converged: bool
    relres: float


def pcg_solve(op, rhs, pre=None, tol=1e-8, maxit=500, x0=None):
    """Solve ``op @ x = rhs`` for SPD ``op`` by preconditioned CG.

    ``rhs`` is a vector ``(m,)`` or a block ``(m, n)``.  A block runs one CG
    recurrence per column, each with its own coefficients and its own
    convergence test, and applies the operator once per step to the columns
    that have not yet converged, through ``op.matmat``.  A vector keeps
    one-dimensional arrays and ``op.matvec``.

    Parameters
    ----------
    op : SymOp
        SPD operator (applications counted by the operator).
    rhs : array
    pre : preconditioner or None
        Object with ``apply_inverse(v)`` accepting a vector or a block;
        ``None`` means no preconditioning.
    tol : float
        Column j has converged when ||rhs_j - op x_j|| <= tol * ||rhs_j||.
    maxit : int
        Iteration limit per column.
    x0 : array or None
        Initial guess, shaped like ``rhs`` (zero if omitted).  A zero
        right-hand side is solved by zero whatever the guess.

    Returns
    -------
    PcgResult
        Solution, iteration count, a ``converged`` flag (callers decide
        whether a non-converged solve is an error), and the final relative
        residual.  The steps run on the unconverged columns only; a
        column's solution, residual and step count are written to the
        result when it converges, and those of the columns still running
        when the loop ends (all converged, or ``maxit`` reached).
    """
    m = op.m
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != m:
        raise ValueError(f"rhs must have shape ({m},) or ({m}, n)")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if maxit < 1:
        raise ValueError("maxit must be positive")
    apply, dot = _columnwise(op, rhs)
    block = rhs.ndim == 2

    def precond(v):
        return pre.apply_inverse(v) if pre is not None else v

    bnorm = np.sqrt(dot(rhs, rhs))
    live = bnorm > 0.0
    relres = np.zeros(rhs.shape[1:])
    iters = np.zeros(rhs.shape[1:], dtype=int)
    x = np.zeros_like(rhs)
    r = rhs.copy()
    if x0 is not None and live.any():
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != rhs.shape:
            raise ValueError("x0 must have the shape of rhs")
        x = np.where(live, x0, 0.0)
        r = rhs - apply(x)
    relres[...] = np.sqrt(dot(r, r)) / np.where(live, bnorm, 1.0)

    # ``cols`` picks the unconverged columns of x and of the per-column
    # records; xw, r, p, rz and b hold those columns only, and a column's
    # records are written when it leaves them.  A vector is one column, and
    # its ``cols`` is ``...``.
    if block:
        cols = np.flatnonzero(relres > tol)
        xw, r, b = x[:, cols], r[:, cols], bnorm[cols]
        pending = cols.size > 0
    else:
        cols, xw, b = ..., x, bnorm
        pending = relres > tol
    if pending:
        z = precond(r)
        p = z.copy()
        rz = dot(r, z)
        for it in range(1, maxit + 1):
            ap = apply(p)
            pap = dot(p, ap)
            worst = pap.min() if block else pap
            if not 0.0 < worst < np.inf:
                raise NumericalError(
                    f"conjugate gradients hit a non-positive curvature {worst:.6e}; "
                    "operator is not positive definite"
                )
            alpha = rz / pap
            xw += alpha * p
            r = r - alpha * ap
            res = np.sqrt(dot(r, r)) / b
            done = res <= tol
            # scalar tests for a vector: array reductions cost more per step
            # than the arithmetic of a small solve
            if not block:
                if done:
                    break
            elif done.all():
                break
            elif done.any():
                left = cols[done]
                x[:, left], relres[left], iters[left] = xw[:, done], res[done], it
                keep = ~done
                cols, xw, r, p = cols[keep], xw[:, keep], r[:, keep], p[:, keep]
                rz, b = rz[keep], b[keep]
            z = precond(r)
            rz_new = dot(r, z)
            p = z + (rz_new / rz) * p
            rz = rz_new
        x[:, cols], relres[cols], iters[cols] = xw, res, it

    converged = bool((relres <= tol).all())
    if block:
        return PcgResult(x=x, iterations=int(iters.sum()), converged=converged, relres=relres)
    return PcgResult(x=x, iterations=int(iters), converged=converged, relres=float(relres))
