"""Dense reference for the benchmark's output checks.

Independent of the program's dense oracle (``objective.dense_objective_pieces``
and friends): Psi(theta) = A Q A^T + R is assembled column by column from
the operators' own ``matvec``/``rmatvec`` applied to unit vectors, then

    F(theta) = -log pi(theta) + 1/2 log det Psi + 1/2 c^T Psi^{-1} c,
    c = A mu_x - b,

comes from ``numpy.linalg.slogdet`` and ``numpy.linalg.solve``, and the
posterior mean is mu_x + Q A^T Psi^{-1} (b - A mu_x).  Callers pass a problem
instance built for the oracle alone, so the applications made here never
reach the ledger of a timed run.
"""

import numpy as np


def dense_psi(problem, theta):
    """Psi(theta) from one A^T, Q, A and R application per unit vector."""
    psi, y = problem.split(theta)
    a_op = problem.build_a(y)
    q_op = problem.build_q(psi)
    r_op = problem.build_r(psi)
    cols = []
    for j in range(problem.m):
        e = np.zeros(problem.m)
        e[j] = 1.0
        cols.append(a_op.matvec(q_op.matvec(a_op.rmatvec(e))) + r_op.matvec(e))
    mat = np.column_stack(cols)
    return 0.5 * (mat + mat.T)


def _offset(problem, theta):
    _, y = problem.split(theta)
    return problem.build_a(y).matvec(problem.mu_x) - problem.b


def objective(problem, theta):
    """F(theta) by dense log-determinant and solve."""
    theta = np.asarray(theta, dtype=float)
    mat = dense_psi(problem, theta)
    sign, logdet = np.linalg.slogdet(mat)
    if sign <= 0:
        raise ValueError(f"Psi is not positive definite at theta={theta}")
    c = _offset(problem, theta)
    misfit = float(c @ np.linalg.solve(mat, c))
    return problem.prior.neglog(theta) + 0.5 * logdet + 0.5 * misfit


def posterior_mean(problem, theta):
    """x_hat(theta) = mu_x + Q A^T Psi^{-1} (b - A mu_x)."""
    theta = np.asarray(theta, dtype=float)
    psi, y = problem.split(theta)
    z = np.linalg.solve(dense_psi(problem, theta), -_offset(problem, theta))
    return problem.mu_x + problem.build_q(psi).matvec(problem.build_a(y).rmatvec(z))


def in_box(problem, theta):
    theta = np.asarray(theta, dtype=float)
    return bool(np.all(theta >= problem.box.lower) and np.all(theta <= problem.box.upper))


def minimize(problem, starts):
    """Smallest F found by L-BFGS-B over the box from each of ``starts``.

    Coordinates with a positive lower bound are searched in log scale, where
    the variance-like parameters (boxes spanning up to five decades) are
    well scaled.  Returns ``(theta_min, F_min)``; a start is itself a
    candidate, so F_min never exceeds F at any start.
    """
    # imported here so that the workload processes' set-up time does not
    # include a module the program itself never loads
    import scipy.optimize

    lower = np.asarray(problem.box.lower, dtype=float)
    upper = np.asarray(problem.box.upper, dtype=float)
    logc = lower > 0

    def to_u(theta):
        u = np.array(theta, dtype=float)
        u[logc] = np.log(u[logc])
        return u

    def to_theta(u):
        theta = np.array(u, dtype=float)
        theta[logc] = np.exp(theta[logc])
        return np.clip(theta, lower, upper)

    bounds = list(zip(to_u(lower), to_u(upper)))
    best_theta, best_f = None, np.inf
    for start in starts:
        start = np.clip(np.asarray(start, dtype=float), lower, upper)
        f0 = objective(problem, start)
        if f0 < best_f:
            best_theta, best_f = start, f0
        res = scipy.optimize.minimize(
            lambda u: objective(problem, to_theta(u)),
            to_u(start),
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": 200, "ftol": 1e-12, "gtol": 1e-8},
        )
        theta = to_theta(res.x)
        f = objective(problem, theta)
        if f < best_f:
            best_theta, best_f = theta, f
    return best_theta, best_f
