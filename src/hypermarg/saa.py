"""Fixed-sample minimization of the stochastic objective surface.

Freezing one probe block turns the stochastic log-determinant estimate into
a deterministic function

    F_hat(theta) = -log pi(theta)
        + 1/(2N) sum_i w_i^T log(Psi(theta)) w_i   (Lanczos quadrature)
        + 1/2 c(theta)^T Psi(theta)^{-1} c(theta),

uniformly close to F over the box once N is large enough; minimizing it
transfers near-optimality back to F.  The surface is smooth almost
everywhere, so a projected-gradient loop driven by finite differences of
F_hat is the whole optimizer — every run with the same inputs retraces the
same arithmetic.

The loop restarts every ``segment_iters`` steps, one record per segment, on
the same surface throughout.  Each theta is evaluated once per run: a
finite-difference base point the line search has just accepted, or a
segment restart at the last iterate, reads the value already computed.
Armijo steps never increase F_hat, so the returned value is the last
segment's.  A trial point whose misfit solve does not converge has
F_hat = inf, so the line search backtracks from it; at the start point, or
next to the iterate in a finite difference, the failure raises
:class:`~hypermarg.operators.NumericalError`.
"""

import time
from dataclasses import dataclass

import numpy as np

from .mm import box_start, projected_gradient_min
from .objective import eval_F_slq, grad_fd
from .operators import NumericalError
from .probes import rademacher_probes

__all__ = ["SaaRecord", "SaaResult", "saa_optimize"]


@dataclass
class SaaRecord:
    segment: int
    theta: np.ndarray
    f_hat: float
    iterations: int
    fn_evals: int
    pcg_iters: int
    wall_time_s: float
    counters: dict


@dataclass
class SaaResult:
    theta: np.ndarray
    f_value: float  # F_hat at the returned point
    converged: bool
    iterations: int
    fn_evals: int
    records: list


def saa_optimize(
    problem,
    theta0=None,
    n_probes=24,
    k_steps=30,
    seed=0,
    max_iters=100,
    segment_iters=10,
    tol=1e-6,
    grad_eps=1e-6,
    pcg_tol=1e-8,
    pcg_maxit=500,
    callback=None,
):
    """Minimize the fixed-sample surface F_hat over the feasible box.

    One probe block is drawn up front from ``(seed, "probes", "saa")`` and
    never redrawn.  The loop runs in segments of ``segment_iters``
    projected-gradient steps, each restarting from the last iterate.
    Gradients are forward differences of F_hat, so the only linear algebra
    is Lanczos quadrature and CG.  ``fn_evals`` counts distinct thetas.
    """
    if max_iters < 1 or segment_iters < 1:
        raise ValueError("max_iters and segment_iters must be positive")
    theta = box_start(problem, theta0)
    k_steps = int(min(k_steps, problem.m))
    probes = rademacher_probes(problem.m, n_probes, seed, "saa")

    seen = {}  # F_hat by theta.tobytes(); its size is the evaluation count
    pcg_iters = [0]

    def fhat(th):
        key = th.tobytes()
        if key not in seen:
            try:
                res = eval_F_slq(
                    problem,
                    th,
                    probes,
                    k_steps=k_steps,
                    pcg_tol=pcg_tol,
                    pcg_maxit=pcg_maxit,
                )
            except NumericalError:
                if not seen:  # the start point
                    raise
                seen[key] = np.inf
            else:
                pcg_iters[0] += res.pcg_iterations
                seen[key] = res.value
        return seen[key]

    def grad(th):
        g = grad_fd(fhat, th, problem.box, eps_rel=grad_eps)
        if not np.all(np.isfinite(g)):
            raise NumericalError(
                f"finite-difference gradient at theta={th} is not finite: "
                "the misfit solve failed at a neighbouring point"
            )
        return g

    records = []
    total_iters = 0
    converged = False
    while total_iters < max_iters and not converged:
        t0 = time.perf_counter()
        evals_start, pcg_start = len(seen), pcg_iters[0]
        inner = projected_gradient_min(
            fhat,
            grad,
            theta,
            problem.box,
            max_iters=min(segment_iters, max_iters - total_iters),
            tol=tol,
        )
        theta = inner.theta
        total_iters += inner.iterations
        converged = inner.converged
        records.append(
            SaaRecord(
                segment=len(records),
                theta=theta.copy(),
                f_hat=inner.value,
                iterations=inner.iterations,
                fn_evals=len(seen) - evals_start,
                pcg_iters=pcg_iters[0] - pcg_start,
                wall_time_s=time.perf_counter() - t0,
                counters=problem.counters.snapshot(),
            )
        )
        if callback is not None:
            callback(records[-1])

    return SaaResult(
        theta=theta,
        f_value=records[-1].f_hat,
        converged=converged,
        iterations=total_iters,
        fn_evals=len(seen),
        records=records,
    )
