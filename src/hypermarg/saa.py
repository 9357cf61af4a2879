"""Fixed-sample minimization of the stochastic objective surface.

Freezing one probe block turns the stochastic log-determinant estimate into
a deterministic function

    F_hat(theta) = -log pi(theta)
        + 1/(2N) sum_i w_i^T log(Psi(theta)) w_i   (Lanczos quadrature)
        + 1/2 c(theta)^T Psi(theta)^{-1} c(theta),

uniformly close to F over the box once N is large enough; minimizing it
transfers near-optimality back to F.  The surface is smooth almost
everywhere, so one projected BFGS run in log theta (see
:func:`~hypermarg.mm.projected_gradient_min`), driven by the exact gradient
of F_hat, is the whole optimizer — every run with the same inputs retraces
the same arithmetic.

Each theta is evaluated once per run: the box minimizer's points carry
their evaluation, and the gradient at an accepted point is computed from
it (:func:`~hypermarg.objective.grad_F_slq`: a reverse pass through the
Lanczos run the value built, paired with dPsi/dtheta by the dense oracle's
algebra over the misfit solve and the dense A).  Armijo steps never
increase F_hat, and there is one record per iteration.  The box minimizer
backtracks from a trial point whose misfit solve raises
:class:`~hypermarg.operators.NumericalError`; at the start point the error
ends the run.
"""

import time
from dataclasses import dataclass

import numpy as np

from .mm import Point, box_start, projected_gradient_min
from .objective import eval_F_slq, grad_F_slq
from .probes import rademacher_probes

__all__ = ["SaaRecord", "SaaResult", "saa_optimize"]


@dataclass
class SaaRecord:
    theta: np.ndarray
    f_hat: float
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
    fn_evals: int  # thetas evaluated successfully, each once
    failed_trials: int  # line-search trial points whose evaluation raised
    records: list


def saa_optimize(
    problem,
    theta0=None,
    n_probes=24,
    k_steps=30,
    seed=0,
    max_iters=100,
    tol=1e-6,
    pcg_tol=1e-8,
    pcg_maxit=500,
):
    """Minimize the fixed-sample surface F_hat over the feasible box.

    One probe block is drawn up front from ``(seed, "probes", "saa")`` and
    never redrawn.  One projected BFGS run of at most ``max_iters``
    iterations minimizes it, leaving one record per iteration.  Gradients
    are exact gradients of F_hat (:func:`~hypermarg.objective.grad_F_slq`),
    computed from the accepted point's own Lanczos run and misfit solve, so
    the only linear algebra is Lanczos quadrature, its reverse pass, CG and
    one m x m x n product per gradient.
    ``fn_evals`` counts the thetas evaluated, each once, and
    ``failed_trials`` those whose evaluation raised.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be positive")
    theta = box_start(problem, theta0)
    k_steps = int(min(k_steps, problem.m))
    w = rademacher_probes(problem.m, n_probes, seed, "saa")

    done = [0, 0]  # successful evaluations, CG iterations

    def evaluate(th):
        res = eval_F_slq(
            problem, th, w, k_steps=k_steps, pcg_tol=pcg_tol, pcg_maxit=pcg_maxit
        )
        done[0] += 1
        done[1] += res.pcg_iterations
        return Point(th, res.value, None, lambda: grad_F_slq(problem, th, res))

    records = []
    mark = [time.perf_counter(), 0, 0]  # wall time, evaluations, CG iterations

    def record(point):
        now = time.perf_counter()
        records.append(
            SaaRecord(
                theta=point.theta.copy(),
                f_hat=point.value,
                fn_evals=done[0] - mark[1],
                pcg_iters=done[1] - mark[2],
                wall_time_s=now - mark[0],
                counters=problem.counters.snapshot(),
            )
        )
        mark[:] = [now, *done]

    inner = projected_gradient_min(
        evaluate, evaluate(theta), problem.box, max_iters=max_iters, tol=tol, callback=record
    )
    return SaaResult(
        theta=inner.point.theta,
        f_value=inner.point.value,
        converged=inner.converged,
        iterations=inner.iterations,
        fn_evals=done[0],
        failed_trials=inner.failed_trials,
        records=records,
    )
