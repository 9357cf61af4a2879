"""Majorize-minimize machinery for the marginal objective.

The log-determinant is concave, so linearizing it at an anchor theta_t gives
a majorant of F that is tangent at the anchor:

    G(theta | theta_t) = -log pi(theta)
        + 1/2 [ log det Psi_t - m + trace(Psi_t^{-1} Psi(theta)) ]
        + 1/2 c(theta)^T Psi(theta)^{-1} c(theta).

Minimizing G over the feasible box and re-anchoring drives F downhill
monotonically.  Matrix-free, the trace term is replaced by a Monte-Carlo
pairing of probes w_i with their anchor solves z_i = Psi_t^{-1} w_i:

    G_hat(theta) = -log pi(theta) + 1/(2N) sum_i z_i^T Psi(theta) w_i
                 + 1/2 c^T Psi(theta)^{-1} c,

which matches G in expectation up to the theta-independent constant
1/2 (log det Psi_t - m) and costs one Psi(theta) application per probe to
evaluate.  The anchor solves are paid once per outer iteration; the inner
minimizer then works against a fixed sample.

An audit step guards the stochastic chain: each proposed re-anchoring is
accepted only if an independent estimate of F actually decreased, otherwise
the anchor is kept and the probe budget is enlarged.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .model import build_psi
from .objective import (
    _DerivativeActions,
    _deriv_builders,
    dense_gradient,
    dense_objective_pieces,
    eval_F_exact,
    eval_F_slq,
    psi_preconditioner,
)
from .operators import DENSE_LIMIT, NumericalError
from .pcg import pcg_solve
from .probes import rademacher_probes

__all__ = [
    "InnerResult",
    "OuterRecord",
    "M3cResult",
    "StochasticSurrogate",
    "build_surrogate",
    "exact_surrogate",
    "exact_surrogate_grad",
    "projected_gradient_min",
    "mm_optimize_exact",
    "m3c_optimize",
]


# ---------------------------------------------------------------------------
# exact (dense) surrogate — the oracle the stochastic one is tested against


def _anchor_pieces(problem, theta_t, pieces=None):
    """``(log det Psi_t, Psi_t^{-1})`` at the anchor, from its dense pieces."""
    if pieces is None:
        pieces = dense_objective_pieces(problem, theta_t)
    pieces.check_theta(np.asarray(theta_t, dtype=float))
    return pieces.logdet(), pieces.inverse()


def exact_surrogate(problem, theta, theta_t, anchor=None, pieces=None):
    """Dense evaluation of the majorant G(theta | theta_t).

    ``anchor`` may carry the precomputed ``(logdet_t, psi_t_inv)`` pair to
    amortize repeated evaluations at one anchor; ``pieces`` may carry the
    :class:`~hypermarg.objective.DensePieces` already built at ``theta``.
    """
    theta = np.asarray(theta, dtype=float)
    logdet_t, psi_t_inv = anchor if anchor is not None else _anchor_pieces(problem, theta_t)
    if pieces is None:
        pieces = dense_objective_pieces(problem, theta)
    pieces.check_theta(theta)
    trace_term = float(np.vdot(psi_t_inv, pieces.psi))
    misfit = float(np.dot(pieces.c, pieces.r))
    return (
        problem.prior.neglog(theta)
        + 0.5 * (logdet_t - problem.m + trace_term)
        + 0.5 * misfit
    )


def exact_surrogate_grad(problem, theta, theta_t, anchor=None, pieces=None):
    """Dense gradient of the majorant in its first argument.

    The same computation as ``grad_F_exact`` with the anchor's Psi_t^{-1}
    in the trace terms; ``anchor`` and ``pieces`` as in ``exact_surrogate``.
    """
    theta = np.asarray(theta, dtype=float)
    _deriv_builders(problem)
    _, psi_t_inv = anchor if anchor is not None else _anchor_pieces(problem, theta_t)
    if pieces is None:
        pieces = dense_objective_pieces(problem, theta)
    pieces.check_theta(theta)
    return dense_gradient(problem, pieces, psi_t_inv)


# ---------------------------------------------------------------------------
# stochastic surrogate


@dataclass
class StochasticSurrogate:
    """The sampled majorant at one anchor, with its paired probe solves.

    ``value`` omits the anchor constant (log det Psi_t - m)/2, which is
    unavailable matrix-free; minimizers and differences are unaffected.
    """

    problem: object
    theta_t: np.ndarray
    probes: object
    z: np.ndarray  # (m, N) anchor solves Psi_t^{-1} W
    pre: object = None
    pcg_tol: float = 1e-8
    pcg_maxit: int = 500
    pcg_iters: int = 0  # accumulated over all evaluations
    failed_trials: int = 0  # trial points whose misfit solve failed
    _cache: dict = field(default_factory=dict, repr=False)

    def _solve_misfit(self, theta, psi_op=None):
        """``(c, r)`` with r = Psi(theta)^{-1} c, cached for the last theta.

        CG starts from the last solved ``r``; its stopping test is relative
        to ||c||, so the warm start changes the cost, not the tolerance.
        ``psi_op`` is built here when the cache misses and none is given.
        """
        key = theta.tobytes()
        if self._cache.get("key") == key:
            return self._cache["c"], self._cache["r"]
        if psi_op is None:
            psi_op = build_psi(self.problem, theta)
        c = self.problem.residual_offset(theta)
        res = pcg_solve(
            psi_op,
            c,
            pre=self.pre,
            tol=self.pcg_tol,
            maxit=self.pcg_maxit,
            x0=self._cache.get("r"),
        )
        self.pcg_iters += res.iterations
        if not res.converged:
            raise NumericalError(
                f"misfit solve stalled at relative residual {res.relres:.3e}"
            )
        self._cache.update(key=key, c=c, r=res.x)
        return c, res.x

    def value(self, theta):
        """G_hat(theta): one Psi(theta) application per probe, plus a solve.

        A trial point other than the anchor whose misfit solve fails gets
        the value ``inf``, so a line search backtracks from it; at the
        anchor the failure is a :class:`NumericalError`.
        """
        theta = np.asarray(theta, dtype=float)
        psi_op = build_psi(self.problem, theta)
        psi_w = psi_op.matmat(self.probes.w)
        quad = float(np.sum(self.z * psi_w)) / (2.0 * self.probes.n_probes)
        try:
            c, r = self._solve_misfit(theta, psi_op)
        except NumericalError:
            if np.array_equal(theta, self.theta_t):
                raise
            self.failed_trials += 1
            return np.inf
        return self.problem.prior.neglog(theta) + quad + 0.5 * float(np.dot(c, r))

    def gradient(self, theta):
        """d G_hat / d theta, reusing the misfit solve cached by ``value``."""
        theta = np.asarray(theta, dtype=float)
        problem = self.problem
        actions = _DerivativeActions(problem, theta)
        d_w = actions.apply_all(self.probes.w)  # (p, m, N)
        quad = np.einsum("jmn,mn->j", d_w, self.z) / (2.0 * self.probes.n_probes)
        c, r = self._solve_misfit(theta)
        misfit_terms = actions.apply_all(r) @ r
        da_mu = actions.forward_deriv_mu()
        if da_mu is not None:
            misfit_terms[problem.q_dim :] -= 2.0 * (da_mu @ r)
        return problem.prior.grad_neglog(theta) + quad - 0.5 * misfit_terms


def build_surrogate(
    problem, theta_t, probes, pre=None, pcg_tol=1e-8, pcg_maxit=500
):
    """Anchor the sampled majorant: solve z_i = Psi(theta_t)^{-1} w_i.

    One column-batched CG call solves for all probes.  The solves are the
    per-iteration price of the method and must be trustworthy, so a
    non-converged solve is a hard error.  The solved block is the
    surrogate's ``z``.
    """
    theta_t = np.asarray(theta_t, dtype=float)
    psi_t = build_psi(problem, theta_t)
    res = pcg_solve(psi_t, probes.w, pre=pre, tol=pcg_tol, maxit=pcg_maxit)
    if not res.converged:
        i = int(np.argmax(res.relres))
        raise NumericalError(
            f"anchor solve for probe {i} stalled at relative residual "
            f"{res.relres[i]:.3e} after {pcg_maxit} iterations"
        )
    surrogate = StochasticSurrogate(
        problem=problem,
        theta_t=theta_t.copy(),
        probes=probes,
        z=res.x,
        pre=pre,
        pcg_tol=pcg_tol,
        pcg_maxit=pcg_maxit,
    )
    surrogate.pcg_iters = res.iterations
    return surrogate


# ---------------------------------------------------------------------------
# inner minimizer


@dataclass
class InnerResult:
    theta: np.ndarray
    value: float
    iterations: int
    fn_evals: int
    grad_evals: int
    converged: bool


def projected_gradient_min(
    fun,
    grad,
    theta0,
    box,
    max_iters=100,
    tol=1e-6,
    armijo_c=1e-4,
    max_backtracks=40,
    step0=None,
):
    """Projected gradient descent with Armijo backtracking on a box.

    The sufficient-decrease test is f(theta+) <= f(theta) + c g.(theta+ - theta)
    with c = 1e-4; the step halves until it passes and doubles after an
    unhindered success.  The initial step is max(1, |theta0|)/max(1, |g0|)
    unless given.  Convergence means the projected step shrank below
    ``tol`` relative to the iterate (or the projected gradient vanished).
    """
    theta = box.project(np.asarray(theta0, dtype=float))
    f = fun(theta)
    fn_evals = 1
    g = grad(theta)
    grad_evals = 1
    step = step0 if step0 is not None else (
        max(1.0, float(np.linalg.norm(theta))) / max(1.0, float(np.linalg.norm(g)))
    )
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        s = step
        cand = None
        f_cand = None
        accepted = False
        backtracks = 0
        for backtracks in range(max_backtracks):
            cand = box.project(theta - s * g)
            d = cand - theta
            if not np.any(d):
                # the projected step is null: theta is stationary on the box
                converged = True
                break
            f_cand = fun(cand)
            fn_evals += 1
            if f_cand <= f + armijo_c * float(np.dot(g, d)):
                accepted = True
                break
            s *= 0.5
        if converged or not accepted:
            break
        move = float(np.linalg.norm(cand - theta))
        theta, f = cand, f_cand
        if move <= tol * max(1.0, float(np.linalg.norm(theta))):
            converged = True
            break
        g = grad(theta)
        grad_evals += 1
        step = 2.0 * s if backtracks == 0 else s
    return InnerResult(
        theta=theta,
        value=f,
        iterations=it,
        fn_evals=fn_evals,
        grad_evals=grad_evals,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# outer loops


@dataclass
class OuterRecord:
    outer_iter: int
    theta: np.ndarray
    f_audit: float
    inner_iters: int
    fn_evals: int
    n_probes: int
    accepted: bool
    rel_step: float
    wall_time_s: float
    pcg_iters: int
    counters: dict


@dataclass
class M3cResult:
    theta: np.ndarray
    f_value: float
    converged: bool
    outer_iters: int
    records: list
    audit_mode: str


def _resolve_audit(problem, audit):
    if audit == "auto":
        return "exact" if problem.m <= DENSE_LIMIT else "slq"
    if audit in ("exact", "slq"):
        return audit
    raise ValueError(f"unknown audit mode {audit!r}")


def _make_auditor(problem, audit_mode, seed, audit_probes, audit_k, pcg_tol):
    """An independent, fixed estimate of F used to accept or reject anchors."""
    if audit_mode == "exact":
        return lambda theta: eval_F_exact(problem, theta).value
    probes = rademacher_probes(problem.m, audit_probes, seed, "audit")
    k = min(audit_k, problem.m)
    return lambda theta: eval_F_slq(
        problem, theta, probes, k_steps=k, pcg_tol=pcg_tol
    ).value


def mm_optimize_exact(
    problem,
    theta0=None,
    outer_iters=30,
    tol=1e-6,
    inner_iters=100,
    inner_tol=1e-8,
    callback=None,
):
    """Deterministic majorize-minimize with dense surrogates (oracle chain).

    Each outer step minimizes the exact majorant anchored at the current
    iterate; by tangency + domination the objective F is non-increasing
    along the chain.  Dense only; desk-scale problems.
    """
    theta = box_start(problem, theta0)
    records = []
    converged = False
    last = [None]

    def pieces_at(th):
        # one factorization serves the value, gradient and audit at a point
        # and the anchor it becomes next
        if last[0] is None or not np.array_equal(last[0].theta, th):
            last[0] = dense_objective_pieces(problem, th)
        return last[0]

    f_here = eval_F_exact(problem, theta, pieces_at(theta)).value
    for t in range(outer_iters):
        t0 = time.perf_counter()
        anchor = _anchor_pieces(problem, theta, pieces_at(theta))
        inner = projected_gradient_min(
            lambda th: exact_surrogate(
                problem, th, theta, anchor=anchor, pieces=pieces_at(th)
            ),
            lambda th: exact_surrogate_grad(
                problem, th, theta, anchor=anchor, pieces=pieces_at(th)
            ),
            theta,
            problem.box,
            max_iters=inner_iters,
            tol=inner_tol,
        )
        rel_step = float(np.linalg.norm(inner.theta - theta)) / max(
            1.0, float(np.linalg.norm(theta))
        )
        theta = inner.theta
        f_here = eval_F_exact(problem, theta, pieces_at(theta)).value
        records.append(
            OuterRecord(
                outer_iter=t,
                theta=theta.copy(),
                f_audit=f_here,
                inner_iters=inner.iterations,
                fn_evals=inner.fn_evals,
                n_probes=0,
                accepted=True,
                rel_step=rel_step,
                wall_time_s=time.perf_counter() - t0,
                pcg_iters=0,
                counters=problem.counters.snapshot(),
            )
        )
        if callback is not None:
            callback(records[-1])
        if rel_step <= tol:
            converged = True
            break
    return M3cResult(
        theta=theta,
        f_value=f_here,
        converged=converged,
        outer_iters=len(records),
        records=records,
        audit_mode="exact",
    )


def box_start(problem, theta0):
    if theta0 is None:
        return problem.box.center()
    theta0 = np.asarray(theta0, dtype=float)
    if not problem.box.contains(theta0):
        raise ValueError("starting point is outside the feasible box")
    return theta0.copy()


def m3c_optimize(
    problem,
    theta0=None,
    outer_iters=30,
    n_probes=24,
    seed=0,
    tol=1e-4,
    inner_iters=50,
    inner_tol=1e-6,
    pcg_tol=1e-8,
    pcg_maxit=500,
    precond_rank=32,
    audit="auto",
    audit_probes=32,
    audit_k=30,
    audit_slack_rel=1e-9,
    callback=None,
):
    """Stochastic majorize-minimize with per-anchor Monte-Carlo surrogates.

    Per outer iteration t: draw a fresh probe block (seeded by (seed, t)),
    pay the anchor solves, minimize the sampled majorant over the box, and
    audit the proposal against an independent fixed estimate of F.  A
    proposal that fails the audit is rejected: the anchor is kept, the probe
    budget doubles, and the step does not count toward convergence.  Nor
    does a proposal that stayed at the anchor because the inner minimizer
    gave up without converging; it is accepted as a null step.  The
    audit is exact (dense) when the problem allows it, otherwise a fixed
    probe set shared across all iterations keeps rejections comparable.

    Every CG solve is preconditioned by a randomized Nystrom preconditioner
    of rank ``min(precond_rank, m)``, built once per anchor with the noise
    variance as its shift (Frangella, Tropp & Udell 2023); it serves the
    anchor's probe solves and every misfit solve of that outer iteration.
    It changes only how fast CG reaches ``pcg_tol``, not the sampled
    majorant or the audit.  It needs a scaled-identity noise covariance;
    ``precond_rank=0`` turns it off, which a problem with any other noise
    covariance must do.  Inside the inner minimization a trial point whose misfit solve
    fails is rejected by the line search (the surrogate's value there is
    ``inf``); a proposal the audit cannot evaluate is rejected; a failed
    solve at an anchor is a :class:`NumericalError`.

    Returns the audited chain with per-iteration cost records.
    """
    theta = box_start(problem, theta0)
    audit_mode = _resolve_audit(problem, audit)
    audit_f = _make_auditor(
        problem, audit_mode, seed, audit_probes, audit_k, pcg_tol
    )
    f_here = audit_f(theta)
    records = []
    converged = False
    n_now = int(n_probes)
    for t in range(outer_iters):
        t0 = time.perf_counter()
        probes = rademacher_probes(problem.m, n_now, seed, "m3c", t)
        pre = None
        if precond_rank > 0:
            pre = psi_preconditioner(problem, theta, rank=precond_rank, seed=seed)
        surrogate = build_surrogate(
            problem, theta, probes, pre=pre, pcg_tol=pcg_tol, pcg_maxit=pcg_maxit
        )
        inner = projected_gradient_min(
            surrogate.value,
            surrogate.gradient,
            theta,
            problem.box,
            max_iters=inner_iters,
            tol=inner_tol,
        )
        try:
            f_new = audit_f(inner.theta)
        except NumericalError:
            f_new = np.inf  # a proposal the audit cannot evaluate is rejected
        slack = audit_slack_rel * max(1.0, abs(f_here))
        accepted = f_new <= f_here + slack
        rel_step = float(np.linalg.norm(inner.theta - theta)) / max(
            1.0, float(np.linalg.norm(theta))
        )
        # a proposal left at the anchor because the inner minimizer gave up
        # (backtracking exhausted) is no evidence of stationarity
        stuck = not inner.converged and np.array_equal(inner.theta, theta)
        if accepted:
            theta = inner.theta
            f_here = f_new
        else:
            # keep the anchor; the sample was too small to trust
            n_now *= 2
        records.append(
            OuterRecord(
                outer_iter=t,
                theta=theta.copy(),
                f_audit=f_here,
                inner_iters=inner.iterations,
                fn_evals=inner.fn_evals,
                n_probes=probes.n_probes,
                accepted=accepted,
                rel_step=rel_step if accepted else np.nan,
                wall_time_s=time.perf_counter() - t0,
                pcg_iters=surrogate.pcg_iters,
                counters=problem.counters.snapshot(),
            )
        )
        if callback is not None:
            callback(records[-1])
        if accepted and rel_step <= tol and not stuck:
            converged = True
            break
    return M3cResult(
        theta=theta,
        f_value=f_here,
        converged=converged,
        outer_iters=len(records),
        records=records,
        audit_mode=audit_mode,
    )
