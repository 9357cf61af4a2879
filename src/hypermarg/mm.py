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

Both optimizers run one outer loop: build the majorant at the anchor,
minimize it over the box, and audit the proposal with an estimate of F that
is fixed for the run.  A proposal that raises the audited F beyond a small
relative slack is rejected and the anchor kept.  The exact chain builds the
dense majorant and audits with F itself; m3c builds the sampled one, audits
with an independent estimate, and doubles its probe budget after a
rejection.
"""

import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .model import build_psi
from .objective import (
    _DerivativeActions,
    _pieces_at,
    dense_gradient,
    dense_objective_pieces,
    eval_F_exact,
    eval_F_slq,
    psi_preconditioner,
)
from .operators import DENSE_LIMIT, NumericalError
from .pcg import pcg_solve
from .probes import canonical_probes, rademacher_probes

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


def exact_surrogate(problem, theta, theta_t, anchor=None, pieces=None):
    """Dense evaluation of the majorant G(theta | theta_t).

    ``anchor`` may carry the :class:`~hypermarg.objective.DensePieces`
    already built at ``theta_t``, to amortize repeated evaluations at one
    anchor; ``pieces`` may carry those built at ``theta``.
    """
    theta = np.asarray(theta, dtype=float)
    anchor = _pieces_at(problem, theta_t, anchor)
    pieces = _pieces_at(problem, theta, pieces)
    trace_term = float(np.vdot(anchor.inverse(), pieces.psi))
    misfit = float(np.dot(pieces.c, pieces.r))
    return (
        problem.prior.neglog(theta)
        + 0.5 * (anchor.logdet() - problem.m + trace_term)
        + 0.5 * misfit
    )


def exact_surrogate_grad(problem, theta, theta_t, anchor=None, pieces=None):
    """Dense gradient of the majorant in its first argument.

    The same computation as ``grad_F_exact`` with the anchor's Psi_t^{-1}
    in the trace terms; ``anchor`` and ``pieces`` as in ``exact_surrogate``.
    """
    theta = np.asarray(theta, dtype=float)
    anchor = _pieces_at(problem, theta_t, anchor)
    pieces = _pieces_at(problem, theta, pieces)
    return dense_gradient(problem, pieces, anchor.inverse())


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

    @property
    def n_probes(self):
        return self.probes.n_probes

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
    stop: str  # "move", "flat", "stationary", "line_search" or "max_iters"


_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 40


def projected_gradient_min(fun, grad, theta0, box, max_iters=100, tol=1e-6, callback=None):
    """Projected gradient descent with Armijo backtracking on a box.

    Coordinates with a positive lower bound move in u = log theta (Rasmussen
    & Williams 2006, sec. 5.4), where the box is still a box and the gradient
    is theta * g; the others move in theta.  ``fun`` and ``grad`` see the
    start point exactly as given (after projection), every later point
    clipped into the box.  Armijo's test uses c = 1e-4 along the projected
    path, and the step halves up to 40 times.

    The first trial step is max(1, |u0|)/max(1, |g_u0|).  After that it is
    the Barzilai-Borwein step of the last accepted move d in u and the change
    y in the u-gradient (Barzilai & Borwein 1988): d'd/d'y on odd iterations
    and d'y/y'y on even ones, alternating the long and short forms as in
    projected BB methods (Dai & Fletcher 2005), clipped to [1e-10, 1e10].
    When d'y <= 0 the step instead doubles after an unhindered success and
    stays after a backtracked one.

    ``stop`` says why the loop ended.  It converged on ``"move"`` (the
    accepted step in u is below ``tol`` relative to u), ``"flat"`` (the
    accepted step left f unchanged, so Armijo passed only within f's
    resolution) or ``"stationary"`` (the projected step is null: theta is
    stationary on the box).  It did not on ``"line_search"`` (the halvings
    ran out, and theta is the last accepted point) or ``"max_iters"``.
    ``callback(theta, f)`` runs at the end of every iteration, after its
    last evaluation.
    """
    log = box.lower > 0
    lo = np.log(box.lower, out=box.lower.copy(), where=log)
    hi = np.log(box.upper, out=box.upper.copy(), where=log)
    theta = box.project(np.asarray(theta0, dtype=float))
    u = np.log(theta, out=theta.copy(), where=log)
    f = fun(theta)
    fn_evals = 1
    grad_evals = 0
    g_u = None
    g_prev = None
    step = None
    stop = "max_iters"
    it = 0
    for it in range(1, max_iters + 1):
        if g_u is None:
            g_u = grad(theta)
            grad_evals += 1
            g_u = np.where(log, theta * g_u, g_u)
        if step is None:
            step = max(1.0, float(np.linalg.norm(u))) / max(1.0, float(np.linalg.norm(g_u)))
        else:  # every iteration after the first follows an accepted step d
            y = g_u - g_prev
            dy = float(np.dot(d, y))
            if dy > 0:
                bb = float(np.dot(d, d)) / dy if it % 2 else dy / float(np.dot(y, y))
                step = min(max(bb, 1e-10), 1e10)
        s = step
        accepted = False
        for backtracks in range(_MAX_BACKTRACKS):
            u_cand = np.clip(u - s * g_u, lo, hi)
            d = u_cand - u
            if not np.any(d):
                stop = "stationary"
                break
            cand = box.project(np.where(log, np.exp(u_cand), u_cand))
            f_cand = fun(cand)
            fn_evals += 1
            if f_cand <= f + _ARMIJO_C * float(np.dot(g_u, d)):
                accepted = True
                break
            s *= 0.5
        else:
            stop = "line_search"
        if accepted:
            move = float(np.linalg.norm(d))
            flat = not f_cand < f
            u, theta, f = u_cand, cand, f_cand
            g_u, g_prev = None, g_u
            if flat:
                stop = "flat"
            elif move <= tol * max(1.0, float(np.linalg.norm(u))):
                stop = "move"
            step = 2.0 * s if backtracks == 0 else s
        if callback is not None:
            callback(theta, f)
        if stop != "max_iters":
            break
    return InnerResult(
        theta=theta,
        value=f,
        iterations=it,
        fn_evals=fn_evals,
        grad_evals=grad_evals,
        converged=stop in ("move", "flat", "stationary"),
        stop=stop,
    )


# ---------------------------------------------------------------------------
# the outer loop


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


def box_start(problem, theta0):
    if theta0 is None:
        return problem.box.center()
    theta0 = np.asarray(theta0, dtype=float)
    if not problem.box.contains(theta0):
        raise ValueError("starting point is outside the feasible box")
    return theta0.copy()


def _mm_chain(
    problem, theta0, majorant, audit_mode, audit, outer_iters, tol,
    inner_iters, inner_tol, audit_slack_rel, callback,
):
    """The majorize-minimize outer loop of both optimizers.

    ``majorant(t, theta_t, widen)`` builds the majorant at the anchor
    theta_t, with ``widen`` set when the last proposal was rejected; it
    returns an object with ``value``, ``gradient``, ``n_probes`` and
    ``pcg_iters``.  ``projected_gradient_min`` minimizes it over the box from
    the anchor.  The proposal is accepted, and becomes the next anchor, when
    ``audit`` puts it at most ``audit_slack_rel * max(1, |F|)`` above the
    anchor; one the audit cannot evaluate (a :class:`NumericalError`) is
    rejected.  The chain converges on an accepted step of at most ``tol``
    relative to theta, unless the inner minimizer gave up at the anchor:
    that null step is accepted, but it is no evidence of stationarity.
    ``callback`` gets each :class:`OuterRecord`.
    """
    theta = box_start(problem, theta0)
    f_here = audit(theta)
    records = []
    converged = False
    widen = False
    for t in range(outer_iters):
        t0 = time.perf_counter()
        surrogate = majorant(t, theta, widen)
        inner = projected_gradient_min(
            surrogate.value,
            surrogate.gradient,
            theta,
            problem.box,
            max_iters=inner_iters,
            tol=inner_tol,
        )
        try:
            f_new = audit(inner.theta)
        except NumericalError:
            f_new = np.inf  # a proposal the audit cannot evaluate is rejected
        slack = audit_slack_rel * max(1.0, abs(f_here))
        accepted = f_new <= f_here + slack
        rel_step = float(np.linalg.norm(inner.theta - theta)) / max(
            1.0, float(np.linalg.norm(theta))
        )
        stuck = not inner.converged and np.array_equal(inner.theta, theta)
        if accepted:
            theta = inner.theta
            f_here = f_new
        widen = not accepted
        records.append(
            OuterRecord(
                outer_iter=t,
                theta=theta.copy(),
                f_audit=f_here,
                inner_iters=inner.iterations,
                fn_evals=inner.fn_evals,
                n_probes=surrogate.n_probes,
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
    along the chain.  Its proposals pass the exact audit, F itself with
    m3c's default slack of 1e-9, and the same stop test as m3c's (see
    ``_mm_chain``), so a proposal that raises F is rejected and a null step
    is not convergence.  Dense only; desk-scale problems.
    """
    last = [None]

    def pieces_at(th):
        # one factorization serves the value, gradient and audit at a point
        # and the anchor it becomes next
        if last[0] is None or not np.array_equal(last[0].theta, th):
            # the anchor keeps its own pieces: release the old point's first,
            # so that at most two points' pieces are alive at once
            last[0] = None
            last[0] = dense_objective_pieces(problem, th)
        return last[0]

    def majorant(t, theta_t, widen):
        anchor = pieces_at(theta_t)
        return SimpleNamespace(
            value=lambda th: exact_surrogate(
                problem, th, theta_t, anchor=anchor, pieces=pieces_at(th)
            ),
            gradient=lambda th: exact_surrogate_grad(
                problem, th, theta_t, anchor=anchor, pieces=pieces_at(th)
            ),
            n_probes=0,
            pcg_iters=0,
        )

    def audit(th):
        return eval_F_exact(problem, th, pieces_at(th)).value

    return _mm_chain(
        problem, theta0, majorant, "exact", audit, outer_iters, tol,
        inner_iters, inner_tol, 1e-9, callback,
    )


# rank of m3c's per-anchor Nystrom preconditioner, capped at m
PRECOND_RANK = 32


def _auditor(problem, audit, seed, audit_probes, audit_k, pcg_tol):
    """m3c's audit mode and its independent, fixed estimate of F."""
    if audit == "auto":
        audit = "exact" if problem.m <= DENSE_LIMIT else "slq"
    if audit == "exact":
        return audit, lambda theta: eval_F_exact(problem, theta).value
    if audit != "slq":
        raise ValueError(f"unknown audit mode {audit!r}")
    probes = rademacher_probes(problem.m, audit_probes, seed, "audit")
    k = min(audit_k, problem.m)
    return audit, lambda theta: eval_F_slq(
        problem, theta, probes, k_steps=k, pcg_tol=pcg_tol
    ).value


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
    audit="auto",
    audit_probes=32,
    audit_k=30,
    audit_slack_rel=1e-9,
    callback=None,
):
    """Stochastic majorize-minimize with per-anchor Monte-Carlo surrogates.

    The outer loop, its audit and its stop test are ``_mm_chain``'s.  Per
    outer iteration t, m3c draws a fresh probe block seeded by (seed, t),
    pays the anchor solves and hands the sampled majorant to the loop.  A
    rejected proposal says the sample was too small to trust, so the probe
    budget doubles.  It stops at m: from there on the probes are the m
    canonical ones, whose sampled trace is exact, so the surrogate is the
    exact majorant.  The audit is exact (dense) when the problem allows it,
    otherwise a fixed probe set shared across all iterations keeps
    rejections comparable.

    Every CG solve is preconditioned by a randomized Nystrom preconditioner
    of rank ``min(PRECOND_RANK, m)``, built once per anchor with the noise
    variance as its shift (Frangella, Tropp & Udell 2023); it serves the
    anchor's probe solves and every misfit solve of that outer iteration.
    It changes only how fast CG reaches ``pcg_tol``, not the sampled
    majorant or the audit.  Inside the inner minimization a trial point
    whose misfit solve fails is rejected by the line search (the surrogate's
    value there is ``inf``); a failed solve at an anchor is a
    :class:`NumericalError`.

    Returns the audited chain with per-iteration cost records.
    """
    audit_mode, audit_f = _auditor(problem, audit, seed, audit_probes, audit_k, pcg_tol)
    n_now = int(n_probes)

    def majorant(t, theta_t, widen):
        nonlocal n_now
        if widen:
            n_now = min(2 * n_now, problem.m)
        if n_now < problem.m:
            probes = rademacher_probes(problem.m, n_now, seed, "m3c", t)
        else:
            probes = canonical_probes(problem.m)
        pre = psi_preconditioner(problem, theta_t, rank=PRECOND_RANK, seed=seed)
        return build_surrogate(
            problem, theta_t, probes, pre=pre, pcg_tol=pcg_tol, pcg_maxit=pcg_maxit
        )

    return _mm_chain(
        problem, theta0, majorant, audit_mode, audit_f, outer_iters, tol,
        inner_iters, inner_tol, audit_slack_rel, callback,
    )
