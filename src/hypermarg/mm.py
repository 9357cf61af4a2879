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
1/2 (log det Psi_t - m).  Its probe term is read through the forward-map
legs A^T Z and A^T W:

    sum_i z_i^T Psi(theta) w_i = <A^T Z, Q(theta) A^T W> + sigma^2 <Z, W>,

one Q application per probe and no Psi application.  Where A does not
depend on theta (the paper's Case I) the legs are fixed for the anchor and
applied once; otherwise each value applies them at its theta.  The gradient
pairs each dPsi/dtheta_j through the same legs: dQ by a pairing of the two
legs, dA by two sparse block products.  The anchor solves are paid once per
outer iteration; the inner minimizer then works against a fixed sample.

Both optimizers run one outer loop, m3c's: build the majorant at the
anchor, minimize it over the box, and audit the proposal with an estimate
of F that is fixed for the run.  A proposal that raises the audited F beyond
a small relative slack is rejected, the anchor kept and the probe budget
doubled, up to m.  At N = m the sampled trace is exact: up to
``DENSE_LIMIT`` rows the loop then builds the dense majorant from one
factorization and audits with F itself.  The exact chain is that loop
started at N = m.  Each inner minimization is a projected BFGS run that
starts from the inverse Hessian and step scale the last one ended with:
consecutive majorants are tangent to F at nearby anchors, so their curvature
differs little (Morales & Nocedal 2000).  It stops halving at the scale of its
tolerance: a sampled majorant's value is only as good as its misfit solve,
and below that scale a failed trial says nothing.  A trial whose evaluation
raises :class:`NumericalError` is backtracked from there too, for all
optimizers.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .model import build_psi
from .objective import (
    _derivative_ops,
    _misfit_terms,
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
    "Point",
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


@dataclass
class Point:
    """One evaluated theta, as an ``evaluate`` function returns it.

    ``gradient()`` computes the gradient from what computing ``value``
    solved; ``projected_gradient_min`` calls it once per accepted point.
    ``solved`` is that work for the caller to reuse (a dense majorant's
    pieces), or None.
    """

    theta: np.ndarray
    value: float
    solved: object
    gradient: object  # () -> the gradient at theta


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
    return dense_gradient(
        problem, theta, pieces.a, pieces.q_op, pieces.r, anchor.inverse()
    )


# ---------------------------------------------------------------------------
# stochastic surrogate


@dataclass
class StochasticSurrogate:
    """The sampled majorant at one anchor, with its paired probe solves.

    ``value`` omits the anchor constant (log det Psi_t - m)/2, which is
    unavailable matrix-free; minimizers and differences are unaffected.
    The probe term reads the block only through its legs A^T Z and A^T W
    and the number <Z, W>.  Where A does not depend on theta (``ell`` = 0,
    the paper's Case I) the legs are the same at every theta: they are
    applied once, here, for 2N A applications.
    """

    problem: object
    w: np.ndarray  # (m, N) probe block W
    z: np.ndarray  # (m, N) anchor solves Psi_t^{-1} W
    pre: object = None
    pcg_tol: float = 1e-8
    pcg_maxit: int = 500
    pcg_iters: int = 0  # accumulated over all evaluations
    _r: np.ndarray = field(default=None, init=False, repr=False)  # CG warm start: the last r
    _legs: tuple = field(default=None, init=False, repr=False)  # Case I: (A^T Z, A^T W)
    _zw: float = field(default=None, init=False, repr=False)  # <Z, W>

    def __post_init__(self):
        self._zw = float(np.vdot(self.z, self.w))
        if not self.problem.ell:
            a_op = self.problem.build_a(np.zeros(0))
            self._legs = a_op.rmatmat(self.z), a_op.rmatmat(self.w)

    @property
    def n_probes(self):
        return self.w.shape[1]

    def value(self, theta):
        """G_hat at theta as a :class:`Point` whose gradient reuses its legs and solve.

        The probe term is (<A^T Z, Q A^T W> + sigma^2 <Z, W>)/(2N): one Q
        application per probe, and no Psi application.  The legs are the
        surrogate's own in Case I; otherwise they are applied at theta, 2N A
        applications, and the point keeps them for its gradient.  Then the
        solve r = Psi^{-1} c.  CG starts from the last solved r; its stopping
        test is relative to ||c||, so the warm start changes the cost, not
        the tolerance.  A failed misfit solve raises :class:`NumericalError`
        at the anchor as at a trial point; ``projected_gradient_min``
        backtracks from the latter.
        """
        theta = np.asarray(theta, dtype=float)
        psi_op = build_psi(self.problem, theta)
        if self._legs is None:
            legs = psi_op.a_op.rmatmat(self.z), psi_op.a_op.rmatmat(self.w)
        else:
            legs = self._legs
        q_lw = psi_op.q_op.matmat(legs[1])
        quad = (float(np.vdot(legs[0], q_lw)) + psi_op.r_op.scale * self._zw) / (
            2.0 * self.n_probes
        )
        c = self.problem.residual_offset(theta)
        res = pcg_solve(
            psi_op, c, pre=self.pre, tol=self.pcg_tol, maxit=self.pcg_maxit, x0=self._r
        )
        self.pcg_iters += res.iterations
        if not res.converged:
            raise NumericalError(
                f"misfit solve stalled at relative residual {res.relres:.3e} "
                f"after {self.pcg_maxit} iterations"
            )
        r = self._r = res.x
        value = self.problem.prior.neglog(theta) + quad + 0.5 * float(np.dot(c, r))
        return Point(theta, value, None, lambda: self.gradient(theta, psi_op, legs, q_lw, r))

    def gradient(self, theta, psi_op, legs, q_lw, r):
        """d G_hat / d theta, from what the value at theta applied.

        ``psi_op`` is Psi(theta), ``legs`` are (A^T Z, A^T W), ``q_lw`` is
        Q A^T W and r is the misfit solve Psi^{-1} c.  The probe term pairs
        each dPsi_j through the legs: <A^T Z, dQ_j A^T W> from dQ's uncounted
        ``_pair``, <Z, W> at the noise variance, and
        <Z, dA_i Q A^T W> + <W, dA_i Q A^T Z>, two sparse block products per
        dA.  The misfit term is the dense oracle's algebra
        (``objective._misfit_terms``) with s = A^T r.  It costs one A
        application, plus N + 1 Q applications where A depends on theta.
        """
        problem = self.problem
        dq_ops, da_ops = _derivative_ops(problem, theta)
        a_op, q_op = psi_op.a_op, psi_op.q_op
        l_z, l_w = legs
        probe = np.zeros(problem.p)
        for j, dq_op in enumerate(dq_ops):
            if dq_op is not None:
                probe[j] += dq_op._pair(l_z.T, l_w.T)
            if j == problem.noise_index:
                probe[j] += self._zw
        s = a_op.rmatvec(r)
        q_s = None
        if da_ops:
            q_lz = q_op.matmat(l_z)
            for i, da in enumerate(da_ops):
                probe[problem.q_dim + i] = float(np.vdot(self.z, da._apply(q_lw))) + float(
                    np.vdot(self.w, da._apply(q_lz))
                )
            q_s = q_op.matvec(s)
        misfit = _misfit_terms(problem, dq_ops, da_ops, r, s, q_s)
        grad = problem.prior.grad_neglog(theta)
        return grad + probe / (2.0 * self.n_probes) - 0.5 * misfit


def build_surrogate(problem, theta_t, w, pre=None, pcg_tol=1e-8, pcg_maxit=500):
    """Anchor the sampled majorant: solve z_i = Psi(theta_t)^{-1} w_i.

    ``w`` is the (m, N) probe block; one column-batched CG call solves for
    all its columns.  The solves are the per-iteration price of the method
    and must be trustworthy, so a non-converged solve is a hard error.  The
    solved block is the surrogate's ``z``.
    """
    theta_t = np.asarray(theta_t, dtype=float)
    psi_t = build_psi(problem, theta_t)
    res = pcg_solve(psi_t, w, pre=pre, tol=pcg_tol, maxit=pcg_maxit)
    if not res.converged:
        i = int(np.argmax(res.relres))
        raise NumericalError(
            f"anchor solve for probe {i} stalled at relative residual "
            f"{res.relres[i]:.3e} after {pcg_maxit} iterations"
        )
    return StochasticSurrogate(
        problem, w, res.x, pre, pcg_tol, pcg_maxit, pcg_iters=res.iterations
    )


# ---------------------------------------------------------------------------
# inner minimizer


@dataclass
class InnerResult:
    point: Point  # the last accepted point, or the start point itself
    iterations: int
    fn_evals: int  # evaluations that returned a point, the start point's included
    grad_evals: int
    failed_trials: int  # line-search trial points whose evaluation raised
    converged: bool
    # "move", "flat" or "stationary" (converged), "line_search" (no step
    # found at the start point, or the halvings ran out) or "max_iters"
    stop: str
    # the scale of the next iteration's initial inverse Hessian step * I,
    # were there one: its first trial step along the negative gradient
    step: float
    # the inverse Hessian in u the next iteration would start from, or None
    # while it is step * I: a later call on a nearby function takes both
    h: np.ndarray = None


_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 40
# A pair (s, y) with s'y at most this multiple of |s| |y| reports no
# curvature the inverse Hessian can keep positive definite: it is skipped.
_CURVATURE_REL = 1e-10


def projected_gradient_min(
    evaluate, start, box, max_iters=100, tol=1e-6, callback=None, step0=None, h0=None
):
    """Projected BFGS with Armijo backtracking on a box.

    ``evaluate(theta)`` returns the :class:`Point` at theta, value and
    gradient together, and ``start`` is its point at a theta inside the box.
    Coordinates with a positive lower bound move in u = log theta (Rasmussen
    & Williams 2006, sec. 5.4), where the box is still a box and the gradient
    is theta * g; the others move in theta.

    The direction is projected BFGS in u (Byrd, Lu, Nocedal & Zhu 1995).  A
    coordinate at a bound whose gradient points out of the box is held; on
    the free set F the direction is -H_FF g_F, where H is an inverse Hessian
    that starts as ``h0``, or as the scaled identity step * I when that is
    None.  Each accepted move s and change y in the u-gradient, both on the
    free set, rescale ``step`` to s'y/y'y and update H by BFGS, from that
    rescaled identity while H is still step * I; a pair with
    s'y <= 1e-10 |s| |y| is skipped.  H resets to step * I when the held set
    changes, or when its direction does not descend; a coordinate at a bound
    that the direction would push out of the box stays put.  ``step`` starts as ``step0``, or
    max(1, |u0|)/max(1, |g_u0|) when that is None.

    Every trial theta is clipped into the box.  The first trial step along
    the direction is 1; Armijo's test uses c = 1e-4 along the projected
    path, and a failed trial halves the step.  A halving whose clipped trial
    is the last trial again, or whose projected step does not descend, is
    skipped without an evaluation.  The halving stops once a finite trial
    fails with a step d in u of at most ``tol`` relative to u: no step the
    loop would count as a move is left to find.  A trial valued inf or NaN,
    or at which ``evaluate`` raises :class:`NumericalError` (counted in
    ``failed_trials``), gives no such evidence, so there the step halves up
    to 40 times; that error from a point's gradient propagates.

    ``point`` is the last accepted point, or ``start`` itself when no step
    was accepted.  ``stop`` says why the loop ended.  It converged on
    ``"move"`` (the accepted step in u is below ``tol`` relative to u, or,
    after a move, the line search stopped at that scale), ``"flat"`` (the
    accepted step left f unchanged, so Armijo passed only within f's
    resolution) or ``"stationary"`` (the projected step is null: theta is
    stationary on the box).  It did not on ``"line_search"`` (the line
    search found no step from the start point, or its halvings ran out
    after a move) or ``"max_iters"``.  ``step`` and ``h`` are the identity
    scale and the inverse Hessian the next iteration would start from, for
    a later call on a nearby function to take as ``step0`` and ``h0``
    (spectral projected gradient carries its step across iterations the
    same way: Birgin, Martinez & Raydan 2000; Morales & Nocedal 2000 carry
    quasi-Newton pairs across related problems).  When no step was found at
    the start point, ``step`` is the step at which the halving stopped; H
    is left as it was, since only accepted pairs measure curvature.
    ``callback(point)`` runs at the end of every iteration, after its last
    evaluation, with the point accepted so far.
    """
    log = box.lower > 0
    lo = np.log(box.lower, out=box.lower.copy(), where=log)
    hi = np.log(box.upper, out=box.upper.copy(), where=log)
    point = start
    u = np.log(point.theta, out=point.theta.copy(), where=log)
    fn_evals = 1
    grad_evals = 0
    failed_trials = 0
    step = step0
    # the inverse Hessian on the free set; None while it is step * I
    h = None if h0 is None else h0.copy()
    stop = "max_iters"
    it = 0
    for it in range(1, max_iters + 1):
        g = point.gradient()
        grad_evals += 1
        g = np.where(log, point.theta * g, g)
        held = ((u <= lo) & (g > 0)) | ((u >= hi) & (g < 0))
        if step is None:
            step = max(1.0, float(np.linalg.norm(u))) / max(1.0, float(np.linalg.norm(g)))
        if it > 1:  # every iteration after the first follows an accepted move
            s = np.where(held, 0.0, u - u_prev)
            y = np.where(held, 0.0, g - g_prev)
            sy = float(np.dot(s, y))
            curved = sy > _CURVATURE_REL * float(np.linalg.norm(s) * np.linalg.norm(y))
            if curved:
                step = min(max(sy / float(np.dot(y, y)), 1e-10), 1e10)
            if np.any(held != held_prev):
                h = None
            elif curved:
                if h is None:
                    h = step * np.eye(len(u))
                hy = h @ y
                h += (
                    (sy + float(np.dot(y, hy))) / sy**2 * np.outer(s, s)
                    - (np.outer(hy, s) + np.outer(s, hy)) / sy
                )
        g_free = np.where(held, 0.0, g)
        direction = -step * g_free if h is None else -(h @ g_free)
        direction[held | ((u <= lo) & (direction < 0)) | ((u >= hi) & (direction > 0))] = 0.0
        if h is not None and not float(np.dot(g, direction)) < 0:
            h = None
            direction = -step * g_free
        floor = tol * max(1.0, float(np.linalg.norm(u)))
        t = 1.0
        last = None
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            u_cand = np.clip(u + t * direction, lo, hi)
            d = u_cand - u
            if not np.any(d):
                stop = "stationary"
                break
            slope = float(np.dot(g, d))
            if not slope < 0 or (last is not None and np.all(u_cand == last)):
                # clipping made this trial no descent step, or the last one again
                t *= 0.5
                continue
            last = u_cand
            cand = box.project(np.where(log, np.exp(u_cand), u_cand))
            trial = None  # the last trial's point goes before the next is evaluated
            try:
                trial = evaluate(cand)
                fn_evals += 1
            except NumericalError:
                failed_trials += 1
            f_cand = np.inf if trial is None else trial.value
            if f_cand <= point.value + _ARMIJO_C * slope:
                accepted = True
                break
            if np.isfinite(f_cand) and float(np.linalg.norm(d)) <= floor:
                # after a move this is a move below tol; at the start point,
                # no evidence of stationarity
                stop = "move" if it > 1 else "line_search"
                break
            t *= 0.5
        else:
            stop = "line_search"
        if accepted:
            move = float(np.linalg.norm(d))
            flat = not f_cand < point.value
            u_prev, g_prev, held_prev = u, g, held
            u, point = u_cand, trial
            if flat:
                stop = "flat"
            elif move <= tol * max(1.0, float(np.linalg.norm(u))):
                stop = "move"
        elif it == 1 and stop == "line_search":
            step *= t  # the next call starts where this one's halving stopped
        if callback is not None:
            callback(point)
        if stop != "max_iters":
            break
    return InnerResult(
        point=point,
        iterations=it,
        fn_evals=fn_evals,
        grad_evals=grad_evals,
        failed_trials=failed_trials,
        converged=stop in ("move", "flat", "stationary"),
        stop=stop,
        step=step,
        h=h,
    )


# ---------------------------------------------------------------------------
# the outer loop


@dataclass
class OuterRecord:
    """One outer iteration of an MM chain, with the ledger after it.

    ``n_probes`` is the majorant's probe budget N, m for a dense one.
    ``pcg_iters`` counts the majorant's CG iterations, anchor and misfit
    solves.  A dense majorant (m3c's at N = m, so every one of the exact
    chain's) runs none, and the counter ledger does not see its
    factorizations either: such an outer iteration reads 0 there and leaves
    ``counters`` unmoved until dense work has a counter of its own.
    """

    outer_iter: int
    theta: np.ndarray
    f_audit: float
    inner_iters: int
    inner_stop: str  # the InnerResult.stop of the inner minimization
    fn_evals: int
    failed_trials: int  # the InnerResult.failed_trials of the inner minimization
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
    records: list


def box_start(problem, theta0):
    if theta0 is None:
        return problem.box.center()
    theta0 = np.asarray(theta0, dtype=float)
    if not problem.box.contains(theta0):
        raise ValueError("starting point is outside the feasible box")
    return theta0.copy()


# The audit passes a proposal that raises F by at most this, relative to
# max(1, |F|): room for rounding in F at a proposal a tiny step from the
# anchor, and far below the decreases an MM chain makes.
AUDIT_SLACK_REL = 1e-9


def _m3c_chain(
    problem, theta, solved, n_probes, *, seed, outer_iters, tol, inner_iters,
    inner_tol, pcg_tol, pcg_maxit,
):
    """The majorize-minimize outer loop of both optimizers.

    The anchor starts at ``theta``, inside the box, with ``solved``: the
    dense pieces built there, or None.  Outer iteration t builds the
    majorant at the anchor over ``n_probes`` probes.  Below m it is the
    sampled one over a fresh Rademacher block seeded by (seed, t); at m it
    is the dense ``_ExactMajorant`` at the anchor's own pieces up to
    ``DENSE_LIMIT`` rows, and the sampled one over the m canonical probes
    above.  ``projected_gradient_min`` minimizes its ``value`` over the box
    from its point at the anchor, backtracking from trial points whose value
    raises.  The point it returns is the proposal, and ``_auditor``'s fixed
    estimate of F is read there, from what the proposal solved.  The
    proposal is accepted, and becomes the next anchor with what its audit
    solved, when the audit puts it at most ``AUDIT_SLACK_REL * max(1, |F|)``
    above the anchor; one the audit cannot evaluate (a
    :class:`NumericalError`) is rejected, and a rejection doubles the probe
    budget, up to m.  The start is audited the same way.  The chain
    converges on an accepted step of at most ``tol`` relative to theta,
    unless the inner minimizer gave up at the anchor, returning its start
    point unconverged: that null step is accepted, but it is no evidence of
    stationarity.

    Each inner loop starts from the ``step`` and ``h`` the last one ended
    with.  Where the anchor stays (a rejection or a null step), the next
    majorant is built there again, with the same preconditioner.  A sampled
    one is then a new function, over a new probe block, and H carries into
    it.  The dense one is the same function again, where the same H would
    retrace the same loop, so that loop starts from step * I.
    """
    audit = _auditor(problem, seed, pcg_tol)
    f_here, solved = audit(theta, solved)
    records = []
    converged = stayed = False
    step = h = pre = None
    for t in range(outer_iters):
        t0 = time.perf_counter()
        dense = n_probes == problem.m and problem.m <= DENSE_LIMIT
        if dense:
            # the exact audit solved the anchor: its pieces are the majorant's
            surrogate = _ExactMajorant(problem, solved)
            start = surrogate.at(solved)
        else:
            if n_probes < problem.m:
                w = rademacher_probes(problem.m, n_probes, seed, "m3c", t)
            else:
                w = canonical_probes(problem.m)
            if not stayed:
                # an anchor that did not move keeps its preconditioner
                pre = psi_preconditioner(problem, theta, seed=seed)
            surrogate = build_surrogate(
                problem, theta, w, pre=pre, pcg_tol=pcg_tol, pcg_maxit=pcg_maxit
            )
            start = surrogate.value(theta)
        inner = projected_gradient_min(
            surrogate.value, start, problem.box, max_iters=inner_iters, tol=inner_tol,
            step0=step, h0=h,
        )
        step, h = inner.step, inner.h
        proposal = inner.point
        try:
            f_new, audited = audit(proposal.theta, proposal.solved)
        except NumericalError:
            f_new = np.inf  # a proposal the audit cannot evaluate is rejected
        slack = AUDIT_SLACK_REL * max(1.0, abs(f_here))
        accepted = f_new <= f_here + slack
        rel_step = float(np.linalg.norm(proposal.theta - theta)) / max(
            1.0, float(np.linalg.norm(theta))
        )
        stuck = not inner.converged and proposal is start
        if accepted:
            theta, solved, f_here = proposal.theta, audited, f_new
        stayed = proposal is start or not accepted
        if dense and stayed:
            # the anchor stays, so the next majorant is this one again, where
            # the same H would retrace this loop: start again from step * I
            h = None
        records.append(
            OuterRecord(
                outer_iter=t,
                theta=theta.copy(),
                f_audit=f_here,
                inner_iters=inner.iterations,
                inner_stop=inner.stop,
                fn_evals=inner.fn_evals,
                failed_trials=inner.failed_trials,
                n_probes=n_probes,
                accepted=accepted,
                rel_step=rel_step if accepted else np.nan,
                wall_time_s=time.perf_counter() - t0,
                pcg_iters=surrogate.pcg_iters,
                counters=problem.counters.snapshot(),
            )
        )
        if not accepted:
            # the sample was too small to trust
            n_probes = min(2 * n_probes, problem.m)
        # this majorant's points hold its anchor: let them go before the next
        del surrogate, start, inner, proposal
        if accepted and rel_step <= tol and not stuck:
            converged = True
            break
    return M3cResult(theta=theta, f_value=f_here, converged=converged, records=records)


@dataclass
class _ExactMajorant:
    """The dense majorant at an anchor's pieces; each point carries its own."""

    problem: object
    anchor: object  # the DensePieces at theta_t
    pcg_iters = 0

    def value(self, theta):
        return self.at(dense_objective_pieces(self.problem, theta))

    def at(self, pieces):
        problem, anchor, theta = self.problem, self.anchor, pieces.theta
        value = exact_surrogate(problem, theta, anchor.theta, anchor=anchor, pieces=pieces)
        grad = lambda: exact_surrogate_grad(
            problem, theta, anchor.theta, anchor=anchor, pieces=pieces
        )
        return Point(theta, value, pieces, grad)


def mm_optimize_exact(
    problem,
    theta0=None,
    outer_iters=100,
    tol=1e-6,
    inner_iters=100,
    inner_tol=1e-8,
):
    """Deterministic majorize-minimize with dense surrogates (oracle chain).

    At N = m the sampled trace is exact, so this is m3c's loop
    (``_m3c_chain``) started at its probe budget m: each outer step
    minimizes the exact majorant anchored at the current iterate, and by
    tangency + domination F is non-increasing along the chain.  Its
    proposals pass the exact audit, F itself with the slack
    ``AUDIT_SLACK_REL``, so a proposal that raises F is rejected and a null
    step is not convergence.  Each theta is factorized once: a point
    carries its dense pieces, which serve its value, gradient and audit
    and, once it is accepted, the next majorant's anchor.  Its records read
    ``n_probes`` = m and ``pcg_iters`` 0.  Dense only, for desk-scale
    problems: building the start's pieces raises ``ValueError`` above
    ``DENSE_LIMIT`` rows, where m3c at N = m would audit by SLQ instead.
    """
    theta = box_start(problem, theta0)
    # a dense chain draws no probes and runs no CG: seed and pcg_* go unread
    return _m3c_chain(
        problem, theta, dense_objective_pieces(problem, theta), problem.m,
        seed=None, outer_iters=outer_iters, tol=tol, inner_iters=inner_iters,
        inner_tol=inner_tol, pcg_tol=None, pcg_maxit=None,
    )


# m3c's SLQ audit, used above DENSE_LIMIT rows: this many Rademacher
# probes, drawn once per run, and a Lanczos depth of min(AUDIT_K, m)
AUDIT_PROBES = 32
AUDIT_K = 30


def _auditor(problem, seed, pcg_tol):
    """m3c's independent, fixed estimate of F: exact up to DENSE_LIMIT rows, SLQ above.

    The audit returns F and what it solved: the exact one the dense pieces
    it read or built, which a dense majorant anchored there reuses.
    """
    if problem.m <= DENSE_LIMIT:

        def exact(theta, solved):
            pieces = _pieces_at(problem, theta, solved)
            return eval_F_exact(problem, theta, pieces).value, pieces

        return exact
    w = rademacher_probes(problem.m, AUDIT_PROBES, seed, "audit")
    k = min(AUDIT_K, problem.m)
    return lambda theta, solved: (
        eval_F_slq(problem, theta, w, k_steps=k, pcg_tol=pcg_tol).value,
        solved,
    )


def m3c_optimize(
    problem,
    theta0=None,
    outer_iters=100,
    n_probes=24,
    seed=0,
    tol=1e-4,
    inner_iters=50,
    inner_tol=1e-6,
    pcg_tol=1e-8,
    pcg_maxit=500,
):
    """Stochastic majorize-minimize with per-anchor Monte-Carlo surrogates.

    The outer loop, its audit and its stop test are ``_m3c_chain``'s.  Per
    outer iteration t, m3c draws a fresh probe block seeded by (seed, t)
    and pays the anchor solves.  A rejected proposal says the sample was
    too small to trust, so the probe budget doubles.  It stops at m, where
    the exact majorant takes the sample's place.  Up to ``DENSE_LIMIT``
    rows it is the exact chain's (``mm_optimize_exact`` is this loop
    started at m), from one Cholesky factorization of Psi_t, with no probe
    block, preconditioner or CG solve; above, the probes are the m
    canonical ones, whose sampled trace is exact.  The audit is F itself,
    from the dense oracle, when m is at most ``DENSE_LIMIT``.  It reads a
    dense proposal's own factorization and hands the one it builds for a
    sampled proposal, or for the start, to the chain, so each theta is
    factored once.  Above that it is the SLQ estimate
    ``eval_F_slq`` over one block of ``AUDIT_PROBES`` (32) Rademacher probes
    drawn from ``(seed, "probes", "audit")``, at Lanczos depth
    min(``AUDIT_K``, m) with ``AUDIT_K`` = 30; the block is shared across all
    iterations, which keeps rejections comparable.

    Every CG solve is preconditioned by a randomized Nystrom preconditioner
    of rank ``min(64, m)`` (``objective.PRECOND_RANK``), built once per
    anchor with the noise variance as its shift (Frangella, Tropp & Udell
    2023); it serves the anchor's probe solves and every misfit solve at
    that anchor, over the outer iterations that follow a rejection or a
    null step too.
    Rank 64 holds all of A Q A^T on the quick-start tomo problem (n = 64),
    where rank 32 left CG to find the rest of its spectrum.  The preconditioner changes only how fast CG reaches
    ``pcg_tol``, not the sampled majorant or the audit.  Inside the inner
    minimization a trial point whose misfit solve fails is backtracked from
    by the line search and counted in ``OuterRecord.failed_trials``; a
    failed solve at an anchor is a :class:`NumericalError`.

    Returns the audited chain with per-iteration cost records.
    """
    return _m3c_chain(
        problem, box_start(problem, theta0), None, int(n_probes), seed=seed,
        outer_iters=outer_iters, tol=tol, inner_iters=inner_iters,
        inner_tol=inner_tol, pcg_tol=pcg_tol, pcg_maxit=pcg_maxit,
    )
