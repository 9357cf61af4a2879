"""Sample-size and step-count calculators for the stochastic estimators.

Everything here is conservative arithmetic on a handful of spectral
constants of the covariance family over the feasible box:

* ``alpha``/``beta`` — uniform eigenvalue bounds of Psi(theta);
* ``lipschitz`` — a Lipschitz constant of theta -> Psi(theta) in spectral
  norm (0 for a theta-independent Psi);
* optional exact suprema of the Frobenius and spectral norms, defaulting to
  the surrogates sqrt(m) * beta and beta.

From these, the calculators answer three planning questions:

* how deep must Lanczos run for a relative quadrature accuracy
  (``lanczos_steps_bound``);
* how many probes make the fixed-sample surface uniformly accurate over the
  whole box with high probability (``slq_samples_bound`` /
  ``uniform_slq_plan``), via a covering argument whose resolution eta
  shrinks with the Lipschitz constant;
* how many probes per outer iteration keep a geometrically tightening
  majorize-minimize chain on budget (``m3c_sample_schedule``).

The numbers are worst-case and typically far above what practice needs;
they are budgets, not predictions.  ``estimate_spectral_constants`` fills
in the constants empirically (sampled extremes — estimates, not
certificates): exactly from the dense oracle's Psi when the problem is
small enough for it, matrix-free otherwise.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .lanczos import lanczos_decompose
from .model import build_psi
from .objective import dense_objective_pieces
from .operators import DENSE_LIMIT
from .probes import rademacher_probes
from .rng import stream

__all__ = [
    "SpectralConstants",
    "SlqPlan",
    "M3cSchedule",
    "covering_number_log",
    "lanczos_steps_bound",
    "slq_samples_bound",
    "uniform_slq_plan",
    "m3c_sample_schedule",
    "estimate_spectral_constants",
]


@dataclass(frozen=True)
class SpectralConstants:
    """Uniform spectral data of the covariance family over the box.

    ``frob_max`` and ``two_max`` are optional exact suprema of |Psi|_F and
    |Psi|_2; when absent the calculators fall back to the always-valid
    surrogates sqrt(m)*beta and beta.
    """

    alpha: float
    beta: float
    lipschitz: float
    frob_max: float = None
    two_max: float = None

    def __post_init__(self):
        if not (0.0 < self.alpha <= self.beta):
            raise ValueError("need 0 < alpha <= beta")
        if self.lipschitz < 0.0:
            raise ValueError("lipschitz constant cannot be negative")
        if self.frob_max is not None and self.frob_max < self.beta - 1e-12:
            raise ValueError("frob_max cannot be smaller than beta")
        if self.two_max is not None and not (
            self.alpha - 1e-12 <= self.two_max <= self.beta + 1e-12
        ):
            raise ValueError("two_max must lie between alpha and beta")

    @property
    def kappa(self):
        return self.beta / self.alpha

    def varsigma_frob(self, m):
        """sup |Psi|_F / alpha, with the sqrt(m)*beta surrogate by default."""
        sup = self.frob_max if self.frob_max is not None else math.sqrt(m) * self.beta
        return sup / self.alpha

    def varsigma_two(self):
        """sup |Psi|_2 / alpha, with the beta surrogate by default."""
        sup = self.two_max if self.two_max is not None else self.beta
        return sup / self.alpha


def _exp_or_inf(log_x):
    """exp(log_x), or inf where that overflows a float."""
    try:
        return math.exp(log_x)
    except OverflowError:
        return math.inf


def covering_number_log(radius, eta, p):
    """log of the euclidean-ball covering bound: p * ln(3 r / eta) for eta <= r.

    A resolution coarser than the radius needs a single point, so the log
    bound is 0 there; ``eta = inf`` (no smoothness requirement) also gives 0.
    """
    if radius <= 0.0 or eta <= 0.0 or p < 1:
        raise ValueError("need radius > 0, eta > 0, p >= 1")
    if eta > radius:
        return 0.0
    return p * math.log(3.0 * radius / eta)


def lanczos_steps_bound(kappa, m, eps):
    """Lanczos depth ensuring relative log-determinant quadrature error eps.

    K = ceil( sqrt(kappa+1)/4 * ln(4 m (sqrt(kappa+1)+1) ln(2 kappa) / eps) ),
    clamped to at least 1.  Valid for condition numbers kappa >= 1.
    """
    if kappa < 1.0:
        raise ValueError("condition number must be at least 1")
    if m < 1 or eps <= 0.0:
        raise ValueError("need m >= 1 and eps > 0")
    root = math.sqrt(kappa + 1.0)
    arg = 4.0 * m * (root + 1.0) * math.log(2.0 * kappa) / eps
    if arg <= 1.0:
        return 1
    return max(1, math.ceil(0.25 * root * math.log(arg)))


def _uniform_log_gamma(eps, m, p, radius, constants):
    if constants.lipschitz == 0.0:
        return 0.0, math.inf
    eta = constants.alpha * eps / (5.0 * m * constants.lipschitz)
    return covering_number_log(radius, eta, p), eta


def slq_samples_bound(eps, delta, m, p, radius, constants):
    """Probes for uniform eps-accuracy of the fixed-sample surface.

    N = ceil( 32 (25/4 eps^-2 sF^2 + 5/2 eps^-1 s2) * ln(2 gamma / delta) )
    with sF, s2 the alpha-normalized norm suprema and gamma the covering
    bound at resolution eta = alpha eps / (5 m L).  A theta-independent
    Psi (L = 0) needs no covering: gamma = 1.
    """
    if eps <= 0.0 or not (0.0 < delta < 1.0):
        raise ValueError("need eps > 0 and delta in (0, 1)")
    sf = constants.varsigma_frob(m)
    s2 = constants.varsigma_two()
    log_gamma, _ = _uniform_log_gamma(eps, m, p, radius, constants)
    log_term = math.log(2.0 / delta) + log_gamma
    raw = 32.0 * (6.25 * sf**2 / eps**2 + 2.5 * s2 / eps) * log_term
    return int(math.ceil(raw))


@dataclass(frozen=True)
class SlqPlan:
    """A complete budget for one uniform fixed-sample approximation."""

    n_probes: int
    k_steps: int
    eps: float
    delta: float
    eta: float
    log_gamma: float

    @property
    def gamma(self):
        return _exp_or_inf(self.log_gamma)


def uniform_slq_plan(eps, delta, m, p, radius, constants):
    """Pair the probe count with a Lanczos depth budgeted at 0.4 eps."""
    n = slq_samples_bound(eps, delta, m, p, radius, constants)
    k = lanczos_steps_bound(constants.kappa, m, 0.4 * eps)
    log_gamma, eta = _uniform_log_gamma(eps, m, p, radius, constants)
    return SlqPlan(
        n_probes=n,
        k_steps=k,
        eps=float(eps),
        delta=float(delta),
        eta=eta,
        log_gamma=log_gamma,
    )


@dataclass(frozen=True)
class M3cSchedule:
    """Per-iteration probe budgets for a geometrically tightening chain."""

    n_probes: tuple
    eps: tuple
    delta: tuple
    log_gamma: tuple
    rho: float


def m3c_sample_schedule(eps0, delta, rho, n_iters, m, p, radius, constants):
    """Probe counts N_t for outer iterations t = 0 .. n_iters-1.

    Accuracy and failure budgets tighten geometrically, eps_t = eps0 rho^t
    and delta_t = delta0 rho^t with delta0 = delta (1 - rho), so the total
    failure probability telescopes below delta.  Each iteration needs

        N_t = ceil( 16 (2 sF^2 + eps_t s2) / eps_t^2 * ln(2 gamma_t / delta_t) ),

    with gamma_t the covering bound at resolution eta_t = eps_t alpha / (4 m L):
    log gamma_t = p ln(3 r / eta_t) = p ln(12 r m L / (eps_t alpha)) when that
    is positive, and 0 otherwise (and for a theta-independent Psi, L = 0).
    """
    if not (0.0 < rho < 1.0):
        raise ValueError("rho must be in (0, 1)")
    if eps0 <= 0.0 or not (0.0 < delta < 1.0) or n_iters < 1:
        raise ValueError("need eps0 > 0, delta in (0, 1), n_iters >= 1")
    sf = constants.varsigma_frob(m)
    s2 = constants.varsigma_two()
    delta0 = delta * (1.0 - rho)
    eps_t, delta_t, log_gammas, counts = [], [], [], []
    for t in range(n_iters):
        e = eps0 * rho**t
        d = delta0 * rho**t
        if constants.lipschitz == 0.0:
            log_gamma = 0.0
        else:
            arg = 12.0 * radius * m * constants.lipschitz / (e * constants.alpha)
            log_gamma = p * math.log(arg) if arg > 1.0 else 0.0
        raw = 16.0 * (2.0 * sf**2 + e * s2) / e**2 * (
            math.log(2.0 / d) + log_gamma
        )
        eps_t.append(e)
        delta_t.append(d)
        log_gammas.append(log_gamma)
        counts.append(int(math.ceil(raw)))
    return M3cSchedule(
        n_probes=tuple(counts),
        eps=tuple(eps_t),
        delta=tuple(delta_t),
        log_gamma=tuple(log_gammas),
        rho=float(rho),
    )


# ---------------------------------------------------------------------------
# empirical constants


# estimate_spectral_constants' budgets: at most this many box vertices
# (all of them when there are no more), and on the matrix-free path the
# Lanczos depth for the eigenvalue extremes (capped at m), the power
# iterations per secant and the Hutchinson probes per Frobenius norm
MAX_VERTICES = 32
LANCZOS_K = 30
POWER_ITERS = 40
FROB_PROBES = 16


def _sample_thetas(box, n_samples, seed):
    """Box vertices (which realize the extremes for monotone families) plus
    seeded interior points."""
    p = box.p
    thetas = []
    if 2**p <= MAX_VERTICES:
        for corner in itertools.product(*zip(box.lower, box.upper)):
            thetas.append(np.array(corner, dtype=float))
    else:
        rng = stream(seed, "constants", "vertices")
        for _ in range(MAX_VERTICES):
            pick = rng.integers(0, 2, size=p).astype(bool)
            thetas.append(np.where(pick, box.upper, box.lower).astype(float))
    rng = stream(seed, "constants", "interior")
    for _ in range(n_samples):
        thetas.append(box.sample(rng))
    return thetas


def _power_norm(apply, m, iters, rng):
    """Spectral norm of a symmetric operator, given by its apply, by power iteration."""
    v = rng.standard_normal(m)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iters):
        w = apply(v)
        est = float(np.linalg.norm(w))
        if est == 0.0:
            return 0.0
        v = w / est
    return est


def estimate_spectral_constants(problem, n_samples=8, seed=0):
    """Empirical SpectralConstants for a problem's covariance family.

    Evaluates Psi at up to ``MAX_VERTICES`` box vertices and ``n_samples``
    seeded interior points; ``alpha``/``beta`` are the observed eigenvalue
    extremes, ``frob_max``/``two_max`` the observed norm maxima, and
    ``lipschitz`` the steepest observed secant |Psi(t) - Psi(t')|_2 / |t - t'| over sample
    pairs.  Up to ``DENSE_LIMIT`` rows each sample is measured exactly on
    the dense oracle's Psi; larger problems use Lanczos extremes
    (``LANCZOS_K`` steps), Hutchinson Frobenius estimates (``FROB_PROBES``
    probes) and power iteration on differences (``POWER_ITERS`` steps).
    Sampled extremes are diagnostics, not certified bounds.
    """
    thetas = _sample_thetas(problem.box, n_samples, seed)
    alpha = math.inf
    beta = 0.0
    frob_max = 0.0
    if problem.m <= DENSE_LIMIT:
        mats = [dense_objective_pieces(problem, th).psi for th in thetas]
        for mat in mats:
            lam = np.linalg.eigvalsh(mat)
            alpha = min(alpha, float(lam[0]))
            beta = max(beta, float(lam[-1]))
            frob_max = max(frob_max, float(np.linalg.norm(mat)))
        lipschitz = 0.0
        for (ta, ma), (tb, mb) in itertools.combinations(zip(thetas, mats), 2):
            dt = float(np.linalg.norm(ta - tb))
            if dt == 0.0:
                continue
            dpsi = float(np.abs(np.linalg.eigvalsh(ma - mb)).max())
            lipschitz = max(lipschitz, dpsi / dt)
    else:
        ops = [build_psi(problem, th) for th in thetas]
        k = min(LANCZOS_K, problem.m)
        rng = stream(seed, "constants", "vectors")
        for op in ops:
            v = rng.standard_normal((op.m, 1))
            decomp = lanczos_decompose(op, v, k)
            ritz = np.linalg.eigvalsh(decomp.tridiagonal())
            alpha = min(alpha, float(ritz[0]))
            beta = max(beta, float(ritz[-1]))
            w = rademacher_probes(op.m, FROB_PROBES, seed, "constants")
            frob_sq = float(np.mean(np.sum(op.matmat(w) ** 2, axis=0)))
            frob_max = max(frob_max, math.sqrt(frob_sq))
        lipschitz = 0.0
        pairs = list(itertools.combinations(range(len(thetas)), 2))
        if len(pairs) > 24:
            idx = stream(seed, "constants", "pairs").permutation(len(pairs))[:24]
            pairs = [pairs[i] for i in idx]
        for ia, ib in pairs:
            dt = float(np.linalg.norm(thetas[ia] - thetas[ib]))
            if dt == 0.0:
                continue
            a, b = ops[ia], ops[ib]
            dpsi = _power_norm(
                lambda v: a.matvec(v) - b.matvec(v), problem.m, POWER_ITERS, rng
            )
            lipschitz = max(lipschitz, dpsi / dt)
    two_max = beta
    frob_max = max(frob_max, two_max)
    return SpectralConstants(
        alpha=alpha,
        beta=beta,
        lipschitz=lipschitz,
        frob_max=frob_max,
        two_max=two_max,
    )
