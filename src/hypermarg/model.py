"""Hierarchical model containers: box, priors, problems, and Psi.

A problem bundles the pieces of the hierarchical linear-Gaussian model

    x ~ N(mu_x, Q(psi)),   e ~ N(0, R(psi)),   b = A(y) x + e,

with theta = (psi, y) the stacked hyperparameters.  Everything downstream
works through :class:`ProblemSpec`: it owns the operator builders, the data,
the feasible box, the hyperprior, and the shared matvec ledger that makes
reported costs exact.

The marginal covariance  Psi(theta) = A(y) Q(psi) A(y)^T + R(psi)  is exposed
as :class:`PsiOperator`; one application costs two A-applications (forward
plus adjoint) and one Q-application by construction.
"""

from dataclasses import dataclass, field

import numpy as np

from .operators import DENSE_LIMIT, MatvecCounter, NumericalError, SymOp
from .pcg import pcg_solve
from .rng import stream

__all__ = [
    "Box",
    "HyperPrior",
    "CounterLedger",
    "ProblemSpec",
    "PsiOperator",
    "build_psi",
    "synthesize_data",
    "reconstruct",
]


@dataclass(frozen=True)
class Box:
    """Axis-aligned feasible region for theta."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("box bounds must be one-dimensional arrays of equal length")
        if not np.all(lower < upper):
            raise ValueError("box must have lower < upper in every coordinate")

    @property
    def p(self):
        return self.lower.shape[0]

    def contains(self, theta, slack=1e-9):
        theta = np.asarray(theta, dtype=float)
        scale = np.maximum(1.0, np.maximum(np.abs(self.lower), np.abs(self.upper)))
        return bool(
            np.all(theta >= self.lower - slack * scale)
            and np.all(theta <= self.upper + slack * scale)
        )

    def project(self, theta):
        return np.clip(np.asarray(theta, dtype=float), self.lower, self.upper)

    def radius(self):
        """Half the box diagonal — the covering radius of the feasible set."""
        return 0.5 * float(np.linalg.norm(self.upper - self.lower))

    def center(self):
        return 0.5 * (self.lower + self.upper)

    def sample(self, rng):
        return self.lower + (self.upper - self.lower) * rng.random(self.p)

    def sample_interior(self, rng, margin=0.1):
        """Uniform draw from the box shrunk by ``margin`` per side."""
        span = self.upper - self.lower
        lo = self.lower + margin * span
        return lo + (1.0 - 2.0 * margin) * span * rng.random(self.p)


@dataclass(frozen=True)
class HyperPrior:
    """Independent per-component hyperprior.

    Each component is one of ``("gamma", rate)`` (shape-1 gamma, i.e.
    exponential with the given rate), ``("gaussian", mean, var)``, or
    ``("uniform",)`` (improper flat; contributes nothing).  Only the
    theta-dependent part of -log density is evaluated; normalizing
    constants are dropped throughout.
    """

    families: tuple

    def __post_init__(self):
        for fam in self.families:
            if fam[0] not in ("gamma", "gaussian", "uniform"):
                raise ValueError(f"unknown hyperprior family {fam[0]!r}")

    @property
    def p(self):
        return len(self.families)

    @classmethod
    def gamma(cls, rate, p):
        return cls(tuple(("gamma", float(rate)) for _ in range(p)))

    @classmethod
    def gaussian(cls, mean, var, p):
        return cls(tuple(("gaussian", float(mean), float(var)) for _ in range(p)))

    @classmethod
    def uniform(cls, p):
        return cls(tuple(("uniform",) for _ in range(p)))

    def neglog(self, theta):
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.p,):
            raise ValueError(f"theta must have shape ({self.p},)")
        total = 0.0
        for j, fam in enumerate(self.families):
            if fam[0] == "gamma":
                if theta[j] <= 0.0:
                    raise ValueError(
                        f"theta[{j}]={theta[j]} outside the gamma hyperprior support"
                    )
                total += fam[1] * theta[j]
            elif fam[0] == "gaussian":
                total += (theta[j] - fam[1]) ** 2 / (2.0 * fam[2])
        return float(total)

    def grad_neglog(self, theta):
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.p,):
            raise ValueError(f"theta must have shape ({self.p},)")
        grad = np.zeros(self.p)
        for j, fam in enumerate(self.families):
            if fam[0] == "gamma":
                if theta[j] <= 0.0:
                    raise ValueError(
                        f"theta[{j}]={theta[j]} outside the gamma hyperprior support"
                    )
                grad[j] = fam[1]
            elif fam[0] == "gaussian":
                grad[j] = (theta[j] - fam[1]) / fam[2]
        return grad


@dataclass
class CounterLedger:
    """Shared matvec counters for one problem instance."""

    a: MatvecCounter = field(default_factory=MatvecCounter)
    q: MatvecCounter = field(default_factory=MatvecCounter)
    r: MatvecCounter = field(default_factory=MatvecCounter)
    psi: MatvecCounter = field(default_factory=MatvecCounter)

    def snapshot(self):
        return {
            "a": self.a.count,
            "q": self.q.count,
            "r": self.r.count,
            "psi": self.psi.count,
        }


class PsiOperator(SymOp):
    """Marginal covariance Psi = A Q A^T + R as a counted operator."""

    def __init__(self, a_op, q_op, r_op, counter=None):
        if q_op.m != a_op.n:
            raise ValueError("Q dimension must match the forward map's domain")
        if r_op.m != a_op.m:
            raise ValueError("R dimension must match the forward map's range")
        super().__init__(a_op.m, counter)
        self.a_op = a_op
        self.q_op = q_op
        self.r_op = r_op

    def _apply(self, v):
        # the legs go through the counted applies, one per column
        a, q, r = self.a_op, self.q_op, self.r_op
        if v.ndim == 1:
            return a.matvec(q.matvec(a.rmatvec(v))) + r.matvec(v)
        return a.matmat(q.matmat(a.rmatmat(v))) + r.matmat(v)

    def dense(self):
        a = self.a_op.dense()
        return a @ self.q_op.dense() @ a.T + self.r_op.dense()


@dataclass
class ProblemSpec:
    """A fully specified estimation problem.

    The operator builders are closures wired to ``counters``; derivative
    builders may contain ``None`` entries for components the corresponding
    operator does not depend on (treated as zero).
    """

    name: str
    n: int
    m: int
    q_dim: int
    ell: int
    mu_x: np.ndarray
    b: np.ndarray
    box: Box
    prior: HyperPrior
    a_builder: object
    q_builder: object
    r_builder: object
    da_builders: tuple = ()
    dq_builders: tuple = ()
    dr_builders: tuple = ()
    x_true: np.ndarray = None
    theta_true: np.ndarray = None
    counters: CounterLedger = field(default_factory=CounterLedger)
    meta: dict = field(default_factory=dict)

    @property
    def p(self):
        return self.q_dim + self.ell

    def split(self, theta):
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.p,):
            raise ValueError(f"theta must have shape ({self.p},), got {theta.shape}")
        return theta[: self.q_dim], theta[self.q_dim :]

    def build_a(self, y):
        return self.a_builder(np.asarray(y, dtype=float))

    def build_q(self, psi):
        return self.q_builder(np.asarray(psi, dtype=float))

    def build_r(self, psi):
        return self.r_builder(np.asarray(psi, dtype=float))

    def residual_offset(self, theta):
        """c(theta) = A(y) mu_x - b (uses a counted A application if mu_x != 0)."""
        _, y = self.split(theta)
        if np.any(self.mu_x != 0.0):
            return self.build_a(y).matvec(self.mu_x) - self.b
        return -self.b.copy()


def build_psi(problem, theta, check_box=True):
    """Assemble Psi(theta) = A Q A^T + R for a problem, with counted parts."""
    psi_params, y = problem.split(theta)
    if check_box and not problem.box.contains(theta):
        raise ValueError(f"theta {np.asarray(theta)} is outside the feasible box")
    return PsiOperator(
        problem.build_a(y),
        problem.build_q(psi_params),
        problem.build_r(psi_params),
        counter=problem.counters.psi,
    )


def synthesize_data(a_op, x_true, noise_level, seed):
    """Draw  b = A x_true + e  with e ~ N(0, sd^2 I), sd = noise_level * rms(A x).

    Returns ``(b, sd**2)``; the returned variance is the "true" noise
    hyperparameter implied by the chosen relative noise level.  Bit-identical
    for identical inputs.
    """
    clean = a_op.matvec(x_true)
    m = clean.shape[0]
    rms = float(np.linalg.norm(clean)) / np.sqrt(m)
    sd = noise_level * rms
    noise = stream(seed, "noise").standard_normal(m) * sd
    return clean + noise, sd**2


def reconstruct(problem, theta, pcg_tol=1e-8, maxit=500):
    """Posterior mean  x_hat = mu_x + Q A^T Psi^{-1} (b - A mu_x).

    A solve that does not converge within ``maxit`` raises
    :class:`NumericalError`.
    """
    psi_params, y = problem.split(theta)
    psi_op = build_psi(problem, theta)
    rhs = -problem.residual_offset(theta)
    res = pcg_solve(psi_op, rhs, tol=pcg_tol, maxit=maxit)
    if not res.converged:
        raise NumericalError(
            f"posterior-mean solve stalled at relative residual {res.relres:.3e} "
            f"after {maxit} iterations"
        )
    a_op = problem.build_a(y)
    q_op = problem.build_q(psi_params)
    return problem.mu_x + q_op.matvec(a_op.rmatvec(res.x))
