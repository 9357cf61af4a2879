"""
Stochastic log-determinant estimation
=====================================

Hutchinson probing with a Lanczos quadrature rule turns log det M into an
average of per-probe quadratic forms w^T log(M) w.  This script builds a
seeded test matrix whose log-determinant is known exactly, sweeps the
number of probes, and compares the observed error against the a-priori
sample-size bound for the same accuracy target.

Run with:  python3 demos/trace_estimation.py
"""

import numpy as np

from hypermarg import lanczos_steps_bound, logdet_test_matrix, slq_samples_bound
from hypermarg.lanczos import slq_logdet_batch
from hypermarg.probes import rademacher_probes

# ----------------------------------------------------------------------
# A symmetric positive definite matrix with a known spectrum: the log
# eigenvalues are a sorted uniform sample rescaled to run exactly from 0 to
# log kappa, so logdet is the sum of those logs and never needs a dense
# factorization to check against.
m = 64
kappa = 20.0
mat = logdet_test_matrix(m, kappa, seed=7)
print(f"test matrix: m={m}, kappa={kappa}, exact logdet = {mat.logdet:.6f}")

# How deep must the quadrature go?  The step bound depends only on the
# condition number and the tolerance, not on the probes.
eps = 0.25
k = min(lanczos_steps_bound(kappa, m, eps), m)
print(f"Lanczos steps for eps={eps}: k = {k}")

# ----------------------------------------------------------------------
# Error decay as the probe count grows.  Each row averages over a few
# independent probe draws so the trend is visible through the noise.
print()
print(f"{'N':>6}  {'mean |err|':>12}  {'max |err|':>12}")
rng_trials = range(5)
for n_probes in (4, 16, 64, 256, 1024):
    errs = []
    for trial in rng_trials:
        w = rademacher_probes(m, n_probes, 3, "demo", trial)
        est = float(slq_logdet_batch(mat.mat, w, k=k).mean())
        errs.append(abs(est - mat.logdet))
    print(f"{n_probes:>6}  {np.mean(errs):>12.4e}  {np.max(errs):>12.4e}")

# ----------------------------------------------------------------------
# The worst-case guarantee for the same target.  The bound is deliberately
# conservative: it must hold for every matrix with these spectral
# constants, while the sweep above shows one friendly instance.
n_bound = slq_samples_bound(eps, 0.05, m, p=1, radius=1.0, constants=mat.constants())
print()
print(f"probes guaranteeing |err| <= {eps} with 95% confidence: N = {n_bound}")
print("(observed errors at far smaller N sit well inside the target —")
print(" the bound covers the worst matrix in the class, not this one)")
