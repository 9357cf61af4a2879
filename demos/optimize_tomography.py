"""
Hyperparameter estimation on the travel-time tomography problem
===============================================================

Runs both optimizers on the same instance — the majorize-minimize chain
(m3c) and the sample-average approximation baseline (saa) — then compares
the recovered hyperparameters, the audited objective values, the forward-
map cost ledger, and the reconstruction error against a naive start.
"""

import numpy as np

from hypermarg import (
    eval_F_exact,
    m3c_optimize,
    make_test_problem,
    reconstruct,
    saa_optimize,
)


def recon_error(problem, theta):
    x = reconstruct(problem, theta)
    return np.linalg.norm(x - problem.x_true) / np.linalg.norm(problem.x_true)


problem = make_test_problem("tomo", s=6, n_src=5, n_rec=6, seed=1)
theta0 = problem.box.center()
print(f"problem: {problem.name}, m={problem.m} rays, n={problem.n} pixels")
print(f"theta_true = {np.array2string(problem.theta_true, precision=4)}")
print(f"theta0     = {np.array2string(theta0, precision=4)}  (box center)")
print()

# --- majorize-minimize -------------------------------------------------
before = problem.counters.snapshot()
res_mm = m3c_optimize(problem, theta0, outer_iters=20, n_probes=16, seed=0,
                      inner_iters=2, tol=1e-5)
mm_cost = {k: problem.counters.snapshot()[k] - before[k] for k in ("a", "q")}

print("m3c outer iterations:")
print(f"{'iter':>4}  {'F (audited)':>14}  {'rel step':>10}  {'probes':>6}")
for rec in res_mm.records:
    # a rejected proposal leaves rel_step unset and doubles the probes
    step = f"{rec.rel_step:>10.2e}" if rec.accepted else f"{'rejected':>10}"
    print(f"{rec.outer_iter:>4}  {rec.f_audit:>14.6f}  {step}  "
          f"{rec.n_probes:>6}")
print(f"converged={res_mm.converged}  "
      f"theta_hat={np.array2string(res_mm.theta, precision=4)}")
print()

# --- sample-average approximation --------------------------------------
before = problem.counters.snapshot()
res_saa = saa_optimize(problem, theta0, n_probes=16, k_steps=20, seed=0,
                       max_iters=60, tol=1e-6)
saa_cost = {k: problem.counters.snapshot()[k] - before[k] for k in ("a", "q")}

print(f"saa: {res_saa.iterations} iterations, converged={res_saa.converged}")
print(f"     theta_hat={np.array2string(res_saa.theta, precision=4)}")
print()

# --- scorecard ---------------------------------------------------------
f_true = eval_F_exact(problem, problem.theta_true).value
print(f"{'':>12}  {'F':>12}  {'A matvecs':>10}  {'Q matvecs':>10}")
print(f"{'m3c':>12}  {eval_F_exact(problem, res_mm.theta).value:>12.6f}  "
      f"{mm_cost['a']:>10}  {mm_cost['q']:>10}")
print(f"{'saa':>12}  {eval_F_exact(problem, res_saa.theta).value:>12.6f}  "
      f"{saa_cost['a']:>10}  {saa_cost['q']:>10}")
print(f"{'theta_true':>12}  {f_true:>12.6f}")
print()
print(f"reconstruction error at box center: {recon_error(problem, theta0):.4f}")
print(f"reconstruction error at m3c  theta: {recon_error(problem, res_mm.theta):.4f}")
print(f"reconstruction error at saa  theta: {recon_error(problem, res_saa.theta):.4f}")
