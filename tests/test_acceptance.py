"""Acceptance suite: the nine shipping criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  Every criterion is self-contained, uses frozen seeds, and
asserts both the property and its stated runtime budget.
"""

import time

import numpy as np

from hypermarg.bounds import lanczos_steps_bound, slq_samples_bound
from hypermarg.harness import majorant_slice, run_experiment
from hypermarg.lanczos import slq_logdet_batch
from hypermarg.metrics import read_csv
from hypermarg.mm import (
    build_surrogate,
    exact_surrogate,
    m3c_optimize,
    mm_optimize_exact,
)
from hypermarg.model import build_psi, reconstruct
from hypermarg.objective import (
    dense_objective_pieces,
    eval_F_exact,
    eval_F_slq,
    grad_F_exact,
)
from hypermarg.probes import rademacher_probes
from hypermarg.problems import make_test_problem
from hypermarg.randmat import logdet_test_matrix
from hypermarg.rng import stream
from hypermarg.saa import saa_optimize

from fd import grad_fd_central


def _sample_interior(box, rng):
    """Uniform draw from the box shrunk by a tenth of its span per side."""
    span = box.upper - box.lower
    return box.lower + 0.1 * span + 0.8 * span * rng.random(box.p)


def _verdict(num, desc, ok, elapsed, budget_s):
    status = "PASS" if (ok and elapsed < budget_s) else "FAIL"
    print(f"[criterion {num}] {desc}: {status} ({elapsed:.1f}s / {budget_s:.0f}s budget)")
    assert ok, f"criterion {num} property failed: {desc}"
    assert elapsed < budget_s, f"criterion {num} exceeded its runtime budget"


def test_criterion_1_majorant_correctness():
    t0 = time.time()
    worst_tangency = 0.0
    worst_margin = np.inf
    for kind, kw in (("tomo", dict(s=8, n_src=8, n_rec=9)), ("deblur", dict(s=16))):
        problem = make_test_problem(kind, **kw)
        rng = stream(42, "accept1", kind)
        for _ in range(5):
            anchor = _sample_interior(problem.box, rng)
            pieces = dense_objective_pieces(problem, anchor)
            f_anchor = eval_F_exact(problem, anchor).value
            g_anchor = exact_surrogate(problem, anchor, anchor, anchor=pieces)
            worst_tangency = max(worst_tangency, abs(g_anchor - f_anchor))
            for _ in range(200):
                theta = problem.box.sample(rng)
                f = eval_F_exact(problem, theta).value
                g = exact_surrogate(problem, theta, anchor, anchor=pieces)
                worst_margin = min(worst_margin, g - f)
    ok = worst_margin >= -1e-9 and worst_tangency <= 1e-10
    _verdict(
        1,
        f"majorant dominates (margin {worst_margin:.1e}) and is tangent "
        f"(gap {worst_tangency:.1e})",
        ok,
        time.time() - t0,
        60,
    )


def test_criterion_2_deterministic_mm_descent():
    t0 = time.time()
    ok = True
    for kind, kw, seeds in (
        ("tomo", dict(s=8, n_src=8, n_rec=9), range(5)),
        ("deblur", dict(s=16), range(3)),
    ):
        for seed in seeds:
            problem = make_test_problem(kind, seed=seed, **kw)
            out = mm_optimize_exact(problem, outer_iters=6, inner_iters=40)
            f_seq = np.array([r.f_audit for r in out.records])
            ok = ok and bool(np.all(np.diff(f_seq) <= 0.0))
    _verdict(2, "exact-surrogate outer loop is nonincreasing on every seed", ok, time.time() - t0, 60)


def test_criterion_3_slq_fidelity():
    t0 = time.time()
    eps, delta = 0.5, 0.1
    failures = 0
    trials = 0
    for i in range(20):
        m = 8 + (i % 9)
        kappa = 1.5 + 1.5 * (i % 5) / 4
        mat = logdet_test_matrix(m, kappa, seed=100 + i)
        k_steps = min(lanczos_steps_bound(kappa, m, eps), m)
        n_probes = slq_samples_bound(eps, delta, m, p=1, radius=1.0, constants=mat.constants())
        for trial in range(10):
            w = rademacher_probes(m, n_probes, 200 + i, "accept3", trial)
            estimate = slq_logdet_batch(mat.mat, w, k=k_steps).mean()
            failures += abs(estimate - mat.logdet) > eps
            trials += 1
    ok = trials == 200 and failures <= delta * trials
    _verdict(3, f"bound-sized quadrature: {failures}/{trials} misses at eps={eps}", ok, time.time() - t0, 120)


def test_criterion_4_hutchinson_variance():
    t0 = time.time()
    gauss = stream(9, "symmetric-matrix").standard_normal((25, 25))
    b_mat = 0.5 * (gauss + gauss.T)
    oracle = 2.0 * (np.linalg.norm(b_mat, "fro") ** 2 - np.sum(np.diag(b_mat) ** 2))
    w = np.where(stream(0, "accept4").random((25, 100000)) < 0.5, -1.0, 1.0)
    samples = np.einsum("mn,mn->n", w, b_mat @ w)
    deviation = abs(samples.var() - oracle) / oracle
    _verdict(4, f"single-probe variance off-diagonal law, deviation {deviation:.1%}", deviation <= 0.10, time.time() - t0, 60)


def test_criterion_5_gradient_triangle():
    t0 = time.time()
    worst_exact = 0.0
    worst_surrogate = 0.0
    cases = (
        ("identity", dict(m=48)),
        ("deblur", dict(s=8)),
        ("tomo", dict(s=6, n_src=5, n_rec=6)),
        ("superres", dict(s=8, decim=2, frames=2)),
    )
    for kind, kw in cases:
        problem = make_test_problem(kind, **kw)
        rng = stream(7, "accept5", kind)
        for i in range(5):
            theta = _sample_interior(problem.box, rng)
            grad = grad_F_exact(problem, theta)
            fd = grad_fd_central(lambda t: eval_F_exact(problem, t).value, theta, problem.box)
            worst_exact = max(worst_exact, np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(fd)))

            anchor = _sample_interior(problem.box, rng)
            probes = rademacher_probes(problem.m, 8, 11, kind, i)
            surrogate = build_surrogate(problem, anchor, probes, pcg_tol=1e-12)
            gs = surrogate.value(theta).gradient()
            fds = grad_fd_central(lambda t: surrogate.value(t).value, theta, problem.box)
            worst_surrogate = max(worst_surrogate, np.linalg.norm(gs - fds) / max(1.0, np.linalg.norm(fds)))
    ok = worst_exact <= 1e-5 and worst_surrogate <= 1e-4
    _verdict(
        5,
        f"exact grad vs FD {worst_exact:.1e}; frozen-probe surrogate grad vs FD {worst_surrogate:.1e}",
        ok,
        time.time() - t0,
        60,
    )


def test_criterion_6_optimizer_quality():
    t0 = time.time()
    problem = make_test_problem("tomo", s=8, n_src=8, n_rec=9, seed=0)
    grid_1 = np.geomspace(problem.box.lower[0], problem.box.upper[0], 20)
    grid_2 = np.linspace(problem.box.lower[1], problem.box.upper[1], 20)
    grid_3 = np.linspace(problem.box.lower[2], problem.box.upper[2], 20)
    f_grid = min(
        eval_F_exact(problem, np.array([a, b, c])).value
        for a in grid_1
        for b in grid_2
        for c in grid_3
    )

    def recon_error(theta):
        xhat = reconstruct(problem, theta)
        return float(np.linalg.norm(xhat - problem.x_true) / np.linalg.norm(problem.x_true))

    rel0 = recon_error(problem.box.center())
    runs = {
        "m3c(2)": m3c_optimize(problem, outer_iters=25, n_probes=16, seed=0, inner_iters=2, tol=1e-5),
        "m3c(15)": m3c_optimize(problem, outer_iters=25, n_probes=16, seed=0, inner_iters=15, tol=1e-5),
        "saa": saa_optimize(problem, n_probes=16, k_steps=20, seed=0, max_iters=60, tol=1e-6),
    }
    gaps = {}
    ok = True
    for label, out in runs.items():
        f_hat = eval_F_exact(problem, out.theta).value
        gaps[label] = (f_hat - f_grid) / abs(f_grid)
        ok = ok and gaps[label] <= 0.01 and recon_error(out.theta) < rel0
    gap_text = ", ".join(f"{k} {v:+.2%}" for k, v in gaps.items())
    _verdict(6, f"optimizers vs 20^3 grid oracle ({gap_text}); reconstruction improves", ok, time.time() - t0, 300)


def test_criterion_7_excess_risk_inequality():
    t0 = time.time()
    problem = make_test_problem("tomo", s=5, n_src=4, n_rec=6, seed=0)
    base = problem.box.center()
    grid = np.linspace(problem.box.lower[0], 0.5, 40)
    thetas = [np.concatenate(([g], base[1:])) for g in grid]
    f_true = np.array([eval_F_exact(problem, th).value for th in thetas])
    holds = 0
    for seed in range(20):
        probes = rademacher_probes(problem.m, 4, seed, "excess")
        f_hat = np.array(
            [eval_F_slq(problem, th, probes, k_steps=8).value for th in thetas]
        )
        sup_dev = np.max(np.abs(f_true - f_hat))
        excess = f_true[np.argmin(f_hat)] - f_true.min()
        holds += excess <= 2.0 * sup_dev
    _verdict(7, f"excess risk <= 2 sup-deviation on {holds}/20 seeds", holds == 20, time.time() - t0, 60)


def test_criterion_8_majorant_slice_csv(tmp_path):
    t0 = time.time()
    problem = make_test_problem("tomo", s=5, n_src=4, n_rec=6, seed=0)
    anchor = [float(problem.theta_true[0]), 0.6, 0.3]
    ok = True
    for axis in (1, 2):
        outdir = tmp_path / f"axis{axis}"
        grid_min = anchor[axis]  # grid starts on the anchor: touch is visible
        grid_max = float(problem.box.upper[axis])
        cfg = {
            "problem": {"kind": "tomo", "s": 5, "n_src": 4, "n_rec": 6, "seed": 0},
            "slice": {
                "anchor": anchor,
                "axis": axis,
                "grid_min": grid_min,
                "grid_max": grid_max,
                "grid_count": 60,
            },
            "output": {"directory": str(outdir)},
        }
        majorant_slice(cfg)
        names, rows = read_csv(outdir / "slice.csv")
        f = np.array([float(r["F"]) for r in rows])
        g = np.array([float(r["G"]) for r in rows])
        ok = ok and names == [f"theta_{axis}", "F", "G"]
        ok = ok and bool(np.all(np.isfinite(f)) and np.all(np.isfinite(g)))
        ok = ok and bool(np.all(g >= f - 1e-9))
        ok = ok and abs(g[0] - f[0]) <= 1e-9 * max(1.0, abs(f[0]))
    _verdict(8, "slice CSV: G >= F with tangency at the anchor, both free axes", ok, time.time() - t0, 60)


def test_criterion_9_counter_ledger(tmp_path):
    t0 = time.time()
    # (a) metrics totals equal operator-ledger deltas around the same run
    cfg = {
        "problem": {"kind": "tomo", "s": 5, "n_src": 4, "n_rec": 6, "seed": 0},
        "method": {"name": "m3c", "outer_iters": 4, "n_probes": 8, "seed": 2},
        "output": {"directory": str(tmp_path / "run")},
    }
    summary = run_experiment(cfg)
    _, rows = read_csv(tmp_path / "run" / "metrics.csv")
    csv_a = sum(int(r["matvecs_A"]) for r in rows)
    csv_q = sum(int(r["matvecs_Q"]) for r in rows)

    problem = make_test_problem("tomo", s=5, n_src=4, n_rec=6, seed=0)
    before = problem.counters.snapshot()
    m3c_optimize(problem, outer_iters=4, n_probes=8, seed=2)
    after = problem.counters.snapshot()
    ledger_ok = (
        csv_a == after["a"] - before["a"]
        and csv_q == after["q"] - before["q"]
        and csv_a == summary["total_matvecs_A"]
        and csv_q == summary["total_matvecs_Q"]
    )

    # (b) one Psi application costs exactly 2 A-matvecs + 1 Q-matvec
    fresh = make_test_problem("tomo", s=5, n_src=4, n_rec=6, seed=0)
    psi = build_psi(fresh, fresh.box.center())
    base = fresh.counters.snapshot()
    psi.matvec(np.ones(fresh.m))
    delta = {k: v - base[k] for k, v in fresh.counters.snapshot().items()}
    cost_ok = delta["a"] == 2 and delta["q"] == 1 and delta["psi"] == 1

    _verdict(
        9,
        f"metrics.csv totals equal ledger deltas (A {csv_a}, Q {csv_q}); "
        "one Psi matvec = 2A + 1Q",
        ledger_ok and cost_ok,
        time.time() - t0,
        60,
    )
