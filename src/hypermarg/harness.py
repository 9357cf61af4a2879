"""Experiment harness: configured runs, slices, benchmarks, size reports.

Every operation takes a raw config dict (usually parsed from a JSON
file), validates it, does the work, and writes its artifacts into the
configured output directory:

* ``run_experiment``   -> metrics.csv, theta_trace.csv, summary.json, xhat.bin
* ``majorant_slice``   -> slice.csv
* ``trace_bench``      -> bench.csv
* ``sample_size_report`` -> a JSON-safe dict (the caller prints it)

Contract violations raise ``ConfigError`` and numerical failures raise
``NumericalError``; the command-line wrapper maps those onto its exit
statuses.  Nothing here reads or writes global state, so the functions
are directly usable from tests and notebooks as well.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

from .bounds import (
    SpectralConstants,
    _exp_or_inf,
    lanczos_steps_bound,
    m3c_sample_schedule,
    slq_samples_bound,
    uniform_slq_plan,
)
from .config import (
    ConfigError,
    validate_bench_config,
    validate_run_config,
    validate_slice_config,
)
from .lanczos import slq_logdet_batch
from .metrics import (
    METRIC_FIELDS,
    run_rows,
    summarize_rows,
    theta_fields,
    write_csv,
    write_summary_json,
    write_theta_trace,
    write_xhat,
)
from .mm import exact_surrogate, m3c_optimize
from .model import reconstruct
from .objective import dense_objective_pieces, eval_F_exact
from .operators import DENSE_LIMIT
from .probes import rademacher_probes
from .problems import make_test_problem
from .randmat import logdet_test_matrix
from .saa import saa_optimize

__all__ = [
    "run_experiment",
    "majorant_slice",
    "trace_bench",
    "sample_size_report",
]


def _build_problem(problem_cfg):
    kw = {k: v for k, v in problem_cfg.items() if k != "kind"}
    return make_test_problem(problem_cfg["kind"], **kw)


def _resolve_theta0(problem, method_cfg):
    theta0 = method_cfg.get("theta0", "center")
    if theta0 == "center":
        return problem.box.center()
    if theta0 == "true":
        if problem.theta_true is None:
            raise ConfigError("method.theta0 = 'true' but the problem has no ground truth")
        theta0 = problem.theta_true
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.size != problem.p:
        raise ConfigError(
            f"method.theta0 has {theta0.size} entries; the problem has {problem.p} parameters"
        )
    if not problem.box.contains(theta0):
        raise ConfigError(f"method.theta0 {theta0} lies outside the feasible box")
    return theta0


def _ensure_outdir(output_cfg):
    outdir = output_cfg["directory"]
    os.makedirs(outdir, exist_ok=True)
    return outdir


def run_experiment(cfg):
    """Run one configured optimization and write its report files.

    Every validated method key except ``name`` and ``theta0`` is passed
    to the optimizer.  Per-row matvec columns in metrics.csv are counter
    deltas between the optimizer's records, the first taken from a
    snapshot just before the call, so their column sums equal the ledger
    movement of the run exactly; the reconstruction solve, with the
    method's ``pcg_tol`` and ``pcg_maxit``, happens after the last record
    and is deliberately off the books.  Returns the summary dict.
    """
    cfg = validate_run_config(cfg)
    problem = _build_problem(cfg["problem"])
    method = cfg["method"]
    outdir = _ensure_outdir(cfg["output"])
    theta0 = _resolve_theta0(problem, method)

    name = method["name"]
    kwargs = {k: v for k, v in method.items() if k not in ("name", "theta0")}

    baseline = problem.counters.snapshot()
    t0 = time.perf_counter()
    if name == "m3c":
        result = m3c_optimize(problem, theta0=theta0, **kwargs)
    else:
        result = saa_optimize(problem, theta0=theta0, **kwargs)
    runtime = time.perf_counter() - t0

    rows = run_rows(result.records, baseline)
    fields = METRIC_FIELDS + theta_fields(problem.p)
    write_csv(os.path.join(outdir, "metrics.csv"), fields, rows)
    write_theta_trace(os.path.join(outdir, "theta_trace.csv"), theta0, result.records)

    solve = {k: method[k] for k in ("pcg_tol", "pcg_maxit") if k in method}
    xhat = reconstruct(problem, result.theta, **solve)
    write_xhat(os.path.join(outdir, "xhat.bin"), xhat)
    rel_error = None
    if problem.x_true is not None:
        rel_error = float(
            np.linalg.norm(xhat - problem.x_true) / np.linalg.norm(problem.x_true)
        )

    summary = summarize_rows(
        rows,
        runtime,
        result.theta,
        rel_error=rel_error,
        extra={
            "converged": bool(result.converged),
            "f_value": float(result.f_value),
            "method": name,
            "problem": problem.name,
        },
    )
    write_summary_json(os.path.join(outdir, "summary.json"), summary)
    return summary


def majorant_slice(cfg):
    """Tabulate objective and majorant along one parameter axis.

    Writes slice.csv with columns ``theta_<axis>, F, G`` where G is the
    majorant anchored at the configured anchor point.  The anchor must be
    feasible and the grid must stay inside the box; this is a dense-audit
    diagnostic, so the problem must be small enough to materialize.
    """
    cfg = validate_slice_config(cfg)
    problem = _build_problem(cfg["problem"])
    sl = cfg["slice"]
    outdir = _ensure_outdir(cfg["output"])

    anchor = np.asarray(sl["anchor"], dtype=float)
    if anchor.size != problem.p:
        raise ConfigError(
            f"slice.anchor has {anchor.size} entries; the problem has {problem.p} parameters"
        )
    if not problem.box.contains(anchor):
        raise ConfigError("slice.anchor lies outside the feasible box")
    axis = sl["axis"]
    if axis >= problem.p:
        raise ConfigError(f"slice.axis {axis} out of range for {problem.p} parameters")
    lo, hi = problem.box.lower[axis], problem.box.upper[axis]
    if sl["grid_min"] < lo - 1e-12 or sl["grid_max"] > hi + 1e-12:
        raise ConfigError("slice grid leaves the feasible box")
    if problem.m > DENSE_LIMIT:
        raise ConfigError("majorant slices need a dense-auditable problem")

    pieces = dense_objective_pieces(problem, anchor)
    grid = np.linspace(sl["grid_min"], sl["grid_max"], sl["grid_count"])
    name = f"theta_{axis}"
    rows = []
    for g in grid:
        theta = anchor.copy()
        theta[axis] = g
        # one factorization per grid point serves F and the majorant
        here = dense_objective_pieces(problem, theta)
        f_val = eval_F_exact(problem, theta, pieces=here).value
        g_val = exact_surrogate(problem, theta, anchor, anchor=pieces, pieces=here)
        rows.append({name: float(g), "F": f_val, "G": g_val})
    write_csv(os.path.join(outdir, "slice.csv"), (name, "F", "G"), rows)
    return rows


_BENCH_FIELDS = (
    "m",
    "N",
    "K",
    "seed",
    "exact_logdet",
    "hutchinson_slq",
    "abs_err",
    "bound_eps",
)


def trace_bench(cfg):
    """Benchmark the quadrature trace estimator against an exact logdet.

    One row per trial: the estimate, its absolute error, and the accuracy
    budget it was sized for.  In ``bound`` mode N and K come from the
    sample-complexity calculators at (eps, delta); in ``sweep`` mode N
    runs over ``sweep_probes`` (K from the depth bound unless ``k_steps``
    pins it), which is how the error-vs-N decay is measured.  The ``seed``
    column is the per-trial probe stream tag.
    """
    cfg = validate_bench_config(cfg)
    tb = cfg["trace_bench"]
    outdir = _ensure_outdir(cfg["output"])

    kappa = float(tb["kappa"])  # 1 for the identity, which takes no kappa
    mat = logdet_test_matrix(tb["m"], kappa, seed=tb["matrix_seed"])
    eps, delta = float(tb["eps"]), float(tb["delta"])
    k_bound = lanczos_steps_bound(kappa, tb["m"], eps)

    if tb["mode"] == "bound":
        n_bound = slq_samples_bound(eps, delta, tb["m"], p=1, radius=1.0, constants=mat.constants())
        plan = [(n_bound, k_bound)] * tb["trials"]
    else:
        k = tb.get("k_steps", k_bound)
        plan = [(n, k) for n in tb["sweep_probes"] for _ in range(tb["trials"])]

    rows = []
    for trial, (n_probes, k) in enumerate(plan):
        w = rademacher_probes(mat.m, n_probes, tb["seed"], "bench", trial)
        est = float(slq_logdet_batch(mat.mat, w, k=min(k, mat.m)).mean())
        rows.append(
            {
                "m": mat.m,
                "N": n_probes,
                "K": min(k, mat.m),
                "seed": trial,
                "exact_logdet": mat.logdet,
                "hutchinson_slq": est,
                "abs_err": abs(est - mat.logdet),
                "bound_eps": eps,
            }
        )
    write_csv(os.path.join(outdir, "bench.csv"), _BENCH_FIELDS, rows)
    return rows


def _json_num(x):
    """JSON has no inf — report unbounded values as null."""
    x = float(x)
    return x if math.isfinite(x) else None


def sample_size_report(
    eps,
    delta,
    m,
    p,
    radius,
    alpha,
    beta,
    lipschitz,
    frob_max=None,
    two_max=None,
    rho=None,
    iters=None,
):
    """Probe/depth budgets for given accuracy and spectral constants.

    Returns a JSON-ready dict echoing the inputs alongside the uniform
    plan (N, K, eta, gamma) and, when ``rho`` and ``iters`` are given,
    the per-iteration schedule N_t with its tightening eps_t/delta_t.
    Delegates every number to the calculators in the bounds module, so a
    report is bit-identical to calling those directly.
    """
    try:
        constants = SpectralConstants(
            alpha=alpha,
            beta=beta,
            lipschitz=lipschitz,
            frob_max=frob_max,
            two_max=two_max,
        )
        plan = uniform_slq_plan(eps, delta, m, p, radius, constants)
        schedule = None
        if rho is not None or iters is not None:
            if rho is None or iters is None:
                raise ValueError("schedule output needs both rho and iters")
            schedule = m3c_sample_schedule(eps, delta, rho, iters, m, p, radius, constants)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    report = {
        "inputs": {
            "eps": float(eps),
            "delta": float(delta),
            "m": int(m),
            "p": int(p),
            "radius": float(radius),
            "alpha": float(alpha),
            "beta": float(beta),
            "lipschitz": float(lipschitz),
            "frob_max": None if frob_max is None else float(frob_max),
            "two_max": None if two_max is None else float(two_max),
            "rho": None if rho is None else float(rho),
            "iters": None if iters is None else int(iters),
        },
        "n_probes": plan.n_probes,
        "k_steps": plan.k_steps,
        "eta": _json_num(plan.eta),
        "log_gamma": _json_num(plan.log_gamma),
        "gamma": _json_num(plan.gamma),
    }
    if schedule is not None:
        report["schedule"] = {
            "n_probes": list(schedule.n_probes),
            "eps": [float(e) for e in schedule.eps],
            "delta": [float(d) for d in schedule.delta],
            "log_gamma": [_json_num(g) for g in schedule.log_gamma],
            "gamma": [_json_num(_exp_or_inf(g)) for g in schedule.log_gamma],
        }
    return report
