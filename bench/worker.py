"""One benchmark workload, run in a process of its own.

Started by ``run.py``; prints one JSON object as its last line of output.
The process imports hypermarg from the checkout's ``src`` directory, builds
the workload's inputs from ``--seed`` (the set-up), then repeats whole rounds
of the workload's solve calls, timing each, until ``--seconds`` have passed
(at least one round).  Only after the last timed call does it check the
outputs against the dense reference in ``oracle.py``, so the checks cost
neither solve time nor peak memory.

``--setup-only`` stops after the set-up and reports its time; ``--trace 1``
records spans around every public hypermarg call (see ``tracing.py``) and
reports the per-layer metrics.
"""

import time

_STARTED = time.monotonic()

import argparse
import csv
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path

import numpy as np

import oracle
from tracing import Tracer, SpanTable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# The README quick-start instance: tomo s=8 with 8 sources and 9 receivers,
# data seed 0.  Its optimizer cost is bimodal in the data seed (m3c: 5 to 25
# outer iterations, 3 s to 26 s; saa: 118 to 776 evaluations, 3 s to 45 s),
# so both tomo workloads keep this one instance; a seeded tomo problem would
# spread the end-to-end times far wider than any bound.  tomo-saa-run takes
# its probe seed from --seed (757 +- 5 evaluations over seeds 0-4); m3c's
# probe seed changes its rejections and with them its cost (270k to 398k Psi
# applications over seeds 0-3), so tomo-m3c keeps the quick start's seed 0.
TOMO = {"kind": "tomo", "s": 8, "n_src": 8, "n_rec": 9, "seed": 0}
QUICK_START_SEED = 0

# Largest accepted F(theta_hat) - min F over the box, in nats.
GAP_TOL = {"tomo-m3c": 2.0, "tomo-saa-run": 2.0}
# F agreement between an optimizer's exact audit and the oracle.
F_RTOL = 1e-8
# Slack on "never increases" (the m3c audit accepts ties up to 1e-9 relative).
MONO_RTOL = 1e-9
# Reconstruction written by the harness (PCG at 1e-8) against a dense solve.
XHAT_RTOL = 1e-6


def import_program():
    src = ROOT / "src"
    if not (src / "hypermarg" / "__init__.py").is_file():
        sys.exit(f"worker: no hypermarg source under {src}")
    sys.path.insert(0, str(src))
    import hypermarg

    if Path(hypermarg.__file__).resolve().parent != (src / "hypermarg").resolve():
        sys.exit(f"worker: imported hypermarg from {hypermarg.__file__}, not {src}")
    return hypermarg


def environment():
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "HYPERMARG_THREADS": os.environ.get("HYPERMARG_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _agree(a, b, rtol):
    return abs(a - b) <= rtol * max(1.0, abs(b))


def check_chain(problem, records, f0, errors, where):
    """Box membership and monotone audited F along an optimizer's records."""
    prev = f0
    for rec in records:
        if not oracle.in_box(problem, rec.theta):
            errors.append(f"{where}: iterate {rec.outer_iter} leaves the box")
        if rec.f_audit > prev + MONO_RTOL * max(1.0, abs(prev)):
            errors.append(
                f"{where}: audited F rises from {prev!r} to {rec.f_audit!r} "
                f"at outer iteration {rec.outer_iter}"
            )
        prev = rec.f_audit


# ---------------------------------------------------------------------------
# workloads: set-up in __init__, one round of (label, call, ledger) in
# ``round``, output checks in ``check``


class TomoM3c:
    """README quick start: m3c on tomo s=8, 25 outer iterations, N=16.

    Every input is the quick start's own; ``seed`` is not used (see TOMO).
    """

    def __init__(self, hm, seed, outdir):
        self.hm = hm
        self.problem = hm.make_test_problem(**TOMO)

    def round(self, k):
        p = self.problem

        def solve():
            return self.hm.m3c_optimize(
                p, p.box.center(), outer_iters=25, n_probes=16, seed=QUICK_START_SEED
            )

        return [("m3c_optimize", solve, p.counters)]

    def check(self, outputs):
        errors, info = [], {}
        ref = self.hm.make_test_problem(**TOMO)
        theta0 = ref.box.center()
        f0 = oracle.objective(ref, theta0)
        seen = {}
        for k, res in enumerate(outputs):
            where = f"m3c solve {k}"
            key = res.theta.tobytes()
            if key not in seen:
                seen[key] = oracle.objective(ref, res.theta)
            f_hat = seen[key]
            if not oracle.in_box(ref, res.theta):
                errors.append(f"{where}: theta_hat outside the box")
            check_chain(ref, res.records, f0, errors, where)
            if not _agree(res.f_value, f_hat, F_RTOL):
                errors.append(f"{where}: f_value {res.f_value!r} != oracle F {f_hat!r}")
            if not f_hat < f0:
                errors.append(f"{where}: F(theta_hat) {f_hat!r} not below F(theta0) {f0!r}")
        if outputs:
            _, f_min = oracle.minimize(ref, [theta0, outputs[0].theta, ref.theta_true])
            f_hat = seen[outputs[0].theta.tobytes()]
            info = {"F_theta0": f0, "F_theta_hat": f_hat, "F_min": f_min, "gap": f_hat - f_min}
            if f_hat - f_min > GAP_TOL["tomo-m3c"]:
                errors.append(f"m3c: gap {f_hat - f_min!r} above {GAP_TOL['tomo-m3c']}")
        return errors, info


class TomoSaaRun:
    """A ``hypermarg run`` config: saa on the quick-start tomo problem.

    ``seed`` is the saa probe seed; the problem is the quick start's.
    """

    ARTIFACTS = ("metrics.csv", "summary.json", "theta_trace.csv", "xhat.bin")

    def __init__(self, hm, seed, outdir):
        self.hm = hm
        self.seed = seed
        self.outdir = outdir / "tomo-saa-run"
        # the instance the checks read; run_experiment builds its own
        self.problem = hm.make_test_problem(**TOMO)

    def config(self, k):
        return {
            "problem": dict(TOMO),
            "method": {"name": "saa", "theta0": "center", "n_probes": 16, "seed": self.seed},
            "output": {"directory": str(self.outdir / f"round-{k}")},
        }

    def round(self, k):
        cfg = self.config(k)
        # artifacts left by an earlier run must not pass for this run's
        shutil.rmtree(cfg["output"]["directory"], ignore_errors=True)
        return [("run_experiment", lambda: (cfg, self.hm.run_experiment(cfg)), None)]

    def check(self, outputs):
        errors, info = [], {}
        ref = self.problem
        theta0 = ref.box.center()
        f0 = oracle.objective(ref, theta0)
        for k, (cfg, _) in enumerate(outputs):
            where = f"saa run {k}"
            outdir = Path(cfg["output"]["directory"])
            missing = [a for a in self.ARTIFACTS if not (outdir / a).is_file()]
            if missing:
                errors.append(f"{where}: artifacts not written: {missing}")
                continue
            with open(outdir / "summary.json") as fh:
                summary = json.load(fh)
            with open(outdir / "metrics.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            if len(rows) != summary["total_iter"]:
                errors.append(f"{where}: {len(rows)} metrics rows, total_iter {summary['total_iter']}")
            for column, total in (
                ("matvecs_A", "total_matvecs_A"),
                ("matvecs_Q", "total_matvecs_Q"),
                ("fn_evals", "total_fn_evals"),
            ):
                col_sum = sum(int(r[column]) for r in rows)
                if col_sum != summary[total]:
                    errors.append(f"{where}: {column} sums to {col_sum}, {total} is {summary[total]}")
            theta_hat = np.array(summary["theta_hat"], dtype=float)
            if not oracle.in_box(ref, theta_hat):
                errors.append(f"{where}: theta_hat outside the box")
            xhat = np.fromfile(outdir / "xhat.bin", dtype="<f8")
            x_ref = oracle.posterior_mean(ref, theta_hat)
            x_err = np.inf
            if xhat.shape == x_ref.shape:
                x_err = float(np.linalg.norm(xhat - x_ref) / np.linalg.norm(x_ref))
            if not x_err <= XHAT_RTOL:
                errors.append(f"{where}: xhat.bin differs from the posterior mean by {x_err!r}")
            f_hat = oracle.objective(ref, theta_hat)
            if not f_hat < f0:
                errors.append(f"{where}: F(theta_hat) {f_hat!r} not below F(theta0) {f0!r}")
            if k == 0:
                _, f_min = oracle.minimize(ref, [theta0, theta_hat, ref.theta_true])
                info = {
                    "F_theta0": f0,
                    "F_theta_hat": f_hat,
                    "F_min": f_min,
                    "gap": f_hat - f_min,
                    "xhat_rel_err": x_err,
                    "fn_evals": summary["total_fn_evals"],
                }
                if f_hat - f_min > GAP_TOL["tomo-saa-run"]:
                    errors.append(f"{where}: gap {f_hat - f_min!r} above {GAP_TOL['tomo-saa-run']}")
        return errors, info


class DeblurExact:
    """Criterion 2's deblur half: the exact MM chain on three deblur s=16."""

    N_PROBLEMS = 3

    def __init__(self, hm, seed, outdir):
        self.hm = hm
        self.problems = [
            hm.make_test_problem("deblur", s=16, seed=seed + i) for i in range(self.N_PROBLEMS)
        ]

    def round(self, k):
        def solver(p):
            return lambda: (p, self.hm.mm_optimize_exact(p, outer_iters=6, inner_iters=40))

        return [("mm_optimize_exact", solver(p), p.counters) for p in self.problems]

    def check(self, outputs):
        errors, gaps = [], []
        refs = {}
        cache = {}

        def F(seed, theta):
            key = (seed, np.asarray(theta, dtype=float).tobytes())
            if key not in cache:
                cache[key] = oracle.objective(refs[seed], theta)
            return cache[key]

        for k, (problem, res) in enumerate(outputs):
            seed = problem.meta["seed"]
            where = f"deblur seed {seed}, solve {k}"
            if seed not in refs:
                refs[seed] = self.hm.make_test_problem("deblur", s=16, seed=seed)
            ref = refs[seed]
            f0 = F(seed, ref.box.center())
            check_chain(ref, res.records, f0, errors, where)
            for rec in res.records:
                f_ref = F(seed, rec.theta)
                if not _agree(rec.f_audit, f_ref, F_RTOL):
                    errors.append(
                        f"{where}: f_audit {rec.f_audit!r} != oracle F {f_ref!r} "
                        f"at outer iteration {rec.outer_iter}"
                    )
            gaps.append(f0 - res.f_value)
        return errors, {"F_decrease": gaps[: self.N_PROBLEMS]}


WORKLOADS = {"tomo-m3c": TomoM3c, "tomo-saa-run": TomoSaaRun, "deblur-exact": DeblurExact}


# ---------------------------------------------------------------------------
# per-layer metrics from the trace, the ledger and the optimizers' records


def layer_metrics(hm, tracer, setup_spans, ledger, rounds):
    """Per-round layer metrics of the timed calls, plus the set-up's build time."""
    spans = SpanTable(tracer, first=setup_spans)
    setup = SpanTable(tracer, last=setup_spans)

    def named(*labels):
        return spans.ids(lambda n: n in labels)

    def method_of(base, *methods):
        return spans.ids(
            lambda n: n in spans.classes
            and issubclass(spans.classes[n], base)
            and n.rsplit(".", 1)[-1] in methods
        )

    kept = [(fn, out) for fn, idx, out in tracer.kept if idx >= setup_spans]
    chains = [out for fn, out in kept if fn in ("m3c_optimize", "mm_optimize_exact")]
    saa = [out for fn, out in kept if fn == "saa_optimize"]
    if ledger is None:
        # run_experiment builds its own problem inside the timed call
        ledger = {"a": 0, "q": 0, "psi": 0}
        for fn, out in kept:
            if fn == "make_test_problem":
                snap = out.counters.snapshot()
                for key in ledger:
                    ledger[key] += snap[key]

    psi = method_of(hm.PsiOperator, "matvec", "matmat")
    optimizers = named("mm.m3c_optimize", "mm.mm_optimize_exact")
    per_round = {
        "operators.a_applies": ledger["a"],
        "operators.q_applies": ledger["q"],
        "operators.a_apply_s": spans.self_s(method_of(hm.LinOp, "matvec", "rmatvec")),
        "model.psi_applies": ledger["psi"],
        "model.psi_matmat_calls": spans.count(method_of(hm.PsiOperator, "matmat")),
        "model.psi_apply_s": spans.self_s(psi),
        "model.reconstruct_s": spans.inclusive_s(named("model.reconstruct")),
        "pcg.solves": spans.count(named("pcg.pcg_solve")),
        "pcg.iters": spans.extra_sum(named("pcg.pcg_solve")),
        "pcg.solve_s": spans.inclusive_s(named("pcg.pcg_solve")),
        "lanczos.runs": spans.count(named("lanczos.lanczos_decompose")),
        "lanczos.steps": spans.extra_sum(named("lanczos.lanczos_decompose")),
        "lanczos.s": spans.inclusive_s(named("lanczos.lanczos_decompose")),
        "lanczos.self_s": spans.self_s(named("lanczos.lanczos_decompose")),
        "objective.slq_evals": spans.count(named("objective.eval_F_slq")),
        "objective.slq_eval_s": spans.inclusive_s(named("objective.eval_F_slq")),
        "objective.dense_pieces": spans.count(named("objective.dense_objective_pieces")),
        "objective.dense_pieces_s": spans.inclusive_s(named("objective.dense_objective_pieces")),
        "objective.dense_gradients": spans.count(named("objective.dense_gradient")),
        "objective.dense_gradient_s": spans.inclusive_s(named("objective.dense_gradient")),
        "mm.outer_iters": sum(len(c.records) for c in chains),
        "mm.rejected": sum(not r.accepted for c in chains for r in c.records),
        "mm.inner_iters": sum(r.inner_iters for c in chains for r in c.records),
        "mm.fn_evals": sum(r.fn_evals for c in chains for r in c.records),
        "mm.grad_evals": spans.extra_sum(named("mm.projected_gradient_min"), parents=optimizers),
        "mm.anchor_s": spans.inclusive_s(named("mm.build_surrogate")),
        "mm.surrogate_value_s": spans.inclusive_s(
            named("mm.StochasticSurrogate.value", "mm.exact_surrogate")
        ),
        "mm.surrogate_grad_s": spans.inclusive_s(
            named("mm.StochasticSurrogate.gradient", "mm.exact_surrogate_grad")
        ),
        "mm.audit_s": spans.inclusive_s(
            named("objective.eval_F_exact", "objective.eval_F_slq"), parents=optimizers
        ),
        "saa.fn_evals": sum(r.fn_evals for r in saa),
        "saa.iterations": sum(r.iterations for r in saa),
        "saa.grad_fd_s": spans.inclusive_s(named("objective.grad_fd")),
        "problems.conv_dense_s": spans.inclusive_s(named("problems.ConvolutionOp.dense")),
        "harness.artifacts_s": spans.inclusive_s(spans.ids(lambda n: n.startswith("metrics.write_"))),
    }
    metrics = {k: v / rounds for k, v in per_round.items()}
    metrics["problems.build_s"] = setup.inclusive_s(
        setup.ids(lambda n: n == "problems.make_test_problem")
    )
    return metrics


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned-at", type=float, default=None,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    spawned = _STARTED if args.spawned_at is None else args.spawned_at
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    hm = import_program()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](hm, args.seed, outdir)
    setup_s = time.monotonic() - spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    setup_spans = len(tracer.start) if tracer else 0
    ledger = {"a": 0, "q": 0, "psi": 0}
    ledgered = True
    times, outputs, failures = [], [], []
    rounds = 0
    first = time.perf_counter()
    while True:
        for label, call, counters in workload.round(rounds):
            before = counters.snapshot() if counters is not None else None
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("bench." + label):
                        out = call()
                else:
                    out = call()
            except Exception as exc:  # a failed operation is counted, not fatal
                failures.append(f"{label}: {type(exc).__name__}: {exc}")
                continue
            times.append(time.perf_counter() - t0)
            outputs.append(out)
            if counters is None:
                ledgered = False
            else:
                after = counters.snapshot()
                for key in ledger:
                    ledger[key] += after[key] - before[key]
        rounds += 1
        if time.perf_counter() - first >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = layer_metrics(hm, tracer, setup_spans, ledger if ledgered else None, rounds)
        tracer.save(outdir / f"trace-{args.workload}.npz")

    t_check = time.perf_counter()
    errors, info = workload.check(outputs)
    result = {
        "check_s": time.perf_counter() - t_check,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "setup_s": setup_s,
        "solve_s": times,
        "rounds": rounds,
        "attempted": len(times) + len(failures),
        "failed": len(failures),
        "failures": failures,
        "check_errors": errors,
        "checks": info,
        "peak_rss_mb": peak_rss_mb,
        "ledger_per_round": {k: v / rounds for k, v in ledger.items()} if ledgered else None,
        "layers": layers,
    }
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
