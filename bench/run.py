"""hypermarg benchmark: each workload in processes of its own, one at a time.

    python3 bench/run.py --workload tomo-m3c --seed 0 --seconds 10 --trace 0

``--trace 0`` runs ``SETUP_PROBES`` processes that only set the workload up,
then one process that also repeats the workload's timed solve calls for
``--seconds``, and prints the end-to-end metrics ``solve_s`` (median timed
call), ``setup_s`` (median process start to first solve) and ``peak_rss_mb``
(the measuring process).  ``--trace 1`` runs the workload once untraced and
once traced and prints the per-layer metrics, with ``trace.overhead_s`` the
difference of the two ``solve_s``.  The processes run one at a time; two
benchmark processes must never run at once on a small machine.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
``--workload all`` runs the three workloads one after another and prints
one such line after each.
A record of the run (environment, every timed call, check results) is
written to ``bench/out/``.  The exit code is not 0, and no result is
printed, if a process fails or the program source is missing.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("tomo-m3c", "tomo-saa-run", "deblur-exact")
SETUP_PROBES = 4
# One workload's run, all its processes included, ends within this many seconds.
BUDGET_S = 170.0

END_TO_END_UNITS = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


class BenchError(RuntimeError):
    pass


def run_worker(workload, args, deadline, trace=0, setup_only=False):
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--out", str(OUT),
    ]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget spent before the next process could start")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned)],
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {BUDGET_S:.0f} s budget") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def run_workload(workload, args):
    """Run one workload; print its report and return its result object."""
    deadline = time.monotonic() + BUDGET_S
    if args.trace == 0:
        setups = [
            run_worker(workload, args, deadline, setup_only=True) for _ in range(SETUP_PROBES)
        ]
        main_run = run_worker(workload, args, deadline)
        runs = [main_run]
        values = {
            "solve_s": statistics.median(main_run["solve_s"]),
            "setup_s": statistics.median([s["setup_s"] for s in setups] + [main_run["setup_s"]]),
            "peak_rss_mb": main_run["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        plain = run_worker(workload, args, deadline)
        traced = run_worker(workload, args, deadline, trace=1)
        runs = [plain, traced]
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in traced["layers"].items()}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced["solve_s"]) - statistics.median(plain["solve_s"]),
            "unit": "s",
        }

    errors = [e for r in runs for e in r["check_errors"]]
    failures = [f for r in runs for f in r["failures"]]
    result = {
        "correct": not errors and all(r["solve_s"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    record = {"workload": workload, "args": vars(args), "result": result, "runs": runs}
    if args.trace == 0:
        record["setup_probes_s"] = [s["setup_s"] for s in setups]
    with open(OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print("env " + json.dumps(runs[0]["env"], sort_keys=True))
    for r in runs:
        print(
            f"{workload} trace={r['trace']} rounds={r['rounds']} "
            f"solve_s={[round(t, 3) for t in r['solve_s']]} checks={json.dumps(r['checks'])}"
        )
    for line in failures:
        print(f"failed: {line}")
    for line in errors:
        print(f"check failed: {line}")
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hypermarg" / "__init__.py").is_file():
        print(f"run.py: no hypermarg source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result = run_workload(workload, args)
        except BenchError as exc:
            print(f"run.py: {workload}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
