"""Run-report writers: per-iteration metrics, summaries, traces, binaries.

Conventions shared by every writer:

* CSV files use ``.`` as the decimal separator and ``\\n`` newlines on
  every platform; floats are written with ``repr`` (shortest round-trip
  form), so two runs performing identical arithmetic produce
  byte-identical files.
* Wall-clock columns are the only nondeterministic ones.  Their names are
  listed in ``TIMING_COLUMNS`` so golden-file comparisons can drop them;
  ``strip_timing`` does exactly that.
* Per-row matvec columns are *deltas* of the problem's operator counters
  between consecutive records, the first from a snapshot taken before the
  optimizer starts.  No optimizer applies an operator after its last
  record, so summing a column reproduces the counter movement across the
  whole optimization exactly — that identity is what the cost-ledger
  check in the acceptance suite pins down.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = [
    "TIMING_COLUMNS",
    "METRIC_FIELDS",
    "run_rows",
    "summarize_rows",
    "write_csv",
    "read_csv",
    "strip_timing",
    "write_summary_json",
    "write_theta_trace",
    "write_xhat",
    "read_xhat",
]

TIMING_COLUMNS = ("wall_time_s",)

# Fixed leading columns of metrics.csv; theta_0 .. theta_{p-1} follow.
METRIC_FIELDS = (
    "outer_iter",
    "inner_iters",
    "fn_evals",
    "matvecs_A",
    "matvecs_Q",
    "pcg_iters",
    "wall_time_s",
    "F_audit",
)


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def theta_fields(p):
    return tuple(f"theta_{j}" for j in range(p))


def run_rows(records, baseline_counters):
    """Normalize optimizer records into metrics rows.

    Accepts the record lists produced by either optimizer (their field
    names differ slightly; each carries a cumulative counter snapshot).
    An saa record is one iteration, so its row has ``inner_iters`` 1.
    ``baseline_counters`` is the ledger snapshot taken just before the
    optimizer ran.  Neither optimizer applies an operator after its last
    record, so the row deltas add up to the whole run.
    """
    rows = []
    prev = baseline_counters
    for i, rec in enumerate(records):
        snap = rec.counters
        row = {
            "outer_iter": getattr(rec, "outer_iter", i),
            "inner_iters": getattr(rec, "inner_iters", 1),
            "fn_evals": rec.fn_evals,
            "matvecs_A": snap["a"] - prev["a"],
            "matvecs_Q": snap["q"] - prev["q"],
            "pcg_iters": rec.pcg_iters,
            "wall_time_s": rec.wall_time_s,
            "F_audit": getattr(rec, "f_audit", getattr(rec, "f_hat", np.nan)),
        }
        theta = np.asarray(rec.theta, dtype=float)
        for j, name in enumerate(theta_fields(theta.size)):
            row[name] = theta[j]
        rows.append(row)
        prev = snap
    return rows


def summarize_rows(rows, runtime_s, theta_hat, rel_error=None, extra=None):
    """Totals over metrics rows plus run-level results.

    ``total_iter`` counts iterations (one per row); every other
    total is a literal column sum, so the summary agrees with the per-row
    file by construction.
    """
    summary = {
        "total_iter": len(rows),
        "total_fn_evals": int(sum(r["fn_evals"] for r in rows)),
        "total_matvecs_A": int(sum(r["matvecs_A"] for r in rows)),
        "total_matvecs_Q": int(sum(r["matvecs_Q"] for r in rows)),
        "runtime_s": float(runtime_s),
        "rel_error": None if rel_error is None else float(rel_error),
        "theta_hat": [float(t) for t in np.asarray(theta_hat, dtype=float)],
    }
    if extra:
        summary.update(extra)
    return summary


def write_csv(path, fieldnames, rows):
    lines = [",".join(fieldnames)]
    for row in rows:
        lines.append(",".join(_fmt(row[name]) for name in fieldnames))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path):
    """Read a metrics-style CSV back as (fieldnames, list of str dicts)."""
    with open(path, "r", newline="\n") as fh:
        lines = fh.read().splitlines()
    fieldnames = lines[0].split(",")
    rows = [dict(zip(fieldnames, line.split(","))) for line in lines[1:]]
    return fieldnames, rows


def strip_timing(path):
    """File content with timing columns removed — the golden-comparison view."""
    fieldnames, rows = read_csv(path)
    keep = [f for f in fieldnames if f not in TIMING_COLUMNS]
    out = [",".join(keep)]
    out.extend(",".join(row[f] for f in keep) for row in rows)
    return "\n".join(out) + "\n"


def write_summary_json(path, summary):
    with open(path, "w", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_theta_trace(path, theta0, records):
    """theta per outer iteration; row 0 is the starting point."""
    theta0 = np.asarray(theta0, dtype=float)
    names = ("outer_iter",) + theta_fields(theta0.size)
    rows = [dict(zip(names, (0,) + tuple(theta0)))]
    for i, rec in enumerate(records):
        rows.append(dict(zip(names, (i + 1,) + tuple(np.asarray(rec.theta, dtype=float)))))
    write_csv(path, names, rows)


def write_xhat(path, x):
    """Reconstruction as raw little-endian float64, no header."""
    np.asarray(x, dtype="<f8").tofile(path)


def read_xhat(path):
    return np.fromfile(path, dtype="<f8")
