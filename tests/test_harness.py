"""Harness and CLI tests: runs, reports, golden stability, exit codes."""

import inspect
import json
import math
import os
import sys

import numpy as np
import pytest

from hypermarg import harness, objective
from hypermarg.bounds import SpectralConstants, lanczos_steps_bound, slq_samples_bound
from hypermarg.cli import main
from hypermarg.config import _M3C_SCHEMA, _SAA_SCHEMA, ConfigError
from hypermarg.harness import (
    majorant_slice,
    run_experiment,
    sample_size_report,
    trace_bench,
)
from hypermarg.metrics import read_csv, read_xhat, strip_timing
from hypermarg.mm import m3c_optimize
from hypermarg.problems import make_test_problem
from hypermarg.randmat import logdet_test_matrix
from hypermarg.saa import saa_optimize


def run_cfg(outdir, **method_over):
    method = {
        "name": "m3c",
        "theta0": "true",
        "outer_iters": 10,
        "n_probes": 8,
        "tol": 1e-3,
        "seed": 0,
    }
    method.update(method_over)
    return {
        "problem": {"kind": "identity", "m": 64, "seed": 3},
        "method": method,
        "output": {"directory": str(outdir)},
    }


class TestRunExperiment:
    def test_identity_from_truth_stops_fast(self, tmp_path):
        summary = run_experiment(run_cfg(tmp_path / "run"))
        assert summary["total_iter"] <= 2
        assert summary["converged"]
        # reconstruction error at the noise floor (5% synthetic noise)
        assert summary["rel_error"] < 0.15
        for name in ("metrics.csv", "summary.json", "theta_trace.csv", "xhat.bin"):
            assert os.path.exists(tmp_path / "run" / name)

    def test_outputs_are_consistent(self, tmp_path):
        outdir = tmp_path / "run"
        summary = run_experiment(run_cfg(outdir))
        fields, rows = read_csv(outdir / "metrics.csv")
        assert fields[:8] == [
            "outer_iter",
            "inner_iters",
            "fn_evals",
            "matvecs_A",
            "matvecs_Q",
            "pcg_iters",
            "wall_time_s",
            "F_audit",
        ]
        assert fields[8:] == ["theta_0"]
        assert summary["total_matvecs_A"] == sum(int(r["matvecs_A"]) for r in rows)
        assert summary["total_matvecs_Q"] == sum(int(r["matvecs_Q"]) for r in rows)
        assert summary["total_iter"] == len(rows)
        # written summary round-trips
        on_disk = json.loads((outdir / "summary.json").read_text())
        assert on_disk["theta_hat"] == summary["theta_hat"]
        # trace has start point + one row per outer iteration
        tfields, trows = read_csv(outdir / "theta_trace.csv")
        assert tfields == ["outer_iter", "theta_0"]
        assert len(trows) == len(rows) + 1
        # the binary reconstruction has the problem's state dimension
        assert read_xhat(outdir / "xhat.bin").shape == (64,)

    def test_matvec_totals_equal_ledger_deltas(self, tmp_path):
        cfg = run_cfg(tmp_path / "run")
        summary = run_experiment(cfg)
        # replay the identical run against a fresh problem and measure the
        # operator ledger around the optimizer call directly
        problem = make_test_problem("identity", m=64, seed=3)
        before = problem.counters.snapshot()
        m3c_optimize(
            problem,
            theta0=problem.theta_true,
            outer_iters=10,
            n_probes=8,
            tol=1e-3,
            seed=0,
        )
        after = problem.counters.snapshot()
        assert summary["total_matvecs_A"] == after["a"] - before["a"]
        assert summary["total_matvecs_Q"] == after["q"] - before["q"]

    def test_rerun_is_byte_identical_modulo_timing(self, tmp_path):
        run_experiment(run_cfg(tmp_path / "a"))
        run_experiment(run_cfg(tmp_path / "b"))
        assert strip_timing(tmp_path / "a" / "metrics.csv") == strip_timing(
            tmp_path / "b" / "metrics.csv"
        )
        for name in ("theta_trace.csv", "xhat.bin"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        sa = json.loads((tmp_path / "a" / "summary.json").read_text())
        sb = json.loads((tmp_path / "b" / "summary.json").read_text())
        sa.pop("runtime_s"), sb.pop("runtime_s")
        assert sa == sb

    def test_saa_run(self, tmp_path):
        cfg = {
            "problem": {"kind": "identity", "m": 64, "seed": 3},
            "method": {
                "name": "saa",
                "theta0": "true",
                "max_iters": 12,
                "n_probes": 8,
                "tol": 1e-3,
                "seed": 0,
            },
            "output": {"directory": str(tmp_path / "saa")},
        }
        summary = run_experiment(cfg)
        assert summary["method"] == "saa"
        assert summary["converged"]
        fields, rows = read_csv(tmp_path / "saa" / "metrics.csv")
        assert summary["total_matvecs_A"] == sum(int(r["matvecs_A"]) for r in rows)

    def test_saa_metrics_rows_sum_to_the_run_ledger(self, tmp_path, monkeypatch):
        # the rows' counter deltas cover the gradients' reverse passes too
        real = harness.saa_optimize
        moved = {}

        def spy(problem, **kwargs):
            start = problem.counters.snapshot()
            out = real(problem, **kwargs)
            end = problem.counters.snapshot()
            moved.update({key: end[key] - start[key] for key in end}, fn_evals=out.fn_evals)
            return out

        monkeypatch.setattr(harness, "saa_optimize", spy)
        cfg = {
            "problem": {"kind": "tomo", "s": 4, "n_src": 3, "n_rec": 5, "seed": 2},
            "method": {"name": "saa", "n_probes": 8, "k_steps": 10, "max_iters": 15, "seed": 3},
            "output": {"directory": str(tmp_path / "saa")},
        }
        summary = run_experiment(cfg)
        _, rows = read_csv(tmp_path / "saa" / "metrics.csv")
        for column, key in (("matvecs_A", "a"), ("matvecs_Q", "q"), ("fn_evals", "fn_evals")):
            assert sum(int(r[column]) for r in rows) == moved[key], column
        assert summary["total_fn_evals"] == moved["fn_evals"] < moved["psi"]

    @pytest.mark.parametrize(
        "schema, optimizer",
        [(_M3C_SCHEMA, m3c_optimize), (_SAA_SCHEMA, saa_optimize)],
        ids=["m3c", "saa"],
    )
    def test_every_method_key_is_an_optimizer_parameter(self, schema, optimizer):
        # run_experiment passes every validated key but these two through
        params = inspect.signature(optimizer).parameters
        keys = set(schema) - {"name", "theta0"}
        assert keys <= set(params), sorted(keys - set(params))

    def test_reconstruction_solves_with_the_configured_cg_settings(self, tmp_path, monkeypatch):
        # metrics.csv is written before the reconstruction, so a solve that
        # stopped at its own iteration cap would end a finished run with no
        # summary.json
        real = harness.reconstruct
        settings = []

        def spy(*args, **kwargs):
            bound = inspect.signature(real).bind(*args, **kwargs)
            bound.apply_defaults()
            settings.append((bound.arguments["pcg_tol"], bound.arguments["pcg_maxit"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "reconstruct", spy)
        run_experiment(run_cfg(tmp_path / "run", pcg_tol=1e-9, pcg_maxit=777))
        assert settings == [(1e-9, 777)]

    def test_tomo_reconstruction_improves(self, tmp_path):
        cfg = {
            "problem": {"kind": "tomo", "s": 6, "n_src": 5, "n_rec": 6, "seed": 0},
            "method": {
                "name": "m3c",
                "theta0": "center",
                "outer_iters": 8,
                "inner_iters": 2,
                "n_probes": 12,
                "seed": 1,
            },
            "output": {"directory": str(tmp_path / "tomo")},
        }
        summary = run_experiment(cfg)
        from hypermarg.model import reconstruct

        problem = make_test_problem("tomo", s=6, n_src=5, n_rec=6, seed=0)
        x0 = reconstruct(problem, problem.box.center())
        rel0 = np.linalg.norm(x0 - problem.x_true) / np.linalg.norm(problem.x_true)
        assert summary["rel_error"] < rel0

    def test_theta0_outside_box_is_config_error(self, tmp_path):
        cfg = run_cfg(tmp_path / "x", theta0=[5.0])
        with pytest.raises(ConfigError, match="outside"):
            run_experiment(cfg)


class TestMajorantSlice:
    def cfg(self, outdir, **slice_over):
        sl = {
            "anchor": [1.0762e-4, 0.07, 0.2],
            "axis": 1,
            "grid_min": 0.05,
            "grid_max": 1.5,
            "grid_count": 40,
        }
        sl.update(slice_over)
        return {
            "problem": {"kind": "tomo", "s": 5, "n_src": 4, "n_rec": 6, "seed": 0},
            "slice": sl,
            "output": {"directory": str(outdir)},
        }

    def test_majorant_dominates_and_touches(self, tmp_path):
        # grid starts exactly at the anchor coordinate, so the first row
        # must show G = F; everywhere else G >= F
        rows = majorant_slice(self.cfg(tmp_path / "s", grid_min=0.07))
        f = np.array([r["F"] for r in rows])
        g = np.array([r["G"] for r in rows])
        assert np.all(np.isfinite(f)) and np.all(np.isfinite(g))
        assert np.all(g >= f - 1e-9)
        assert abs(g[0] - f[0]) <= 1e-10 * max(1.0, abs(f[0]))
        names, disk = read_csv(tmp_path / "s" / "slice.csv")
        assert names == ["theta_1", "F", "G"]
        assert len(disk) == 40

    def test_anchor_outside_box_rejected(self, tmp_path):
        cfg = self.cfg(tmp_path / "s", anchor=[10.0, 0.07, 0.2])
        with pytest.raises(ConfigError, match="anchor"):
            majorant_slice(cfg)

    def test_grid_outside_box_rejected(self, tmp_path):
        cfg = self.cfg(tmp_path / "s", grid_max=3.5)
        with pytest.raises(ConfigError, match="grid"):
            majorant_slice(cfg)

    def test_one_factorization_per_grid_point(self, tmp_path, monkeypatch):
        # the anchor's pieces plus one per grid point, shared by F and G
        calls = []
        real = objective.dense_objective_pieces

        def counted(problem, theta):
            calls.append(np.array(theta))
            return real(problem, theta)

        monkeypatch.setattr(objective, "dense_objective_pieces", counted)
        monkeypatch.setattr(harness, "dense_objective_pieces", counted)
        majorant_slice(self.cfg(tmp_path / "s", grid_count=9))
        assert len(calls) == 10

    def test_superres_shift_slice_crosses_zero(self, tmp_path):
        cfg = {
            "problem": {"kind": "superres", "s": 8, "decim": 2, "frames": 1},
            "slice": {
                "anchor": [0.0, 0.0],
                "axis": 0,
                "grid_min": -0.2,
                "grid_max": 0.2,
                "grid_count": 5,
            },
            "output": {"directory": str(tmp_path / "s")},
        }
        rows = majorant_slice(cfg)
        f = np.array([r["F"] for r in rows])
        g = np.array([r["G"] for r in rows])
        assert rows[2]["theta_0"] == 0.0
        assert np.all(g >= f - 1e-9 * np.abs(f))
        assert abs(g[2] - f[2]) <= 1e-9 * abs(f[2])


class TestTraceBench:
    def test_identity_rows_have_zero_error(self, tmp_path):
        cfg = {
            "trace_bench": {
                "matrix_kind": "identity",
                "m": 15,
                "eps": 0.5,
                "delta": 0.1,
                "mode": "sweep",
                "sweep_probes": [4, 16],
                "trials": 4,
                "seed": 0,
            },
            "output": {"directory": str(tmp_path / "b")},
        }
        rows = trace_bench(cfg)
        assert len(rows) == 8
        assert all(r["abs_err"] == 0.0 for r in rows)
        _, disk = read_csv(tmp_path / "b" / "bench.csv")
        assert all(r["abs_err"] == "0.0" for r in disk)

    def test_bound_mode_uses_calculator_sizes(self, tmp_path):
        cfg = {
            "trace_bench": {
                "matrix_kind": "spd-logdet",
                "m": 10,
                "kappa": 2.0,
                "matrix_seed": 5,
                "eps": 0.5,
                "delta": 0.1,
                "mode": "bound",
                "trials": 3,
                "seed": 0,
            },
            "output": {"directory": str(tmp_path / "b")},
        }
        rows = trace_bench(cfg)
        mat = logdet_test_matrix(10, 2.0, seed=5)
        n_expect = slq_samples_bound(0.5, 0.1, 10, p=1, radius=1.0, constants=mat.constants())
        k_expect = lanczos_steps_bound(2.0, 10, 0.5)
        assert all(r["N"] == n_expect and r["K"] == min(k_expect, 10) for r in rows)
        assert all(r["abs_err"] <= r["bound_eps"] for r in rows)
        assert all(r["exact_logdet"] == mat.logdet for r in rows)


class TestSampleSizeReport:
    def test_delegates_bitwise_to_calculators(self):
        from hypermarg.bounds import SpectralConstants, m3c_sample_schedule, uniform_slq_plan

        report = sample_size_report(
            eps=0.5, delta=0.1, m=50, p=2, radius=1.0,
            alpha=1.0, beta=2.0, lipschitz=1.0, rho=0.5, iters=4,
        )
        k = SpectralConstants(alpha=1.0, beta=2.0, lipschitz=1.0)
        plan = uniform_slq_plan(0.5, 0.1, 50, 2, 1.0, k)
        sched = m3c_sample_schedule(0.5, 0.1, 0.5, 4, 50, 2, 1.0, k)
        assert report["n_probes"] == plan.n_probes
        assert report["k_steps"] == plan.k_steps
        assert report["eta"] == plan.eta
        assert report["log_gamma"] == plan.log_gamma
        assert report["schedule"]["n_probes"] == list(sched.n_probes)
        assert report["schedule"]["delta"] == list(sched.delta)
        assert report["inputs"]["eps"] == 0.5

    def test_json_safe_without_lipschitz(self):
        # L = 0 makes the covering radius unbounded; the report must still
        # be serializable (inf -> null)
        report = sample_size_report(
            eps=0.5, delta=0.1, m=20, p=1, radius=1.0,
            alpha=1.0, beta=2.0, lipschitz=0.0,
        )
        assert report["eta"] is None
        json.dumps(report)

    def test_schedule_gamma_is_finite_below_float_overflow(self):
        # log gamma here lies between 700 and log(float max) = 709.78, so
        # gamma is a finite float and the report must say which
        report = sample_size_report(
            eps=0.1, delta=0.1, m=1, p=147, radius=1.0,
            alpha=1.0, beta=2.0, lipschitz=1.0, rho=0.5, iters=1,
        )
        (log_gamma,) = report["schedule"]["log_gamma"]
        assert 700.0 < log_gamma < math.log(sys.float_info.max)
        assert report["schedule"]["gamma"] == [math.exp(log_gamma)]

    def test_invalid_constants_are_config_errors(self):
        with pytest.raises(ConfigError):
            sample_size_report(
                eps=0.5, delta=0.1, m=20, p=1, radius=1.0,
                alpha=2.0, beta=1.0, lipschitz=0.0,
            )


class TestCliExitCodes:
    def test_run_success(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(run_cfg(tmp_path / "out")))
        assert main(["run", str(path)]) == 0
        assert "theta_hat" in capsys.readouterr().out

    def test_missing_config_is_exit_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "none.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_key_is_exit_2(self, tmp_path, capsys):
        cfg = run_cfg(tmp_path / "out")
        cfg["method"]["momentum"] = 0.9
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path)]) == 2
        assert "momentum" in capsys.readouterr().err

    def test_removed_preconditioner_rank_key_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(run_cfg(tmp_path / "out", precond_rank=8)))
        assert main(["run", str(path)]) == 2
        assert "unknown key(s) in method: ['precond_rank']" in capsys.readouterr().err

    def test_removed_grad_eps_key_is_exit_2(self, tmp_path, capsys):
        # saa's gradient is exact: there is no difference step to set
        cfg = run_cfg(tmp_path / "out")
        cfg["method"] = {"name": "saa", "max_iters": 5, "grad_eps": 1e-6}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path)]) == 2
        assert "unknown key(s) in method: ['grad_eps']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("audit", "slq"), ("audit_probes", 8), ("audit_k", 8)])
    def test_removed_audit_keys_are_exit_2(self, tmp_path, capsys, key, value):
        # the audit follows from m: exact up to DENSE_LIMIT rows, SLQ above
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(run_cfg(tmp_path / "out", **{key: value})))
        assert main(["run", str(path)]) == 2
        assert f"unknown key(s) in method: [{key!r}]" in capsys.readouterr().err

    def test_true_theta0_outside_box_is_exit_2(self, tmp_path, capsys):
        # at 50x noise the synthetic noise variance is far above the box's upper bound 1
        cfg = run_cfg(tmp_path / "out")
        cfg["problem"] = {"kind": "identity", "m": 16, "noise_level": 50}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "theta0" in err and "outside the feasible box" in err

    def test_numerical_failure_is_exit_3(self, tmp_path, capsys):
        # A Q A^T has rank n = 81 > 64, the preconditioner's rank, so one CG
        # step leaves the anchor solves unconverged (at s=8, n = 64 and the
        # preconditioner holds all of A Q A^T: one step converges)
        cfg = {
            "problem": {"kind": "tomo", "s": 9, "n_src": 8, "n_rec": 9, "seed": 0},
            "method": {
                "name": "m3c",
                "outer_iters": 2,
                "n_probes": 4,
                "pcg_maxit": 1,
                "seed": 0,
            },
            "output": {"directory": str(tmp_path / "out")},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_sample_size_command(self, capsys):
        rc = main(
            [
                "sample-size",
                "--eps", "0.5", "--delta", "0.1", "--m", "50", "--p", "2",
                "--radius", "1.0", "--alpha", "1.0", "--beta", "2.0", "--lipschitz", "1.0",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_probes"] == slq_samples_bound(
            0.5, 0.1, 50, p=2, radius=1.0,
            constants=SpectralConstants(alpha=1.0, beta=2.0, lipschitz=1.0),
        )
