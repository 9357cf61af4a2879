"""Strict-config validation tests."""

import json

import pytest

from hypermarg.config import (
    ConfigError,
    load_json,
    validate_bench_config,
    validate_run_config,
    validate_slice_config,
)


def run_cfg(**over):
    cfg = {
        "problem": {"kind": "identity", "m": 16, "seed": 0},
        "method": {"name": "m3c", "outer_iters": 3},
        "output": {"directory": "out"},
    }
    cfg.update(over)
    return cfg


class TestRunConfig:
    def test_valid_passes(self):
        out = validate_run_config(run_cfg())
        assert out["problem"]["kind"] == "identity"
        assert out["method"]["name"] == "m3c"

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="extras"):
            validate_run_config(run_cfg(extras={}))

    def test_unknown_problem_key(self):
        cfg = run_cfg()
        cfg["problem"]["banana"] = 3
        with pytest.raises(ConfigError, match="banana"):
            validate_run_config(cfg)

    def test_unknown_method_key(self):
        cfg = run_cfg()
        cfg["method"]["warmup"] = True
        with pytest.raises(ConfigError, match="warmup"):
            validate_run_config(cfg)

    def test_method_key_from_other_method_rejected(self):
        cfg = run_cfg()
        cfg["method"]["k_steps"] = 10  # an saa knob on an m3c block
        with pytest.raises(ConfigError, match="k_steps"):
            validate_run_config(cfg)

    def test_m3c_only_key_rejected_for_saa(self):
        cfg = run_cfg()
        cfg["method"] = {"name": "saa", "inner_iters": 8}
        with pytest.raises(ConfigError, match="inner_iters"):
            validate_run_config(cfg)

    def test_missing_block(self):
        cfg = run_cfg()
        del cfg["output"]
        with pytest.raises(ConfigError, match="output"):
            validate_run_config(cfg)

    def test_bad_kind(self):
        cfg = run_cfg()
        cfg["problem"]["kind"] = "helioseismology"
        with pytest.raises(ConfigError, match="kind"):
            validate_run_config(cfg)

    def test_wrong_type(self):
        cfg = run_cfg()
        cfg["method"]["outer_iters"] = "five"
        with pytest.raises(ConfigError, match="outer_iters"):
            validate_run_config(cfg)

    def test_bool_is_not_an_int(self):
        cfg = run_cfg()
        cfg["method"]["n_probes"] = True
        with pytest.raises(ConfigError, match="n_probes"):
            validate_run_config(cfg)

    def test_negative_value(self):
        cfg = run_cfg()
        cfg["method"]["tol"] = -1.0
        with pytest.raises(ConfigError, match="tol"):
            validate_run_config(cfg)

    def test_theta0_forms(self):
        cfg = run_cfg()
        cfg["method"]["theta0"] = "true"
        validate_run_config(cfg)
        cfg["method"]["theta0"] = [0.5]
        assert validate_run_config(cfg)["method"]["theta0"] == [0.5]
        cfg["method"]["theta0"] = "somewhere"
        with pytest.raises(ConfigError, match="theta0"):
            validate_run_config(cfg)
        cfg["method"]["theta0"] = [0.5, "x"]
        with pytest.raises(ConfigError, match="theta0"):
            validate_run_config(cfg)

    def test_bad_method_name(self):
        cfg = run_cfg()
        cfg["method"]["name"] = "adam"
        with pytest.raises(ConfigError, match="name"):
            validate_run_config(cfg)


class TestSliceConfig:
    def cfg(self):
        return {
            "problem": {"kind": "tomo", "s": 5, "n_src": 4, "n_rec": 6},
            "slice": {
                "anchor": [1e-3, 0.5, 0.3],
                "axis": 1,
                "grid_min": 0.1,
                "grid_max": 1.0,
                "grid_count": 20,
            },
            "output": {"directory": "out"},
        }

    def test_valid(self):
        out = validate_slice_config(self.cfg())
        assert out["slice"]["anchor"] == [1e-3, 0.5, 0.3]

    def test_grid_order(self):
        cfg = self.cfg()
        cfg["slice"]["grid_min"] = 2.0
        with pytest.raises(ConfigError, match="grid_min"):
            validate_slice_config(cfg)

    def test_count_minimum(self):
        cfg = self.cfg()
        cfg["slice"]["grid_count"] = 1
        with pytest.raises(ConfigError, match="grid_count"):
            validate_slice_config(cfg)


class TestBenchConfig:
    def cfg(self, **over):
        tb = {
            "matrix_kind": "spd-logdet",
            "m": 10,
            "kappa": 2.0,
            "eps": 0.5,
            "delta": 0.1,
            "mode": "bound",
            "trials": 5,
        }
        tb.update(over)
        return {"trace_bench": tb, "output": {"directory": "out"}}

    def test_valid_bound(self):
        validate_bench_config(self.cfg())

    def test_sweep_requires_probe_list(self):
        with pytest.raises(ConfigError, match="sweep_probes"):
            validate_bench_config(self.cfg(mode="sweep"))
        validate_bench_config(self.cfg(mode="sweep", sweep_probes=[4, 8]))

    def test_probe_list_only_in_sweep(self):
        with pytest.raises(ConfigError, match="sweep_probes"):
            validate_bench_config(self.cfg(sweep_probes=[4]))

    def test_delta_range(self):
        with pytest.raises(ConfigError, match="delta"):
            validate_bench_config(self.cfg(delta=1.5))

    def test_depth_only_in_sweep(self):
        # bound mode takes its depth from the depth bound
        with pytest.raises(ConfigError, match="k_steps"):
            validate_bench_config(self.cfg(k_steps=4))
        validate_bench_config(self.cfg(mode="sweep", sweep_probes=[4], k_steps=4))

    def test_kappa_only_for_spd_family(self):
        # the identity's condition number is 1 whatever kappa says
        with pytest.raises(ConfigError, match="kappa"):
            validate_bench_config(self.cfg(matrix_kind="identity"))
        cfg = self.cfg(matrix_kind="identity")
        del cfg["trace_bench"]["kappa"]
        assert validate_bench_config(cfg)["trace_bench"]["kappa"] == 1.0


def test_load_json(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_json(str(tmp_path / "nope.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="JSON"):
        load_json(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_json(str(arr))
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"a": 1}))
    assert load_json(str(good)) == {"a": 1}
