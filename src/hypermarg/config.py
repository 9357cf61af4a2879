"""Experiment configuration: strict JSON loading and validation.

Configs are plain JSON with up to three blocks — ``problem``, ``method``,
and ``output`` — plus command-specific blocks (``slice``, ``trace_bench``).
Validation is strict: unknown keys anywhere are an error, as are wrong
types and out-of-range values.  All validation failures raise
``ConfigError``, which the command-line layer maps to its invalid-config
exit status; nothing here ever exits the process itself.
"""

from __future__ import annotations

import json
import os

__all__ = [
    "ConfigError",
    "load_json",
    "validate_run_config",
    "validate_slice_config",
    "validate_bench_config",
]


class ConfigError(Exception):
    """The configuration file is missing, malformed, or out of contract."""


def load_json(path):
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, "r") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


# ---------------------------------------------------------------------------
# schema helpers
# ---------------------------------------------------------------------------
#
# A schema entry is (type_tuple, checker-or-None).  Checkers get the value
# and return an error string or None.  Booleans are NOT acceptable ints.


def _positive(v):
    return None if v > 0 else "must be positive"


def _nonneg(v):
    return None if v >= 0 else "must be nonnegative"


def _unit_open(v):
    return None if 0.0 < v < 1.0 else "must lie strictly between 0 and 1"


_NUM = ((int, float), None)
_POS_INT = ((int,), _positive)
_NONNEG_INT = ((int,), _nonneg)
_POS_NUM = ((int, float), _positive)
_STR = ((str,), None)
_BOOL = ((bool,), None)


def _check_block(block, where, schema, required=()):
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(block) - set(schema)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    for key in required:
        if key not in block:
            raise ConfigError(f"{where} is missing required key {key!r}")
    for key, value in block.items():
        types, check = schema[key]
        if isinstance(value, bool) and bool not in types:
            raise ConfigError(f"{where}.{key} has wrong type (got bool)")
        if not isinstance(value, types):
            names = "/".join(t.__name__ for t in types)
            raise ConfigError(f"{where}.{key} must be {names}")
        if check is not None:
            msg = check(value)
            if msg:
                raise ConfigError(f"{where}.{key} {msg}")


def _float_list(block, where, key, length=None):
    value = block[key]
    if not isinstance(value, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    ):
        raise ConfigError(f"{where}.{key} must be a list of numbers")
    if length is not None and len(value) != length:
        raise ConfigError(f"{where}.{key} must have length {length}")
    return [float(v) for v in value]


# ---------------------------------------------------------------------------
# problem block
# ---------------------------------------------------------------------------

_PROBLEM_SCHEMAS = {
    "identity": {"m": _POS_INT, "noise_level": _POS_NUM, "seed": _NONNEG_INT},
    "deblur": {
        "s": _POS_INT,
        "halfwidth": _POS_INT,
        "noise_level": _POS_NUM,
        "seed": _NONNEG_INT,
    },
    "tomo": {
        "s": _POS_INT,
        "n_src": _POS_INT,
        "n_rec": _POS_INT,
        "nu": ((int, float), lambda v: None if v in (0.5, 1.5, 2.5) else "must be 0.5, 1.5 or 2.5"),
        "noise_level": _POS_NUM,
        "seed": _NONNEG_INT,
    },
    "superres": {
        "s": _POS_INT,
        "decim": _POS_INT,
        "frames": _POS_INT,
        "shift_max": _POS_NUM,
        "prior_var": _POS_NUM,
        "affine": _BOOL,
        "noise_level": _POS_NUM,
        "seed": _NONNEG_INT,
    },
}


def _validate_problem(block):
    if not isinstance(block, dict):
        raise ConfigError("problem must be a JSON object")
    kind = block.get("kind")
    if kind not in _PROBLEM_SCHEMAS:
        raise ConfigError(
            f"problem.kind must be one of {sorted(_PROBLEM_SCHEMAS)}, got {kind!r}"
        )
    schema = dict(_PROBLEM_SCHEMAS[kind])
    schema["kind"] = _STR
    _check_block(block, "problem", schema, required=("kind",))
    out = dict(block)
    return out


# ---------------------------------------------------------------------------
# method block
# ---------------------------------------------------------------------------

_COMMON_METHOD = {
    "name": _STR,
    "seed": _NONNEG_INT,
    "tol": _POS_NUM,
    "n_probes": _POS_INT,
    "pcg_tol": _POS_NUM,
    "pcg_maxit": _POS_INT,
    # theta0 is checked separately: "center", "true", or a numeric list
    "theta0": ((str, list), None),
}

_M3C_SCHEMA = dict(
    _COMMON_METHOD,
    outer_iters=_POS_INT,
    inner_iters=_POS_INT,
    inner_tol=_POS_NUM,
)

_SAA_SCHEMA = dict(
    _COMMON_METHOD,
    k_steps=_POS_INT,
    max_iters=_POS_INT,
)


def _validate_method(block):
    if not isinstance(block, dict):
        raise ConfigError("method must be a JSON object")
    name = block.get("name")
    if name not in ("m3c", "saa"):
        raise ConfigError(f"method.name must be 'm3c' or 'saa', got {name!r}")
    schema = _M3C_SCHEMA if name == "m3c" else _SAA_SCHEMA
    _check_block(block, "method", schema, required=("name",))
    out = dict(block)
    theta0 = out.get("theta0", "center")
    if isinstance(theta0, str):
        if theta0 not in ("center", "true"):
            raise ConfigError("method.theta0 must be 'center', 'true', or a numeric list")
    else:
        out["theta0"] = _float_list(out, "method", "theta0")
    return out


# ---------------------------------------------------------------------------
# output block
# ---------------------------------------------------------------------------


def _validate_output(block):
    _check_block(block, "output", {"directory": _STR}, required=("directory",))
    return dict(block)


# ---------------------------------------------------------------------------
# top-level validators, one per subcommand
# ---------------------------------------------------------------------------


def _check_top(cfg, allowed, required):
    unknown = set(cfg) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {sorted(unknown)}")
    for key in required:
        if key not in cfg:
            raise ConfigError(f"config is missing required block {key!r}")


def validate_run_config(cfg):
    _check_top(cfg, ("problem", "method", "output"), ("problem", "method", "output"))
    return {
        "problem": _validate_problem(cfg["problem"]),
        "method": _validate_method(cfg["method"]),
        "output": _validate_output(cfg["output"]),
    }


def validate_slice_config(cfg):
    _check_top(cfg, ("problem", "slice", "output"), ("problem", "slice", "output"))
    problem = _validate_problem(cfg["problem"])
    block = cfg["slice"]
    _check_block(
        block,
        "slice",
        {
            "anchor": ((list,), None),
            "axis": _NONNEG_INT,
            "grid_min": _NUM,
            "grid_max": _NUM,
            "grid_count": ((int,), lambda v: None if v >= 2 else "must be at least 2"),
        },
        required=("anchor", "axis", "grid_min", "grid_max", "grid_count"),
    )
    out = dict(block)
    out["anchor"] = _float_list(block, "slice", "anchor")
    if out["grid_min"] >= out["grid_max"]:
        raise ConfigError("slice.grid_min must be below slice.grid_max")
    return {"problem": problem, "slice": out, "output": _validate_output(cfg["output"])}


def validate_bench_config(cfg):
    _check_top(cfg, ("trace_bench", "output"), ("trace_bench", "output"))
    block = cfg["trace_bench"]
    _check_block(
        block,
        "trace_bench",
        {
            "matrix_kind": ((str,), lambda v: None if v in ("spd-logdet", "identity") else "must be 'spd-logdet' or 'identity'"),
            "m": _POS_INT,
            "kappa": ((int, float), lambda v: None if v >= 1 else "must be >= 1"),
            "matrix_seed": _NONNEG_INT,
            "eps": _POS_NUM,
            "delta": ((int, float), _unit_open),
            "mode": ((str,), lambda v: None if v in ("bound", "sweep") else "must be 'bound' or 'sweep'"),
            "sweep_probes": ((list,), None),
            "k_steps": _POS_INT,
            "trials": _POS_INT,
            "seed": _NONNEG_INT,
        },
        required=("matrix_kind", "m", "eps", "delta", "mode", "trials"),
    )
    out = dict(block)
    out.setdefault("matrix_seed", 0)
    out.setdefault("seed", 0)
    if out["matrix_kind"] == "identity" and "kappa" in out:
        raise ConfigError("trace_bench.kappa is only valid for matrix_kind 'spd-logdet'")
    out.setdefault("kappa", 1.0)
    if out["mode"] == "bound" and "k_steps" in out:
        raise ConfigError("trace_bench.k_steps is only valid in sweep mode")
    if out["mode"] == "sweep":
        if "sweep_probes" not in out:
            raise ConfigError("trace_bench.sweep_probes is required in sweep mode")
        probes = out["sweep_probes"]
        if not probes or not all(isinstance(v, int) and not isinstance(v, bool) and v > 0 for v in probes):
            raise ConfigError("trace_bench.sweep_probes must be a nonempty list of positive ints")
    elif "sweep_probes" in out:
        raise ConfigError("trace_bench.sweep_probes is only valid in sweep mode")
    return {"trace_bench": out, "output": _validate_output(cfg["output"])}
