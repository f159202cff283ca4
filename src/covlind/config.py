"""Experiment configuration: YAML schema, strict validation, defaults."""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import yaml

from .errors import ConfigError
from .jaynes_cummings import JCParams

EXPERIMENTS = ("fig2", "jc-sim", "eigenops", "attractor", "coefficients", "touchard")
_SECTIONS = ("jc", "bath", "grid", "sweep", "touchard")

# allowed keys per section; strict parsing rejects anything else by name
_SCHEMA = {
    "experiment": None,
    "jc": {"omega_c", "omega_eg", "delta", "g", "rabi", "alpha", "alphas"},
    "bath": {"temperature", "model", "eta", "omega_cut", "omega_lo", "omega_hi"},
    "grid": {"t0", "t1", "steps"},
    "sweep": {"variable", "values"},
    "touchard": {"orders", "x_values"},
    "initial_state": None,
    "output": None,
}

_NAMED_STATES = {
    "g": np.array([[1, 0], [0, 0]], dtype=complex),
    "e": np.array([[0, 0], [0, 1]], dtype=complex),
    "plus-x": 0.5 * np.array([[1, 1], [1, 1]], dtype=complex),
    "minus-x": 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex),
    "plus-y": 0.5 * np.array([[1, -1j], [1j, 1]], dtype=complex),
    "mixed": 0.5 * np.eye(2, dtype=complex),
}


@dataclass
class ExperimentConfig:
    experiment: str
    jc: dict = field(default_factory=dict)
    bath: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    touchard: dict = field(default_factory=dict)
    initial_state: Any = "plus-x"
    output: str = "covlind-out"

    def jc_params(self, alpha=None) -> JCParams:
        jc = dict(self.jc)
        omega_c = float(jc.get("omega_c", 1.0))
        if "omega_eg" in jc and "delta" in jc:
            raise ConfigError("give either jc.omega_eg or jc.delta, not both")
        delta = float(jc.get("delta", jc.get("omega_eg", omega_c) - omega_c))
        if alpha is None:
            alpha = jc.get("alpha", 5.0)
        alpha = _as_complex(alpha, "jc.alpha")
        if "g" in jc and "rabi" in jc:
            raise ConfigError("give either jc.g or jc.rabi, not both")
        if "g" in jc:
            return JCParams(omega_c, omega_c + delta, float(jc["g"]), alpha)
        rabi = float(jc.get("rabi", 2.0))
        return JCParams.with_rabi(omega_c, delta, rabi, alpha)

    def alphas(self) -> list[complex]:
        if "alphas" in self.jc:
            return [_as_complex(a, "jc.alphas") for a in self.jc["alphas"]]
        if "alpha" in self.jc:
            return [_as_complex(self.jc["alpha"], "jc.alpha")]
        return [5.0, 25.0, 50.0, 100.0]

    def initial_matrix(self) -> np.ndarray:
        return parse_initial_state(self.initial_state)


def _as_complex(x, where: str) -> complex:
    try:
        if isinstance(x, str):
            z = complex(x.replace(" ", ""))
        elif isinstance(x, (list, tuple)) and len(x) == 2:
            z = complex(float(x[0]), float(x[1]))
        else:
            z = complex(x)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: cannot parse complex value {x!r}") from exc
    if not cmath.isfinite(z):
        raise ConfigError(f"{where} must be finite, got {x!r}")
    return z


def parse_initial_state(spec) -> np.ndarray:
    """Named qubit state or explicit 2x2 entries (numbers, [re, im], or
    strings accepted by complex())."""
    if isinstance(spec, str):
        if spec not in _NAMED_STATES:
            raise ConfigError(f"unknown initial state {spec!r}; "
                              f"choose from {sorted(_NAMED_STATES)} or give a 2x2 matrix")
        return _NAMED_STATES[spec].copy()
    try:
        rows = list(spec)
        mat = np.array([[_as_complex(x, "initial_state") for x in row] for row in rows])
    except (TypeError, ConfigError) as exc:
        raise ConfigError(f"cannot parse initial_state {spec!r}") from exc
    if mat.shape != (2, 2):
        raise ConfigError(f"initial_state must be 2x2, got {mat.shape}")
    tr = np.trace(mat)
    if abs(tr) < 1e-12:
        raise ConfigError("initial_state has zero trace")
    return mat / tr


def _check_finite(where: str, val):
    """Reject NaN and infinities, also inside (nested) lists."""
    if isinstance(val, (list, tuple)):
        for i, item in enumerate(val):
            _check_finite(f"{where}[{i}]", item)
    elif isinstance(val, (float, complex)) and not cmath.isfinite(val):
        raise ConfigError(f"{where} must be finite, got {val}")


def _validate_section(name: str, data, allowed):
    if allowed is None:
        return
    if not isinstance(data, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown key {name}.{key!r}")
    for key, val in data.items():
        _check_finite(f"{name}.{key}", val)
    if name == "grid" and "steps" in data:
        steps = data["steps"]
        if isinstance(steps, bool) or not isinstance(steps, int) or steps < 1:
            raise ConfigError(f"grid.steps must be a positive integer, got {steps!r}")


def load_config(path: str | None, experiment: str | None = None,
                overrides: dict | None = None) -> ExperimentConfig:
    """Load, validate, and merge a config file with CLI overrides.

    Unknown keys abort with the offending key named; missing sections fall
    back to experiment defaults.
    """
    raw: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh) or {}
        if not isinstance(raw, dict):
            raise ConfigError("config file must contain a mapping at top level")
    for key in raw:
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}")
    for name in _SECTIONS:
        if name in raw:
            _validate_section(name, raw[name], _SCHEMA[name])
    exp = experiment or raw.get("experiment")
    if exp is None:
        raise ConfigError("no experiment given (config key 'experiment' or CLI)")
    if exp not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {exp!r}; choose from {EXPERIMENTS}")
    if experiment and "experiment" in raw and raw["experiment"] != experiment:
        raise ConfigError(f"config is for experiment {raw['experiment']!r}, "
                          f"but {experiment!r} was requested")
    cfg = ExperimentConfig(
        experiment=exp,
        jc=dict(raw.get("jc", {})),
        bath=dict(raw.get("bath", {})),
        grid=dict(raw.get("grid", {})),
        sweep=dict(raw.get("sweep", {})),
        touchard=dict(raw.get("touchard", {})),
        initial_state=raw.get("initial_state", "plus-x"),
        output=raw.get("output", "covlind-out"),
    )
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key == "alphas":
            cfg.jc["alphas"] = val
        elif key == "tmax":
            cfg.grid["t1"] = val
        elif key == "steps":
            cfg.grid["steps"] = val
        elif key == "output":
            cfg.output = val
        else:
            raise ConfigError(f"unknown override {key!r}")
    # the merged sections again, so CLI overrides get the same checks
    for name in _SECTIONS:
        _validate_section(name, getattr(cfg, name), _SCHEMA[name])
    return cfg
