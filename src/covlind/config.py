"""Experiment configuration: YAML schema, strict validation, defaults."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import ConfigError, ContractError
from .jaynes_cummings import JCParams
from .operators import validate_states

EXPERIMENTS = ("fig2", "jc-sim", "eigenops", "attractor", "coefficients", "touchard")
_SECTIONS = ("jc", "bath", "grid", "sweep", "touchard")

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

    def _frequencies(self) -> tuple[float, float]:
        """omega_c and delta = omega_eg - omega_c of the jc section."""
        jc = self.jc
        omega_c = float(jc.get("omega_c", 1.0))
        if "omega_eg" in jc and "delta" in jc:
            raise ConfigError("give either jc.omega_eg or jc.delta, not both")
        delta = float(jc.get("delta", float(jc.get("omega_eg", omega_c)) - omega_c))
        return omega_c, delta

    def jc_params(self, alpha=None) -> JCParams:
        """The run's parameters at ``alpha``, by default the first of ``alphas()``."""
        jc = self.jc
        omega_c, delta = self._frequencies()
        alpha = _as_complex(self.alphas()[0] if alpha is None else alpha, "jc.alpha")
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
    except (TypeError, ValueError, OverflowError) as exc:
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
    if not (isinstance(spec, (list, tuple)) and len(spec) == 2
            and all(isinstance(row, (list, tuple)) and len(row) == 2 for row in spec)):
        raise ConfigError(f"initial_state must be a state name or a 2x2 matrix, got {spec!r}")
    mat = np.array([[_as_complex(x, "initial_state") for x in row] for row in spec])
    tr = np.trace(mat)
    if abs(tr) < 1e-12:
        raise ConfigError("initial_state has zero trace")
    mat = mat / tr
    try:
        validate_states(mat)
    except ContractError as exc:
        raise ConfigError(f"initial_state is not a density matrix: {exc}") from exc
    return mat


def _number(where: str, x):
    """A finite real number.  Numeric strings count, as YAML reads 1e3 as one."""
    try:
        v = None if isinstance(x, bool) else float(x)
    except (TypeError, ValueError, OverflowError):
        v = None
    if v is None:
        raise ConfigError(f"{where} must be a number, got {x!r}")
    if not math.isfinite(v):
        raise ConfigError(f"{where} must be finite, got {x!r}")


def _integer(where: str, x):
    if isinstance(x, bool) or not isinstance(x, int):
        raise ConfigError(f"{where} must be an integer, got {x!r}")


def _positive_integer(where: str, x):
    if isinstance(x, bool) or not isinstance(x, int) or x < 1:
        raise ConfigError(f"{where} must be a positive integer, got {x!r}")


def _string(where: str, x):
    if not isinstance(x, str):
        raise ConfigError(f"{where} must be a string, got {x!r}")


def _list_of(item):
    def check(where: str, x):
        if not isinstance(x, list) or not x:
            raise ConfigError(f"{where} must be a non-empty list, got {x!r}")
        for i, val in enumerate(x):
            item(f"{where}[{i}]", val)
    return check


def _complex(where: str, x):
    _as_complex(x, where)


def _state(where: str, x):
    parse_initial_state(x)


# allowed keys per section and the check of each value; strict parsing
# rejects anything else by name
_SCHEMA = {
    "experiment": _string,
    "jc": {"omega_c": _number, "omega_eg": _number, "delta": _number, "g": _number,
           "rabi": _number, "alpha": _complex, "alphas": _list_of(_complex)},
    "bath": {"temperature": _number, "model": _string, "eta": _number,
             "omega_cut": _number, "omega_lo": _number, "omega_hi": _number},
    "grid": {"t0": _number, "t1": _number, "steps": _positive_integer},
    "sweep": {"variable": _string, "values": _list_of(_number)},
    "touchard": {"orders": _list_of(_integer), "x_values": _list_of(_number)},
    "initial_state": _state,
    "output": _string,
}


def _validate(name: str, data, schema):
    """Check one top-level value against its schema entry: a check, or for
    a section the mapping of its keys to checks."""
    if not isinstance(schema, dict):
        schema(name, data)
        return
    if not isinstance(data, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    for key in data:
        if key not in schema:
            raise ConfigError(f"unknown key {name}.{key!r}")
    for key, val in data.items():
        schema[key](f"{name}.{key}", val)


def load_config(path: str | None, experiment: str | None = None,
                overrides: dict | None = None) -> ExperimentConfig:
    """Load, validate, and merge a config file with CLI overrides.

    Unknown keys abort with the offending key named; missing sections fall
    back to experiment defaults.  yaml is imported only to read a file, so
    a run without one does not load it; a file it cannot parse raises
    ConfigError with the parser's message.
    """
    raw: dict = {}
    if path is not None:
        import yaml

        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = yaml.safe_load(fh) or {}
            except yaml.YAMLError as exc:
                raise ConfigError(f"{path} is not valid YAML: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must contain a mapping at top level")
    for key, val in raw.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}")
        _validate(key, val, _SCHEMA[key])
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
        _validate(name, getattr(cfg, name), _SCHEMA[name])
    return cfg
