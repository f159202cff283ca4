"""Configuration-driven experiment runner.

Each experiment writes machine-readable CSV data plus a JSON summary with a
full parameter echo.  CSV output is byte-identical across runs of the same
configuration: 17 significant digits, '.' decimal separator, '\\n' line
endings, fixed column order.

Exit codes: 0 success, 2 config error, 3 numerical-contract violation,
4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bath import BathSpec, DrivenQubitMasterEquation, jc_kinetic_coefficients
from .config import EXPERIMENTS, ExperimentConfig, load_config
from .eigenoperators import (
    DrivenGenerator,
    _heisenberg_residuals,
    deviation_up_to_phase,
    monodromy_eigenoperators,
    static_eigenoperators,
)
from .errors import ConfigError, ContractError, CovlindError
from .jaynes_cummings import (
    JCParams,
    _autonomous_states,
    _stirling_row,
    fit_gaussian_envelope,
    jc_eigenoperators,
    jc_semiclassical_hamiltonian,
    jc_semiclassical_propagator,
    touchard,
    touchard_asymptotic,
)
from .operators import DensityMatrix, qubit_ops, uhlmann_fidelity, validate_states
from .propagate import TimeGrid

_Q = qubit_ops()
# bytes of states one fig2/jc-sim run may hold: its autonomous and
# semi-classical stacks of 2x2 complex128 states (64 B each), 131 072 times;
# the run's traced peak is about 4.2 times this, reached in the fidelity
_STATE_BUDGET_BYTES = 16 << 20


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]):
    """One row per index of ``columns``, which share one length, each value
    as ``_fmt`` writes it ("%.17g" of a Python number is format(float(x),
    ".17g"))."""
    row = ",".join(["%.17g"] * len(columns))
    lines = [",".join(header)]
    values = zip(*(np.asarray(col).tolist() for col in columns), strict=True)
    lines += [row % v for v in values]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")


def write_json(path: Path, payload: dict):
    payload = dict(payload)
    payload["library_version"] = __version__
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ContractError(f"{path.name} would hold a non-finite number ({exc})") from exc
    path.write_text(text + "\n", encoding="utf-8", newline="")


def _echo_params(p: JCParams) -> dict:
    return {"omega_c": p.omega_c, "omega_eg": p.omega_eg, "g": p.g,
            "alpha": [p.alpha.real, p.alpha.imag], "delta": p.delta,
            "nbar": p.nbar, "rabi": p.rabi}


def _bath_from_cfg(cfg: ExperimentConfig) -> BathSpec:
    b = dict(cfg.bath)
    return BathSpec(temperature=float(b.get("temperature", 0.5)),
                    model=b.get("model", "ohmic"),
                    eta=float(b.get("eta", 0.1)),
                    omega_cut=float(b.get("omega_cut", 20.0)),
                    omega_lo=float(b.get("omega_lo", 0.0)),
                    omega_hi=float(b.get("omega_hi", np.inf)))


def _driven_qubit_defaults(cfg: ExperimentConfig) -> ExperimentConfig:
    """A copy of ``cfg`` whose jc section falls back to alpha = 2 and, unless
    g is given, rabi = 0.4; the loaded config itself is left as it is."""
    jc = {"alpha": 2.0, **cfg.jc}
    if "g" not in jc:
        jc.setdefault("rabi", 0.4)
    return dataclasses.replace(cfg, jc=jc)


def _pauli_series(states) -> dict[str, np.ndarray]:
    """<sx>, <sy>, <sz> over a list of DensityMatrix or a (T, 2, 2) stack,
    read from the entries in the (|g>, |e>) basis: Re(rho_10 + rho_01),
    Re(i (rho_10 - rho_01)) and Re(rho_11 - rho_00).  Adding 0.0 writes an
    exact zero as 0, never -0, as tr(sigma rho) does."""
    rhos = states if isinstance(states, np.ndarray) else np.array([st.data for st in states])
    r00, r01, r10, r11 = rhos[:, 0, 0], rhos[:, 0, 1], rhos[:, 1, 0], rhos[:, 1, 1]
    return {"sx": r10.real + r01.real + 0.0, "sy": r01.imag - r10.imag + 0.0,
            "sz": r11.real - r00.real + 0.0}


def _fig2_single(cfg: ExperimentConfig, alpha: complex):
    """One alpha's trajectory table, its header and columns with t first
    (jc-sim writes it whole, fig2 without t), and its summary fields."""
    p = cfg.jc_params(alpha=alpha)
    if not p.rabi > 0:
        raise ContractError(f"the Rabi frequency sets the time scale and must be "
                            f"positive, got {p.rabi}")
    t0 = float(cfg.grid.get("t0", 0.0))
    t1 = float(cfg.grid.get("t1", 40.0 / p.rabi))
    if not t1 > t0:
        raise ConfigError(f"grid.t1 must exceed grid.t0, got t0 = {t0}, t1 = {t1}")
    steps = int(cfg.grid.get("steps", 2000))
    state_bytes = 2 * 64 * (steps + 1)
    if state_bytes > _STATE_BUDGET_BYTES:
        raise ContractError(f"grid.steps = {steps} would hold {state_bytes} bytes of "
                            f"states, over the {_STATE_BUDGET_BYTES} bytes one run may "
                            f"hold (at most {_STATE_BUDGET_BYTES // 128 - 1} steps)")
    times = np.linspace(t0, t1, steps + 1)
    rho0 = DensityMatrix.from_matrix(cfg.initial_matrix(), (2,)).data
    auto = _autonomous_states(rho0, p, times)
    u = jc_semiclassical_propagator(times, p)
    sc = validate_states(u @ rho0 @ u.conj().transpose(0, 2, 1))
    fid = uhlmann_fidelity(auto, sc)
    pa, ps = _pauli_series(auto), _pauli_series(sc)
    try:
        envelope_rate = fit_gaussian_envelope(times, pa["sx"])
    except CovlindError:
        envelope_rate = None  # written as null
    table = {"t": times, "t_normalized": times * p.rabi, "fidelity": fid,
             **{f"{key}_autonomous": col for key, col in pa.items()},
             **{f"{key}_semiclassical": col for key, col in ps.items()}}
    fields = {"min_fidelity": float(np.min(fid)), "envelope_decay_rate": envelope_rate,
              "params": _echo_params(p)}
    return list(table), list(table.values()), fields


def run_fig2(cfg: ExperimentConfig, out: Path) -> dict:
    """Autonomous vs semi-classical convergence for a list of alphas."""
    alphas = cfg.alphas()
    tags = [_fmt(abs(a)).replace(".", "p") for a in alphas]
    for i, tag in enumerate(tags):
        if tag in tags[:i]:
            raise ConfigError(f"alphas {alphas[tags.index(tag)]:g} and {alphas[i]:g} share "
                              f"|alpha| = {abs(alphas[i]):g}, so both would write "
                              f"fig2_alpha_{tag}.csv")
    results = [_fig2_single(cfg, a) for a in alphas]
    summary_alphas = []
    for a, tag, (header, columns, fields) in zip(alphas, tags, results):
        write_csv(out / f"fig2_alpha_{tag}.csv", header[1:], columns[1:])
        summary_alphas.append({"alpha": [complex(a).real, complex(a).imag], **fields})
    summary = {"experiment": "fig2", "alphas": summary_alphas,
               "initial_state": str(cfg.initial_state),
               "monotone_min_fidelity": bool(np.all(np.diff(
                   [s["min_fidelity"] for s in summary_alphas]) > 0))}
    write_json(out / "fig2_summary.json", summary)
    return summary


def run_jc_sim(cfg: ExperimentConfig, out: Path) -> dict:
    """Single-alpha autonomous + semi-classical trajectory dump."""
    header, columns, fields = _fig2_single(cfg, cfg.alphas()[0])
    write_csv(out / "jc_sim.csv", header, columns)
    summary = {"experiment": "jc-sim", **fields, "initial_state": str(cfg.initial_state)}
    write_json(out / "jc_sim_summary.json", summary)
    return summary


def run_eigenops(cfg: ExperimentConfig, out: Path) -> dict:
    """Monodromy eigenfrequencies and deviation from the analytic forms."""
    cfg = _driven_qubit_defaults(cfg)
    alpha = cfg.alphas()[0]
    if abs(alpha) == 0:
        omega_c, delta = cfg._frequencies()
        omega_eg = omega_c + delta
        eset = static_eigenoperators(0.5 * omega_eg * _Q["sz"])
        report = {"experiment": "eigenops", "mode": "static-fallback",
                  "bohr_frequencies": sorted(float(f) for f in eset.freqs),
                  "omega_eg": omega_eg}
        write_json(out / "eigenops_report.json", report)
        return report
    p = cfg.jc_params(alpha=alpha)
    f_plus, f_minus, _w = jc_eigenoperators(p)
    gen = DrivenGenerator(lambda t: jc_semiclassical_hamiltonian(t, p),
                          period=2 * np.pi / p.omega_c, stacked=True)
    eset = monodromy_eigenoperators(gen)
    grid = TimeGrid(0.0, 10 * 2 * np.pi / p.rabi, 400)
    times = grid.times()
    residuals = dict(zip(("F_plus", "F_minus"), _heisenberg_residuals(
        [(f_plus(times), +p.rabi), (f_minus(times), -p.rabi)], gen, grid)))
    if eset.invariant_flags.all():
        raise ContractError(f"every monodromy eigenoperator is invariant: the Rabi "
                            f"frequency {p.rabi:g} folds onto the invariants at the "
                            f"drive frequency omega_c = {p.omega_c:g}, so F_pm have "
                            f"no counterpart")
    deviations = []
    nilpotency = []
    lams = eset.freqs[~eset.invariant_flags]
    for target, freq in ((f_plus(0.0).data, p.rabi), (f_minus(0.0).data, -p.rabi)):
        best = min((deviation_up_to_phase(op.data, target), lam)
                   for op, lam in zip(eset.non_invariant(), lams))
        deviations.append({"target_frequency": freq, "max_deviation": best[0],
                           "monodromy_frequency": float(best[1])})
        nilpotency.append(float(np.max(np.abs(target @ target))) < 1e-10)
    report = {"experiment": "eigenops",
              "monodromy_frequencies": sorted(float(f) for f in eset.freqs),
              "heisenberg_residuals": residuals,
              "analytic_deviation": deviations,
              "nilpotent_flags": nilpotency,
              "params": _echo_params(p)}
    write_json(out / "eigenops_report.json", report)
    return report


def run_attractor(cfg: ExperimentConfig, out: Path) -> dict:
    """Instantaneous attractor of the driven-qubit dissipator."""
    p = cfg.jc_params()
    bath = _bath_from_cfg(cfg)
    master = DrivenQubitMasterEquation(p, bath)
    res = master.attractor()
    g0, gm, gp = master.coefficients
    report = {"experiment": "attractor",
              "coefficients": {"gamma0": g0, "gammaMinus": gm, "gammaPlus": gp},
              "delta_minus": float(res.deltas[0]),
              "zero_temperature_branch": bool(res.zero_temperature),
              "attractor": [[x.real, x.imag] for x in res.state.data.reshape(-1)],
              "effective_hamiltonian": [[x.real, x.imag]
                                        for x in res.effective_hamiltonian.data.reshape(-1)],
              "residual": res.residual,
              "residual_scale": res.residual_scale,
              "bath": {"temperature": bath.temperature, "model": bath.model,
                       "eta": bath.eta, "omega_cut": bath.omega_cut},
              "params": _echo_params(p)}
    write_json(out / "attractor_report.json", report)
    return report


def run_coefficients(cfg: ExperimentConfig, out: Path) -> dict:
    """Kinetic-coefficient sweep over detuning or temperature."""
    bath = _bath_from_cfg(cfg)
    cfg = _driven_qubit_defaults(cfg)
    base = cfg.jc_params()
    variable = cfg.sweep.get("variable", "delta")
    if variable not in ("delta", "temperature"):
        raise ConfigError(f"sweep.variable must be 'delta' or 'temperature', "
                          f"got {variable!r}")
    if "values" in cfg.sweep:
        values = [float(v) for v in cfg.sweep["values"]]
    elif variable == "delta":
        values = list(np.linspace(-2 * base.rabi, 2 * base.rabi, 41))
    else:
        values = list(np.linspace(0.0, 10.0 * base.omega_c, 41))
    rows = {"delta": [], "T": [], "gamma0": [], "gammaMinus": [], "gammaPlus": []}
    for v in values:
        if variable == "delta":
            if not base.omega_c + v > 0:
                origin = ("sweep.values" if "values" in cfg.sweep else
                          f"the default sweep over +-2 rabi at jc.rabi = {base.rabi:g}")
                raise ConfigError(f"sweep value delta = {v:g} from {origin} makes omega_eg = "
                                  f"omega_c + delta = {base.omega_c + v:g} not positive at "
                                  f"omega_c = {base.omega_c:g}; set sweep.values to "
                                  f"detunings above -omega_c")
            p = JCParams(base.omega_c, base.omega_c + v, base.g, base.alpha)
            b = bath
        else:
            p = base
            b = dataclasses.replace(bath, temperature=v)
        g0, gm, gp = jc_kinetic_coefficients(p, b)
        rows["delta"].append(p.delta)
        rows["T"].append(b.temperature)
        rows["gamma0"].append(g0)
        rows["gammaMinus"].append(gm)
        rows["gammaPlus"].append(gp)
    write_csv(out / "coefficients.csv",
              ["delta", "T", "gamma0", "gammaMinus", "gammaPlus"],
              [np.array(rows[k]) for k in ("delta", "T", "gamma0",
                                           "gammaMinus", "gammaPlus")])
    summary = {"experiment": "coefficients", "variable": variable,
               "count": len(values), "all_nonnegative": bool(
                   min(min(rows["gamma0"]), min(rows["gammaMinus"]),
                       min(rows["gammaPlus"])) >= 0),
               "params": _echo_params(base)}
    write_json(out / "coefficients_summary.json", summary)
    return summary


def run_touchard(cfg: ExperimentConfig, out: Path) -> dict:
    """Touchard polynomial asymptotics sweep."""
    orders = [int(j) for j in cfg.touchard.get("orders", [3, 4, 5, 6])]
    xs = [float(x) for x in cfg.touchard.get("x_values", [1e2, 1e3, 1e4])]
    if min(xs) < 1.0:
        raise ConfigError(f"touchard.x_values must be >= 1, the residual is an "
                          f"expansion in 1/x; got {min(xs)}")
    if min(orders) < 3:
        raise ConfigError(f"touchard.orders must be >= 3, got {min(orders)}: T_1 and "
                          f"T_2 equal their large-x form exactly, so their residual "
                          f"is rounding noise with no slope")
    cols = {"j": [], "x": [], "touchard": [], "asymptotic": [], "scaled_residual": []}
    slopes = {}
    for j in orders:
        resids = []
        for x in xs:
            tj = touchard(j, x)
            asym = touchard_asymptotic(j, x)
            # T_j / x^j - 1 - j (j - 1) / (2x) is the tail sum_{k <= j-2} S(j, k) x^(k-j):
            # its positive terms sum without cancellation, and S(j, 1) = 1 keeps it > 0
            resid = float(np.polynomial.polynomial.polyval(x, _stirling_row(j)[:j - 1])) / x ** j
            cols["j"].append(j)
            cols["x"].append(x)
            cols["touchard"].append(tj)
            cols["asymptotic"].append(asym)
            cols["scaled_residual"].append(resid)
            resids.append(resid)
        # checked after touchard() has seen every x, so an x outside its
        # range is reported as such first
        if len(set(xs)) < 2:
            raise ConfigError(f"touchard.x_values needs two distinct values to fit "
                              f"a slope, got {xs}")
        slope = np.polyfit(np.log(xs), np.log(resids), 1)[0]
        slopes[str(j)] = float(slope)
    write_csv(out / "touchard.csv",
              ["j", "x", "touchard", "asymptotic", "scaled_residual"],
              [np.array(cols[k], dtype=float)
               for k in ("j", "x", "touchard", "asymptotic", "scaled_residual")])
    summary = {"experiment": "touchard", "loglog_slopes": slopes}
    write_json(out / "touchard_summary.json", summary)
    return summary


_RUNNERS = {
    "fig2": run_fig2,
    "jc-sim": run_jc_sim,
    "eigenops": run_eigenops,
    "attractor": run_attractor,
    "coefficients": run_coefficients,
    "touchard": run_touchard,
}
_NO_GRID = {
    "eigenops": "its Heisenberg grid is fixed at 400 steps over ten Rabi periods",
    "attractor": "the instantaneous attractor is taken at t = 0",
    "coefficients": "it sweeps detuning or temperature (the sweep section), not time",
    "touchard": "it sweeps touchard.x_values, not time",
}


def _parse_alpha_list(text: str) -> list[complex]:
    try:
        return [complex(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse --alpha list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covlind",
        description="Thermodynamically consistent driven-qubit experiments")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        sp.add_argument("--config", default=None, help="YAML config file")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--alpha", default=None,
                        help="comma-separated coherent amplitudes")
        sp.add_argument("--tmax", type=float, default=None, help="final time")
        sp.add_argument("--steps", type=int, default=None, help="grid steps")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = {
            "alphas": _parse_alpha_list(args.alpha) if args.alpha else None,
            "tmax": args.tmax,
            "steps": args.steps,
            "output": args.out,
        }
        cfg = load_config(args.config, experiment=args.experiment,
                          overrides=overrides)
        if cfg.grid and cfg.experiment in _NO_GRID:
            raise ConfigError(f"{cfg.experiment} takes no grid (got grid = {cfg.grid}, from "
                              f"the config, --steps or --tmax): {_NO_GRID[cfg.experiment]}")
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        out = Path(cfg.output)
        out.mkdir(parents=True, exist_ok=True)
        _RUNNERS[cfg.experiment](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CovlindError as exc:
        print(f"numerical contract violation: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        # a parameter so large or small that float arithmetic leaves its range
        print(f"numerical contract violation: floating-point overflow ({exc})",
              file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    print(json.dumps({"experiment": cfg.experiment, "output": str(out),
                      "ok": True}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
