import contextlib
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from covlind import cli
from covlind.cli import main, run_coefficients, run_eigenops, write_csv, write_json
from covlind.config import _SCHEMA, _SECTIONS, load_config, parse_initial_state
from covlind.eigenoperators import DegeneracyWarning
from covlind.errors import ConfigError, ContractError
from oracles import touchard_exact


def run_cli(args):
    return main(args)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, data


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


class TestConfig:
    def test_unknown_top_level_key_named(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("experiment: touchard\nbogus_key: 1\n")
        with pytest.raises(ConfigError, match="bogus_key"):
            load_config(str(cfg))

    def test_unknown_section_key_named(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("experiment: fig2\njc:\n  omega_cc: 1.0\n")
        with pytest.raises(ConfigError, match="omega_cc"):
            load_config(str(cfg))

    def test_non_finite_rejected(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("experiment: fig2\njc:\n  omega_c: .nan\n")
        with pytest.raises(ConfigError):
            load_config(str(cfg))

    def test_experiment_mismatch(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("experiment: fig2\n")
        with pytest.raises(ConfigError):
            load_config(str(cfg), experiment="touchard")

    def test_named_states(self):
        plus = parse_initial_state("plus-x")
        assert np.allclose(plus, 0.5 * np.ones((2, 2)))
        with pytest.raises(ConfigError):
            parse_initial_state("plus-z")

    def test_explicit_state_entries(self):
        mat = parse_initial_state([[0.5, [0.0, -0.5]], ["0.5j", 0.5]])
        assert np.allclose(mat, [[0.5, -0.5j], [0.5j, 0.5]])

    def test_jc_params_exclusive_keys(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("experiment: jc-sim\njc: {g: 0.1, rabi: 2.0}\n")
        with pytest.raises(ConfigError):
            load_config(str(cfg)).jc_params()


# eigenops drives whose monodromy frequencies fold onto the invariants,
# which raises a DegeneracyWarning before the run ends
FOLDING_EIGENOPS = ("jc: {rabi: 1.0e-9}", "jc: {omega_c: 1.0e+200}", "jc: {g: 1.0}")


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("experiment: touchard\nnope: 3\n")
        code = run_cli(["touchard", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert "nope" in capsys.readouterr().err

    def test_missing_config_file_is_2(self, tmp_path):
        assert run_cli(["touchard", "--config", str(tmp_path / "missing.yaml")]) == 2

    def test_numerical_contract_is_3(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        # negative frequency violates the JCParams contract
        cfg.write_text("experiment: attractor\njc: {omega_c: 1.0, delta: -3.0,"
                       " rabi: 4.0, alpha: 2.0}\n")
        assert run_cli(["attractor", "--config", str(cfg),
                        "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("experiment, body", [
        ("fig2", "jc:\n  alphas: [.nan]\n"),
        ("coefficients", "sweep:\n  values: [.inf, 1.0]\n"),
        ("fig2", "grid:\n  steps: -5\n"),
        ("fig2", "grid:\n  steps: 2.5\n"),
        ("fig2", "jc: {alphas: [1.0\n"),  # not YAML: the parser's error
    ])
    def test_malformed_values_are_2(self, tmp_path, capsys, experiment, body):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"experiment: {experiment}\n{body}")
        code = run_cli([experiment, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, body, code, named", [
        ("attractor", "jc: {omega_c: abc}", 2, "jc.omega_c"),
        ("attractor", "jc: {omega_c: [1, 2]}", 2, "jc.omega_c"),
        ("coefficients", "jc: {omega_c: abc}", 2, "jc.omega_c"),
        ("jc-sim", "jc: {omega_c: [1, 2]}", 2, "jc.omega_c"),
        ("attractor", "bath: {temperature: hot}", 2, "bath.temperature"),
        ("jc-sim", "grid: {t1: abc}", 2, "grid.t1"),
        ("jc-sim", "grid: {t0: 5.0, t1: 1.0}", 2, "grid.t1"),
        ("jc-sim", "grid: {t0: 1.0, t1: 1.0}", 2, "grid.t1"),
        ("fig2", "grid: {t0: 5.0, t1: 1.0}", 2, "grid.t1"),
        ("coefficients", "sweep: {values: abc}", 2, "sweep.values"),
        ("touchard", "touchard: {orders: abc}", 2, "touchard.orders"),
        ("jc-sim", "jc: {alphas: 5}", 2, "jc.alphas"),
        ("jc-sim", "jc: {alphas: []}", 2, "jc.alphas"),
        ("jc-sim", "initial_state: [[1, 0], [0]]", 2, "initial_state"),
        ("jc-sim", "jc: {rabi: 0.0}", 3, "Rabi frequency"),
        ("jc-sim", "jc: {rabi: -2.0}", 3, "rabi must be at least |delta|"),
        ("attractor", "jc: {omega_eg: 1e3}", 3, "delta = 999"),
        ("eigenops", "jc: {alpha: 0, g: 0, omega_eg: 1.3, delta: 0.5}", 2,
         "jc.omega_eg or jc.delta"),
        ("touchard", "touchard: {x_values: [1.0e-30, 10.0]}", 2, "touchard.x_values"),
        ("touchard", "touchard: {x_values: [1.0e+30]}", 3, "x <= 1e6"),
        ("touchard", "touchard: {x_values: [100, 100]}", 2, "touchard.x_values"),
        ("touchard", "touchard: {x_values: [5.0]}", 2, "touchard.x_values"),
        ("touchard", "touchard: {orders: [0, 1, 2]}", 2, "touchard.orders"),
        ("touchard", "touchard: {orders: [-1]}", 2, "touchard.orders"),
        ("touchard", "touchard: {x_values: [2.0, 4.0, 8.0], orders: [2, 3]}", 2,
         "touchard.orders"),
        ("touchard", "touchard: {orders: [2, 3]}", 2, "touchard.orders"),
        ("attractor", "bath: {omega_cut: 0.0}", 3, "omega_cut"),
        ("coefficients", "bath: {model: band, omega_lo: 2, omega_hi: 1}", 3, "omega_hi"),
        ("coefficients", "jc: {rabi: 30.0}", 2,
         "sweep value delta = -60 from the default sweep over +-2 rabi at jc.rabi = 30 "
         "makes omega_eg = omega_c + delta = -59 not positive at omega_c = 1; "
         "set sweep.values"),
        ("coefficients", "sweep: {values: [0.0, -2.5]}", 2,
         "sweep value delta = -2.5 from sweep.values makes omega_eg"),
        ("attractor", "bath: {model: band, omega_lo: 2, omega_hi: 1}", 3, "omega_hi"),
        # the one channel's kinetic rates both come out zero
        ("attractor", "jc: {omega_c: 1.0e+300}", 3,
         "channel 0 has forward rate 0 and reverse rate 0"),
        ("jc-sim", "jc: {alpha: 1.0e+4}", 3, "Kraus window"),
        ("jc-sim", "jc: {alpha: 1.0e+20}", 3, "past 2^53"),
        ("jc-sim", "jc: {rabi: 1.0e+200}", 3, "overflow"),
        ("jc-sim", "jc: {rabi: 1.0e+200}", 3, "rabi = 1e+200"),
        ("attractor", "jc: {rabi: 1.0e+200}", 3, "rabi = 1e+200"),
        ("coefficients", "jc: {rabi: 1.0e+200}", 3, "rabi = 1e+200"),
        ("eigenops", "jc: {rabi: 1.0e+200}", 3, "rabi = 1e+200"),
        ("attractor", "jc: {delta: 1.0e+154, g: 1.0e-300}", 3,
         "delta = 1e+154, rabi = 1e+154"),
        ("jc-sim", "jc: {alpha: 1.0e+200}", 3, "alpha = 1e+200"),
        ("attractor", "jc: {alpha: 1.0e+200}", 3, "alpha = 1e+200"),
        ("coefficients", "jc: {alpha: 1.0e+200}", 3, "alpha = 1e+200"),
        ("eigenops", "jc: {alpha: 1.0e+200}", 3, "alpha = 1e+200"),
        ("jc-sim", "jc: {alpha: 1.0e-200}", 3, "g = 1e+200"),
        ("attractor", "jc: {alpha: 1.0e-200}", 3, "g = 1e+200"),
        ("coefficients", "jc: {alpha: 1.0e-200}", 3, "g = 2e+199"),
        ("eigenops", "jc: {alpha: 1.0e-200}", 3, "g = 2e+199"),
        ("jc-sim", 'initial_state: [[1, 0], [0, "1j"]]', 2, "initial_state"),
        ("jc-sim", "initial_state: [[1, 2], [2, 1]]", 2, "initial_state"),
        ("attractor", "jc: {g: 0.0, delta: 0.1}", 3, "(g = 0, alpha = 5+0j"),
        ("eigenops", "jc: {g: 0.0, delta: 0.1}", 3, "(g = 0, alpha = 2+0j"),
        ("eigenops", "jc: {rabi: 1.0e+6}", 3, "RK4 unitary sweep diverged"),
        ("eigenops", "jc: {rabi: 1.0e-9}", 3, "RK4 unitary sweep diverged"),
        ("eigenops", "jc: {omega_c: 1.0e-8}", 3, "RK4 unitary sweep diverged"),
        ("eigenops", "jc: {omega_c: 1.0e+200}", 3, "RK4 unitary sweep diverged"),
        ("eigenops", "jc: {g: 1.0}", 3, "folds onto the invariants"),
        ("fig2", "jc: {alphas: [5, 5j]}", 2,
         "alphas 5+0j and 0+5j share |alpha| = 5, so both would write fig2_alpha_5.csv"),
        ("fig2", "jc: {alphas: [2.5, 7, -2.5]}", 2, "alphas 2.5+0j and -2.5+0j share"),
    ])
    def test_mistyped_values_exit_cleanly(self, tmp_path, capsys, experiment, body,
                                          code, named):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"experiment: {experiment}\n{body}\n")
        # only fig2 and jc-sim take a grid, so only they get --steps
        steps = ["--steps", "50"] if experiment in ("fig2", "jc-sim") else []
        folds = experiment == "eigenops" and body in FOLDING_EIGENOPS
        with pytest.warns(DegeneracyWarning) if folds else contextlib.nullcontext():
            assert run_cli([experiment, "--config", str(cfg), "--out", str(tmp_path / "o")]
                           + steps) == code
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("args, body", [(["--steps", "50"], ""),
                                            ([], "grid: {t1: 3.0}\n"),
                                            (["--tmax", "3"], "")])
    def test_eigenops_grid_is_2(self, tmp_path, capsys, args, body):
        # eigenops and the other runners that never read a grid
        for experiment, reason in (("eigenops", "fixed at 400 steps over ten Rabi periods"),
                                   ("attractor", "taken at t = 0"),
                                   ("coefficients", "sweeps detuning or temperature"),
                                   ("touchard", "sweeps touchard.x_values")):
            cfg = tmp_path / "c.yaml"
            cfg.write_text(f"experiment: {experiment}\n{body}")
            out = tmp_path / experiment
            assert run_cli([experiment, "--config", str(cfg), "--out", str(out)] + args) == 2
            err = capsys.readouterr().err
            assert f"{experiment} takes no grid" in err and reason in err
            assert not out.exists()

    @pytest.mark.parametrize("body", ["rabi: 1.0e+6", "rabi: 1.0e-9", "omega_c: 1.0e-8",
                                      "omega_c: 1.0e+200"])
    def test_diverging_sweep_exits_without_numpy_warnings(self, tmp_path, capsys, body):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"experiment: eigenops\njc: {{{body}}}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # two of these drives also fold the monodromy frequencies, which
            # is worth its warning
            warnings.filterwarnings("ignore", category=DegeneracyWarning)
            code = run_cli(["eigenops", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "RK4 unitary sweep diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["fig2", "jc-sim"])
    @pytest.mark.parametrize("steps", [131_072, 10**12])
    def test_grid_steps_over_budget_is_3(self, tmp_path, capsys, experiment, steps):
        # rejected before the time axis or any state is allocated
        assert run_cli([experiment, "--steps", str(steps), "--out", str(tmp_path / "o")]) == 3
        assert f"grid.steps = {steps}" in capsys.readouterr().err

    def test_malformed_override_is_2(self, tmp_path):
        assert run_cli(["fig2", "--steps", "-5", "--out", str(tmp_path / "o")]) == 2

    def test_success_is_0(self, tmp_path):
        assert run_cli(["touchard", "--out", str(tmp_path / "o")]) == 0


class TestOutputs:
    def test_touchard_outputs(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["touchard", "--out", str(out)]) == 0
        header, data = read_csv(out / "touchard.csv")
        assert header == ["j", "x", "touchard", "asymptotic", "scaled_residual"]
        summary = json.loads((out / "touchard_summary.json").read_text(),
                             parse_constant=_reject_constant)
        assert "library_version" in summary
        for j in ("3", "4", "5", "6"):
            assert abs(summary["loglog_slopes"][j] + 2.0) < 0.1

    def test_touchard_defaults_are_exact(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["touchard", "--out", str(out)]) == 0
        _, data = read_csv(out / "touchard.csv")
        for j, x, tj, _, _ in data:
            exact = touchard_exact(int(j), x)
            assert abs(tj - exact) <= 1e-15 * exact, (j, x)
        # T_3 = x^3 + 3 x^2 + x: the scaled residual is 1/x^2 exactly
        j3 = data[data[:, 0] == 3]
        assert j3[-1, 1] == 1e4
        assert abs(j3[-1, 4] - 1e-8) <= 1e-6 * 1e-8
        summary = json.loads((out / "touchard_summary.json").read_text())
        assert abs(summary["loglog_slopes"]["3"] + 2.0) <= 1e-6

    def test_touchard_large_x_residuals_are_exact(self, tmp_path):
        # T_j / x^j - 1 - j(j-1)/(2x) cancelled to 1.6e-4 relative at x = 1e6;
        # the residual is now summed from its positive Stirling tail
        out, cfg = tmp_path / "o", tmp_path / "c.yaml"
        cfg.write_text("touchard: {x_values: [1.0e+4, 1.0e+5, 1.0e+6], orders: [3, 4, 12]}\n")
        assert run_cli(["touchard", "--config", str(cfg), "--out", str(out)]) == 0
        _, data = read_csv(out / "touchard.csv")
        for j, x, _, _, resid in data:
            j = int(j)
            xf = Fraction(x)
            exact = touchard_exact(j, x) / xf ** j - 1 - Fraction(j * (j - 1), 2) / xf
            assert abs(Fraction(resid) - exact) <= Fraction(1, 10 ** 14) * exact, (j, x)
        summary = json.loads((out / "touchard_summary.json").read_text())
        assert abs(summary["loglog_slopes"]["3"] + 2.0) <= 1e-6

    def test_failed_envelope_fit_is_null(self, tmp_path):
        out = tmp_path / "o"
        cfg = tmp_path / "c.yaml"
        cfg.write_text("experiment: jc-sim\ngrid: {t1: 1.0}\n")
        assert run_cli(["jc-sim", "--config", str(cfg), "--out", str(out),
                        "--steps", "50"]) == 0
        summary = json.loads((out / "jc_sim_summary.json").read_text(),
                             parse_constant=_reject_constant)
        assert summary["envelope_decay_rate"] is None

    @pytest.mark.parametrize("args, summary_name", [
        (["jc-sim", "--tmax", "1e100", "--steps", "50"], "jc_sim_summary.json"),
        (["jc-sim", "--tmax", "1e160", "--steps", "50"], "jc_sim_summary.json"),
        (["fig2", "--tmax", "1e300", "--steps", "10"], "fig2_summary.json"),
    ])
    def test_envelope_fit_at_huge_times_is_null(self, tmp_path, args, summary_name):
        # t^2 or the sum of t^4 overflows: the fit is refused before any
        # power of t is taken, so no overflow warning escapes
        out = tmp_path / "o"
        assert run_cli(args + ["--out", str(out)]) == 0
        summary = json.loads((out / summary_name).read_text(), parse_constant=_reject_constant)
        rows = summary.get("alphas", [summary])
        assert rows and all(row["envelope_decay_rate"] is None for row in rows)

    def test_non_finite_json_is_a_contract_error(self, tmp_path):
        path = tmp_path / "x.json"
        with pytest.raises(ContractError, match="x.json"):
            write_json(path, {"rate": float("nan")})
        assert not path.exists()

    @pytest.mark.parametrize("experiment, report, args", [
        ("attractor", "attractor_report.json", ["--alpha", "3"]),
        ("coefficients", "coefficients_summary.json", ["--alpha", "3"]),
        ("attractor", "attractor_report.json", ["--config", "alphas.yaml"]),
        ("coefficients", "coefficients_summary.json", ["--config", "alphas.yaml"]),
    ])
    def test_alpha_sets_the_run_alpha(self, tmp_path, monkeypatch, experiment, report,
                                      args):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "alphas.yaml").write_text("jc: {alphas: [3.0, 7.0]}\n")
        assert run_cli([experiment, "--out", "o"] + args) == 0
        rep = json.loads((tmp_path / "o" / report).read_text())
        assert rep["params"]["alpha"] == [3.0, 0.0]

    def test_eigenops_report(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["eigenops", "--out", str(out)]) == 0
        rep = json.loads((out / "eigenops_report.json").read_text())
        freqs = rep["monodromy_frequencies"]
        assert len(freqs) == 4
        assert abs(freqs[0] + 0.4) < 1e-6 and abs(freqs[-1] - 0.4) < 1e-6
        assert abs(freqs[1]) < 1e-9 and abs(freqs[2]) < 1e-9
        assert all(d["max_deviation"] < 1e-6 for d in rep["analytic_deviation"])
        assert all(rep["nilpotent_flags"])

    def test_eigenops_hamiltonian_calls(self, tmp_path, monkeypatch):
        # one 4096-step monodromy sweep and the first drive period (640 of
        # 400 x 40 steps) of the sweep shared by F_plus and F_minus, each
        # sweep evaluating H(t) at 2 * steps + 1 times: H(t0) alone, then
        # one stacked call per block of 100 steps
        calls = []

        def counted(t, p, h=cli.jc_semiclassical_hamiltonian):
            calls.append(np.size(t))
            return h(t, p)

        monkeypatch.setattr(cli, "jc_semiclassical_hamiltonian", counted)
        assert run_cli(["eigenops", "--out", str(tmp_path / "o")]) == 0
        assert sum(calls) == (2 * 4096 + 1) + (2 * 640 + 1) == 9_474
        assert len(calls) == (1 + 41) + (1 + 7)

    def test_eigenops_static_fallback(self, tmp_path):
        out = tmp_path / "o"
        cfg = tmp_path / "c.yaml"
        cfg.write_text("experiment: eigenops\njc: {omega_c: 1.0, omega_eg: 1.3,"
                       " alpha: 0.0, g: 0.0}\n")
        assert run_cli(["eigenops", "--config", str(cfg), "--out", str(out)]) == 0
        rep = json.loads((out / "eigenops_report.json").read_text())
        assert rep["mode"] == "static-fallback"
        assert np.allclose(rep["bohr_frequencies"], [-1.3, 0.0, 0.0, 1.3])

    def test_attractor_report(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["attractor", "--out", str(out)]) == 0
        rep = json.loads((out / "attractor_report.json").read_text())
        assert rep["residual"] <= 1e-9
        gm, gp = rep["coefficients"]["gammaMinus"], rep["coefficients"]["gammaPlus"]
        assert rep["delta_minus"] == pytest.approx(math.log(gm / gp))

    @pytest.mark.parametrize("eta", ["1.0e+8", "1.0e+10"])
    def test_attractor_does_not_depend_on_the_unit_of_time(self, tmp_path, eta):
        # eta scales every kinetic coefficient and leaves the attractor as it
        # is; at eta = 1e8 the trace check of D[rho] exited 3 with
        # |tr D[rho]| = 3.73e-9 while its bound was absolute at a fixed point
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"bath: {{eta: {eta}}}\n")
        assert run_cli(["attractor", "--config", str(cfg), "--out", str(tmp_path / "scaled")]) == 0
        assert run_cli(["attractor", "--out", str(tmp_path / "default")]) == 0
        scaled, default = (json.loads((tmp_path / out / "attractor_report.json").read_text())
                           for out in ("scaled", "default"))
        for key in ("attractor", "effective_hamiltonian", "delta_minus"):
            assert scaled[key] == default[key]

    @pytest.mark.parametrize("eta", [None, "1.0e+6", "1.0e+8", "1.0e+10"])
    def test_attractor_residual_is_small_against_its_scale(self, tmp_path, eta):
        # the absolute residual grows with eta (1.9e-6 at 1e10) while the
        # attractor does not move; its scale grows alike
        args = ["attractor", "--out", str(tmp_path / "o")]
        if eta is not None:
            (tmp_path / "c.yaml").write_text(f"bath: {{eta: {eta}}}\n")
            args += ["--config", str(tmp_path / "c.yaml")]
        assert run_cli(args) == 0
        rep = json.loads((tmp_path / "o" / "attractor_report.json").read_text())
        assert rep["residual_scale"] >= 1.0
        assert rep["residual"] <= 1e-12 * rep["residual_scale"]

    def test_coefficients_sweep(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["coefficients", "--out", str(out)]) == 0
        header, data = read_csv(out / "coefficients.csv")
        assert header == ["delta", "T", "gamma0", "gammaMinus", "gammaPlus"]
        assert np.min(data[:, 2:]) >= 0.0
        # delta = 0 row exists and is a symmetric point of the sweep
        mid = data[np.argmin(np.abs(data[:, 0]))]
        assert abs(mid[0]) < 1e-12

    def test_fig2_csv_and_summary(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["fig2", "--out", str(out), "--alpha", "5",
                        "--steps", "200"]) == 0
        header, data = read_csv(out / "fig2_alpha_5.csv")
        assert header[:2] == ["t_normalized", "fidelity"]
        assert data.shape == (201, 8)
        assert np.all(data[:, 1] <= 1.0) and data[0, 1] == pytest.approx(1.0)
        summary = json.loads((out / "fig2_summary.json").read_text())
        assert summary["alphas"][0]["min_fidelity"] < 0.98

    def test_fig2_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli(["fig2", "--out", str(out), "--alpha", "5,25",
                            "--steps", "150"]) == 0
        for name in ("fig2_alpha_5.csv", "fig2_alpha_25.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_fig2_step_doubling_pointwise(self, tmp_path):
        # closed-form trajectories: shared grid points agree to fp precision
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["fig2", "--out", str(out1), "--alpha", "5",
                        "--steps", "100"]) == 0
        assert run_cli(["fig2", "--out", str(out2), "--alpha", "5",
                        "--steps", "200"]) == 0
        _, coarse = read_csv(out1 / "fig2_alpha_5.csv")
        _, fine = read_csv(out2 / "fig2_alpha_5.csv")
        assert np.max(np.abs(fine[::2] - coarse)) < 1e-6

    def test_jc_sim_writes_the_fig2_trajectory(self, tmp_path):
        # jc-sim's table is fig2's at the same alpha with a leading t column,
        # and its summary fields are fig2's entry for that alpha
        sim, fig = tmp_path / "sim", tmp_path / "fig"
        assert run_cli(["jc-sim", "--out", str(sim), "--steps", "200"]) == 0
        assert run_cli(["fig2", "--alpha", "5", "--out", str(fig), "--steps", "200"]) == 0
        lines = (sim / "jc_sim.csv").read_bytes().split(b"\n")
        without_t = b"\n".join(line.partition(b",")[2] for line in lines)
        assert without_t == (fig / "fig2_alpha_5.csv").read_bytes()
        summary = json.loads((sim / "jc_sim_summary.json").read_text())
        entry = json.loads((fig / "fig2_summary.json").read_text())["alphas"][0]
        for key in ("min_fidelity", "envelope_decay_rate", "params"):
            assert summary[key] == entry[key], key

    def test_jc_sim(self, tmp_path):
        out = tmp_path / "o"
        cfg = tmp_path / "c.yaml"
        cfg.write_text(yaml.safe_dump({
            "experiment": "jc-sim",
            "jc": {"omega_c": 1.0, "delta": 0.0, "rabi": 2.0, "alpha": 10.0},
            "grid": {"t1": 5.0, "steps": 100},
            "initial_state": "g",
        }))
        assert run_cli(["jc-sim", "--config", str(cfg), "--out", str(out)]) == 0
        header, data = read_csv(out / "jc_sim.csv")
        assert header[0] == "t"
        # resonant Rabi from |g>: semiclassical sz is exactly -cos(Omega t)
        sz_sc = data[:, 8]
        assert np.max(np.abs(sz_sc + np.cos(2.0 * data[:, 0]))) < 1e-6
        # the autonomous curve tracks it within the collapse envelope loss
        assert np.max(np.abs(data[:, 5] - sz_sc)) < 0.15

    def test_csv_format_17_digits(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, ["a"], [np.array([1.0 / 3.0])])
        assert path.read_text() == "a\n0.33333333333333331\n"

    def test_csv_bytes_match_per_cell_format(self, tmp_path):
        rng = np.random.default_rng(7)
        special = [-0.0, 0.0, 5e-324, -2.2e-308, 1e308, -1e308, 1.0, -3.0, 1e16, 123456789.0]
        columns = [rng.normal(size=40) * 10.0 ** rng.integers(-300, 300, size=40),
                   np.resize(special, 40),
                   rng.uniform(-1.0, 1.0, size=40),
                   np.arange(-20, 20),
                   rng.integers(-2 ** 62, 2 ** 62, size=40)]
        path = tmp_path / "x.csv"
        write_csv(path, ["a", "b", "c", "d", "e"], columns)
        lines = ["a,b,c,d,e"] + [",".join(format(float(col[i]), ".17g") for col in columns)
                                 for i in range(40)]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_pauli_series_bitwise_equal_to_traces(self):
        # random states and every pattern of signed zeros in the entries:
        # the entry formulas give tr(sigma rho) bit for bit, sign of zero too
        rng = np.random.default_rng(21)
        a = rng.normal(size=(50, 2, 2)) + 1j * rng.normal(size=(50, 2, 2))
        states = [a @ a.conj().transpose(0, 2, 1)]
        zeros = [0.0, -0.0, 0.5, -0.25]
        grid = np.array(list(itertools.product(zeros, repeat=8)))
        states.append((grid[:, :4] + 1j * grid[:, 4:]).reshape(-1, 2, 2))
        q = cli.qubit_ops()
        for rhos in states:
            series = cli._pauli_series(rhos)
            for name in ("sx", "sy", "sz"):
                trace = np.trace(q[name] @ rhos, axis1=1, axis2=2).real
                assert np.array_equal(series[name], trace), name
                assert np.array_equal(np.signbit(series[name]), np.signbit(trace)), name
        wrapped = [cli.DensityMatrix.from_matrix(rho / np.trace(rho).real) for rho in states[0]]
        stack = np.array([rho.data for rho in wrapped])
        assert all(np.array_equal(cli._pauli_series(wrapped)[name], cli._pauli_series(stack)[name])
                   for name in ("sx", "sy", "sz"))


class TestRunnerDefaults:
    @pytest.mark.parametrize("runner", [run_eigenops, run_coefficients])
    def test_runner_leaves_config_unchanged(self, tmp_path, runner):
        cfg = load_config(None, experiment=runner.__name__[len("run_"):])
        before = dict(cfg.jc)
        runner(cfg, tmp_path)
        assert cfg.jc == before

    def test_coupling_given_as_g(self, tmp_path):
        # the rabi default applies only when the config gives no g
        cfg = tmp_path / "c.yaml"
        cfg.write_text("experiment: coefficients\njc: {g: 0.1, alpha: 2.0}\n"
                       "sweep: {values: [0.0, 0.1]}\n")
        assert run_cli(["coefficients", "--config", str(cfg),
                        "--out", str(tmp_path / "o")]) == 0


class TestIOError:
    def test_unwritable_output_is_4(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = run_cli(["touchard", "--out", str(blocker / "sub")])
        assert code == 4


# config values of every kind: numbers (nan and inf too), bools, strings,
# None, and ragged or nested lists of them
_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
              st.text(max_size=4),
              st.sampled_from(["2.5", "1e3", "1+2j", "ohmic", "band", "temperature"])),
    lambda inner: st.lists(inner, max_size=3), max_leaves=6)
_DOCS = st.fixed_dictionaries({}, optional={
    **{name: st.dictionaries(st.sampled_from(sorted(_SCHEMA[name])), _VALUES, max_size=3)
       for name in _SECTIONS},
    "initial_state": _VALUES,
})


def _assert_documented_exit_codes(doc, runs):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "c.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        for args in runs:
            code = main(args + ["--config", str(cfg), "--out", str(Path(tmp) / "o")])
            assert code in (0, 2, 3, 4), (args, doc)


@settings(max_examples=30, deadline=None)
@given(doc=_DOCS)
def test_config_fuzz_exits_with_documented_code(doc):
    _assert_documented_exit_codes(doc, (["touchard"], ["attractor"], ["coefficients"],
                                        ["jc-sim", "--steps", "50"],
                                        ["fig2", "--steps", "50"]))


# eigenops takes about 1.5 s a run, so it has a fuzz test of its own
@settings(max_examples=5, deadline=None)
@given(doc=_DOCS)
def test_eigenops_config_fuzz_exits_with_documented_code(doc):
    _assert_documented_exit_codes(doc, (["eigenops"],))


def test_default_subcommands_run_without_scipy(tmp_path):
    """covlind needs no scipy at run time: importing the CLI and running
    every subcommand at its defaults (eigenops takes its Floquet states from
    numpy's eig, fig2 and jc-sim their ln n! from a stdlib table) loads none
    of it; yaml is imported only to read a --config file, so none of these
    loads it.  Matrix exponentials run on numpy alone, so matrix_exp,
    evolve_static, expm-mode evolve_timedep and check_time_translation load
    none either."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    script = (
        "import contextlib, io, sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'yaml'))\n"
        "import covlind.cli\n"
        "assert not loaded(), ('import covlind.cli', loaded())\n"
        "for name in ('fig2', 'jc-sim', 'eigenops', 'attractor', 'coefficients', 'touchard'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        code = covlind.cli.main([name, '--out', {str(tmp_path)!r} + '/' + name])\n"
        "    assert code == 0, (name, code)\n"
        "    assert not loaded(), ('covlind ' + name, loaded())\n"
        "import numpy as np\n"
        "from covlind import (DensityMatrix, Superoperator, TimeGrid, check_time_translation,\n"
        "                     evolve_static, evolve_timedep, matrix_exp, qubit_ops)\n"
        "q = qubit_ops()\n"
        "l = Superoperator(np.zeros((4, 4)), 2)\n"
        "rho0 = DensityMatrix.from_ket([0, 1])\n"
        "for name, run in [\n"
        "        ('matrix_exp', lambda: matrix_exp(-1j * q['sx'])),\n"
        "        ('evolve_static', lambda: evolve_static(l, rho0, TimeGrid(0, 1, 4))),\n"
        "        ('evolve_timedep', lambda: evolve_timedep(lambda t: l, rho0, TimeGrid(0, 1, 4),\n"
        "                                                  mode='expm')),\n"
        "        ('check_time_translation', lambda: check_time_translation(l, q['sz'], 0.5, 1.7))]:\n"
        "    run()\n"
        "    assert not loaded(), (name, loaded())\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
