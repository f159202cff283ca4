import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from covlind.cli import main, run_coefficients, run_eigenops, write_csv, write_json
from covlind.config import _SCHEMA, _SECTIONS, load_config, parse_initial_state
from covlind.eigenoperators import DegeneracyWarning
from covlind.errors import ConfigError, ContractError


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
        ("jc-sim", "jc: {alpha: 1.0e+4}", 3, "Kraus window"),
        ("jc-sim", "jc: {alpha: 1.0e+20}", 3, "past 2^53"),
        ("jc-sim", "jc: {rabi: 1.0e+200}", 3, "overflow"),
        ("attractor", "jc: {g: 0.0, delta: 0.1}", 3, "(g = 0, alpha = 5+0j"),
        ("eigenops", "jc: {g: 0.0, delta: 0.1}", 3, "(g = 0, alpha = 2+0j"),
        ("eigenops", "jc: {rabi: 1.0e+6}", 3, "RK4 unitary sweep diverged"),
        ("eigenops", "jc: {rabi: 1.0e-9}", 3, "RK4 unitary sweep diverged"),
        ("eigenops", "jc: {omega_c: 1.0e-8}", 3, "RK4 unitary sweep diverged"),
        ("eigenops", "jc: {omega_c: 1.0e+200}", 3, "RK4 unitary sweep diverged"),
        ("eigenops", "jc: {g: 1.0}", 3, "folds onto the invariants"),
    ])
    def test_mistyped_values_exit_cleanly(self, tmp_path, capsys, experiment, body,
                                          code, named):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"experiment: {experiment}\n{body}\n")
        assert run_cli([experiment, "--config", str(cfg), "--out", str(tmp_path / "o"),
                        "--steps", "50"]) == code
        assert named in capsys.readouterr().err

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
            code = run_cli(["eigenops", "--config", str(cfg),
                            "--out", str(tmp_path / "o"), "--steps", "50"])
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

    def test_failed_envelope_fit_is_null(self, tmp_path):
        out = tmp_path / "o"
        cfg = tmp_path / "c.yaml"
        cfg.write_text("experiment: jc-sim\ngrid: {t1: 1.0}\n")
        assert run_cli(["jc-sim", "--config", str(cfg), "--out", str(out),
                        "--steps", "50"]) == 0
        summary = json.loads((out / "jc_sim_summary.json").read_text(),
                             parse_constant=_reject_constant)
        assert summary["envelope_decay_rate"] is None

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
