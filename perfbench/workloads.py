"""The benchmark's workloads.

A workload has a ``name``, the ``ops`` one pass attempts, and methods:
``setup(api, seed, tmp)`` builds its inputs (part of setup_s); ``solve(api,
ctx)`` makes one full pass through covlind's public API (one solve_s
sample); outside the timed region ``outputs(ctx, raw)`` turns the pass
into plain data and ``check(ctx, out)`` returns, per operation, the names
of the checks that failed; ``perturbations(ctx, out)`` yields slightly
wrong copies of the outputs, each of which must fail the named check (the
harness tries them on every run, so a check that has lost its teeth shows
as ``correct: false`` rather than as zero failures);
``layer_metrics(ctx, out, tracer)`` adds the workload's own per-layer
values to a traced run.

Every covlind call in setup and solve goes through ``api`` (see
tracing.py), so the traced run sees each one as a span.  The checks call
covlind directly, or numpy/scipy, and are never traced or timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "fig2_golden.json"

SZ = np.diag([-1.0, 1.0]).astype(complex)


def _random_hermitian(d, rng):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (a + a.conj().T)


def _commutator_matrix(h):
    """Column-stacked vec([H, X]) = (I kron H - H^T kron I) vec(X)."""
    eye = np.eye(h.shape[0])
    return np.kron(eye, h) - np.kron(h.T, eye)


# ---------------------------------------------------------------------------
# fig2: `covlind fig2` at its default config
# ---------------------------------------------------------------------------

class Fig2:
    """The paper's headline figure, through the CLI runner and its thread pool.

    The untraced pass calls ``covlind.cli.main``.  The traced pass cannot
    put spans inside the runner, so it makes the runner's calls one by one
    on this thread and must write byte-identical files.
    """

    name = "fig2"
    ops = ("covlind fig2",)

    def setup(self, api, seed, tmp):
        golden = json.loads(GOLDEN.read_text())
        cfg = api.load_config(None, experiment="fig2")
        keys = {f"{abs(a):g}": a for a in cfg.alphas()}
        return {"golden": golden, "cfg": cfg, "keys": keys, "out": tmp, "reference": None}

    def solve(self, api, ctx):
        if api.traced:
            self._runner_calls(api, ctx["out"])
            return
        with contextlib.redirect_stdout(io.StringIO()):
            code = api.main(["fig2", "--out", str(ctx["out"])])
        if code != 0:
            raise RuntimeError(f"covlind fig2 exited with {code}")

    @staticmethod
    def _runner_calls(api, out):
        """``cli.run_fig2`` and ``cli._fig2_single``, serially."""
        from covlind.cli import _fmt
        from covlind.errors import CovlindError

        cfg = api.load_config(None, experiment="fig2", overrides={"output": str(out)})
        summary_alphas = []
        for a in cfg.alphas():
            p = api.jc_params(cfg, alpha=a)
            t1 = float(cfg.grid.get("t1", 40.0 / p.rabi))
            steps = int(cfg.grid.get("steps", 2000))
            times = np.linspace(float(cfg.grid.get("t0", 0.0)), t1, steps + 1)
            rho0 = api.from_matrix(api.initial_matrix(cfg), (2,))
            auto = api.jc_autonomous_trajectory(rho0, p, times)
            sc = []
            for t in times:
                u = api.jc_semiclassical_propagator(t, p)
                sc.append(api.from_matrix(u @ rho0.data @ u.conj().T, (2,)))
            fid = np.array([api.uhlmann_fidelity(x, y) for x, y in zip(auto, sc)])
            pa, ps = api.pauli_series(auto), api.pauli_series(sc)
            try:
                env = api.fit_gaussian_envelope(times, pa["sx"])
            except CovlindError:
                env = float("nan")
            tag = _fmt(abs(a)).replace(".", "p")
            api.write_csv(out / f"fig2_alpha_{tag}.csv",
                          ["t_normalized", "fidelity",
                           "sx_autonomous", "sy_autonomous", "sz_autonomous",
                           "sx_semiclassical", "sy_semiclassical", "sz_semiclassical"],
                          [times * p.rabi, fid, pa["sx"], pa["sy"], pa["sz"],
                           ps["sx"], ps["sy"], ps["sz"]])
            summary_alphas.append({"alpha": [complex(a).real, complex(a).imag],
                                   "min_fidelity": float(np.min(fid)),
                                   "envelope_decay_rate": env,
                                   "params": api.echo_params(p)})
        summary = {"experiment": "fig2", "alphas": summary_alphas,
                   "initial_state": str(cfg.initial_state),
                   "monotone_min_fidelity": bool(np.all(np.diff(
                       [s["min_fidelity"] for s in summary_alphas]) > 0))}
        api.write_json(out / "fig2_summary.json", summary)

    def outputs(self, ctx, raw):
        files = {p.name: p.read_bytes() for p in sorted(ctx["out"].iterdir())}
        fid = {}
        for key in ctx["keys"]:
            table = np.loadtxt(io.BytesIO(files[f"fig2_alpha_{key}.csv"]),
                               delimiter=",", skiprows=1)
            fid[key] = table[:, 1]
        summary = json.loads(files["fig2_summary.json"])
        mins = [s["min_fidelity"] for s in summary["alphas"]]
        return {"files": files, "fid": fid, "mins": mins}

    def check(self, ctx, out):
        failed = []
        if ctx["reference"] is None:
            ctx["reference"] = out["files"]
        if out["files"] != ctx["reference"]:
            failed.append("bytes")
        for key in ctx["keys"]:
            frozen = ctx["golden"][key]
            idx = np.array(frozen["indices"], dtype=int)
            if not np.max(np.abs(out["fid"][key][idx] - frozen["fidelity"])) < 1e-7:
                failed.append(f"golden_{key}")
        mins = out["mins"]
        if not all(b > a for a, b in zip(mins, mins[1:])):
            failed.append("monotone")
        if not mins[-1] >= 0.99:
            failed.append("min_fidelity")
        return {self.ops[0]: failed}

    def perturbations(self, ctx, out):
        op = self.ops[0]
        key = next(iter(ctx["keys"]))
        fid = {k: v.copy() for k, v in out["fid"].items()}
        fid[key][ctx["golden"][key]["indices"][1]] += 2e-7
        yield op, f"golden_{key}", {**out, "fid": fid}
        mins = list(out["mins"])
        mins[1], mins[2] = mins[2], mins[1]
        yield op, "monotone", {**out, "mins": mins}
        yield op, "min_fidelity", {**out, "mins": out["mins"][:-1] + [0.99 - 1e-9]}
        files = dict(out["files"])
        name = f"fig2_alpha_{key}.csv"
        data = bytearray(files[name])
        data[-2] = ord("1") if data[-2] != ord("1") else ord("2")
        files[name] = bytes(data)
        yield op, "bytes", {**out, "files": files}

    def layer_metrics(self, ctx, out, tracer):
        from covlind.jaynes_cummings import default_kraus_window

        terms = 0
        for key, alpha in ctx["keys"].items():
            lo, hi = default_kraus_window(ctx["cfg"].jc_params(alpha=alpha))
            terms += (hi - lo + 1) * len(out["fid"][key])
        # one Kraus term is a 2x2 complex128 block
        return {"jaynes_cummings.kraus_terms": terms,
                "jaynes_cummings.kraus_bytes": 64 * terms,
                "cli.write_csv.bytes": sum(len(b) for n, b in out["files"].items()
                                           if n.endswith(".csv"))}


# ---------------------------------------------------------------------------
# driven_qubit: time-dependent GKLS generator rebuilt on every call
# ---------------------------------------------------------------------------

# jc_kinetic_coefficients for this setup at the commit that defined the
# benchmark; a later change must reproduce them to 1e-12 (relative)
DRIVEN_COEFFICIENTS = (0.23329185549950088, 0.2090367707367835, 0.06142660248091581)
RK4_STEPS, EXPM_STEPS, T_END = 2000, 1000, 30.0
# errors against the exact rotating-frame reference are 7.8e-10 (rk4) and
# 2.2e-5 (expm) at these step counts; the tolerances leave 10x headroom
RK4_TOL, EXPM_TOL = 1e-8, 2e-4


class DrivenQubit:
    """The slowest tier-1 test's setup: thousands of 4x4 generator builds."""

    name = "driven_qubit"
    ops = ("jc_kinetic_coefficients", "instantaneous_attractor",
           "evolve_timedep_rk4", "evolve_timedep_expm")

    def setup(self, api, seed, tmp):
        p = api.with_rabi(1.0, 0.1, 0.6, 2.0)
        bath = api.BathSpec(temperature=0.6, model="ohmic", eta=0.35, omega_cut=15.0)
        ground = api.from_matrix(np.diag([1.0, 0.0]).astype(complex), (2,))
        return {"p": p, "bath": bath, "rho0": ground}

    def solve(self, api, ctx):
        p = ctx["p"]
        g0, gm, gp = api.jc_kinetic_coefficients(p, ctx["bath"])
        _, f_minus, w = api.jc_eigenoperators(p)
        f_minus = api.wrap("jaynes_cummings.jc_eigenoperators.F_minus", f_minus)
        w = api.wrap("jaynes_cummings.jc_eigenoperators.W", w)
        attractor = api.instantaneous_attractor([(f_minus(0.0), gm, gp)])

        def generator(t):
            spec = api.DissipatorSpec(channels=[api.Channel(f_minus(t), gm, gp)],
                                      dephasing_invariant=([w(t)], [[g0]]))
            return api.liouvillian(api.jc_semiclassical_hamiltonian(t, p),
                                   api.build_dissipator(spec))

        generator = api.wrap("bench.generator", generator)
        rk4 = api.evolve_timedep(generator, ctx["rho0"], api.TimeGrid(0.0, T_END, RK4_STEPS))
        expm = api.evolve_timedep(generator, ctx["rho0"],
                                  api.TimeGrid(0.0, T_END, EXPM_STEPS), mode="expm")
        return (g0, gm, gp), attractor, rk4, expm

    def outputs(self, ctx, raw):
        coefficients, attractor, rk4, expm = raw
        out = {"coefficients": np.array(coefficients),
               "attractor": attractor.state.data, "deltas": np.array(attractor.deltas),
               "attractor_residual": attractor.residual}
        for mode, traj in (("rk4", rk4), ("expm", expm)):
            out[mode] = np.array([s.data for s in traj.states])
            out[mode + "_times"] = np.asarray(traj.times)
            out[mode + "_estimate"] = traj.metadata["step_halving_error"]
        return out

    def _reference(self, ctx, out, mode):
        """rho(t) = V e^{L_rot t}[rho0] V^dag, L_rot = L(0) + i[wc sz/2, .].

        Covariance makes V^dag L(t)[V . V^dag] V = L(0) for
        V = exp(-i wc sz t/2), so the rotating-frame generator is static.
        """
        from covlind import (Channel, DissipatorSpec, build_dissipator,
                             jc_eigenoperators, jc_semiclassical_hamiltonian,
                             liouvillian)

        p = ctx["p"]
        g0, gm, gp = out["coefficients"]
        _, f_minus, w = jc_eigenoperators(p)
        spec = DissipatorSpec(channels=[Channel(f_minus(0.0), gm, gp)],
                              dephasing_invariant=([w(0.0)], [[g0]]))
        l0 = liouvillian(jc_semiclassical_hamiltonian(0.0, p), build_dissipator(spec)).data
        l_rot = l0 + 1j * _commutator_matrix(0.5 * p.omega_c * SZ)
        times = out[mode + "_times"]
        step = scipy.linalg.expm(l_rot * (times[1] - times[0]))
        y = ctx["rho0"].data.reshape(-1, order="F")
        ref = np.empty((len(times), 2, 2), dtype=complex)
        for k, t in enumerate(times):
            v = np.diag(np.exp(-0.5j * p.omega_c * t * np.diag(SZ)))
            ref[k] = v @ y.reshape(2, 2, order="F") @ v.conj().T
            y = step @ y
        return ref

    def _attractor_distances(self, ctx, out, mode):
        """Distance to the attractor in the drive's frame at t = 0, 6, ..., 30."""
        from covlind import jc_semiclassical_propagator

        states, times = out[mode], out[mode + "_times"]
        dists = []
        for k in np.linspace(0, len(times) - 1, 6).astype(int):
            u = jc_semiclassical_propagator(times[k], ctx["p"])
            dists.append(np.max(np.abs(u.conj().T @ states[k] @ u - out["attractor"])))
        return dists

    def _errors(self, ctx, out, mode):
        """Max-entry error of every state against the exact reference."""
        return np.max(np.abs(out[mode] - self._reference(ctx, out, mode)), axis=(1, 2))

    def check(self, ctx, out):
        bad = {op: [] for op in self.ops}
        coefficients = out["coefficients"]
        if not (np.all(coefficients >= 0)
                and np.allclose(coefficients, DRIVEN_COEFFICIENTS, rtol=1e-12, atol=0.0)):
            bad["jc_kinetic_coefficients"].append("coefficients")
        g0, gm, gp = coefficients
        if not (out["attractor_residual"] <= 1e-9
                and abs(out["deltas"][0] - math.log(gm / gp)) <= 1e-12):
            bad["instantaneous_attractor"].append("attractor")
        for mode, tol in (("rk4", RK4_TOL), ("expm", EXPM_TOL)):
            op = f"evolve_timedep_{mode}"
            if not np.max(self._errors(ctx, out, mode)) <= tol:
                bad[op].append("reference")
            dists = self._attractor_distances(ctx, out, mode)
            if not (all(b < a + 1e-12 for a, b in zip(dists, dists[1:]))
                    and dists[-1] < 0.05 * dists[0]):
                bad[op].append("attractor_distance")
        return bad

    def perturbations(self, ctx, out):
        coefficients = out["coefficients"].copy()
        coefficients[1] *= 1.0 + 1e-9
        yield "jc_kinetic_coefficients", "coefficients", {**out, "coefficients": coefficients}
        yield ("instantaneous_attractor", "attractor",
               {**out, "deltas": out["deltas"] + 1e-9})
        for mode, tol in (("rk4", RK4_TOL), ("expm", EXPM_TOL)):
            states = out[mode].copy()
            states[len(states) // 2] += 10 * tol * SZ
            yield f"evolve_timedep_{mode}", "reference", {**out, mode: states}
            # the initial state placed at the final time: it has not relaxed
            states = out[mode].copy()
            states[-1] = states[0]
            yield f"evolve_timedep_{mode}", "attractor_distance", {**out, mode: states}

    def layer_metrics(self, ctx, out, tracer):
        expm = self._errors(ctx, out, "expm")
        # the step-halving estimate is of the final state's error
        return {"propagate.rk4_max_err": float(np.max(self._errors(ctx, out, "rk4"))),
                "propagate.expm_max_err": float(np.max(expm)),
                "propagate.expm_estimate_ratio": float(out["expm_estimate"] / expm[-1])}


# ---------------------------------------------------------------------------
# eigen_static: monodromy and a static thermal pipeline on dense matrices
# ---------------------------------------------------------------------------

FLOQUET_DIM, THERMAL_DIM = 24, 14
DRIVE_PERIOD = math.pi  # H0 + cos(2t) V


class EigenStatic:
    """`covlind eigenops`, a d = 24 monodromy and a d = 14 thermal pipeline."""

    name = "eigen_static"
    ops = ("eigenops", "floquet_d24", "thermal_d14")

    def setup(self, api, seed, tmp):
        rng = np.random.default_rng(seed)
        # spectra of order 1, so the default 4096-step RK4 monodromy is
        # accurate to ~1e-10 and the Bohr frequencies stay well separated
        h0 = _random_hermitian(FLOQUET_DIM, rng) / math.sqrt(FLOQUET_DIM)
        v = 0.5 * _random_hermitian(FLOQUET_DIM, rng) / math.sqrt(FLOQUET_DIM)
        h = _random_hermitian(THERMAL_DIM, rng) / math.sqrt(THERMAL_DIM)
        ket = rng.normal(size=THERMAL_DIM) + 1j * rng.normal(size=THERMAL_DIM)
        ket /= np.linalg.norm(ket)
        return {"out": tmp, "reference": None, "h0": h0, "v": v, "h": h,
                "beta": rng.uniform(0.5, 2.0),
                "base": rng.uniform(0.2, 0.8, size=THERMAL_DIM * (THERMAL_DIM - 1) // 2),
                "dephasing": rng.uniform(0.05, 0.25, size=THERMAL_DIM),
                "rho0": api.from_matrix(np.outer(ket, ket.conj()))}

    def solve(self, api, ctx):
        with api.span("bench.eigenops"):
            if api.traced:
                self._runner_calls(api, ctx["out"])
            else:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = api.main(["eigenops", "--out", str(ctx["out"])])
                if code != 0:
                    raise RuntimeError(f"covlind eigenops exited with {code}")
        with api.span("bench.floquet_d24"):
            h0, v = ctx["h0"], ctx["v"]
            h_of_t = api.wrap("bench.hamiltonian", lambda t: h0 + math.cos(2.0 * t) * v)
            floquet = api.monodromy_eigenoperators(
                api.DrivenGenerator(h_of_t, period=DRIVE_PERIOD))
        with api.span("bench.thermal_d14"):
            thermal = self._thermal(api, ctx)
        return floquet, thermal

    @staticmethod
    def _runner_calls(api, out):
        """``cli.run_eigenops`` at its defaults, serially and with a counted H(t)."""
        cfg = api.load_config(None, experiment="eigenops", overrides={"output": str(out)})
        cfg.jc.setdefault("rabi", 0.4)
        cfg.jc.setdefault("alpha", 2.0)
        p = api.jc_params(cfg, alpha=cfg.alphas()[0])
        h_of_t = api.wrap("bench.hamiltonian",
                          lambda t: api.jc_semiclassical_hamiltonian(t, p))
        gen = api.DrivenGenerator(h_of_t, period=2 * np.pi / p.omega_c)
        eset = api.monodromy_eigenoperators(gen)
        f_plus, f_minus, _w = api.jc_eigenoperators(p)
        grid = api.TimeGrid(0.0, 10 * 2 * np.pi / p.rabi, 400)
        residuals = {
            "F_plus": api.verify_eigenoperator(f_plus, +p.rabi, gen, grid),
            "F_minus": api.verify_eigenoperator(f_minus, -p.rabi, gen, grid),
        }
        deviations = []
        nilpotency = []
        for target, freq in ((f_plus(0.0).data, p.rabi), (f_minus(0.0).data, -p.rabi)):
            best = None
            for op, lam, inv in zip(eset.ops, eset.freqs, eset.invariant_flags):
                if inv:
                    continue
                dev = api.deviation_up_to_phase(op.data, target)
                if best is None or dev < best[0]:
                    best = (dev, lam)
            deviations.append({"target_frequency": freq, "max_deviation": best[0],
                               "monodromy_frequency": float(best[1])})
            nilpotency.append(float(np.max(np.abs(target @ target))) < 1e-10)
        report = {"experiment": "eigenops",
                  "monodromy_frequencies": sorted(float(f) for f in eset.freqs),
                  "heisenberg_residuals": residuals,
                  "analytic_deviation": deviations,
                  "nilpotent_flags": nilpotency,
                  "params": api.echo_params(p)}
        api.write_json(out / "eigenops_report.json", report)

    @staticmethod
    def _thermal(api, ctx):
        h = ctx["h"]
        d = h.shape[0]
        eset = api.static_eigenoperators(h)
        downward = [(op, f) for op, f, inv in zip(eset.ops, eset.freqs, eset.invariant_flags)
                    if not inv and f > 0]
        rates = api.detailed_balance_rates([f for _, f in downward], ctx["beta"], ctx["base"])
        channels = [api.Channel(op, gd, gu) for (op, _), (gd, gu) in zip(downward, rates)]
        v = sum(wt * prj.data for wt, prj in zip(ctx["dephasing"], eset.projectors))
        spec = api.DissipatorSpec(channels=channels, dephasing_hermitian=[(v, 0.15)])
        l_super = api.liouvillian(h, api.build_dissipator(spec))
        fixed = api.fixed_point(spec, eset)
        traj = api.evolve_static(l_super, ctx["rho0"], api.TimeGrid(0.0, 20.0, 40))
        covariance = api.check_time_translation(l_super, h, t=0.5, s=1.7)
        choi = api.choi_matrix(api.Superoperator(api.matrix_exp(l_super.data * 0.3), d))
        return {"l_super": l_super.data, "channels": len(channels),
                "fixed_point": fixed.state.data, "fixed_residual": fixed.residual,
                "final": traj.states[-1].data, "t_final": float(traj.times[-1]),
                "covariance": covariance, "choi": choi}

    def outputs(self, ctx, raw):
        floquet, thermal = raw
        report = (ctx["out"] / "eigenops_report.json").read_bytes()
        return {"report_bytes": report, "report": json.loads(report),
                "floquet_ops": np.array([op.data for op in floquet.ops]),
                "floquet_freqs": np.array(floquet.freqs, dtype=float),
                "floquet_invariant": np.array(floquet.invariant_flags, dtype=bool),
                **thermal}

    def _monodromy(self, ctx):
        """U(T) of H0 + cos(2t) V by DOP853 at rtol 1e-12 (independent of covlind)."""
        if "monodromy" not in ctx:
            import scipy.integrate  # only the check needs it; keep it out of setup_s

            h0, v = ctx["h0"], ctx["v"]
            d = h0.shape[0]

            def rhs(t, y):
                return (-1j * (h0 + math.cos(2.0 * t) * v) @ y.reshape(d, d)).reshape(-1)

            sol = scipy.integrate.solve_ivp(rhs, (0.0, DRIVE_PERIOD),
                                            np.eye(d, dtype=complex).reshape(-1),
                                            method="DOP853", rtol=1e-12, atol=1e-12)
            ctx["monodromy"] = sol.y[:, -1].reshape(d, d)
        return ctx["monodromy"]

    def check(self, ctx, out):
        bad = {op: [] for op in self.ops}
        # eigenops: criterion 3 tolerances on the default driven qubit (rabi 0.4)
        if ctx["reference"] is None:
            ctx["reference"] = out["report_bytes"]
        if out["report_bytes"] != ctx["reference"]:
            bad["eigenops"].append("bytes")
        rep = out["report"]
        freqs = rep["monodromy_frequencies"]
        if not (len(freqs) == 4 and abs(freqs[0] + 0.4) < 1e-6 and abs(freqs[3] - 0.4) < 1e-6
                and abs(freqs[1]) < 1e-9 and abs(freqs[2]) < 1e-9):
            bad["eigenops"].append("frequencies")
        if not all(dv["max_deviation"] < 1e-6
                   and abs(dv["monodromy_frequency"] - dv["target_frequency"]) < 1e-6
                   for dv in rep["analytic_deviation"]):
            bad["eigenops"].append("analytic_deviation")
        if not all(r < 1e-6 for r in rep["heisenberg_residuals"].values()):
            bad["eigenops"].append("heisenberg")
        if not all(rep["nilpotent_flags"]):
            bad["eigenops"].append("nilpotent")
        # floquet_d24: U^dag P U = exp(i lambda T) P for every eigenoperator
        d = FLOQUET_DIM
        ops = out["floquet_ops"]
        if not (ops.shape == (d * d, d, d) and int(out["floquet_invariant"].sum()) == d
                and np.all(np.abs(out["floquet_freqs"]) <= math.pi / DRIVE_PERIOD + 1e-12)):
            bad["floquet_d24"].append("spectrum")
        else:
            u = self._monodromy(ctx)
            lhs = u.conj().T @ ops @ u
            rhs = np.exp(1j * out["floquet_freqs"] * DRIVE_PERIOD)[:, None, None] * ops
            if not np.max(np.abs(lhs - rhs)) < 1e-6:
                bad["floquet_d24"].append("eigenrelation")
        # thermal_d14: Gibbs fixed point, covariance, complete positivity,
        # and the static propagation against scipy's expm
        h = ctx["h"]
        w, vecs = np.linalg.eigh(h)
        pops = np.exp(-ctx["beta"] * (w - w.min()))
        gibbs = (vecs * (pops / pops.sum())) @ vecs.conj().T
        if not (out["channels"] == THERMAL_DIM * (THERMAL_DIM - 1) // 2
                and np.max(np.abs(out["fixed_point"] - gibbs)) < 1e-9
                and out["fixed_residual"] <= 1e-9):
            bad["thermal_d14"].append("gibbs")
        if not out["covariance"] < 1e-9:
            bad["thermal_d14"].append("covariance")
        choi = out["choi"]
        choi_min = float(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))[0])
        if not (choi_min > -1e-8 and abs(np.trace(choi) - THERMAL_DIM) < 1e-8):
            bad["thermal_d14"].append("choi")
        prop = scipy.linalg.expm(out["l_super"] * out["t_final"])
        final = (prop @ ctx["rho0"].data.reshape(-1, order="F")).reshape(
            THERMAL_DIM, THERMAL_DIM, order="F")
        if not np.max(np.abs(out["final"] - final)) < 1e-9:
            bad["thermal_d14"].append("evolve_static")
        return bad

    def perturbations(self, ctx, out):
        rep = json.loads(out["report_bytes"])
        rep["monodromy_frequencies"][0] += 2e-6
        yield "eigenops", "frequencies", {**out, "report": rep}
        rep = json.loads(out["report_bytes"])
        rep["analytic_deviation"][0]["max_deviation"] = 2e-6
        yield "eigenops", "analytic_deviation", {**out, "report": rep}
        rep = json.loads(out["report_bytes"])
        rep["heisenberg_residuals"]["F_plus"] = 2e-6
        yield "eigenops", "heisenberg", {**out, "report": rep}
        rep = json.loads(out["report_bytes"])
        rep["nilpotent_flags"][0] = False
        yield "eigenops", "nilpotent", {**out, "report": rep}
        yield "eigenops", "bytes", {**out, "report_bytes": out["report_bytes"] + b" "}
        freqs = out["floquet_freqs"].copy()
        freqs[np.flatnonzero(~out["floquet_invariant"])[0]] += 1e-5
        yield "floquet_d24", "eigenrelation", {**out, "floquet_freqs": freqs}
        yield "floquet_d24", "spectrum", {**out, "floquet_ops": out["floquet_ops"][1:]}
        fixed = out["fixed_point"].copy()
        fixed[0, 0] += 1e-8
        yield "thermal_d14", "gibbs", {**out, "fixed_point": fixed}
        yield "thermal_d14", "covariance", {**out, "covariance": 1e-8}
        choi = out["choi"]
        w, vecs = np.linalg.eigh(0.5 * (choi + choi.conj().T))
        shifted = choi - (w[0] + 2e-8) * np.outer(vecs[:, 0], vecs[:, 0].conj())
        yield "thermal_d14", "choi", {**out, "choi": shifted}
        final = out["final"].copy()
        final[0, 0] += 1e-8
        yield "thermal_d14", "evolve_static", {**out, "final": final}

    def layer_metrics(self, ctx, out, tracer):
        span = "eigenoperators.monodromy_eigenoperators"
        return {"eigenoperators.monodromy_d2_s": tracer.total_within(span, "bench.eigenops"),
                "eigenoperators.monodromy_d24_s": tracer.total_within(span, "bench.floquet_d24")}


WORKLOADS = {w.name: w for w in (Fig2(), DrivenQubit(), EigenStatic())}
