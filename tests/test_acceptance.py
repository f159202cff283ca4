"""Acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single pass line (pytest reports the failures); run with

    pytest tests/test_acceptance.py -v -s
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from covlind import (
    Channel,
    DensityMatrix,
    DissipatorSpec,
    DrivenQubitMasterEquation,
    JCParams,
    build_dissipator,
    check_time_translation,
    choi_matrix,
    coherence_rel_entropy,
    detailed_balance_rates,
    fixed_point,
    hermitian_eig,
    jc_eigenoperators,
    jc_semiclassical_hamiltonian,
    jc_semiclassical_propagator,
    liouvillian,
    matrix_exp,
    monodromy_eigenoperators,
    qubit_ops,
    static_eigenoperators,
    touchard,
    uhlmann_fidelity,
    vec,
)
from covlind.bath import BathSpec, jc_sideband_weights
from covlind.eigenoperators import DrivenGenerator, deviation_up_to_phase
from covlind import Superoperator
from covlind.jaynes_cummings import (
    fit_gaussian_envelope,
    jc_autonomous_trajectory,
)
from oracles import decompose_sigma_x_amplitudes, random_hermitian

Q = qubit_ops()
GOLDEN = Path(__file__).parent / "data" / "fig2_golden.json"


def report(n, text):
    print(f"\n[PASS] criterion {n}: {text}")


def fig2_min_fidelity(alpha, steps=2000):
    p = JCParams.with_rabi(1.0, 0.0, 2.0, alpha)
    times = np.linspace(0.0, 40.0 / p.rabi, steps + 1)
    rho0 = DensityMatrix.from_ket([1, 1])  # (|g> + |e>)/sqrt(2)
    autos = jc_autonomous_trajectory(rho0, p, times)
    fids = np.empty(len(times))
    for i, (t, rho) in enumerate(zip(times, autos)):
        u = jc_semiclassical_propagator(t, p)
        fids[i] = uhlmann_fidelity(rho, u @ rho0.data @ u.conj().T)
    return fids


def thermal_all_pairs_spec(h, beta, rng):
    eset = static_eigenoperators(h)
    channels = []
    seen = set()
    for op, f, inv, pair in zip(eset.ops, eset.freqs, eset.invariant_flags, eset.pairs):
        if inv or pair is None or f <= 0 or tuple(sorted(pair)) in seen:
            continue
        seen.add(tuple(sorted(pair)))
        (gd, gu), = detailed_balance_rates([f], beta, [0.3 + 0.5 * rng.uniform()])
        channels.append(Channel(op, gd, gu))
    weights = rng.uniform(0.05, 0.25, size=len(eset.projectors))
    v = sum(w * prj.data for w, prj in zip(weights, eset.projectors))
    return DissipatorSpec(channels=channels, dephasing_hermitian=[(v, 0.15)]), eset


def test_criterion_1_fig2_convergence():
    """Fig. 2: min-over-time fidelity strictly increasing across alpha."""
    start = time.perf_counter()
    alphas = [5.0, 25.0, 50.0, 100.0]
    mins = {}
    golden = json.loads(GOLDEN.read_text())
    for a in alphas:
        fids = fig2_min_fidelity(a)
        mins[a] = float(np.min(fids))
        frozen = golden[f"{a:g}"]
        idx = np.array(frozen["indices"], dtype=int)
        vals = np.array(frozen["fidelity"])
        assert np.max(np.abs(fids[idx] - vals)) < 1e-7, \
            f"alpha={a}: fidelity drifted from the frozen golden curve"
    elapsed = time.perf_counter() - start
    ordered = [mins[a] for a in alphas]
    assert all(b > a for a, b in zip(ordered, ordered[1:])), ordered
    assert mins[100.0] >= 0.99
    assert mins[5.0] <= 0.98
    assert elapsed <= 60.0
    report(1, "fig2 convergence: min fidelity "
              + ", ".join(f"alpha={a:g}: {mins[a]:.6f}" for a in alphas)
              + f" (strictly increasing; {elapsed:.1f}s)")


def test_criterion_2_envelope_scaling():
    """Collapse rate of the autonomous oscillations scales as 1/alpha^2."""
    start = time.perf_counter()
    rates = {}
    for alpha in (5.0, 10.0, 20.0):
        p = JCParams(1.0, 1.0, 1.0 / alpha, alpha)  # fixed g|alpha| = 1
        times = np.linspace(0.0, 2.0 * alpha, 1500)
        rho0 = DensityMatrix.from_ket([0, 1])
        autos = jc_autonomous_trajectory(rho0, p, times)
        sz = np.array([np.trace(Q["sz"] @ st.data).real for st in autos])
        rates[alpha] = fit_gaussian_envelope(times, sz)
    scaled = {a: r * a ** 2 for a, r in rates.items()}
    mean = np.mean(list(scaled.values()))
    for a, s in scaled.items():
        assert abs(s - mean) / mean <= 0.15, scaled
    elapsed = time.perf_counter() - start
    assert elapsed <= 30.0
    report(2, "envelope scaling: rate * alpha^2 = "
              + ", ".join(f"{s:.4f}" for s in scaled.values())
              + f" (within 15% of mean {mean:.4f}; theory 0.5; {elapsed:.1f}s)")


def test_criterion_3_eigenoperator_suite():
    """Monodromy frequencies and operators match the analytic forms."""
    start = time.perf_counter()
    rng = np.random.default_rng(90125)
    worst_freq, worst_dev = 0.0, 0.0
    for _ in range(5):
        rabi = rng.uniform(0.15, 0.45)
        delta = rng.uniform(-0.8, 0.8) * rabi
        alpha = rng.uniform(1.0, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        p = JCParams.with_rabi(1.0, delta, rabi, alpha)
        gen = DrivenGenerator(lambda t, p=p: jc_semiclassical_hamiltonian(t, p),
                              period=2 * np.pi / p.omega_c)
        eset = monodromy_eigenoperators(gen)
        f_plus, f_minus, _ = jc_eigenoperators(p)
        non = [(op, f) for op, f, inv in zip(eset.ops, eset.freqs,
                                             eset.invariant_flags) if not inv]
        assert len(non) == 2
        for target, lam in ((f_plus(0.0).data, p.rabi), (f_minus(0.0).data, -p.rabi)):
            match = min(non, key=lambda of: abs(of[1] - lam))
            freq_err = abs(match[1] - lam)
            dev = deviation_up_to_phase(match[0].data, target)
            assert freq_err < 1e-6, (p, freq_err)
            assert dev < 1e-6, (p, dev)
            worst_freq = max(worst_freq, freq_err)
            worst_dev = max(worst_dev, dev)
    elapsed = time.perf_counter() - start
    assert elapsed <= 10.0
    report(3, f"eigenoperator suite: worst |freq err| = {worst_freq:.2e}, "
              f"worst operator deviation = {worst_dev:.2e} over 5 random tuples "
              f"({elapsed:.1f}s)")


def test_criterion_4_gkls_property_suite():
    """Trace preservation, Choi positivity, covariance, Gibbs fixed point."""
    start = time.perf_counter()
    rng = np.random.default_rng(60901)
    stats = {"trace": 0.0, "choi": 0.0, "covariance": 0.0, "gibbs": 0.0}
    for d in (2, 3, 4, 5, 6):
        beta = rng.uniform(0.3, 1.5)
        h = random_hermitian(d, rng)
        spec, eset = thermal_all_pairs_spec(h, beta, rng)
        l_super = liouvillian(h, build_dissipator(spec))
        norm = float(np.linalg.norm(l_super.data, 2))
        idv = vec(np.eye(d)).conj()
        for tau in (0.1 / norm, 1.0 / norm, 10.0 / norm):
            prop = matrix_exp(l_super.data * tau)
            trace_err = float(np.max(np.abs(idv @ prop - idv)))
            assert trace_err < 1e-10
            choi = choi_matrix(Superoperator(prop, d))
            wmin = float(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))[0])
            assert wmin > -1e-8
            stats["trace"] = max(stats["trace"], trace_err)
            stats["choi"] = min(stats.get("choi", 0.0), wmin)
        resid = check_time_translation(l_super, h, t=1.0 / norm, s=1.7)
        assert resid < 1e-9
        stats["covariance"] = max(stats["covariance"], resid)
        res = fixed_point(spec, eset)
        w, v = hermitian_eig(h)
        pops = np.exp(-beta * (w - w.min()))
        pops /= pops.sum()
        gibbs = (v * pops) @ v.conj().T
        gerr = float(np.max(np.abs(res.state.data - gibbs)))
        assert gerr < 1e-9
        stats["gibbs"] = max(stats["gibbs"], gerr)
    # deliberate non-eigenoperator control breaks the covariance
    bad = DissipatorSpec(channels=[Channel(Q["sx"] / math.sqrt(2), 1.0)])
    l_bad = liouvillian(0.5 * Q["sz"], build_dissipator(bad))
    control = check_time_translation(l_bad, 0.5 * Q["sz"], t=1.0, s=1.0)
    assert control > 0.01
    elapsed = time.perf_counter() - start
    assert elapsed <= 20.0
    report(4, f"GKLS suite dims 2-6: trace err <= {stats['trace']:.1e}, "
              f"Choi min eig >= {stats['choi']:.1e}, covariance <= "
              f"{stats['covariance']:.1e} (control {control:.2f}), Gibbs err <= "
              f"{stats['gibbs']:.1e} ({elapsed:.1f}s)")


def test_criterion_5_instantaneous_attractor_grid():
    """Attractor annihilates the driven dissipator over a (delta, T) grid."""
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for delta in np.linspace(-0.3, 0.3, 5):
        for temp in (0.2, 0.5, 1.0, 2.0, 5.0):
            p = JCParams(1.0, 1.0 + delta, 0.2, 2.0 * np.exp(0.3j))
            bath = BathSpec(temperature=temp, model="ohmic", eta=0.4, omega_cut=12.0)
            master = DrivenQubitMasterEquation(p, bath)
            _, gm, gp = master.coefficients
            res = master.attractor()
            assert res.deltas[0] == pytest.approx(math.log(gm / gp), abs=1e-12)
            assert res.residual <= 1e-9, (delta, temp, res.residual)
            worst = max(worst, res.residual)
            count += 1
    elapsed = time.perf_counter() - start
    assert count == 25 and elapsed <= 10.0
    report(5, f"instantaneous attractor: ||D[rho]||_max <= {worst:.2e} on a "
              f"25-point (delta, T) grid ({elapsed:.1f}s)")


def test_criterion_6_touchard_asymptotics():
    """Residual of the large-x form decays as x^-2 (or is exactly zero)."""
    start = time.perf_counter()
    xs = np.array([1e2, 1e3, 1e4])
    lines = []
    for j in (2, 3, 4, 5, 6):
        resid = np.array([abs(touchard(j, x) / x ** j - 1 - j * (j - 1) / (2 * x))
                          for x in xs])
        if np.max(resid) < 1e-10:
            # T_2 = x^2 + x makes the asymptotic form exact: the residual is
            # summation rounding noise, the O(x^-2) bound holds trivially,
            # and no slope is fittable
            lines.append(f"j={j}: exact (residual <= {np.max(resid):.1e})")
            assert j == 2
            continue
        slope = float(np.polyfit(np.log(xs), np.log(resid), 1)[0])
        assert abs(slope + 2.0) <= 0.1, (j, slope)
        lines.append(f"j={j}: slope {slope:.3f}")
    elapsed = time.perf_counter() - start
    assert elapsed <= 1.0
    report(6, "touchard asymptotics: " + "; ".join(lines) + f" ({elapsed:.2f}s)")


def test_criterion_7_kinetic_weight_oracle():
    """Closed-form side-band weights match the decomposition oracle."""
    start = time.perf_counter()
    rng = np.random.default_rng(1987)
    worst = 0.0
    for _ in range(10):
        delta = rng.uniform(-0.6, 0.6)
        g = rng.uniform(0.05, 0.25)
        alpha = rng.uniform(1.0, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        p = JCParams(1.0, 1.0 + delta, g, alpha)
        weights = decompose_sigma_x_amplitudes(p)
        s_plus, s_minus = jc_sideband_weights(p)
        k0 = 2 * g ** 2 * abs(alpha) ** 2 / p.rabi ** 2
        expected = np.array([k0, k0, s_minus, s_plus, s_plus, s_minus])
        err = float(np.max(np.abs(weights - expected)))
        assert err < 1e-8, (p, err)
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    assert elapsed <= 10.0
    report(7, f"kinetic-coefficient weights: closed form matches the "
              f"period-decomposition oracle to {worst:.2e} over 10 random sets "
              f"({elapsed:.1f}s)")


def test_criterion_8_coherence_conservation():
    """Global relative entropy of coherence is constant under strict
    energy-conserving unitary evolution of a 2 (x) 4 toy."""
    start = time.perf_counter()
    h_s = 0.5 * 1.3 * Q["sz"]
    h_e = np.diag([0.0, 0.7, 1.9, 3.1]).astype(complex)
    h0 = np.kron(h_s, np.eye(4)) + np.kron(np.eye(2), h_e)
    h_de = 0.8 * np.kron(Q["sz"], np.diag([0.3, -0.4, 0.9, 0.2]))
    assert np.max(np.abs(h_de @ h0 - h0 @ h_de)) < 1e-14  # strict conservation
    h = h0 + h_de
    qubit = np.array([1.0, 1.0]) / math.sqrt(2)
    env = np.array([0.6, 0.5, 0.4, 0.48])
    env = env / np.linalg.norm(env)
    psi0 = np.kron(qubit, env)
    rho0 = np.outer(psi0, psi0.conj())
    basis = np.eye(8, dtype=complex)  # energy eigenbasis of H_S + H_E
    values, purities = [], []
    for t in np.linspace(0.0, 12.0, 25):
        u = matrix_exp(-1j * h * t)
        rho_t = u @ rho0 @ u.conj().T
        values.append(coherence_rel_entropy(
            DensityMatrix.from_matrix(rho_t, (2, 4), trace_tol=1e-9), basis))
        red = rho_t.reshape(2, 4, 2, 4)
        rho_s = np.einsum("anbn->ab", red)
        purities.append(float(np.trace(rho_s @ rho_s).real))
    values = np.array(values)
    drift = float(np.max(np.abs(values - values[0])))
    assert drift < 1e-8
    # the evolution is nontrivial: the reduced qubit dephases and recoheres
    assert max(purities) - min(purities) > 0.05
    elapsed = time.perf_counter() - start
    assert elapsed <= 5.0
    report(8, f"coherence conservation: D(rho||rho_d) drift {drift:.2e} over "
              f"the window while reduced purity spans "
              f"[{min(purities):.3f}, {max(purities):.3f}] ({elapsed:.1f}s)")
