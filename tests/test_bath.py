import math

import numpy as np
import pytest

from covlind import JCParams, qubit_ops
from covlind.bath import (
    BathSpec,
    bose_einstein,
    gamma_one_sided,
    jc_kinetic_coefficients,
    jc_sideband_weights,
)
from covlind.errors import ContractError
from oracles import decompose_sigma_x_amplitudes

Q = qubit_ops()


class TestBoseEinstein:
    def test_ln2_occupation(self):
        assert abs(bose_einstein(math.log(2), 1.0) - 1.0) < 1e-12

    def test_zero_temperature(self):
        assert bose_einstein(1.0, 0.0) == 0.0

    def test_low_temperature_does_not_overflow(self):
        # omega / T past ~709 overflowed expm1; the occupation is e^{-omega/T}
        assert bose_einstein(1.0, 1.0 / 705.0) == pytest.approx(math.exp(-705.0), rel=1e-14)
        assert bose_einstein(1.0, 1e-3) == 0.0
        assert bose_einstein(700.0, 1.0) == 1.0 / math.expm1(700.0)

    def test_high_temperature_classical_limit(self):
        n = bose_einstein(0.01, 1.0)
        assert abs(n - 100.0) / 100.0 < 0.01

    def test_domain(self):
        with pytest.raises(ContractError):
            bose_einstein(-1.0, 1.0)


class TestGammaOneSided:
    def test_spontaneous_emission_only_at_t0(self):
        bath = BathSpec(temperature=0.0, model="ohmic", eta=0.3, omega_cut=5.0)
        nu = 1.2
        assert gamma_one_sided(nu, bath).real == pytest.approx(bath.spectral_density(nu))
        assert gamma_one_sided(-nu, bath) == 0.0

    def test_kms_ratio(self):
        bath = BathSpec(temperature=0.7, model="ohmic", eta=1.0, omega_cut=10.0)
        for nu in (0.3, 1.1, 2.9):
            ratio = gamma_one_sided(nu, bath).real / gamma_one_sided(-nu, bath).real
            assert abs(ratio - math.exp(nu / bath.temperature)) < 1e-10

    def test_zero_frequency_limits(self):
        ohmic = BathSpec(temperature=0.8, model="ohmic", eta=0.5, omega_cut=4.0)
        assert gamma_one_sided(0.0, ohmic).real == pytest.approx(0.4)
        cubic = BathSpec(temperature=0.8, model="cubic", eta=0.5, omega_cut=4.0)
        assert gamma_one_sided(0.0, cubic) == 0.0
        flat = BathSpec(temperature=0.8, model="flat", eta=0.5, omega_cut=4.0)
        with pytest.raises(ContractError):
            gamma_one_sided(0.0, flat)

    def test_imaginary_part_zero(self):
        bath = BathSpec(temperature=0.5)
        assert gamma_one_sided(1.0, bath).imag == 0.0


class TestSidebandWeights:
    def test_resonant_values(self):
        p = JCParams.with_rabi(1.0, 0.0, 2.0, 5.0)
        s_plus, s_minus = jc_sideband_weights(p)
        assert abs(s_plus - 0.25) < 1e-14
        assert abs(s_minus - 0.25) < 1e-14

    def test_closed_form_equivalence(self):
        p = JCParams(1.0, 1.4, 0.21, 1.7 * np.exp(0.9j))
        s_plus, s_minus = jc_sideband_weights(p)
        om, dl = p.rabi, p.delta
        alt_plus = (dl * (dl + om) + 2 * p.g ** 2 * p.nbar) / (2 * om ** 2)
        alt_minus = (dl * (dl - om) + 2 * p.g ** 2 * p.nbar) / (2 * om ** 2)
        assert abs(s_plus - alt_plus) < 1e-14
        assert abs(s_minus - alt_minus) < 1e-14

    def test_matches_decomposition_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            delta = rng.uniform(-0.6, 0.6)
            g = rng.uniform(0.05, 0.25)
            alpha = rng.uniform(1.0, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            p = JCParams(1.0, 1.0 + delta, g, alpha)
            weights = decompose_sigma_x_amplitudes(p)
            s_plus, s_minus = jc_sideband_weights(p)
            k0 = 2 * g ** 2 * abs(alpha) ** 2 / p.rabi ** 2
            expected = np.array([k0, k0, s_minus, s_plus, s_plus, s_minus])
            assert np.max(np.abs(weights - expected)) < 1e-8


class TestKineticCoefficients:
    def test_resonant_carrier_prefactor(self):
        p = JCParams.with_rabi(1.0, 0.0, 2.0, 5.0)
        bath = BathSpec(temperature=0.5, model="ohmic", eta=0.2, omega_cut=10.0)
        g0, _, _ = jc_kinetic_coefficients(p, bath)
        emis = gamma_one_sided(p.omega_c, bath).real
        absn = gamma_one_sided(-p.omega_c, bath).real
        assert abs(g0 - 0.5 * (emis + absn)) < 1e-12

    def test_zero_temperature_structure(self):
        # omega_c > Omega: only the emission-side terms survive at T = 0
        p = JCParams.with_rabi(1.0, 0.1, 0.4, 2.0)
        bath = BathSpec(temperature=0.0, model="ohmic", eta=0.3, omega_cut=10.0)
        g0, gm, gp = jc_kinetic_coefficients(p, bath)
        s_plus, s_minus = jc_sideband_weights(p)
        assert gm == pytest.approx(s_plus * bath.spectral_density(p.omega_c + p.rabi))
        assert gp == pytest.approx(s_minus * bath.spectral_density(p.omega_c - p.rabi))
        assert g0 == pytest.approx(2 * p.g ** 2 * p.nbar / p.rabi ** 2
                                   * bath.spectral_density(p.omega_c))

    def test_gapped_sideband_suppression(self):
        # band model covering only the carrier: side-band terms vanish
        p = JCParams.with_rabi(1.0, 0.0, 0.4, 2.0)
        carrier_only = BathSpec(temperature=0.0, model="band", eta=0.5,
                                omega_lo=0.9, omega_hi=1.1)
        g0, gm, gp = jc_kinetic_coefficients(p, carrier_only)
        assert g0 > 0 and gm == 0.0 and gp == 0.0

    def test_mollow_three_frequency_support(self):
        # localized J perturbations away from the three families do nothing
        p = JCParams.with_rabi(1.0, 0.15, 0.5, 2.0)
        om, wc = p.rabi, p.omega_c
        families = {abs(wc), abs(wc - om), abs(wc + om)}
        for center in (0.2, 2.4, 3.3):
            assert min(abs(center - f) for f in families) > 0.05
            bump = BathSpec(temperature=0.3, model="band", eta=1.0,
                            omega_lo=center - 0.02, omega_hi=center + 0.02)
            assert jc_kinetic_coefficients(p, bump) == (0.0, 0.0, 0.0)
        for f in families:
            bump = BathSpec(temperature=0.3, model="band", eta=1.0,
                            omega_lo=f - 0.02, omega_hi=f + 0.02)
            assert max(jc_kinetic_coefficients(p, bump)) > 0.0

    def test_nonnegative_over_grid(self):
        bath_grid = [BathSpec(temperature=t, model=m, eta=0.4, omega_cut=8.0)
                     for t in (0.0, 0.3, 2.0, 10.0) for m in ("ohmic", "cubic", "flat")]
        base = JCParams.with_rabi(1.0, 0.0, 0.4, 2.0)
        for delta in np.linspace(-0.79, 0.79, 9):
            p = JCParams(base.omega_c, base.omega_c + delta, base.g, base.alpha)
            for bath in bath_grid:
                g0, gm, gp = jc_kinetic_coefficients(p, bath)
                assert min(g0, gm, gp) >= 0.0

    def test_degenerate_drive_rejected(self):
        p = JCParams(1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ContractError):
            jc_kinetic_coefficients(p, BathSpec(temperature=0.5))

    def test_finite_delta_for_positive_temperature(self):
        p = JCParams.with_rabi(1.0, 0.2, 0.5, 2.0)
        bath = BathSpec(temperature=0.4, model="ohmic", eta=0.3, omega_cut=10.0)
        _, gm, gp = jc_kinetic_coefficients(p, bath)
        assert gm > 0 and gp > 0 and math.isfinite(math.log(gm / gp))
