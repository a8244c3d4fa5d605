import math

import numpy as np
import pytest
from scipy.integrate import quad

from qho_measure.gaussian_core import (
    Gaussian,
    OscillatorParams,
    WavePacket,
    evolved_density,
    evolved_width,
    gaussian_product,
)


class TestGaussian:
    def test_rejects_nonpositive_std(self):
        with pytest.raises(ValueError):
            Gaussian(0.0, 0.0)
        with pytest.raises(ValueError):
            Gaussian(0.0, -1.0)

    def test_pdf_normalized(self):
        g = Gaussian(1.3, 0.7)
        total, _ = quad(g.pdf, g.mean - 12 * g.std, g.mean + 12 * g.std)
        assert abs(total - 1.0) < 1e-9

    def test_pdf_peak_value(self):
        g = Gaussian(0.0, 2.0)
        assert abs(g.pdf(0.0) - 1.0 / (2.0 * math.sqrt(2 * math.pi))) < 1e-15

    def test_variance(self):
        assert Gaussian(0.0, 3.0).variance == 9.0


class TestGroundStateWidth:
    def test_unit_parameters(self):
        assert OscillatorParams(1.0, 1.0, 1.0).sigma_gs == 1.0

    def test_reference_omega(self):
        # sqrt(1 / 0.707), frozen from an independent evaluation
        val = OscillatorParams(1.0, 0.707, 1.0).sigma_gs
        assert abs(val - 1.1892969170906877) < 1e-15

    def test_mass_scaling(self):
        assert abs(OscillatorParams(4.0, 1.0, 1.0).sigma_gs - 0.5) < 1e-15


class TestEvolvedWidth:
    def test_initial_width_recovered(self):
        params = OscillatorParams(1.0, 1.3, 1.0)
        assert abs(evolved_width(params, 0.37, 0.0) - 0.37) < 1e-14

    def test_stationary_packet_width_constant(self):
        # sigma_x0 = sigma_gs / sqrt(2) gives the ground state; its width
        # must not breathe.
        params = OscillatorParams(1.0, 0.707, 1.0)
        s0 = params.sigma_gs / math.sqrt(2.0)
        ts = np.linspace(0.0, 3 * params.period, 200)
        widths = evolved_width(params, s0, ts)
        assert np.max(np.abs(widths - s0)) < 1e-12 * s0

    def test_reference_point(self):
        # frozen from a direct evaluation of the breathing formula
        params = OscillatorParams(1.0, 0.707, 1.0)
        t = 0.2 * params.period
        assert abs(evolved_width(params, 0.5, t) - 1.3540444447099245) < 1e-12

    def test_half_period_symmetry(self, rng):
        params = OscillatorParams(1.0, 0.9, 1.0)
        for _ in range(50):
            s0 = float(rng.uniform(0.2, 2.0))
            t = float(rng.uniform(0.0, params.period))
            a = evolved_width(params, s0, t)
            b = evolved_width(params, s0, t + 0.5 * params.period)
            assert abs(a - b) < 1e-10 * a

    def test_equivalent_quadrature_form(self, rng):
        # sigma(t)^2 == sigma_x0^2 cos^2 wt + (sigma_gs^4 / 4 sigma_x0^2) sin^2 wt
        params = OscillatorParams(1.0, 0.707, 1.0)
        sgs = params.sigma_gs
        for _ in range(500):
            s0 = float(rng.uniform(0.1, 3.0))
            t = float(rng.uniform(0.0, 2 * params.period))
            wt = params.omega * t
            alt = math.sqrt(
                s0**2 * math.cos(wt) ** 2
                + (sgs**4 / (4 * s0**2)) * math.sin(wt) ** 2
            )
            assert abs(evolved_width(params, s0, t) - alt) < 1e-12 * alt


class TestEvolvedDensity:
    def test_mean_oscillates(self):
        params = OscillatorParams(1.0, 1.0, 1.0)
        packet = WavePacket(x0=2.0, sigma_x0=0.8)
        g = evolved_density(params, packet, math.pi)  # half period
        assert abs(g.mean - (-2.0)) < 1e-12

    def test_centered_packet_stays_centered(self):
        params = OscillatorParams(1.0, 0.707, 1.0)
        g = evolved_density(params, WavePacket(0.0, 0.5), 0.123)
        assert g.mean == 0.0

    def test_mean_at_fifth_period(self):
        params = OscillatorParams(1.0, 0.707, 1.0)
        g = evolved_density(params, WavePacket(1.0, 0.5), 0.2 * params.period)
        assert abs(g.mean - 0.30901699437494745) < 1e-14

    def test_std_matches_evolved_width(self):
        params = OscillatorParams(2.0, 0.3, 1.0)
        t = 0.31 * params.period
        g = evolved_density(params, WavePacket(1.0, 0.6), t)
        assert abs(g.std - evolved_width(params, 0.6, t)) < 1e-15


class TestGaussianProduct:
    def test_equal_gaussians(self):
        g = gaussian_product(Gaussian(0.0, 1.0), Gaussian(0.0, 1.0))
        assert abs(g.mean) < 1e-15
        assert abs(g.std - 1.0 / math.sqrt(2.0)) < 1e-15

    def test_flat_prior_limit(self):
        a = Gaussian(1.5, 0.3)
        b = Gaussian(0.0, 0.3e6)
        g = gaussian_product(a, b)
        assert abs(g.mean - a.mean) < 1e-5
        assert abs(g.std - a.std) < 1e-5

    def test_hand_case(self):
        # var 1 and var 4 at means 2 and 0: posterior var 4/5, mean 8/5
        g = gaussian_product(Gaussian(2.0, 1.0), Gaussian(0.0, 2.0))
        assert abs(g.variance - 0.8) < 1e-14
        assert abs(g.mean - 1.6) < 1e-14

    def test_pointwise_identity(self, rng):
        # a.pdf(x) * b.pdf(x) == overlap * product.pdf(x) everywhere, where
        # the overlap integral is the pdf of N(0, a.std^2 + b.std^2) at the
        # distance of the means, checked here by quadrature
        for _ in range(30):
            a = Gaussian(float(rng.normal()), float(rng.uniform(0.2, 3.0)))
            b = Gaussian(float(rng.normal()), float(rng.uniform(0.2, 3.0)))
            g = gaussian_product(a, b)
            overlap = float(Gaussian(0.0, math.hypot(a.std, b.std)).pdf(a.mean - b.mean))
            ref, _ = quad(lambda x: a.pdf(x) * b.pdf(x), g.mean - 12 * g.std, g.mean + 12 * g.std)
            assert abs(overlap - ref) < 1e-9
            xs = np.linspace(g.mean - 6 * g.std, g.mean + 6 * g.std, 101)
            lhs = overlap * g.pdf(xs)
            rhs = a.pdf(xs) * b.pdf(xs)
            assert np.max(np.abs(lhs - rhs)) < 1e-9 * np.max(rhs)
