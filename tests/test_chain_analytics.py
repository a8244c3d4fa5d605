import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from qho_measure import (
    ChainClosedForm,
    DomainError,
    Gaussian,
    MeasurementScheme,
    NondimPoint,
    OscillatorParams,
    PrecisionError,
    ResonanceError,
    WavePacket,
    density_before_nth,
    ensemble_variance_partial,
    evolved_width,
    gaussian_product,
    limiting_sigma,
    limiting_sigma_simplified,
    nondim_limit,
    optimal_precision,
    povm_parameters,
)
from qho_measure.trajectory_sim import ar1_scan
from conftest import REF_SIGMA_INF


def make_cf(sigma_step=1.0, sigma_first=1.0, rho=0.5):
    return ChainClosedForm(sigma_step=sigma_step, sigma_first=sigma_first, rho=rho)


class TestFromSetup:
    def test_matches_evolved_widths(self, ref_params, ref_scheme, ref_packet):
        cf = ChainClosedForm.from_setup(ref_params, ref_scheme, ref_packet)
        t = ref_scheme.t_M
        assert abs(cf.sigma_step - evolved_width(ref_params, ref_scheme.sigma_M, t)) < 1e-14
        assert abs(cf.sigma_first - evolved_width(ref_params, ref_packet.sigma_x0, t)) < 1e-14
        assert abs(cf.rho - math.cos(ref_params.omega * t)) < 1e-15
        assert abs(cf.sin_abs - abs(math.sin(ref_params.omega * t))) < 1e-15


class TestDensityBeforeNth:
    def test_first_measurement(self):
        cf = make_cf(sigma_step=0.8, sigma_first=1.7, rho=0.4)
        g = density_before_nth(cf, 1)
        assert abs(g.std - 1.7) < 1e-15
        assert g.mean == 0.0

    def test_second_measurement(self):
        cf = make_cf(sigma_step=0.8, sigma_first=1.7, rho=0.4)
        g = density_before_nth(cf, 2)
        expected = 0.8 * math.sqrt(1.0 + (1.7 / 0.8) ** 2 * 0.4**2)
        assert abs(g.std - expected) < 1e-14

    def test_memoryless_chain(self):
        cf = make_cf(sigma_step=0.8, sigma_first=1.7, rho=0.0)
        for n in (2, 3, 10):
            assert abs(density_before_nth(cf, n).std - 0.8) < 1e-15

    def test_geometric_approach_to_limit(self):
        # |sigma_n^2 - sigma_inf^2| decays exactly as rho^{2(n-1)}
        cf = make_cf(sigma_step=0.9, sigma_first=2.1, rho=0.6)
        v_inf = limiting_sigma(cf) ** 2
        gap1 = cf.sigma_first**2 - v_inf
        for n in (1, 2, 5, 20):
            gap_n = density_before_nth(cf, n).variance - v_inf
            expected = gap1 * cf.rho ** (2 * (n - 1))
            assert abs(gap_n - expected) < 1e-12 * abs(gap1)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            density_before_nth(make_cf(), 0)

    def test_mean_follows_noise_free_recursion(self):
        # with every kick zero the chain is x_i = rho x_{i-1} from x0
        for rho in (0.6, -0.83, 0.999):
            cf = make_cf(sigma_step=0.9, sigma_first=2.1, rho=rho)
            path = ar1_scan(rho, np.zeros(40), -2.5)
            for n in (1, 2, 3, 17, 40):
                mean = density_before_nth(cf, n, x0=-2.5).mean
                assert abs(mean - path[n - 1]) <= 1e-14 * 2.5
            assert density_before_nth(cf, 5).mean == 0.0


class TestLimitingSigma:
    def test_quarter_period(self):
        # rho = 0: each sample is one fresh evolution step
        cf = make_cf(sigma_step=1.3, sigma_first=0.5, rho=0.0)
        assert abs(limiting_sigma(cf) - 1.3) < 1e-15

    def test_reference_setup(self, ref_params, ref_scheme, ref_packet):
        cf = ChainClosedForm.from_setup(ref_params, ref_scheme, ref_packet)
        assert abs(limiting_sigma(cf) - REF_SIGMA_INF) < 1e-12

    def test_resonance_raises(self, ref_params, ref_packet):
        scheme = MeasurementScheme(t_M=0.5 * ref_params.period, sigma_M=0.5)
        cf = ChainClosedForm.from_setup(ref_params, scheme, ref_packet)
        with pytest.raises(ResonanceError):
            limiting_sigma(cf)

    def test_agrees_with_simplified_form(self, rng):
        params = OscillatorParams(1.0, 0.707, 1.0)
        packet = WavePacket(0.0, 1.0)
        for _ in range(300):
            tau = float(rng.uniform(0.02, 0.48))
            sM = float(rng.uniform(0.1, 3.0))
            scheme = MeasurementScheme(t_M=tau * params.period, sigma_M=sM)
            cf = ChainClosedForm.from_setup(params, scheme, packet)
            a = limiting_sigma(cf)
            b = limiting_sigma_simplified(params, scheme)
            assert abs(a - b) < 1e-12 * a


class TestLimitingSigmaSimplified:
    def test_quarter_period_value(self):
        # cot term vanishes: sigma_inf = sigma_gs^2 / (2 sigma_M)
        params = OscillatorParams(1.0, 1.0, 1.0)
        scheme = MeasurementScheme(t_M=0.25 * params.period, sigma_M=0.4)
        val = limiting_sigma_simplified(params, scheme)
        assert abs(val - 1.0 / (2 * 0.4)) < 1e-14

    def test_eighth_period_matched_precision(self):
        # at tau = 1/8 with sigma_M = sigma_gs/sqrt(2): both terms are
        # sigma_gs^2/2, so sigma_inf = sigma_gs
        params = OscillatorParams(1.0, 0.707, 1.0)
        scheme = MeasurementScheme(
            t_M=0.125 * params.period, sigma_M=params.sigma_gs / math.sqrt(2.0)
        )
        val = limiting_sigma_simplified(params, scheme)
        assert abs(val - params.sigma_gs) < 1e-13


class TestNondimLimit:
    def test_reference_points(self):
        assert abs(nondim_limit(NondimPoint(0.5, 0.25)) - 1.0) < 1e-14
        assert abs(nondim_limit(NondimPoint(1.0 / math.sqrt(2.0), 0.125)) - 1.0) < 1e-13

    def test_consistent_with_dimensional_form(self, rng):
        params = OscillatorParams(1.0, 0.707, 1.0)
        sgs = params.sigma_gs
        for _ in range(100):
            tau = float(rng.uniform(0.02, 0.48))
            sM = float(rng.uniform(0.1, 3.0))
            scheme = MeasurementScheme(t_M=tau * params.period, sigma_M=sM)
            a = nondim_limit(NondimPoint(sM / sgs, tau)) * sgs
            b = limiting_sigma_simplified(params, scheme)
            assert abs(a - b) < 1e-12 * b

    def test_half_period_shift_invariance(self, rng):
        for _ in range(100):
            tau = float(rng.uniform(0.02, 0.48))
            vs = float(rng.uniform(0.1, 3.0))
            a = nondim_limit(NondimPoint(vs, tau))
            b = nondim_limit(NondimPoint(vs, tau + 0.5))
            assert abs(a - b) < 1e-12 * a

    def test_resonance_raises(self):
        with pytest.raises(ResonanceError):
            nondim_limit(NondimPoint(0.5, 0.5))


class TestOptimalPrecision:
    def test_eighth_period(self):
        assert abs(optimal_precision(0.125) - 0.7071067811865475) < 1e-14

    def test_twelfth_period(self):
        assert abs(optimal_precision(1.0 / 12.0) - 0.537284965911771) < 1e-13

    def test_quarter_period_has_no_minimum(self):
        with pytest.raises(DomainError):
            optimal_precision(0.25)

    def test_is_local_minimum(self):
        for tau in (1.0 / 12.0, 0.125, 1.0 / 6.0):
            vs = optimal_precision(tau)
            center = nondim_limit(NondimPoint(vs, tau))
            left = nondim_limit(NondimPoint(vs * (1 - 1e-3), tau))
            right = nondim_limit(NondimPoint(vs * (1 + 1e-3), tau))
            assert center < left and center < right

    def test_matches_numerical_minimizer(self):
        for tau in (0.05, 0.1, 0.125, 0.2, 0.23):
            vs = optimal_precision(tau)
            res = minimize_scalar(
                lambda v: nondim_limit(NondimPoint(v, tau)),
                bounds=(0.05, 3.0),
                method="bounded",
                options={"xatol": 1e-10},
            )
            assert abs(vs - res.x) < 1e-6


class TestEnsembleVariancePartial:
    def test_single_sample(self):
        cf = make_cf(sigma_step=0.8, sigma_first=1.7, rho=0.4)
        assert abs(ensemble_variance_partial(cf, 1) - 1.7**2) < 1e-14

    def test_matches_direct_sum(self):
        cf = make_cf(sigma_step=0.9, sigma_first=2.1, rho=0.6)
        for n in (1, 2, 3, 10, 100, 10_000):
            direct = float(
                np.mean([density_before_nth(cf, i).variance for i in range(1, n + 1)])
            ) if n <= 100 else None
            if direct is None:
                # vectorized direct summation for large n
                i = np.arange(1, n + 1)
                q = cf.rho**2
                v_inf = limiting_sigma(cf) ** 2
                var_i = v_inf + (cf.sigma_first**2 - v_inf) * q ** (i - 1)
                direct = float(np.mean(var_i))
            closed = ensemble_variance_partial(cf, n)
            assert abs(closed - direct) < 1e-10 * direct

    def test_converges_to_limit(self):
        cf = make_cf(sigma_step=0.9, sigma_first=2.1, rho=0.6)
        v_inf = limiting_sigma(cf) ** 2
        assert abs(ensemble_variance_partial(cf, 10**6) - v_inf) < 1e-4 * v_inf

    def test_memoryless(self):
        cf = make_cf(sigma_step=0.8, sigma_first=1.7, rho=0.0)
        val = ensemble_variance_partial(cf, 4)
        expected = (1.7**2 + 3 * 0.8**2) / 4.0
        assert abs(val - expected) < 1e-14


class TestPovmParameters:
    def test_flat_prior_limit(self):
        sW, xW = povm_parameters(0.5, 1.2, Gaussian(0.0, 5e5))
        assert abs(sW - 0.5) < 1e-6
        assert abs(xW - 1.2) < 1e-6

    def test_hand_case(self):
        # sigma_M = 1, prior N(0, 4): window var 4/3, window center 4 x_M / 3
        sW, xW = povm_parameters(1.0, 0.9, Gaussian(0.0, 2.0))
        assert abs(sW**2 - 4.0 / 3.0) < 1e-14
        assert abs(xW - 1.2) < 1e-14

    def test_narrow_prior_rejected(self):
        with pytest.raises(PrecisionError):
            povm_parameters(1.0, 0.0, Gaussian(0.0, 1.0))
        with pytest.raises(PrecisionError):
            povm_parameters(1.0, 0.0, Gaussian(0.0, 0.5))

    def test_roundtrip_product(self, rng):
        # the window times the prior must reproduce N(x_M, sigma_M^2)
        for _ in range(1000):
            s_psi = float(rng.uniform(0.2, 5.0))
            sigma_M = s_psi * float(rng.uniform(0.01, 0.99))
            mu = float(rng.normal(0.0, 2.0))
            x_M = float(rng.normal(0.0, 2.0))
            prior = Gaussian(mu, s_psi)
            sW, xW = povm_parameters(sigma_M, x_M, prior)
            post = gaussian_product(Gaussian(xW, sW), prior)
            assert abs(post.mean - x_M) < 1e-9 * max(1.0, abs(x_M))
            assert abs(post.std - sigma_M) < 1e-9 * sigma_M

    def test_scale_covariance(self):
        lam = 3.7
        sW, xW = povm_parameters(0.4, 1.1, Gaussian(0.3, 1.5))
        sW2, xW2 = povm_parameters(lam * 0.4, lam * 1.1, Gaussian(lam * 0.3, lam * 1.5))
        assert abs(sW2 - lam * sW) < 1e-12
        assert abs(xW2 - lam * xW) < 1e-12
