import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from qho_measure.chain_analytics import (
    ChainClosedForm,
    EPS_RES,
    MeasurementScheme,
    NondimPoint,
    density_before_nth,
    ensemble_variance_partial,
    limiting_sigma,
    limiting_sigma_simplified,
    nondim_limit,
    optimal_precision,
    povm_parameters,
)
from qho_measure.errors import DomainError, PrecisionError, ResonanceError
from qho_measure.gaussian_core import Gaussian, OscillatorParams, WavePacket, evolved_width, gaussian_product
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

    @pytest.mark.parametrize("t_M,refused", [(2.0**23 - 1, False), (2.0**23, True), (1e300, True)])
    def test_angle_set_by_rounding_refused(self, t_M, refused):
        # from 2^23 rad the float spacing of omega t_M exceeds EPS_RES, so
        # rounding decides whether |sin(omega t_M)| <= EPS_RES
        params = OscillatorParams(mass=1.0, omega=1.0, hbar=1.0)
        scheme = MeasurementScheme(t_M=t_M, sigma_M=0.5)
        for closed_form in (
            lambda: limiting_sigma(ChainClosedForm.from_setup(params, scheme, WavePacket(0.0, 0.5))),
            lambda: limiting_sigma_simplified(params, scheme),
        ):
            if refused:
                with pytest.raises(DomainError, match="rounding"):
                    closed_form()
            else:
                assert math.isfinite(closed_form())


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
            path = ar1_scan(rho, np.zeros(40), -2.5, np.empty(40))
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

    def test_property_is_none_only_at_resonance(self, ref_params, ref_scheme, ref_packet):
        cf = ChainClosedForm.from_setup(ref_params, ref_scheme, ref_packet)
        assert cf.sigma_inf == limiting_sigma(cf)
        scheme = MeasurementScheme(t_M=0.5 * ref_params.period, sigma_M=0.5)
        assert ChainClosedForm.from_setup(ref_params, scheme, ref_packet).sigma_inf is None

    @pytest.mark.parametrize("tau", [0.5000000008, 1e-9], ids=["rho_minus_1", "rho_plus_1"])
    def test_rho_rounded_to_one_is_resonant(self, ref_params, ref_packet, tau):
        # |sin(omega t_M)| is above EPS_RES, but rho rounds to +-1, where
        # 1 - rho^2 is 0 in floats
        scheme = MeasurementScheme(t_M=tau * ref_params.period, sigma_M=0.5)
        cf = ChainClosedForm.from_setup(ref_params, scheme, ref_packet)
        assert cf.sin_abs > EPS_RES and abs(cf.rho) == 1.0
        assert cf.sigma_inf is None
        with pytest.raises(ResonanceError):
            limiting_sigma(cf)
        with pytest.raises(ResonanceError):
            ensemble_variance_partial(cf, 1000)
        # the instrument-term and non-dimensional forms share the rule
        with pytest.raises(ResonanceError):
            limiting_sigma_simplified(ref_params, scheme)
        with pytest.raises(ResonanceError):
            nondim_limit(NondimPoint(0.5 / ref_params.sigma_gs, tau))

    @pytest.mark.parametrize("rho", [math.nextafter(1.0, 0.0), math.nextafter(-1.0, 0.0)])
    def test_rho_one_ulp_inside_is_not_resonant(self, rho):
        cf = make_cf(rho=rho)
        assert cf.sigma_inf == limiting_sigma(cf) == 1.0 / cf.sin_abs

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

    def test_angle_set_by_rounding_raises(self):
        # 2 pi tau_M passes 2^23 rad between these two (non-resonant) points
        assert math.isfinite(nondim_limit(NondimPoint(0.5, 1.3e6 + 0.2)))
        with pytest.raises(DomainError, match="rounding"):
            nondim_limit(NondimPoint(0.5, 1.4e6 + 0.2))

    @pytest.mark.parametrize("varsigma", [1e-200, 1e-160, 1e200])
    def test_outside_float_range_raises(self, ref_params, varsigma):
        with pytest.raises(DomainError):
            nondim_limit(NondimPoint(varsigma, 0.2))
        scheme = MeasurementScheme(t_M=0.2 * ref_params.period, sigma_M=varsigma * ref_params.sigma_gs)
        with pytest.raises(DomainError):
            limiting_sigma_simplified(ref_params, scheme)


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

    @pytest.mark.parametrize("rho", [1.0, -1.0])
    def test_unit_rho_raises(self, rho):
        with pytest.raises(ResonanceError):
            ensemble_variance_partial(make_cf(rho=rho), 10)

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
