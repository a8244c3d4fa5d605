import math

import numpy as np
import pytest

from qho_measure.chain_analytics import ChainClosedForm, ChainConfig, MeasurementScheme, limiting_sigma
from qho_measure.errors import GridTooCoarse, GridTooSmall, LeakageError, PrecisionError, QhoError
from qho_measure.gaussian_core import OscillatorParams, WavePacket, evolved_density
from qho_measure.grid_oracle import (
    CollapseMode,
    Grid,
    GridWavefunction,
    _sample_from_density,
    _sweep,
    default_grid_for,
    evolve,
    init_packet,
    measure_and_collapse,
    run_chain_grid,
)


class TestGrid:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Grid(-10.0, 10.0, 1000)

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            Grid(-10.0, 10.0, 128)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            Grid(5.0, 5.0, 512)

    def test_axis_shape(self):
        g = Grid.symmetric(12.0, 512)
        assert len(g.x) == 512
        assert g.x[0] == -12.0
        assert abs(g.dx - 24.0 / 512) < 1e-15


class TestInitPacket:
    def test_normalized(self):
        g = Grid.symmetric(15.0, 1024)
        wf = init_packet(g, WavePacket(1.0, 0.7))
        assert abs(wf.norm() - 1.0) < 1e-10

    def test_moments(self):
        g = Grid.symmetric(15.0, 2048)
        wf = init_packet(g, WavePacket(-2.0, 0.9))
        assert abs(wf.position_mean() - (-2.0)) < 1e-8
        assert abs(wf.position_std() - 0.9) < 1e-6

    def test_packet_near_edge_rejected(self):
        g = Grid.symmetric(10.0, 512)
        with pytest.raises(GridTooSmall):
            init_packet(g, WavePacket(8.0, 1.0))

    def test_unresolvable_width_rejected(self):
        g = Grid.symmetric(100.0, 512)  # dx = 0.39
        with pytest.raises(GridTooCoarse):
            init_packet(g, WavePacket(0.0, 0.5))


class TestEvolve:
    def test_zero_time_is_identity(self):
        params = OscillatorParams(1.0, 0.707, 1.0)
        g = Grid.symmetric(15.0, 1024)
        wf = init_packet(g, WavePacket(0.5, 0.8))
        out = evolve(wf, 0.0, params)
        assert np.array_equal(out.psi, wf.psi)

    def test_norm_preserved(self):
        params = OscillatorParams(1.0, 0.707, 1.0)
        g = Grid.symmetric(15.0, 1024)
        wf = init_packet(g, WavePacket(0.0, 0.6))
        out = evolve(wf, params.period, params)
        assert abs(out.norm() - 1.0) < 1e-8

    def test_reference_width(self):
        # frozen closed-form value for sigma_x0 = 0.5 evolved for T/5
        params = OscillatorParams(1.0, 0.707, 1.0)
        g = Grid.symmetric(15.0, 2048)
        wf = init_packet(g, WavePacket(0.0, 0.5))
        out = evolve(wf, 0.2 * params.period, params)
        assert abs(out.position_std() - 1.3540444447099245) < 1e-4

    def test_full_period_revival(self):
        params = OscillatorParams(1.0, 0.707, 1.0)
        g = Grid.symmetric(20.0, 2048)
        wf = init_packet(g, WavePacket(2.0, 0.7))
        out = evolve(wf, params.period, params)
        assert abs(out.position_mean() - 2.0) < 1e-4
        assert abs(out.position_std() - 0.7) < 1e-4

    def test_matches_closed_form_grid(self):
        params = OscillatorParams(1.0, 0.707, 1.0)
        g = Grid.symmetric(20.0, 2048)
        for s0 in (0.4, 1.2):
            for frac in (0.13, 0.37):
                wf = init_packet(g, WavePacket(0.8, s0))
                out = evolve(wf, frac * params.period, params)
                ref = evolved_density(params, WavePacket(0.8, s0), frac * params.period)
                assert abs(out.position_mean() - ref.mean) < 1e-4
                assert abs(out.position_std() - ref.std) < 1e-4 * ref.std

    def test_halving_dt_converges(self):
        params = OscillatorParams(1.0, 0.707, 1.0)
        g = Grid.symmetric(15.0, 1024)
        wf = init_packet(g, WavePacket(0.0, 0.5))
        t = 0.3 * params.period
        coarse = evolve(wf, t, params, dt=params.period / 2048)
        fine = evolve(wf, t, params, dt=params.period / 4096)
        assert abs(coarse.position_std() - fine.position_std()) < 1e-6

    @pytest.mark.parametrize("dt", (None, 0.3))
    def test_sweeps_leave_input_and_bits(self, rng, dt):
        # the sweeps run in place on a new array: the input is left as it
        # was, and the bits are those of cx ifft(ck fft(cx psi)) per sweep
        params = OscillatorParams(1.0, 0.707, 1.0)
        g = Grid.symmetric(15.0, 2048)
        psi = rng.normal(size=2048) + 1j * rng.normal(size=2048)
        before = psi.copy()
        for t in (0.3, 4.0, -1.1):
            out = evolve(GridWavefunction(g, psi), t, params, dt=dt).psi
            cx, ck, sweeps = _sweep(g, t, params, dt)
            expected = psi
            for _ in range(sweeps):
                expected = cx * np.fft.ifft(ck * np.fft.fft(cx * expected))
            assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))
            assert np.array_equal(psi.view(np.uint64), before.view(np.uint64))

    @pytest.mark.parametrize(
        "tau, steps_per_period, sweeps",
        [(0.1, None, 1), (0.45, None, 2), (0.23, 1024, 236)],
        ids=["exact one sweep", "exact two sweeps", "strang dt=T/1024"],
    )
    def test_stack_of_rows_has_each_rows_bits(self, tau, steps_per_period, sweeps):
        # the grid check's three packets as one (3, 512) stack: the chirps
        # broadcast over the rows and the FFTs transform the last axis
        params = OscillatorParams(1.0, 0.707, 1.0)
        sgs, t = params.sigma_gs, tau * params.period
        dt = None if steps_per_period is None else params.period / steps_per_period
        g = Grid.symmetric(16.0 * sgs, 512)
        rows = [init_packet(g, WavePacket(0.84 * sgs, s * sgs)).psi for s in (0.3, 0.6, 1.25)]
        stack = np.stack(rows)
        before = stack.copy()
        out = evolve(GridWavefunction(g, stack), t, params, dt=dt).psi
        assert _sweep(g, t, params, dt)[2] == sweeps and out.shape == (3, 512)
        for got, row in zip(out, rows):
            expected = evolve(GridWavefunction(g, row), t, params, dt=dt).psi
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        assert np.array_equal(stack.view(np.uint64), before.view(np.uint64))


class TestExactEvolve:
    """evolve without dt: the exact three-chirp rotation."""

    PARAMS = OscillatorParams(1.0, 0.707, 1.0)
    # wide enough that no evolved packet below reaches the boundary
    GRID = Grid.symmetric(25.0, 2048)
    FRACS = (0.08, 0.1, 0.2, 0.23, 0.25, 0.38, 0.45, 0.46, 0.5, 0.7, 1.0, 1.3, -0.3)

    @pytest.mark.parametrize("s0", (0.3, 0.7, 1.5))
    def test_matches_closed_form(self, s0):
        T = self.PARAMS.period
        packet = WavePacket(1.0, s0)
        wf0 = init_packet(self.GRID, packet)
        for frac in self.FRACS:
            out = evolve(wf0, frac * T, self.PARAMS)
            ref = evolved_density(self.PARAMS, packet, frac * T)
            assert np.isfinite(out.psi).all()
            assert abs(out.position_std() / ref.std - 1.0) <= 1e-12
            assert abs(out.position_mean() - ref.mean) <= 1e-12 * max(abs(ref.mean), ref.std)
            assert abs(out.norm() - 1.0) <= 1e-12

    def test_matches_strang(self):
        T = self.PARAMS.period
        wf0 = init_packet(self.GRID, WavePacket(1.0, 0.7))
        for frac in (0.2, 0.38):
            exact = evolve(wf0, frac * T, self.PARAMS)
            strang = evolve(wf0, frac * T, self.PARAMS, dt=T / 4096)
            assert np.max(np.abs(exact.density() - strang.density())) <= 1e-6

    @pytest.mark.parametrize("frac,mean,sweeps", ((0.5, -2.0, 2), (1.0, 2.0, 1)))
    def test_half_and_full_period(self, frac, mean, sweeps):
        # omega t = pi is applied in two halves, where tan(theta/2) is finite;
        # omega t = 2 pi reduces to theta ~ 0. Half a period mirrors the
        # packet, a full one restores it.
        T = self.PARAMS.period
        assert _sweep(self.GRID, frac * T, self.PARAMS, None)[2] == sweeps
        wf0 = init_packet(self.GRID, WavePacket(2.0, 0.7))
        out = evolve(wf0, frac * T, self.PARAMS)
        assert np.isfinite(out.psi).all()
        assert abs(out.position_mean() - mean) <= 1e-12
        assert abs(out.position_std() / 0.7 - 1.0) <= 1e-12
        assert abs(out.norm() - 1.0) <= 1e-12

class TestSampling:
    def test_delta_density_sampled_in_place(self, rng):
        g = Grid.symmetric(6.0, 1024)
        wf = init_packet(g, WavePacket(3.0, 0.05))
        draws = [_sample_from_density(wf, rng) for _ in range(200)]
        assert all(abs(d - 3.0) < 0.5 for d in draws)

    def test_gaussian_statistics(self, rng):
        g = Grid.symmetric(12.0, 1024)
        wf = init_packet(g, WavePacket(-1.0, 0.8))
        draws = np.array([_sample_from_density(wf, rng) for _ in range(20_000)])
        assert abs(np.mean(draws) - (-1.0)) < 4 * 0.8 / math.sqrt(20_000)
        assert abs(np.std(draws) - 0.8) < 4 * 0.8 / math.sqrt(2 * 20_000)

    def test_bins_centred_on_nodes(self, rng):
        # a coarse grid (dx = 0.094) makes a shift of dx/2 show: bins spread
        # over [x_j, x_j + dx) gave a mean of +0.040, 5.6 standard errors
        g = Grid.symmetric(12.0, 256)
        wf = init_packet(g, WavePacket(0.0, 1.0))
        draws = np.array([_sample_from_density(wf, rng) for _ in range(20_000)])
        assert abs(np.mean(draws)) < 3 / math.sqrt(20_000)


class TestMeasureAndCollapse:
    def test_replace_resets_to_instrument_width(self, rng):
        g = Grid.symmetric(15.0, 2048)
        wf = init_packet(g, WavePacket(0.0, 1.5))
        x_M, post = measure_and_collapse(wf, 0.4, CollapseMode.REPLACE, rng)
        assert abs(post.position_mean() - x_M) < 1e-8
        assert abs(post.position_std() - 0.4) < 1e-6
        assert abs(post.norm() - 1.0) < 1e-10

    def test_weak_product_posterior_density(self, rng):
        # the weak-window product must give the same posterior density as
        # replacement for the same outcome
        g = Grid.symmetric(15.0, 2048)
        wf = init_packet(g, WavePacket(0.3, 1.5))
        x_M, post = measure_and_collapse(wf, 0.4, CollapseMode.WEAK_PRODUCT, rng)
        assert abs(post.position_mean() - x_M) < 1e-6
        assert abs(post.position_std() - 0.4) < 1e-4
        assert abs(post.norm() - 1.0) < 1e-10

    def test_instrument_width_below_resolution_rejected(self, rng):
        g = Grid.symmetric(50.0, 512)  # dx = 0.195
        wf = init_packet(g, WavePacket(0.0, 2.0))
        with pytest.raises(GridTooCoarse):
            measure_and_collapse(wf, 0.05, CollapseMode.REPLACE, rng)

    @pytest.mark.parametrize("mode", list(CollapseMode))
    def test_instrument_width_at_resolution_rejected(self, rng, mode):
        # the rule is dx < sigma_M / 4, so sigma_M == 4 dx is refused by both modes
        g = Grid.symmetric(50.0, 512)
        wf = init_packet(g, WavePacket(0.0, 2.0))
        with pytest.raises(GridTooCoarse):
            measure_and_collapse(wf, 4.0 * g.dx, mode, rng)


class TestRunChainGrid:
    def _cfg(self, n, seed=21, tau=0.2, sigma_M=0.5):
        params = OscillatorParams(1.0, 0.707, 1.0)
        scheme = MeasurementScheme(t_M=tau * params.period, sigma_M=sigma_M)
        packet = WavePacket(0.0, params.sigma_gs)
        return ChainConfig(params, scheme, packet, n, seed)

    def test_deterministic(self):
        cfg = self._cfg(30)
        a = run_chain_grid(cfg, dt=cfg.params.period / 128)
        b = run_chain_grid(cfg, dt=cfg.params.period / 128)
        assert np.array_equal(a.samples, b.samples)

    def test_deterministic_exact_path(self):
        cfg = self._cfg(30)
        a = run_chain_grid(cfg)
        b = run_chain_grid(cfg)
        assert np.array_equal(a.samples, b.samples)

    def test_replace_chain_std_near_limit(self):
        cfg = self._cfg(2500)
        record = run_chain_grid(cfg)
        cf = ChainClosedForm.from_setup(cfg.params, cfg.scheme, cfg.initial)
        target = limiting_sigma(cf)
        assert abs(np.std(record.samples) / target - 1.0) < 0.05

    def test_memoryless_period_decorrelates(self):
        # quarter-period measurement: rho = 0, lag-1 autocorrelation small
        cfg = self._cfg(2500, tau=0.25)
        record = run_chain_grid(cfg)
        x = record.samples - np.mean(record.samples)
        r1 = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
        assert abs(r1) < 0.05

    def test_weak_product_chain_eventually_leaks(self):
        # back-action heating: the weak-product chain's excursions grow and
        # the packet reaches the boundary of any moderate grid
        cfg = self._cfg(2000, sigma_M=0.3)
        with pytest.raises(LeakageError):
            run_chain_grid(
                cfg,
                mode=CollapseMode.WEAK_PRODUCT,
                dt=cfg.params.period / 128,
            )

    # a setup the default grid cannot run is refused by the code that runs
    # it, at the first step: init_packet, measure_and_collapse, povm_parameters
    @pytest.mark.parametrize("mode", list(CollapseMode))
    def test_default_grid_refuses_a_far_initial_packet(self, mode):
        cfg = self._cfg(3)
        cfg = ChainConfig(cfg.params, cfg.scheme, WavePacket(40.0, cfg.initial.sigma_x0), 3, 21)
        with pytest.raises(GridTooSmall, match=r"x0=40\.0 with sigma=1\.189\d* does not fit inside extent 17\.08"):
            run_chain_grid(cfg, mode=mode)

    def test_weak_collapse_refuses_a_prior_narrower_than_the_instrument(self):
        # the initial packet of width sigma_gs = 1.19 has narrowed to 0.67 at
        # the first measurement, below sigma_M = 1
        with pytest.raises(PrecisionError, match=r"prior std 0\.67446\d* <= instrument width 1\.0\b"):
            run_chain_grid(self._cfg(3, sigma_M=1.0), mode=CollapseMode.WEAK_PRODUCT)

    def test_weak_collapse_refuses_by_the_closed_form_prior(self):
        # the default grid's chirps alias this wide packet: its evolved std is
        # 19.7, not sigma_first = 12.71, so only the closed form shows that the
        # first prior is narrower than sigma_M = 14.2
        params = OscillatorParams(0.42387623357308873, 2.44982765345646, 2.1057262856018535)
        cfg = ChainConfig(
            params, MeasurementScheme(1.2033367452880233, 14.21091513605494),
            WavePacket(5.982804628234976, 12.949926729645094), 1, 7,
        )
        wf = evolve(init_packet(default_grid_for(cfg), cfg.initial), cfg.scheme.t_M, params)
        assert wf.position_std() > cfg.scheme.sigma_M > cfg.closed_form.sigma_first
        with pytest.raises(PrecisionError, match=r"prior std 12\.707\d* <= instrument width 14\.21"):
            run_chain_grid(cfg, mode=CollapseMode.WEAK_PRODUCT)

    def test_default_grid_refuses_a_wide_replacement_packet(self):
        # 8 sigma_M = 56 exceeds the extent 27.32, wherever the outcome lands
        with pytest.raises(GridTooSmall, match=r"with sigma=7\.0 does not fit inside extent 27\.32"):
            run_chain_grid(self._cfg(3, sigma_M=7.0))

    def test_refuses_every_setup_the_fit_rules_refuse(self):
        # the four fit rules of the default grid, as stated before the run
        # once: each setup they refuse must raise when the chain runs
        def refused_by(cfg, mode):
            grid, sigma_M, packet = default_grid_for(cfg), cfg.scheme.sigma_M, cfg.initial
            return {
                "weak prior": mode is CollapseMode.WEAK_PRODUCT and cfg.closed_form.sigma_first <= sigma_M,
                "resolution": min(sigma_M, packet.sigma_x0) <= 4.0 * grid.dx,
                "initial fit": abs(packet.x0) + 8.0 * packet.sigma_x0 >= grid.x_max,
                "replacement fit": mode is CollapseMode.REPLACE and 8.0 * sigma_M >= grid.x_max,
            }

        rng = np.random.default_rng(30)
        fired = dict.fromkeys(refused_by(self._cfg(1), CollapseMode.REPLACE), 0)
        setups = 0
        while setups < 300:
            params = OscillatorParams(*(10.0 ** rng.uniform(-1.0, 1.0, 3)))
            gs = params.sigma_gs
            scheme = MeasurementScheme(rng.uniform(0.02, 0.98) * params.period, gs * 10.0 ** rng.uniform(-2.5, 1.5))
            packet = WavePacket(gs * rng.normal(0.0, 10.0), gs * 10.0 ** rng.uniform(-2.0, 1.5))
            cfg = ChainConfig(params, scheme, packet, 1, int(rng.integers(2**32)))
            if abs(cfg.closed_form.sigma_first / scheme.sigma_M - 1.0) < 1e-9:
                continue
            setups += 1
            for mode in CollapseMode:
                rules = refused_by(cfg, mode)
                if any(rules.values()):
                    with pytest.raises(QhoError):
                        run_chain_grid(cfg, mode=mode)
                for rule, refused in rules.items():
                    fired[rule] += refused
        assert min(fired.values()) > 0, fired

    def test_default_grid_spans_limit(self):
        cfg = self._cfg(10)
        cf = ChainClosedForm.from_setup(cfg.params, cfg.scheme, cfg.initial)
        grid = default_grid_for(cfg)
        assert grid.x_max >= 8 * limiting_sigma(cf)
