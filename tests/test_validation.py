import math
import threading

import numpy as np
import pytest

from qho_measure import cli, grid_oracle
from qho_measure import trajectory_sim as ts
from qho_measure import validation
from qho_measure.chain_analytics import ChainClosedForm, MeasurementScheme
from qho_measure.gaussian_core import Gaussian, WavePacket, evolved_density
from qho_measure.grid_oracle import default_grid_for
from qho_measure.validation import CheckResult, run_battery
from conftest import traced_peak

# run_battery's checks, by the module attribute each one is looked up under
CHECKS = {
    "grid_vs_closed_form": "check_grid_vs_closed_form",
    "spectral_convergence": "check_spectral_convergence",
    "chain_vs_sigma_inf": "check_chain_vs_limit",
    "two_step_quadrature": "check_two_step_quadrature",
    "partial_sum_identity": "check_partial_sum_identity",
    "povm_roundtrip": "check_povm_roundtrip",
    "weak_vs_replace_gap": "check_weak_vs_replace",
}


class TestRunBattery:
    @pytest.fixture
    def setup(self, ref_config):
        cfg = ref_config(n=20000, seed=3)
        return cfg, default_grid_for(cfg, n_points=1024)

    @staticmethod
    def serial(cfg, grid):
        """The battery as one call per check."""
        return [
            validation.check_grid_vs_closed_form(cfg.params),
            validation.check_spectral_convergence(cfg.params),
            validation.check_chain_vs_limit(cfg),
            validation.check_two_step_quadrature(cfg.params),
            validation.check_partial_sum_identity(cfg),
            validation.check_povm_roundtrip(),
            validation.check_weak_vs_replace(cfg, grid),
        ]

    @staticmethod
    def stub_checks(monkeypatch, seen, fail=None):
        """Replace every check by one that records its name, thread and
        np.geterr(); the check named fail raises instead."""
        for name, attr in CHECKS.items():
            def stub(*args, name=name):
                seen.append((name, threading.get_ident(), np.geterr()))
                if name == fail:
                    raise ValueError(f"{name} broke")
                return CheckResult(name, True, 0.0, 1.0)

            monkeypatch.setattr(validation, attr, stub)

    @pytest.mark.parametrize("cpus", [1, 2, 7])
    def test_matches_serial_run(self, monkeypatch, setup, cpus):
        # the battery's results do not depend on how many CPUs the machine reports
        cfg, grid = setup
        expected = [r.as_dict() for r in self.serial(cfg, grid)]
        monkeypatch.setattr(ts, "_usable_cpus", lambda: cpus)
        got = [r.as_dict() for r in run_battery(cfg, grid)]
        assert [c["name"] for c in got] == list(CHECKS)
        # repr tells -0.0 from 0.0, so this is bit for bit
        assert repr(got) == repr(expected)

    def test_crash_fails_its_own_check_only(self, monkeypatch, setup):
        seen = []
        self.stub_checks(monkeypatch, seen, fail="two_step_quadrature")
        results = run_battery(*setup)
        # the checks after the crash still run, in order
        assert [name for name, _, _ in seen] == list(CHECKS)
        assert [r.name for r in results] == list(CHECKS)
        crashed = results[3]
        assert (crashed.passed, crashed.measured, crashed.tolerance) == (False, None, None)
        assert crashed.detail == "ValueError: two_step_quadrature broke"
        assert all(r.passed for i, r in enumerate(results) if i != 3)

    def test_errstate_reaches_every_check(self, monkeypatch, setup):
        seen = []
        self.stub_checks(monkeypatch, seen)
        with np.errstate(all="raise"):
            run_battery(*setup)
        # each check, in order, on the calling thread and in its np.errstate
        raise_all = dict.fromkeys(("divide", "over", "under", "invalid"), "raise")
        assert seen == [(name, threading.get_ident(), raise_all) for name in CHECKS]


def test_chain_check_peak_does_not_grow_with_n(ref_config):
    # the check reads only the chain's statistics, so it keeps no record;
    # the untraced run warms the chain's code paths and imports the backend
    # that 2^21 normals take (scipy.special, above PORT_MAX_VALUES)
    validation.check_chain_vs_limit(ref_config(n=1 << 21))
    short, long = (traced_peak(lambda: validation.check_chain_vs_limit(ref_config(n=n, seed=3))) for n in (1 << 19, 1 << 21))
    assert long <= short + (1 << 20)


# The propagator checks evolve packets given in sigma_gs, for times in T, on
# a grid of +-16 sigma_gs: every setup poses them the same dimensionless
# problem. On the chain's grid, with packets in absolute units, the first
# three setups crashed (GridTooSmall, GridTooCoarse) and the fourth failed
# both checks, at 1.2e5 and 13 times their tolerances.
SCALED_SETUPS = [
    ["--mass", "1e4"],
    ["--omega", "100"],
    ["--hbar", "0.005", "--varsigma-m", "0.015", "--sigma-x0", "0.0095"],
    ["--tau-m", "0.495"],
    ["--x0", "10"],
    ["--mass", "1e-4"],
    ["--omega", "1e4"],
    ["--hbar", "1e-4"],
]
PROPAGATOR_CHECKS = ("grid_vs_closed_form", "spectral_convergence")


def validate_chain(argv):
    """The ChainConfig of the validate setup of argv."""
    return cli.resolve_config(cli.build_parser().parse_args(["validate", "--n", "2000", *argv])).chain


def propagator_results(argv):
    """The two propagator checks of run_battery on the validate setup of argv."""
    cfg = validate_chain(argv)
    results = run_battery(cfg, default_grid_for(cfg))
    return {r.name: r for r in results if r.name in PROPAGATOR_CHECKS}


@pytest.fixture(scope="module")
def default_propagator_results():
    return propagator_results([])


@pytest.mark.parametrize("argv", SCALED_SETUPS, ids=" ".join)
def test_propagator_checks_do_not_depend_on_scale(argv, default_propagator_results):
    results = propagator_results(argv)
    for name, reference in default_propagator_results.items():
        assert reference.passed and results[name].passed, results[name].detail
        assert results[name].measured == pytest.approx(reference.measured, rel=1e-3)


def test_propagator_checks_at_default_setup(default_propagator_results):
    grid, spectral = (default_propagator_results[name] for name in PROPAGATOR_CHECKS)
    assert grid.measured == pytest.approx(6.500e-6, rel=1e-3)
    assert spectral.measured == pytest.approx(3.203e-10, rel=1e-3)


def per_packet_grid_check(params):
    """check_grid_vs_closed_form with one evolve per packet, time and route,
    as it was before the packets were stacked: the reference for its bits."""
    grid, sgs, T = validation._propagator_grid(params), params.sigma_gs, params.period
    routes = {"exact": None, "strang dt=T/1024": T / 1024}
    worst = dict.fromkeys(routes, 0.0)
    for sigma_x0 in (0.3, 0.6, 1.25):
        packet = WavePacket(x0=0.84 * sgs, sigma_x0=sigma_x0 * sgs)
        wf0 = grid_oracle.init_packet(grid, packet)
        for t in (0.1 * T, 0.23 * T, 0.45 * T):
            ref = evolved_density(params, packet, t)
            for route, dt in routes.items():
                wf = grid_oracle.evolve(wf0, t, params, dt=dt)
                err = max(
                    abs(wf.position_std() / ref.std - 1.0),
                    abs(wf.position_mean() - ref.mean) / max(abs(ref.mean), ref.std),
                )
                worst[route] = max(worst[route], err)
    route = max(worst, key=worst.get)
    detail = f"worst route {route}; " + ", ".join(f"{r} {e:.3g}" for r, e in worst.items())
    return validation._result("grid_vs_closed_form", worst[route], detail=detail)


@pytest.mark.parametrize("argv", [[], *SCALED_SETUPS], ids=lambda argv: " ".join(argv) or "default")
def test_stacked_grid_check_matches_per_packet_loop(argv):
    params = validate_chain(argv).params
    # repr tells -0.0 from 0.0, so this is bit for bit
    assert repr(validation.check_grid_vs_closed_form(params).as_dict()) == repr(per_packet_grid_check(params).as_dict())


def one_shot_quadrature(cf, n_nodes=401):
    """two_step_std_quadrature with the whole n_nodes x n_nodes kernel at
    once, as it was before it was built in blocks: the reference for its bits."""
    d1 = Gaussian(0.0, cf.sigma_first)
    span = 12.0 * math.sqrt(cf.sigma_step**2 + cf.sigma_first**2)
    u = np.linspace(-12.0 * cf.sigma_first, 12.0 * cf.sigma_first, n_nodes)
    x = np.linspace(-span, span, n_nodes)
    kernel = Gaussian(0.0, cf.sigma_step).pdf(x[:, None] - cf.rho * u[None, :])
    d2 = np.trapezoid(kernel * d1.pdf(u)[None, :], u, axis=1)
    mass = np.trapezoid(d2, x)
    mean = np.trapezoid(x * d2, x) / mass
    var = np.trapezoid((x - mean) ** 2 * d2, x) / mass
    return math.sqrt(var)


def quadrature_setups(params, count, seed):
    """count closed forms drawn from check_two_step_quadrature's box."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        scheme = MeasurementScheme(t_M=params.period * rng.uniform(0.05, 0.45), sigma_M=rng.uniform(0.2, 2.0))
        yield ChainClosedForm.from_setup(params, scheme, WavePacket(0.0, rng.uniform(0.2, 2.0)))


def test_blocked_quadrature_matches_one_shot(ref_params):
    for cf in quadrature_setups(ref_params, 250, seed=2029):
        assert validation.two_step_std_quadrature(cf).hex() == one_shot_quadrature(cf).hex(), cf
    # a node count that is no multiple of the block, as the acceptance suite's 1601
    for cf in quadrature_setups(ref_params, 3, seed=2030):
        assert validation.two_step_std_quadrature(cf, n_nodes=1601).hex() == one_shot_quadrature(cf, 1601).hex(), cf


def test_quadrature_peak_is_under_a_megabyte(ref_params):
    # the one-shot kernel of 401 x 401 doubles was 1.28 MB by itself
    cf = next(quadrature_setups(ref_params, 1, seed=2031))
    assert traced_peak(lambda: validation.two_step_std_quadrature(cf)) < 1 << 20


def test_strang_half_shear_off_by_one_percent_fails_both(monkeypatch, ref_params):
    # a Strang sweep's position chirp with s_x = 1.01 theta / 2: the error
    # does not shrink with dt, so halving dt no longer leaves the std as it
    # was (1.65e-6 against 1e-6), and the evolved widths miss (3.6e-2)
    exact_sweep = grid_oracle._sweep

    def mutated(grid, t, params, dt):
        cx, ck, sweeps = exact_sweep(grid, t, params, dt)
        if dt is not None:
            s_x = 1.01 * 0.5 * params.omega * t / sweeps
            cx = np.exp(-0.5j * params.mass * params.omega * s_x / params.hbar * grid.x**2)
        return cx, ck, sweeps

    monkeypatch.setattr(grid_oracle, "_sweep", mutated)
    grid = validation.check_grid_vs_closed_form(ref_params)
    spectral = validation.check_spectral_convergence(ref_params)
    assert not grid.passed and grid.measured > 100 * grid.tolerance
    assert not spectral.passed


def test_closed_form_width_off_by_1e3_fails_grid_check(monkeypatch, ref_params):
    exact = validation.evolved_density

    def off(params, packet, t):
        ref = exact(params, packet, t)
        return Gaussian(ref.mean, ref.std * (1.0 + 1e-3))

    monkeypatch.setattr(validation, "evolved_density", off)
    result = validation.check_grid_vs_closed_form(ref_params)
    assert not result.passed and result.measured == pytest.approx(1e-3, rel=0.01)
