import sys
import threading

import numpy as np
import pytest

from qho_measure import cli, grid_oracle
from qho_measure import trajectory_sim as ts
from qho_measure import validation
from qho_measure.gaussian_core import Gaussian
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
        """The battery as a single-threaded loop over the checks."""
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
        cfg, grid = setup
        expected = [r.as_dict() for r in self.serial(cfg, grid)]
        monkeypatch.setattr(ts, "_usable_cpus", lambda: cpus)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads trade the interpreter lock as often as they can
        try:
            got = [r.as_dict() for r in run_battery(cfg, grid)]
        finally:
            sys.setswitchinterval(interval)
        assert [c["name"] for c in got] == list(CHECKS)
        # repr tells -0.0 from 0.0, so this is bit for bit
        assert repr(got) == repr(expected)

    def test_crash_fails_its_own_check_only(self, monkeypatch, setup):
        seen = []
        self.stub_checks(monkeypatch, seen, fail="two_step_quadrature")
        monkeypatch.setattr(ts, "_usable_cpus", lambda: 2)
        results = run_battery(*setup)
        assert sorted(name for name, _, _ in seen) == sorted(CHECKS)
        assert [r.name for r in results] == list(CHECKS)
        crashed = results[3]
        assert (crashed.passed, crashed.measured, crashed.tolerance) == (False, None, None)
        assert crashed.detail == "ValueError: two_step_quadrature broke"
        assert all(r.passed for i, r in enumerate(results) if i != 3)

    def test_errstate_reaches_every_check(self, monkeypatch, setup):
        seen = []
        self.stub_checks(monkeypatch, seen)
        monkeypatch.setattr(ts, "_usable_cpus", lambda: 2)
        with np.errstate(all="raise"):
            run_battery(*setup)
        assert len(seen) == 7 and len({ident for _, ident, _ in seen}) == 2
        assert all(err == dict.fromkeys(("divide", "over", "under", "invalid"), "raise") for *_, err in seen)

    def test_joins_its_threads(self, monkeypatch, setup):
        self.stub_checks(monkeypatch, [], fail="spectral_convergence")
        monkeypatch.setattr(ts, "_usable_cpus", lambda: 7)
        before = threading.active_count()
        run_battery(*setup)
        assert threading.active_count() == before


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


def propagator_results(argv):
    """The two propagator checks of run_battery on the validate setup of argv."""
    cfg = cli.resolve_config(cli.build_parser().parse_args(["validate", "--n", "2000", *argv])).chain
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
