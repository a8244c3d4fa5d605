"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line with the measured quantity.

Criterion 12 is expected to fail. A weak-measurement window multiplied onto
the wavefunction preserves the pre-measurement phase profile, so the
conditional momentum is never reset; the chain's conditional mean performs an
undamped noise-driven rotation and the sample std grows like sqrt(n) instead
of settling at the closed-form limit. The replacement collapse resets the
phase each step, which is exactly what makes that chain stationary. The test
states the criterion faithfully and reports the divergence honestly.
"""
import itertools
import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar
from scipy.stats import spearmanr

from qho_measure.chain_analytics import (
    ChainClosedForm,
    ChainConfig,
    MeasurementScheme,
    NondimPoint,
    density_before_nth,
    ensemble_variance_partial,
    limiting_sigma,
    limiting_sigma_simplified,
    nondim_limit,
    povm_parameters,
)
from qho_measure.errors import LeakageError
from qho_measure.gaussian_core import (
    Gaussian,
    OscillatorParams,
    WavePacket,
    evolved_density,
    evolved_width,
    gaussian_product,
)
from qho_measure.trajectory_sim import (
    ks_critical_1pct,
    normality_statistic,
    run_chain,
    run_chain_jittered,
    thinning_interval,
)
from qho_measure.cli import main as cli_main
from qho_measure.grid_oracle import CollapseMode, Grid, evolve, init_packet, run_chain_grid
from qho_measure import validation
from qho_measure.validation import check_two_step_quadrature, two_step_std_quadrature

PARAMS = OscillatorParams(mass=1.0, omega=0.707, hbar=1.0)
SCHEME = MeasurementScheme(t_M=0.2 * PARAMS.period, sigma_M=0.5)
PACKET = WavePacket(x0=0.0, sigma_x0=PARAMS.sigma_gs)
CF = ChainClosedForm.from_setup(PARAMS, SCHEME, PACKET)
SIGMA_INF = limiting_sigma(CF)


def _report(num, desc, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:02d} ({desc}): {detail}")


def _cfg(n, seed, jitter_std=0.0, scheme=None, packet=None):
    sch = scheme or SCHEME
    if jitter_std:
        sch = MeasurementScheme(t_M=sch.t_M, sigma_M=sch.sigma_M, jitter_std=jitter_std)
    return ChainConfig(PARAMS, sch, packet or PACKET, n, seed)


def test_criterion_01_limiting_std():
    t0 = time.perf_counter()
    record, _ = run_chain(_cfg(500_000, seed=1))
    elapsed = time.perf_counter() - t0
    rel = abs(np.std(record.samples) / SIGMA_INF - 1.0)
    ok = rel < 0.01 and elapsed < 5.0
    _report(1, "limiting std, 5e5 steps", ok,
            f"rel err {rel:.2e} (tol 1e-2), runtime {elapsed:.2f}s (limit 5s)")
    assert ok


def test_criterion_02_convergence_curve():
    ns = (1_000, 10_000, 100_000, 500_000)
    errs = np.zeros(len(ns))
    for seed in range(20):
        record, _ = run_chain(_cfg(500_000, seed=100 + seed))
        for j, n in enumerate(ns):
            errs[j] += abs(np.std(record.samples[:n]) - SIGMA_INF)
    errs /= 20.0
    corr, _ = spearmanr(ns, errs)
    ok = corr < 0.0
    _report(2, "running std converges", ok,
            f"mean |err| {np.array2string(errs, precision=4)}, rank corr {corr:.2f}")
    assert ok


def test_criterion_03_normality():
    k = thinning_interval(CF.rho)
    passes = 0
    for seed in range(20):
        record, _ = run_chain(_cfg(500_000, seed=300 + seed))
        thinned = record.samples[::k]
        if normality_statistic(thinned, SIGMA_INF) <= ks_critical_1pct(len(thinned)):
            passes += 1
    ok = passes >= 18
    _report(3, "KS normality on thinned chains", ok,
            f"{passes}/20 runs pass at the 1% level (need >= 18)")
    assert ok


def test_criterion_04_formula_identity():
    rng = np.random.default_rng(4)
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(10_000):
        m = float(rng.uniform(0.2, 5.0))
        w = float(rng.uniform(0.2, 5.0))
        params = OscillatorParams(m, w, 1.0)
        tau = float(rng.uniform(0.02, 0.48))
        if abs(tau - 0.25) < 1e-6:
            tau += 1e-4
        sM = float(rng.uniform(0.1, 3.0))
        scheme = MeasurementScheme(t_M=tau * params.period, sigma_M=sM)
        cf = ChainClosedForm.from_setup(params, scheme, WavePacket(0.0, 1.0))
        a = limiting_sigma(cf)
        b = limiting_sigma_simplified(params, scheme)
        worst = max(worst, abs(a - b) / a)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    _report(4, "two limiting-width forms agree", ok,
            f"worst rel gap {worst:.2e} (tol 1e-12), runtime {elapsed:.2f}s (limit 1s)")
    assert ok


def test_criterion_05_two_step_quadrature():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        cf = ChainClosedForm(
            sigma_step=float(rng.uniform(0.3, 2.0)),
            sigma_first=float(rng.uniform(0.3, 3.0)),
            rho=float(rng.uniform(-0.95, 0.95)),
        )
        closed = density_before_nth(cf, 2).std
        quad = two_step_std_quadrature(cf)
        worst = max(worst, abs(quad / closed - 1.0))
    ok = worst < 1e-6
    _report(5, "second-density quadrature oracle", ok,
            f"worst rel gap {worst:.2e} (tol 1e-6)")
    assert ok


def _grid(lo, hi):
    return np.linspace(lo, hi, 3)  # both corners and the midpoint


QUADRATURE_BOXES = {
    # check_two_step_quadrature's sampling box: t_M/T, sigma_M, sigma_x0
    "battery": [
        ChainClosedForm.from_setup(
            PARAMS, MeasurementScheme(t_M=f * PARAMS.period, sigma_M=s_m), WavePacket(0.0, s_x0)
        )
        for f, s_m, s_x0 in itertools.product(_grid(0.05, 0.45), _grid(0.2, 2.0), _grid(0.2, 2.0))
    ],
    # criterion 5's sampling box: sigma_step, sigma_first, rho
    "criterion_05": [
        ChainClosedForm(sigma_step=a, sigma_first=b, rho=r)
        for a, b, r in itertools.product(_grid(0.3, 2.0), _grid(0.3, 3.0), _grid(-0.95, 0.95))
    ],
}


@pytest.mark.parametrize("box", sorted(QUADRATURE_BOXES))
def test_two_step_quadrature_default_nodes_match_1601(box):
    # the 401-node default agrees with a 4x finer trapezoid rule to the float floor
    for cf in QUADRATURE_BOXES[box]:
        fine = two_step_std_quadrature(cf, n_nodes=1601)
        assert abs(two_step_std_quadrature(cf) / fine - 1.0) <= 1e-13, cf


def test_two_step_quadrature_detects_2e6_closed_form_error(monkeypatch):
    # a closed form off by 2e-6 relative must still fail the 1e-6 check
    exact = validation.density_before_nth

    def off(cf, n, x0=0.0):
        g = exact(cf, n, x0)
        return Gaussian(g.mean, g.std * (1.0 + 2e-6))

    monkeypatch.setattr(validation, "density_before_nth", off)
    result = check_two_step_quadrature(PARAMS)
    assert not result.passed
    assert result.measured > result.tolerance == 1e-6


def test_criterion_06_partial_sum_oracle():
    q = CF.rho**2
    v_inf = SIGMA_INF**2

    def brute(n):
        # direct summation of the per-measurement variances
        i = np.arange(1, n + 1, dtype=float)
        geom = (1.0 - q ** (i - 1)) / (1.0 - q)
        var_i = CF.sigma_step**2 * geom + CF.sigma_first**2 * q ** (i - 1)
        return float(np.mean(var_i))

    worst = 0.0
    for n in (1, 2, 3, 10, 100, 10_000):
        b = brute(n)
        worst = max(worst, abs(ensemble_variance_partial(CF, n) / b - 1.0))

    ns = np.unique(np.geomspace(100, 1_000_000, 9).astype(int))
    errs = np.array([abs(ensemble_variance_partial(CF, int(n)) - v_inf) for n in ns])
    slope = float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
    ok = worst < 1e-10 and 0.9 <= -slope <= 1.1
    _report(6, "partial ensemble variance", ok,
            f"worst rel gap vs brute force {worst:.2e} (tol 1e-10), "
            f"decay exponent {-slope:.3f} (need 0.9..1.1)")
    assert ok


def test_criterion_07_grid_vs_closed_form():
    t0 = time.perf_counter()
    grid = Grid.symmetric(20.0, 4096)
    x0 = 0.8
    worst = 0.0
    for s0 in np.linspace(0.2, 2.0, 5):
        wf0 = init_packet(grid, WavePacket(x0, float(s0)))
        for frac in (0.08, 0.17, 0.29, 0.38, 0.46):
            t = frac * PARAMS.period
            out = evolve(wf0, t, PARAMS)
            ref = evolved_density(PARAMS, WavePacket(x0, float(s0)), t)
            worst = max(
                worst,
                abs(out.position_mean() - ref.mean) / max(1.0, abs(ref.mean)),
                abs(out.position_std() / ref.std - 1.0),
            )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    _report(7, "spectral engine vs closed forms", ok,
            f"worst rel gap {worst:.2e} over 25 points (tol 1e-4), "
            f"runtime {elapsed:.1f}s (limit 30s)")
    assert ok


def test_criterion_08_initial_state_independence():
    n = 500_000
    r1, _ = run_chain(_cfg(n, seed=8))
    r2, _ = run_chain(_cfg(n, seed=9, packet=WavePacket(x0=3.0, sigma_x0=0.2)))
    s1, s2 = float(np.std(r1.samples)), float(np.std(r2.samples))
    # std standard error for an AR(1)-correlated chain
    q = CF.rho**2
    se = SIGMA_INF / math.sqrt(2 * n) * math.sqrt(1.0 + 2.0 * q / (1.0 - q))
    pooled = math.sqrt(2.0) * se
    gap = abs(s1 - s2)
    ok = gap < 3 * pooled
    _report(8, "initial state forgotten", ok,
            f"std gap {gap:.2e} vs 3 pooled SE {3 * pooled:.2e}")
    assert ok


def test_criterion_09_optima_and_sweep(tmp_path):
    worst = 0.0
    for tau in (1.0 / 12.0, 0.125, 1.0 / 6.0):
        res = minimize_scalar(
            lambda v: nondim_limit(NondimPoint(v, tau)),
            bounds=(0.05, 3.0), method="bounded", options={"xatol": 1e-10},
        )
        target = math.sqrt(math.tan(2 * math.pi * tau) / 2.0)
        worst = max(worst, abs(res.x - target))

    out = tmp_path / "sweep"
    rc = cli_main(["sweep", "--sweep-tau", "0.05", "1.05", "81",
                   "--varsigma-m", "0.5", "--out", str(out)])
    assert rc == 0
    rows = [ln.split(",") for ln in (out / "sweep.csv").read_text().splitlines()
            if ln and not ln.startswith("#") and not ln.startswith("varsigma")]
    taus = np.array([float(r[1]) for r in rows])
    vals = [float(r[2]) if r[3] == "ok" else None for r in rows]
    period_gap = 0.0
    for i in range(len(rows) - 40):  # tau + 1/2 is 40 grid steps away
        if vals[i] is not None and vals[i + 40] is not None:
            period_gap = max(period_gap, abs(vals[i] - vals[i + 40]))
    finite = [(t, v) for t, v in zip(taus, vals) if v is not None]
    lo = min((p for p in finite if p[0] < 0.5), key=lambda p: p[1])
    hi = min((p for p in finite if 0.5 < p[0] < 1.0), key=lambda p: p[1])
    step = taus[1] - taus[0]
    minima_ok = abs(lo[0] - 0.25) <= step / 2 and abs(hi[0] - 0.75) <= step / 2
    ok = worst < 1e-6 and period_gap < 1e-12 and minima_ok
    _report(9, "optimal precision and sweep structure", ok,
            f"minimizer gap {worst:.2e} (tol 1e-6), half-period gap "
            f"{period_gap:.2e} (tol 1e-12), minima at tau {lo[0]:.4f}, {hi[0]:.4f}")
    assert ok


def test_criterion_10_povm_roundtrip():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(1000):
        s_psi = float(rng.uniform(0.2, 5.0))
        sigma_M = s_psi * float(rng.uniform(0.01, 0.99))
        prior = Gaussian(float(rng.normal(0.0, 2.0)), s_psi)
        x_M = float(rng.normal(0.0, 2.0))
        sW, xW = povm_parameters(sigma_M, x_M, prior)
        post = gaussian_product(Gaussian(xW, sW), prior)
        worst = max(
            worst,
            abs(post.mean - x_M) / max(1.0, abs(x_M)),
            abs(post.std / sigma_M - 1.0),
        )
    ok = worst < 1e-9
    _report(10, "weak-window round trip", ok, f"worst rel gap {worst:.2e} (tol 1e-9)")
    assert ok


def test_criterion_11_jitter_robustness():
    record, _ = run_chain_jittered(_cfg(500_000, seed=11, jitter_std=0.01 * SCHEME.t_M))
    rel = abs(np.std(record.samples) / SIGMA_INF - 1.0)
    ok = rel < 0.02
    _report(11, "1% timing jitter", ok, f"std rel shift {rel:.2e} (tol 2e-2)")
    assert ok


def test_criterion_12_weak_vs_replace_chain():
    # instrument width at one tenth of the evolved packet width, solved
    # self-consistently since the evolved width depends on sigma_M itself
    t_M = SCHEME.t_M
    sigma_M = brentq(
        lambda s: 0.1 * evolved_width(PARAMS, s, t_M) - s, 1e-3, 5.0, xtol=1e-14
    )
    scheme = MeasurementScheme(t_M=t_M, sigma_M=sigma_M)
    cfg = ChainConfig(PARAMS, scheme, PACKET, 10_000, seed=12)
    dt = PARAMS.period / 128
    replace = run_chain_grid(cfg, mode=CollapseMode.REPLACE, dt=dt)
    std_replace = float(np.std(replace.samples))
    try:
        weak = run_chain_grid(cfg, mode=CollapseMode.WEAK_PRODUCT, dt=dt)
    except LeakageError as exc:
        _report(12, "weak-product chain matches replacement", False,
                f"replace std {std_replace:.3f}; weak-product chain escaped "
                f"the grid before completing ({exc})")
        pytest.fail(
            "weak-product chain is not stationary: the window product keeps "
            "the pre-measurement phase, so the conditional momentum is never "
            "reset and the outcome std grows like sqrt(n) until the packet "
            "reaches any finite boundary"
        )
    std_weak = float(np.std(weak.samples))
    rel = abs(std_weak / std_replace - 1.0)
    ok = rel < 0.05
    _report(12, "weak-product chain matches replacement", ok,
            f"replace std {std_replace:.3f}, weak std {std_weak:.3f}, "
            f"gap {rel:.2e} (tol 5e-2)")
    assert ok
