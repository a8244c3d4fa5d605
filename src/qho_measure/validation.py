"""Cross-validation battery: closed forms vs independent numerics.

Each check returns a CheckResult with the measured error, its tolerance and
their ratio (the margin; a check passes at margin <= 1); the CLI `validate`
subcommand renders these as pass/fail JSON. A check that crashed (a
non-finite measured error counts as a crash) has none of the three (None,
JSON null) and says why in its detail.

The two propagator checks run on their own grid (_propagator_grid), in
sigma_gs and T units, so they measure the same errors on every setup; the
weak check runs on the grid run_battery is given, the chain's. run_battery
runs the checks one after another on the calling thread. Every check is
deterministic and independent of the others, so the results do not depend
on their order or on the CPU count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain_analytics import (
    ChainClosedForm,
    ChainConfig,
    MeasurementScheme,
    density_before_nth,
    ensemble_variance_partial,
    limiting_sigma,
    povm_parameters,
)
from .gaussian_core import (
    Gaussian,
    OscillatorParams,
    WavePacket,
    evolved_density,
    gaussian_product,
)
from .grid_oracle import DEFAULT_STEPS_PER_PERIOD, CollapseMode, Grid, GridWavefunction, evolve, init_packet
from .trajectory_sim import run_chain

# Each check passes when its measured error is at most its tolerance here.
TOLERANCES = {
    "grid_vs_closed_form": 1e-4,
    "spectral_convergence": 1e-6,
    "chain_vs_sigma_inf": 0.01,
    "two_step_quadrature": 1e-6,
    "partial_sum_identity": 1e-10,
    "povm_roundtrip": 1e-9,
    "weak_vs_replace_gap": 0.05,
}

# rows of x per block of two_step_std_quadrature's kernel: 32 x 401 doubles
# (100 KB) stay below glibc's mmap threshold, so each block reuses the heap
QUADRATURE_BLOCK_ROWS = 32


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float | None
    tolerance: float | None
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "margin": None if self.measured is None else self.measured / self.tolerance,
            "detail": self.detail,
        }


def _result(name, measured, detail=""):
    tolerance = TOLERANCES[name]
    if not math.isfinite(measured):  # run_battery reports it as a crash
        raise FloatingPointError(f"measured error is {measured}; {detail}".removesuffix("; "))
    return CheckResult(name, measured <= tolerance, float(measured), tolerance, detail)


def _propagator_grid(params: OscillatorParams) -> Grid:
    """The grid of the two propagator checks: +-16 sigma_gs on 512 points.

    Their packets are given in sigma_gs and their times in T, so on this grid
    they evolve the same dimensionless problem for every mass, omega and hbar.
    dx is sigma_gs / 16, which resolves the narrowest packet (0.3 sigma_gs)
    by 4.8 points, and the widest evolved packet reaches 14.2 sigma_gs
    (|x0| + 8 widths), inside the extent."""
    return Grid.symmetric(16.0 * params.sigma_gs, 512)


def check_grid_vs_closed_form(params: OscillatorParams) -> CheckResult:
    """Grid-evolved density mean/std vs the closed forms, on a (sigma_x0, t)
    grid in sigma_gs and T units, by both propagators: the exact rotation and
    Strang steps at the default step. The worse route sets the measured
    error. The three packets evolve as one stack of rows."""
    grid, sgs, T = _propagator_grid(params), params.sigma_gs, params.period
    routes = {"exact": None, f"strang dt=T/{DEFAULT_STEPS_PER_PERIOD}": T / DEFAULT_STEPS_PER_PERIOD}
    worst = dict.fromkeys(routes, 0.0)
    packets = [WavePacket(x0=0.84 * sgs, sigma_x0=s * sgs) for s in (0.3, 0.6, 1.25)]
    wf0 = GridWavefunction(grid, np.stack([init_packet(grid, packet).psi for packet in packets]))
    for t in (0.1 * T, 0.23 * T, 0.45 * T):
        refs = [evolved_density(params, packet, t) for packet in packets]
        for route, dt in routes.items():
            for ref, row in zip(refs, evolve(wf0, t, params, dt=dt).psi):
                wf = GridWavefunction(grid, row)
                err = max(
                    abs(wf.position_std() / ref.std - 1.0),
                    abs(wf.position_mean() - ref.mean) / max(abs(ref.mean), ref.std),
                )
                worst[route] = max(worst[route], err)
    route = max(worst, key=worst.get)
    detail = f"worst route {route}; " + ", ".join(f"{r} {e:.3g}" for r, e in worst.items())
    return _result("grid_vs_closed_form", worst[route], detail=detail)


def check_spectral_convergence(params: OscillatorParams) -> CheckResult:
    """Halving dt must leave the one-period density std unchanged to within
    the tolerance, for a packet at x0 = sigma_x0 = 0.42 sigma_gs."""
    grid, sgs = _propagator_grid(params), params.sigma_gs
    wf0 = init_packet(grid, WavePacket(x0=0.42 * sgs, sigma_x0=0.42 * sgs))
    dt = params.period / 1024
    s1 = evolve(wf0, params.period, params, dt=dt).position_std()
    s2 = evolve(wf0, params.period, params, dt=dt / 2).position_std()
    return _result("spectral_convergence", abs(s1 / s2 - 1.0))


def check_chain_vs_limit(cfg: ChainConfig) -> CheckResult:
    target = limiting_sigma(cfg.closed_form)
    _, stats = run_chain(cfg, keep=False)
    return _result(
        "chain_vs_sigma_inf",
        abs(stats.std / target - 1.0),
        detail=f"sample std {stats.std:.6g} vs sigma_inf {target:.6g}",
    )


def check_two_step_quadrature(params: OscillatorParams) -> CheckResult:
    """Numerical convolution of the first density with the one-step kernel
    must reproduce the closed-form second-measurement width, over 20 random
    setups."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        scheme = MeasurementScheme(
            t_M=params.period * rng.uniform(0.05, 0.45),
            sigma_M=rng.uniform(0.2, 2.0),
        )
        initial = WavePacket(0.0, rng.uniform(0.2, 2.0))
        cf = ChainClosedForm.from_setup(params, scheme, initial)
        std_quad = two_step_std_quadrature(cf)
        std_closed = density_before_nth(cf, 2).std
        worst = max(worst, abs(std_quad / std_closed - 1.0))
    return _result("two_step_quadrature", worst)


def two_step_std_quadrature(cf: ChainClosedForm, n_nodes: int = 401) -> float:
    """Std of the second-outcome density computed by direct quadrature:
    integrate D1(u) * N(x; u*rho, sigma_step) over u, then take moments.

    The trapezoid rule converges exponentially on these smooth, decaying
    integrands: 401 nodes over +-12 widths reach the float floor across the
    battery's parameter box, where 201 nodes can be off by 4e-5. The kernel is
    built QUADRATURE_BLOCK_ROWS rows of x at a time, with the whole kernel's bits."""
    span = 12.0 * math.sqrt(cf.sigma_step**2 + cf.sigma_first**2)
    u = np.linspace(-12.0 * cf.sigma_first, 12.0 * cf.sigma_first, n_nodes)
    x = np.linspace(-span, span, n_nodes)
    kernel, rho_u, d1 = Gaussian(0.0, cf.sigma_step), cf.rho * u, Gaussian(0.0, cf.sigma_first).pdf(u)
    rows = (x[lo:lo + QUADRATURE_BLOCK_ROWS, None] for lo in range(0, n_nodes, QUADRATURE_BLOCK_ROWS))
    d2 = np.concatenate([np.trapezoid(kernel.pdf(xs - rho_u) * d1, u, axis=1) for xs in rows])
    mass = np.trapezoid(d2, x)
    mean = np.trapezoid(x * d2, x) / mass
    var = np.trapezoid((x - mean) ** 2 * d2, x) / mass
    return math.sqrt(var)


def check_partial_sum_identity(cfg: ChainConfig) -> CheckResult:
    """Closed-form s_n^2 vs brute-force averaging of the first n variances."""
    cf, worst = cfg.closed_form, 0.0
    for n in (1, 2, 3, 10, 100, 10_000):
        brute = sum(density_before_nth(cf, i).variance for i in range(1, n + 1)) / n
        closed = ensemble_variance_partial(cf, n)
        worst = max(worst, abs(closed / brute - 1.0))
    return _result("partial_sum_identity", worst)


def check_povm_roundtrip() -> CheckResult:
    """Product of the weak window with the prior must reproduce the collapse,
    over 100 random priors and outcomes."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        sigma_M = rng.uniform(0.1, 2.0)
        prior = Gaussian(rng.normal(0, 2), sigma_M * rng.uniform(1.01, 100.0))
        x_M = rng.normal(0, 2)
        sigma_W, x_W = povm_parameters(sigma_M, x_M, prior)
        prod = gaussian_product(Gaussian(x_W, sigma_W), prior)
        scale = max(abs(x_M), sigma_M)
        err = max(abs(prod.std / sigma_M - 1.0), abs(prod.mean - x_M) / scale)
        worst = max(worst, err)
    return _result("povm_roundtrip", worst)


def check_weak_vs_replace(cfg: ChainConfig, grid: Grid) -> CheckResult:
    """Per-collapse gap between the weak-product posterior density and the
    replacement state, over the first 30 collapses of a Replace-mode chain.

    This quantifies how well the narrow Gaussian stands in for the full
    product *state by state*. Whole-chain sample statistics of the two modes
    do NOT agree: the weak product keeps the prior's phase, whose momentum
    back-action heats the oscillator without bound (sample std grows like
    sqrt(n)), while the replacement resets it. See the acceptance suite for
    the chain-level measurement of that divergence.
    """
    from .grid_oracle import apply_collapse, measure_and_collapse

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    wf = init_packet(grid, cfg.initial)
    worst = 0.0
    for _ in range(30):
        wf = evolve(wf, cfg.scheme.t_M, cfg.params)
        x_M, wf_replace = measure_and_collapse(wf, cfg.scheme.sigma_M, CollapseMode.REPLACE, rng)
        wf_weak = apply_collapse(wf, cfg.scheme.sigma_M, x_M, CollapseMode.WEAK_PRODUCT)
        std_r, std_w = wf_replace.position_std(), wf_weak.position_std()
        err = max(
            abs(std_w / std_r - 1.0),
            abs(wf_weak.position_mean() - wf_replace.position_mean()) / std_r,
        )
        worst = max(worst, err)
        wf = wf_replace
    return _result("weak_vs_replace_gap", worst)


def run_battery(cfg: ChainConfig, grid: Grid) -> list[CheckResult]:
    """Full cross-validation suite, run in the order below on the calling
    thread (so in its np.errstate); exceptions become failed checks; grid is
    the weak check's only."""
    checks = [
        ("grid_vs_closed_form", lambda: check_grid_vs_closed_form(cfg.params)),
        ("spectral_convergence", lambda: check_spectral_convergence(cfg.params)),
        ("chain_vs_sigma_inf", lambda: check_chain_vs_limit(cfg)),
        ("two_step_quadrature", lambda: check_two_step_quadrature(cfg.params)),
        ("partial_sum_identity", lambda: check_partial_sum_identity(cfg)),
        ("povm_roundtrip", check_povm_roundtrip),
        ("weak_vs_replace_gap", lambda: check_weak_vs_replace(cfg, grid)),
    ]
    results = []
    for name, check in checks:
        try:
            results.append(check())
        except Exception as exc:  # a crash is a failed check with a diagnostic
            results.append(CheckResult(name, False, None, None, detail=f"{type(exc).__name__}: {exc}"))
    return results
